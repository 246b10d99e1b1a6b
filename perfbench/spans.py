"""In-memory spans around the calls between the braidcovers modules.

A Tracer replaces module attributes (``search.enumerate_fixed_sigma``,
``perm.cycle_type`` and so on) with wrappers that open a span on entry
and close it on exit.  Callers look these names up through the module
at call time, so every call that crosses a module boundary is seen
without editing the package.  A span's layer is the part of its name
before the first dot, and its self time is its duration minus the time
covered by the spans opened inside it.

Two kinds of span:

* kept spans are stored one by one (name, parent, start, end, self
  time, plus a few values read off the result);
* folded spans are the hot leaves, called hundreds of thousands of
  times in a degree-8 search.  They still nest and are still subtracted
  from their parent's self time, but are stored only as per-(name,
  parent name) call counts and second totals, so memory stays bounded.

The ``progress`` and ``sink`` callbacks that an enumeration receives
run inside the search span but belong to the caller; they are wrapped
as ``cli.progress`` and ``cli.sink`` spans so their time lands in the
cli layer.  Every enumeration also records a timestamp per finished
slice, whether or not its caller asked for progress.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Callable, Dict, List, Optional, Tuple


class _Span:
    __slots__ = ("name", "parent", "start", "end", "child", "info", "index")

    def __init__(self, name: str, parent: Optional["_Span"], start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child = 0.0       # seconds covered by spans opened inside
        self.info: Optional[dict] = None
        self.index = -1        # position in Tracer.spans; -1 when folded


class Tracer:
    """Span recorder.  ``clock`` is injectable so tests can fix times."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[_Span] = []
        self.folded: Dict[Tuple[str, str], List[float]] = {}
        self._stack: List[_Span] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str, keep: bool) -> _Span:
        parent = self._stack[-1] if self._stack else None
        span = _Span(name, parent, self.clock())
        if keep:
            span.index = len(self.spans)
            self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: _Span) -> None:
        span.end = self.clock()
        self._stack.pop()
        duration = span.end - span.start
        if span.parent is not None:
            span.parent.child += duration
        if span.index < 0:
            key = (span.name, span.parent.name if span.parent else "")
            entry = self.folded.get(key)
            if entry is None:
                entry = self.folded[key] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - span.child

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a kept span; return its result."""
        span = self._open(name, True)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable, *, keep: bool = True,
             info: Optional[Callable[[tuple, object], dict]] = None
             ) -> Callable:
        """``fn`` with every call recorded as a span called ``name``.

        ``info(args, result)`` returns values stored on a kept span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if info is not None:
                span.info = info(args, result)
            return result
        return traced

    def wrap_enumeration(self, name: str, fn: Callable) -> Callable:
        """Like wrap, for search entry points taking ``sink``/``progress``.

        The callbacks are re-wrapped as cli spans, and the end of every
        slice is timestamped into the span's ``info["slices"]``.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, True)
            marks: List[float] = []
            progress = kwargs.get("progress")

            def on_slice(done: int, total: int) -> None:
                marks.append(tracer.clock())
                if progress is not None:
                    tracer.call("cli.progress", progress, done, total)

            kwargs["progress"] = on_slice
            if kwargs.get("sink") is not None:
                kwargs["sink"] = tracer.wrap("cli.sink", kwargs["sink"])
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            span.info = {"solutions": result.fixed_count,
                         "slices": [t - span.start for t in marks]}
            return result
        return traced

    # -- installing ------------------------------------------------------

    def patch(self, owner: object, attr: str, replacement: Callable) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap the braidcovers module boundaries the benchmark measures.

        Forked pool workers get the original functions back: their spans
        would never reach this process, and they should run at full speed.
        """
        from braidcovers import cli, groups, perm, search

        for entry in ("enumerate_fixed_sigma", "enumerate_parallel"):
            if hasattr(search, entry):
                self.patch(search, entry, self.wrap_enumeration(
                    "search." + entry, getattr(search, entry)))
        self.patch(search, "analyze",
                   self.wrap("search.analyze", search.analyze))
        self.patch(search, "orbit_decomposition", self.wrap(
            "search.orbit_decomposition", search.orbit_decomposition,
            info=lambda args, res: {"orbits": len(res)}))
        self.patch(search, "image_name_histogram", self.wrap(
            "search.image_name_histogram", search.image_name_histogram,
            info=lambda args, res: {"requests": len(args[0])}))
        self.patch(groups, "fingerprint", self.wrap(
            "groups.fingerprint", groups.fingerprint,
            info=lambda args, res: {"order": res.order}))
        self.patch(groups, "centralizer_order", self.wrap(
            "groups.centralizer_order", groups.centralizer_order, keep=False))
        self.patch(perm, "cycle_type", self.wrap(
            "perm.cycle_type", perm.cycle_type, keep=False))
        self.patch(perm, "format_cycles", self.wrap(
            "perm.format_cycles", perm.format_cycles, keep=False))
        cache = getattr(cli, "_ImageCache", None)
        if cache is not None:
            self.patch(cache, "get", self.wrap("cli.image_cache", cache.get))
        os.register_at_fork(after_in_child=self.restore)

    # -- output ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "spans": [{
                "name": s.name,
                "parent": s.parent.index if s.parent is not None else -1,
                "start": s.start,
                "end": s.end,
                "self": s.end - s.start - s.child,
                "info": s.info,
            } for s in self.spans],
            "folded": [{"name": name, "parent": parent, "calls": calls,
                        "seconds": total, "self": own}
                       for (name, parent), (calls, total, own)
                       in sorted(self.folded.items())],
        }


def run_traced(argv: List[str]) -> Tuple[int, dict]:
    """Run the braidcovers CLI under a Tracer: exit code and {"trace": spans}."""
    from braidcovers import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.call("cli.main", cli.main, argv)
    finally:
        tracer.restore()
    return code, {"trace": tracer.to_json()}
