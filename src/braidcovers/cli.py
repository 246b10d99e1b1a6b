"""Command-line interface.

Subcommands:

    count       enumerate one degree and print the counts
    table       counts, surface numbers and optional orbit data over a range
    orbits      conjugacy classes of the fixed-sigma solution set
    list        stream every solution as one JSON object per line
    oracle      compare the engine against the unpruned relation scan (n <= 4)
    invariants  surface invariants only, no enumeration

`orbits`, and `count`/`table` with --collect, report the conjugacy
classes and their image groups from the orbit-factored count search,
fingerprinting one representative per class, without keeping the
solutions; only `list` and `oracle` hold or stream every solution.

Every run is deterministic: same command, same bytes out, for any
--workers, and list streams under the pool too.  Exit codes: 0 success,
1 usage error or failure, 2 oracle mismatch, 130 interrupted (Ctrl-C),
143 terminated (SIGTERM).  An interrupted or terminated run leaves no
--out file behind.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import signal
import sys
from typing import Dict, Iterator, List, Optional, Sequence, TextIO

from . import groups, perm, search, surface
from .words import Assignment

LONG_DEGREE = 8  # searches from here up want an explicit go-ahead


class UsageError(Exception):
    pass


class _Terminated(BaseException):
    """SIGTERM, raised in the main thread like KeyboardInterrupt so that
    the --out temporary file is removed on the way out."""


def _terminate(signum, frame):
    raise _Terminated


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); we want 1
        raise UsageError(message)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """One validated invocation; all computation downstream is seed-free."""

    command: str
    degrees: List[int]
    workers: int
    fmt: str
    out: Optional[str]
    confirm_long: bool
    collect: bool

    @property
    def single_degree(self) -> int:
        if len(self.degrees) != 1:
            raise UsageError(
                f"{self.command} takes a single degree, not a range")
        return self.degrees[0]


def _parse_degrees(text: str) -> List[int]:
    """A degree argument: a single integer "4" or a range "2..9"."""
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise UsageError(f"bad degree range: {text!r}") from None
        if lo > hi:
            raise UsageError(f"empty degree range: {text!r}")
        degrees = list(range(lo, hi + 1))
    else:
        try:
            degrees = [int(text)]
        except ValueError:
            raise UsageError(f"bad degree: {text!r}") from None
    for n in degrees:
        if n < 2:
            raise UsageError(f"degree must be at least 2, got {n}")
    return degrees


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="braidcovers",
        description=("Transitive transposition-class representations of the "
                     "genus-2 two-string surface braid group, and the "
                     "branched covers they classify."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, ranged: bool) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", required=True, metavar="N|A..B" if ranged else "N",
                       help="covering degree" + (" or inclusive range a..b" if ranged else ""))
        p.add_argument("--workers", type=int, default=1,
                       help="search processes (default 1, the reference mode)")
        p.add_argument("--format", choices=("text", "csv", "json"),
                       default="text", dest="fmt")
        p.add_argument("--out", default=None, help="write output to this file")
        p.add_argument("--confirm-long", action="store_true",
                       help=f"required for degrees >= {LONG_DEGREE}")
        p.add_argument("--collect", action="store_true",
                       help=("report conjugacy classes and image groups, "
                             "one representative per class; no solutions "
                             "are kept"))
        p.add_argument("--seed", default=None, help=argparse.SUPPRESS)
        return p

    add("count", "enumerate one degree and print counts", ranged=False)
    add("table", "summary table over a degree range", ranged=True)
    add("orbits", "conjugacy classes of the solution set", ranged=False)
    add("list", "stream all solutions as JSON lines", ranged=False)
    add("oracle", "check the engine against the unpruned scan", ranged=False)
    add("invariants", "surface invariants for a degree range", ranged=True)
    return parser


def _configure(args: argparse.Namespace) -> RunConfig:
    if args.seed is not None:
        raise UsageError("the enumeration is deterministic and takes no "
                         "seed; drop --seed")
    if args.workers < 1:
        raise UsageError(f"--workers must be positive, got {args.workers}")
    degrees = _parse_degrees(args.n)
    config = RunConfig(
        command=args.command,
        degrees=degrees,
        workers=args.workers,
        fmt=args.fmt,
        out=args.out,
        confirm_long=args.confirm_long,
        collect=args.collect,
    )
    needs_search = config.command in ("count", "table", "orbits", "list")
    if needs_search and max(degrees) >= LONG_DEGREE and not config.confirm_long:
        raise UsageError(
            f"degree {max(degrees)} can run for a long time; "
            f"pass --confirm-long to proceed")
    if needs_search and max(degrees) > search.MAX_DEGREE:
        raise UsageError(
            f"degree {max(degrees)} exceeds the cap {search.MAX_DEGREE}")
    return config


def _progress_printer(n: int):
    """Slice progress on stderr for the long degrees, None below them."""
    if n < LONG_DEGREE:
        return None

    def progress(done: int, total: int) -> None:
        print(f"n={n}: slice {done}/{total} searched", file=sys.stderr, flush=True)
    return progress


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _dumps_line(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _csv_text(rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


@contextlib.contextmanager
def _output_file(path: str) -> Iterator[TextIO]:
    """A handle for --out: a temporary file beside the target, created
    before any search runs, moved onto the target when the block
    completes and removed on any failure or interrupt.  An existing
    target that is not a regular file, such as /dev/null, is written in
    place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    target = os.path.realpath(path)  # a symlink keeps pointing at the output
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


class _ImageCache:
    """Fingerprints keyed by generator set; solutions share images heavily."""

    def __init__(self) -> None:
        self._cache: Dict[frozenset, groups.GroupFingerprint] = {}

    def get(self, sol: Assignment) -> groups.GroupFingerprint:
        gens = (sol.sigma, sol.a1, sol.a2, sol.b1, sol.b2)
        key = frozenset(gens)
        fp = self._cache.get(key)
        if fp is None:
            fp = groups.fingerprint(gens, sol.n)
            self._cache[key] = fp
        return fp


def _solution_json(sol: Assignment, cache: _ImageCache) -> Dict[str, object]:
    return {
        "n": sol.n,
        "sigma": perm.format_cycles(sol.sigma),
        "a1": perm.format_cycles(sol.a1),
        "a2": perm.format_cycles(sol.a2),
        "b1": perm.format_cycles(sol.b1),
        "b2": perm.format_cycles(sol.b2),
        "image": cache.get(sol).to_json_dict(),
    }


def _result_json(res: search.EnumerationResult) -> Dict[str, object]:
    return {
        "n": res.n,
        "sigma": perm.format_cycles(res.sigma),
        "fixed_count": res.fixed_count,
        "transpositions": res.transpositions,
        "total_count": res.total_count,
        "orbit_count": res.orbit_count,
        "orbit_size_histogram": (
            None if res.orbit_size_histogram is None
            else {str(k): v for k, v in res.orbit_size_histogram.items()}),
        "image_fingerprint_histogram": res.image_fingerprint_histogram,
    }


_TABLE_HEADER = ("n", "fixed_count", "transpositions", "total",
                 "orbit_count", "K2", "chi", "c2", "image_names")


def _search_degree(n: int, config: RunConfig) -> search.EnumerationResult:
    if config.collect:
        res, _ = search.classify(
            n, workers=config.workers, progress=_progress_printer(n))
        return res
    return search.enumerate_fixed_sigma(
        n, workers=config.workers, progress=_progress_printer(n))


def _table_row(res: search.EnumerationResult) -> Dict[str, object]:
    inv = surface.invariants_for(res.n)
    return {
        "n": res.n,
        "fixed_count": res.fixed_count,
        "transpositions": res.transpositions,
        "total": res.total_count,
        "orbit_count": res.orbit_count,
        "K2": inv.K2,
        "chi": inv.chi,
        "c2": inv.c2,
        "image_names": (None if res.image_fingerprint_histogram is None
                        else sorted(res.image_fingerprint_histogram)),
    }


def _render_table(rows: List[Dict[str, object]], fmt: str) -> str:
    def cell(row: Dict[str, object], col: str) -> str:
        value = row[col]
        if value is None:
            return ""
        if col == "image_names":
            return ";".join(value)
        return str(value)

    if fmt == "json":
        return _dumps({"rows": rows})
    if fmt == "csv":
        data = [_TABLE_HEADER]
        data += [[cell(r, c) for c in _TABLE_HEADER] for r in rows]
        return _csv_text(data)
    widths = [max(len(h), *(len(cell(r, h)) for r in rows)) if rows else len(h)
              for h in _TABLE_HEADER]
    lines = ["  ".join(h.ljust(w) for h, w in zip(_TABLE_HEADER, widths)).rstrip()]
    for r in rows:
        lines.append("  ".join(
            cell(r, h).ljust(w) for h, w in zip(_TABLE_HEADER, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _cmd_count(config: RunConfig, out: TextIO) -> int:
    n = config.single_degree
    res = _search_degree(n, config)
    inv = surface.invariants_for(n)
    verdict = surface.existence_verdict(n, res)
    if config.fmt == "json":
        doc = _result_json(res)
        doc["surface"] = inv.to_json_dict()
        doc["existence"] = verdict.to_json_dict()
        out.write(_dumps(doc))
    elif config.fmt == "csv":
        out.write(_render_table([_table_row(res)], "csv"))
    else:
        lines = [
            str(res),
            f"surface: chi={inv.chi} K^2={inv.K2} c_2={inv.c2} "
            f"(K^2 + c_2 = {inv.K2 + inv.c2})",
        ]
        if res.orbit_count is not None:
            lines.append(
                f"classes: {res.orbit_count} under simultaneous conjugation; "
                f"images: " + ", ".join(
                    f"{name} x{count}" for name, count in
                    res.image_fingerprint_histogram.items()))
        lines.append(str(verdict))
        out.write("\n".join(lines) + "\n")
    return 0


def _cmd_table(config: RunConfig, out: TextIO) -> int:
    rows = [_table_row(_search_degree(n, config)) for n in config.degrees]
    out.write(_render_table(rows, config.fmt))
    return 0


def _cmd_orbits(config: RunConfig, out: TextIO) -> int:
    n = config.single_degree
    res, orbits = search.classify(
        n, workers=config.workers, progress=_progress_printer(n))
    cache = _ImageCache()
    if config.fmt == "json":
        doc = {
            "n": n,
            "sigma": perm.format_cycles(res.sigma),
            "fixed_count": res.fixed_count,
            "orbit_count": len(orbits),
            "orbits": [{
                "size": o.size,
                "representative": _solution_json(o.representative, cache),
            } for o in orbits],
        }
        out.write(_dumps(doc))
    elif config.fmt == "csv":
        data = [("n", "orbit", "size", "image", "sigma", "a1", "a2", "b1", "b2")]
        for i, o in enumerate(orbits, start=1):
            rep = o.representative
            data.append((n, i, o.size, cache.get(rep).name,
                         perm.format_cycles(rep.sigma),
                         perm.format_cycles(rep.a1), perm.format_cycles(rep.a2),
                         perm.format_cycles(rep.b1), perm.format_cycles(rep.b2)))
        out.write(_csv_text(data))
    else:
        lines = [f"n={n}: {res.fixed_count} solutions in {len(orbits)} "
                 f"conjugacy classes under the sigma centralizer"]
        for i, o in enumerate(orbits, start=1):
            rep = o.representative
            lines.append(f"  class {i}: size={o.size} "
                         f"image={cache.get(rep).name} {rep}")
        out.write("\n".join(lines) + "\n")
    return 0


def _cmd_list(config: RunConfig, out: TextIO) -> int:
    n = config.single_degree
    cache = _ImageCache()

    def sink(sol: Assignment) -> None:
        out.write(_dumps_line(_solution_json(sol, cache)))

    search.enumerate_fixed_sigma(
        n, workers=config.workers, sink=sink,
        progress=_progress_printer(n))
    return 0


def _cmd_oracle(config: RunConfig, out: TextIO) -> int:
    n = config.single_degree
    if n > 4:
        raise UsageError(f"the unpruned scan is limited to degree <= 4, got {n}")
    engine = search.enumerate_fixed_sigma(n, collect=True,
                                          workers=config.workers)
    brute = search.brute_force_oracle(n)
    engine_keys = {sol.sort_key() for sol in engine.solutions}
    brute_keys = {sol.sort_key() for sol in brute.solutions}
    match = (engine.fixed_count == brute.fixed_count
             and engine_keys == brute_keys)
    if config.fmt == "json":
        doc = {"n": n, "match": match, "engine_count": engine.fixed_count,
               "brute_force_count": brute.fixed_count}
        out.write(_dumps(doc))
    elif config.fmt == "csv":
        data = [("n", "match", "engine_count", "brute_force_count"),
                (n, match, engine.fixed_count, brute.fixed_count)]
        out.write(_csv_text(data))
    elif match:
        out.write(f"MATCH: {engine.fixed_count} = {brute.fixed_count}\n")
    else:
        only_engine = len(engine_keys - brute_keys)
        only_brute = len(brute_keys - engine_keys)
        out.write(f"MISMATCH: {engine.fixed_count} != {brute.fixed_count} "
                  f"(only-engine={only_engine} only-brute={only_brute})\n")
    return 0 if match else 2


def _cmd_invariants(config: RunConfig, out: TextIO) -> int:
    records = [surface.invariants_for(n) for n in config.degrees]
    if config.fmt == "json":
        out.write(_dumps({"rows": [r.to_json_dict() for r in records]}))
    elif config.fmt == "csv":
        header = ("n", "chi", "K2", "c2", "pa_Z", "Gamma2", "Z2", "GammaZ",
                  "R2", "RZ", "RR0", "general_type", "z_reducible_forced")
        data = [header]
        data += [tuple(getattr(r, h) for h in header) for r in records]
        out.write(_csv_text(data))
    else:
        lines = []
        for r in records:
            lines.append(
                f"n={r.n}: chi={r.chi} K^2={r.K2} c_2={r.c2} pa(Z)={r.pa_Z} "
                f"Gamma^2={r.Gamma2} Z^2={r.Z2} Gamma.Z={r.GammaZ} "
                f"R^2={r.R2} R.Z={r.RZ} R.R0={r.RR0} "
                f"general_type={r.general_type} "
                f"z_reducible_forced={r.z_reducible_forced}")
        out.write("\n".join(lines) + "\n")
    return 0


_COMMANDS = {
    "count": _cmd_count,
    "table": _cmd_table,
    "orbits": _cmd_orbits,
    "list": _cmd_list,
    "oracle": _cmd_oracle,
    "invariants": _cmd_invariants,
}


def run(config: RunConfig) -> int:
    command = _COMMANDS[config.command]
    if config.out is None:
        return command(config, sys.stdout)
    with _output_file(config.out) as out:
        return command(config, out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        args = parser.parse_args(argv)
        return run(_configure(args))
    except UsageError as exc:
        print(f"braidcovers: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"braidcovers: error: cannot write output: {exc}",
              file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"braidcovers: error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("braidcovers: interrupted", file=sys.stderr)
        return 130
    except _Terminated:
        print("braidcovers: terminated", file=sys.stderr)
        return 143
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
