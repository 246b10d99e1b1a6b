"""Command-line interface: braidcovers COMMAND --n N [FLAG ...].

`--help` lists the commands, `COMMAND --help` the flags it reads.  A
flag is matched by its full name, with its value as `--flag value` or
`--flag=value`.  A command imports only the modules it runs.

Every searching command runs the orbit-factored count search.
`orbits`, and `count`/`table` with --collect, report the conjugacy
classes and their image groups without keeping the solutions; `list`
streams every solution, expanded from the same search, fingerprinting
the one leaf or image of the search each solution comes from.
Every command but `list` (JSON lines only) builds its records once and
writes them as --format asks: CSV, a header of field names, then one row
per record, list cells joined by ";" and None empty; JSON, {"rows": [...]}
for table and invariants, one object for count, orbits and oracle; or
text lines.

Every run is deterministic: same command, same bytes out, for any
--workers.  Exit codes: 0 success, 1 usage error or failure, 2 oracle
mismatch, 130 interrupted (Ctrl-C), 143 terminated (SIGTERM).  An
interrupted or terminated run leaves no --out file behind.
At exit the objects are left to the OS (gc.freeze): about 7 ms saved.
"""

from __future__ import annotations

import atexit
import contextlib
import gc
import os
import signal
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, TextIO

from . import surface

if TYPE_CHECKING:
    from . import groups, search
    from .words import Assignment

LONG_DEGREE = 8  # searches from here up want an explicit go-ahead


class UsageError(Exception):
    pass


class _Terminated(BaseException):
    """SIGTERM, raised in the main thread like KeyboardInterrupt so that
    the --out temporary file is removed on the way out."""


def _terminate(signum, frame):
    raise _Terminated


def _degree(text: str) -> int:
    """A --n value of the single-degree commands: an integer from 2."""
    try:
        n = int(text)
    except ValueError:
        raise UsageError(f"--n: expected one degree, got {text!r}") from None
    if n < 2:
        raise UsageError(f"--n: degree must be at least 2, got {n}")
    return n


def _degrees(text: str) -> range:
    """A --n value of table and invariants: a degree "4" or an inclusive
    range "2..9"."""
    lo_text, dots, hi_text = text.partition("..")
    lo = _degree(lo_text)
    hi = _degree(hi_text) if dots else lo
    if lo > hi:
        raise UsageError(f"--n: empty degree range: {text!r}")
    return range(lo, hi + 1)


# each flag beside --n: the field it sets, its default and help; a switch
# has default False, any other flag takes a value, of its type and choices
_FLAGS: Dict[str, Dict[str, object]] = {
    "--workers": dict(dest="workers", default=1, type=int,
                      help="search processes (default 1, the reference mode)"),
    "--format": dict(dest="fmt", default="text", choices=("text", "csv", "json"),
                     help="text, csv or json (default text)"),
    "--out": dict(dest="out", default=None, help="write output to this file"),
    "--confirm-long": dict(dest="confirm_long", default=False,
                           help=f"required for degrees >= {LONG_DEGREE}"),
    "--collect": dict(dest="collect", default=False,
                      help="report conjugacy classes and image groups, "
                           "keeping no solutions"),
}


def _usage(command: str) -> str:
    """The --help text: one command's flags, or else the commands."""
    if command in _COMMANDS:
        ranged, flags = _COMMANDS[command][2:]
        rows = [("--n", "covering degree" + (" or range a..b" if ranged else ""))]
        rows += [(flag, _FLAGS[flag]["help"]) for flag in flags]
    else:
        command, rows = "COMMAND", [(name, c[1]) for name, c in _COMMANDS.items()]
    rows.append(("-h, --help", "show this help; after a command, its flags"))
    return f"usage: braidcovers {command} --n N [FLAG ...]\n\n" + "".join(
        f"  {name:<16}{text}\n" for name, text in rows)


def _parse(argv: Sequence[str]) -> SimpleNamespace:
    """The fields a command reads: command, n and one per flag it takes.
    -h or --help prints usage and exits 0; other bad lines raise UsageError."""
    command, *rest = argv or [""]
    if "-h" in argv or "--help" in argv:
        print(_usage(command), end="")
        raise SystemExit(0)
    if command not in _COMMANDS:
        raise UsageError(f"expected a command, got {command!r}; see --help")
    ranged, flags = _COMMANDS[command][2:]
    specs = {"--n": dict(dest="n", default=None, type=_degrees if ranged else _degree),
             **{flag: _FLAGS[flag] for flag in flags}}
    fields = {spec["dest"]: spec["default"] for spec in specs.values()}
    words = iter(rest)
    for word in words:
        flag, eq, value = word.partition("=")
        spec = specs.get(flag)
        if spec is None:
            raise UsageError(f"{command} does not take {word!r}")
        if spec["default"] is False:  # a switch
            if eq:
                raise UsageError(f"{flag} takes no value")
            value = True
        else:
            if not eq and (value := next(words, "--")).startswith("--"):
                raise UsageError(f"{flag} needs a value")  # no word, or a flag
            try:
                value = spec.get("type", str)(value)
            except ValueError:
                raise UsageError(f"{flag}: invalid value {value!r}") from None
            if value not in spec.get("choices", (value,)):
                raise UsageError(f"{flag}: {value!r} is not one of {spec['choices']}")
        fields[spec["dest"]] = value
    if fields["n"] is None:
        raise UsageError(f"{command} needs --n")
    return SimpleNamespace(command=command, **fields)


def _check(args: SimpleNamespace) -> None:
    """Every check of the command line that _parse does not make, run
    before any command.  The degree gates hold for the searching
    commands, the ones that take --confirm-long."""
    if getattr(args, "workers", 1) < 1:
        raise UsageError(f"--workers must be positive, got {args.workers}")
    top = args.n[-1] if isinstance(args.n, range) else args.n
    if args.command == "oracle" and top > 4:
        raise UsageError(f"the unpruned scan is limited to degree <= 4, got {top}")
    if not hasattr(args, "confirm_long"):
        return
    from . import search
    if top > search.MAX_DEGREE:
        raise UsageError(f"degree {top} exceeds the cap {search.MAX_DEGREE}")
    if top >= LONG_DEGREE and not args.confirm_long:
        raise UsageError(
            f"degree {top} can run for a long time; "
            f"pass --confirm-long to proceed")


def _progress_printer(n: int):
    """Slice progress on stderr for the long degrees, None below them."""
    if n < LONG_DEGREE:
        return None

    def progress(done: int, total: int) -> None:
        print(f"n={n}: slice {done}/{total} searched", file=sys.stderr, flush=True)
    return progress


def _dumps(doc) -> str:
    import json  # here, as csv in _write: a command that writes none skips it
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _dumps_line(doc) -> str:
    import json
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _cell(value: object) -> str:
    """A record value as a CSV or table cell: a list joined by ";",
    None empty."""
    if value is None:
        return ""
    return ";".join(value) if isinstance(value, list) else str(value)


def _write(out: TextIO, fmt: str, fields: Sequence[str],
           records: List[Dict[str, object]], lines: List[str],
           doc: Optional[Dict[str, object]] = None) -> None:
    """A command's output in its --format: JSON, doc or else
    {"rows": records}; CSV, a header of fields, then each record's cells;
    text, the lines."""
    if fmt == "json":
        out.write(_dumps({"rows": records} if doc is None else doc))
    elif fmt == "csv":
        import csv
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows([_cell(r[f]) for f in fields] for r in records)
    else:
        out.write("\n".join(lines) + "\n")


@contextlib.contextmanager
def _output_file(path: str) -> Iterator[TextIO]:
    """A handle for --out: a temporary file beside the target, created
    before any search runs, moved onto the target when the block
    completes and removed on any failure or interrupt.  An existing
    target that is not a regular file, such as /dev/null, is written in
    place; a path that names no file, such as "" or "dir/", is refused."""
    if os.path.basename(path) in ("", ".", ".."):
        raise OSError(f"not a file name: {path!r}")
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    target = os.path.realpath(path)  # a symlink keeps pointing at the output
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


class _ImageCache:
    """Image fingerprints, through the generator-set memo of groups."""

    def __init__(self) -> None:
        from . import groups  # here, not per call: list calls get per line
        self.groups = groups

    def get(self, sol: Assignment) -> groups.GroupFingerprint:
        return self.groups._set_fingerprint(
            frozenset((sol.sigma, sol.a1, sol.a2, sol.b1, sol.b2)), sol.n)


def _solution_json(sol: Assignment, cache: _ImageCache) -> Dict[str, object]:
    from . import perm
    doc = {name: perm.format_cycles(p)
           for name, p in zip(sol._fields[1:], sol[1:])}
    return {"n": sol.n, **doc, "image": cache.get(sol).to_json_dict()}


def _search_degree(n: int, args: SimpleNamespace) -> search.EnumerationResult:
    from . import search
    if args.collect:
        res, _ = search.classify(
            n, workers=args.workers, progress=_progress_printer(n))
        return res
    return search.enumerate_fixed_sigma(
        n, workers=args.workers, progress=_progress_printer(n))


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


def _cmd_count(args: SimpleNamespace, out: TextIO) -> int:
    from . import perm
    n = args.n
    res = _search_degree(n, args)
    inv = surface.invariants_for(n)
    verdict = surface.existence_verdict(n, res)
    row = _table_row(res)
    doc = res._asdict()
    del doc["elapsed_seconds"]
    doc.update(sigma=perm.format_cycles(res.sigma), surface=inv.to_json_dict(),
               existence=verdict.to_json_dict())
    lines = [
        str(res),
        f"surface: chi={inv.chi} K^2={inv.K2} c_2={inv.c2} "
        f"(K^2 + c_2 = {inv.K2 + inv.c2})",
    ]
    if res.orbit_count is not None:
        # str keys: sort_keys would order int sizes by value
        doc["orbit_size_histogram"] = {
            str(k): v for k, v in res.orbit_size_histogram.items()}
        lines.append(
            f"classes: {res.orbit_count} under simultaneous conjugation; "
            f"images: " + ", ".join(
                f"{name} x{count}" for name, count in
                res.image_fingerprint_histogram.items()))
    lines.append(str(verdict))
    _write(out, args.fmt, tuple(row), [row], lines, doc)
    return 0


def _cmd_table(args: SimpleNamespace, out: TextIO) -> int:
    rows = [_table_row(_search_degree(n, args)) for n in args.n]
    fields = tuple(rows[0])
    # text: each column as wide as its widest cell, trailing spaces dropped
    cells = [fields, *([_cell(r[f]) for f in fields] for r in rows)]
    widths = [max(map(len, column)) for column in zip(*cells)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in cells]
    _write(out, args.fmt, fields, rows, lines)
    return 0


_ORBIT_FIELDS = ("n", "orbit", "size", "image", "sigma", "a1", "a2", "b1", "b2")


def _cmd_orbits(args: SimpleNamespace, out: TextIO) -> int:
    from . import perm, search
    n = args.n
    res, orbits = search.classify(
        n, workers=args.workers, progress=_progress_printer(n))
    cache = _ImageCache()
    reps = [_solution_json(o.representative, cache) for o in orbits]
    records = [{**rep, "orbit": i, "size": o.size, "image": rep["image"]["name"]}
               for i, (o, rep) in enumerate(zip(orbits, reps), start=1)]
    lines = [f"n={n}: {res.fixed_count} solutions in {len(orbits)} "
             f"conjugacy classes under the sigma centralizer"]
    lines += [f"  class {r['orbit']}: size={r['size']} image={r['image']} "
              + " ".join(f"{k}={r[k]}" for k in _ORBIT_FIELDS[4:])
              for r in records]
    doc = {"n": n, "sigma": perm.format_cycles(res.sigma),
           "fixed_count": res.fixed_count, "orbit_count": len(orbits),
           "orbits": [{"size": o.size, "representative": rep}
                      for o, rep in zip(orbits, reps)]}
    _write(out, args.fmt, _ORBIT_FIELDS, records, lines, doc)
    return 0


def _cmd_list(args: SimpleNamespace, out: TextIO) -> int:
    """Each line is _dumps_line(_solution_json(sol, cache)), assembled
    from the five cycle strings (which need no JSON escaping) and the
    JSON of the image group of the leaf or Nielsen image the solution is
    expanded from, made once per group."""
    from . import perm, search
    n = args.n
    cache = _ImageCache()
    images: Dict[groups.GroupFingerprint, str] = {}

    def sink(sol: Assignment, origin: Assignment) -> None:
        fp = cache.get(origin)
        image = images.get(fp)
        if image is None:
            image = images[fp] = _dumps_line(fp.to_json_dict())[:-1]
        out.write(f'{{"a1":"{perm.format_cycles(sol.a1)}",'
                  f'"a2":"{perm.format_cycles(sol.a2)}",'
                  f'"b1":"{perm.format_cycles(sol.b1)}",'
                  f'"b2":"{perm.format_cycles(sol.b2)}",'
                  f'"image":{image},"n":{sol.n},'
                  f'"sigma":"{perm.format_cycles(sol.sigma)}"}}\n')

    search.enumerate_fixed_sigma(
        n, workers=args.workers, sink=sink,
        progress=_progress_printer(n))
    return 0


def _cmd_oracle(args: SimpleNamespace, out: TextIO) -> int:
    from . import search
    n = args.n
    engine_keys = set()
    engine = search.enumerate_fixed_sigma(
        n, workers=args.workers,
        sink=lambda sol, origin: engine_keys.add(sol.sort_key()))
    brute = search.brute_force_oracle(n)
    brute_keys = {sol.sort_key() for sol in brute}
    match = engine.fixed_count == len(brute) and engine_keys == brute_keys
    record = {"n": n, "match": match, "engine_count": engine.fixed_count,
              "brute_force_count": len(brute)}
    line = (f"MATCH: {engine.fixed_count} = {len(brute)}" if match else
            f"MISMATCH: {engine.fixed_count} != {len(brute)} "
            f"(only-engine={len(engine_keys - brute_keys)} "
            f"only-brute={len(brute_keys - engine_keys)})")
    _write(out, args.fmt, tuple(record), [record], [line], record)
    return 0 if match else 2


def _cmd_invariants(args: SimpleNamespace, out: TextIO) -> int:
    # a range too large to list fails here at once, out of memory
    invs = [surface.invariants_for(n) for n in list(args.n)]
    lines = [f"n={r.n}: chi={r.chi} K^2={r.K2} c_2={r.c2} pa(Z)={r.pa_Z} "
             f"Gamma^2={r.Gamma2} Z^2={r.Z2} Gamma.Z={r.GammaZ} "
             f"R^2={r.R2} R.Z={r.RZ} R.R0={r.RR0} "
             f"general_type={r.general_type} "
             f"z_reducible_forced={r.z_reducible_forced}" for r in invs]
    _write(out, args.fmt, surface.SurfaceInvariants._fields,
           [r.to_json_dict() for r in invs], lines)
    return 0


# name -> (command, help, whether --n takes a range, the flags beside --n
# that the command reads)
_COMMANDS = {
    "count": (_cmd_count, "enumerate one degree and print counts", False,
              tuple(_FLAGS)),
    "table": (_cmd_table, "summary table over a degree range", True,
              tuple(_FLAGS)),
    "orbits": (_cmd_orbits, "conjugacy classes of the solution set", False,
               ("--workers", "--format", "--out", "--confirm-long")),
    "list": (_cmd_list, "stream all solutions as JSON lines", False,
             ("--workers", "--out", "--confirm-long")),
    "oracle": (_cmd_oracle, "check the engine against the unpruned scan",
               False, ("--workers", "--format", "--out")),
    "invariants": (_cmd_invariants, "surface invariants for a degree range",
                   True, ("--format", "--out")),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    atexit.unregister(gc.freeze)  # registered once, however often main runs
    atexit.register(gc.freeze)
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        _check(args)
        command = _COMMANDS[args.command][0]
        if args.out is None:
            return command(args, sys.stdout)
        with _output_file(args.out) as out:
            return command(args, out)
    except (UsageError, RuntimeError) as exc:
        print(f"braidcovers: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"braidcovers: error: cannot write output: {exc}",
              file=sys.stderr)
        return 1
    except MemoryError:
        print("braidcovers: error: out of memory", file=sys.stderr)
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
