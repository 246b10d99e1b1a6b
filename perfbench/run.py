"""Benchmark of the braidcovers command line, end to end and per layer.

    python3 perfbench/run.py --workload count-n8-w2 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each command of a workload is
one `braidcovers` process (perfbench/launch.py, the console script's
equivalent), started only after the previous one exited: a closed loop
with one client and at most two worker processes.  Every command's
output is checked against golden digests and against the published
table before it counts.  A workload is repeated as many times as fit in
--seconds (at least once), and each metric is the median over the
repetitions.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each repetition
untraced and then traced (spans.py) and prints the per-layer metrics,
including the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The CLI is deterministic and takes no seed; --seed only shuffles the
order of the commands inside a multi-command workload.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCH = os.path.join(HERE, "launch.py")
# Launcher reports go here; one directory per benchmark process.
WORK_DIR = os.path.join(HERE, ".work", str(os.getpid()))

COMMAND_TIMEOUT_S = 170.0
# setup_s samples per batch; a batch runs before every repetition and
# after the last, so the samples spread over the whole run.
SETUP_BATCH = 4

COUNT_N8 = ("count", "--n", "8", "--confirm-long")
# name -> argv; the name selects the output check.
COMMANDS: Dict[str, Tuple[str, ...]] = {
    "invariants-n2": ("invariants", "--n", "2"),
    "count-n8": COUNT_N8,
    "count-n8-w2": COUNT_N8 + ("--workers", "2"),
    "table-n2-6": ("table", "--n", "2..6", "--collect", "--format", "csv"),
    "orbits-n6": ("orbits", "--n", "6", "--format", "json"),
    "list-n6": ("list", "--n", "6"),
}
WORKLOADS: Dict[str, Tuple[str, ...]] = {
    "count-n8": ("count-n8",),
    "count-n8-w2": ("count-n8-w2",),
    "classes-n6": ("table-n2-6", "orbits-n6", "list-n6"),
}
SETUP_COMMAND = "invariants-n2"

# sha256 of each command's stdout.  Both n=8 counts share one digest, so
# one and two workers must print the same bytes.
GOLDEN_SHA256 = {
    "invariants-n2":
        "3c673eb864f1f77433f8bc97d0d75080d5ff4b978ab75f50750fc73b5ea259d7",
    "count-n8":
        "e9487d35cb7f38afadce67619b1604f9b30c74691b3a38829885a1b74c32a8ef",
    "count-n8-w2":
        "e9487d35cb7f38afadce67619b1604f9b30c74691b3a38829885a1b74c32a8ef",
    "table-n2-6":
        "2eb8f44bf34ed6658ce70f642fe562db59de746ef64404b51bb2f113a8c2fb60",
    "orbits-n6":
        "2cb3ed2859db16b8412139821eb2ad79e9045301bbd36daced88e77dfd015358",
    "list-n6":
        "a6729e30e4b8ff1cd3127659cfc7c4e3301f5861d64d0f25995b46bb8c655054",
}

# The published table: n -> (fixed-sigma tuples, total, classes, image).
PUBLISHED = {
    2: (16, 16, 16, "C2"),
    3: (80, 240, 40, "S3"),
    4: (480, 2880, 240, "D8"),
    5: (0, 0, 0, ""),
    6: (2880, 43200, 60, "other"),
    8: (172800, 4838400, 240, "other"),
}

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "maxrss_mb": "MB", "setup_s": "s",
    "first_progress_s": "s", "ok_share": "share",
}
PER_LAYER_UNITS = {
    "search.enumerate_s": "s",
    "search.solutions": "count",
    "search.slices": "count",
    "search.first_slice_s": "s",
    "search.slice_max_s": "s",
    "search.slice_imbalance": "ratio",
    "groups.centralizer_order.calls": "count",
    "perm.cycle_type.calls": "count",
    "perm.cycle_type_s": "s",
    "search.analyze_s": "s",
    "search.orbit_decomposition_s": "s",
    "search.image_name_histogram_s": "s",
    "search.orbits": "count",
    "groups.fingerprint.calls": "count",
    "groups.fingerprint_s": "s",
    "groups.closure.elements": "count",
    "groups.fingerprint.hit_ratio": "ratio",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "perm.format_cycles.calls": "count",
    "perm.format_cycles_s": "s",
    "trace.overhead_s": "s",
}
# Per-layer values that must repeat exactly from run to run.
EXACT_COUNTS = (
    "search.solutions", "search.slices", "groups.centralizer_order.calls",
    "perm.cycle_type.calls", "groups.fingerprint.calls",
    "perm.format_cycles.calls", "cli.out_bytes", "search.orbits",
    "groups.closure.elements",
)
ENUMERATIONS = ("search.enumerate_fixed_sigma", "search.enumerate_parallel")


@dataclasses.dataclass
class Run:
    """One finished command: exit status, resources, output, timestamps."""

    name: str
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes
    stderr_lines: List[Tuple[float, bytes]]
    first_stdout_s: Optional[float]
    trace: Optional[dict]
    reported: bool


def run_command(name: str, trace: bool = False) -> Run:
    """Spawn one CLI process, drain its pipes and reap it with wait4.

    wall_s runs from spawn to exit.  cpu_s is user + sys from wait4's
    rusage, which includes the pool workers the CLI waited for.  The
    peak RSS comes from the launcher's report (see launch.py).
    """
    report_path = os.path.join(WORK_DIR, "report.json")
    # PYTHON* variables (unbuffered output, no bytecode cache, ...) change
    # what is measured; the CLI runs with the interpreter's defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PERFBENCH_REPORT=report_path,
               PERFBENCH_TRACE="1" if trace else "0")
    argv = [sys.executable, LAUNCH, *COMMANDS[name]]
    chunks: List[bytes] = []
    first_out: List[float] = []
    err_lines: List[Tuple[float, bytes]] = []
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)

    def read_stdout() -> None:
        while True:
            chunk = proc.stdout.read1(1 << 16)
            if not chunk:
                return
            if not first_out:
                first_out.append(time.perf_counter() - t0)
            chunks.append(chunk)

    def read_stderr() -> None:
        for line in iter(proc.stderr.readline, b""):
            err_lines.append((time.perf_counter() - t0, line))

    def kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    readers = [threading.Thread(target=read_stdout),
               threading.Thread(target=read_stderr)]
    for thread in readers:
        thread.start()
    killer = threading.Timer(COMMAND_TIMEOUT_S, kill_group)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:       # interrupted: take the command down with us
        kill_group()
        os.waitpid(proc.pid, 0)
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    for thread in readers:
        thread.join()
    proc.stdout.close()
    proc.stderr.close()
    report = {}
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(report_path)
    return Run(name=name, returncode=proc.returncode, wall_s=wall,
               cpu_s=usage.ru_utime + usage.ru_stime,
               maxrss_mb=report.get("peak_rss_kb", 0) / 1024.0,
               stdout=b"".join(chunks), stderr_lines=err_lines,
               first_stdout_s=first_out[0] if first_out else None,
               trace=report.get("trace"), reported=bool(report))


# -- output checks -----------------------------------------------------------

def _check_count_n8(text: str) -> List[str]:
    m = re.match(r"n=8: (\d+) representations with sigma=\(1,2\), "
                 r"(\d+) over all 28 transpositions\n", text)
    if not m:
        return ["count line missing"]
    fixed, total, _, _ = PUBLISHED[8]
    if (int(m.group(1)), int(m.group(2))) != (fixed, total):
        return [f"counts {m.group(1)}/{m.group(2)}, expected {fixed}/{total}"]
    return []


def _check_table(text: str) -> List[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    got = {int(r["n"]): (int(r["fixed_count"]), int(r["total"]),
                         int(r["orbit_count"]), r["image_names"])
           for r in rows}
    want = {n: PUBLISHED[n] for n in range(2, 7)}
    return [] if got == want else [f"table rows {got} differ from {want}"]


def _check_orbits(text: str) -> List[str]:
    doc = json.loads(text)
    fixed, _, classes, _ = PUBLISHED[6]
    problems = []
    if (doc["fixed_count"], doc["orbit_count"], len(doc["orbits"])) != (
            fixed, classes, classes):
        problems.append("orbit counts differ from the table")
    if sum(o["size"] for o in doc["orbits"]) != fixed:
        problems.append("orbit sizes do not sum to the solution count")
    if any(o["representative"]["image"]["order"] != 72 for o in doc["orbits"]):
        problems.append("an n=6 image is not of order 72")
    return problems


def _check_list(text: str) -> List[str]:
    lines = text.splitlines()
    fixed = PUBLISHED[6][0]
    if len(lines) != fixed or len(set(lines)) != fixed:
        return [f"{len(lines)} lines ({len(set(lines))} distinct), "
                f"expected {fixed}"]
    docs = [json.loads(line) for line in lines]
    if any(d["n"] != 6 or d["image"]["order"] != 72 for d in docs):
        return ["a listed solution is not degree 6 with an order-72 image"]
    return []


def _check_invariants(text: str) -> List[str]:
    return ([] if text.startswith("n=2: chi=1 K^2=8 c_2=4 ")
            else ["n=2 invariants differ"])


PARSED_CHECKS = {
    "invariants-n2": _check_invariants,
    "count-n8": _check_count_n8,
    "count-n8-w2": _check_count_n8,
    "table-n2-6": _check_table,
    "orbits-n6": _check_orbits,
    "list-n6": _check_list,
}


def check(run: Run) -> List[str]:
    """Why this run's output is wrong; empty when it is right."""
    if run.returncode != 0:
        return [f"exit code {run.returncode}"]
    problems = []
    digest = hashlib.sha256(run.stdout).hexdigest()
    if digest != GOLDEN_SHA256[run.name]:
        problems.append(f"stdout sha256 {digest} is not the golden digest")
    try:
        problems += PARSED_CHECKS[run.name](run.stdout.decode("utf-8"))
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unparseable output: {exc!r}")
    if run.name.startswith("count-n8") and not any(
            b"slice 1/" in line for _, line in run.stderr_lines[:1]):
        problems.append("the first stderr line is not 'slice 1/' progress")
    return problems


def first_output(run: Run) -> float:
    """Seconds from spawn to the first thing the user sees: a stderr line
    or a block of stdout, whichever comes first; the exit if neither.

    For the n=8 counts that is the `slice 1/` progress line.  The degree-6
    commands print no progress, so it is their first stdout: at the end
    for `table` and `orbits`, after the first solutions for `list`.
    """
    stamps = [run.first_stdout_s] if run.first_stdout_s is not None else []
    stamps += [stamp for stamp, _ in run.stderr_lines[:1]]
    return min(stamps, default=run.wall_s)


# -- per-layer metrics from traces ---------------------------------------------

def layer_metrics(runs: Sequence[Run]) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition of a workload.

    Times and counts are summed over the workload's commands.  The slice
    figures come from its longest enumeration, the one that sets the
    wall time.  For --workers 2 only the parent's spans are seen: the
    enumeration's self time is then time spent waiting for the pool.
    """
    m = {name: 0 if name in EXACT_COUNTS else 0.0
         for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
    requests = 0
    longest: Tuple[float, List[float]] = (-1.0, [])   # (duration, slices)
    for run in runs:
        m["cli.out_bytes"] += len(run.stdout)
        trace = run.trace or {"spans": [], "folded": []}
        for span in trace["spans"]:
            name, own, info = span["name"], span["self"], span["info"] or {}
            if name.startswith("cli."):
                m["cli.self_s"] += own
            if name in ENUMERATIONS:
                m["search.enumerate_s"] += own
                m["search.solutions"] += info["solutions"]
                m["search.slices"] += len(info["slices"])
                longest = max(longest, (span["end"] - span["start"],
                                        info["slices"]))
            elif name == "search.analyze":
                m["search.analyze_s"] += own
            elif name == "search.orbit_decomposition":
                m["search.orbit_decomposition_s"] += own
                m["search.orbits"] += info["orbits"]
            elif name == "search.image_name_histogram":
                m["search.image_name_histogram_s"] += own
                requests += info["requests"]
            elif name == "cli.image_cache":
                requests += 1
            elif name == "groups.fingerprint":
                m["groups.fingerprint.calls"] += 1
                m["groups.fingerprint_s"] += span["end"] - span["start"]
                m["groups.closure.elements"] += info["order"]
        for leaf in trace["folded"]:
            name = leaf["name"]
            if name.startswith("cli."):
                m["cli.self_s"] += leaf["self"]
            if name == "groups.centralizer_order":
                m["groups.centralizer_order.calls"] += leaf["calls"]
            elif name == "perm.cycle_type" and leaf["parent"].startswith(
                    "search."):
                m["perm.cycle_type.calls"] += leaf["calls"]
                m["perm.cycle_type_s"] += leaf["seconds"]
            elif name == "perm.format_cycles":
                m["perm.format_cycles.calls"] += leaf["calls"]
                m["perm.format_cycles_s"] += leaf["seconds"]
    if requests:
        m["groups.fingerprint.hit_ratio"] = (
            1.0 - m["groups.fingerprint.calls"] / requests)
    ends = longest[1]
    if ends:
        gaps = [b - a for a, b in zip([0.0] + ends, ends)]
        m["search.first_slice_s"] = ends[0]
        m["search.slice_max_s"] = max(gaps)
        m["search.slice_imbalance"] = max(gaps) / statistics.fmean(gaps)
    return m


# -- running a workload --------------------------------------------------------

def machine_probe() -> float:
    """Median seconds of five runs of a fixed pure-Python loop: a
    machine-speed diagnostic, not a metric."""
    p = (1, 2, 3, 4, 5, 6, 7, 0)
    times = []
    for _ in range(5):
        x = tuple(range(8))
        t0 = time.perf_counter()
        for _ in range(100_000):
            x = tuple(p[i] for i in x)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Session:
    """Runs commands, checks them and counts attempts and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def run(self, name: str, trace: bool = False) -> Run:
        run = run_command(name, trace)
        self.attempted += 1
        problems = check(run)
        if not run.reported or (trace and run.trace is None):
            problems.append("the launcher wrote no report")
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems]
        return run


def iterations(names: Sequence[str], rng: random.Random, seconds: float):
    """Command orders for each repetition: at least one, and then as many
    as fit in `seconds` if each takes as long as the one before."""
    start = last = time.perf_counter()
    while True:
        order = list(names)
        rng.shuffle(order)
        yield order
        now = time.perf_counter()
        if 2 * now - last - start > seconds:
            return
        last = now


def measure_end_to_end(session: Session, workload: str, rng: random.Random,
                       seconds: float
                       ) -> Tuple[Dict[str, float], Dict[str, int]]:
    reps: Dict[str, List[float]] = {k: [] for k in END_TO_END_UNITS}

    def time_setup() -> None:
        reps["setup_s"] += [session.run(SETUP_COMMAND).wall_s
                            for _ in range(SETUP_BATCH)]

    for order in iterations(WORKLOADS[workload], rng, seconds):
        time_setup()
        runs = [session.run(name) for name in order]
        reps["wall_s"].append(sum(r.wall_s for r in runs))
        reps["cpu_s"].append(sum(r.cpu_s for r in runs))
        reps["maxrss_mb"].append(max(r.maxrss_mb for r in runs))
        reps["first_progress_s"].append(sum(first_output(r) for r in runs))
    time_setup()
    metrics = {name: statistics.median(values)
               for name, values in reps.items() if values}
    metrics["ok_share"] = 1.0 - session.failed / session.attempted
    return metrics, {name: len(values) for name, values in reps.items()
                     if values}


def measure_layers(session: Session, workload: str, rng: random.Random,
                   seconds: float) -> Tuple[Dict[str, float], Dict[str, int]]:
    reps: List[Dict[str, float]] = []
    for order in iterations(WORKLOADS[workload], rng, seconds):
        plain = [session.run(name) for name in order]
        traced = [session.run(name, trace=True) for name in order]
        metrics = layer_metrics(traced)
        metrics["trace.overhead_s"] = (sum(r.wall_s for r in traced)
                                       - sum(r.wall_s for r in plain))
        reps.append(metrics)
    for name in EXACT_COUNTS:
        if len({r[name] for r in reps}) > 1:
            session.problems.append(f"{name} differs between repetitions")
    metrics = {name: reps[0][name] if name in EXACT_COUNTS
               else statistics.median(r[name] for r in reps)
               for name in PER_LAYER_UNITS}
    return metrics, dict.fromkeys(PER_LAYER_UNITS, len(reps))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "braidcovers", "cli.py")):
        print(f"perfbench: no braidcovers source under {ROOT}/src",
              file=sys.stderr)
        return 2

    # The commands run in their own sessions; SystemExit lets run_command
    # kill the one in flight.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    session = Session()
    rng = random.Random(args.seed)
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        run_command(SETUP_COMMAND)      # fills the bytecode cache; not timed
        probe_before = machine_probe()
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, samples = measure(session, args.workload, rng, args.seconds)
        probe_after = machine_probe()
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(WORK_DIR))

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, unit in units.items():
        shown = f"{metrics[name]:.6g} {unit}"
        if name in samples:
            shown += f" (median of {samples[name]})"
        print(f"{args.workload} {name}: {shown}")
    print(f"{args.workload} failed_share: {session.failed}/"
          f"{session.attempted} commands")
    print(f"{args.workload} diagnostic machine_probe_s: "
          f"{probe_before:.4f} before, {probe_after:.4f} after")
    if args.trace and args.workload == "count-n8-w2":
        print("note: pool workers are not traced; per-layer figures are "
              "the parent's spans and progress timestamps")
    for problem in session.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
