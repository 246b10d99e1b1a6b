"""Run the braidcovers CLI from the source tree, as the console script does.

    python3 perfbench/launch.py count --n 6

When PERFBENCH_REPORT names a file, the launcher writes to it, as the
command ends, a JSON object with ``peak_rss_kb``: the peak resident set
of this process or of any child it waited for (pool workers).  With
PERFBENCH_TRACE=1 the run is traced (spans.py) and the object also holds
the spans under ``trace``.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def peak_rss_kb() -> int:
    """Peak RSS of this process since exec, or of a child it waited for.

    Not getrusage(RUSAGE_SELF): at exec Linux carries over the peak of
    the address space being replaced, and a vforked child's is its
    parent's, so the figure would include the benchmark's own memory.
    """
    import resource

    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh
                   if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


if __name__ == "__main__":
    report_path = os.environ.get("PERFBENCH_REPORT")
    if os.environ.get("PERFBENCH_TRACE") == "1":
        from spans import run_traced
        code, report = run_traced(sys.argv[1:])
    else:
        from braidcovers.cli import main
        code, report = main(), {}
    if report_path:
        report["peak_rss_kb"] = peak_rss_kb()
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    sys.exit(code)
