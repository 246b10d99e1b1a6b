"""Tests of the benchmark itself (not of braidcovers).

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    """Each reading is one second after the previous one."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_time_is_duration_minus_child_spans():
    tracer = spans.Tracer(clock=FakeClock())
    leaf = tracer.wrap("perm.leaf", lambda: None, keep=False)
    inner = tracer.wrap("groups.inner", lambda: leaf())

    def outer():
        leaf()
        inner()
        leaf()

    tracer.call("search.outer", outer)
    doc = tracer.to_json()
    # Clock readings: outer 1..10, leaf 2..3, inner 4..7 around leaf 5..6,
    # leaf 8..9, and outer closes at 10.
    by_name = {s["name"]: s for s in doc["spans"]}
    assert by_name["search.outer"]["end"] - by_name["search.outer"]["start"] == 9
    assert by_name["search.outer"]["self"] == 9 - 1 - 3 - 1
    assert by_name["groups.inner"]["self"] == 3 - 1
    assert by_name["groups.inner"]["parent"] == 0
    folded = {(f["name"], f["parent"]): f for f in doc["folded"]}
    assert folded[("perm.leaf", "search.outer")]["calls"] == 2
    assert folded[("perm.leaf", "search.outer")]["seconds"] == 2
    assert folded[("perm.leaf", "groups.inner")]["calls"] == 1


@contextlib.contextmanager
def installed(tracer):
    tracer.install()
    try:
        yield
    finally:
        tracer.restore()


def test_sink_and_progress_spans_nest_under_the_enumeration():
    from braidcovers import cli, perm, search

    tracer = spans.Tracer()
    with installed(tracer), contextlib.redirect_stdout(io.StringIO()) as out:
        assert tracer.call("cli.main", cli.main, ["list", "--n", "4"]) == 0
        search.enumerate_fixed_sigma(
            4, progress=lambda done, total: perm.format_cycles((1, 0, 2, 3)))
    doc = tracer.to_json()
    names = [s["name"] for s in doc["spans"]]
    enum_first, enum_second = (i for i, name in enumerate(names)
                               if name == "search.enumerate_fixed_sigma")
    assert doc["spans"][enum_first]["parent"] == names.index("cli.main")
    sinks = [s for s in doc["spans"] if s["name"] == "cli.sink"]
    assert len(sinks) == 480 == len(out.getvalue().splitlines())
    assert all(s["parent"] == enum_first for s in sinks)
    progress = [s for s in doc["spans"] if s["name"] == "cli.progress"]
    slices = doc["spans"][enum_second]["info"]["slices"]
    assert len(progress) == len(slices) > 1
    assert all(s["parent"] == enum_second for s in progress)
    folded = {(f["name"], f["parent"]): f["calls"] for f in doc["folded"]}
    assert folded[("perm.format_cycles", "cli.sink")] == 5 * 480
    assert folded[("perm.format_cycles", "cli.progress")] == len(slices)
    assert ("perm.cycle_type", "search.enumerate_fixed_sigma") in folded
    # The wrappers are gone again once restored.
    assert not hasattr(search.enumerate_fixed_sigma, "__wrapped__")


def test_layer_counts_repeat_exactly(monkeypatch):
    monkeypatch.setitem(run.COMMANDS, "list-n4", ("list", "--n", "4"))
    os.makedirs(run.WORK_DIR)
    try:
        runs = [run.run_command("list-n4", trace=True) for _ in range(2)]
    finally:
        os.removedirs(run.WORK_DIR)
    assert all(r.returncode == 0 and r.maxrss_mb > 0 for r in runs)
    first, second = (run.layer_metrics([r]) for r in runs)
    assert first["search.solutions"] == 480
    assert first["groups.fingerprint.calls"] > 0
    assert 0 < first["groups.fingerprint.hit_ratio"] < 1
    for name in run.EXACT_COUNTS:
        assert first[name] == second[name], name


@pytest.mark.parametrize("name, damage", [
    ("table-n2-6", lambda text: text.replace("2880", "2881")),
    ("list-n6", lambda text: "".join(text.splitlines(True)[:-1])),
    ("list-n6", lambda text: text.replace(":72}", ":64}", 1)),
    ("count-n8", lambda text: text.replace("172800", "172801")),
])
def test_output_checks_reject_wrong_output(name, damage):
    good = {
        "table-n2-6": ("n,fixed_count,transpositions,total,orbit_count,K2,"
                       "chi,c2,image_names\n2,16,1,16,16,8,1,4,C2\n"
                       "3,80,3,240,40,7,1,5,S3\n4,480,6,2880,240,6,1,6,D8\n"
                       "5,0,10,0,0,5,1,7,\n6,2880,15,43200,60,4,1,8,other\n"),
        "list-n6": "".join(
            '{"image":{"order":72},"n":6,"i":%d}\n' % i for i in range(2880)),
        "count-n8": ("n=8: 172800 representations with sigma=(1,2), "
                     "4838400 over all 28 transpositions\n"),
    }[name]
    assert run.PARSED_CHECKS[name](good) == []
    assert run.PARSED_CHECKS[name](damage(good)) != []


def test_first_output_is_the_earliest_stdout_block_or_stderr_line():
    def made(first_stdout_s, stderr_lines):
        return run.Run(name="list-n6", returncode=0, wall_s=9.0, cpu_s=9.0,
                       maxrss_mb=1.0, stdout=b"", stderr_lines=stderr_lines,
                       first_stdout_s=first_stdout_s, trace=None,
                       reported=True)

    progress = [(2.0, b"n=8: slice 1/32 searched\n"), (3.0, b"later\n")]
    assert run.first_output(made(8.5, progress)) == 2.0
    assert run.first_output(made(1.5, progress)) == 1.5
    assert run.first_output(made(None, [])) == 9.0
