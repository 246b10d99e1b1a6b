import importlib
import os
import pickle
import subprocess
import sys

import pytest

import braidcovers
from braidcovers import groups, perm, search, surface, words

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def test_all_names_resolve():
    # a deletion must take its export with it
    missing = [name for name in braidcovers.__all__
               if not hasattr(braidcovers, name)]
    assert missing == []
    assert len(set(braidcovers.__all__)) == len(braidcovers.__all__)
    # exports and submodules are imported on first access, so they
    # resolve in a fresh interpreter that has imported nothing else
    script = ("import braidcovers\n"
              "print(braidcovers.search.MAX_DEGREE, braidcovers.Assignment.__module__)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(braidcovers.__file__))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout == "12 braidcovers.words\n", proc.stderr


def test_benchmark_tracer_installs(monkeypatch):
    # the benchmark's tracer patches package functions by name, so renaming
    # or deleting one of them breaks every traced run
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    original = search.image_name_histogram
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert search.image_name_histogram is not original
    finally:
        tracer.restore()
    assert search.image_name_histogram is original


def test_cli_loads_no_dataclasses_or_inspect():
    # the records are named tuples, so a command starts without the
    # dataclasses module and the inspect/ast/dis modules it pulls in; the
    # command line is read without argparse and the gettext and locale
    # modules it pulls in; and invariants, which searches nothing, loads
    # no search engine
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "def loaded(*names):\n"
        "    print(sorted(set(names) & (set(sys.modules) - before)))\n"
        "from braidcovers import cli\n"
        "assert cli.main(['invariants', '--n', '2']) == 0\n"
        "loaded('dataclasses', 'inspect', 'argparse', 'gettext', 'locale',\n"
        "       'braidcovers.search', 'braidcovers.groups', 'braidcovers.words')\n"
        "assert cli.main(['count', '--n', '5']) == 0\n"
        "loaded('dataclasses', 'inspect', 'argparse', 'gettext', 'locale')\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(braidcovers.__file__))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lists = [line for line in proc.stdout.splitlines() if line.startswith("[")]
    assert lists == ["[]", "[]"]


def test_text_commands_load_no_json_or_csv():
    # json and csv are imported only by the code that writes them, so the
    # text forms of invariants and count start without either
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from braidcovers import cli\n"
        "assert cli.main(['invariants', '--n', '2']) == 0\n"
        "assert cli.main(['count', '--n', '5']) == 0\n"
        "print(sorted({'json', 'csv'} & (set(sys.modules) - before)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(braidcovers.__file__))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


_S = perm.transposition(2, 1, 2)
_E = perm.identity(2)
# each record with the names of its fields
_RECORDS = [
    (words.Relator("R", ()), "label word"),
    (words.Assignment(2, _S, _E, _E, _E, _E), "n sigma a1 a2 b1 b2"),
    (groups.fingerprint([_S], 2),
     "order transitive abelian order_histogram name"),
    (search.enumerate_fixed_sigma(2),
     "n sigma fixed_count transpositions total_count elapsed_seconds "
     "solutions orbit_count orbit_size_histogram image_fingerprint_histogram"),
    (search.Orbit(words.Assignment(2, _S, _E, _E, _E, _E), 1),
     "representative size"),
    (surface.invariants_for(2),
     "n chi K2 c2 pa_Z Gamma2 Z2 GammaZ R2 RZ RR0 general_type "
     "z_reducible_forced"),
    (surface.existence_verdict(2, search.enumerate_fixed_sigma(2)),
     "n exists total_representations isomorphism_classes"),
]


@pytest.mark.parametrize("record,fields", _RECORDS,
                         ids=[type(r).__name__ for r, _ in _RECORDS])
def test_records_are_immutable(record, fields):
    for name in fields.split():
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_assignment_replace_validates_degrees():
    asg = words.Assignment(2, _S, _E, _E, _E, _E)
    assert asg._replace(a1=_S) == words.Assignment(2, _S, _S, _E, _E, _E)
    with pytest.raises(ValueError, match="a1 has degree 3, expected 2"):
        asg._replace(a1=perm.identity(3))


def test_records_pickle_to_equal_values():
    asg = words.Assignment(2, _S, _E, _S, _E, _S)
    res = search.enumerate_fixed_sigma(2, collect=True)
    for record in (asg, res):
        again = pickle.loads(pickle.dumps(record))
        assert again == record and type(again) is type(record)
