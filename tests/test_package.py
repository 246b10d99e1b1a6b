import importlib
import os

import braidcovers
from braidcovers import search

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def test_all_names_resolve():
    # a deletion must take its export with it
    missing = [name for name in braidcovers.__all__
               if not hasattr(braidcovers, name)]
    assert missing == []
    assert len(set(braidcovers.__all__)) == len(braidcovers.__all__)


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
