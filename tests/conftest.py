import os
import random

import pytest

from braidcovers import search


def pytest_collection_modifyitems(config, items):
    """Skip the long-marked tests unless BRAIDCOVERS_LONG_TESTS=1."""
    if os.environ.get("BRAIDCOVERS_LONG_TESTS") == "1":
        return
    skip = pytest.mark.skip(reason="set BRAIDCOVERS_LONG_TESTS=1")
    for item in items:
        if "long" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def n3_result():
    return search.enumerate_fixed_sigma(3, collect=True)


@pytest.fixture(scope="session")
def n4_result():
    return search.enumerate_fixed_sigma(4, collect=True)


@pytest.fixture(scope="session")
def n6_result():
    return search.enumerate_fixed_sigma(6, collect=True)


@pytest.fixture()
def rng():
    return random.Random(0x5eed)


def random_perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return tuple(images)
