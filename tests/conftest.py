"""Shared fixtures.

The expensive enumerations (sqrt(2) to 10^5, the cubic target to 10^4) are
session scoped so the whole suite pays for each of them once.
"""

import pytest

from simra import minpoints, model, presets, rigorous


@pytest.fixture(scope="session")
def sqrt2():
    return presets.load_preset("sqrt2")


@pytest.fixture(scope="session")
def cubic():
    return presets.load_preset("cbrt2")


@pytest.fixture(scope="session")
def sqrt2_seq_30(sqrt2):
    target, approx = sqrt2
    return minpoints.enumerate_minimal_points(target, approx, 30)


@pytest.fixture(scope="session")
def sqrt2_seq_1e5(sqrt2):
    target, approx = sqrt2
    return minpoints.enumerate_minimal_points(target, approx, 10 ** 5)


@pytest.fixture(scope="session")
def cubic_seq_1e4(cubic):
    target, approx = cubic
    return minpoints.enumerate_minimal_points(target, approx, 10 ** 4)


@pytest.fixture()
def compute_calls(monkeypatch):
    """(descriptor class, bits) of every enclosure computation from here on:
    each descriptor's _compute, counted."""
    calls = []
    for cls in rigorous._Desc.__subclasses__():
        def counted(self, bits, _compute=cls._compute):
            calls.append((type(self).__name__, bits))
            return _compute(self, bits)
        monkeypatch.setattr(cls, "_compute", counted)
    return calls
