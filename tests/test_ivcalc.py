"""The mpmath interval layer: rationals enter through one outward division."""

import ast
import math
import pathlib
import random
import sys
from fractions import Fraction

import pytest
from mpmath import iv

import simra
from simra import rigorous
from simra.errors import DomainError
from simra.ivcalc import (enclose, frac_enclosure, frac_interval, hull, lower,
                          midpoint_float, rig_interval, upper)


def reference_enclosure(f):
    """The formula frac_enclosure reproduces: two outward-rounded integers,
    then one interval division, both at iv.prec."""
    return iv.mpf(f.numerator) / iv.mpf(f.denominator)


def test_frac_enclosure_matches_the_interval_division():
    rng = random.Random(14)
    sizes = (1, 2, 8, 53, 64, 191, 192, 193, 250, 400)  # iv.prec is 192
    cases = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-2, 3)]
    while len(cases) < 1200:
        p = rng.getrandbits(rng.choice(sizes)) * rng.choice((1, -1))
        q = rng.getrandbits(rng.choice(sizes)) or 1
        cases.append(Fraction(p, q))
    assert iv.prec == 192
    assert sum(f.numerator == 0 for f in cases) >= 1
    assert sum(f < 0 for f in cases) >= 400
    assert sum(abs(f.numerator).bit_length() > 192
               and f.denominator.bit_length() > 192 for f in cases) >= 50
    for f in cases:
        got = frac_enclosure(f)
        assert isinstance(got, iv.mpf)
        assert got._mpi_ == reference_enclosure(f)._mpi_, f
        # the cached endpoints are given out again, in a fresh interval
        assert frac_enclosure(f) is not got and frac_enclosure(f)._mpi_ == got._mpi_


def test_frac_enclosure_follows_the_working_precision(monkeypatch):
    f = Fraction(1, 3)
    at_192 = frac_enclosure(f)._mpi_
    monkeypatch.setattr(iv, "prec", 53)
    assert frac_enclosure(f)._mpi_ == reference_enclosure(f)._mpi_ != at_192


def test_enclose_matches_the_expressions_it_replaces():
    x = frac_interval(Fraction(1, 3), Fraction(1, 2))
    assert enclose(x) is x
    # two handles of one value, so neither reads the other's cached enclosure
    assert enclose(rigorous.sqrt(2))._mpi_ == rig_interval(rigorous.sqrt(2))._mpi_
    for v in (Fraction(-5, 7), Fraction(10 ** 60 + 1, 3), 3, "11/13"):
        assert enclose(v)._mpi_ == frac_enclosure(Fraction(v))._mpi_


def test_hull_runs_from_one_lower_end_to_another_upper_end():
    lo, hi = frac_interval(1, 2), frac_interval(Fraction(3, 7), 5)
    assert hull(lo, hi)._mpi_ == (lo._mpi_[0], hi._mpi_[1])


def test_float_endpoints_stay_bounds_past_the_double_range():
    big, tiny, top = Fraction(10 ** 400), Fraction(1, 10 ** 400), sys.float_info.max
    # a finite endpoint past the range gives the largest finite double
    assert lower(frac_enclosure(big)) == top and upper(frac_enclosure(big)) == math.inf
    assert upper(frac_enclosure(-big)) == -top and lower(frac_enclosure(-big)) == -math.inf
    # an endpoint below the smallest double is not rounded to the wrong side of 0
    assert lower(frac_enclosure(tiny)) == 0.0 < upper(frac_enclosure(tiny))
    assert lower(frac_enclosure(-tiny)) < 0.0 == upper(frac_enclosure(-tiny))
    assert lower(iv.mpf(["-inf", "inf"])) == -math.inf
    assert upper(iv.mpf(["-inf", "inf"])) == math.inf
    # inside the range nothing moves
    third = frac_enclosure(Fraction(1, 3))
    assert lower(third) == 0.3333333333333333 and upper(third) == 0.33333333333333337
    with pytest.raises(DomainError, match="exceeds the double range"):
        midpoint_float(frac_enclosure(big))
    assert midpoint_float(frac_enclosure(Fraction(top))) == top


def test_only_ivcalc_imports_mpmath():
    importers = set()
    modules = sorted(pathlib.Path(simra.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "mpmath" for name in names):
                importers.add(path.name)
    assert importers == {"ivcalc.py"}
