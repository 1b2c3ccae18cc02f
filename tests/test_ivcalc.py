"""The mpmath interval layer: rationals enter through one outward division."""

import ast
import pathlib
import random
from fractions import Fraction

from mpmath import iv

import simra
from simra import rigorous
from simra.ivcalc import enclose, frac_enclosure, frac_interval, hull, rig_interval


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
