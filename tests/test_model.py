"""Targets, approximation sets, configuration documents, and L values."""

import random
from fractions import Fraction
from itertools import product

import pytest

from simra import rigorous
from simra.errors import AmbientMismatch, DomainError, SchemaError, ZeroPoint
from simra.model import (
    CongruenceSet,
    FullLattice,
    IntegerPoint,
    Sublattice,
    TargetPoint,
    l_value,
    load_target,
)
from simra.rigorous import Comparison, compare, rational, sqrt

SQRT2_DOC = {
    "n": 1,
    "coords": [
        {"type": "rational", "value": "1"},
        {"type": "algebraic", "minpoly": [-2, 0, 1], "interval": ["1", "2"]},
    ],
}


def test_canonical_point_sign():
    p = IntegerPoint.canonical((-2, 3))
    assert p.coords == (2, -3) and p.norm_sq == 13
    q = IntegerPoint.canonical((0, 0, -5))
    assert q.coords == (0, 0, 5)
    with pytest.raises(ZeroPoint):
        IntegerPoint.canonical((0, 0))


def test_full_lattice_membership():
    s = FullLattice()
    assert s.member((3, -7)) and s.member((0, 1))


def test_congruence_membership():
    s = CongruenceSet(2, {0: [1]})  # x_0 odd
    assert not s.member((2, 3))
    assert s.member((1, 1)) and s.member((-3, 4))


def test_sublattice_membership():
    s = Sublattice([(2, 0), (0, 1)])
    assert s.member((4, 5))
    assert not s.member((3, 1))
    with pytest.raises(Exception):
        Sublattice([(1, 2), (2, 4)])  # dependent rows


def member_by_elimination(basis, coords):
    """Reference: solve sum_j c_j basis_j = coords over Q, demand integrality."""
    rows = [[Fraction(vec[i]) for vec in basis] + [Fraction(coords[i])]
            for i in range(len(coords))]
    rank, pivots = 0, []
    for col in range(len(basis)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    if any(rows[r][-1] != 0 for r in range(rank, len(rows))):
        return False
    return all((rows[r][-1] / rows[r][col]).denominator == 1
               for r, col in enumerate(pivots))


def test_sublattice_member_matches_elimination():
    rng = random.Random(11)
    bases = 0
    while bases < 40:
        ambient = rng.randint(2, 4)
        k = rng.randint(1, ambient)  # k < ambient: a lattice in a proper subspace
        basis = [[rng.randint(-4, 4) for _ in range(ambient)] for _ in range(k)]
        try:
            lat = Sublattice(basis)
        except DomainError:
            continue
        bases += 1
        for _ in range(60):
            if rng.random() < 0.5:  # rational combinations hit the span often
                den = rng.randint(1, 3)
                cs = [Fraction(rng.randint(-6, 6), den) for _ in range(k)]
                x = [sum(c * b[t] for c, b in zip(cs, basis)) for t in range(ambient)]
                if any(v.denominator != 1 for v in x):
                    continue
                x = [int(v) for v in x]
            else:
                x = [rng.randint(-9, 9) for _ in range(ambient)]
            assert lat.member(x) == member_by_elimination(basis, x), (basis, x)
    with pytest.raises(AmbientMismatch):
        Sublattice([(2, 0), (0, 1)]).member((1, 2, 3))


def rank_over_q(rows):
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_sublattice_member_by_definition():
    # x = sum c_j b_j with rational c_j: for an independent basis the c_j
    # are unique, so an integral x is a member exactly when every c_j is an
    # integer; a dependent basis (a zero Hermite row) is a DomainError
    rng = random.Random(13)
    kinds = {"independent": 0, "dependent": 0}
    for _ in range(300):
        ambient = rng.randint(2, 4)
        k = rng.randint(1, ambient)
        basis = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(k)]
        if rank_over_q(basis) < k:
            kinds["dependent"] += 1
            with pytest.raises(DomainError, match="linearly independent"):
                Sublattice(basis)
            continue
        kinds["independent"] += 1
        lat = Sublattice(basis)
        for _ in range(40):
            den = rng.randint(1, 4)
            cs = [Fraction(rng.randint(-8, 8), den) for _ in range(k)]
            x = [sum(c * b[t] for c, b in zip(cs, basis)) for t in range(ambient)]
            if all(v.denominator == 1 for v in x):
                want = all(c.denominator == 1 for c in cs)
                assert lat.member([int(v) for v in x]) == want, (basis, cs)
    assert min(kinds.values()) >= 10, kinds


def test_sublattice_box_members_match_membership_filter():
    # every listing (the Hermite walk of a sublattice, the per-axis product
    # of a congruence set or the full lattice) against the literal reference:
    # every box point, filtered by member
    rng = random.Random(5)
    sets = [(FullLattice(), ambient) for ambient in (2, 3, 4)]
    while len(sets) < 63:
        ambient = rng.randint(2, 4)
        k = rng.randint(1, ambient)  # k < ambient: a lattice in a proper subspace
        basis = [[rng.randint(-4, 4) for _ in range(ambient)] for _ in range(k)]
        try:
            sets.append((Sublattice(basis), ambient))
        except DomainError:
            continue
    for _ in range(40):
        ambient, m = rng.randint(2, 4), rng.randint(2, 5)
        indices = rng.sample(range(ambient), rng.randint(1, ambient))
        sets.append((CongruenceSet(m, {i: rng.sample(range(m), rng.randint(1, m - 1))
                                       for i in indices}), ambient))
    for approx, ambient in sets:
        for _ in range(10):
            x0 = rng.randint(-6, 6)
            windows = []
            for _ in range(ambient - 1):
                lo = rng.randint(-7, 5)
                windows.append((lo, lo + rng.randint(-1, 6)))  # hi = lo - 1: empty
            got = list(approx.box_members(x0, windows))
            assert len(got) == len(set(got)), (approx, x0, windows)
            want = [c for c in product([x0], *(range(lo, hi + 1) for lo, hi in windows))
                    if approx.member(c)]
            assert sorted(got) == want, (approx, x0, windows)


def test_target_requires_nonzero_first_coordinate():
    with pytest.raises(Exception):
        TargetPoint([rational(0), sqrt(2)])


def test_l_value_spec_examples():
    t = TargetPoint([rational(1), sqrt(2)])
    v = rigorous.refine(l_value(t, (1, 1)), 60)
    assert float(v) == pytest.approx(0.414214, abs=1e-6)

    t3 = TargetPoint([rational(1), sqrt(2), sqrt(3)])
    v3 = rigorous.refine(l_value(t3, (1, 1, 2)), 60)
    # max(sqrt2 - 1, 2 - sqrt3) = sqrt2 - 1
    assert float(v3) == pytest.approx(0.414214, abs=1e-6)

    exact = l_value(t, (0, 1))
    assert compare(exact, 1) is Comparison.INDISTINGUISHABLE
    assert exact.lo == exact.hi == 1


def test_l_value_errors_and_homogeneity():
    t = TargetPoint([rational(1), sqrt(2)])
    with pytest.raises(ZeroPoint):
        l_value(t, (0, 0))
    with pytest.raises(AmbientMismatch):
        l_value(t, (1, 1, 1))
    for m in (2, 3, -4):
        scaled = l_value(t, (m, m))
        base = l_value(t, (1, 1)) * abs(m)
        diff = rigorous.refine(scaled - base, 80)
        assert abs(diff.midpoint) <= diff.radius  # same value


def test_l_value_sign_invariance():
    t = TargetPoint([rational(1), sqrt(2), sqrt(3)])
    a = l_value(t, (1, -2, 1))
    b = l_value(t, (-1, 2, -1))
    d = rigorous.refine(a - b, 80)
    assert abs(d.midpoint) <= d.radius


def test_load_target_sqrt2():
    target, approx = load_target(SQRT2_DOC)
    assert target.n == 1
    assert isinstance(approx, FullLattice)
    assert float(target.coords[1]) == pytest.approx(1.41421356, abs=1e-8)


def test_load_target_expr_and_decimal():
    doc = {
        "n": 1,
        "coords": [
            {"type": "rational", "value": "1"},
            {"type": "expr", "op": "+",
             "args": [{"type": "algebraic", "minpoly": [-2, 0, 1],
                       "interval": ["1", "2"]},
                      {"type": "rational", "value": "1/3"}]},
        ],
    }
    target, _ = load_target(doc)
    assert float(target.coords[1]) == pytest.approx(2 ** 0.5 + 1 / 3, abs=1e-10)

    dec = {"n": 1, "coords": [{"type": "rational", "value": "1"},
                              {"type": "decimal", "value": "1.41421356"}]}
    target2, _ = load_target(dec)
    assert target2.coords[1].saturated


def test_load_target_reads_every_coordinate():
    # enclosures are computed at their first read; load_target reads each
    # coordinate, so a division by zero fails as the document loads
    one, zero = {"type": "rational", "value": "1"}, {"type": "rational", "value": "0"}
    doc = {"n": 2, "coords": [one, one, {"type": "expr", "op": "/", "args": [one, zero]}]}
    with pytest.raises(DomainError, match="^division by an enclosure containing zero$"):
        load_target(doc)


def test_load_target_congruence_set():
    doc = dict(SQRT2_DOC)
    doc["S"] = {"type": "congruence", "modulus": 2, "residues": {"0": [0]}}
    _, approx = load_target(doc)
    assert approx.member((2, 1)) and not approx.member((1, 1))


def test_load_target_schema_errors():
    bad = [
        {},  # no n
        {"n": 0, "coords": []},
        {"n": 1, "coords": [{"type": "rational", "value": "1"}]},  # wrong count
        {"n": 1, "coords": [{"type": "rational", "value": "1"},
                            {"type": "mystery"}]},
        {"n": 1, "coords": [{"type": "rational", "value": "1"},
                            {"type": "rational", "value": "x"}]},
        {"n": 1, "coords": [{"type": "rational", "value": "1"},
                            {"type": "algebraic", "minpoly": [1],
                             "interval": ["0", "1"]}]},
        {"n": 1, "coords": [{"type": "rational", "value": "1"},
                            {"type": "rational", "value": "2"}],
         "S": {"type": "nope"}},
        {"n": 2, "coords": [{"type": "rational", "value": "1"},
                            {"type": "rational", "value": "2"},
                            {"type": "rational", "value": "3"}],
         "S": {"type": "sublattice", "basis": [[2, 0], [0, 1]]}},  # ambient 2 != 3
    ]
    for doc in bad:
        with pytest.raises(SchemaError):
            load_target(doc)


@pytest.mark.parametrize("S, message", [
    ({"type": "congruence", "modulus": 2, "residues": {"5": [0]}}, "residue index 5"),
    ({"type": "congruence", "modulus": 2, "residues": {"-1": [0]}}, "residue index -1"),
    ({"type": "congruence", "modulus": 2, "residues": {"0": [0.9]}}, "list of integers"),
    ({"type": "sublattice", "basis": [[2.7, 1], [0, 3]]}, "entries must be integers"),
    ({"type": "sublattice", "basis": [1, 2]}, "list of integer lists"),
])
def test_set_configs_are_not_truncated(S, message):
    # each of these used to load as a different set (the full lattice, a
    # residue or basis entry rounded toward zero) or crash with a TypeError
    doc = dict(SQRT2_DOC, S=S)
    with pytest.raises(SchemaError, match=message):
        load_target(doc)


def test_load_target_schema_errors_are_the_documents_own(monkeypatch):
    # a bad precision cap is not a fault of the document: it stays a DomainError
    monkeypatch.setenv("SIMRA_PRECISION_CAP", "abc")
    irrational_xi0 = dict(SQRT2_DOC, coords=SQRT2_DOC["coords"][::-1])
    with pytest.raises(DomainError, match="SIMRA_PRECISION_CAP"):
        load_target(irrational_xi0)
    monkeypatch.delenv("SIMRA_PRECISION_CAP")
    zero_xi0 = dict(SQRT2_DOC, coords=[{"type": "rational", "value": "0"},
                                       SQRT2_DOC["coords"][1]])
    with pytest.raises(SchemaError, match="xi_0"):
        load_target(zero_xi0)


def test_target_point_is_a_plain_value():
    # the coordinates and n only: the scaled-integer view lives in minpoints
    target, _ = load_target(SQRT2_DOC)
    assert target.n == 1 and len(target.coords) == 2
    with pytest.raises(AttributeError):
        target.snapshots = {}
