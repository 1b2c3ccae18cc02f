"""Jump indices, the nested subspace families, and their exact identities."""

import random
from fractions import Fraction
from math import gcd

import pytest

from simra import subspaces
from simra.construction import (
    build_subspace_family,
    family_report,
    lemma32_check,
    select_indices,
    theorem31_ratio,
    verify_family_identities,
)
from simra.errors import DomainError, InsufficientData, LevelOutOfRange
from simra.subspaces import saturate

SYNTH = [(1, 0, 0), (2, 1, 0), (3, 2, 0), (1, 1, 1)]


def test_select_indices_synthetic():
    assert select_indices(SYNTH, 0) == [0, 2]
    chain = [(1, 0, 0), (1, 1, 0), (1, 1, 1)]
    assert select_indices(chain, 0) == [0, 1]


def test_select_indices_requires_certifying_jump():
    flat = [(1, 0, 0), (2, 1, 0), (3, 2, 0)]  # never leaves the plane
    with pytest.raises(InsufficientData):
        select_indices(flat, 0)
    with pytest.raises(InsufficientData):
        select_indices([], 0)


def test_select_indices_rejects_degenerate_start():
    pts = [(1, 0, 0), (2, 0, 0), (1, 1, 0), (1, 1, 1)]
    with pytest.raises(DomainError):
        select_indices(pts, 0)  # x_1 proportional to x_0
    with pytest.raises(DomainError):
        select_indices(SYNTH, 99)


def test_build_family_synthetic():
    fam = build_subspace_family(SYNTH, [0, 2])
    assert fam.n == 2 and fam.i0 == 0
    # base cases: U_t^1 = <x_{i_t}>, V_t^2 = <x_{i_t}, x_{i_t+1}>
    assert fam.u[(0, 1)] == saturate([SYNTH[0]], 3)
    assert fam.u[(1, 1)] == saturate([SYNTH[2]], 3)
    assert fam.v[(1, 1)] == saturate([SYNTH[2], SYNTH[3]], 3)
    for (t, k), w in fam.u.items():
        assert w.dim == k
    for (t, k), w in fam.v.items():
        assert w.dim == k + 1


def test_family_needs_successor_entry():
    with pytest.raises(InsufficientData):
        build_subspace_family(SYNTH, [0, 3])  # entry 4 does not exist
    with pytest.raises(InsufficientData):
        build_subspace_family([], [0, 1])


def test_family_rejects_negative_or_unordered_indices(cubic_seq_1e4):
    assert len(cubic_seq_1e4) == 11
    for idx in ([-3, -2], [2, 0], [1, 1]):
        with pytest.raises(DomainError, match="0 <= i_0 < i_1"):
            build_subspace_family(cubic_seq_1e4, idx)
    with pytest.raises(InsufficientData, match="needs entry 11"):
        build_subspace_family(cubic_seq_1e4, [4, 10])


def test_verify_family_identities_synthetic():
    fam = build_subspace_family(SYNTH, [0, 2])
    rep = verify_family_identities(fam)
    assert rep["allPass"], [c for c in rep["checks"] if not c["pass"]]
    # s-table monotone rows
    for t in range(fam.n):
        row = [fam.s[(t, k)] for k in range(1, t + 2)]
        assert row[0] == fam.indices[t]
        assert all(a > b for a, b in zip(row, row[1:]))
        assert row[-1] >= fam.i0


def random_spanning_sequence(rng, ambient, length):
    while True:
        pts = []
        for _ in range(length):
            v = tuple(rng.randint(-5, 5) for _ in range(ambient))
            if any(v):
                pts.append(v)
        if len(pts) < length:
            continue
        if saturate(pts, ambient).dim == ambient:
            return pts


def test_identities_on_random_families():
    rng = random.Random(123)
    built = 0
    for _ in range(40):
        ambient = rng.randint(3, 5)
        pts = random_spanning_sequence(rng, ambient, rng.randint(ambient + 2, 12))
        try:
            idx = select_indices(pts, 0)
            fam = build_subspace_family(pts, idx)
        except (InsufficientData, DomainError):
            continue
        built += 1
        rep = verify_family_identities(fam)
        assert rep["allPass"], [c for c in rep["checks"] if not c["pass"]]
    assert built >= 20  # the fuzz must actually exercise the identities


def test_lemma32_level_bounds():
    fam = build_subspace_family(SYNTH, [0, 2])
    out = lemma32_check(fam, 1)
    assert out["lhsSq"] >= 1 and out["rhsSq"] >= 1
    assert out["ratioSq"] == Fraction(out["lhsSq"], out["rhsSq"])
    with pytest.raises(LevelOutOfRange):
        lemma32_check(fam, 0)
    with pytest.raises(LevelOutOfRange):
        lemma32_check(fam, 2)


def test_cubic_indices_and_identities(cubic_seq_1e4):
    idx = select_indices(cubic_seq_1e4, 0)
    assert len(idx) == 2 and idx[0] == 0
    fam = build_subspace_family(cubic_seq_1e4, idx)
    assert verify_family_identities(fam)["allPass"]
    # independent rank oracle for the jump definition
    pts = cubic_seq_1e4.points()
    i1 = idx[1]
    assert saturate(pts[: i1 + 1], 3).dim == 2
    assert saturate(pts[: i1 + 2], 3).dim == 3


@pytest.mark.parametrize("i0, distinct", [(0, 9), (1, 6)])
def test_family_saturates_each_span_once(cubic_seq_1e4, monkeypatch, i0, distinct):
    # the U/V tables and the chain, nesting and full-space checks ask for
    # overlapping spans; each spanning set is saturated once per family
    calls = []

    def counted(vecs, ambient):
        calls.append(tuple(map(tuple, vecs)))
        return saturate(vecs, ambient)

    monkeypatch.setattr(subspaces, "saturate", counted)
    fam = build_subspace_family(cubic_seq_1e4, select_indices(cubic_seq_1e4, i0))
    assert family_report(fam, cubic_seq_1e4)["identities"]["allPass"]
    assert len(calls) == len(set(calls)) == distinct


def test_theorem31_ratio_formula(cubic_seq_1e4):
    out = theorem31_ratio(cubic_seq_1e4, 0)
    assert out["indices"] == select_indices(cubic_seq_1e4, 0)
    i1 = out["indices"][1]
    assert out["lhsSq"] == cubic_seq_1e4.entries[i1].norm_sq
    # n=2 instantiation: ratio = X_{i1} / (L_{i0} X_{i0+1} L_{i1} X_{i1+1})
    e = cubic_seq_1e4.entries
    manual = (float(e[i1].x_value)
              / (float(e[0].l_value) * float(e[1].x_value)
                 * float(e[i1].l_value) * float(e[i1 + 1].x_value)))
    assert float(out["ratio"]) == pytest.approx(manual, rel=1e-9)


def test_theorem31_ratio_out_of_data(cubic_seq_1e4):
    with pytest.raises(InsufficientData):
        theorem31_ratio(cubic_seq_1e4, len(cubic_seq_1e4) - 2)


def test_family_report_shape(cubic_seq_1e4):
    idx = select_indices(cubic_seq_1e4, 0)
    fam = build_subspace_family(cubic_seq_1e4, idx)
    rep = family_report(fam, cubic_seq_1e4)
    assert rep["n"] == 2 and rep["i0"] == 0
    assert rep["identities"]["allPass"]
    assert "1" in rep["levelHeightRatios"]
    assert "indexProductRatio" in rep
    assert set(rep["sTable"]) == {"0,1", "1,1", "1,2"}


# -- the incremental elimination the ranks used before they moved to the
# subspace echelon, kept as the reference for select_indices and the s-table


class _ReferenceEchelon:
    """Incremental exact rank via fraction-free row reduction over Z."""

    def __init__(self):
        self.rows, self.pivots = [], []

    def add(self, vec):
        v = [int(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                a, b = row[p], v[p]
                v = [a * x - b * y for x, y in zip(v, row)]
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return False
        g = 0
        for x in v:
            g = gcd(g, x)
        self.rows.append([x // g for x in v])
        self.pivots.append(piv)
        order = sorted(range(len(self.rows)), key=lambda i: self.pivots[i])
        self.rows = [self.rows[i] for i in order]
        self.pivots = [self.pivots[i] for i in order]
        return True


def _reference_indices(pts, i0):
    n = len(pts[0]) - 1
    ech = _ReferenceEchelon()
    ech.add(pts[i0])
    indices = []
    for j in range(i0 + 1, len(pts)):
        if ech.add(pts[j]):
            if len(ech.rows) == 2 and j - 1 != i0:
                raise DomainError(
                    f"x_{i0 + 1} is proportional to x_{i0}: "
                    "the index table cannot start at i0"
                )
            indices.append(j - 1)
            if len(indices) == n:
                return indices
    raise InsufficientData(
        f"rank reached only {len(ech.rows)} of {n + 1} within {len(pts)} entries; "
        "cannot certify the largest index at the next level"
    )


def _reference_s_table(pts, indices):
    i0 = indices[0]
    if indices[-1] + 1 >= len(pts):
        raise InsufficientData(
            f"family needs entry {indices[-1] + 1}, sequence has {len(pts)}")
    s_tab = {}
    for t, it in enumerate(indices):
        ech = _ReferenceEchelon()
        ech.add(pts[it + 1])
        largest_s_of_dim = {}
        for s in range(it, i0 - 1, -1):
            if ech.add(pts[s]):
                largest_s_of_dim[len(ech.rows)] = s
        for k in range(1, t + 2):
            if k + 1 not in largest_s_of_dim:
                raise InsufficientData(
                    f"no s in [{i0}, {it}] spans dimension {k + 1} with the "
                    f"tail at {it + 1}; the index table is not certifiable"
                )
            s_tab[(t, k)] = largest_s_of_dim[k + 1]
    return s_tab


def _outcome(f, *args):
    try:
        return f(*args)
    except (DomainError, InsufficientData) as e:
        return type(e), str(e)


def _sequence_with_dependent_points(rng, ambient, length):
    pts = []
    while len(pts) < length:
        if pts and rng.random() < 0.4:
            a, b = rng.choice(pts), rng.choice(pts)
            v = tuple(rng.randint(-3, 3) * x + rng.randint(-2, 2) * y
                      for x, y in zip(a, b))
        else:
            v = tuple(rng.randint(-5, 5) for _ in range(ambient))
        if any(v):
            pts.append(v)
    return pts


def test_ranks_match_the_reference_elimination():
    rng = random.Random(20261018)
    families = 0
    for _ in range(400):
        ambient = rng.randint(3, 5)
        pts = _sequence_with_dependent_points(rng, ambient, rng.randint(4, 16))
        i0 = rng.randrange(len(pts) // 2 + 1)
        assert _outcome(select_indices, pts, i0) == _outcome(_reference_indices, pts, i0)
        idx = sorted(rng.sample(range(len(pts)), ambient - 1))
        want = _outcome(_reference_s_table, pts, idx)
        got = _outcome(lambda: build_subspace_family(pts, idx).s)
        assert got == want, (pts, idx)
        families += isinstance(want, dict)
    assert families >= 40
