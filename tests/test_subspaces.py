"""Exact lattice saturation, heights, sums/intersections, Schmidt ratios."""

import random
from fractions import Fraction

import pytest

from simra.errors import AmbientMismatch, DomainError
from simra.subspaces import (
    RationalSubspace,
    _echelon,
    _row_hnf,
    full_space,
    gram_det,
    height,
    integer_kernel,
    intersect,
    minor_square_sum,
    orthogonal_complement,
    saturate,
    schmidt_fuzz,
    schmidt_ratio,
    sum_,
    zero_subspace,
)


def span(*vs):
    return saturate(list(vs))


def test_saturate_spec_examples():
    w = span((2, 0, 0), (0, 1, 0))
    assert w.dim == 2 and w.squared_height == 1
    assert sorted(w.basis) == [(0, 1, 0), (1, 0, 0)]

    v = span((1, 2, 3))
    assert v.basis == ((1, 2, 3),) and v.squared_height == 14

    assert span((2, 4, 6)).basis == ((1, 2, 3),)
    assert span((2, 4, 6)).squared_height == 14


def test_saturate_degenerate_inputs():
    assert saturate([], 3).dim == 0
    assert saturate([(0, 0, 0)], 3).dim == 0
    assert saturate([(0, 0, 0)], 3).squared_height == 1  # zero-space convention
    w = span((1, 2), (2, 4), (3, 6))
    assert w.dim == 1 and w.basis == ((1, 2),)


def test_height_examples():
    assert height(full_space(4)).lo == 1
    assert height(zero_subspace(3)).lo == 1
    h = height(span((1, 2, 3)))
    assert float(h) == pytest.approx(14 ** 0.5, abs=1e-10)
    # the x-z coordinate plane through a skew spanning set
    w = span((1, 0, 1), (1, 0, -1))
    assert w.squared_height == 1


def test_member():
    w = span((1, 0, 1), (0, 1, 0))
    assert w.member((2, 3, 2))
    assert not w.member((1, 0, 0))
    with pytest.raises(AmbientMismatch):
        w.member((1, 0))


def test_sum_and_intersect_spec_examples():
    x_axis = span((1, 0, 0))
    y_axis = span((0, 1, 0))
    xy = sum_(x_axis, y_axis)
    assert xy.dim == 2 and xy.squared_height == 1
    assert sum_(x_axis, x_axis) == x_axis

    a, b = span((1, 0, 1)), span((1, 0, -1))
    s = sum_(a, b)
    assert s.dim == 2 and s.squared_height == 1  # the x-z plane

    yz = span((0, 1, 0), (0, 0, 1))
    assert intersect(xy, yz) == y_axis
    assert intersect(xy, xy) == xy

    z = intersect(span((1, 1, 0), (0, 0, 1)), span((1, -1, 0), (0, 0, 1)))
    assert z == span((0, 0, 1))

    with pytest.raises(AmbientMismatch):
        sum_(span((1, 0)), x_axis)


def test_schmidt_ratio_spec_examples():
    xy = span((1, 0, 0), (0, 1, 0))
    z = span((0, 0, 1))
    r = schmidt_ratio(xy, z)
    assert (r["lhsSq"], r["rhsSq"], r["ratioSq"]) == (1, 1, Fraction(1))

    a = span((1, 0, 1))
    assert schmidt_ratio(a, a)["ratioSq"] == 1

    b = span((1, 0, -1))
    r2 = schmidt_ratio(a, b)
    assert r2["lhsSq"] == 1 and r2["rhsSq"] == 4
    assert r2["ratioSq"] == Fraction(1, 4)


def test_grassmann_consistency_random():
    rng = random.Random(99)
    for _ in range(200):
        ambient = rng.randint(2, 5)
        k = rng.randint(1, ambient)
        vecs = [[rng.randint(-6, 6) for _ in range(ambient)] for _ in range(k)]
        w = saturate(vecs, ambient)
        if w.dim == 0:
            continue
        assert gram_det(w.basis) == minor_square_sum(w.basis) == w.squared_height


def test_basis_independence_under_unimodular_moves():
    rng = random.Random(5)
    base = [(1, 2, 0, 3), (0, 1, 1, 1), (2, 0, 1, 0)]
    w = saturate(base, 4)
    for _ in range(50):
        rows = [list(v) for v in base]
        for _ in range(6):
            i, j = rng.sample(range(len(rows)), 2)
            c = rng.randint(-3, 3)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        again = saturate(rows, 4)
        assert again == w and again.squared_height == w.squared_height
    # a subspace kept on a moved saturated basis reads as the Hermite one
    for ambient, vecs in ((4, base), (5, [(3, 1, 4, 1, 5), (9, 2, 6, 5, 3)]),
                          (3, [(2, 7, 1)])):
        w = saturate(vecs, ambient)
        for _ in range(30):
            rows = [list(v) for v in w.basis]
            for _ in range(6):
                if len(rows) > 1:
                    i, j = rng.sample(range(len(rows)), 2)
                    c = rng.randint(-3, 3)
                    rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
                if rng.random() < 0.3:
                    k = rng.randrange(len(rows))
                    rows[k] = [-a for a in rows[k]]
            rng.shuffle(rows)
            moved = RationalSubspace(ambient, rows, gram_det(rows))
            assert moved.squared_height == w.squared_height
            assert moved == w and hash(moved) == hash(w)
            assert moved.describe() == w.describe()
            assert moved.basis == w.basis and moved.perp == w.perp


def test_duality_random():
    rng = random.Random(17)
    for _ in range(150):
        ambient = rng.randint(2, 5)
        vecs = [[rng.randint(-9, 9) for _ in range(ambient)]
                for _ in range(rng.randint(1, ambient - 1))]
        w = saturate(vecs, ambient)
        c = orthogonal_complement(w)
        assert c.dim == ambient - w.dim
        assert c.squared_height == w.squared_height
        assert orthogonal_complement(c) == w


def test_integer_kernel():
    k = integer_kernel([(1, 1, 1)], 3)
    w = saturate(k, 3)
    assert w.dim == 2
    assert all(sum(v) == 0 for v in w.basis)
    assert integer_kernel([], 2) == [(1, 0), (0, 1)]


def test_integer_kernel_rejects_rows_of_another_length():
    with pytest.raises(AmbientMismatch):
        integer_kernel([(1, 2, 3)], 2)
    with pytest.raises(AmbientMismatch):
        integer_kernel([(1, 2)], 3)
    with pytest.raises(AmbientMismatch):
        integer_kernel([(1, 2, 3), (1, 2)])


@pytest.mark.parametrize("entry", [1.5, Fraction(3, 2), 2.0, Fraction(2)])
def test_saturate_rejects_non_integer_entries(entry):
    for make in (saturate, integer_kernel):
        with pytest.raises(DomainError, match="entries must be integers"):
            make([(entry, 2)])


def _pairwise_euclid_hnf(rows):
    """The former Hermite form, kept as the reference: each column is cleared
    by pairwise Euclid steps against the pivot row."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            while rows[i][c] != 0:
                q = rows[r][c] // rows[i][c]
                rows[r] = [a - q * b for a, b in zip(rows[r], rows[i])]
                rows[r], rows[i] = rows[i], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-v for v in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return rows


def _random_matrix(rng):
    """Rows with zero rows, dependent rows, more rows than columns and
    entries up to 10^12 all drawn often."""
    ncols = rng.randint(1, 6)
    bound = rng.choice([1, 3, 9, 1000, 10 ** 12])
    rows = [[rng.randint(-bound, bound) for _ in range(ncols)]
            for _ in range(rng.randint(1, 7))]
    for _ in range(rng.randint(0, 3)):
        row = [0] * ncols
        if rng.random() >= 0.3:
            for src in rng.sample(rows, rng.randint(1, len(rows))):
                c = rng.randint(-5, 5)
                row = [a + c * b for a, b in zip(row, src)]
        rows.insert(rng.randint(0, len(rows)), row)
    if rng.random() < 0.2:
        for row in rows:
            row[rng.randrange(ncols)] = 0
    return rows


def test_row_hnf_matches_pairwise_euclid_reference():
    rng = random.Random(2024)
    for _ in range(3000):
        rows = _random_matrix(rng)
        assert _row_hnf([list(r) for r in rows]) == _pairwise_euclid_hnf(rows)
    assert _row_hnf([]) == []
    assert _row_hnf([[0, 0], [0, 0]]) == [[0, 0], [0, 0]]


def _rank_q(rows):
    """Rank over Q by Fraction elimination (an oracle independent of the
    integer echelon)."""
    rows = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_integer_kernel_against_its_definition():
    rng = random.Random(31)
    for _ in range(600):
        rows = _random_matrix(rng)
        ambient = len(rows[0])
        kernel = integer_kernel(rows, ambient)
        assert all(sum(a * b for a, b in zip(row, k)) == 0
                   for row in rows for k in kernel)
        assert len(kernel) == ambient - _rank_q(rows)
        assert saturate(kernel, ambient).basis == tuple(kernel)


def test_saturate_matches_the_double_kernel():
    """The one-pass saturation against the former double kernel."""
    rng = random.Random(37)
    for _ in range(600):
        rows = _random_matrix(rng)
        n = len(rows[0])
        w = saturate(rows, n)
        assert w.basis == tuple(integer_kernel(integer_kernel(rows, n), n))
        assert w.perp == tuple(integer_kernel(rows, n))
        assert w.squared_height == gram_det(w.basis)


def test_echelon_carries_the_inverse_of_its_row_transform():
    rng = random.Random(53)
    for _ in range(600):
        a = _random_matrix(rng)
        m, ncols = len(a), len(a[0])
        eye = [[int(t == j) for t in range(m)] for j in range(m)]
        rows = [r + e for r, e in zip(a, eye)]
        inverse = [list(e) for e in eye]
        rank = len(_echelon(rows, ncols, inverse))
        assert rank == _rank_q(a)
        u = [r[ncols:] for r in rows]
        # inverse[j] is column j of U^-1
        assert all(sum(x * y for x, y in zip(u[i], inverse[j])) == (i == j)
                   for i in range(m) for j in range(m))
        assert all(r[:ncols] == [sum(u[i][k] * a[k][c] for k in range(m))
                                 for c in range(ncols)]
                   for i, r in enumerate(rows))
        assert not any(v for r in rows[rank:] for v in r[:ncols])


def test_hermite_forms_wait_for_a_read(monkeypatch):
    """Saturation, sums, intersections, complements, dim and heights never
    compute a Hermite form; reading the basis computes it once."""
    import simra.subspaces as sub

    calls = []
    real = sub._row_hnf
    monkeypatch.setattr(sub, "_row_hnf", lambda rows: calls.append(1) or real(rows))
    a = saturate([(1, 2, 3, 4), (0, 5, 6, 7)], 4)
    b = saturate([(7, 0, 1, 2)], 4)
    c = orthogonal_complement(a)
    s, i = sum_(a, c), intersect(a, orthogonal_complement(b))
    assert (s.dim, i.dim, c.squared_height) == (4, 1, a.squared_height)
    assert a.member((1, 7, 9, 11)) and not c.member((1, 2, 3, 4))
    assert schmidt_ratio(a, b)["sumDim"] == 3
    assert calls == []
    assert a.basis == a.basis and len(calls) == 1


def _fresh(w):
    """The same subspace without its kept complement."""
    return RationalSubspace(w.ambient, w.basis, w.squared_height)


def test_kept_complements_match_fresh_saturation():
    rng = random.Random(41)
    for _ in range(300):
        ambient = rng.randint(2, 5)
        a, b = (saturate([[rng.randint(-9, 9) for _ in range(ambient)]
                          for _ in range(rng.randint(1, ambient))], ambient)
                for _ in range(2))
        fa, fb = _fresh(a), _fresh(b)
        assert a.perp == fa.perp == saturate(fa.perp, ambient).basis
        comp = orthogonal_complement(a)
        assert comp == saturate(integer_kernel(a.basis, ambient), ambient)
        assert comp == orthogonal_complement(fa)
        assert comp.perp == a.basis == orthogonal_complement(comp).basis
        assert intersect(a, b) == intersect(fa, fb) == saturate(
            integer_kernel(integer_kernel(a.basis, ambient)
                           + integer_kernel(b.basis, ambient), ambient), ambient)
        assert sum_(a, b) == sum_(fa, fb) == saturate(a.basis + b.basis, ambient)
        assert sum_(a, b).perp == intersect(comp, orthogonal_complement(b)).basis


def test_member_against_rank():
    rng = random.Random(43)
    for _ in range(300):
        ambient = rng.randint(2, 5)
        vecs = [[rng.randint(-3, 3) for _ in range(ambient)]
                for _ in range(rng.randint(1, ambient - 1))]
        w = saturate(vecs, ambient)
        coeffs = [Fraction(rng.randint(-4, 4), 3) for _ in vecs]
        inside = [sum(c * v[t] for c, v in zip(coeffs, vecs))
                  for t in range(ambient)]
        assert w.member(inside)
        probe = [rng.randint(-2, 2) for _ in range(ambient)]
        assert w.member(probe) == (_rank_q(vecs + [probe]) == _rank_q(vecs))


def test_schmidt_fuzz_deterministic():
    a = schmidt_fuzz(max_ambient=4, count=60, seed=3)
    b = schmidt_fuzz(max_ambient=4, count=60, seed=3)
    assert a == b
    assert a["dualityExact"] is True
    assert Fraction(a["maxRatioSq"]) <= 4
    assert len(a["samples"]) == 5


@pytest.mark.parametrize("count", [0, -1])
def test_schmidt_fuzz_rejects_a_count_below_one(count):
    with pytest.raises(DomainError, match="count >= 1"):
        schmidt_fuzz(max_ambient=4, count=count, seed=3)


@pytest.mark.parametrize("name, value", [
    ("max_ambient", 2.5), ("max_ambient", True),
    ("count", 3.0), ("count", True), ("count", "10"),
    ("seed", True), ("seed", 1.5), ("seed", "1"),
])
def test_schmidt_fuzz_rejects_non_integer_sizes(name, value):
    with pytest.raises(DomainError, match=f"fuzz needs an integer {name}"):
        schmidt_fuzz(**{"max_ambient": 4, "count": 5, "seed": 3, name: value})


def test_dimension_formula_random():
    # dim(A+B) + dim(A cap B) == dim A + dim B
    rng = random.Random(23)
    for _ in range(100):
        ambient = rng.randint(2, 5)
        mk = lambda: saturate([[rng.randint(-4, 4) for _ in range(ambient)]
                               for _ in range(rng.randint(1, ambient))], ambient)
        a, b = mk(), mk()
        assert (sum_(a, b).dim + intersect(a, b).dim) == a.dim + b.dim


def _ratio_by_sum_and_intersect(a, b):
    """schmidt_ratio's fields from the saturated sum and intersection."""
    s, i = sum_(a, b), intersect(a, b)
    lhs_sq = s.squared_height * i.squared_height
    rhs_sq = a.squared_height * b.squared_height
    return {"lhsSq": lhs_sq, "rhsSq": rhs_sq, "ratioSq": Fraction(lhs_sq, rhs_sq),
            "sumDim": s.dim, "intersectionDim": i.dim}


def test_schmidt_ratio_equals_the_sum_and_intersection_route():
    rng = random.Random(41)
    spanning = full = trivial = 0
    for trial in range(600):
        ambient = rng.randint(2, 7)

        def subspace(k):
            return saturate([[rng.randint(-5, 5) for _ in range(ambient)]
                             for _ in range(k)], ambient)

        a = subspace(rng.randint(1, ambient))
        if trial % 3 == 0:    # A + B = R^N and A cap B = 0
            b = orthogonal_complement(a)
        elif trial % 3 == 1:  # small dimensions: mostly A cap B = 0
            b = subspace(rng.randint(1, max(1, ambient - a.dim)))
        else:
            b = subspace(rng.randint(1, ambient))
        r = schmidt_ratio(a, b)
        assert r == _ratio_by_sum_and_intersect(a, b), (ambient, a, b)
        spanning += r["sumDim"] == ambient
        trivial += r["intersectionDim"] == 0
        full += r["sumDim"] == ambient and r["intersectionDim"] > 0
    assert spanning > 200 and trivial > 300 and full > 20
