"""Exact linear algebra over Q: saturated lattices and subspace heights.

A rational subspace W of R^N is stored through a basis of the lattice
W intersect Z^N and, when known, one of W-perp intersect Z^N, each as its
maker had it; equality of subspaces is equality of the canonical
Hermite-form bases, computed on first read.  The squared height of W is the
Gram determinant of any basis of the lattice (equivalently the sum of the
squared k x k minors), an exact integer; the zero subspace and the full
space both have squared height 1.

Saturation is one echelon pass over [V^T | I] that also carries the inverse
of its row transform U.  Integer row operations keep every row of the shape
(V^T c, c), so the rows whose left part vanishes are a basis of
W-perp intersect Z^N; the first rank columns of U^-1 span W, and U^-1 being
unimodular, they are a basis of W intersect Z^N.  Sums, intersections and
complements pass on the bases they already have, so no kernel is computed
twice.  The height-product ratio needs no basis of A+B: H(W) = H(W-perp),
so its two passes, over the bases of A and B and over those of their
complements, carry no inverse and read both heights off kernel rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd
from operator import mul
from typing import Optional, Sequence

from . import rigorous
from .errors import AmbientMismatch, DomainError
from .rigorous import RigorousReal

IntVec = tuple[int, ...]


def _echelon(rows: list[list[int]], ncols: int,
             inverse: Optional[list[list[int]]] = None) -> list[int]:
    """In-place row echelon form over the first ncols columns; returns the
    pivot columns, so rows[:len(pivots)] are the echelon rows and the rest
    vanish on those columns.

    Each entry below a pivot is folded into the pivot row by one unimodular
    2 x 2 step from the extended gcd of the two entries (a subtraction when
    the pivot divides it).  `inverse`, when given, holds the columns of the
    inverse of the row transform so far and is kept so: a row operation
    r_i -= q r_p becomes col_p += q col_i, and a swap swaps the same two
    columns.
    """
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        if inverse is not None:
            inverse[r], inverse[p] = inverse[p], inverse[r]
        for i in range(p + 1, len(rows)):
            b = rows[i][c]
            if not b:
                continue
            prow, row = rows[r], rows[i]
            a = prow[c]
            if b % a == 0:
                q = b // a
                rows[i] = [u - q * v for u, v in zip(row, prow)]
                if inverse is not None:
                    inverse[r] = [u + q * v for u, v in zip(inverse[r], inverse[i])]
                continue
            # (r, i) <- [[x, y], [-b, a]] (r, i) with x a + y b = 1 after
            # dividing a, b by their gcd; its inverse is [[a, -y], [b, x]]
            g = gcd(a, b)
            a, b = a // g, b // g
            x = pow(a, -1, abs(b))
            y = (1 - x * a) // b
            rows[r] = [x * u + y * v for u, v in zip(prow, row)]
            rows[i] = [a * v - b * u for u, v in zip(prow, row)]
            if inverse is not None:
                cr, ci = inverse[r], inverse[i]
                inverse[r] = [a * u + b * v for u, v in zip(cr, ci)]
                inverse[i] = [x * v - y * u for u, v in zip(cr, ci)]
        pivots.append(c)
    return pivots


def _row_hnf(rows: list[list[int]]) -> list[list[int]]:
    """In-place Hermite form by rows: echelon, positive pivots, entries above
    a pivot reduced into [0, pivot)."""
    if not rows:
        return rows
    for k, c in enumerate(_echelon(rows, len(rows[0]))):
        if rows[k][c] < 0:
            rows[k] = [-v for v in rows[k]]
        prow = rows[k]
        for i in range(k):
            q = rows[i][c] // prow[c]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], prow)]
    return rows


def _hermite(rows: Sequence[Sequence[int]]) -> tuple[IntVec, ...]:
    return tuple(tuple(r) for r in _row_hnf([list(r) for r in rows]))


def _integer_rows(vectors: Sequence[Sequence[int]], ambient: Optional[int],
                  what: str) -> tuple[list[IntVec], int]:
    """The vectors as tuples and their ambient dimension, checked: integer
    entries, one length, an explicit dimension for an empty list."""
    vecs = [tuple(vec) for vec in vectors]
    if not all(isinstance(v, int) for vec in vecs for v in vec):
        raise DomainError(f"{what} entries must be integers")
    if ambient is None:
        if not vecs:
            raise DomainError(f"ambient dimension needed for an empty set of {what}s")
        ambient = len(vecs[0])
    if any(len(v) != ambient for v in vecs):
        raise AmbientMismatch(f"{what}s must have length {ambient}")
    return vecs, ambient


def _kernel(vecs: Sequence[Sequence[int]], ambient: int,
            inverse: Optional[list[list[int]]] = None
            ) -> tuple[int, list[list[int]]]:
    """The rank of the span W of vecs and a basis of W-perp intersect Z^N,
    from one echelon pass over [V^T | I] (carrying U^-1 in `inverse`
    when given)."""
    m = len(vecs)
    rows = [[v[j] for v in vecs] + [1 if t == j else 0 for t in range(ambient)]
            for j in range(ambient)]
    rank = len(_echelon(rows, m, inverse))
    return rank, [r[m:] for r in rows[rank:]]


def _lattices(vecs: Sequence[Sequence[int]], ambient: int
              ) -> tuple[list[list[int]], list[list[int]]]:
    """Bases of W intersect Z^N and W-perp intersect Z^N for the span W of
    vecs, from one echelon pass over [V^T | I] carrying U^-1."""
    inverse = [[1 if t == j else 0 for t in range(ambient)] for j in range(ambient)]
    rank, perp = _kernel(vecs, ambient, inverse)
    return inverse[:rank], perp


def integer_kernel(rows: Sequence[Sequence[int]], ambient: Optional[int] = None
                   ) -> list[IntVec]:
    """Canonical basis of {x in Z^N : x . r = 0 for every given row r}."""
    vecs, ambient = _integer_rows(rows, ambient, "constraint row")
    return list(_hermite(_lattices(vecs, ambient)[1]))


def _int_det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def gram_det(basis: Sequence[Sequence[int]]) -> int:
    g = [[sum(map(mul, u, v)) for v in basis] for u in basis]
    return _int_det(g)


def minor_square_sum(basis: Sequence[Sequence[int]]) -> int:
    """Sum of the squared k x k minors (the squared wedge norm), the
    Cauchy-Binet counterpart of gram_det; kept
    as an independent oracle for the height code."""
    if not basis:
        return 1
    k, amb = len(basis), len(basis[0])
    total = 0
    for cols in combinations(range(amb), k):
        d = _int_det([[basis[i][c] for c in cols] for i in range(k)])
        total += d * d
    return total


class RationalSubspace:
    """A rational subspace W through saturated bases of W intersect Z^N and
    of W-perp intersect Z^N, each kept as its maker had it (the second is
    computed here when not given).  Their Hermite forms are computed on
    first read of basis, perp, ==, hash or describe(), and equality is
    equality of the Hermite bases; dim, squared_height and member need
    neither, the Gram determinant being the same for every basis of the
    lattice."""

    def __init__(self, ambient: int, basis: Sequence[Sequence[int]],
                 squared_height: int,
                 perp: Optional[Sequence[Sequence[int]]] = None):
        self.ambient = ambient
        self.squared_height = squared_height
        self._basis = basis
        self._perp = _lattices(basis, ambient)[1] if perp is None else perp

    @property
    def dim(self) -> int:
        return len(self._basis)

    @cached_property
    def basis(self) -> tuple[IntVec, ...]:
        """The Hermite basis of W intersect Z^N."""
        return _hermite(self._basis)

    @cached_property
    def perp(self) -> tuple[IntVec, ...]:
        """The Hermite basis of W-perp intersect Z^N."""
        return _hermite(self._perp)

    def __eq__(self, other):
        if not isinstance(other, RationalSubspace):
            return NotImplemented
        return (self.ambient == other.ambient
                and self.squared_height == other.squared_height
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient, self.basis, self.squared_height))

    def member(self, vector: Sequence[int]) -> bool:
        """v is in W exactly when v is orthogonal to every row of W-perp."""
        if len(vector) != self.ambient:
            raise AmbientMismatch(
                f"vector has dimension {len(vector)}, ambient is {self.ambient}"
            )
        return not any(sum(Fraction(v) * p for v, p in zip(vector, row))
                       for row in self._perp)

    def describe(self) -> dict:
        return {
            "ambient": self.ambient,
            "dim": self.dim,
            "basis": [list(v) for v in self.basis],
            "squaredHeight": self.squared_height,
        }

    def __repr__(self):
        return (f"RationalSubspace(dim {self.dim} in R^{self.ambient}, "
                f"H^2={self.squared_height})")


def _from_saturated(basis: Sequence[Sequence[int]], ambient: int,
                    perp: Sequence[Sequence[int]]) -> RationalSubspace:
    return RationalSubspace(ambient, basis, gram_det(basis), perp)


def saturate(vectors: Sequence[Sequence[int]], ambient: Optional[int] = None
             ) -> RationalSubspace:
    """The subspace spanned by the given integer vectors, saturated.

    Dependent, duplicate, and zero inputs are all allowed; an empty list (with
    an explicit ambient dimension) gives the zero subspace.
    """
    vecs, ambient = _integer_rows(vectors, ambient, "spanning vector")
    basis, perp = _lattices(vecs, ambient)
    return _from_saturated(basis, ambient, perp)


def zero_subspace(ambient: int) -> RationalSubspace:
    return orthogonal_complement(full_space(ambient))


def full_space(ambient: int) -> RationalSubspace:
    basis = [tuple(1 if t == j else 0 for t in range(ambient))
             for j in range(ambient)]
    return _from_saturated(basis, ambient, ())


def height(w: RationalSubspace) -> RigorousReal:
    """H(W) = covolume of the saturated lattice; exact when H^2 is a square."""
    return rigorous.sqrt(w.squared_height)


def _check_ambient(a: RationalSubspace, b: RationalSubspace) -> None:
    if a.ambient != b.ambient:
        raise AmbientMismatch(
            f"ambient dimensions differ: {a.ambient} vs {b.ambient}"
        )


def sum_(a: RationalSubspace, b: RationalSubspace) -> RationalSubspace:
    _check_ambient(a, b)
    return saturate([*a._basis, *b._basis], a.ambient)


def intersect(a: RationalSubspace, b: RationalSubspace) -> RationalSubspace:
    """A cap B as the common kernel of both orthogonal complements, whose
    saturated span, from the same pass, is kept as its complement."""
    _check_ambient(a, b)
    perp, basis = _lattices([*a._perp, *b._perp], a.ambient)
    return _from_saturated(basis, a.ambient, perp)


def orthogonal_complement(w: RationalSubspace) -> RationalSubspace:
    """W-perp, whose own complement is W: (W-perp)-perp = W."""
    return _from_saturated(w._perp, w.ambient, w._basis)


def schmidt_ratio(a: RationalSubspace, b: RationalSubspace) -> dict:
    """Exact squared instrumentation of H(A+B) H(A cap B) vs H(A) H(B).

    Two passes with no inverse give both heights: the kernel of the pass
    over the bases of A and B is a basis of (A+B)-perp intersect Z^N, and
    H(A+B) = H((A+B)-perp); that of the pass over A-perp and B-perp is a
    basis of (A cap B) intersect Z^N.  The ranks give the dimensions.
    """
    _check_ambient(a, b)
    ambient = a.ambient
    sum_dim, sum_perp = _kernel([*a._basis, *b._basis], ambient)
    perp_dim, meet = _kernel([*a._perp, *b._perp], ambient)
    lhs_sq = gram_det(sum_perp) * gram_det(meet)
    rhs_sq = a.squared_height * b.squared_height
    return {
        "lhsSq": lhs_sq,
        "rhsSq": rhs_sq,
        "ratioSq": Fraction(lhs_sq, rhs_sq),
        "sumDim": sum_dim,
        "intersectionDim": ambient - perp_dim,
    }


def schmidt_fuzz(max_ambient: int = 5, count: int = 1000, seed: int = 1) -> dict:
    """Randomized stress of the height product inequality and height duality.

    Draws count pairs of random saturated subspaces (ambient dimension 2 to
    max_ambient, small integer spanning vectors), records the largest exact
    ratioSq = H(A+B)^2 H(A cap B)^2 / (H(A)^2 H(B)^2) seen, and checks
    H(W)^2 = H(W perp)^2 exactly for the two random subspaces A and B of each
    pair (not for their sum or intersection).  The report keeps the first
    five pairs as samples.  Deterministic in the seed.
    """
    import random

    for name, value in (("max_ambient", max_ambient), ("count", count), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise DomainError(f"fuzz needs an integer {name}, got {value!r}")
    if max_ambient < 2:
        raise DomainError("fuzz needs ambient dimension >= 2")
    if count < 1:
        raise DomainError("fuzz needs count >= 1")
    rng = random.Random(seed)

    def _random_subspace(ambient: int) -> Optional[RationalSubspace]:
        vecs = [tuple(rng.randint(-9, 9) for _ in range(ambient))
                for _ in range(rng.randint(1, ambient - 1))]
        vecs = [v for v in vecs if any(v)]
        if not vecs:
            return None
        return saturate(vecs, ambient)

    worst = Fraction(0)
    worst_case = None
    duality_ok = True
    samples = []
    trials = 0
    while trials < count:
        ambient = rng.randint(2, max_ambient)
        a = _random_subspace(ambient)
        b = _random_subspace(ambient)
        if a is None or b is None or a.dim == 0 or b.dim == 0:
            continue
        trials += 1
        for w in (a, b):
            if orthogonal_complement(w).squared_height != w.squared_height:
                duality_ok = False
        r = schmidt_ratio(a, b)
        if r["ratioSq"] > worst:
            worst = r["ratioSq"]
            worst_case = {"ambient": ambient,
                          "basisA": [list(v) for v in a.basis],
                          "basisB": [list(v) for v in b.basis],
                          "ratioSq": str(worst)}
        if len(samples) < 5:
            samples.append({"ambient": ambient, "dimA": a.dim, "dimB": b.dim,
                            "ratioSq": str(r["ratioSq"])})
    return {
        "maxAmbient": max_ambient,
        "count": count,
        "seed": seed,
        "maxRatioSq": str(worst),
        "maxRatioSqFloat": float(worst),
        "worstCase": worst_case,
        "dualityExact": duality_ok,
        "samples": samples,
    }
