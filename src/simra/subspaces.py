"""Exact linear algebra over Q: saturated lattices and subspace heights.

A rational subspace W of R^N is stored through the lattice W intersect Z^N,
represented by its canonical Hermite-form basis, so equality of subspaces is
equality of bases.  The squared height of W is the Gram determinant of that
basis (equivalently the sum of the squared k x k minors), an exact integer;
the zero subspace and the full space both have squared height 1.

All kernels come from [A^T | I], whose integer row operations keep every row
of the shape (A c, c).  One echelon pass over the left block leaves the rows
whose left part vanishes, and their right parts are a basis of the kernel
lattice, saturated by construction; the Hermite form of those rows alone is
the canonical basis.  Saturation of an arbitrary spanning set is the double
kernel, and the first kernel, the basis of W-perp, is kept on the subspace,
so complements and intersections do not compute it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Optional, Sequence

from . import rigorous
from .errors import AmbientMismatch, DomainError
from .rigorous import RigorousReal

IntVec = tuple[int, ...]


def _echelon(rows: list[list[int]], ncols: int) -> list[int]:
    """In-place row echelon form over the first ncols columns; returns the
    pivot columns, so rows[:len(pivots)] are the echelon rows and the rest
    vanish on those columns.

    Each column is cleared by least-pivot reduction: every live row is
    reduced modulo the live row whose entry is least in absolute value,
    until one live row is left.
    """
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        live = [i for i in range(r, len(rows)) if rows[i][c]]
        while len(live) > 1:
            p = min(live, key=lambda i: abs(rows[i][c]))
            prow = rows[p]
            rest = [p]
            for i in live:
                if i != p:
                    q = rows[i][c] // prow[c]
                    rows[i] = row = [a - q * b for a, b in zip(rows[i], prow)]
                    if row[c]:
                        rest.append(i)
            live = rest
        if live:
            rows[r], rows[live[0]] = rows[live[0]], rows[r]
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


def integer_kernel(rows: Sequence[Sequence[int]], ambient: Optional[int] = None
                   ) -> list[IntVec]:
    """Canonical basis of {x in Z^N : x . r = 0 for every given row r}."""
    if ambient is None:
        if not rows:
            raise DomainError("ambient dimension needed for an empty constraint set")
        ambient = len(rows[0])
    if any(len(row) != ambient for row in rows):
        raise AmbientMismatch(f"constraint rows must have length {ambient}")
    m = len(rows)
    big = [[rows[i][j] for i in range(m)]
           + [1 if t == j else 0 for t in range(ambient)]
           for j in range(ambient)]
    rank = len(_echelon(big, m))
    return [tuple(r) for r in _row_hnf([r[m:] for r in big[rank:]])]


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


@dataclass(frozen=True)
class RationalSubspace:
    """A rational subspace as the canonical basis of its saturated lattice;
    the basis of W-perp intersect Z^N is kept when known, computed on first
    use otherwise, and takes no part in equality."""

    ambient: int
    basis: tuple[IntVec, ...]
    squared_height: int
    _perp: Optional[tuple[IntVec, ...]] = field(default=None, compare=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def perp(self) -> tuple[IntVec, ...]:
        """The canonical basis of W-perp intersect Z^N."""
        if self._perp is None:
            object.__setattr__(self, "_perp",
                               tuple(integer_kernel(self.basis, self.ambient)))
        return self._perp

    def member(self, vector: Sequence[int]) -> bool:
        """v is in W exactly when v is orthogonal to every row of W-perp."""
        if len(vector) != self.ambient:
            raise AmbientMismatch(
                f"vector has dimension {len(vector)}, ambient is {self.ambient}"
            )
        return not any(sum(Fraction(v) * p for v, p in zip(vector, row))
                       for row in self.perp)

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


def _from_saturated(basis: Sequence[IntVec], ambient: int,
                    perp: Optional[tuple[IntVec, ...]] = None) -> RationalSubspace:
    return RationalSubspace(ambient, tuple(basis), gram_det(basis), perp)


def saturate(vectors: Sequence[Sequence[int]], ambient: Optional[int] = None
             ) -> RationalSubspace:
    """The subspace spanned by the given integer vectors, saturated.

    Dependent, duplicate, and zero inputs are all allowed; an empty list (with
    an explicit ambient dimension) gives the zero subspace.
    """
    vecs = [tuple(vec) for vec in vectors]
    if not all(isinstance(v, int) for vec in vecs for v in vec):
        raise DomainError("spanning vector entries must be integers")
    if ambient is None:
        if not vecs:
            raise DomainError("ambient dimension needed for an empty spanning set")
        ambient = len(vecs[0])
    if any(len(v) != ambient for v in vecs):
        raise AmbientMismatch("spanning vectors differ in length")
    perp = tuple(integer_kernel(vecs, ambient))
    return _from_saturated(integer_kernel(perp, ambient), ambient, perp)


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
    return saturate(list(a.basis) + list(b.basis), a.ambient)


def intersect(a: RationalSubspace, b: RationalSubspace) -> RationalSubspace:
    """A cap B as the common kernel of both orthogonal complements."""
    _check_ambient(a, b)
    return _from_saturated(integer_kernel(a.perp + b.perp, a.ambient), a.ambient)


def orthogonal_complement(w: RationalSubspace) -> RationalSubspace:
    """W-perp, whose own complement is W: (W-perp)-perp = W."""
    return _from_saturated(w.perp, w.ambient, w.basis)


def schmidt_ratio(a: RationalSubspace, b: RationalSubspace) -> dict:
    """Exact squared instrumentation of H(A+B) H(A cap B) vs H(A) H(B)."""
    _check_ambient(a, b)
    s = sum_(a, b)
    i = intersect(a, b)
    lhs_sq = s.squared_height * i.squared_height
    rhs_sq = a.squared_height * b.squared_height
    return {
        "lhsSq": lhs_sq,
        "rhsSq": rhs_sq,
        "ratioSq": Fraction(lhs_sq, rhs_sq),
        "sumDim": s.dim,
        "intersectionDim": i.dim,
    }


def schmidt_fuzz(max_ambient: int = 5, count: int = 1000, seed: int = 1,
                 keep_samples: int = 5) -> dict:
    """Randomized stress of the height product inequality and height duality.

    Draws count pairs of random saturated subspaces (ambient dimension 2 to
    max_ambient, small integer spanning vectors), records the largest exact
    ratioSq = H(A+B)^2 H(A cap B)^2 / (H(A)^2 H(B)^2) seen, and checks
    H(W)^2 = H(W perp)^2 exactly for every generated subspace.  Deterministic
    in the seed.
    """
    import random

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
        if len(samples) < keep_samples:
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
