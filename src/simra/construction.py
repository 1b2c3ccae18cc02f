"""Index selection and nested subspace families along a point sequence.

Given a sequence of integer points spanning R^{n+1} and a start index i0,
there is for each t a largest index i_t >= i0 such that the points
x_{i0}..x_{i_t} span a (t+1)-dimensional space; the jump to dimension t+2 at
i_t + 1 certifies maximality.  Around these indices live two families of
subspaces

    U_t^k = <x_s, ..., x_{i_t}>      (dimension k)
    V_t^{k+1} = <x_s, ..., x_{i_t+1}>  (dimension k+1),   s = s(t, k),

where s(t, k) is the largest s <= i_t making the V-span (k+1)-dimensional.
The families satisfy exact identities (sum, intersection, chain, nesting,
full space) that hold for any spanning sequence, plus height-product and
norm-product inequalities whose empirical constants this module measures.

All rank and equality decisions are exact: ranks come from the integer
echelon pass of subspaces, subspace equality from canonical saturated bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import subspaces
from .errors import DomainError, InsufficientData, LevelOutOfRange
from .reporting import format_significant
from .rigorous import RigorousReal
from .subspaces import RationalSubspace


def _independent(rows: list, vec: Sequence[int], ncols: int) -> bool:
    """Append vec to rows when it raises their rank; True when it did."""
    if len(subspaces._echelon(rows + [vec], ncols)) > len(rows):
        rows.append(vec)
        return True
    return False


def _points_of(seq) -> list[tuple[int, ...]]:
    if hasattr(seq, "entries"):
        return [e.point.coords for e in seq.entries]
    return [tuple(int(v) for v in p) for p in seq]


def jump_indices(indices: Sequence[int], length: int) -> list[int]:
    """The jump indices as ints, checked against a sequence of `length`
    entries: DomainError unless 0 <= i_0 < i_1 < ..., InsufficientData when
    the entry after the last index is past the end."""
    idx = [int(i) for i in indices]
    if not idx or idx[0] < 0 or any(a >= b for a, b in zip(idx, idx[1:])):
        raise DomainError(f"jump indices {idx} must satisfy 0 <= i_0 < i_1 < ...")
    if idx[-1] + 1 >= length:
        raise InsufficientData(
            f"family needs entry {idx[-1] + 1}, sequence has {length}")
    return idx


def select_indices(seq, i0: int) -> list[int]:
    """The indices [i_0, ..., i_{n-1}] of the dimension jumps after i0, for
    points of R^(n+1).

    i_t is the largest index with dim <x_{i0}..x_{i_t}> = t+1, certified by
    observing the jump to t+2; exact ranks over Q.  Raises InsufficientData
    when the available entries never certify some i_t.
    """
    pts = _points_of(seq)
    if not pts:
        raise InsufficientData("empty point sequence")
    ambient = len(pts[0])
    n = ambient - 1
    if n < 2:
        raise DomainError("the construction needs dimension n >= 2")
    if not 0 <= i0 < len(pts):
        raise DomainError(f"i0={i0} is outside the sequence (length {len(pts)})")

    basis: list = []
    _independent(basis, pts[i0], ambient)
    indices: list[int] = []
    for j in range(i0 + 1, len(pts)):
        if _independent(basis, pts[j], ambient):
            # rank jumped from t+1 to t+2: the largest index of rank t+1 is j-1
            t = len(basis) - 2
            if t == 0 and j - 1 != i0:
                raise DomainError(
                    f"x_{i0 + 1} is proportional to x_{i0}: "
                    "the index table cannot start at i0"
                )
            indices.append(j - 1)
            if len(indices) == n:
                return indices
    raise InsufficientData(
        f"rank reached only {len(basis)} of {n + 1} within {len(pts)} entries; "
        "cannot certify the largest index at the next level"
    )


@dataclass(frozen=True)
class SubspaceFamily:
    """The two nested families around the jump indices of one start index."""

    n: int
    i0: int
    indices: tuple[int, ...]
    s: dict  # (t, k) -> s(t, k), 1 <= k <= t+1 <= n
    u: dict  # (t, k) -> U_t^k
    v: dict  # (t, k) -> V_t^{k+1}
    points: tuple[tuple[int, ...], ...]
    _spans: dict = field(default_factory=dict, repr=False, compare=False)

    def span(self, a: int, b: int) -> RationalSubspace:
        """The saturated span of x_a, ..., x_b (inclusive), saturated once
        per family: the U/V tables and the identity checks share it."""
        w = self._spans.get((a, b))
        if w is None:
            w = self._spans[(a, b)] = subspaces.saturate(self.points[a:b + 1], self.n + 1)
        return w


def build_subspace_family(seq, indices: Sequence[int]) -> SubspaceFamily:
    """Locate every s(t, k) by backward rank scan and saturate both families."""
    pts = _points_of(seq)
    if not pts:
        raise InsufficientData("empty point sequence")
    ambient = len(pts[0])
    n = len(indices)
    if n < 2 or ambient != n + 1:
        raise DomainError(
            f"{n} indices for ambient dimension {ambient}; need n = ambient - 1 >= 2"
        )
    indices = jump_indices(indices, len(pts))
    i0 = indices[0]

    s_tab: dict = {}
    for t in range(n):
        it = indices[t]
        basis: list = []
        _independent(basis, pts[it + 1], ambient)
        largest_s_of_dim: dict[int, int] = {}
        for s in range(it, i0 - 1, -1):
            if _independent(basis, pts[s], ambient):
                largest_s_of_dim[len(basis)] = s
        for k in range(1, t + 2):
            if k + 1 not in largest_s_of_dim:
                raise InsufficientData(
                    f"no s in [{i0}, {it}] spans dimension {k + 1} with the "
                    f"tail at {it + 1}; the index table is not certifiable"
                )
            s_tab[(t, k)] = largest_s_of_dim[k + 1]

    fam = SubspaceFamily(n=n, i0=i0, indices=tuple(indices),
                         s=s_tab, u={}, v={}, points=tuple(pts))
    for (t, k), s in s_tab.items():
        fam.u[(t, k)] = fam.span(s, indices[t])
        fam.v[(t, k)] = fam.span(s, indices[t] + 1)
    return fam


def verify_family_identities(fam: SubspaceFamily) -> dict:
    """Exact pass/fail for every structural identity of the two families.

    Failures indicate an implementation bug, never a data property: each
    identity is a theorem for any spanning sequence with a certified table.
    """
    checks: list[dict] = []

    def chk(name: str, ok: bool) -> None:
        checks.append({"check": name, "pass": bool(ok)})

    n = fam.n
    # dimensions
    for (t, k), w in sorted(fam.u.items()):
        chk(f"dim U[t={t},k={k}] == {k}", w.dim == k)
    for (t, k), w in sorted(fam.v.items()):
        chk(f"dim V[t={t},k+1={k + 1}] == {k + 1}", w.dim == k + 1)
    # s-table shape: s(t,1) = i_t, strict decrease, floor at i0
    for t in range(n):
        row = [fam.s[(t, k)] for k in range(1, t + 2)]
        chk(f"s({t},1) == i_{t}", row[0] == fam.indices[t])
        chk(f"s({t},*) strictly decreasing, >= i0",
            all(a > b for a, b in zip(row, row[1:])) and row[-1] >= fam.i0)
    # sum decomposition: V_t^{k+1} = U_t^k + V_t^k
    for t in range(n):
        for k in range(2, t + 2):
            lhs = fam.v[(t, k)]
            rhs = subspaces.sum_(fam.u[(t, k)], fam.v[(t, k - 1)])
            chk(f"sum: V[t={t}]^{k + 1} == U^{k} + V^{k}", lhs == rhs)
    # intersection step: U_t^{k-1} = U_t^k cap V_t^k
    for t in range(n):
        for k in range(2, t + 2):
            lhs = fam.u[(t, k - 1)]
            rhs = subspaces.intersect(fam.u[(t, k)], fam.v[(t, k - 1)])
            chk(f"intersection: U[t={t}]^{k - 1} == U^{k} cap V^{k}", lhs == rhs)
    # chain: U_t^{t+1} = <x_{i0}..x_{i_{t-1}+1}> = V_{t-1}^{t+1}
    for t in range(1, n):
        mid = fam.span(fam.i0, fam.indices[t - 1] + 1)
        chk(f"chain: U[t={t}]^{t + 1} == prefix span", fam.u[(t, t + 1)] == mid)
        chk(f"chain: prefix span == V[t={t - 1}]^{t + 1}", mid == fam.v[(t - 1, t)])
    # prefix nesting: <x_{i0}..x_{i_{t-1}+1}> = <x_{i0}..x_{i_t}>
    for t in range(1, n):
        chk(f"nesting: prefix to i_{t - 1}+1 == prefix to i_{t}",
            fam.span(fam.i0, fam.indices[t - 1] + 1)
            == fam.span(fam.i0, fam.indices[t]))
    # the last jump exhausts the ambient space
    chk("full space at i_{n-1}+1",
        fam.span(fam.i0, fam.indices[-1] + 1) == subspaces.full_space(n + 1))

    return {"checks": checks, "allPass": all(c["pass"] for c in checks)}


def lemma32_check(fam: SubspaceFamily, k: int) -> dict:
    """Exact product-of-heights comparison at level k.

    lhsSq is the product of squared heights of U_t^k over t = k..n-1, rhsSq
    the product over V_t^{k+1} for t = k-1..n-1; their ratio is the measured
    constant of the level-k height inequality.
    """
    n = fam.n
    if not 1 <= k <= n - 1:
        raise LevelOutOfRange(f"level k={k} outside 1..{n - 1}")
    lhs_sq = 1
    for t in range(k, n):
        lhs_sq *= fam.u[(t, k)].squared_height
    rhs_sq = 1
    for t in range(k - 1, n):
        rhs_sq *= fam.v[(t, k)].squared_height
    ratio_sq = Fraction(lhs_sq, rhs_sq)
    return {
        "k": k,
        "lhsSq": lhs_sq,
        "rhsSq": rhs_sq,
        "ratioSq": ratio_sq,
        "ratio": float(ratio_sq) ** 0.5,
    }


def theorem31_ratio(seq, i0: int) -> dict:
    """Norm product over the jump indices against the error-norm product.

    lhs = X_{i_1} ... X_{i_{n-1}} and rhs = prod_t L_{i_t} X_{i_t+1}; their
    ratio is the quantity whose sup over i0 measures the sequence constant.
    """
    idx = select_indices(seq, i0)
    entries = seq.entries
    lhs: Union[RigorousReal, int] = 1
    lhs_sq = 1
    for i in idx[1:]:
        lhs = entries[i].x_value if lhs == 1 else lhs * entries[i].x_value
        lhs_sq *= entries[i].norm_sq
    rhs: Optional[RigorousReal] = None
    for i in idx:
        term = entries[i].l_value * entries[i + 1].x_value
        rhs = term if rhs is None else rhs * term
    ratio = lhs / rhs
    return {
        "i0": i0,
        "indices": idx,
        "lhsSq": lhs_sq,
        "lhs": lhs,
        "rhs": rhs,
        "ratio": ratio,
    }


def family_report(fam: SubspaceFamily, seq=None) -> dict:
    """JSON-ready family report: tables, bases, heights, identity checks,
    and the measured product ratios (12 significant digits)."""
    def fmt(x) -> str:
        return format_significant(x, 12)

    n = fam.n
    report = {
        "n": n,
        "i0": fam.i0,
        "indices": list(fam.indices),
        "sTable": {f"{t},{k}": fam.s[(t, k)]
                   for t in range(n) for k in range(1, t + 2)},
        "subspaces": {
            **{f"U[{t},{k}]": fam.u[(t, k)].describe()
               for t in range(n) for k in range(1, t + 2)},
            **{f"V[{t},{k + 1}]": fam.v[(t, k)].describe()
               for t in range(n) for k in range(1, t + 2)},
        },
        "identities": verify_family_identities(fam),
        "levelHeightRatios": {},
    }
    for k in range(1, n):
        lv = lemma32_check(fam, k)
        report["levelHeightRatios"][str(k)] = {
            "lhsSq": lv["lhsSq"],
            "rhsSq": lv["rhsSq"],
            "ratioSq": fmt(lv["ratioSq"]),
            "ratio": fmt(lv["ratio"]),
        }
    if seq is not None:
        t31 = theorem31_ratio(seq, fam.i0)
        report["indexProductRatio"] = {
            "lhsSq": t31["lhsSq"],
            "lhs": fmt(float(t31["lhs"])),
            "rhs": fmt(float(t31["rhs"])),
            "ratio": fmt(float(t31["ratio"])),
        }
    return report
