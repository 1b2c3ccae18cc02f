"""Enumeration of minimal (best-approximation) integer points.

A sequence (x_i) in an approximation set S is minimal for a target xi when

    (a) |x_0| < |x_1| < ...            (Euclidean norms strictly increase)
    (b) L(x_0) > L(x_1) > ...          (errors strictly decrease)
    (c) no nonzero z in S with |z| < |x_{i+1}| has L(z) < L(x_i),

together with the start convention: the sequence begins at the canonical
point of smallest norm achieving the minimal L among nonzero members of S of
that norm, ties in norm broken lexicographically.

The fast enumerator takes the members of S in the smallest ball of radius
1, 2, 4, ... that holds one, then scans the x_0 = offset, offset + step,
... that S admits: at each x_0 the current record bounds every x_k to a
window around (xi_k/xi_0) x_0 outside which a point is certifiably worse
than the record, and the set lists its own members in those windows
(ApproxSet.box_members).  Every approximation set takes this one path: S
answers every question about itself (check_ambient, member, box_members,
x0_progression), and nothing here branches on its kind.

Two independent oracles are kept, and both ask S only member: a literal
scan of every canonical point of Z^(n+1) (small X only), and a windowed
scan.  The windowed scan and verify_minimality read one candidate stream
(_oracle_points): the smallest-norm group of S, then at each x_0 the
members of S of every other norm in plain per-coordinate windows sized by
the start point, which provably contain every point able to beat any
later record or to violate (c).  Each window is one table per axis holding
every value's share of the point's 64-bit lower bound, so a point's lower
bound is a max of table entries; the windowed scan drops the axis values
whose share already exceeds the start point's error, since no point
through them can become a record.  Both are built by addition: x_0 only
grows, so each axis carries its window ends and x_0 xi_k as running
integers, and a table's entries step by xi_0's snapshot ends, swapped
below 0.

All record comparisons are certified: branch values are tracked symbolically
(so exact ties between branches are recognized, not fought numerically) and
numerically as scaled-integer enclosures with doubling precision.  A
certified 64-bit integer lower bound drops the points that are plainly
worse than the record before any key is built.  The comparator owns the
target's scaled-integer view; the scans read nothing else of the target.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt
from typing import Iterable, Optional, Sequence, Union

from . import model, rigorous
from .errors import (BeyondCertifiedRange, DependentCoordinates, DomainError,
                     EmptySet, PropertyViolated, SchemaError, TieUnresolved)
from .model import ApproxSet, IntegerPoint, TargetPoint
from .reporting import format_significant
from .rigorous import RigorousReal

_BASE_BITS = 64

INFINITE = math.inf  # envelope value when no point of the set is in range yet


# ---------------------------------------------------------------------------
# certified comparison of approximation errors

def _abs_iv(lo: int, hi: int) -> tuple[int, int]:
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return 0, max(-lo, hi)


def _scaled(m: int, lo: int, hi: int) -> tuple[int, int]:
    return (m * lo, m * hi) if m >= 0 else (m * hi, m * lo)


class _Comparator:
    """Certified three-way comparison of L values via symbolic branch keys.

    A branch |xi_0 x_k - xi_k x_0| is keyed so that equal keys mean exactly
    equal real values:

      ("q", f)            both coordinates exact rationals; value is f
      ("r", m)            x_0 = 0; value is m * |xi_0|
      ("i", k, x_k, x_0)  generic branch, sign-normalized to x_0 > 0

    Under Q-linear independence of the target coordinates, distinct keys give
    distinct values, so escalation terminates; an unresolved overlap at the
    cap signals an insufficient cap or dependent coordinates.

    The comparator owns the target's view at scale 2^64: the exact values
    and saturation flags of the coordinates and snap (dyadic bounds
    [lo, hi] / 2^64 of every xi_k), computed as it is built, and ratio_snap
    (the same of every xi_k / xi_0, k >= 1), computed when a scan first
    reads it; the comparators that only compare never enclose a ratio.
    The scans read only this view.  Snapshots at more bits are computed
    when a comparison escalates to them, once per bit count (snapshot).

    Callers first pre-test a candidate against an entry at 64 bits, with
    plain integers and no keys: lower(coords) > upper(entry keys) certifies
    that the candidate is strictly worse, and compare decides only what the
    pre-test leaves; the window oracles take the same bound axis by axis,
    a whole window of x_k at once (axis_table).  Key intervals are
    recomputed at each use; behind the pre-test a cache of them bought no
    measurable time.
    """

    def __init__(self, target: TargetPoint):
        coords = target.coords
        self.n = target.n
        self.exact = tuple(c.lo if c.is_exact else None for c in coords)
        self.sat = tuple(c.saturated for c in coords)
        self._coords = coords
        self._snaps: dict[int, list[tuple[int, int]]] = {}
        self.snap = self.snapshot(_BASE_BITS)

    @cached_property
    def ratio_snap(self) -> list[tuple[int, int]]:
        return [rigorous.dyadic_bounds(c / self._coords[0], _BASE_BITS)
                for c in self._coords[1:]]

    def snapshot(self, bits: int) -> list[tuple[int, int]]:
        """Integer bounds [lo, hi] / 2^bits of every coordinate, computed
        once per bit count."""
        snap = self._snaps.get(bits)
        if snap is None:
            snap = self._snaps[bits] = [rigorous.dyadic_bounds(c, bits) for c in self._coords]
        return snap

    def lower(self, coords: Sequence[int]) -> int:
        """Certified lower bound of 2^64 L(coords), from the 64-bit snapshot
        alone: no keys are built, and it holds whatever kind the keys are.

        With [z_lo, z_hi] and [s_lo, s_hi] the snapshots of xi_0 and xi_k,
        the axis-k term is the low end of |x_k xi_0 - x_0 xi_k|'s enclosure,
        max(a_lo - b_hi, b_lo - a_hi) for [a_lo, a_hi] = x_k [z_lo, z_hi]
        and [b_lo, b_hi] = x_0 [s_lo, s_hi]; a negative factor swaps the
        ends of the enclosure it scales."""
        x0 = coords[0]
        zlo, zhi = self.snap[0]
        best = 0
        for k in range(1, self.n + 1):
            v = coords[k]
            slo, shi = self.snap[k]
            if x0 < 0:
                slo, shi = shi, slo
            if v < 0:
                a, b = v * zhi - x0 * shi, x0 * slo - v * zlo
            else:
                a, b = v * zlo - x0 * shi, x0 * slo - v * zhi
            if a > best:
                best = a
            if b > best:
                best = b
        return best

    def axis_table(self, b_lo: int, b_hi: int, lo: int, hi: int,
                   cutoff) -> list[tuple[int, int, int]]:
        """(v, v^2, d) for each v in [lo, hi] whose d <= cutoff, where d is
        lower's axis-k term at x_k = v and [b_lo, b_hi] encloses 2^64 x_0
        xi_k: lower(c) = max(0, max_k d_k(c_k)).

        d(v) = max(v z_a - b_hi, b_lo - v z_b), with (z_a, z_b) = (z_hi,
        z_lo) below 0 and (z_lo, z_hi) from 0 up, where lower swaps the ends
        of xi_0's snapshot; on each side both terms step by addition."""
        zlo, zhi = self.snap[0]
        table = []
        if lo < 0:
            a, b = lo * zhi - b_hi, b_lo - lo * zlo
            for v in range(lo, min(hi + 1, 0)):
                d = a if a > b else b
                if d <= cutoff:
                    table.append((v, v * v, d))
                a += zhi
                b -= zlo
            lo = 0
        a, b = lo * zlo - b_hi, b_lo - lo * zhi
        for v in range(lo, hi + 1):
            d = a if a > b else b
            if d <= cutoff:
                table.append((v, v * v, d))
            a += zlo
            b -= zhi
        return table

    def upper(self, keys: tuple, point) -> int:
        """Certified upper bound of 2^64 L, the entry's side of the pre-test;
        raises DependentCoordinates where compare would."""
        lo, hi, sat, _ = self.l_interval(keys, _BASE_BITS)
        self._check_zero(keys, hi, lo, sat, point)
        return hi

    def keys(self, coords: Sequence[int]) -> tuple:
        x0 = coords[0]
        ks = []
        for k in range(1, self.n + 1):
            if self.exact[0] is not None and self.exact[k] is not None:
                f = abs(self.exact[0] * coords[k] - self.exact[k] * x0)
                ks.append(("q", f))
            elif x0 == 0:
                ks.append(("r", abs(coords[k])))
            else:
                xk, x0n = coords[k], x0
                if x0n < 0:
                    xk, x0n = -xk, -x0n
                ks.append(("i", k, xk, x0n))
        ks = tuple(dict.fromkeys(ks))
        if all(key[0] == "q" and key[1] == 0 for key in ks):
            raise DependentCoordinates(
                f"L({tuple(coords)}) = 0 exactly: target coordinates are dependent"
            )
        return ks

    def _key_interval(self, key: tuple, bits: int) -> tuple[int, int, bool]:
        if key[0] == "q":
            f = key[1]
            lo = (f.numerator << bits) // f.denominator
            hi = -((-f.numerator << bits) // f.denominator)
            return lo, hi, True
        snap = self.snapshot(bits)
        if key[0] == "r":
            zlo, zhi = _abs_iv(*snap[0])
            return key[1] * zlo, key[1] * zhi, self.sat[0]
        _, k, xk, x0 = key
        alo, ahi = _scaled(xk, *snap[0])
        blo, bhi = _scaled(x0, *snap[k])
        return (*_abs_iv(alo - bhi, ahi - blo), self.sat[0] and self.sat[k])

    def l_interval(self, keys: tuple, bits: int) -> tuple[int, int, bool, list]:
        """Scaled-integer enclosure (lo, hi, saturated) of max over branches,
        at scale 2^bits, followed by the per-key intervals it came from."""
        ivs = [self._key_interval(key, bits) for key in keys]
        return (max(v[0] for v in ivs), max(v[1] for v in ivs),
                all(v[2] for v in ivs), ivs)

    def _check_zero(self, keys: tuple, hi: int, lo: int, sat: bool, point) -> None:
        if hi == 0 or (sat and lo <= 0):
            raise DependentCoordinates(
                f"L enclosure of {point} cannot be separated from zero: "
                "target coordinates are dependent (or data precision is exhausted)"
            )

    def compare(self, a_keys: tuple, b_keys: tuple,
                a_point=None, b_point=None) -> int:
        """-1, 0, +1 for L(a) <, ==, > L(b); raises TieUnresolved at the cap."""
        if a_keys == b_keys:
            return 0
        bits = _BASE_BITS
        while True:
            alo, ahi, asat, a = self.l_interval(a_keys, bits)
            blo, bhi, bsat, b = self.l_interval(b_keys, bits)
            self._check_zero(a_keys, ahi, alo, asat, a_point)
            self._check_zero(b_keys, bhi, blo, bsat, b_point)
            if ahi < blo:
                return -1
            if bhi < alo:
                return 1
            amax = [k for k, v in zip(a_keys, a) if v[1] >= alo]
            bmax = [k for k, v in zip(b_keys, b) if v[1] >= blo]
            if len(amax) == 1 and len(bmax) == 1 and amax[0] == bmax[0]:
                return 0
            # the cap is read only here: most comparisons end at _BASE_BITS
            if (asat and bsat) or bits >= (cap := rigorous.precision_cap()):
                raise TieUnresolved(
                    f"L values of {a_point} and {b_point} remain indistinguishable "
                    f"at {bits} bits: raise SIMRA_PRECISION_CAP or check the "
                    "coordinates for rational dependence"
                )
            bits = min(bits * 2, cap)


# ---------------------------------------------------------------------------
# sequence containers

@dataclass(frozen=True)
class MinimalPointEntry:
    index: int
    point: IntegerPoint
    norm_sq: int
    x_value: RigorousReal
    l_value: RigorousReal
    branch_keys: tuple = field(repr=False)


@dataclass
class MinimalPointSequence:
    target: TargetPoint
    approx_set: ApproxSet
    x_max: Fraction
    entries: list[MinimalPointEntry]
    norm_sq_max: int

    def __len__(self) -> int:
        return len(self.entries)

    def points(self) -> list[tuple[int, ...]]:
        return [e.point.coords for e in self.entries]


# ---------------------------------------------------------------------------
# candidate generation

def _canonical_ball(ambient: int, norm_sq_max: int) -> Iterable[tuple[int, ...]]:
    """Every canonical nonzero integer tuple with squared norm <= norm_sq_max."""

    def rec(prefix: list[int], budget: int, started: bool):
        i = len(prefix)
        if i == ambient:
            if started:
                yield tuple(prefix)
            return
        r = isqrt(budget)
        lo = 0 if not started else -r
        for v in range(lo, r + 1):
            prefix.append(v)
            yield from rec(prefix, budget - v * v, started or v > 0)
            prefix.pop()

    yield from rec([], norm_sq_max, False)


# ---------------------------------------------------------------------------
# the record sweep

def _entry(target: TargetPoint, index: int, coords: tuple[int, ...],
           norm_sq: int, keys: tuple) -> MinimalPointEntry:
    """The one constructor of entries, for the sweep and for read_csv alike:
    X and L are enclosed afresh from the exact point."""
    point = IntegerPoint.canonical(coords)
    return MinimalPointEntry(
        index=index,
        point=point,
        norm_sq=norm_sq,
        x_value=rigorous.sqrt(norm_sq),
        l_value=model.l_value(target, point),
        branch_keys=keys,
    )


def _sweep_below(target: TargetPoint, heap: list, limit,
                 entries: list[MinimalPointEntry], comparator: _Comparator) -> None:
    """Pop every (norm_sq, coords) group with norm_sq < limit off the heap,
    appending each group's best point when it beats the record entries[-1].

    Groups pop in (norm, coordinates) order, so ties in L within a group go
    to the lexicographically first point.  The caller guarantees that every
    group below limit is complete.  A point whose certified lower bound
    exceeds the record's 64-bit upper bound is dropped before its keys are
    built; compare decides every other point.
    """
    record = rec_hi = None
    while heap and heap[0][0] < limit:
        ns = heap[0][0]
        if entries and entries[-1] is not record:
            record = entries[-1]
            rec_hi = comparator.upper(record.branch_keys, record.point.coords)
        best = None  # (coords, keys)
        while heap and heap[0][0] == ns:
            coords = heapq.heappop(heap)[1]
            if record is not None and comparator.lower(coords) > rec_hi:
                continue
            keys = comparator.keys(coords)
            if record is not None and comparator.compare(
                    keys, record.branch_keys, coords, record.point.coords) >= 0:
                continue
            if best is None or comparator.compare(keys, best[1], coords, best[0]) < 0:
                best = (coords, keys)
        if best is not None:
            entries.append(_entry(target, len(entries), best[0], ns, best[1]))


def _sweep(target: TargetPoint, candidates: Iterable[tuple[int, ...]],
           comparator: _Comparator) -> list[MinimalPointEntry]:
    """The records among candidates, distinct canonical points."""
    heap = [(sum(v * v for v in c), c) for c in candidates]
    heapq.heapify(heap)
    entries: list[MinimalPointEntry] = []
    _sweep_below(target, heap, math.inf, entries, comparator)
    return entries


def _record_bound(comparator: _Comparator, coords: tuple[int, ...]) -> int:
    """Upper bound of 2^64 max_k |x_k - (xi_k/xi_0) x_0| for the record,
    from the comparator's ratio snapshot."""
    x0 = coords[0]
    worst = 0
    for (rlo, rhi), xk in zip(comparator.ratio_snap, coords[1:]):
        xkb = xk << _BASE_BITS
        worst = max(worst, abs(xkb - rlo * x0), abs(xkb - rhi * x0))
    return worst


def _scan_entries(target: TargetPoint, comparator: _Comparator, approx_set: ApproxSet,
                  norm_sq_max: int, entries: list[MinimalPointEntry],
                  bound_sq: int) -> None:
    """Extend the start records, complete up to squared norm bound_sq, to
    norm_sq_max by scanning through the record windows the x_0 = offset,
    offset + step, ... that S admits (ApproxSet.x0_progression); no other
    x_0 holds a member.

    With rec_hi the record's bound and [r_lo, r_hi] / 2^64 enclosing
    xi_k/xi_0, a point at x_0 whose x_k lies outside

        [ceil((r_lo x_0 - rec_hi) / 2^64), floor((r_hi x_0 + rec_hi) / 2^64)]

    has |x_k - (xi_k/xi_0) x_0| certifiably above the record's error, so it
    is strictly worse than the record; records only improve, so a point left
    out stays out.  Candidates at x_0 have norm >= x_0^2, so when the scan
    reaches x_0 every heap group below x_0^2 is complete; the sweep runs
    only from sweep_at, the first x_0 whose square exceeds the heap's
    least norm, and the windows come from the freshest record.

    Most x_0 have an empty axis-1 window, so it is tested in residue form:
    with h = (r_hi x_0 + rec_hi) mod 2^64 and w = 2 rec_hi + (r_hi - r_lo)
    x_0, the width between the two ends' numerators, the window is nonempty
    exactly when h <= w (always once w >= 2^64).  Both step by addition
    and are recomputed only when a sweep changes the record; only on a
    nonempty window are the axes sized and the set asked for its members
    in the windows.  The heap holds only canonical members, and the
    processing order (hence the result) matches a single sweep of all
    members sorted by (norm, coordinates).
    """
    r_lo, r_hi = comparator.ratio_snap[0]
    mask, width = (1 << _BASE_BITS) - 1, r_hi - r_lo
    offset, step = approx_set.x0_progression()
    end = isqrt(norm_sq_max) + 1
    h_step, w_step = r_hi * step & mask, width * step
    zero = (0,) * (comparator.n + 1)
    heap: list = []
    record, sweep_at = None, offset  # the first x_0 takes up the start record
    for x0 in range(offset, end, step):
        if x0 >= sweep_at:
            _sweep_below(target, heap, x0 * x0, entries, comparator)
            sweep_at = isqrt(heap[0][0]) + 1 if heap else end
            if entries[-1] is not record:
                record = entries[-1]
                rec_hi = _record_bound(comparator, record.point.coords)
                h, w = (r_hi * x0 + rec_hi) & mask, 2 * rec_hi + width * x0
        if h <= w:
            windows = []
            for rlo, rhi in comparator.ratio_snap:
                lo_k = -((rec_hi - rlo * x0) >> _BASE_BITS)
                hi_k = (rhi * x0 + rec_hi) >> _BASE_BITS
                if lo_k > hi_k:
                    break
                windows.append((lo_k, hi_k))
            else:
                for c in approx_set.box_members(x0, windows):
                    # c > zero: canonical, which only x_0 = 0 can fail
                    if c > zero and bound_sq < (ns := sum(v * v for v in c)) <= norm_sq_max:
                        heapq.heappush(heap, (ns, c))
                        sweep_at = min(sweep_at, isqrt(ns) + 1)
        h = (h + h_step) & mask
        w += w_step
    _sweep_below(target, heap, math.inf, entries, comparator)


def _validate_x_max(x_max) -> tuple[Fraction, int]:
    x_max = Fraction(x_max)
    if x_max < 1:
        raise DomainError("x_max must be >= 1")
    norm_sq_max = (x_max.numerator ** 2) // (x_max.denominator ** 2)
    return x_max, norm_sq_max


def enumerate_minimal_points(target: TargetPoint, approx_set: ApproxSet,
                             x_max) -> MinimalPointSequence:
    """The minimal-point sequence of (target, S) for norms up to x_max.

    Deterministic in (target, S, x_max) and the precision cap.  Raises
    EmptySet when S has no nonzero member in range, DependentCoordinates
    when an exactly-zero error is hit, TieUnresolved when a record
    comparison cannot be certified.
    """
    x_max, norm_sq_max = _validate_x_max(x_max)
    approx_set.check_ambient(target.n + 1)
    comparator = _Comparator(target)

    # the start: the members of S in the smallest ball of radius r = 1, 2,
    # 4, ... that holds one, swept completely; the scan takes over past r
    zero = (0,) * (target.n + 1)
    r = 1
    while True:
        bound_sq = min(r * r, norm_sq_max)
        ball = [c for x0 in range(r + 1)
                for c in approx_set.box_members(x0, [(-r, r)] * target.n)
                if c > zero and sum(v * v for v in c) <= bound_sq]
        if ball:
            break
        if bound_sq == norm_sq_max:
            raise EmptySet(f"no nonzero member of {approx_set!r} with norm <= {x_max}")
        r *= 2
    entries = _sweep(target, ball, comparator)
    _scan_entries(target, comparator, approx_set, norm_sq_max, entries, bound_sq)
    return MinimalPointSequence(target, approx_set, x_max, entries, norm_sq_max)


# ---------------------------------------------------------------------------
# independent cross-checks

def brute_force_reference(target: TargetPoint, approx_set: ApproxSet,
                          x_max) -> MinimalPointSequence:
    """Literal scan of every canonical point of norm <= x_max.  Small X only."""
    x_max, norm_sq_max = _validate_x_max(x_max)
    approx_set.check_ambient(target.n + 1)
    comparator = _Comparator(target)
    cands = [c for c in _canonical_ball(target.n + 1, norm_sq_max)
             if approx_set.member(c)]
    if not cands:
        raise EmptySet(f"no nonzero member of {approx_set!r} with norm <= {x_max}")
    entries = _sweep(target, cands, comparator)
    return MinimalPointSequence(target, approx_set, x_max, entries, norm_sq_max)


def _start_group(comparator: _Comparator, approx_set: ApproxSet,
                 x_max: Fraction, norm_sq_max: int) -> tuple[int, list, int]:
    """The squared norm of the smallest-norm members of S (found in balls
    of squared radius 4, 16, ... filtered by S.member), those members in
    order, and the 64-bit upper bound of L at the start point, the one of
    least L among them."""
    bound_sq = 4
    while True:
        members = [c for c in _canonical_ball(comparator.n + 1, min(bound_sq, norm_sq_max))
                   if approx_set.member(c)]
        if members:
            break
        if bound_sq >= norm_sq_max:
            raise EmptySet(f"no nonzero member of {approx_set!r} with norm <= {x_max}")
        bound_sq = min(bound_sq * 4, norm_sq_max)
    ns0 = min(sum(v * v for v in c) for c in members)
    group = sorted(c for c in members if sum(v * v for v in c) == ns0)
    start = None  # (coords, keys)
    for c in group:
        keys = comparator.keys(c)
        if start is None or comparator.compare(keys, start[1], c, start[0]) < 0:
            start = (c, keys)
    return ns0, group, comparator.upper(start[1], start[0])


def _window_points(comparator: _Comparator, approx_set: ApproxSet, norm_sq_max: int,
                   start_hi: int, prune: bool) -> Iterable[tuple[int, tuple[int, ...], int]]:
    """(norm_sq, coords, lower(coords)) for the members of S in the plain
    windows sized by the start point, whose 64-bit upper bound is start_hi.

    Any point that beats some record has L < L_start, hence
    |x_k - (xi_k/xi_0) x_0| < L_start/|xi_0| <= margin - 1 for every k.  For
    each x_0 in [0, sqrt(norm_sq_max)] the window [floor(r_lo x_0) - margin,
    ceil(r_hi x_0) + margin] of each axis, with [r_lo, r_hi] enclosing
    xi_k/xi_0, becomes one table of (v, v^2, d_k) (_Comparator.axis_table);
    the points are the products of the tables within the norm bound, their
    squared norms sums and their lower bounds maxima of table entries.  S is
    asked only member.  With prune, the tables drop the values whose d_k
    exceeds start_hi; without, their cutoff is an integer that bounds every
    d_k of the scan, so every value stays.

    The scan never takes x_0 below 0, so no sign case arises: each axis
    keeps r_lo x_0, r_hi x_0 and x_0 [s_lo, s_hi] (the 2^64-scaled
    enclosure of x_0 xi_k, the b of axis_table) as running integers,
    stepped once per x_0 by r_lo, r_hi, s_lo and s_hi.  The first axis
    starts the products, with lower's floor of 0.
    """
    snap, ratio_snap = comparator.snap, comparator.ratio_snap
    zlo = _abs_iv(*snap[0])[0]
    if zlo <= 0:
        raise TieUnresolved("cannot bound |xi_0| away from zero for the window scan")
    margin = -(-start_hi // zlo) + 1
    x0_max = isqrt(norm_sq_max)
    if prune:
        cutoff = start_hi
    else:
        # d(v) = max(v z_a - b_hi, b_lo - v z_b) <= |v| Z + x0_max S, with Z
        # and S the largest |end| of xi_0's and of the xi_k's snapshots; a
        # window end is floor or ceil of r x_0 / 2^64 moved by margin, so
        # |v| <= (R x0_max >> 64) + margin + 1 with R the largest |r|
        big = max(abs(v) for iv in ratio_snap for v in iv)
        reach = (big * x0_max >> _BASE_BITS) + margin + 1
        cutoff = (reach * max(map(abs, snap[0]))
                  + x0_max * max(abs(v) for iv in snap[1:] for v in iv))
    steps = [(rlo, rhi, *b) for (rlo, rhi), b in zip(ratio_snap, snap[1:])]
    axes = [(0, 0, 0, 0)] * len(steps)
    zero = (0,) * (comparator.n + 1)
    for x0 in range(x0_max + 1):
        x0_sq = x0 * x0
        for k, (rlo_x0, rhi_x0, blo, bhi) in enumerate(axes):
            table = comparator.axis_table(blo, bhi, (rlo_x0 >> _BASE_BITS) - margin,
                                          -(-rhi_x0 >> _BASE_BITS) + margin, cutoff)
            if k == 0:
                points = [(x0_sq + vv, (x0, v), d if d > 0 else 0) for v, vv, d in table
                          if x0_sq + vv <= norm_sq_max]
            else:
                points = [(ns + vv, c + (v,), low if low > d else d) for ns, c, low in points
                          for v, vv, d in table if ns + vv <= norm_sq_max]
        if x0 == 0:
            # canonical only; the x_0 = 0 window is symmetric, so it holds
            # the canonical form of every point it holds
            points = [p for p in points if p[1] > zero]
        for p in points:
            if approx_set.member(p[1]):
                yield p
        axes = [(rlo_x0 + rlo, rhi_x0 + rhi, blo + slo, bhi + shi)
                for (rlo_x0, rhi_x0, blo, bhi), (rlo, rhi, slo, shi) in zip(axes, steps)]


def _oracle_points(comparator: _Comparator, approx_set: ApproxSet, x_max: Fraction,
                   norm_sq_max: int, prune: bool
                   ) -> Iterable[tuple[int, tuple[int, ...], int]]:
    """The candidate stream both oracles read: (norm_sq, coords,
    lower(coords)) for the smallest-norm group of S (_start_group), in
    order, then for the window points (_window_points) of every other norm.

    The group holds every canonical member of S of its norm and the window
    points are distinct canonical members of S, so the stream lists each
    point once."""
    ns0, group, start_hi = _start_group(comparator, approx_set, x_max, norm_sq_max)
    for c in group:
        yield ns0, c, comparator.lower(c)
    for p in _window_points(comparator, approx_set, norm_sq_max, start_hi, prune):
        if p[0] != ns0:
            yield p


def exhaustive_scan(target: TargetPoint, approx_set: ApproxSet,
                    x_max) -> MinimalPointSequence:
    """Windowed exhaustive scan, for every kind of set S: the oracle stream
    (_oracle_points), pruned, swept like the enumerator's candidates.

    Its windows are sized once by the start point, not by the enumerator's
    records, and S is asked only member; it shares _Comparator's lower
    bound and sweep with the enumerator, nothing of its candidate scan.  An
    axis value whose d_k exceeds the start's 64-bit upper bound is dropped
    as its table is built, before the product: every point through it has
    L >= lower > L_start >= the L of every record, so it can never become
    one (records after the start beat L_start, and the start's own group
    is listed whole).
    """
    x_max, norm_sq_max = _validate_x_max(x_max)
    approx_set.check_ambient(target.n + 1)
    comparator = _Comparator(target)
    stream = _oracle_points(comparator, approx_set, x_max, norm_sq_max, prune=True)
    entries = _sweep(target, [c for _, c, _ in stream], comparator)
    return MinimalPointSequence(target, approx_set, x_max, entries, norm_sq_max)


# ---------------------------------------------------------------------------
# queries on a computed sequence

def envelope(seq: MinimalPointSequence, x) -> Union[RigorousReal, float]:
    """min L over nonzero members of S with norm <= x (INFINITE when none)."""
    x = Fraction(x)
    if x > seq.x_max:
        raise BeyondCertifiedRange(
            f"envelope queried at {x}, certified only up to {seq.x_max}"
        )
    # entries have integer squared norms, so x^2 may be floored; x <= x_max
    # keeps the floor within norm_sq_max
    return envelope_at_norm_sq(seq, x.numerator ** 2 // x.denominator ** 2)


def envelope_at_norm_sq(seq: MinimalPointSequence, norm_sq) -> Union[RigorousReal, float]:
    """Envelope at norm sqrt(norm_sq): exact boundary form for integer points."""
    if norm_sq > seq.norm_sq_max:
        raise BeyondCertifiedRange(
            f"envelope queried at squared norm {norm_sq}, certified only up to "
            f"{seq.norm_sq_max}"
        )
    best = None
    for e in seq.entries:
        if e.norm_sq <= norm_sq:
            best = e
        else:
            break
    return INFINITE if best is None else best.l_value


@dataclass
class DirichletReport:
    n: int
    sup_value: float
    sup_upper: float
    at_index: Optional[int]
    values: list[float]


def dirichlet_check(seq: MinimalPointSequence) -> DirichletReport:
    """Empirical sup of X_{i+1}^(1/n) * L_i, the uniform-approximation gauge."""
    # local, so that enumerating minimal points need not load the interval layer
    from .ivcalc import frac_enclosure, iv_pow, midpoint_float, rig_interval, upper

    n = seq.target.n
    values: list[float] = []
    sup_val, sup_up, arg = -math.inf, -math.inf, None
    for i in range(len(seq.entries) - 1):
        e, nxt = seq.entries[i], seq.entries[i + 1]
        li = rig_interval(e.l_value)
        xi = iv_pow(frac_enclosure(nxt.norm_sq), Fraction(1, 2 * n))
        v = xi * li
        vf = midpoint_float(v)
        values.append(vf)
        if vf > sup_val:
            sup_val, sup_up, arg = vf, upper(v), i
    return DirichletReport(n=n, sup_value=sup_val, sup_upper=sup_up,
                           at_index=arg, values=values)


# ---------------------------------------------------------------------------
# CSV export and import

def _csv_header(n: int) -> list[str]:
    return (["i"] + [f"x_{k}" for k in range(n + 1)]
            + ["normSq", "X", "L", "log10X", "neg_log10L"])


def write_csv(seq: MinimalPointSequence, fileobj) -> None:
    """Deterministic CSV: i, x_0..x_n, normSq, X, L, log10X, neg_log10L."""
    import csv  # here, not at the top: the spectrum subcommands never load it

    w = csv.writer(fileobj, lineterminator="\n")
    w.writerow(_csv_header(seq.target.n))
    for e in seq.entries:
        x_lo, x_hi, _ = rigorous.enclosure(e.x_value, 80)
        l_lo, l_hi, _ = rigorous.enclosure(e.l_value, 96)
        xf = (x_lo + x_hi) / 2
        lf = (l_lo + l_hi) / 2
        w.writerow(
            [e.index] + list(e.point.coords) + [
                e.norm_sq,
                format_significant(xf, 15),
                format_significant(lf, 15),
                format_significant(math.log10(e.norm_sq) / 2.0
                                   if e.norm_sq > 1 else 0.0, 15),
                format_significant(-math.log10(lf) if lf > 0 else math.inf, 15),
            ])


def read_csv(target: TargetPoint, approx_set: ApproxSet, x_max,
             fileobj) -> MinimalPointSequence:
    """The sequence a write_csv export of (target, S, x_max) holds.

    Only the exact columns i, x_0..x_n and normSq are read; X, L and the
    branch keys are recomputed from each point, so the result equals the
    enumerated sequence.  Every row must carry its own position as i, a
    canonical member of S, its true squared norm within x_max, and a norm
    above the row before; otherwise SchemaError names the file and the
    line.  Properties (b) and (c) are left to verify_properties and
    verify_minimality.
    """
    import csv

    x_max, norm_sq_max = _validate_x_max(x_max)
    approx_set.check_ambient(target.n + 1)
    name = getattr(fileobj, "name", "the minimal-point CSV")
    header = _csv_header(target.n)
    reader = csv.reader(fileobj)
    if next(reader, None) != header:
        raise SchemaError(f"{name}: the header is not {','.join(header)}")
    comparator = _Comparator(target)
    entries: list[MinimalPointEntry] = []
    for row in reader:
        where = f"{name} line {reader.line_num}"
        if len(row) != len(header):
            raise SchemaError(f"{where}: {len(row)} fields, expected {len(header)}")
        try:
            ints = [int(v) for v in row[:target.n + 3]]
        except ValueError:
            raise SchemaError(f"{where}: i, x_k and normSq must be integers") from None
        index, coords, ns = ints[0], tuple(ints[1:-1]), ints[-1]
        if index != len(entries):
            raise SchemaError(f"{where}: i = {index}, expected {len(entries)}")
        if not any(coords) or IntegerPoint.canonical(coords).coords != coords:
            raise SchemaError(f"{where}: {coords} is not a canonical nonzero point")
        if not approx_set.member(coords):
            raise SchemaError(f"{where}: {coords} is not a member of {approx_set!r}")
        if ns != sum(v * v for v in coords):
            raise SchemaError(f"{where}: normSq {ns} is not the squared norm of {coords}")
        if ns > norm_sq_max:
            raise SchemaError(f"{where}: normSq {ns} exceeds {norm_sq_max}, "
                              f"the bound of x_max = {x_max}")
        if entries and ns <= entries[-1].norm_sq:
            raise SchemaError(f"{where}: normSq {ns} does not exceed the previous "
                              f"row's {entries[-1].norm_sq}")
        entries.append(_entry(target, index, coords, ns, comparator.keys(coords)))
    return MinimalPointSequence(target, approx_set, x_max, entries, norm_sq_max)


# ---------------------------------------------------------------------------
# property re-verification (used by tests, the acceptance gate and
# `simra verify`)

def verify_properties(seq: MinimalPointSequence) -> None:
    """Re-check (a) and (b) on a computed sequence; raises PropertyViolated."""
    comparator = _Comparator(seq.target)
    for a, b in zip(seq.entries, seq.entries[1:]):
        if a.norm_sq >= b.norm_sq:
            raise PropertyViolated(
                f"norms must strictly increase: {b.point.coords} after {a.point.coords}")
        if comparator.compare(b.branch_keys, a.branch_keys,
                              b.point.coords, a.point.coords) >= 0:
            raise PropertyViolated(
                f"L values must strictly decrease: {b.point.coords} after "
                f"{a.point.coords}")


def verify_minimality(seq: MinimalPointSequence) -> int:
    """Property (c) and the start convention up to x_max; raises
    PropertyViolated.

    The points checked are the oracle stream (_oracle_points), unpruned:
    the smallest-norm group of S and every member of S in the plain
    windows sized by the start point, which provably contain every
    potential violator; S is asked only member.  A violator z has norm <
    X_{i+1} and L(z) < L_i for some i; since the L_i decrease, the binding
    comparison is against the first entry whose successor norm exceeds z
    (the L values only get smaller after it), and against the last entry
    for every z past it.  No member of S may be shorter than the first
    entry, which must beat, or tie and precede lexicographically, every
    member of its norm.  A point whose certified lower bound exceeds every
    entry's 64-bit upper bound, or the binding entry's, cannot be a
    violator (L(z) >= lower > L_i) and passes without a comparison; compare
    decides every other.  Returns the number of points checked below the
    last entry's norm, counting both kinds.
    """
    comparator = _Comparator(seq.target)
    if not seq.entries:
        raise PropertyViolated("the sequence has no entries")
    points = _oracle_points(comparator, seq.approx_set, seq.x_max, seq.norm_sq_max,
                            prune=False)

    first = seq.entries[0]
    last_ns = seq.entries[-1].norm_sq
    next_norms = [nxt.norm_sq for nxt in seq.entries[1:]]
    uppers = [comparator.upper(e.branch_keys, e.point.coords) for e in seq.entries]
    top = max(uppers)
    checked = 0
    for ns, c, low in points:
        if ns < first.norm_sq:
            raise PropertyViolated(
                f"point {c} of S is shorter than the start point {first.point.coords}")
        checked += ns < last_ns
        if low > top:
            continue
        i = bisect.bisect_right(next_norms, ns)
        if low > uppers[i]:
            continue
        e = seq.entries[i]
        cmp_ = comparator.compare(comparator.keys(c), e.branch_keys, c, e.point.coords)
        if cmp_ < 0:
            raise PropertyViolated(f"point {c} violates minimality of {e.point.coords}")
        if cmp_ == 0 and ns == first.norm_sq and c < first.point.coords:
            raise PropertyViolated(
                f"point {c} ties the start point {first.point.coords} in norm "
                "and L and precedes it lexicographically")
    return checked
