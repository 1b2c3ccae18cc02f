"""Targets, approximation sets, and the approximation-error functional.

A target is a point xi = (xi_0, ..., xi_n) of certified reals with xi_0 != 0;
the error of a nonzero integer point x against it is

    L(x) = max_{1 <= k <= n} |xi_0 x_k - xi_k x_0|.

Approximation sets restrict which integer points compete: the full lattice,
congruence conditions on individual coordinates, or an explicit sublattice.
A target is a plain value; the scaled-integer view the enumerator compares
with is built in minpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence, Union

from . import rigorous, subspaces
from .errors import AmbientMismatch, DomainError, SchemaError, ZeroPoint
from .rigorous import RigorousReal


@dataclass(frozen=True)
class IntegerPoint:
    """A canonical nonzero integer vector: first nonzero coordinate positive."""

    coords: tuple[int, ...]
    norm_sq: int

    @classmethod
    def canonical(cls, coords: Iterable[int]) -> "IntegerPoint":
        c = tuple(int(v) for v in coords)
        if all(v == 0 for v in c):
            raise ZeroPoint("the zero vector has no canonical form")
        for v in c:
            if v != 0:
                if v < 0:
                    c = tuple(-w for w in c)
                break
        return cls(c, sum(v * v for v in c))

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> int:
        return self.coords[i]


class ApproxSet:
    """Base class for the sets of integer points allowed to approximate: a
    product of per-coordinate conditions allowed(index, value), unless a
    subclass overrides member and box_members.  x0_progression names an
    arithmetic progression that holds the x_0 of every member, so that a
    scan over x_0 may skip the rest; the base class gives every integer."""

    def allowed(self, index: int, value: int) -> bool:
        return True

    def x0_progression(self) -> tuple[int, int]:
        """(offset, step): every member has x_0 = offset (mod step)."""
        return 0, 1

    def member(self, coords: Sequence[int]) -> bool:
        return all(self.allowed(i, v) for i, v in enumerate(coords))

    def check_ambient(self, dim: int) -> None:
        """DomainError unless S is a set of points of Z^dim."""

    def box_members(self, x0: int, windows: Sequence[tuple[int, int]]
                    ) -> Iterator[tuple[int, ...]]:
        """Every member (x0, x_1, ..., x_n) with each x_k in windows[k-1],
        a closed range [lo, hi] (empty when lo > hi), each once, in
        lexicographic order: the product of each coordinate's allowed values."""
        if not self.allowed(0, x0):
            return
        axes = [(x0,)]
        for k, (lo, hi) in enumerate(windows, 1):
            axis = [v for v in range(lo, hi + 1) if self.allowed(k, v)]
            if not axis:
                return
            axes.append(axis)
        yield from product(*axes)


class FullLattice(ApproxSet):
    def member(self, coords: Sequence[int]) -> bool:
        return True

    def __repr__(self):
        return "FullLattice()"


class CongruenceSet(ApproxSet):
    """Points whose listed coordinates lie in given residue classes mod m."""

    def __init__(self, modulus: int, residues: Mapping[int, Iterable[int]]):
        if modulus < 2:
            raise DomainError("congruence modulus must be >= 2")
        self.modulus = int(modulus)
        self.residues: dict[int, frozenset[int]] = {}
        for idx, rs in residues.items():
            rset = frozenset(int(r) % self.modulus for r in rs)
            if not rset:
                raise DomainError(f"empty residue list for coordinate {idx}")
            self.residues[int(idx)] = rset

    def allowed(self, index: int, value: int) -> bool:
        rs = self.residues.get(index)
        return rs is None or (value % self.modulus) in rs

    def x0_progression(self) -> tuple[int, int]:
        """The step is gcd(m, r - r_0 for the x_0 residues r)."""
        rs = self.residues.get(0)
        if rs is None:
            return 0, 1
        r0 = min(rs)
        step = math.gcd(self.modulus, *(r - r0 for r in rs))
        return r0 % step, step

    def check_ambient(self, dim: int) -> None:
        for k in self.residues:
            if not 0 <= k < dim:
                raise DomainError(f"residue index {k} of {self!r} is outside 0..{dim - 1}")

    def __repr__(self):
        return f"CongruenceSet(mod {self.modulus}, {dict(self.residues)})"


class Sublattice(ApproxSet):
    """The integer span of an explicit full-column-rank basis."""

    def __init__(self, basis: Sequence[Sequence[int]]):
        if not all(isinstance(v, int) for row in basis for v in row):
            raise DomainError("sublattice basis entries must be integers")
        vecs = [tuple(row) for row in basis]
        if not vecs:
            raise DomainError("sublattice basis must be nonempty")
        dim = len(vecs[0])
        if any(len(v) != dim for v in vecs):
            raise AmbientMismatch("sublattice basis vectors differ in length")
        self.basis = tuple(vecs)
        self.ambient = dim
        # (pivot column, row) of the Hermite form: echelon, positive pivots;
        # a dependent basis leaves a zero row
        self._echelon = []
        for row in subspaces._row_hnf([list(v) for v in vecs]):
            if not any(row):
                raise DomainError("sublattice basis vectors must be linearly independent")
            self._echelon.append((next(j for j, v in enumerate(row) if v), tuple(row)))

    def member(self, coords: Sequence[int]) -> bool:
        """Peel the echelon rows off coords: each pivot entry must be a
        multiple of the pivot, and nothing may be left over."""
        if len(coords) != self.ambient:
            raise AmbientMismatch(
                f"point has dimension {len(coords)}, lattice ambient is {self.ambient}"
            )
        acc = list(coords)
        col = 0
        for p, row in self._echelon:
            if any(acc[col:p]):
                return False
            c, r = divmod(acc[p], row[p])
            if r:
                return False
            acc = [a - c * b for a, b in zip(acc, row)]
            col = p + 1
        return not any(acc[col:])

    def x0_progression(self) -> tuple[int, int]:
        """(0, d) when the first Hermite row has its pivot d in column 0:
        the other rows are 0 there."""
        p, row = self._echelon[0]
        return (0, row[0]) if p == 0 else (0, 1)

    def check_ambient(self, dim: int) -> None:
        if self.ambient != dim:
            raise DomainError(f"{self!r} has ambient dimension {self.ambient}, not {dim}")

    def box_members(self, x0: int, windows: Sequence[tuple[int, int]]
                    ) -> Iterator[tuple[int, ...]]:
        """The members in the box, from the echelon basis column by column:
        a pivot column admits one residue class of values (its row's
        coefficient), any other column the one value the rows above fix."""
        box = [(x0, x0), *windows]
        if len(box) != self.ambient:
            raise AmbientMismatch(
                f"box has dimension {len(box)}, lattice ambient is {self.ambient}")
        rows = self._echelon

        def walk(t: int, acc: list[int], col: int):
            # columns before col lie in the box; rows t.. only change columns
            # from their pivots on
            stop = rows[t][0] if t < len(rows) else len(box)
            for j in range(col, stop):
                lo, hi = box[j]
                if not lo <= acc[j] <= hi:
                    return
            if t == len(rows):
                yield tuple(acc)
                return
            p, row = rows[t]
            lo, hi = box[p]
            d = row[p]
            for c in range(-((acc[p] - lo) // d), (hi - acc[p]) // d + 1):
                yield from walk(t + 1, [a + c * b for a, b in zip(acc, row)], p + 1)

        yield from walk(0, [0] * len(box), 0)

    def __repr__(self):
        return f"Sublattice({[list(v) for v in self.basis]})"


class TargetPoint:
    """A certified-real target (xi_0, ..., xi_n), xi_0 != 0: a plain value,
    whose slots hold only coords and n.

    Linear independence of the coordinates over Q is asserted by the caller,
    not verified; enumeration detects violations opportunistically.
    """

    __slots__ = ("coords", "n")

    def __init__(self, coords: Sequence[RigorousReal]):
        coords = tuple(coords)
        if len(coords) < 2:
            raise DomainError("a target needs at least two coordinates")
        if rigorous.sign(coords[0]) in (0, None):
            raise DomainError("xi_0 must be certified nonzero")
        self.coords = coords
        self.n = len(coords) - 1

    def __repr__(self):
        return f"TargetPoint(n={self.n}, ~{[float(c) for c in self.coords]})"


def l_value(target: TargetPoint,
            point: Union[IntegerPoint, Sequence[int]]) -> RigorousReal:
    """Enclosure of max_k |xi_0 x_k - xi_k x_0| for a nonzero integer point."""
    coords = point.coords if isinstance(point, IntegerPoint) else tuple(int(v) for v in point)
    if len(coords) != target.n + 1:
        raise AmbientMismatch(
            f"point has {len(coords)} coordinates, target has {target.n + 1}"
        )
    if all(v == 0 for v in coords):
        raise ZeroPoint("L is undefined at the zero vector")
    xi0 = target.coords[0]
    x0 = coords[0]
    branches = [abs(xi0 * coords[k] - target.coords[k] * x0)
                for k in range(1, target.n + 1)]
    return rigorous.maximum(*branches)


# ---------------------------------------------------------------------------
# configuration documents

def _coord_from_doc(doc) -> RigorousReal:
    if not isinstance(doc, dict) or "type" not in doc:
        raise SchemaError(f"coordinate must be an object with a 'type': {doc!r}")
    t = doc["type"]
    if t == "rational":
        if "value" not in doc:
            raise SchemaError("rational coordinate needs 'value'")
        try:
            return rigorous.rational(Fraction(str(doc["value"])))
        except (ValueError, ZeroDivisionError) as e:
            raise SchemaError(f"bad rational {doc['value']!r}: {e}") from None
    if t == "decimal":
        if "value" not in doc:
            raise SchemaError("decimal coordinate needs 'value'")
        try:
            return rigorous.decimal_literal(str(doc["value"]))
        except (ValueError, DomainError) as e:
            raise SchemaError(f"bad decimal {doc['value']!r}: {e}") from None
    if t == "algebraic":
        if "minpoly" not in doc or "interval" not in doc:
            raise SchemaError("algebraic coordinate needs 'minpoly' and 'interval'")
        coeffs = doc["minpoly"]
        if (not isinstance(coeffs, list) or len(coeffs) < 2
                or not all(isinstance(c, int) for c in coeffs)):
            raise SchemaError("'minpoly' must be a list of >= 2 integers, low degree first")
        iv = doc["interval"]
        if not isinstance(iv, list) or len(iv) != 2:
            raise SchemaError("'interval' must be [lo, hi]")
        try:
            lo, hi = Fraction(str(iv[0])), Fraction(str(iv[1]))
        except (ValueError, ZeroDivisionError) as e:
            raise SchemaError(f"bad interval endpoint: {e}") from None
        return rigorous.algebraic_root(coeffs, (lo, hi))
    if t == "expr":
        if "op" not in doc or "args" not in doc:
            raise SchemaError("expr coordinate needs 'op' and 'args'")
        op = doc["op"]
        if op not in ("+", "-", "*", "/"):
            raise SchemaError(f"expr op must be one of + - * /, got {op!r}")
        args = doc["args"]
        if not isinstance(args, list) or len(args) < 2:
            raise SchemaError("expr needs at least two args")
        vals = [_coord_from_doc(a) for a in args]
        acc = vals[0]
        for v in vals[1:]:
            if op == "+":
                acc = acc + v
            elif op == "-":
                acc = acc - v
            elif op == "*":
                acc = acc * v
            else:
                acc = acc / v
        return acc
    raise SchemaError(f"unknown coordinate type {t!r}")


def _approx_set_from_doc(doc) -> ApproxSet:
    if doc is None:
        return FullLattice()
    if not isinstance(doc, dict) or "type" not in doc:
        raise SchemaError("'S' must be an object with a 'type'")
    t = doc["type"]
    if t == "full":
        return FullLattice()
    if t == "congruence":
        if "modulus" not in doc or "residues" not in doc:
            raise SchemaError("congruence set needs 'modulus' and 'residues'")
        if not isinstance(doc["modulus"], int):
            raise SchemaError("'modulus' must be an integer")
        res = doc["residues"]
        if not isinstance(res, dict):
            raise SchemaError("'residues' must map coordinate index to residue list")
        try:
            residues = {int(k): v for k, v in res.items()}
        except ValueError as e:
            raise SchemaError(f"bad residues: {e}") from None
        for k, v in residues.items():
            if not isinstance(v, list) or not all(isinstance(r, int) for r in v):
                raise SchemaError(f"residues of coordinate {k} must be a list of integers")
        try:
            return CongruenceSet(doc["modulus"], residues)
        except DomainError as e:
            raise SchemaError(str(e)) from None
    if t == "sublattice":
        basis = doc.get("basis")
        if not isinstance(basis, list) or not all(isinstance(row, list) for row in basis):
            raise SchemaError("sublattice set needs a 'basis' list of integer lists")
        try:
            return Sublattice(basis)
        except (DomainError, AmbientMismatch) as e:
            raise SchemaError(str(e)) from None
    raise SchemaError(f"unknown approximation-set type {t!r}")


def load_target(doc: dict) -> tuple[TargetPoint, ApproxSet]:
    """Build (target, approximation set) from a configuration document."""
    if not isinstance(doc, dict):
        raise SchemaError("configuration must be a JSON object")
    if "n" not in doc or not isinstance(doc["n"], int) or doc["n"] < 1:
        raise SchemaError("'n' must be an integer >= 1")
    if "coords" not in doc or not isinstance(doc["coords"], list):
        raise SchemaError("'coords' must be a list")
    coords_doc = doc["coords"]
    if len(coords_doc) != doc["n"] + 1:
        raise SchemaError(
            f"expected {doc['n'] + 1} coordinates for n={doc['n']}, got {len(coords_doc)}"
        )
    coords = [_coord_from_doc(c) for c in coords_doc]
    # an enclosure is computed at its first read: read each coordinate here,
    # so a faulty expression (a division by zero) fails as the document loads
    for c in coords:
        c.lo
    # the document's own faults are SchemaErrors; any other DomainError (an
    # undecidable sign of xi_0, a bad precision cap) passes through
    if rigorous.sign(coords[0]) == 0:
        raise SchemaError("xi_0 is zero")
    approx = _approx_set_from_doc(doc.get("S"))
    try:
        approx.check_ambient(len(coords))
    except DomainError as e:
        raise SchemaError(str(e)) from None
    return TargetPoint(coords), approx
