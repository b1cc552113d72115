"""Integral matrices on raw coordinates, cocharacters, and the
precision-tracked scalars and matrices that the oracles keep.

Products run on integral n x n matrices given as rows of raw coordinates of
one truncated ring o/pi^N: exact in that ring, with N proven sufficient by
the caller (see ``HeckeAlgebra._basis_product``), so no entry carries a
precision of its own.  ``coord_mul`` is the one product, label rings
included; one unit-pivot elimination serves ``residue_invertible``, the
GL_n(o/pi) membership test, and ``unimodular_inverse``.

``FieldElement`` and ``GroupMatrix`` are the older layer: a nonzero scalar
is pi^v * u with u a unit known modulo pi^(v + prec), and zero a marker with
a recorded floor ("the value is O(pi^floor)").  Multiplication adds
valuations exactly; addition records any relative precision lost to
cancellation; ``certified_min`` refuses a pivot that a floor could undercut.
No library path computes with them any more: the test oracles do, and the
benchmark's tracer still counts their calls.
"""

from __future__ import annotations

import itertools

from .errors import (
    InsufficientPrecisionError,
    InvariantViolationError,
    NotAUnitError,
    SpecMismatchError,
)

INF = float("inf")


class FieldElement:
    __slots__ = ("ring", "v", "unit", "prec")

    def __init__(self, ring, v, unit, prec):
        # use the factories below; this stores pre-normalized data
        self.ring = ring
        self.v = v
        self.unit = unit
        self.prec = prec

    # -- factories ---------------------------------------------------------
    @staticmethod
    def zero(ring, floor=INF):
        return FieldElement(ring, floor, None, 0)

    @staticmethod
    def make(ring, v, coords, prec=None):
        """Normalize pi^v * coords with the unit part extracted."""
        prec = ring.pi_level if prec is None else min(prec, ring.pi_level)
        if prec <= 0:
            return FieldElement.zero(ring, v)
        c = ring.val(coords)
        if c >= prec:
            return FieldElement.zero(ring, v + prec)
        if c:
            coords = ring.div_pi(coords, c)
        return FieldElement(ring, v + c, coords, prec - c)

    @staticmethod
    def from_residue(ring, data, level):
        """Canonical lift of residue data given at pi-level ``level``."""
        return FieldElement.make(ring, 0, ring.lift_residue(data, level))

    @staticmethod
    def unif_power(ring, j, unit_coords=None):
        """pi^j (times a unit^j when a distinguished uniformizer is used)."""
        if unit_coords is None:
            return FieldElement(ring, j, ring.one(), ring.pi_level)
        return FieldElement.make(ring, j, ring.pow(unit_coords, j))

    # -- predicates --------------------------------------------------------
    def is_zero_marker(self):
        return self.unit is None

    def certified_val(self):
        """(valuation, exact) where exact=False means only a floor is known."""
        if self.unit is None:
            return (self.v, False)
        return (self.v, True)

    def abs_prec(self):
        return self.v if self.unit is None else self.v + self.prec

    # -- arithmetic --------------------------------------------------------
    def __neg__(self):
        if self.unit is None:
            return self
        return FieldElement(self.ring, self.v, self.ring.neg(self.unit), self.prec)

    def __add__(self, other):
        R = self.ring
        if R is not other.ring and R != other.ring:
            raise SpecMismatchError("field elements over different rings")
        if self.unit is None and other.unit is None:
            return FieldElement.zero(R, min(self.v, other.v))
        if self.unit is None or other.unit is None:
            z, x = (self, other) if self.unit is None else (other, self)
            floor = z.v
            if floor >= x.abs_prec():
                return x
            if floor <= x.v:
                return FieldElement.zero(R, floor)
            return FieldElement(R, x.v, x.unit, floor - x.v)
        v = min(self.v, other.v)
        coords = R.add(R.mul_pi(self.unit, self.v - v), R.mul_pi(other.unit, other.v - v))
        abs_prec = min(self.abs_prec(), other.abs_prec())
        return FieldElement.make(R, v, coords, abs_prec - v)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        R = self.ring
        if R is not other.ring and R != other.ring:
            raise SpecMismatchError("field elements over different rings")
        if self.unit is None or other.unit is None:
            return FieldElement.zero(R, self.v + other.v)
        return FieldElement(R, self.v + other.v, R.mul(self.unit, other.unit),
                            min(self.prec, other.prec))

    def inverse(self):
        if self.unit is None:
            if self.v == INF:
                raise NotAUnitError("exact zero is not invertible")
            raise InsufficientPrecisionError("cannot invert a value known only as a zero floor")
        return FieldElement(self.ring, -self.v, self.ring.inv(self.unit), self.prec)

    def times_pi(self, j):
        if self.unit is None:
            return FieldElement.zero(self.ring, self.v + j)
        return FieldElement(self.ring, self.v + j, self.unit, self.prec)

    # -- reductions --------------------------------------------------------
    def residue(self, level):
        """Canonical residue at pi-level ``level``; requires integrality and
        enough absolute precision."""
        R = self.ring
        if self.unit is None:
            if self.v >= level:
                return R.residue(R.zero(), level)
            raise InsufficientPrecisionError(
                f"zero floor {self.v} below requested level {level}")
        if self.v < 0:
            raise SpecMismatchError("negative valuation has no integral residue")
        if self.v >= level:
            return R.residue(R.zero(), level)
        if self.abs_prec() < level:
            raise InsufficientPrecisionError(
                f"absolute precision {self.abs_prec()} below level {level}")
        return R.residue(R.mul_pi(self.unit, self.v), level)

    def __repr__(self):
        if self.unit is None:
            return f"O(pi^{self.v})"
        return f"pi^{self.v}*{self.unit!r}(+O(pi^{self.v + self.prec}))"


def certified_min(cells):
    """(valuation, tag) of the first of the (element, tag) ``cells`` whose
    certified valuation is least: the one pivot rule of the library.  Raises
    InsufficientPrecisionError when no valuation is certified, or when a
    zero known only up to a floor could sit below the least one."""
    best = None
    floor_min = INF
    for x, tag in cells:
        v, exact = x.certified_val()
        if not exact:
            floor_min = min(floor_min, v)
        elif best is None or v < best[0]:
            best = (v, tag)
    if best is None:
        raise InsufficientPrecisionError("no certifiable valuation")
    if floor_min < best[0]:
        raise InsufficientPrecisionError(
            "a zero floor sits below the smallest certified valuation")
    return best


class GroupMatrix:
    """n x n matrix of field elements, invertible over the field."""

    __slots__ = ("ring", "n", "rows")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = tuple(tuple(r) for r in rows)
        self.n = len(self.rows)

    @staticmethod
    def identity(ring, n):
        one = FieldElement.make(ring, 0, ring.one())
        zero = FieldElement.zero(ring)
        return GroupMatrix(ring, [[one if i == j else zero for j in range(n)]
                                  for i in range(n)])

    @staticmethod
    def from_residue(ring, data, level):
        return GroupMatrix(ring, [[FieldElement.from_residue(ring, x, level)
                                   for x in row] for row in data])

    def __mul__(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise SpecMismatchError("matrices over different rings")
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                # an exact zero plus x is x, so the sum starts from the first product
                acc = self.rows[i][0] * other.rows[0][j]
                for k in range(1, n):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            rows.append(row)
        return GroupMatrix(self.ring, rows)

    def times_pi(self, j):
        return GroupMatrix(self.ring, [[x.times_pi(j) for x in row] for row in self.rows])

    def min_val(self):
        """Certified minimum entry valuation."""
        return certified_min((x, None) for row in self.rows for x in row)[0]

    def inverse(self):
        """Gauss-Jordan with min-valuation pivoting; exact at working precision."""
        R, n = self.ring, self.n
        a = [list(row) for row in self.rows]
        b = [list(row) for row in GroupMatrix.identity(R, n).rows]
        for col in range(n):
            piv_row = certified_min((a[i][col], i) for i in range(col, n))[1]
            if piv_row != col:
                a[col], a[piv_row] = a[piv_row], a[col]
                b[col], b[piv_row] = b[piv_row], b[col]
            inv_piv = a[col][col].inverse()
            a[col] = [inv_piv * x for x in a[col]]
            b[col] = [inv_piv * x for x in b[col]]
            for i in range(n):
                if i == col:
                    continue
                f = a[i][col]
                if f.is_zero_marker():
                    continue
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
                b[i] = [x - f * y for x, y in zip(b[i], b[col])]
        return GroupMatrix(R, b)

    def residue_matrix(self, level):
        return tuple(tuple(x.residue(level) for x in row) for row in self.rows)

    def __repr__(self):
        return f"GroupMatrix({self.rows!r})"


# ---------------------------------------------------------------------------
# Integral matrices on raw coordinates of one truncated ring

def coord_mul(ring, A, B):
    """A B for square coordinate matrices; a zero entry of A adds nothing,
    and a row starts from its first term, not from zero."""
    zero, mul, add = ring.zero(), ring.mul, ring.add
    rows = []
    for row in A:
        out = None
        for x, brow in zip(row, B):
            if x != zero:
                terms = [mul(x, b) for b in brow]
                out = terms if out is None else list(map(add, out, terms))
        rows.append(tuple(out) if out is not None else (zero,) * len(B[0]))
    return tuple(rows)


def _unit_pivot_eliminate(ring, rows, back):
    """Row-reduce the n ``rows`` in place on their first n columns, the
    first unit of each column from the diagonal down as pivot: its row
    scaled to 1 (it is zero left of the pivot) and its column cleared below,
    and above too when ``back``.  False when a column has no unit there:
    then the determinant vanishes modulo pi."""
    n = len(rows)
    one, zero, mul, sub = ring.one(), ring.zero(), ring.mul, ring.sub
    for k in range(n):
        piv = next((i for i in range(k, n) if ring.is_unit(rows[i][k])), None)
        if piv is None:
            return False
        rows[k], rows[piv] = rows[piv], rows[k]
        inv = ring.inv(rows[k][k])
        pivot_tail = [mul(inv, x) for x in rows[k][k + 1:]]
        rows[k] = rows[k][:k] + [one] + pivot_tail
        for i in range(0 if back else k + 1, n):
            f = rows[i][k]
            if i != k and f != zero:
                rows[i] = rows[i][:k] + [zero] + [sub(x, mul(f, y)) for x, y in
                                                  zip(rows[i][k + 1:], pivot_tail)]
    return True


def residue_invertible(ring, mat):
    """Whether the square matrix ``mat`` over the local ring ``ring`` lies in
    GL_n: the forward pass of the unit-pivot elimination."""
    return _unit_pivot_eliminate(ring, [list(row) for row in mat], back=False)


def unimodular_inverse(ring, A):
    """A^{-1} for A in GL_n(o), by the unit-pivot elimination of [A | I]:
    exact in the truncated ring, where the inverse is unique.  A matrix that
    is singular modulo pi raises."""
    n = len(A)
    one, zero = ring.one(), ring.zero()
    a = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(A)]
    if not _unit_pivot_eliminate(ring, a, back=True):
        raise InvariantViolationError(f"{A} is not invertible modulo pi")
    return tuple(tuple(row[n:]) for row in a)


# ---------------------------------------------------------------------------
# Cocharacters: non-decreasing integer tuples (anti-dominant for the upper
# triangular Borel of GL_n)

def check_antidominant(mu):
    mu = tuple(int(x) for x in mu)
    if any(mu[i] > mu[i + 1] for i in range(len(mu) - 1)):
        raise SpecMismatchError(f"{mu} is not anti-dominant (non-decreasing)")
    return mu


def spread(mu):
    return mu[-1] - mu[0] if mu else 0


def cochar_window(n, lo, hi, max_spread=None):
    """All non-decreasing n-tuples with entries in [lo, hi] and spread at
    most ``max_spread`` >= 0 (any spread when None), in lexicographic order.
    The bound applies while the tuples are generated, so a wide window of
    small spread costs only its members."""
    if n == 0:
        return [()]
    s = hi - lo if max_spread is None else max_spread
    return [(a,) + rest for a in range(lo, hi + 1)
            for rest in itertools.combinations_with_replacement(
                range(a, min(hi, a + s) + 1), n - 1)]
