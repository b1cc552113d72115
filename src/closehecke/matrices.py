"""Precision-tracked local-field scalars and GL_n matrices over them.

A nonzero scalar is pi^v * u with u a unit of the working truncated ring,
known modulo pi^(v + prec); zero is a marker with a recorded floor ("the
value is O(pi^floor)").  Multiplication adds valuations exactly; addition
records any relative precision lost to cancellation.  Every decision
(valuation, residue, pivot) is certified against the available precision
and raises InsufficientPrecisionError rather than guessing.
"""

from __future__ import annotations

from .errors import InsufficientPrecisionError, NotAUnitError, SpecMismatchError

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
    def diagonal(ring, entries):
        zero = FieldElement.zero(ring)
        n = len(entries)
        return GroupMatrix(ring, [[entries[i] if i == j else zero for j in range(n)]
                                  for i in range(n)])

    @staticmethod
    def unif_diagonal(ring, mu, unit_coords=None):
        """diag(pi^mu_1, ..., pi^mu_n) for the distinguished uniformizer."""
        return GroupMatrix.diagonal(
            ring, [FieldElement.unif_power(ring, m, unit_coords) for m in mu])

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
    """All non-decreasing n-tuples with entries in [lo, hi], optionally
    filtered by spread, in lexicographic order."""
    out = []

    def rec(prefix, floor):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(floor, hi + 1):
            rec(prefix + [v], v)

    rec([], lo)
    if max_spread is not None:
        out = [mu for mu in out if spread(mu) <= max_spread]
    return out
