"""Coefficient fields F_{l^k} in a polynomial basis.

Elements are tuples of k ints in [0, l), little-endian over the
lexicographically smallest monic irreducible of degree k (degree 1 uses
X - 0, i.e. plain F_l).  Chosen over an algebraic closure so that every
structure constant, being the image of an integer, lands in the prime field.
"""

from __future__ import annotations

from .errors import NotAUnitError, SpecMismatchError, json_field
from .rings import is_prime, smallest_irreducible


class CoeffField:
    """F_{l^k}; elements are k-tuples of ints mod l."""

    def __init__(self, l, k=1):
        if not is_prime(l):
            raise SpecMismatchError(f"l = {l} is not prime")
        if k < 1:
            raise SpecMismatchError("k must be >= 1")
        self.l = l
        self.k = k
        # X^k = -(m_0 + m_1 X + ... + m_{k-1} X^{k-1})
        if k == 1:
            self.head = ((-0) % l,)
            self._min_low = (0,)
        else:
            self._min_low = smallest_irreducible(l, k)
            self.head = tuple((-c) % l for c in self._min_low)

    def __eq__(self, other):
        return isinstance(other, CoeffField) and (self.l, self.k) == (other.l, other.k)

    def __hash__(self):
        return hash(("coeff", self.l, self.k))

    def __repr__(self):
        return f"F_{self.l}^{self.k}" if self.k > 1 else f"F_{self.l}"

    def size(self):
        return self.l ** self.k

    def zero(self):
        return (0,) * self.k

    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def from_int(self, c):
        return (c % self.l,) + (0,) * (self.k - 1)

    def is_zero(self, a):
        return not any(a)

    def add(self, a, b):
        return tuple((x + y) % self.l for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.l for x in a)

    def sub(self, a, b):
        return tuple((x - y) % self.l for x, y in zip(a, b))

    def mul(self, a, b):
        l, k = self.l, self.k
        if k == 1:
            return ((a[0] * b[0]) % l,)
        conv = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] = (conv[i + j] + x * y) % l
        for i in range(2 * k - 2, k - 1, -1):
            c = conv[i]
            if c:
                for j in range(k):
                    conv[i - k + j] = (conv[i - k + j] + c * self.head[j]) % l
                conv[i] = 0
        return tuple(conv[:k])

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        out = self.one()
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, a):
        if self.is_zero(a):
            raise NotAUnitError("zero has no inverse")
        # a^(q-2) in the multiplicative group of order q-1
        return self.pow(a, self.size() - 2)

    def frobenius(self, a):
        """x -> x^l (order k)."""
        return self.pow(a, self.l)

    def inv_frobenius(self, a):
        """x -> x^(1/l) = x^(l^(k-1))."""
        return self.pow(a, self.l ** (self.k - 1))

    def elements(self):
        import itertools
        return itertools.product(range(self.l), repeat=self.k)

    def coords_json(self, a):
        return list(a)

    def coords_from_json(self, d):
        if isinstance(d, int):
            return self.from_int(d)
        a = tuple(json_field(c, int, "coefficient") % self.l
                  for c in json_field(d, list, "coefficient"))
        if len(a) != self.k:
            raise SpecMismatchError("coefficient coordinate length mismatch")
        return a
