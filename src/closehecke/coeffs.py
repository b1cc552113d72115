"""Coefficient fields F_{l^k} in a polynomial basis, and the one
polynomial toolkit of the library.

Elements are tuples of k ints in [0, l), little-endian over the
lexicographically smallest monic irreducible of degree k (degree 1 uses
X - 0, i.e. plain F_l).  Chosen over an algebraic closure so that every
structure constant, being the image of an integer, lands in the prime field.

Polynomials over a field or truncated ring F are dense little-endian lists
of F-elements with no trailing zero; F_p is ``CoeffField(p, 1)``, and
``poly_rem`` divides only by a polynomial whose leading coefficient is a
unit.  The Tate splitter, the rings' minimal polynomials, their products
over F_p[t]/t^N, Horner's rule (:func:`poly_eval`) and Newton's iteration
(``closehecke.rings.hensel_root``) all use these helpers;
:func:`poly_mulmod` is the one reduced product on int coordinates, behind
``CoeffField.mul`` and the extension rings over Z/p^N; and :func:`power` is
the one square-and-multiply behind every ``pow``.
"""

from __future__ import annotations

import functools
import itertools

from .errors import ConfigError, NotAUnitError, SpecMismatchError, json_field


def is_prime(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def power(mul, one, a, e):
    """a^e for e >= 0 by square-and-multiply under ``mul``, with no squaring
    after the top bit of e."""
    out = one
    while True:
        if e & 1:
            out = mul(out, a)
        e >>= 1
        if not e:
            return out
        a = mul(a, a)


# the largest |F| = l^k: inversion is a^(q-2) and the search for the
# minimal polynomial grows with l^k, so a larger field stalls a CLI call
MAX_FIELD_SIZE = 2 ** 16


def check_field_size(l, k):
    """Refuse a field of l^k > MAX_FIELD_SIZE elements; k >= 17 gives
    l^k > 2^16 for every l >= 2, so no l ** k is formed for a huge k."""
    if k >= MAX_FIELD_SIZE.bit_length() or l ** k > MAX_FIELD_SIZE:
        raise SpecMismatchError(f"|F| = {l}^{k} exceeds {MAX_FIELD_SIZE}")


class CoeffField:
    """F_{l^k}; elements are k-tuples of ints mod l."""

    def __init__(self, l, k=1):
        if k < 1:
            raise SpecMismatchError("k must be >= 1")
        check_field_size(l, k)
        if not is_prime(l):
            raise SpecMismatchError(f"l = {l} is not prime")
        self.l = l
        self.k = k
        if k > 1:
            # X^k = head(X) = -(m_0 + m_1 X + ... + m_{k-1} X^{k-1})
            self.head = tuple((-c) % l for c in smallest_irreducible(l, k))

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
        if self.k == 1:
            return ((a[0] * b[0]) % self.l,)
        return poly_mulmod(a, b, self.head, self.l)

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        return power(self.mul, self.one(), a, e)

    def inv(self, a):
        if self.is_zero(a):
            raise NotAUnitError("zero has no inverse")
        # a^(q-2) in the multiplicative group of order q-1
        return self.pow(a, self.size() - 2)

    def inv_frobenius(self, a):
        """x -> x^(1/l) = x^(l^(k-1))."""
        return self.pow(a, self.l ** (self.k - 1))

    def elements(self):
        return itertools.product(range(self.l), repeat=self.k)

    def coords_json(self, a):
        return list(a)

    def coords_from_json(self, d):
        """An element from an integer or a list of k integers."""
        if isinstance(d, int):  # json_field refuses a boolean
            return self.from_int(json_field(d, int, "coefficient"))
        if not isinstance(d, (list, tuple)):
            raise ConfigError(f"coefficient must be an integer or a list of integers, not {d!r}")
        a = tuple(json_field(c, int, "coefficient") % self.l for c in d)
        if len(a) != self.k:
            raise SpecMismatchError("coefficient coordinate length mismatch")
        return a


# ---------------------------------------------------------------------------
# reduced products on int coefficient vectors

def poly_mulmod(a, b, head, modulus):
    """a b in Z/modulus[X]/(X^d - head(X)) for d = len(head), on int
    coefficient vectors of length d: the full product, reduced by
    X^d = head(X) from the top degree down, taken mod ``modulus`` once."""
    d = len(head)
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                conv[i + j] += x * y
    for i in range(2 * d - 2, d - 1, -1):
        c = conv[i]
        if c:
            for j, h in enumerate(head):
                conv[i - d + j] += c * h
    return tuple(c % modulus for c in conv[:d])


# ---------------------------------------------------------------------------
# polynomials over a ring or CoeffField (dense little-endian lists)

def poly_trim(F, f):
    while f and F.is_zero(f[-1]):
        f.pop()
    return f


def poly_add(F, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else F.zero()
        b = g[i] if i < len(g) else F.zero()
        out.append(F.add(a, b))
    return poly_trim(F, out)


def poly_mul(F, f, g):
    if not f or not g:
        return []
    out = [F.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if F.is_zero(a):
            continue
        for j, b in enumerate(g):
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return poly_trim(F, out)


def poly_eval(F, f, x):
    """f(x) by Horner's rule."""
    acc = F.zero()
    for c in reversed(f):
        acc = F.add(F.mul(acc, x), c)
    return acc


def poly_rem(F, f, g):
    f = list(f)
    dg = len(g) - 1
    inv_lead = F.inv(g[-1])
    while f and len(f) - 1 >= dg:
        c = F.mul(f[-1], inv_lead)
        shift = len(f) - 1 - dg
        for i in range(len(g)):
            f[shift + i] = F.sub(f[shift + i], F.mul(c, g[i]))
        poly_trim(F, f)
    return f


def poly_gcd(F, f, g):
    """Monic gcd (empty for f = g = 0)."""
    f, g = list(f), list(g)
    while g:
        f, g = g, poly_rem(F, f, g)
    if f:
        inv_lead = F.inv(f[-1])
        f = [F.mul(inv_lead, c) for c in f]
    return f


def poly_powmod(F, f, e, g):
    """f^e modulo g."""
    return power(lambda a, b: poly_rem(F, poly_mul(F, a, b), g), [F.one()],
                 poly_rem(F, f, g), e)


def frobenius_gcd(F, f, i):
    """gcd(f, X^(q^i) - X) for q = |F|: the product of the distinct monic
    irreducible factors of f whose degree divides i."""
    t = poly_powmod(F, [F.zero(), F.one()], F.size() ** i, f)
    return poly_gcd(F, f, poly_add(F, t, [F.zero(), F.neg(F.one())]))


def is_irreducible(F, f):
    """Rabin's test for a monic f over F: f divides X^(q^d) - X, and
    gcd(f, X^(q^(d/r)) - X) = 1 for every prime r | d."""
    d = len(f) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    if len(frobenius_gcd(F, f, d)) != len(f):
        return False
    return all(len(frobenius_gcd(F, f, d // r)) == 1
               for r in range(2, d + 1) if d % r == 0 and is_prime(r))


@functools.cache
def smallest_irreducible(p, degree):
    """Lexicographically smallest monic irreducible of given degree over F_p
    with a nonzero constant term, as its low coefficients (c_0, ..., c_{d-1});
    the leading 1 is implicit.

    Candidates are ordered by the coefficient tuple read from the highest
    non-leading coefficient down to the constant term.
    """
    F = CoeffField(p, 1)
    for high in itertools.product(range(p), repeat=degree):
        # high = (c_{d-1}, ..., c_0)
        coeffs = list(reversed(high)) + [1]
        if coeffs[0] == 0:
            continue
        if is_irreducible(F, [F.from_int(c) for c in coeffs]):
            return tuple(coeffs[:-1])
    raise AssertionError("no irreducible polynomial found")
