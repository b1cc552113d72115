"""Truncated rings of integers of non-Archimedean local fields.

A local field enters only through its truncations o/p^N.  Two base models
are supported: ``mixed`` is Z/p^N (truncation of a p-adic field) and
``equal`` is F_p[t]/(t^N) (truncation of F_p((t))).  Degree-l extensions
are presented as quotients base[T]/(f) with f either a monic irreducible
lift (unramified) or T^l - w for a uniformizer class w (totally ramified).

Coordinate conventions
    mixed element   : int in [0, p^N)
    equal element   : tuple of N ints in [0, p), little-endian in t
    extension element: tuple of l base elements, little-endian in T

Ring objects operate on these raw coordinates, exactly in the truncation;
the callers prove the truncation level they need (see
``closehecke.hecke.HeckeAlgebra._basis_product``).
"""

from __future__ import annotations

import functools
import itertools

from .coeffs import CoeffField, is_irreducible, is_prime, power, smallest_irreducible
from .errors import (
    GaloisConditionError,
    InvariantViolationError,
    KindMismatchError,
    NotAUnitError,
    NotMCloseError,
    SamePrimeError,
    SideMismatchError,
    SpecMismatchError,
    json_field,
)

MIXED = "mixed"
EQUAL = "equal"
UNRAMIFIED = "unramified"
RAMIFIED = "ramified"


def _ceil_div(a, b):
    return -(-a // b)


# ---------------------------------------------------------------------------
# Rings on raw coordinates

class BaseRing:
    """Z/p^N or F_p[t]/(t^N) on raw coordinates."""

    def __init__(self, model, p, level):
        if model not in (MIXED, EQUAL):
            raise SpecMismatchError(f"unknown model {model!r}")
        if not is_prime(p):
            raise SpecMismatchError(f"p = {p} is not prime")
        if level < 1:
            raise SpecMismatchError("level must be >= 1")
        self.model = model
        self.p = p
        self.level = level
        self.pi_level = level
        if model == MIXED:
            self.modulus = p ** level
        self._one = self.from_int(1)
        self._inverses = {}   # unit -> its verified inverse

    # -- structural equality so rings can key caches; rings are shared, so
    # identity settles almost every comparison
    def __eq__(self, other):
        return self is other or (isinstance(other, BaseRing) and self.model == other.model
                                 and self.p == other.p and self.level == other.level)

    def __hash__(self):
        return hash((self.model, self.p, self.level))

    def to_json(self):
        return {"model": self.model, "p": self.p, "N": self.level}

    def __repr__(self):
        if self.model == MIXED:
            return f"Z/{self.p}^{self.level}"
        return f"F_{self.p}[t]/t^{self.level}"

    def size(self):
        return self.p ** self.level

    def zero(self):
        return 0 if self.model == MIXED else (0,) * self.level

    def one(self):
        return self._one

    def from_int(self, c):
        if self.model == MIXED:
            return c % self.modulus
        return ((c % self.p),) + (0,) * (self.level - 1)

    def add(self, a, b):
        if self.model == MIXED:
            return (a + b) % self.modulus
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        if self.model == MIXED:
            return (-a) % self.modulus
        return tuple((-x) % self.p for x in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.model == MIXED:
            return (a * b) % self.modulus
        level = self.level
        out = [0] * level
        for i, x in enumerate(a):
            if x:
                for j in range(level - i):
                    out[i + j] += x * b[j]
        p = self.p
        return tuple(c % p for c in out)

    def is_zero(self, a):
        return a == 0 if self.model == MIXED else not any(a)

    def val(self, a):
        """t/p-adic valuation; returns self.pi_level for zero."""
        if self.model == MIXED:
            if a == 0:
                return self.level
            v = 0
            while a % self.p == 0:
                a //= self.p
                v += 1
            return v
        for i, c in enumerate(a):
            if c:
                return i
        return self.level

    def is_unit(self, a):
        return self.val(a) == 0

    def _res_field_inv(self, a):
        """Inverse of the residue of a unit, lifted canonically."""
        return self.from_int(pow(self.res1_int(a), -1, self.p))

    def inv(self, a):
        v = self._inverses.get(a)
        if v is not None:
            return v
        if not self.is_unit(a):
            raise NotAUnitError(f"{a!r} is not a unit in {self!r}")
        if self.model == MIXED:
            return _verified_inverse(self, a, pow(a, -1, self.modulus), 0)
        return _verified_inverse(self, a, self._res_field_inv(a), self.level.bit_length() + 1)

    def pow(self, a, k):
        if k < 0:
            return self.pow(self.inv(a), -k)
        return power(self.mul, self.one(), a, k)

    def unif(self):
        """Natural uniformizer coordinates: p resp. t."""
        if self.model == MIXED:
            return self.p % self.modulus
        if self.level == 1:
            return (0,)
        return (0, 1) + (0,) * (self.level - 2)

    def mul_pi(self, a, j):
        if j == 0:
            return a
        if self.model == MIXED:
            return (a * self.p ** j) % self.modulus
        return (0,) * min(j, self.level) + a[: max(self.level - j, 0)]

    def div_pi(self, a, j):
        """Divide by the natural uniformizer^j; assumes val >= j."""
        if j == 0:
            return a
        if self.model == MIXED:
            if a % self.p ** j:
                raise InvariantViolationError(f"{a!r} is not divisible by p^{j}")
            return a // self.p ** j
        if any(a[:j]):
            raise InvariantViolationError(f"{a!r} is not divisible by t^{j}")
        return a[j:] + (0,) * j

    def residue(self, a, r):
        """Canonical residue data at level r <= level."""
        if r <= 0:
            return 0 if self.model == MIXED else ()
        if self.model == MIXED:
            return a % self.p ** r
        return a[:r]

    def lift_residue(self, data, r):
        """Canonical coordinates lifting residue data from level r."""
        if r <= 0:
            return self.zero()
        if self.model == MIXED:
            return data % self.modulus
        return tuple(data[:r]) + (0,) * (self.level - min(r, self.level)) if r < self.level \
            else tuple(data[: self.level])

    def res1_int(self, a):
        """Residue-field representative as an int in [0, p)."""
        if self.model == MIXED:
            return a % self.p
        return a[0]

    def elements(self):
        if self.model == MIXED:
            return iter(range(self.modulus))
        return itertools.product(range(self.p), repeat=self.level)

    def element(self, i):
        """The i-th member of ``elements()``, without listing the ring."""
        if self.model == MIXED:
            return i
        return tuple(i // self.p ** (self.level - 1 - j) % self.p for j in range(self.level))

    def coords_json(self, a):
        if self.model == MIXED:
            return a
        return list(a)

    def coords_from_json(self, d):
        if self.model == MIXED:
            return json_field(d, int, "coordinate") % self.modulus
        coords = tuple(json_field(c, int, "coordinate") % self.p
                       for c in json_field(d, list, "coordinate"))
        if len(coords) != self.level:
            raise SpecMismatchError("coordinate length mismatch")
        return coords


@functools.lru_cache(maxsize=None)
def _minimal_poly(p, l, coeffs):
    """The low-degree F_p coefficients of a monic irreducible f of degree l,
    leading 1 implicit: the smallest such f when ``coeffs`` is None, else
    ``coeffs`` reduced mod p and checked.  Memoized, because every ring of
    a side is built from the side's one polynomial."""
    if coeffs is None:
        return smallest_irreducible(p, l)
    coeffs = tuple(c % p for c in coeffs)
    F = CoeffField(p, 1)
    if len(coeffs) != l or not is_irreducible(F, [F.from_int(c) for c in coeffs + (1,)]):
        raise SpecMismatchError(f"minimalPoly is not irreducible of degree {l} mod p")
    return coeffs


class ExtensionRing:
    """base[T]/(f) with f monic irreducible (unramified) or T^l - w (ramified)."""

    def __init__(self, base_ring: BaseRing, kind, l, minimal_poly=None, unif_class=None):
        p = base_ring.p
        if not is_prime(l):
            raise SpecMismatchError(f"l = {l} is not prime")
        if l == p:
            raise SamePrimeError(f"l = p = {l}")
        self.base = base_ring
        self.kind = kind
        self.l = l
        self.p = p
        self.level = base_ring.level          # base truncation level
        if kind == UNRAMIFIED:
            self.minimal_poly = _minimal_poly(
                p, l, None if minimal_poly is None else tuple(minimal_poly))
            self.e = 1
            # T^l = -(f_0 + f_1 T + ... + f_{l-1} T^{l-1})
            self.head = tuple(base_ring.neg(base_ring.from_int(c)) for c in self.minimal_poly)
            self.w = None
        elif kind == RAMIFIED:
            if (p - 1) % l != 0:
                raise GaloisConditionError(f"l = {l} does not divide p - 1 = {p - 1}")
            # T^l = w, the distinguished uniformizer class of the base field.
            # At base level 1 the class is 0 and T-division cannot recover the
            # top coordinate; the canonical lift 0 is used there.
            if unif_class is None:
                raise SpecMismatchError("ramified ring needs a uniformizer class")
            self.minimal_poly = None
            self.e = l
            self.w = unif_class
            if not base_ring.is_zero(unif_class) and base_ring.val(unif_class) == 1:
                self.w_unit_inv = base_ring.inv(base_ring.div_pi(unif_class, 1))
            else:
                self.w_unit_inv = None
            self.head = None
        else:
            raise SpecMismatchError(f"unknown extension kind {kind!r}")
        self.pi_level = base_ring.level * self.e
        # Over Z/p^N the convolution runs on plain ints, reduced once
        self._int_coords = base_ring.model == MIXED
        self._one = (base_ring.one(),) + (base_ring.zero(),) * (l - 1)
        self._inverses = {}   # unit -> its verified inverse

    def __eq__(self, other):
        return self is other or (
            isinstance(other, ExtensionRing) and self.kind == other.kind
            and self.l == other.l and self.minimal_poly == other.minimal_poly
            and self.base == other.base and self.w == other.w)

    def __hash__(self):
        return hash((self.kind, self.l, self.minimal_poly, self.base, self.w))

    def to_json(self):
        d = self.base.to_json()
        ext = {"kind": self.kind, "l": self.l}
        if self.minimal_poly is not None:
            ext["minimalPoly"] = list(self.minimal_poly) + [1]
        d["ext"] = ext
        return d

    def __repr__(self):
        rel = f"T^{self.l}-pi" if self.kind == RAMIFIED else "f(T)"
        return f"{self.base!r}[T]/({rel})"

    def size(self):
        return self.base.size() ** self.l

    def zero(self):
        return (self.base.zero(),) * self.l

    def one(self):
        return self._one

    def from_int(self, c):
        return (self.base.from_int(c),) + (self.base.zero(),) * (self.l - 1)

    def embed(self, a):
        """Embed a base-ring element."""
        return (a,) + (self.base.zero(),) * (self.l - 1)

    def gen(self):
        """The class of T."""
        z, o = self.base.zero(), self.base.one()
        return (z, o) + (z,) * (self.l - 2)

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def sub(self, a, b):
        return tuple(self.base.sub(x, y) for x, y in zip(a, b))

    def mul(self, a, b):
        B, l = self.base, self.l
        if self._int_coords:
            conv = [0] * (2 * l - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        conv[i + j] += x * y
            if self.kind == RAMIFIED:
                w = self.w
                for i in range(l - 1):
                    conv[i] += conv[i + l] * w
            else:
                head = self.head
                for i in range(2 * l - 2, l - 1, -1):
                    c = conv[i]
                    if c:
                        for j in range(l):
                            conv[i - l + j] += c * head[j]
            M = B.modulus
            return tuple(c % M for c in conv[:l])
        conv = [B.zero()] * (2 * l - 1)
        for i, x in enumerate(a):
            if not B.is_zero(x):
                for j, y in enumerate(b):
                    conv[i + j] = B.add(conv[i + j], B.mul(x, y))
        for i in range(2 * l - 2, l - 1, -1):
            c = conv[i]
            if B.is_zero(c):
                continue
            if self.kind == RAMIFIED:
                conv[i - l] = B.add(conv[i - l], B.mul(c, self.w))
            else:
                for j in range(l):
                    conv[i - l + j] = B.add(conv[i - l + j], B.mul(c, self.head[j]))
            conv[i] = B.zero()
        return tuple(conv[:l])

    def is_zero(self, a):
        return all(self.base.is_zero(x) for x in a)

    def val(self, a):
        """Valuation in the natural uniformizer of the extension."""
        if self.kind == UNRAMIFIED:
            return min(self.base.val(x) for x in a)
        best = self.pi_level
        for i, x in enumerate(a):
            bv = self.base.val(x)
            if bv < self.base.level:
                best = min(best, self.e * bv + i)
        return best

    def is_unit(self, a):
        return self.val(a) == 0

    def _res_field_inv(self, a):
        """An element congruent to the inverse of the unit a modulo pi."""
        if self.kind == RAMIFIED:
            return self.from_int(pow(self.base.res1_int(a[0]), -1, self.p))
        # the residue field is F_q with q = p^l, so a^(q-1) = 1 mod pi
        return self.pow(a, self.p ** self.l - 2)

    def inv(self, a):
        v = self._inverses.get(a)
        if v is not None:
            return v
        if not self.is_unit(a):
            raise NotAUnitError("not a unit in extension ring")
        return _verified_inverse(self, a, self._res_field_inv(a),
                                 self.pi_level.bit_length() + 2)

    def pow(self, a, k):
        if k < 0:
            return self.pow(self.inv(a), -k)
        return power(self.mul, self.one(), a, k)

    def mul_pi(self, a, j):
        if self.kind == UNRAMIFIED:
            return tuple(self.base.mul_pi(x, j) for x in a)
        out = a
        for _ in range(j):
            out = (self.base.mul(out[-1], self.w),) + out[:-1]
        return out

    def div_pi(self, a, j):
        if self.kind == UNRAMIFIED:
            return tuple(self.base.div_pi(x, j) for x in a)
        out = a
        for _ in range(j):
            if self.w_unit_inv is None:
                head = self.base.zero()
            else:
                head = self.base.div_pi(self.base.mul(out[0], self.w_unit_inv), 1)
            out = out[1:] + (head,)
        return out

    def coord_res_levels(self, r):
        """Base residue level of each T-coordinate at extension level r."""
        if self.kind == UNRAMIFIED:
            return tuple(r for _ in range(self.l))
        return tuple(max(0, _ceil_div(r - i, self.l)) for i in range(self.l))

    def residue(self, a, r):
        lv = self.coord_res_levels(r)
        return tuple(self.base.residue(x, k) for x, k in zip(a, lv))

    def lift_residue(self, data, r):
        lv = self.coord_res_levels(r)
        return tuple(self.base.lift_residue(d, k) for d, k in zip(data, lv))

    def elements(self):
        return itertools.product(self.base.elements(), repeat=self.l)

    def element(self, i):
        """The i-th member of ``elements()``, without listing the ring."""
        q = self.base.size()
        return tuple(self.base.element(i // q ** (self.l - 1 - j) % q) for j in range(self.l))

    def coords_json(self, a):
        return [self.base.coords_json(x) for x in a]

    def coords_from_json(self, d):
        if len(json_field(d, list, "coordinate")) != self.l:
            raise SpecMismatchError("coordinate length mismatch")
        return tuple(self.base.coords_from_json(x) for x in d)


def _verified_inverse(ring, a, v, steps):
    """Inverse of the unit ``a`` from a residue-level inverse ``v``, by at
    most ``steps`` Newton steps v <- v (2 - a v).  Only a ``v`` with
    a v = 1 exactly enters the ring's memo, which later ``inv(a)`` calls
    return unchecked."""
    one, two = ring.one(), ring.from_int(2)
    av = ring.mul(a, v)
    for _ in range(steps):
        if av == one:
            break
        v = ring.mul(v, ring.sub(two, av))
        av = ring.mul(a, v)
    if av != one:
        raise InvariantViolationError(f"inverse of {a!r} in {ring!r} failed its check")
    ring._inverses[a] = v
    return v


# ---------------------------------------------------------------------------
# Hensel lifting and roots of unity

def hensel_root(ring, coeffs, x):
    """The root of the polynomial with little-endian coefficients ``coeffs``
    (ring elements) that is congruent to ``x`` modulo pi, by Newton's
    iteration; the derivative must be a unit at x."""
    deriv = [ring.mul(ring.from_int(j), c) for j, c in enumerate(coeffs)][1:]

    def value(poly, y):
        acc = ring.zero()
        for c in reversed(poly):
            acc = ring.add(ring.mul(acc, y), c)
        return acc

    for _ in range(ring.pi_level.bit_length() + 2):
        fx = value(coeffs, x)
        if ring.is_zero(fx):
            return x
        x = ring.sub(x, ring.mul(fx, ring.inv(value(deriv, x))))
    if not ring.is_zero(value(coeffs, x)):
        raise InvariantViolationError(f"Newton's iteration in {ring!r} ended off a root")
    return x


def hensel_root_of_unity(ring, l, residue_root):
    """Unique l-th root of unity in ``ring`` congruent to residue_root mod pi,
    the root of X^l - 1; requires l a unit in the ring."""
    coeffs = [ring.neg(ring.one())] + [ring.zero()] * (l - 1) + [ring.one()]
    return hensel_root(ring, coeffs, ring.from_int(residue_root))


def primitive_root_residue(p, l):
    """Smallest c in [2, p) with c^l = 1 mod p and c != 1."""
    if (p - 1) % l != 0:
        raise GaloisConditionError(f"l = {l} does not divide p - 1 = {p - 1}")
    for c in range(2, p):
        if pow(c, l, p) == 1:
            return c
    raise AssertionError("unreachable: mu_l is cyclic of order l | p - 1")


# ---------------------------------------------------------------------------
# Ring isomorphisms (the closeness data)

class RingIso:
    """Bijective ring homomorphism between two truncated rings.

    For base rings the action is determined by the image of the natural
    uniformizer (a valuation-one polynomial formula); for extension rings it
    acts coefficientwise through the base iso with T mapped to T.
    """

    def __init__(self, domain, codomain, apply_fn, inverse_fn, descriptor):
        self.domain = domain
        self.codomain = codomain
        self._apply = apply_fn
        self._inverse = inverse_fn
        self.descriptor = descriptor

    def apply(self, coords):
        return self._apply(coords)

    def inverse(self):
        return RingIso(self.codomain, self.domain, self._inverse, self._apply,
                       {"inverse_of": self.descriptor})

    def to_json(self):
        return dict(self.descriptor)


def _subst_formula(ring, image_coeffs):
    """Coordinates of sum_j c_j pi^j in ``ring`` from F_p coefficients
    (little-endian, c_0 first), Horner in the natural uniformizer."""
    acc = ring.zero()
    for c in reversed(image_coeffs):
        acc = ring.add(ring.mul_pi(acc, 1), ring.from_int(c))
    return acc


def _equal_substitution(dom, cod, image_coeffs):
    """x(t) -> x(phi) with phi = sum_{j>=1} c_j t^j given by image_coeffs
    (c_1 first).  The map is F_p-linear in the coordinates, so x(phi) is the
    sum of x_i phi^i with the powers phi^i taken once: additions of
    coordinate vectors only.  phi = t leaves the coordinates as they are."""
    phi = cod.mul_pi(_subst_formula(cod, image_coeffs), 1)
    if phi == cod.mul_pi(cod.one(), 1):
        return lambda coords: coords
    powers, power = [], cod.one()
    for _ in range(dom.level):
        powers.append([(j, c) for j, c in enumerate(power) if c])
        power = cod.mul(power, phi)
    p, level = cod.p, cod.level

    def apply(coords):
        out = [0] * level
        for x, power in zip(coords, powers):
            if x:
                for j, c in power:
                    out[j] += x * c
        return tuple(c % p for c in out)

    return apply


def _revert_series(ring, image_coeffs):
    """Compositional inverse of phi = sum_{j>=1} c_j t^j in the equal ring
    F_p[t]/t^m, returned in the same c_1-first convention.  Solves
    psi(phi(t)) = t degree by degree; correcting psi at degree k moves the
    composite by c_1^k t^k plus higher order."""
    p, m = ring.p, ring.level
    fwd = _equal_substitution(ring, ring, image_coeffs)
    inv_c1 = pow(image_coeffs[0], -1, p)
    psi = [inv_c1] + [0] * (m - 2)
    for k in range(2, m):
        composite = fwd(tuple([0] + psi)[:m] + (0,) * max(0, m - 1 - len(psi)))
        err = ring.sub(composite, ring.unif())
        if any(err[:k]):
            raise InvariantViolationError(f"series reversion drifted below degree {k}")
        psi[k - 1] = (-err[k] * pow(inv_c1, k, p)) % p
    return tuple(psi)


def build_lambda(dom: BaseRing, cod: BaseRing, unif_image=None) -> RingIso:
    """Level-m closeness isomorphism between two base truncations o/p^m:
    the residue map at m = 1, and at m >= 2, between equal truncations only,
    t -> phi(t) with ``unif_image`` the F_p coefficients (c_1, c_2, ...) of
    phi, default the identity.  Any other pair raises NotMCloseError.
    """
    if dom.p != cod.p:
        raise NotMCloseError("different residue characteristics")
    if dom.level != cod.level:
        raise SpecMismatchError("truncations at different levels")
    m = dom.level
    desc = {"p": dom.p, "m": m, "from": dom.model, "to": cod.model}
    if m == 1:
        # any uniformizer image is invisible at m = 1 (the t-class is 0)
        return RingIso(dom, cod, lambda a: cod.from_int(dom.res1_int(a)),
                       lambda a: dom.from_int(cod.res1_int(a)), desc)
    if (dom.model, cod.model) != (EQUAL, EQUAL):
        raise NotMCloseError(f"o/p^{m} closeness needs two equal truncations, "
                             f"not {dom.model}/{cod.model}")
    image = tuple(int(c) % dom.p for c in (unif_image or (1,)))
    if not image or image[0] % dom.p == 0:
        raise SpecMismatchError("uniformizer image must have valuation exactly 1")
    desc["unifImage"] = list(image)
    fwd = _equal_substitution(dom, cod, image)
    bwd = _equal_substitution(cod, dom, _revert_series(dom, image))
    return RingIso(dom, cod, fwd, bwd, desc)


def build_pi(lam: RingIso, E: ExtensionRing, Ep: ExtensionRing) -> RingIso:
    """Extension-level isomorphism induced by a base iso: coefficientwise
    lambda with T mapped to T."""
    if E.kind != Ep.kind or E.l != Ep.l:
        raise KindMismatchError("extensions have different kind or degree")
    if E.base != lam.domain or Ep.base != lam.codomain:
        raise SpecMismatchError("extensions not built over the iso's rings")
    if E.kind == RAMIFIED and lam.apply(E.w) != Ep.w:
        raise SpecMismatchError("uniformizer classes do not correspond")
    if E.kind == UNRAMIFIED:
        img = tuple(lam.apply(E.base.neg(h)) for h in E.head)
        exp = tuple(Ep.base.neg(h) for h in Ep.head)
        if img != exp:
            raise SpecMismatchError("minimal polynomials do not correspond")

    def fwd(coords, _l=lam):
        return tuple(_l.apply(x) for x in coords)

    lam_inv = lam.inverse()

    def bwd(coords, _l=lam_inv):
        return tuple(_l.apply(x) for x in coords)

    return RingIso(E, Ep, fwd, bwd, {"ext": True, "base": lam.descriptor})


# ---------------------------------------------------------------------------
# Galois generators

class GaloisGenerator:
    """Order-l ring automorphism of an extension ring fixing the base; the
    ring's kind chooses it.

    Unramified: the canonical Frobenius lift (T goes to the root of the
    minimal polynomial congruent to T^p mod pi).  Ramified: T goes to
    zeta_l T for the l-th root of unity lifting ``primitive_root_residue``.
    """

    def __init__(self, ring: ExtensionRing):
        self.ring = ring
        self.l = ring.l
        if ring.kind == RAMIFIED:
            self.zeta = hensel_root_of_unity(ring.base, ring.l,
                                             primitive_root_residue(ring.p, ring.l))
            self.gen_image = ring.mul(ring.embed(self.zeta), ring.gen())
        else:
            self.zeta = None
            self.gen_image = self._frobenius_gen_image()
        self._powers = [self.ring.one(), self.gen_image]
        for i in range(2, self.l):
            self._powers.append(ring.mul(self._powers[-1], self.gen_image))

    def _frobenius_gen_image(self):
        ring = self.ring
        s = ring.pow(ring.gen(), ring.p)
        if ring.base.model == EQUAL:
            return s
        # the root of the minimal polynomial congruent to T^p mod p (the mixed
        # model has p-th powers only at the residue level)
        f = [ring.embed(ring.base.from_int(c)) for c in ring.minimal_poly]
        return hensel_root(ring, f + [ring.one()], s)

    def apply_coords(self, coords):
        ring = self.ring
        out = ring.zero()
        for i, x in enumerate(coords):
            if not ring.base.is_zero(x):
                out = ring.add(out, ring.mul(ring.embed(x), self._powers[i]))
        return out


# ---------------------------------------------------------------------------
# Sides: one local field of a close pair or extension tower

class LocalFieldSide:
    """A local field known only through its truncations.

    The distinguished uniformizer is stored as an exact formula
    w = (w_0, w_1, ...) of F_p coefficients, meaning pi_dist = pi_nat * w(pi_nat);
    the formula instantiates at every working level, so closeness data fixed
    at level m never needs to be deepened.
    """

    def __init__(self, name, model=None, p=None, m=None, unif_unit=(1,),
                 base_side=None, kind=None, l=None):
        self.name = name
        self.base_side = base_side
        self._rings = {}
        self._sigmas = {}
        if base_side is None:
            self.is_ext = False
            self.model = model
            self.p = p
            self.base_level_m = m
            self.e = 1
            self.residue_degree = 1
            self.m = m
            self.kind = None
            self.l = None
            self.unif_unit = tuple(unif_unit)
            if self.unif_unit[0] % p == 0:
                raise SpecMismatchError("uniformizer unit part must be a unit")
        else:
            self.is_ext = True
            self.model = base_side.model
            self.p = base_side.p
            self.kind = kind
            self.l = l
            self.base_level_m = base_side.m
            # the level-m ring checks the degree and kind
            ring = self.ring(base_side.m)
            self.e = ring.e
            self.residue_degree = l // ring.e
            self.m = ring.pi_level

    def __repr__(self):
        return f"<side {self.name}>"

    def ring(self, base_level):
        """Ring of this side truncated at the given base level (memoized)."""
        if base_level in self._rings:
            return self._rings[base_level]
        if not self.is_ext:
            r = BaseRing(self.model, self.p, base_level)
        else:
            base_ring = self.base_side.ring(base_level)
            w = self.base_side.unif_class(base_ring) if self.kind == RAMIFIED else None
            r = ExtensionRing(base_ring, self.kind, self.l, unif_class=w)
        self._rings[base_level] = r
        return r

    def unif_unit_coords(self, ring):
        """Unit w with pi_dist = pi_nat * w, in the given ring of this side."""
        if not self.is_ext:
            return _subst_formula(ring, self.unif_unit)
        if self.kind == RAMIFIED:
            return ring.one()
        return ring.embed(self.base_side.unif_unit_coords(ring.base))

    def unif_class(self, ring):
        """Distinguished uniformizer class in the given ring of this side."""
        return ring.mul_pi(self.unif_unit_coords(ring), 1)

    def sigma(self, base_level) -> GaloisGenerator:
        """Matched Galois generator at a working level (extensions only)."""
        if not self.is_ext:
            raise SideMismatchError(f"base field {self.name} carries no Galois generator")
        if base_level not in self._sigmas:
            self._sigmas[base_level] = GaloisGenerator(self.ring(base_level))
        return self._sigmas[base_level]

    def to_json(self):
        d = self.ring(self.base_level_m).to_json()
        d["name"] = self.name
        d["m"] = self.m
        if not self.is_ext and self.unif_unit != (1,):
            d["unifUnit"] = list(self.unif_unit)
        if self.is_ext:
            d["e"] = self.e
            if self.kind == RAMIFIED:
                d["ext"]["zetaResidue"] = primitive_root_residue(self.p, self.l)
        return d


def base_side(name, model, p, m, unif_unit=(1,)) -> LocalFieldSide:
    return LocalFieldSide(name, model=model, p=p, m=m, unif_unit=unif_unit)


def extension_side(name, base, kind, l) -> LocalFieldSide:
    return LocalFieldSide(name, base_side=base, kind=kind, l=l)
