"""Truncated rings of integers of non-Archimedean local fields.

A local field enters only through its truncations o/p^N.  Two base models
are supported: ``mixed`` is Z/p^N (truncation of a p-adic field) and
``equal`` is F_p[t]/(t^N) (truncation of F_p((t))).  Degree-l extensions
are presented as quotients base[T]/(f) with f either a monic irreducible
lift (unramified) or T^l - w for a uniformizer class w (totally ramified);
each ring carries its ramification index e and residue degree f as data.

A side (``LocalFieldSide``) is a ring family with its e and f, the unit of
its distinguished uniformizer and an optional Galois generator sigma, which
alone checks the Galois conditions.

Coordinate conventions
    mixed element   : int in [0, p^N)
    equal element   : tuple of N ints in [0, p), little-endian in t
    extension element: tuple of l base elements, little-endian in T

Ring objects operate on these raw coordinates, exactly in the truncation;
the callers prove the truncation level they need (see
``closehecke.hecke.HeckeAlgebra._basis_product``).  Extension products,
Horner evaluation and the Newton iteration take their polynomial arithmetic
from ``closehecke.coeffs``; only ``BaseRing.mul`` keeps its own truncated
product on F_p[t]/t^N, which never forms the half it would discard.

Memo tables
    A ring with at most ``TABLE_BOUND`` elements answers ``mul``, ``add``
    and ``sub`` from tables keyed by the operand pair, and its Galois
    generator answers ``apply_coords`` from a table keyed by the element.
    The tables start empty and fill as pairs are met, so each holds at most
    size^2 (resp. size) entries; a larger ring keeps no table.  A table is
    exact: every element has one canonical coordinate tuple, so equal keys
    are equal elements, and results are immutable ints and tuples.  Each
    table is an instance attribute wrapping the method bound when the ring
    (or generator) is built, so it shadows the class's function: a
    class-level patch of ``mul``, ``add``, ``sub`` or ``apply_coords`` made
    after a small ring is built does not reach that ring.  ``inv``,
    ``_res_field_inv`` and the other methods are not tabulated, so class
    patches of them reach every ring.
"""

from __future__ import annotations

import functools
import itertools

from .coeffs import (
    check_field_size,
    is_prime,
    poly_eval,
    poly_mul,
    poly_mulmod,
    power,
    smallest_irreducible,
)
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


TABLE_BOUND = 1024   # rings of at most this many elements keep memo tables


def _tabulate(owner, size, names):
    """Shadow the methods ``names`` of ``owner`` by memo tables of their
    bound methods when ``size`` is at most TABLE_BOUND."""
    if size <= TABLE_BOUND:
        for name in names:
            setattr(owner, name, functools.cache(getattr(owner, name)))


# ---------------------------------------------------------------------------
# Rings on raw coordinates

class BaseRing:
    """Z/p^N or F_p[t]/(t^N) on raw coordinates."""

    e = f = 1          # ramification index and residue degree over Q_p or F_p((t))

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
        _tabulate(self, self.size(), ("mul", "add", "sub"))

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
            return 0 if j >= self.level else (a * self.p ** j) % self.modulus
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


class ExtensionRing:
    """base[T]/(f) with f the smallest monic irreducible of degree l over F_p
    (unramified: e = 1, f = l) or T^l - w (ramified: e = l, f = 1); ``head``
    holds T^l as a polynomial of degree < l in T.  No Galois condition is
    asked of l: ``GaloisGenerator`` checks them, so e may be any l >= 2."""

    def __init__(self, base_ring: BaseRing, kind, l, *, unif_class=None):
        p = base_ring.p
        self.base = base_ring
        self.kind = kind
        self.l = l
        self.p = p
        self.level = base_ring.level          # base truncation level
        self.minimal_poly = self.w = self.w_unit_inv = None
        if kind == UNRAMIFIED:
            check_field_size(p, l)  # F_{p^l} under CoeffField's bound, before the search
            self.minimal_poly = smallest_irreducible(p, l)
            # T^l = -(f_0 + f_1 T + ... + f_{l-1} T^{l-1})
            self.head = tuple(base_ring.neg(base_ring.from_int(c)) for c in self.minimal_poly)
        elif kind == RAMIFIED:
            # T^l = w, the distinguished uniformizer class of the base field.
            # At base level 1 the class is 0 and T-division cannot recover the
            # top coordinate; the canonical lift 0 is used there.
            if unif_class is None:
                raise SpecMismatchError("ramified ring needs a uniformizer class")
            self.w = unif_class
            if not base_ring.is_zero(unif_class) and base_ring.val(unif_class) == 1:
                self.w_unit_inv = base_ring.inv(base_ring.div_pi(unif_class, 1))
            self.head = (unif_class,) + (base_ring.zero(),) * (l - 1)
        else:
            raise SpecMismatchError(f"unknown extension kind {kind!r}")
        # e, and the valuation of T: a unit (unramified) or a uniformizer
        self.e, self.t_val = (l, 1) if kind == RAMIFIED else (1, 0)
        self.f = l // self.e
        self.pi_level = base_ring.level * self.e
        # the nonzero terms of head, which reduce products over F_p[t]/t^N
        self._head_terms = [(j, h) for j, h in enumerate(self.head) if not base_ring.is_zero(h)]
        self._key = (kind, base_ring, self.head)
        self._one = (base_ring.one(),) + (base_ring.zero(),) * (l - 1)
        self._inverses = {}   # unit -> its verified inverse
        _tabulate(self, self.size(), ("mul", "add", "sub"))

    def __eq__(self, other):
        return self is other or (isinstance(other, ExtensionRing) and self._key == other._key)

    def __hash__(self):
        return hash(self._key)

    def to_json(self):
        ext = {"kind": self.kind, "l": self.l}
        if self.minimal_poly is not None:
            ext["minimalPoly"] = list(self.minimal_poly) + [1]
        return {**self.base.to_json(), "e": self.e, "ext": ext}

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
        B = self.base
        if B.model == MIXED:
            return poly_mulmod(a, b, self.head, B.modulus)
        # reduce by the nonzero terms of T^l = head(T), top degree down
        l, conv = self.l, poly_mul(B, a, b)
        for i in range(len(conv) - 1, l - 1, -1):
            c = conv[i]
            if not B.is_zero(c):
                for j, h in self._head_terms:
                    conv[i - l + j] = B.add(conv[i - l + j], B.mul(c, h))
        return tuple(conv[:l]) + (B.zero(),) * (l - len(conv))

    def is_zero(self, a):
        return all(self.base.is_zero(x) for x in a)

    def val(self, a):
        """Valuation in the natural uniformizer: min of e val(x_i) + i val(T)."""
        base, e, t_val, level = self.base, self.e, self.t_val, self.level
        best = self.pi_level
        for i, x in enumerate(a):
            bv = base.val(x)
            if bv < level:
                v = e * bv + i * t_val
                if v < best:
                    best = v
        return best

    def is_unit(self, a):
        return self.val(a) == 0

    def _res_field_inv(self, a):
        """An element congruent to the inverse of the unit a modulo pi: the
        residue field is F_q with q = p^f, so a^(q-1) = 1 mod pi."""
        return self.pow(a, self.p ** self.f - 2)

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
        for _ in range(min(j, self.pi_level)):      # T^pi_level = w^level = 0
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
        return tuple(max(0, -(-(r - i * self.t_val) // self.e)) for i in range(self.l))

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
    for _ in range(ring.pi_level.bit_length() + 2):
        fx = poly_eval(ring, coeffs, x)
        if ring.is_zero(fx):
            return x
        x = ring.sub(x, ring.mul(fx, ring.inv(poly_eval(ring, deriv, x))))
    if not ring.is_zero(poly_eval(ring, coeffs, x)):
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
    """Coordinates of sum_j c_j pi^j in the base ring ``ring`` from F_p
    coefficients (little-endian, c_0 first), Horner in the natural
    uniformizer."""
    return poly_eval(ring, [ring.from_int(c) for c in image_coeffs], ring.unif())


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
    """Compositional inverse psi of phi = sum_{j>=1} c_j t^j in the equal
    ring F_p[t]/t^m, returned in the same c_1-first convention: the root of
    phi(X) - t congruent to 0 mod t, where phi' = c_1 + ... is a unit, so
    ``hensel_root`` finds it and certifies phi(psi) = t."""
    coeffs = [ring.neg(ring.unif())] + [ring.from_int(c) for c in image_coeffs]
    return hensel_root(ring, coeffs, ring.zero())[1:]


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
    if tuple(lam.apply(h) for h in E.head) != Ep.head:
        raise SpecMismatchError("the relations T^l = head(T) do not correspond")

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
    Only here are the Galois conditions checked: l prime, l != p, and
    l | p - 1 for a ramified ring (by ``primitive_root_residue``).
    """

    def __init__(self, ring: ExtensionRing):
        l, p = ring.l, ring.p
        if not is_prime(l):
            raise SpecMismatchError(f"l = {l} is not prime")
        if l == p:
            raise SamePrimeError(f"l = p = {l}")
        self.ring = ring
        self.l = l
        if ring.kind == RAMIFIED:
            self.zeta = hensel_root_of_unity(ring.base, l, primitive_root_residue(p, l))
            self.gen_image = ring.mul(ring.embed(self.zeta), ring.gen())
        else:
            self.zeta = None
            self.gen_image = self._frobenius_gen_image()
        _tabulate(self, ring.size(), ("apply_coords",))

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
        """sigma(sum_i x_i T^i) = sum_i x_i sigma(T)^i, by Horner at sigma(T)."""
        ring = self.ring
        return poly_eval(ring, [ring.embed(x) for x in coords], self.gen_image)

    def to_json(self):
        return {} if self.zeta is None else {"zetaResidue": self.ring.base.res1_int(self.zeta)}


# ---------------------------------------------------------------------------
# Sides: one local field of a close pair or extension tower

class LocalFieldSide:
    """A local field known only through its truncations, as data: the ring
    family ``rings`` (base level -> ring), the unit rule ``unit`` (ring ->
    w with pi_dist = pi_nat * w), the fields ``doc`` that its document adds
    to its ring's, and ``base_side``, the fixed field of its Galois
    generator sigma (None: no sigma).  p, e, the residue degree f and the
    level m in pi-units are read off the ring at base level ``level``.
    Only ``base_side`` and ``extension_side`` know which kind they build.
    """

    def __init__(self, name, rings, unit, level, doc=(), base_side=None):
        self.name = name
        self.unif_unit_coords = unit
        self.base_level_m = level
        self.base_side = base_side
        self.ring = functools.cache(rings)      # base level -> ring, memoized
        self._doc = dict(doc)
        self._sigmas = {}
        ring = self.ring(level)
        self.p, self.e, self.residue_degree, self.m = ring.p, ring.e, ring.f, ring.pi_level

    def __repr__(self):
        return f"<side {self.name}>"

    def unif_class(self, ring):
        """Distinguished uniformizer class in the given ring of this side."""
        return ring.mul_pi(self.unif_unit_coords(ring), 1)

    def sigma(self, base_level) -> GaloisGenerator:
        """Matched Galois generator at a working level (extensions only)."""
        if self.base_side is None:
            raise SideMismatchError(f"base field {self.name} carries no Galois generator")
        if base_level not in self._sigmas:
            self._sigmas[base_level] = GaloisGenerator(self.ring(base_level))
        return self._sigmas[base_level]

    def to_json(self):
        d = self.ring(self.base_level_m).to_json()
        d.update(self._doc, name=self.name, m=self.m)
        if self.base_side is not None:
            d["ext"].update(self.sigma(self.base_level_m).to_json())
        return d


def base_side(name, model, p, m, unif_unit=(1,)) -> LocalFieldSide:
    """Z/p^m or F_p[t]/t^m.  The unit w of the distinguished uniformizer is
    the exact formula w(pi_nat) with F_p coefficients ``unif_unit``: it
    instantiates at every level, so closeness data fixed at level m never
    needs to be deepened."""
    unit = tuple(unif_unit)
    if unit[0] % p == 0:
        raise SpecMismatchError("uniformizer unit part must be a unit")
    return LocalFieldSide(name, lambda level: BaseRing(model, p, level),
                          lambda ring: _subst_formula(ring, unit), m,
                          doc={"unifUnit": list(unit)} if unit != (1,) else {})


def extension_side(name, base, kind, l) -> LocalFieldSide:
    """The degree-l extension of ``base``.  Ramified, T^l is the base's
    distinguished uniformizer, so T is E's; unramified, E keeps the base's."""
    def rings(level):
        base_ring = base.ring(level)
        w = base.unif_class(base_ring) if kind == RAMIFIED else None
        return ExtensionRing(base_ring, kind, l, unif_class=w)

    def unit(ring):
        return ring.one() if kind == RAMIFIED else ring.embed(base.unif_unit_coords(ring.base))
    return LocalFieldSide(name, rings, unit, base.m, base_side=base)
