import itertools
import random

import pytest

from closehecke.coeffs import smallest_irreducible
from closehecke.errors import (
    GaloisConditionError,
    InvariantViolationError,
    NotAUnitError,
    NotMCloseError,
    SamePrimeError,
    SpecMismatchError,
)
from closehecke.rings import (
    EQUAL,
    MIXED,
    RAMIFIED,
    TABLE_BOUND,
    UNRAMIFIED,
    BaseRing,
    ExtensionRing,
    GaloisGenerator,
    base_side,
    build_lambda,
    build_pi,
    extension_side,
    hensel_root_of_unity,
    primitive_root_residue,
)

from helpers import check_ring_hom, schoolbook_ext_mul, truncated_poly_mul


def test_mixed_arithmetic_z8():
    R = BaseRing(MIXED, 2, 3)
    assert R.mul(5, 5) == 1
    assert R.add(3, 7) == 2
    assert R.sub(3, 7) == 4


def test_equal_char2_square():
    R = BaseRing(EQUAL, 2, 2)
    assert R.mul((1, 1), (1, 1)) == (1, 0)


def test_ramified_defining_relation():
    B = BaseRing(EQUAL, 3, 2)
    E = ExtensionRing(B, RAMIFIED, 2, unif_class=B.unif())
    T = E.gen()
    assert E.mul(T, T) == E.embed(B.unif())


def test_inv_unit_and_error():
    R = BaseRing(MIXED, 3, 3)
    assert R.mul(5, R.inv(5)) == 1
    with pytest.raises(NotAUnitError):
        R.inv(3)


def test_ring_axioms_sampled():
    for R in [BaseRing(MIXED, 3, 2), BaseRing(EQUAL, 2, 3)]:
        els = list(R.elements())
        for a in els:
            for b in els:
                assert R.add(a, b) == R.add(b, a)
                assert R.mul(a, b) == R.mul(b, a)
                assert R.mul(a, R.add(b, R.one())) == R.add(R.mul(a, b), a)


# -- closeness isomorphisms ---------------------------------------------------

def test_lambda_mixed_equal_m1():
    lam = build_lambda(BaseRing(MIXED, 2, 1), BaseRing(EQUAL, 2, 1))
    assert lam.apply(1) == (1,)
    check_ring_hom(lam)


def test_lambda_characteristic_obstruction():
    with pytest.raises(NotMCloseError):
        build_lambda(BaseRing(MIXED, 3, 2), BaseRing(EQUAL, 3, 2))


@pytest.mark.parametrize("dom, cod", [(MIXED, MIXED), (EQUAL, MIXED)])
def test_lambda_is_built_for_equal_equal_only_beyond_level_one(dom, cod):
    with pytest.raises(NotMCloseError):
        build_lambda(BaseRing(dom, 3, 2), BaseRing(cod, 3, 2))
    build_lambda(BaseRing(dom, 3, 1), BaseRing(cod, 3, 1))


def test_element_by_index_is_the_sorted_ring():
    rings = [BaseRing(MIXED, 3, 2), BaseRing(EQUAL, 2, 3), BaseRing(EQUAL, 3, 2)]
    rings += [ExtensionRing(BaseRing(EQUAL, 2, 2), UNRAMIFIED, 3),
              ExtensionRing(BaseRing(MIXED, 3, 2), UNRAMIFIED, 2),
              ExtensionRing(BaseRing(MIXED, 3, 2), RAMIFIED, 2, unif_class=3),
              ExtensionRing(BaseRing(EQUAL, 3, 1), RAMIFIED, 2, unif_class=(0,))]
    for R in rings:
        assert [R.element(i) for i in range(R.size())] == sorted(R.elements())


def test_lambda_equal_equal_m2_exhaustive():
    lam = build_lambda(BaseRing(EQUAL, 3, 2), BaseRing(EQUAL, 3, 2), unif_image=(2,))
    check_ring_hom(lam)
    # t maps to the distinguished uniformizer class 2t'
    assert lam.apply(lam.domain.unif()) == (0, 2)


def test_lambda_reversion_deeper_level():
    lam = build_lambda(BaseRing(EQUAL, 2, 4), BaseRing(EQUAL, 2, 4), unif_image=(1, 1))
    check_ring_hom(lam)


def _horner_substitution(ring, image_coeffs, coords):
    """x(phi) for phi = sum_{j>=1} c_j t^j by Horner's rule with full ring
    products: phi built as t (c_1 + t (c_2 + ...)), then
    x_0 + phi (x_1 + phi (x_2 + ...))."""
    phi = ring.zero()
    for c in reversed(image_coeffs):
        phi = ring.add(ring.mul(phi, ring.unif()), ring.from_int(c))
    phi = ring.mul(phi, ring.unif())
    acc = ring.zero()
    for x in reversed(coords):
        acc = ring.add(ring.mul(acc, phi), ring.from_int(x))
    return acc


@pytest.mark.parametrize("p, level, image", [
    (2, 4, (1, 1)), (2, 5, (1, 0, 1)), (2, 3, (1,)), (2, 4, (1, 0, 0)),
    (3, 3, (2,)), (3, 4, (1, 2)), (3, 3, (2, 1, 1))])
def test_lambda_matches_horner_substitution_on_every_element(p, level, image):
    # lambda is F_p-linear, so it adds precomputed powers of phi; Horner's
    # rule with full products is the oracle, and the inverse undoes it
    R = BaseRing(EQUAL, p, level)
    lam = build_lambda(R, R, unif_image=image)
    inv = lam.inverse()
    for x in R.elements():
        y = lam.apply(x)
        assert y == _horner_substitution(R, image, x)
        assert inv.apply(y) == x


# -- extensions ----------------------------------------------------------------

def test_unramified_minimal_poly_choice():
    E = ExtensionRing(BaseRing(EQUAL, 2, 1), UNRAMIFIED, 3)
    assert E.minimal_poly == (1, 1, 0)  # T^3 + T + 1
    assert E.e == 1
    assert smallest_irreducible(3, 2) == (1, 0)  # T^2 + 1 over F_3


@pytest.mark.parametrize("build, error", [
    (lambda: BaseRing("adic", 3, 1), SpecMismatchError),
    (lambda: BaseRing(EQUAL, 4, 1), SpecMismatchError),
    (lambda: BaseRing(MIXED, 3, 0), SpecMismatchError),
    (lambda: ExtensionRing(BaseRing(EQUAL, 3, 1), "wild", 2), SpecMismatchError),
    (lambda: ExtensionRing(BaseRing(EQUAL, 3, 1), RAMIFIED, 2), SpecMismatchError),
    # the residue field F_{p^l} over the coefficient-field bound, refused
    # before the search for its minimal polynomial
    (lambda: ExtensionRing(BaseRing(EQUAL, 2, 1), UNRAMIFIED, 257), SpecMismatchError),
    (lambda: ExtensionRing(BaseRing(MIXED, 3, 1), UNRAMIFIED, 11), SpecMismatchError),
], ids=["unknown-model", "p-not-prime", "level-zero", "unknown-kind",
        "ramified-without-uniformizer", "unramified-2^257", "unramified-3^11"])
def test_bad_ring_parameters_raise_typed_errors(build, error):
    with pytest.raises(error) as info:
        build()
    assert info.type is error


def test_unramified_is_field_at_level_one():
    F8 = ExtensionRing(BaseRing(EQUAL, 2, 1), UNRAMIFIED, 3)
    nonzero = [a for a in F8.elements() if not F8.is_zero(a)]
    assert len(nonzero) == 7
    for a in nonzero:
        assert F8.mul(a, F8.inv(a)) == F8.one()


def test_ramified_nilpotency_index():
    # at base precision N the extension models precision l*N: T^(lN) = 0,
    # T^(lN-1) != 0
    side = extension_side("E", base_side("F", EQUAL, 3, 2), RAMIFIED, 2)
    R = side.ring(2)
    assert R.is_zero(R.mul_pi(R.one(), 4))
    assert not R.is_zero(R.mul_pi(R.one(), 3))


def test_a_shift_past_the_precision_is_zero_without_forming_it():
    # pi^j for j at or past the pi-level is 0: neither p^j nor j single
    # shifts of T are formed, so a huge j answers at once
    ram = extension_side("E", base_side("F", MIXED, 3, 1), RAMIFIED, 2).ring(2)
    for R in (BaseRing(MIXED, 3, 2), BaseRing(EQUAL, 3, 2), ram):
        one = R.one()
        assert R.mul_pi(one, R.pi_level) == R.mul_pi(one, 10 ** 12) == R.zero()
        assert not R.is_zero(R.mul_pi(one, R.pi_level - 1))


def test_ramified_residue_levels_roundtrip():
    side = extension_side("E", base_side("F", EQUAL, 3, 2), RAMIFIED, 2)
    R = side.ring(2)
    for r in range(R.pi_level + 1):
        for a in itertools.islice(R.elements(), 40):
            res = R.residue(a, r)
            assert R.residue(R.lift_residue(res, r), r) == res


# -- Pi and Galois generators ----------------------------------------------------

def test_ramified_spec_and_errors():
    # the ring needs no Galois condition: its sigma checks them
    B = BaseRing(EQUAL, 3, 1)
    R = ExtensionRing(B, RAMIFIED, 2, unif_class=B.unif())
    assert (R.e, R.f) == (2, 1)
    assert GaloisGenerator(R).l == 2
    with pytest.raises(GaloisConditionError):
        GaloisGenerator(ExtensionRing(BaseRing(EQUAL, 2, 1), RAMIFIED, 3, unif_class=(0,)))
    with pytest.raises(SamePrimeError):
        GaloisGenerator(ExtensionRing(B, UNRAMIFIED, 3))


@pytest.mark.parametrize("ring, error", [
    (lambda: ExtensionRing(BaseRing(EQUAL, 3, 1), UNRAMIFIED, 4), SpecMismatchError),
    (lambda: ExtensionRing(BaseRing(MIXED, 3, 1), UNRAMIFIED, 3), SamePrimeError),
    (lambda: ExtensionRing(BaseRing(EQUAL, 5, 1), RAMIFIED, 3, unif_class=(0,)),
     GaloisConditionError),
], ids=["l-not-prime", "l-equals-p", "ramified-l-not-dividing-p-1"])
def test_bad_galois_parameters_raise_typed_errors(ring, error):
    # each ring builds; the Galois generator refuses it
    R = ring()
    with pytest.raises(error) as info:
        GaloisGenerator(R)
    assert info.type is error


@pytest.fixture(scope="module")
def ramified_tower():
    F = base_side("F", MIXED, 3, 1)
    Fp = base_side("F'", EQUAL, 3, 1)
    E = extension_side("E", F, RAMIFIED, 2)
    Ep = extension_side("E'", Fp, RAMIFIED, 2)
    lam = build_lambda(F.ring(1), Fp.ring(1))
    return F, Fp, E, Ep, lam


@pytest.fixture(scope="module")
def unramified_tower():
    F = base_side("F", MIXED, 2, 1)
    Fp = base_side("F'", EQUAL, 2, 1)
    E = extension_side("E", F, UNRAMIFIED, 3)
    Ep = extension_side("E'", Fp, UNRAMIFIED, 3)
    lam = build_lambda(F.ring(1), Fp.ring(1))
    return F, Fp, E, Ep, lam


def test_pi_unramified_exhaustive(unramified_tower):
    F, Fp, E, Ep, lam = unramified_tower
    pi = build_pi(lam, E.ring(1), Ep.ring(1))
    check_ring_hom(pi)  # all 64 products included
    # commuting square with inclusions
    for x in F.ring(1).elements():
        assert pi.apply(E.ring(1).embed(x)) == Ep.ring(1).embed(lam.apply(x))


def test_pi_ramified_formula(ramified_tower):
    F, Fp, E, Ep, lam = ramified_tower
    RE, REp = E.ring(1), Ep.ring(1)
    pi = build_pi(lam, RE, REp)
    check_ring_hom(pi)
    # Pi(x + y T) = lambda(x) + lambda(y) T
    for x in F.ring(1).elements():
        for y in F.ring(1).elements():
            a = (x, y)
            assert pi.apply(a) == (lam.apply(x), lam.apply(y))
    # distinguished class preservation
    assert pi.apply(E.unif_class(RE)) == Ep.unif_class(REp)


def test_sigma_frobenius_f8(unramified_tower):
    _, _, E, _, _ = unramified_tower
    R = E.ring(1)
    sig = E.sigma(1)
    for a in R.elements():
        assert sig.apply_coords(a) == R.pow(a, 2)
        x = a
        for _ in range(3):
            x = sig.apply_coords(x)
        assert x == a


def test_sigma_ramified_minus_one(ramified_tower):
    _, _, E, _, _ = ramified_tower
    R = E.ring(2)
    sig = E.sigma(2)
    T = R.gen()
    assert sig.apply_coords(T) == R.neg(T)
    for a in [R.from_int(4), R.embed(E.base_side.ring(2).from_int(7))]:
        assert sig.apply_coords(a) == a  # fixes the base
        assert sig.apply_coords(sig.apply_coords(a)) == a
    # T^2 - w is preserved
    w = R.embed(E.base_side.unif_class(E.base_side.ring(2)))
    sT = sig.apply_coords(T)
    assert R.sub(R.mul(sT, sT), w) == R.sub(R.mul(T, T), w)


def test_sigma_fixes_base_uniformizer(ramified_tower):
    _, _, E, _, _ = ramified_tower
    R = E.ring(2)
    sig = E.sigma(2)
    w = R.embed(E.base_side.unif_class(E.base_side.ring(2)))
    assert sig.apply_coords(w) == w


def test_fixed_subring_equals_base(unramified_tower, ramified_tower):
    for tower in (unramified_tower, ramified_tower):
        _, _, E, _, _ = tower
        R = E.ring(1)
        sig = E.sigma(1)
        fixed = sorted(a for a in R.elements() if sig.apply_coords(a) == a)
        base_img = sorted(R.embed(x) for x in E.base_side.ring(1).elements())
        assert fixed == base_img


def test_pi_sigma_compatibility_exhaustive(unramified_tower, ramified_tower):
    for tower in (unramified_tower, ramified_tower):
        F, Fp, E, Ep, lam = tower
        pi = build_pi(lam, E.ring(1), Ep.ring(1))
        sig, sigp = E.sigma(1), Ep.sigma(1)
        for a in E.ring(1).elements():
            assert pi.apply(sig.apply_coords(a)) == sigp.apply_coords(pi.apply(a))


def test_mixed_frobenius_deep_level(unramified_tower):
    # Hensel-lifted Frobenius at working level 3 over Z/8: ring automorphism
    # of order 3 fixing the base
    _, _, E, _, _ = unramified_tower
    R = E.ring(3)
    sig = E.sigma(3)
    import random
    rng = random.Random(11)
    els = [tuple(rng.randrange(8) for _ in range(3)) for _ in range(30)]
    for a in els:
        x = a
        for _ in range(3):
            x = sig.apply_coords(x)
        assert x == a
        for b in els[:8]:
            assert sig.apply_coords(R.mul(a, b)) == R.mul(sig.apply_coords(a),
                                                          sig.apply_coords(b))
    assert sig.apply_coords(R.from_int(5)) == R.from_int(5)


# -- roots of unity ----------------------------------------------------------------

def _primitive_root(ring, l):
    """Hensel lift of the smallest nontrivial residue-field l-th root of 1."""
    return hensel_root_of_unity(ring, l, primitive_root_residue(ring.p, l))


def test_primitive_root_examples():
    assert _primitive_root(BaseRing(MIXED, 3, 4), 2) == 3 ** 4 - 1  # the lift of -1
    assert _primitive_root(BaseRing(EQUAL, 7, 1), 3) == (2,)
    with pytest.raises(GaloisConditionError):
        _primitive_root(BaseRing(MIXED, 2, 1), 3)


def test_primitive_root_is_hensel_unique():
    R = BaseRing(MIXED, 7, 3)
    z = _primitive_root(R, 3)
    assert R.pow(z, 3) == R.one()
    assert z % 7 == 2
    # uniqueness of the lift with this residue
    others = [x for x in range(7 ** 3) if pow(x, 3, 7 ** 3) == 1 and x % 7 == 2]
    assert others == [z]


# -- serialization -------------------------------------------------------------------

def test_spec_json_roundtrip():
    d = ExtensionRing(BaseRing(EQUAL, 2, 1), UNRAMIFIED, 3).to_json()
    assert d["ext"]["minimalPoly"] == [1, 1, 0, 1]
    assert d["model"] == EQUAL and d["p"] == 2


def test_element_coords_bit_exact():
    side = extension_side("E", base_side("F", EQUAL, 3, 1), RAMIFIED, 2)
    R = side.ring(1)
    for a in R.elements():
        assert R.coords_from_json(R.coords_json(a)) == a


# -- arithmetic fast paths against independent references ----------------------

def _unram_z4():
    return ExtensionRing(BaseRing(MIXED, 2, 2), UNRAMIFIED, 3)


def _unram_z4_t2():
    # Z/2[T]/(T^5 + T^2 + 1), the default degree-5 polynomial: reducing T^8
    # feeds T^5 again, so the order of the reduction matters
    return ExtensionRing(BaseRing(MIXED, 2, 1), UNRAMIFIED, 5)


def _ram_z9():
    B = BaseRing(MIXED, 3, 2)
    return ExtensionRing(B, RAMIFIED, 2, unif_class=B.unif())


def _unram_f2_t2():
    # F_2[t]/t^2[T]/(T^3 + T + 1), 64 elements
    return ExtensionRing(BaseRing(EQUAL, 2, 2), UNRAMIFIED, 3)


def _ram_f3_t2():
    # F_3[t]/t^2[T]/(T^2 - 2t), 81 elements
    return ExtensionRing(BaseRing(EQUAL, 3, 2), RAMIFIED, 2, unif_class=(0, 2))


def _f2_t5():
    return BaseRing(EQUAL, 2, 5)


def _f3_t4():
    return BaseRing(EQUAL, 3, 4)


def _wild_z8():
    # Z/8[T]/(T^2 - 2), Q_2(sqrt 2) at base level 3: l = p, so no sigma
    B = BaseRing(MIXED, 2, 3)
    return ExtensionRing(B, RAMIFIED, 2, unif_class=B.unif())


def _wild_f2_t2():
    # F_2[t]/t^2[T]/(T^2 - t), 16 elements
    return ExtensionRing(BaseRing(EQUAL, 2, 2), RAMIFIED, 2, unif_class=(0, 1))


def _eisenstein_z9_e4():
    # Z/9[T]/(T^4 - 3): e = 4 is not prime
    B = BaseRing(MIXED, 3, 2)
    return ExtensionRing(B, RAMIFIED, 4, unif_class=B.unif())


@pytest.mark.parametrize("make", [_unram_z4, _unram_z4_t2, _ram_z9, _unram_f2_t2, _ram_f3_t2,
                                  _wild_z8, _wild_f2_t2])
def test_extension_mul_matches_schoolbook(make):
    E = make()
    els = list(E.elements())
    for a in els:
        for b in els:
            assert E.mul(a, b) == schoolbook_ext_mul(E, a, b)


@pytest.mark.parametrize("make", [_wild_z8, _wild_f2_t2, _eisenstein_z9_e4])
def test_an_eisenstein_ring_needs_no_galois_condition(make):
    # e >= 2 with l = p or l composite: units invert, val agrees with
    # pi-division, and a residue at level r lifts to within pi^r
    R = make()
    assert (R.e, R.f, R.pi_level) == (R.l, 1, R.l * R.level)
    els = list(R.elements())
    for a in random.Random(3).sample(els, min(len(els), 300)):
        v = R.val(a)
        if v == 0:
            assert R.mul(a, R.inv(a)) == R.one()
        if v < R.pi_level:
            u = R.div_pi(a, v)
            assert R.val(u) == 0 and R.mul_pi(u, v) == a
        for r in range(R.pi_level + 1):
            assert R.val(R.sub(a, R.lift_residue(R.residue(a, r), r))) >= r


@pytest.mark.parametrize("make", [_f2_t5, _f3_t4])
def test_equal_base_mul_matches_truncated_product(make):
    R = make()
    for a in R.elements():
        for b in R.elements():
            assert R.mul(a, b) == truncated_poly_mul(R.p, R.level, a, b)


@pytest.mark.parametrize("make", [_unram_z4, _ram_z9, _f2_t5, _f3_t4])
def test_every_unit_inverse_is_verified_and_memoised(make):
    R = make()
    units = [a for a in R.elements() if R.is_unit(a)]
    assert units
    for a in units:
        v = R.inv(a)
        assert R.mul(a, v) == R.one()
        assert R.inv(a) is v


def test_wrong_residue_inverse_raises_typed_error(monkeypatch):
    E = _unram_z4()
    B = _f3_t4()
    monkeypatch.setattr(ExtensionRing, "_res_field_inv", lambda self, a: self.from_int(0))
    monkeypatch.setattr(BaseRing, "_res_field_inv", lambda self, a: self.from_int(0))
    with pytest.raises(InvariantViolationError):
        E.inv(E.one())
    with pytest.raises(InvariantViolationError):
        B.inv(B.from_int(2))
    # nothing unverified entered the memo
    assert E.one() not in E._inverses and B.from_int(2) not in B._inverses


def test_separately_built_rings_compare_equal():
    for make in (_unram_z4, _ram_z9, _f2_t5):
        R, S = make(), make()
        assert R is not S
        assert R == S and hash(R) == hash(S)
    assert _unram_z4() != _ram_z9()


def test_failed_frobenius_lift_raises_typed_error(monkeypatch):
    # over Z/8, T^2 is a root of T^3 + T + 1 only mod 2, so the lift needs
    # Newton steps; with every inverse forced to 0 they cannot move it
    E = ExtensionRing(BaseRing(MIXED, 2, 3), UNRAMIFIED, 3)
    monkeypatch.setattr(ExtensionRing, "inv", lambda self, a: self.zero())
    with pytest.raises(InvariantViolationError):
        GaloisGenerator(E)


# -- memo tables of small rings ---------------------------------------------------

TABLED_OPS = ("mul", "add", "sub")


def _z4():
    return BaseRing(MIXED, 2, 2)


def _z9():
    return BaseRing(MIXED, 3, 2)


def _f8():
    return ExtensionRing(BaseRing(MIXED, 2, 1), UNRAMIFIED, 3)


def _ram_z3():
    B = BaseRing(MIXED, 3, 1)
    return ExtensionRing(B, RAMIFIED, 2, unif_class=B.unif())


def _oracle_mul(R, a, b):
    if isinstance(R, ExtensionRing):
        return schoolbook_ext_mul(R, a, b)
    if R.model == MIXED:
        return a * b % R.p ** R.level
    return truncated_poly_mul(R.p, R.level, a, b)


def _coord_add(R, a, b, sign=1):
    """a + sign * b coordinate by coordinate, without the ring's methods."""
    if isinstance(R, ExtensionRing):
        return tuple(_coord_add(R.base, x, y, sign) for x, y in zip(a, b))
    if R.model == MIXED:
        return (a + sign * b) % R.p ** R.level
    return tuple((x + sign * y) % R.p for x, y in zip(a, b))


@pytest.mark.parametrize("make", [_z4, _z9, _f2_t5, _f3_t4, _f8, _unram_z4, _ram_z3, _ram_z9])
def test_tables_agree_with_the_oracles_when_filled_and_when_hit(make):
    R = make()
    els = list(R.elements())
    filled = None
    for _ in range(2):   # the first sweep fills the tables, the second reads them
        for a in els:
            for b in els:
                assert R.mul(a, b) == _oracle_mul(R, a, b)
                assert R.add(a, b) == _coord_add(R, a, b)
                assert R.sub(a, b) == _coord_add(R, a, b, -1)
        if filled is None:
            filled = {name: getattr(R, name).cache_info() for name in TABLED_OPS}
    for name in TABLED_OPS:
        info = getattr(R, name).cache_info()
        assert info.currsize == len(els) ** 2
        assert info.misses == filled[name].misses


def test_sigma_table_agrees_with_the_untabulated_generator(unramified_tower, ramified_tower):
    for tower in (unramified_tower, ramified_tower):
        E = tower[2]
        for level in (1, 2):
            R = E.ring(level)
            sig = GaloisGenerator(R)
            for _ in range(2):
                for a in R.elements():
                    assert sig.apply_coords(a) == GaloisGenerator.apply_coords(sig, a)
            assert sig.apply_coords.cache_info().currsize == R.size()


def test_a_ring_above_the_bound_keeps_no_table():
    at = BaseRing(EQUAL, 2, 10)
    assert at.size() == TABLE_BOUND
    assert all(hasattr(getattr(at, name), "cache_info") for name in TABLED_OPS)
    above = BaseRing(EQUAL, 2, 11)
    ext = ExtensionRing(BaseRing(EQUAL, 2, 4), UNRAMIFIED, 3)
    for R in (above, ext):
        assert R.size() > TABLE_BOUND
        assert not set(TABLED_OPS) & set(vars(R))
    assert "apply_coords" not in vars(GaloisGenerator(ext))
    a, b = above.element(1234), above.element(77)
    assert above.mul(a, b) == truncated_poly_mul(2, 11, a, b)


def test_a_class_patch_after_building_reaches_only_rings_without_tables(monkeypatch):
    small, large = BaseRing(EQUAL, 2, 2), BaseRing(EQUAL, 2, 11)
    monkeypatch.setattr(BaseRing, "mul", lambda self, a, b: self.zero())
    assert small.mul(small.one(), small.one()) == small.one()
    assert large.mul(large.one(), large.one()) == large.zero()
    late = BaseRing(EQUAL, 2, 2)
    assert late.mul(late.one(), late.one()) == late.zero()
