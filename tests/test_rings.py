import itertools

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


def test_ramified_spec_and_errors():
    B = BaseRing(EQUAL, 3, 1)
    assert ExtensionRing(B, RAMIFIED, 2, unif_class=B.unif()).e == 2
    with pytest.raises(GaloisConditionError):
        ExtensionRing(BaseRing(EQUAL, 2, 1), RAMIFIED, 3, unif_class=(0,))
    with pytest.raises(SamePrimeError):
        ExtensionRing(B, UNRAMIFIED, 3)


@pytest.mark.parametrize("build, error", [
    (lambda: BaseRing("adic", 3, 1), SpecMismatchError),
    (lambda: BaseRing(EQUAL, 4, 1), SpecMismatchError),
    (lambda: BaseRing(MIXED, 3, 0), SpecMismatchError),
    (lambda: ExtensionRing(BaseRing(EQUAL, 3, 1), UNRAMIFIED, 4), SpecMismatchError),
    (lambda: ExtensionRing(BaseRing(MIXED, 3, 1), UNRAMIFIED, 3), SamePrimeError),
    # T^2 - 1 = (T - 1)(T + 1) over F_3
    (lambda: ExtensionRing(BaseRing(EQUAL, 3, 1), UNRAMIFIED, 2, (2, 0)), SpecMismatchError),
    # T + 1 is irreducible, but of degree 1
    (lambda: ExtensionRing(BaseRing(EQUAL, 3, 1), UNRAMIFIED, 2, (1,)), SpecMismatchError),
    (lambda: ExtensionRing(BaseRing(EQUAL, 5, 1), RAMIFIED, 3, unif_class=(0,)),
     GaloisConditionError),
    (lambda: ExtensionRing(BaseRing(EQUAL, 3, 1), "wild", 2), SpecMismatchError),
    (lambda: ExtensionRing(BaseRing(EQUAL, 3, 1), RAMIFIED, 2), SpecMismatchError),
], ids=["unknown-model", "p-not-prime", "level-zero", "l-not-prime", "l-equals-p",
        "reducible-minimal-poly", "minimal-poly-of-wrong-degree", "ramified-l-not-dividing-p-1", "unknown-kind",
        "ramified-without-uniformizer"])
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


def test_ramified_residue_levels_roundtrip():
    side = extension_side("E", base_side("F", EQUAL, 3, 2), RAMIFIED, 2)
    R = side.ring(2)
    for r in range(R.pi_level + 1):
        for a in itertools.islice(R.elements(), 40):
            res = R.residue(a, r)
            assert R.residue(R.lift_residue(res, r), r) == res


# -- Pi and Galois generators ----------------------------------------------------

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

def _unram_z4(minimal_poly=(1, 1, 0)):
    return ExtensionRing(BaseRing(MIXED, 2, 2), UNRAMIFIED, 3, minimal_poly)


def _unram_z4_t2():
    # T^3 + T^2 + 1: reducing T^4 feeds T^3 again, so the order of the
    # reduction matters
    return _unram_z4((1, 0, 1))


def _ram_z9():
    B = BaseRing(MIXED, 3, 2)
    return ExtensionRing(B, RAMIFIED, 2, unif_class=B.unif())


def _f2_t5():
    return BaseRing(EQUAL, 2, 5)


def _f3_t4():
    return BaseRing(EQUAL, 3, 4)


@pytest.mark.parametrize("make", [_unram_z4, _unram_z4_t2, _ram_z9])
def test_extension_mul_matches_schoolbook(make):
    E = make()
    els = list(E.elements())
    for a in els:
        for b in els:
            assert E.mul(a, b) == schoolbook_ext_mul(E, a, b)


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
