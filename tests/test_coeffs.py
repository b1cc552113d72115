import itertools
import time

import pytest

from closehecke.coeffs import MAX_FIELD_SIZE, CoeffField, is_irreducible, smallest_irreducible
from closehecke.errors import NotAUnitError, SpecMismatchError

from helpers import _gf_mul, brute_is_irreducible


@pytest.mark.parametrize("l,k", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_field_axioms_exhaustive(l, k):
    F = CoeffField(l, k)
    els = list(F.elements())
    assert len(els) == l ** k
    for a in els:
        assert F.add(a, F.zero()) == a
        assert F.mul(a, F.one()) == a
        if not F.is_zero(a):
            assert F.mul(a, F.inv(a)) == F.one()
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els[:4]:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("l,k", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2)])
def test_mul_matches_the_oracle_product(l, k):
    # a product reduced modulo the wrong polynomial passes the field axioms,
    # so every pair is compared with the schoolbook product of the oracle
    F, low = CoeffField(l, k), smallest_irreducible(l, k)

    def code(a):
        return sum(c * l ** i for i, c in enumerate(a))

    for a in F.elements():
        for b in F.elements():
            assert code(F.mul(a, b)) == _gf_mul(l, low, code(a), code(b))


def test_zero_has_no_inverse():
    F = CoeffField(3, 1)
    with pytest.raises(NotAUnitError):
        F.inv(F.zero())


@pytest.mark.parametrize("l,k", [(2, 2), (3, 2), (2, 3)])
def test_frobenius_order_k(l, k):
    F = CoeffField(l, k)
    fixed_everything = True
    for a in F.elements():
        x = a
        for _ in range(k):
            x = F.pow(x, F.l)
        assert x == a
        if F.pow(a, F.l) != a:
            fixed_everything = False
        assert F.pow(F.inv_frobenius(a), F.l) == a
    assert not fixed_everything


def test_frobenius_additive():
    F = CoeffField(3, 2)
    for a in F.elements():
        for b in F.elements():
            assert F.pow(F.add(a, b), F.l) == F.add(F.pow(a, F.l), F.pow(b, F.l))


@pytest.mark.parametrize("l,k", [(2, 17), (2, 200), (2, 10 ** 18), (65537, 1),
                                 (10 ** 60 + 7, 1), (257, 2)])
def test_a_field_over_the_size_bound_is_a_fast_typed_error(l, k):
    # checked before the primality test and the minimal-polynomial search,
    # and without computing l ** k for a huge k
    start = time.perf_counter()
    with pytest.raises(SpecMismatchError, match="exceeds"):
        CoeffField(l, k)
    assert time.perf_counter() - start < 1.0


def test_fields_at_the_size_bound_are_built():
    assert CoeffField(2, 16).size() == MAX_FIELD_SIZE
    assert CoeffField(65521, 1).size() == 65521  # the largest prime below 2^16


def test_coords_json_roundtrip():
    F = CoeffField(3, 2)
    for a in F.elements():
        assert F.coords_from_json(F.coords_json(a)) == a
    assert F.coords_from_json(2) == F.from_int(2)


# -- the polynomial toolkit against a trial-division oracle -------------------

@pytest.mark.parametrize("l,k,low,degrees", [
    (2, 1, (0,), range(1, 5)),
    (3, 1, (0,), range(1, 5)),
    (2, 2, (1, 1), range(1, 3)),   # F_4 = F_2[X]/(X^2 + X + 1)
])
def test_is_irreducible_matches_trial_division(l, k, low, degrees):
    F = CoeffField(l, k)
    for d in degrees:
        for f in itertools.product(range(l ** k), repeat=d):
            f = list(f) + [1]
            coeffs = [tuple((c // l ** i) % l for i in range(k)) for c in f]
            assert is_irreducible(F, coeffs) == brute_is_irreducible(f, l, low), f


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_smallest_irreducible_is_first_oracle_hit(p, d):
    # candidate order: (c_{d-1}, ..., c_0) lexicographic, constant term nonzero
    first = next(tuple(reversed(high)) for high in itertools.product(range(p), repeat=d)
                 if high[-1] and brute_is_irreducible(list(reversed(high)) + [1], p))
    assert smallest_irreducible(p, d) == first
