import itertools
import random

import pytest

from closehecke.coeffs import CoeffField
from closehecke import tate
from closehecke.errors import (
    DimBoundExceededError,
    GeneratorNameMismatchError,
    InvariantViolationError,
    MissingActionError,
    NotOrderLError,
    SpecMismatchError,
    UndecidedError,
)
from closehecke.tate import (
    CyclicModule,
    composition_factors,
    find_proper_submodule,
    frobenius_twist,
    image_basis,
    kernel_basis,
    linkage_check,
    mat_add,
    mat_apply,
    mat_identity,
    mat_mul,
    mat_sub,
    min_poly,
    module_from_json,
    modules_isomorphic,
    norm_operator,
    reduce_against,
    rref,
    tate_cohomology,
    tate_quotient_module,
)

from helpers import (
    dense_image_basis,
    dense_kernel_basis,
    dense_mat_add,
    dense_mat_apply,
    dense_mat_mul,
    dense_mat_sub,
    dense_reduce,
    dense_rref,
    dense_spin,
    module_to_json,
    transport_module,
)

F2 = CoeffField(2, 1)
F3 = CoeffField(3, 1)
F4 = CoeffField(2, 2)
F9 = CoeffField(3, 2)


def cyclic_shift(F, l):
    return tuple(tuple(F.one() if (i + 1) % l == j else F.zero() for j in range(l))
                 for i in range(l))


def block_T(F, blocks):
    d = sum(blocks)
    T = [[F.zero()] * d for _ in range(d)]
    off = 0
    for b in blocks:
        if b == 1:
            T[off][off] = F.one()
        else:
            cyc = cyclic_shift(F, b)
            for i in range(b):
                for j in range(b):
                    T[off + i][off + j] = cyc[i][j]
        off += b
    return tuple(tuple(r) for r in T)


def sparse_matrix(F, rng, rows, cols, density):
    """Seeded random matrix, each entry nonzero with probability density."""
    nonzero = [x for x in F.elements() if not F.is_zero(x)]
    return tuple(tuple(rng.choice(nonzero) if rng.random() < density else F.zero()
                       for _ in range(cols)) for _ in range(rows))


# -- matrix kernels -----------------------------------------------------------

def _row_kernels_match_dense_oracle(F, A, C, w):
    ech = rref(F, A)
    assert ech == dense_rref(F, A)
    assert reduce_against(F, *ech, w) == dense_reduce(F, *ech, w)
    assert kernel_basis(F, A) == dense_kernel_basis(F, A)
    assert image_basis(F, A) == dense_image_basis(F, A)
    assert mat_add(F, A, C) == dense_mat_add(F, A, C)
    assert mat_sub(F, A, C) == dense_mat_sub(F, A, C)


@pytest.mark.parametrize("F", [F2, F3, F4, F9], ids=["F2", "F3", "F4", "F9"])
def test_sparse_kernels_match_dense_oracle(F):
    rng = random.Random(31 + F.l * F.k)
    shapes = [(3, 3, 3), (2, 5, 4), (5, 1, 2), (1, 4, 1), (4, 3, 0), (0, 3, 2), (3, 0, 0)]
    for density in (0.0, 0.15, 0.4, 1.0):
        for n, mid, m in shapes:
            A = sparse_matrix(F, rng, n, mid, density)
            B = sparse_matrix(F, rng, mid, m, density)
            assert mat_mul(F, A, B) == dense_mat_mul(F, A, B)
            v = sparse_matrix(F, rng, 1, mid, density)[0] if mid else ()
            assert mat_apply(F, A, v) == dense_mat_apply(F, A, v)
            _row_kernels_match_dense_oracle(F, A, sparse_matrix(F, rng, n, mid, density), v)
    # a pivot c whose inverse is not one (unless F = F_2), a zero row and
    # two zero columns, one of them past the last pivot
    o, z, c = F.one(), F.zero(), max(F.elements())
    A = ((z, c, z, o, z), (z, z, z, z, z), (z, o, z, c, z), (c, z, z, c, o))
    _row_kernels_match_dense_oracle(F, A, A, (o, c, c, o, z))
    assert kernel_basis(F, A) and all(mat_apply(F, A, v) == (z,) * 4
                                      for v in kernel_basis(F, A))


# -- norm operator ------------------------------------------------------------

def test_norm_identity_is_zero_in_char_l():
    for l in (2, 3):
        F = CoeffField(l, 1)
        M = CyclicModule(F, 2, mat_identity(F, 2))
        N = norm_operator(M)
        assert all(F.is_zero(x) for row in N for x in row)


def test_norm_swap_all_ones():
    swap = ((F2.zero(), F2.one()), (F2.one(), F2.zero()))
    N = norm_operator(CyclicModule(F2, 2, swap))
    assert all(x == F2.one() for row in N for x in row)


def test_norm_three_cycle_circulant():
    N = norm_operator(CyclicModule(F3, 3, cyclic_shift(F3, 3)))
    assert all(x == F3.one() for row in N for x in row)


def test_norm_requires_order_l():
    bad = ((F3.from_int(2), F3.zero()), (F3.zero(), F3.one()))  # order 2 != 3
    with pytest.raises(NotOrderLError):
        norm_operator(CyclicModule(F3, 2, bad))


# -- Tate groups ---------------------------------------------------------------

def test_trivial_module_dims():
    for l in (2, 3):
        F = CoeffField(l, 1)
        M = CyclicModule(F, 1, mat_identity(F, 1))
        assert tate_cohomology(M, 0).dim == 1
        assert tate_cohomology(M, 1).dim == 1


def test_regular_module_vanishes():
    for l in (2, 3):
        F = CoeffField(l, 1)
        M = CyclicModule(F, l, cyclic_shift(F, l))
        assert tate_cohomology(M, 0).dim == 0
        assert tate_cohomology(M, 1).dim == 0


def test_zero_module():
    M = CyclicModule(F2, 0, tuple())
    assert tate_cohomology(M, 0).dim == 0
    assert tate_cohomology(M, 1).dim == 0


def test_dims_invariant_under_conjugation():
    rng = random.Random(31)
    T = block_T(F3, [1, 3])
    M = CyclicModule(F3, 4, T)
    base = (tate_cohomology(M, 0).dim, tate_cohomology(M, 1).dim)
    for _ in range(6):
        while True:
            P = tuple(tuple(F3.from_int(rng.randrange(3)) for _ in range(4))
                      for _ in range(4))
            from closehecke.tate import rref
            if len(rref(F3, P)[0]) == 4:
                break
        # P T P^{-1} via solving: use kernel trick with explicit inverse
        import itertools
        # invert P by Gauss over F3
        aug = [list(P[i]) + list(mat_identity(F3, 4)[i]) for i in range(4)]
        ech, piv = rref(F3, aug)
        Pinv = tuple(tuple(row[4:]) for row in ech)
        Tc = mat_mul(F3, mat_mul(F3, P, T), Pinv)
        Mc = CyclicModule(F3, 4, Tc)
        assert (tate_cohomology(Mc, 0).dim, tate_cohomology(Mc, 1).dim) == base


def test_additivity_over_direct_sums_seeded():
    rng = random.Random(55)
    for _ in range(25):
        l = rng.choice([2, 3])
        F = CoeffField(l, 1)
        blocks = [rng.choice([1, l]) for _ in range(rng.randrange(1, 4))]
        M = CyclicModule(F, sum(blocks), block_T(F, blocks))
        trivial = sum(1 for b in blocks if b == 1)
        assert tate_cohomology(M, 0).dim == trivial
        assert tate_cohomology(M, 1).dim == trivial


def test_rank_nullity_exact():
    rng = random.Random(56)
    for _ in range(10):
        l = rng.choice([2, 3])
        F = CoeffField(l, 1)
        blocks = [rng.choice([1, l]) for _ in range(3)]
        d = sum(blocks)
        M = CyclicModule(F, d, block_T(F, blocks))
        N = norm_operator(M)
        A = mat_sub(F, mat_identity(F, d), M.T)
        assert len(kernel_basis(F, A)) + len(image_basis(F, A)) == d
        assert len(kernel_basis(F, N)) + len(image_basis(F, N)) == d


def test_wrong_quotient_dimension_raises_typed_error(monkeypatch):
    # with nothing reduced modulo im(N), the regular module's kernel survives
    # whole and the quotient is one dimension too large
    monkeypatch.setattr(tate, "reduce_against", lambda F, ech, piv, v: tuple(v))
    with pytest.raises(InvariantViolationError):
        tate_cohomology(CyclicModule(F3, 3, cyclic_shift(F3, 3)), 0)


def _trivial_plus_cycle(action):
    """F_3 with T fixing e0 and cycling e1 -> e2 -> e3: H^0 = ker(1 - T) /
    im(N) = <e0, e1 + e2 + e3> / <e1 + e2 + e3>, spanned by e0."""
    T = block_T(F3, [1, 3])
    cols = [[F3.from_int(c) for c in col] for col in action]
    return CyclicModule(F3, 4, T, {"g": tuple(tuple(col[i] for col in cols)
                                              for i in range(4))})


def test_quotient_module_generator_leaving_the_kernel():
    # g e0 = e1 is not fixed by T
    M = _trivial_plus_cycle([(0, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(SpecMismatchError, match="does not preserve"):
        tate_quotient_module(M, 0)


def test_quotient_module_generator_moving_the_image():
    # g fixes e0 and sends e1 to e0: it keeps ker(1 - T), but moves
    # e1 + e2 + e3 in im(N) to e0, which is not in im(N)
    M = _trivial_plus_cycle([(1, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)])
    with pytest.raises(SpecMismatchError, match="does not descend"):
        tate_quotient_module(M, 0)


def test_quotient_basis_echelon_deterministic():
    M = CyclicModule(F3, 3, block_T(F3, [3]))
    r1 = tate_cohomology(M, 0)
    r2 = tate_cohomology(M, 0)
    assert r1.basis == r2.basis


# -- Frobenius twist --------------------------------------------------------------

def test_twist_identity_when_k1():
    M = CyclicModule(F3, 2, mat_identity(F3, 2),
                     {"g": ((F3.from_int(2), F3.zero()), (F3.zero(), F3.one()))})
    assert frobenius_twist(M) == M


def test_twist_eigenvalue_example():
    omega = (0, 1)
    M = CyclicModule(F4, 1, mat_identity(F4, 1), {"a": ((omega,),)})
    tw = frobenius_twist(M)
    assert tw.action["a"][0][0] == F4.pow(omega, 2)


def test_twist_order_k():
    omega = (0, 1)
    M = CyclicModule(F4, 1, mat_identity(F4, 1), {"a": ((omega,),)})
    back = frobenius_twist(frobenius_twist(M))
    assert back == M


def test_twist_commutes_with_tate():
    omega = (0, 1)
    T = ((F4.zero(), omega), (F4.pow(omega, 2), F4.zero()))
    M = CyclicModule(F4, 2, T)
    for i in (0, 1):
        a = tate_cohomology(M, i)
        b = tate_cohomology(frobenius_twist(M), i)
        assert a.dim == b.dim
        twisted_basis = tuple(tuple(F4.inv_frobenius(x) for x in row)
                              for row in a.basis)
        from closehecke.tate import rref
        assert rref(F4, list(twisted_basis))[0] == list(b.basis)


# -- transport ----------------------------------------------------------------------

def test_transport_identity_and_roundtrip():
    M = CyclicModule(F3, 1, mat_identity(F3, 1), {"x": ((F3.one(),),)})
    assert transport_module(M, {}) == M
    moved = transport_module(M, {"x": "y"})
    assert "y" in moved.action
    assert transport_module(moved, {"y": "x"}) == M


def test_transport_requires_action():
    M = CyclicModule(F3, 1, mat_identity(F3, 1))
    with pytest.raises(MissingActionError):
        transport_module(M, {})


def test_transport_preserves_relations():
    # a relation g^2 = h transported along a renaming still holds
    g = ((F3.from_int(2),),)
    h = ((F3.one(),),)
    M = CyclicModule(F3, 1, mat_identity(F3, 1), {"g": g, "h": h})
    moved = transport_module(M, {"g": "g'", "h": "h'"})
    assert mat_mul(F3, moved.action["g'"], moved.action["g'"]) == moved.action["h'"]


# -- composition factors ---------------------------------------------------------------

def test_factors_one_dimensional():
    M = CyclicModule(F3, 1, mat_identity(F3, 1), {"g": ((F3.from_int(2),),)})
    fs = composition_factors(M)
    assert len(fs) == 1 and fs[0].dim == 1


def test_factors_direct_sum_of_characters():
    M = CyclicModule(F3, 2, mat_identity(F3, 2),
                     {"g": ((F3.one(), F3.zero()), (F3.zero(), F3.from_int(2)))})
    fs = composition_factors(M)
    assert sorted(f.action["g"][0][0] for f in fs) == [(1,), (2,)]


def test_factors_upper_triangular_characters():
    M = CyclicModule(F3, 2, mat_identity(F3, 2),
                     {"g": ((F3.one(), F3.one()), (F3.zero(), F3.from_int(2)))})
    fs = composition_factors(M)
    assert sorted(f.action["g"][0][0] for f in fs) == [(1,), (2,)]


def test_factors_simple_rotation_certified():
    rot = ((F3.zero(), F3.from_int(2)), (F3.one(), F3.zero()))
    fs = composition_factors(CyclicModule(F3, 2, mat_identity(F3, 2), {"g": rot}))
    assert len(fs) == 1 and fs[0].dim == 2
    assert min_poly(F3, rot) == [F3.one(), F3.zero(), F3.one()]  # x^2 + 1


def test_factors_multiset_stable_under_conjugate_input():
    rot = ((F3.zero(), F3.from_int(2)), (F3.one(), F3.zero()))
    big = [[F3.zero()] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            big[i][j] = rot[i][j]
    big[2][2] = F3.one()
    big[3][3] = F3.from_int(2)
    M = CyclicModule(F3, 4, mat_identity(F3, 4), {"g": tuple(tuple(r) for r in big)})
    fs = composition_factors(M)
    assert sorted(f.dim for f in fs) == [1, 1, 2]


def _int_matrix(F, rows):
    return tuple(tuple(F.from_int(c) for c in row) for row in rows)


def _random_two_generator_modules(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        F = rng.choice([F2, F3])
        d = rng.randrange(2, 5)
        yield F, d, [_int_matrix(F, [[rng.randrange(F.l) for _ in range(d)] for _ in range(d)])
                     for _ in range(2)]


# split by none of the generators, their scalar shifts, sums and products:
# only a random combination finds its submodule
_SPLIT_BY_A_RANDOM_COMBINATION = (F3, 4, [
    _int_matrix(F3, [[0, 1, 1, 1], [2, 1, 2, 2], [0, 1, 2, 1], [2, 2, 2, 1]]),
    _int_matrix(F3, [[0, 0, 0, 0], [0, 1, 1, 0], [2, 2, 1, 0], [1, 2, 0, 0]])])


def test_splitter_on_seeded_two_generator_modules():
    """The splitter against the dense spin on two-generator modules of
    dimension 2-4 over F_2 and F_3: a returned W is a proper nonzero
    invariant subspace, a module without one is simple, and the composition
    factors fill the dimension.  The seed-0 stream reaches the
    distinct-degree step and both outcomes of Parker's transposed spin, and
    holds an absolutely simple F_2-module that combinations of the
    generators alone never certify; the splitter decides every module."""
    undecided = 0
    for F, d, mats in [*_random_two_generator_modules(0, 250), _SPLIT_BY_A_RANDOM_COMBINATION]:
        try:
            W = find_proper_submodule(F, d, mats)
        except UndecidedError:
            undecided += 1
            W = None
        else:
            M = CyclicModule(F, d, mat_identity(F, d), {"a": mats[0], "b": mats[1]})
            assert sum(f.dim for f in composition_factors(M)) == d
        if W is None:
            vectors = [v for v in itertools.product(F.elements(), repeat=d)
                       if not all(F.is_zero(x) for x in v)]
            assert all(len(dense_spin(F, mats, [v])) == F.l ** d for v in vectors)
        else:
            span = dense_spin(F, [], W)
            assert 0 < len(W) < d and len(span) == F.l ** len(W)
            assert dense_spin(F, mats, W) == span
    assert undecided == 0


def test_factors_dim_bound():
    M = CyclicModule(F3, 25, mat_identity(F3, 25), {"g": mat_identity(F3, 25)})
    with pytest.raises(DimBoundExceededError):
        composition_factors(M)


# -- isomorphism and linkage --------------------------------------------------------

def test_modules_isomorphic_basic():
    A = CyclicModule(F3, 1, mat_identity(F3, 1), {"g": ((F3.one(),),)})
    B = CyclicModule(F3, 1, mat_identity(F3, 1), {"g": ((F3.from_int(2),),)})
    assert modules_isomorphic(A, A)
    assert not modules_isomorphic(A, B)
    with pytest.raises(GeneratorNameMismatchError):
        modules_isomorphic(A, CyclicModule(F3, 1, mat_identity(F3, 1),
                                           {"h": ((F3.one(),),)}))


def test_modules_isomorphic_conjugate_simples():
    rot = ((F3.zero(), F3.from_int(2)), (F3.one(), F3.zero()))
    P = ((F3.one(), F3.one()), (F3.zero(), F3.one()))
    Pinv = ((F3.one(), F3.from_int(2)), (F3.zero(), F3.one()))
    rot2 = mat_mul(F3, mat_mul(F3, P, rot), Pinv)
    A = CyclicModule(F3, 2, mat_identity(F3, 2), {"g": rot})
    B = CyclicModule(F3, 2, mat_identity(F3, 2), {"g": rot2})
    assert modules_isomorphic(A, B)


def test_linkage_scalar_instances():
    Xi = CyclicModule(F3, 1, mat_identity(F3, 1), {"e": ((F3.from_int(2),),)})
    rho = CyclicModule(F3, 1, mat_identity(F3, 1), {"f": ((F3.from_int(2),),)})
    assert linkage_check(Xi, rho, {"e": "f"}) == {0: True, 1: True}
    rho_bad = CyclicModule(F3, 1, mat_identity(F3, 1), {"f": ((F3.one(),),)})
    assert linkage_check(Xi, rho_bad, {"e": "f"}) == {0: False, 1: False}


def test_linkage_name_mismatch():
    Xi = CyclicModule(F3, 1, mat_identity(F3, 1), {"e": ((F3.one(),),)})
    rho = CyclicModule(F3, 1, mat_identity(F3, 1), {"f": ((F3.one(),),)})
    with pytest.raises(GeneratorNameMismatchError):
        linkage_check(Xi, rho, {"e": "missing"})


def test_linkage_free_module_never_links():
    # T regular: both Tate groups vanish, so nothing is linked
    Xi = CyclicModule(F3, 3, cyclic_shift(F3, 3),
                      {"e": mat_identity(F3, 3)})
    rho = CyclicModule(F3, 1, mat_identity(F3, 1), {"f": ((F3.one(),),)})
    assert linkage_check(Xi, rho, {"e": "f"}) == {0: False, 1: False}


def test_tate_quotient_induced_action():
    # Xi = trivial + regular blocks; generator acts by 2 on the trivial part
    F = F3
    T = block_T(F, [1, 3])
    g = [[F.zero()] * 4 for _ in range(4)]
    g[0][0] = F.from_int(2)
    for i in range(1, 4):
        g[i][i] = F.one()
    Xi = CyclicModule(F, 4, T, {"e": tuple(tuple(r) for r in g)})
    for i in (0, 1):
        quot = tate_quotient_module(Xi, i)
        assert quot.dim == 1
        assert quot.action["e"][0][0] == F.from_int(2)


def test_module_json_roundtrip():
    M = CyclicModule(F4, 2, mat_identity(F4, 2),
                     {"a": ((F4.from_int(1), (0, 1)), ((1, 1), F4.zero()))})
    doc = module_to_json(M)
    back = module_from_json(doc)
    assert back == M and module_to_json(back) == doc
