import itertools
import random

import pytest

from closehecke import cartan
from closehecke.cartan import CosetLabel, GroupContext, group_order
from closehecke.coeffs import CoeffField
from closehecke.errors import (
    BudgetExceededError,
    InsufficientPrecisionError,
    InvariantViolationError,
    SideMismatchError,
)
from closehecke.matrices import (
    FieldElement,
    GroupMatrix,
    certified_min,
    check_antidominant,
    cochar_window,
    coord_mul,
    spread,
    unimodular_inverse,
)
from closehecke.rings import EQUAL, MIXED, RAMIFIED, UNRAMIFIED, base_side, extension_side
from closehecke.hecke import HeckeAlgebra
from closehecke.transfer import Tower, random_label

from helpers import (
    brute_left_cosets,
    canonical_window,
    closure_left_cosets,
    coset_matches,
    canonical_label_by_tables,
    default_pi_prec,
    distinct_double_cosets,
    fingerprint,
    flatten,
    gamma_stabilizer,
    integral_coords,
    k_elements,
    label_of,
    leibniz_det,
    left_coset_key_by_inverse,
    left_coset_matrices,
    lift_label,
    lift_label_by_products,
    lift_residue_matrix,
    minor_valuation_mu,
    random_field_matrix,
    random_k_element,
    residue_mat_mul,
    same_double_coset,
    same_left_coset,
    sigma_on_group,
    smith_of_matrix,
    smith_reconstruction,
    smith_x_by_inverse,
    subgroup,
    unif_power_matrix,
)


@pytest.fixture(scope="module")
def ctx2():
    return GroupContext(base_side("F", MIXED, 2, 1), 2)


@pytest.fixture(scope="module")
def ctx3():
    return GroupContext(base_side("F", MIXED, 3, 1), 2)


def fe(ring, v, c):
    return FieldElement.make(ring, v, ring.from_int(c))


# -- smith/cartan ------------------------------------------------------------

def test_smith_identity(ctx2):
    ring = ctx2.working_ring(6)
    mu, x, y = smith_of_matrix(ctx2, GroupMatrix.identity(ring, 2))
    assert mu == (0, 0)


def test_smith_diag_already_cartan(ctx2):
    ring = ctx2.working_ring(6)
    mu, _, _ = smith_of_matrix(ctx2, unif_power_matrix(ctx2, (0, 1), ring))
    assert mu == (0, 1)


def test_smith_unit_entry_forces_invariants(ctx2):
    # [[pi, 1], [0, pi]]: the unit entry forces pi^0, the determinant pi^2
    ring = ctx2.working_ring(6)
    z = FieldElement.zero(ring)
    g = GroupMatrix(ring, [[fe(ring, 1, 1), fe(ring, 0, 1)], [z, fe(ring, 1, 1)]])
    mu, x, y = smith_of_matrix(ctx2, g)
    assert mu == (0, 2)
    assert minor_valuation_mu(g) == (0, 2)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_smith_matches_minor_oracle_and_reconstructs(p, n):
    ctx = GroupContext(base_side("F", MIXED, p, 1), n)
    ring = ctx.working_ring(6)
    rng = random.Random(100 * p + n)
    done = 0
    while done < 30:
        g = random_field_matrix(ctx, ring, rng, n=n)
        try:
            oracle_mu = minor_valuation_mu(g)
        except AssertionError:
            continue
        try:
            mu, reconstructs = smith_reconstruction(ctx, g)
        except InsufficientPrecisionError:
            # refused only where g does not fix its label: lambda_n + m > N_g
            assert oracle_mu[-1] - oracle_mu[0] + ctx.m > integral_coords(ctx, g)[3]
            continue
        assert mu == oracle_mu and reconstructs
        done += 1


def test_smith_cartan_invariance_under_units(ctx3):
    ring = ctx3.working_ring(6)
    rng = random.Random(5)
    els = ctx3.group_elements()
    g = lift_label(ctx3, ctx3.unif_label((-1, 1)), ring)
    mu0 = smith_of_matrix(ctx3, g)[0]
    for _ in range(8):
        x = GroupMatrix.from_residue(ring, els[rng.randrange(len(els))], 1)
        y = GroupMatrix.from_residue(ring, els[rng.randrange(len(els))], 1)
        assert smith_of_matrix(ctx3, x * g * y.inverse())[0] == mu0


# -- left cosets ---------------------------------------------------------------

def test_left_coset_reps_identity(ctx2):
    ring = ctx2.working_ring(6)
    reps = ctx2.left_coset_reps(ctx2.unif_label((0, 0)), ring)
    assert len(reps) == 1


def test_left_coset_reps_count_and_brute_match(ctx2):
    ring = ctx2.working_ring(6)
    lab = ctx2.unif_label((0, 1))
    reps = left_coset_matrices(ctx2, lab, ring)
    assert len(reps) == 2  # [K : K cap gKg^-1] = q
    brute = brute_left_cosets(ctx2, lift_label(ctx2, lab, ring))
    assert len(brute) == len(reps)
    # same partition: every brute rep matches exactly one fast rep
    for b in brute:
        assert sum(1 for r in reps if same_left_coset(ctx2, b, r)) == 1


def test_a_transversal_over_budget_is_refused_before_listing(monkeypatch):
    # mu = (0, 3) has q^3 = 8 cosets: budget 8 lists them, budget 7 refuses
    # them before a single digit is drawn
    F = base_side("F", MIXED, 2, 1)
    at, under = GroupContext(F, 2, budget=8), GroupContext(F, 2, budget=7)
    ring, lab = at.working_ring(6), at.unif_label((0, 3))
    assert len(at.left_coset_reps(lab, ring)) == 8
    monkeypatch.setattr(under, "_digits", lambda *args: pytest.fail("listed over budget"))
    with pytest.raises(BudgetExceededError, match="8 cosets, over budget 7"):
        under.left_coset_reps(lab, ring)


def test_a_huge_transversal_is_refused_by_its_exponent():
    # q^k with k = 10^7 is never formed: the message names it as a power
    ctx = GroupContext(base_side("F", MIXED, 3, 1), 2)
    with pytest.raises(BudgetExceededError, match=r"holds 3\^10000000 cosets, over budget"):
        ctx.check_transversal((0, 10 ** 7))
    ctx.check_transversal((0, 14))             # 3^14 = 4,782,969 <= 10^7


def test_left_coset_count_conjugation_invariant(ctx2):
    # every label of one invariant has as many distinct left-coset keys as
    # the diagonal one
    ring = ctx2.working_ring(8)
    rng = random.Random(3)
    els = ctx2.group_elements()
    base = len(fingerprint(ctx2, ctx2.unif_label((0, 2)))[1])
    for _ in range(5):
        lab = CosetLabel((0, 2), els[rng.randrange(len(els))],
                         els[rng.randrange(len(els))], 1)
        keys = {ctx2.left_coset_key(r) for r in left_coset_matrices(ctx2, lab, ring)}
        assert len(keys) == base


def _unipotent_label(ctx, mu, rng):
    """A label whose P and Q are products of random unitriangular residue
    matrices, so both are invertible and neither is the identity."""
    ring, n = ctx.label_ring, ctx.n
    els = list(ring.elements())

    def tri(lower):
        return GroupMatrix(ring, [[
            FieldElement.make(ring, 0, ring.one()) if i == j
            else FieldElement.make(ring, 0, els[rng.randrange(len(els))])
            if (i > j) == lower else FieldElement.zero(ring)
            for j in range(n)] for i in range(n)])

    P = (tri(True) * tri(False)).residue_matrix(ctx.m)
    Q = (tri(False) * tri(True)).residue_matrix(ctx.m)
    return CosetLabel(mu, P, Q, ctx.m)


_TRANSVERSAL_SIDES = {
    "base-mixed": lambda: base_side("F", MIXED, 2, 1),
    "base-equal": lambda: base_side("F", EQUAL, 3, 1),
    "unramified": lambda: extension_side("E", base_side("F", MIXED, 2, 1), UNRAMIFIED, 3),
    "ramified": lambda: extension_side("E", base_side("F", MIXED, 3, 1), RAMIFIED, 2),
}


@pytest.mark.parametrize("side, mu", [
    *((side, mu) for side in _TRANSVERSAL_SIDES for mu in [(0, 1), (0, 2), (-1, 1)]),
    ("base-mixed", (0, 0, 1)), ("base-mixed", (0, 0, 2))],
    ids=lambda v: v if isinstance(v, str) else ",".join(map(str, v)))
def test_transversal_matches_oracle(side, mu):
    n = len(mu)
    ctx = GroupContext(_TRANSVERSAL_SIDES[side](), n)
    lab = _unipotent_label(ctx, mu, random.Random(sum(mu) + 7 * n))
    ring = ctx.working_ring(default_pi_prec(ctx, [mu]))
    reps = left_coset_matrices(ctx, lab, ring)
    count = 1
    for i in range(n):
        for j in range(i):
            count *= ctx.residue_q ** (mu[i] - mu[j])
    assert len(reps) == ctx.coset_count(mu) == count
    g = lift_label(ctx, lab, ring)
    # list K_m/K_r when it is small; otherwise close {gK} under generators
    if ctx.residue_q ** (n * n * spread(mu)) <= 512:
        oracle = brute_left_cosets(ctx, g, mu)
    else:
        oracle = closure_left_cosets(ctx, g, mu)
    assert len(oracle) == count
    assert all(coset_matches(ctx, b, reps) == 1 for b in oracle)


def test_left_coset_key_invariance_across_precision(ctx2):
    lab = ctx2.unif_label((0, 1))
    r1 = ctx2.working_ring(6)
    r2 = ctx2.working_ring(12)
    k1 = ctx2.left_coset_key(lift_label(ctx2, lab, r1))
    k2 = ctx2.left_coset_key(lift_label(ctx2, lab, r2))
    assert k1 == k2


def _agree_residues(x, y):
    """x and y reduce alike at the least absolute precision of their entries,
    which reaches at least the congruence level of the caller."""
    level = min(min(e.abs_prec() for row in mat.rows for e in row) for mat in (x, y))
    level = min(level, x.ring.pi_level)
    return level, x.residue_matrix(level) == y.residue_matrix(level)


_KEY_SIDES = {
    "base-2": lambda: base_side("F", MIXED, 2, 1),
    "base-3": lambda: base_side("F", MIXED, 3, 1),
    "unramified": _TRANSVERSAL_SIDES["unramified"],
    "ramified": _TRANSVERSAL_SIDES["ramified"],
}


@pytest.mark.parametrize("side", list(_KEY_SIDES))
def test_left_coset_key_and_smith_x_match_their_inverse_formulas(side):
    # every transversal member of two labels per mu, at two working
    # precisions: the key equals the one with V = H^{-1} A by a matrix
    # inverse, and smith_cartan's x the inverse of its row transform
    ctx = GroupContext(_KEY_SIDES[side](), 2)
    rng = random.Random(11)
    for mu in [(0, 0), (0, 1), (0, 2)]:
        labels = [ctx.unif_label(mu), _unipotent_label(ctx, mu, rng)]
        for prec in (default_pi_prec(ctx, [mu]), 2 * default_pi_prec(ctx, [mu])):
            ring = ctx.working_ring(prec)
            for lab in labels:
                for g in left_coset_matrices(ctx, lab, ring):
                    assert ctx.left_coset_key(g) == left_coset_key_by_inverse(ctx, g)
                    level, same = _agree_residues(smith_of_matrix(ctx, g)[1],
                                                  smith_x_by_inverse(g))
                    assert same and level >= ctx.m


def test_starved_key_raises_like_the_inverse_formula():
    # an entry known only as O(pi^0) leaves V mod pi open, above or below
    # the diagonal; and mu = (0, 2) at pi-level 1 cannot certify its reduction
    ctx = GroupContext(base_side("F", MIXED, 2, 1), 2)
    ring = ctx.working_ring(6)
    one, unknown, zero = fe(ring, 0, 1), FieldElement.zero(ring, floor=0), FieldElement.zero(ring)
    starved = [GroupMatrix(ring, [[one, unknown], [zero, one]]),
               GroupMatrix(ring, [[one, zero], [unknown, one]])]
    lab = _unipotent_label(ctx, (0, 2), random.Random(4))
    starved += left_coset_matrices(ctx, lab, ctx.working_ring(1))
    for g in starved:
        for key in (ctx.left_coset_key, lambda h: left_coset_key_by_inverse(ctx, h)):
            with pytest.raises(InsufficientPrecisionError):
                key(g)


def test_an_unknown_multiplier_reaches_the_smith_transforms():
    # an entry known only as O(pi^0) below the pivot leaves x mod pi open,
    # and one beside it leaves y mod pi open: neither label can be named
    ctx = GroupContext(base_side("F", MIXED, 2, 1), 2)
    ring = ctx.working_ring(6)
    one, unknown, zero = fe(ring, 0, 1), FieldElement.zero(ring, floor=0), FieldElement.zero(ring)
    for g in (GroupMatrix(ring, [[one, zero], [unknown, one]]),
              GroupMatrix(ring, [[one, unknown], [zero, one]])):
        with pytest.raises(InsufficientPrecisionError):
            label_of(ctx, g)


_PRODUCT_SIDES = {
    **{(name, 2): side for name, side in _KEY_SIDES.items()},
    ("twisted", 2): lambda: base_side("F'", EQUAL, 3, 1, unif_unit=(2, 1)),
    ("base-2", 3): _KEY_SIDES["base-2"],
}


def _coords_agree(ctx, rows, g, shift):
    """The integral coordinate matrix ``rows`` equals pi_dist^-shift g as
    far as both are known."""
    want, ring, _, prec = integral_coords(ctx, g, shift)
    level = min(prec, ring.pi_level, g.ring.pi_level)
    return all(g.ring.residue(x, level) == ring.residue(y, level)
               for rx, ry in zip(rows, want) for x, y in zip(rx, ry))


@pytest.mark.parametrize("side, n", list(_PRODUCT_SIDES), ids=lambda v: str(v))
def test_lift_label_and_transversal_match_the_product_formula(side, n):
    # scaling by pi^(mu - mu_1) and building P u by column operations on
    # coordinates give the full precision-tracked products, shifted by the
    # central pi^(-mu_1), as far as those are known
    ctx = GroupContext(_PRODUCT_SIDES[(side, n)](), n)
    rng = random.Random(13)
    for mu in [(0,) * n, (0,) * (n - 1) + (1,), (-1,) + (2,) * (n - 1)]:
        ring = ctx.working_ring(default_pi_prec(ctx, [mu]))
        for lab in (ctx.unif_label(mu), _unipotent_label(ctx, mu, rng)):
            g, reps = lift_label_by_products(ctx, lab, ring)
            assert _coords_agree(ctx, ctx.label_matrix(lab, ring), g, mu[0])
            fast = ctx.left_coset_reps(lab, ring)
            assert len(fast) == len(reps)
            assert all(_coords_agree(ctx, x, y, mu[0]) for x, y in zip(fast, reps))


def test_q_inverse_is_taken_once_per_q_and_ring(monkeypatch):
    ctx = GroupContext(base_side("F", MIXED, 3, 1), 2)
    els = ctx.group_elements()[:4]
    rings = [ctx.working_ring(6), ctx.working_ring(8)]
    real = cartan.unimodular_inverse
    calls = []
    monkeypatch.setattr(cartan, "unimodular_inverse",
                        lambda ring, A: calls.append(A) or real(ring, A))
    for ring in rings:
        for Q in els:
            for P in els[:2]:
                for mu in [(0, 1), (0, 2)]:
                    ctx.label_matrix(CosetLabel(mu, P, Q, 1), ring)
                    ctx.left_coset_reps(CosetLabel(mu, P, Q, 1), ring)
    assert len(calls) == len(els) * len(rings)
    for ring in rings:
        for Q in els:
            inv = ctx._lift_inverse(Q, ring)
            assert _coords_agree(ctx, inv, lift_residue_matrix(ctx, Q, ring).inverse(), 0)
    assert len(calls) == len(els) * len(rings)


def test_q_inverse_memo_keeps_no_failed_inverse(monkeypatch):
    ctx = GroupContext(base_side("F", MIXED, 2, 1), 2)
    ring, Q = ctx.working_ring(6), ctx.unif_label((0, 0)).Q
    real = cartan.unimodular_inverse

    def refuse(ring, A):
        raise InvariantViolationError("refused")

    monkeypatch.setattr(cartan, "unimodular_inverse", refuse)
    with pytest.raises(InvariantViolationError):
        ctx._lift_inverse(Q, ring)
    monkeypatch.setattr(cartan, "unimodular_inverse", real)
    assert ctx._lift_inverse(Q, ring) == real(ring, ctx.lift_residue_matrix(Q, ring))


# -- double cosets ----------------------------------------------------------------

def test_same_double_coset_by_k_multiplication(ctx2):
    ring = ctx2.working_ring(6)
    g = unif_power_matrix(ctx2, (0, 1), ring)
    ks = k_elements(ctx2, ring, 3)
    assert same_double_coset(ctx2, g, ks[1] * g * ks[-5])


def test_same_double_coset_diag_swap_is_oracle_false(ctx2):
    # Same G(o)-Cartan invariant but different K_1-double cosets: every
    # element of K diag(1,pi) K reduces to diag(1,0) mod pi, while
    # diag(pi,1) reduces to diag(0,1).  Frozen from the exhaustive
    # membership scan at p=2, m=1.
    ring = ctx2.working_ring(6)
    g = unif_power_matrix(ctx2, (0, 1), ring)
    z = FieldElement.zero(ring)
    h = GroupMatrix(ring, [[fe(ring, 1, 1), z], [z, fe(ring, 0, 1)]])
    assert smith_of_matrix(ctx2, h)[0] == (0, 1)
    assert not same_double_coset(ctx2, g, h)


def test_same_double_coset_distinct_mu(ctx2):
    ring = ctx2.working_ring(6)
    assert not same_double_coset(ctx2, GroupMatrix.identity(ring, 2),
                                 unif_power_matrix(ctx2, (0, 1), ring))


def test_fingerprint_representative_independence(ctx3):
    rng = random.Random(17)
    ring = ctx3.working_ring(8)
    els = ctx3.group_elements()
    for _ in range(6):
        lab = CosetLabel((0, 1), els[rng.randrange(len(els))],
                         els[rng.randrange(len(els))], 1)
        relabeled = label_of(ctx3, lift_label(ctx3, lab, ring))
        assert fingerprint(ctx3, relabeled) == fingerprint(ctx3, lab)
        assert ctx3.canonical_label(relabeled) == ctx3.canonical_label(lab)


def test_second_representative_costs_one_key(monkeypatch):
    # label_of_matrix(k1 g k2) names the double coset of g by other residues
    ctx = GroupContext(base_side("F", MIXED, 3, 1), 2)
    rng = random.Random(23)
    els = ctx.group_elements()
    ring = ctx.working_ring(8)
    ks = k_elements(ctx, ring, 3)
    real = ctx.left_coset_key
    for mu in [(0, 1), (0, 2), (-1, 1)]:
        la = CosetLabel(mu, els[rng.randrange(len(els))], els[rng.randrange(len(els))], 1)
        fp = fingerprint(ctx, la)
        g = lift_label(ctx, la, ring)
        alt = label_of(ctx, ks[rng.randrange(len(ks))] * g * ks[rng.randrange(len(ks))])
        assert alt != la
        calls = []
        monkeypatch.setattr(ctx, "left_coset_key", lambda h: calls.append(h) or real(h))
        assert fingerprint(ctx, alt) == fp
        assert len(calls) == 1
        monkeypatch.undo()


# -- required precision ---------------------------------------------------------------

def test_required_precision_guarantee_exhaustive(ctx2):
    # every generator 1 + pi^{n_C} c E_ab of the level-n_C subgroup, at
    # congruence depth n_C = m + spread, conjugates into K_m under every g
    # in the window
    for mu, n_c in [((0, 1), 2), ((-1, 1), 3)]:
        assert n_c == ctx2.m + spread(mu)
        ring = ctx2.working_ring(n_c + 4)
        ident = GroupMatrix.identity(ring, 2)
        for lab in ctx2.enumerate_labels([mu]):
            g = lift_label(ctx2, lab, ring)
            ginv = g.inverse()
            for a in range(2):
                for b in range(2):
                    rows = [list(r) for r in ident.rows]
                    rows[a][b] = rows[a][b] + FieldElement.make(
                        ring, n_c, ring.one())
                    s = GroupMatrix(ring, rows)
                    conj = g * s * ginv
                    assert conj.residue_matrix(ctx2.m) == \
                        ident.residue_matrix(ctx2.m)


# -- enumeration -----------------------------------------------------------------------

def test_enumerate_labels_mu_zero_counts(ctx2):
    labs = ctx2.enumerate_labels([(0, 0)])
    assert len(labs) == 6  # |GL_2(F_2)|
    assert ctx2.group_order() == 6


def test_group_elements_short_closure_raises(monkeypatch):
    # a membership test that rejects one invertible matrix leaves the
    # listing one short of |GL_2(F_2)|
    ctx = GroupContext(base_side("F", MIXED, 2, 1), 2)
    rejected = ((0, 1), (1, 0))
    invertible = cartan.residue_invertible
    monkeypatch.setattr(cartan, "residue_invertible",
                        lambda ring, mat: mat != rejected and invertible(ring, mat))
    with pytest.raises(InvariantViolationError):
        ctx.group_elements()


@pytest.mark.parametrize("side, q", [
    (base_side("F", MIXED, 2, 1), 2),
    (base_side("F", MIXED, 3, 1), 3),
    (base_side("F", MIXED, 2, 2), 2),
    (extension_side("E", base_side("F", MIXED, 2, 1), UNRAMIFIED, 3), 8),
], ids=["Z/2", "F_3", "Z/4", "F_8"])
def test_residue_invertible_matches_determinant_oracle(side, q):
    # every 2 x 2 matrix over the level-1 (Z/4: level-2) ring, through both
    # outcomes of the one unit-pivot elimination: the membership test, and
    # the inverse, which is a two-sided inverse or a typed refusal
    ring = side.ring(side.base_level_m)
    one, zero = ring.one(), ring.zero()
    identity = ((one, zero), (zero, one))
    units = 0
    for entries in itertools.product(list(ring.elements()), repeat=4):
        mat = (entries[:2], entries[2:])
        expected = ring.is_unit(leibniz_det(ring, mat))
        assert cartan.residue_invertible(ring, mat) == expected, mat
        if expected:
            inv = unimodular_inverse(ring, mat)
            assert coord_mul(ring, mat, inv) == identity == coord_mul(ring, inv, mat), mat
        else:
            with pytest.raises(InvariantViolationError, match="not invertible modulo pi"):
                unimodular_inverse(ring, mat)
        units += expected
    assert units == group_order(2, q, ring.pi_level)


def test_enumerate_labels_level2_count():
    ctx = GroupContext(base_side("F", MIXED, 2, 2), 2)
    labs = ctx.enumerate_labels([(0, 0)])
    assert len(labs) == group_order(2, 2, 2) == 96


def test_enumerate_labels_empty_window(ctx2):
    assert ctx2.enumerate_labels([]) == []


def test_enumerate_labels_complete_and_distinct(ctx2):
    rng = random.Random(23)
    els = ctx2.group_elements()
    for mu in [(0, 0), (0, 1)]:
        labs = ctx2.enumerate_labels([mu])
        fps = [fingerprint(ctx2, lab) for lab in labs]
        assert len(set(fps)) == len(fps)
        for _ in range(12):
            cand = CosetLabel(mu, els[rng.randrange(len(els))],
                              els[rng.randrange(len(els))], 1)
            assert sum(1 for fp in fps if fp == fingerprint(ctx2, cand)) == 1


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2)])
def test_enumerate_labels_matches_fingerprint_bfs(p, m):
    # for n = 2 and spread >= 1 there are (q + 1) |G(o/pi^m)| / q double
    # cosets, whatever the spread; the labels are as many and pairwise
    # distinct by definition and by fingerprint, so they are all of them,
    # and they are the canonical labels of all |G|^2 pairs, in label order
    count = {(2, 1): 9, (3, 1): 64, (2, 2): 144}[(p, m)]
    assert (p + 1) * group_order(2, p, m) // p == count
    for mu in [(0, 1), (0, 2)]:
        ctx = GroupContext(base_side("F", MIXED, p, m), 2)
        labels = ctx.enumerate_labels([mu])
        assert len(labels) == count == ctx.group_order() ** 2 // ctx.gamma_order(mu)
        assert distinct_double_cosets(ctx, labels, ctx.working_ring(default_pi_prec(ctx, [mu])))
        assert len({fingerprint(ctx, lab) for lab in labels}) == count
        assert labels == canonical_window(ctx, mu)


@pytest.mark.parametrize("side, mu", [
    (base_side("F", EQUAL, 3, 1), (0, 1)),
    (base_side("F'", EQUAL, 3, 1, unif_unit=(2, 1)), (-1, 1)),
    (base_side("F", MIXED, 2, 1), (0, 1, 2)),
    (base_side("F", MIXED, 2, 1), (0, 0, 1)),
], ids=["F_3[t]", "twisted", "n=3", "n=3-central-pair"])
def test_walk_gives_the_fingerprint_walk_labels_in_its_order(side, mu):
    # the closed-form window is the brute-force one, in its order: the
    # canonical labels of all |G|^2 pairs, |G|^2 / |Gamma_mu| of them, with
    # pairwise distinct fingerprints
    ctx = GroupContext(side, len(mu))
    labels = ctx.enumerate_labels([mu])
    assert labels == canonical_window(ctx, mu)
    assert len({fingerprint(ctx, lab) for lab in labels}) == len(labels) == \
        ctx.group_order() ** 2 // ctx.gamma_order(mu)


def test_a_window_short_of_its_count_raises(monkeypatch):
    # a normal form of Q Y_mu taken over all of GL_n merges the classes of
    # Q Y_mu, so the window of GL_2(F_3) falls short of |G|^2 / |Gamma_mu|;
    # the count tells
    ctx = GroupContext(base_side("F", MIXED, 3, 1), 2)
    real = GroupContext._y_normal_form
    monkeypatch.setattr(GroupContext, "_y_normal_form",
                        lambda self, Q, mu: real(self, Q, (0,) * len(mu)))
    with pytest.raises(InvariantViolationError, match="normal forms give"):
        ctx.enumerate_labels([(0, 1)])


@pytest.mark.parametrize("case, p, l, count", [(UNRAMIFIED, 2, 3, 11025),
                                                (RAMIFIED, 3, 2, 12960)],
                         ids=["unramified", "ramified"])
def test_spread_one_extension_windows_list_under_the_default_budgets(case, p, l, count):
    # |G|^2 of either E side exceeds the default budget, but the labels of
    # its spread <= 1 window do not: each window is listed, every label a
    # fixed point of canonical_label
    ctx = Tower(p, 1, case=case, l=l).ctx["E"]
    mus = cochar_window(2, 0, 1)
    assert ctx.group_order() ** 2 > ctx.budget
    labels = ctx.enumerate_labels(mus)
    assert len(labels) == count == \
        sum(ctx.group_order() ** 2 // ctx.gamma_order(mu) for mu in mus)
    assert all(ctx.canonical_label(lab) == lab for lab in labels)


# -- canonical labels ----------------------------------------------------------------

_CANONICAL_WINDOWS = {
    "Z/2": lambda: base_side("F", MIXED, 2, 1),
    "Z/3": lambda: base_side("F", MIXED, 3, 1),
    "Z/4": lambda: base_side("F", MIXED, 2, 2),
    "F_3[t]": lambda: base_side("F", EQUAL, 3, 1),
    "twisted": lambda: base_side("F'", EQUAL, 3, 1, unif_unit=(2,)),
}


@pytest.mark.parametrize("side", list(_CANONICAL_WINDOWS))
def test_canonical_label_agrees_with_fingerprints_on_every_pair(side):
    # over all |G|^2 labels of each mu, canonical(a) = canonical(b) exactly
    # when fingerprint(a) = fingerprint(b): the two maps cut one partition
    # when the pairs (fingerprint, canonical) are as many as either alone;
    # and a canonical label names its own double coset
    ctx = GroupContext(_CANONICAL_WINDOWS[side](), 2)
    els, q = ctx.group_elements(), ctx.residue_q
    for mu in [(0, 1), (0, 2), (-1, 1), (0, 3)]:
        seen = {(fingerprint(ctx, lab), ctx.canonical_label(lab))
                for lab in (CosetLabel(mu, P, Q, ctx.m) for P in els for Q in els)}
        fps, canons = {fp for fp, _ in seen}, {c for _, c in seen}
        assert len(seen) == len(fps) == len(canons) == (q + 1) * ctx.group_order() // q
        assert all(fingerprint(ctx, c) == fp for fp, c in seen)


@pytest.mark.parametrize("side, n, mus, samples", [
    (lambda: base_side("F", MIXED, 2, 1), 3, [(0, 0, 1), (0, 1, 1), (0, 1, 2)], 40),
    (lambda: base_side("F'", MIXED, 2, 3, unif_unit=(1, 1)), 2, [(0, 1), (0, 2)], 40),
    (lambda: base_side("F'", EQUAL, 3, 2, unif_unit=(2,)), 2, [(0, 1)], 40),
    # each fingerprint on an extension side lists a transversal over its
    # larger working ring, so these sides take fewer samples
    *((lambda tower=tower, name=name: Tower(*tower).ctx[name].side, 2, [(0, 1), (0, 2)], 12)
      for tower in [(2, 1, 2, "unramified", 3), (3, 1, 2, "ramified", 2)]
      for name in ("E", "E'")),
], ids=["n=3", "twisted-Z/8", "twisted-F_3[t]/t^2",
        "unramified-E", "unramified-E'", "ramified-E", "ramified-E'"])
def test_canonical_label_agrees_with_fingerprints_on_sampled_pairs(side, n, mus, samples):
    # b = k lift(a) k' with k, k' in K_m names a's double coset by
    # definition, and c is a random label.  The twisted sides have a
    # distinguished uniformizer pi w with w - 1 a unit or pi times a unit,
    # so x0 = pi^mu y pi^-mu must carry w's powers below the diagonal.
    ctx = GroupContext(side(), n)
    rng = random.Random(29)
    for mu in mus:
        ring = ctx.working_ring(default_pi_prec(ctx, [mu]))
        for _ in range(samples):
            a, c = random_label(ctx, rng, [mu]), random_label(ctx, rng, [mu])
            b = label_of(ctx, random_k_element(ctx, ring, rng) * lift_label(ctx, a, ring)
                                    * random_k_element(ctx, ring, rng))
            assert fingerprint(ctx, a) == fingerprint(ctx, b)
            assert ctx.canonical_label(a) == ctx.canonical_label(b)
            assert (ctx.canonical_label(a) == ctx.canonical_label(c)) \
                == (fingerprint(ctx, a) == fingerprint(ctx, c))


def test_canonical_label_of_a_central_mu_is_its_level_m_class():
    # spread 0: Gamma_mu is the diagonal of G x G, so the canonical label
    # depends on P Q^{-1} alone, and the |G|^2 labels fall into |G| classes
    ctx = GroupContext(base_side("F", MIXED, 3, 1), 2)
    els = ctx.group_elements()
    classes = {}
    for P in els:
        for Q in els:
            Q_inv = lift_residue_matrix(ctx, Q, ctx.label_ring).inverse().residue_matrix(1)
            key = residue_mat_mul(ctx, P, Q_inv)
            classes.setdefault(key, set()).add(ctx.canonical_label(CosetLabel((1, 1), P, Q, 1)))
    assert len(classes) == len(els)
    assert all(len(canons) == 1 for canons in classes.values())
    assert len({c for canons in classes.values() for c in canons}) == len(els)


def test_canonical_label_answers_on_an_extension_side():
    # |G|^2 is over the budget on both extension sides of the unramified
    # tower, yet a label there gets its canonical label without any table,
    # fixed by canonical_label and naming the double coset of its input
    for name in ("E", "E'"):
        ctx = Tower(2, 1, case="unramified", l=3).ctx[name]
        assert ctx.group_order() ** 2 > ctx.budget
        rng = random.Random(5)
        for _ in range(6):
            lab = random_label(ctx, rng, [(0, 1), (0, 2)])
            canon = ctx.canonical_label(lab)
            assert ctx.canonical_label(canon) == canon
            assert fingerprint(ctx, canon) == fingerprint(ctx, lab)


@pytest.mark.parametrize("side", list(_CANONICAL_WINDOWS))
def test_canonical_label_agrees_with_the_table_construction(side):
    # the tables list Y_mu and X0_mu and take the least member of each
    # orbit; the normal forms must cut the same partition of all |G|^2 labels
    ctx = GroupContext(_CANONICAL_WINDOWS[side](), 2)
    els = ctx.group_elements()
    for mu in [(0, 1), (0, 2), (-1, 1)]:
        seen = {(canonical_label_by_tables(ctx, lab), ctx.canonical_label(lab))
                for lab in (CosetLabel(mu, P, Q, ctx.m) for P in els for Q in els)}
        assert len(seen) == len({a for a, _ in seen}) == len({b for _, b in seen})


@pytest.mark.parametrize("side", list(_CANONICAL_WINDOWS))
def test_representative_names_the_listed_label_of_each_double_coset(side):
    # each window lists the canonical label of each of its double cosets,
    # so a listed label is its own representative: the windows are the
    # brute-force ones, and a context lists the same windows in any order
    # of request; a central window is (mu, x, I) for x in G
    ctx, fresh = (GroupContext(_CANONICAL_WINDOWS[side](), 2) for _ in range(2))
    mus = [(0, 0), (1, 1), (0, 1), (-1, 1)]
    for mu in mus:
        listed = ctx.enumerate_labels([mu])
        assert all(ctx.canonical_label(lab) == lab for lab in listed)
        assert listed == canonical_window(fresh, mu)
        if spread(mu) == 0:
            assert {lab.Q for lab in listed} == {ctx.unif_label(mu).Q}
    assert fresh.enumerate_labels(mus[::-1]) == ctx.enumerate_labels(mus)


def test_gamma_order_is_the_size_of_the_listed_groups():
    for side, n, mus in [(base_side("F", MIXED, 2, 2), 2, [(0, 0), (0, 1), (0, 2), (0, 3)]),
                         (base_side("F", MIXED, 2, 1), 3, [(0, 0, 1), (0, 1, 1), (0, 1, 2)])]:
        ctx = GroupContext(side, n)
        for mu in mus:
            t = tuple(min(ctx.m, mu[j] - mu[i]) for i in range(n) for j in range(i + 1, n))
            assert ctx.gamma_order(mu) == \
                len(subgroup(ctx, "Y", t)) * len(subgroup(ctx, "X", t))


@pytest.mark.parametrize("side, mus", [
    (base_side("F", MIXED, 3, 1), cochar_window(2, 0, 2)),
    (base_side("F", EQUAL, 3, 1), cochar_window(2, 0, 1)),
    (extension_side("E", base_side("F", MIXED, 2, 1), UNRAMIFIED, 3), [(0, 0), (1, 1)]),
    (extension_side("E", base_side("F", MIXED, 3, 1), RAMIFIED, 2), [(0, 0), (1, 1)]),
    (extension_side("E", base_side("F", EQUAL, 3, 1), RAMIFIED, 2), [(0, 0)]),
], ids=["base-mixed", "base-equal", "unramified", "ramified", "ramified-equal"])
def test_sort_key_orders_like_flattened_residues(side, mus):
    # a label sorts as its tuple (mu, P, Q, level), which within one context
    # is the order of (mu, flattened P, flattened Q); the E sides enumerate
    # their central windows only, to keep the test small
    labels = GroupContext(side, 2).enumerate_labels(mus)
    assert len(set(labels)) == len(labels)
    shuffled = random.Random(5).sample(labels, len(labels))
    flat = sorted(shuffled, key=lambda lab: (lab.mu, flatten(lab.P), flatten(lab.Q)))
    assert sorted(shuffled) == flat == labels


def test_enumerate_deterministic_order(ctx3):
    labs1 = ctx3.enumerate_labels([(0, 1), (0, 0)])
    ctx_fresh = GroupContext(base_side("F", MIXED, 3, 1), 2)
    labs2 = ctx_fresh.enumerate_labels([(0, 1), (0, 0)])
    assert labs1 == labs2


def test_enumeration_budget_guard():
    # budget bounds the labels of one window and pair_budget the group
    # listed, |GL_2(Z/9)| = 3,888; the spread window (0, 1) holds
    # 3,888^2 / 2,916 = 5,184 labels, so a budget of 5,183 refuses it and
    # the default budget lists it, although |G|^2 is over 10^7
    ctx = GroupContext(base_side("F", MIXED, 3, 2), 2, budget=10)
    with pytest.raises(BudgetExceededError):
        ctx.enumerate_labels([(0, 1)])
    ctx2 = GroupContext(base_side("F", MIXED, 3, 2), 2, pair_budget=10)
    with pytest.raises(BudgetExceededError):
        ctx2.enumerate_labels([(0, 0)])
    with pytest.raises(BudgetExceededError, match="5184 labels"):
        GroupContext(base_side("F", MIXED, 3, 2), 2, budget=5183).enumerate_labels([(0, 1)])
    ctx3 = GroupContext(base_side("F", MIXED, 3, 2), 2)
    assert ctx3.group_order() ** 2 > ctx3.budget
    assert len(ctx3.enumerate_labels([(0, 1)])) == 5184


# -- stabilizer -------------------------------------------------------------------------

def test_gamma_stabilizer_mu_zero_is_diagonal(ctx2):
    members = gamma_stabilizer(ctx2, (0, 0))
    assert len(members) == 6
    assert all(x == y for x, y in members)
    idm = tuple(tuple(ctx2.label_ring.one() if i == j else ctx2.label_ring.zero()
                      for j in range(2)) for i in range(2))
    assert (idm, idm) in members


def test_gamma_stabilizer_closed_under_pair_product(ctx2):
    members = gamma_stabilizer(ctx2, (0, 1))
    member_set = set(members)
    for (x1, y1) in members:
        for (x2, y2) in members:
            prod = (residue_mat_mul(ctx2, x1, x2), residue_mat_mul(ctx2, y1, y2))
            assert prod in member_set


def test_gamma_index_counts_labels(ctx2, ctx3):
    # orbit-stabilizer: |Gamma_mu| * #labels = |G(o/pi)|^2, with Gamma_mu
    # found by definition, independently of enumerate_labels
    for ctx, total in ((ctx2, 36), (ctx3, 48 * 48)):
        for mu in [(0, 0), (0, 1)]:
            labs = ctx.enumerate_labels([mu])
            assert len(gamma_stabilizer(ctx, mu)) * len(labs) == total


# -- sigma on matrices (the oracle of the residue action) ------------------------

@pytest.fixture(scope="module")
def ctx_ram():
    side = extension_side("E", base_side("F", MIXED, 3, 1), RAMIFIED, 2)
    return GroupContext(side, 2)


def test_sigma_on_group_fixes_base_points(ctx_ram):
    ring = ctx_ram.working_ring(6)
    g = GroupMatrix.from_residue(
        ring, tuple(tuple(ring.from_int(c) for c in row) for row in ((1, 2), (1, 0))),
        2)
    sg = sigma_on_group(ctx_ram, g)
    assert sg.residue_matrix(4) == g.residue_matrix(4)


def test_sigma_on_group_order_l(ctx_ram):
    ring = ctx_ram.working_ring(6)
    rng = random.Random(9)
    g = random_field_matrix(ctx_ram, ring, rng)
    s2 = sigma_on_group(ctx_ram, sigma_on_group(ctx_ram, g))
    for row_a, row_b in zip(s2.rows, g.rows):
        for a, b in zip(row_a, row_b):
            assert a.is_zero_marker() == b.is_zero_marker()
            if not a.is_zero_marker():
                assert (a.v, a.unit) == (b.v, b.unit)


def test_sigma_on_group_zeta_scaling(ctx_ram):
    # sigma(diag(1, pi)) = diag(1, -pi) = diag(1, pi) diag(1, -1)
    ring = ctx_ram.working_ring(6)
    g = unif_power_matrix(ctx_ram, (0, 1), ring)
    sg = sigma_on_group(ctx_ram, g)
    z = FieldElement.zero(ring)
    expected = GroupMatrix(ring, [
        [fe(ring, 0, 1), z],
        [z, FieldElement(ring, 1, ring.neg(ring.one()), ring.pi_level)]])
    assert same_double_coset(ctx_ram, sg, expected)
    assert sg.rows[1][1].unit == ring.neg(ring.one())


# -- windows and labels ------------------------------------------------------------------

def test_cochar_window_and_antidominance():
    win = cochar_window(2, 0, 2, max_spread=2)
    assert (0, 0) in win and (0, 2) in win and (2, 0) not in win
    with pytest.raises(Exception):
        check_antidominant((1, 0))
    assert spread((0, 2)) == 2


def _filtered_window(n, lo, hi, s):
    return [mu for mu in itertools.product(range(lo, hi + 1), repeat=n)
            if list(mu) == sorted(mu) and (s is None or spread(mu) <= s)]


def test_cochar_window_is_the_filtered_full_window():
    for n in (1, 2, 3):
        for lo in range(-2, 4):
            for hi in range(-2, 4):
                for s in (None, 0, 1, 2):
                    assert cochar_window(n, lo, hi, max_spread=s) == _filtered_window(n, lo, hi, s)
    assert cochar_window(0, 0, 3) == [()]


def test_a_wide_central_window_lists_only_its_members():
    # the spread bound applies while generating: the 20,001 central tuples,
    # not the 200 million of the full window
    win = cochar_window(2, 0, 20_000, max_spread=0)
    assert win == [(a, a) for a in range(20_001)]


def test_label_json_roundtrip(ctx_ram):
    lab = ctx_ram.unif_label((0, 1))
    d = ctx_ram.label_to_json(lab)
    back = ctx_ram.label_from_json(d)
    assert back == lab


def test_inverse_refuses_a_pivot_under_a_zero_floor():
    # column 0 holds pi * 1, certified, and O(pi^0): the unknown entry could
    # be the smaller pivot
    ring = GroupContext(base_side("F", MIXED, 2, 1), 2).working_ring(6)
    g = GroupMatrix(ring, [[FieldElement.zero(ring, floor=0), fe(ring, 0, 1)],
                           [fe(ring, 1, 1), fe(ring, 0, 1)]])
    with pytest.raises(InsufficientPrecisionError):
        g.inverse()


def test_certified_min_takes_the_first_least_entry():
    ring = GroupContext(base_side("F", MIXED, 2, 1), 2).working_ring(6)
    cells = [(fe(ring, 2, 1), "a"), (fe(ring, 1, 1), "b"), (fe(ring, 1, 3), "c"),
             (FieldElement.zero(ring, floor=4), "d")]
    assert certified_min(cells) == (1, "b")
    with pytest.raises(InsufficientPrecisionError):
        certified_min([(FieldElement.zero(ring, floor=3), "a")])


def test_decreasing_cartan_invariant_raises_typed_error(monkeypatch):
    # a pivot rule that takes the last nonzero entry puts pi before 1
    ctx = GroupContext(base_side("F", MIXED, 2, 1), 2)
    ring = ctx.working_ring(6)

    def last_nonzero(ring, a, k):
        return [(ring.val(x), i, j) for i in range(k, len(a)) for j, x in enumerate(a[i])
                if j >= k and not ring.is_zero(x)][-1]

    monkeypatch.setattr(cartan, "smith_pivot", last_nonzero)
    with pytest.raises(InvariantViolationError):
        ctx.smith_cartan(((ring.one(), ring.zero()), (ring.zero(), ring.unif())), ring)


def test_label_ring_at_the_wrong_level_raises_typed_error(monkeypatch):
    side = base_side("F", MIXED, 2, 1)
    ring_at = side.ring
    monkeypatch.setattr(side, "ring", lambda level: ring_at(level + 1))
    with pytest.raises(InvariantViolationError):
        GroupContext(side, 2)


def test_sigma_label_of_a_base_side_is_a_side_mismatch(ctx2):
    with pytest.raises(SideMismatchError):
        HeckeAlgebra(ctx2, CoeffField(3, 1)).sigma_label(ctx2.unif_label((0, 1)))


def test_insufficient_precision_surfaces():
    ctx = GroupContext(base_side("F", MIXED, 2, 1), 2)
    ring = ctx.working_ring(2)
    z_shallow = FieldElement.zero(ring, floor=1)
    g = GroupMatrix(ring, [[z_shallow, z_shallow], [z_shallow, z_shallow]])
    with pytest.raises(InsufficientPrecisionError):
        smith_of_matrix(ctx, g)


@pytest.mark.parametrize("model", [MIXED, EQUAL])
def test_with_retry_doubles_the_precision_until_smith_certifies(monkeypatch, model):
    # in [[1, 1], [1, 1 + pi^5]] the second pivot pi^5 is a zero floor at
    # pi-precision 2 and 4; at 8 it is certified, so mu = (0, 5)
    def smith_mu(ctx, seen):
        def run(prec):
            seen.append(prec)
            ring = ctx.working_ring(prec)
            one = FieldElement.make(ring, 0, ring.one())
            corner = FieldElement.make(ring, 0, ring.add(ring.one(), ring.mul_pi(ring.one(), 5)))
            return smith_of_matrix(ctx, GroupMatrix(ring, [[one, one], [one, corner]]))[0]
        return run

    seen = []
    ctx = GroupContext(base_side("F", model, 2, 1), 2)
    assert ctx.with_retry(smith_mu(ctx, seen), 2) == (0, 5)
    assert seen == [2, 4, 8]
    seen = []
    capped = GroupContext(base_side("F", model, 2, 1), 2)
    monkeypatch.setattr(capped, "precision_cap", 4)
    with pytest.raises(InsufficientPrecisionError):
        capped.with_retry(smith_mu(capped, seen), 2)
    assert seen == [2, 4]
