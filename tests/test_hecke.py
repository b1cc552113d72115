import random

import pytest

from closehecke.cartan import CosetLabel, GroupContext
from closehecke.coeffs import CoeffField
from closehecke.errors import (
    BudgetExceededError,
    InvariantViolationError,
    NotSigmaInvariantError,
    SideMismatchError,
)
from closehecke.hecke import HeckeAlgebra
from closehecke.matrices import cochar_window
from closehecke.rings import MIXED, RAMIFIED, UNRAMIFIED, base_side, extension_side

from closehecke.transfer import Tower, random_label

from helpers import (
    basis_product_mirrored,
    brauer_restrict_by_window,
    coeff_at,
    conv_coeff_double_sum,
    embedded_label_by_lift,
    fingerprint,
    hecke_unit,
    k_elements,
    label_of,
    lift_label,
    same_double_coset,
    sigma_label_by_lift,
    sigma_on_group,
)


@pytest.fixture(scope="module")
def HF2():
    return HeckeAlgebra(GroupContext(base_side("F", MIXED, 2, 1), 2), CoeffField(3, 1))


@pytest.fixture(scope="module")
def HF3():
    return HeckeAlgebra(GroupContext(base_side("F", MIXED, 3, 1), 2), CoeffField(2, 1))


@pytest.fixture(scope="module")
def ram_pair():
    F = base_side("F", MIXED, 3, 1)
    E = extension_side("E", F, RAMIFIED, 2)
    k = CoeffField(2, 1)
    return (HeckeAlgebra(GroupContext(E, 2), k), HeckeAlgebra(GroupContext(F, 2), k))


@pytest.fixture(scope="module")
def unram_pair():
    F = base_side("F", MIXED, 2, 1)
    E = extension_side("E", F, UNRAMIFIED, 3)
    k = CoeffField(3, 1)
    return (HeckeAlgebra(GroupContext(E, 2), k), HeckeAlgebra(GroupContext(F, 2), k))


def rand_label(ctx, rng, mus):
    els = ctx.group_elements()
    mu = mus[rng.randrange(len(mus))]
    return CosetLabel(mu, els[rng.randrange(len(els))],
                      els[rng.randrange(len(els))], ctx.m)


# -- algebra axioms ---------------------------------------------------------------

def test_inconsistent_double_coset_counts_raise(monkeypatch):
    # t_(0,1) * t_(0,1) = t_(0,2), whose four left cosets each receive one
    # product.  A transversal that repeats a coset sends two products to
    # some of them and one to the others, which breaks bi-invariance.
    H = HeckeAlgebra(GroupContext(base_side("F", MIXED, 2, 1), 2), CoeffField(3, 1))
    f = H.unif_basis((0, 1))
    reps = H.context.left_coset_reps

    def repeat_first(label, ring):
        out = reps(label, ring)
        return out + out[:1]

    monkeypatch.setattr(H.context, "left_coset_reps", repeat_first)
    with pytest.raises(InvariantViolationError):
        H.convolve(f, f)


def test_a_double_coset_missing_left_cosets_raises(monkeypatch):
    # t_(0,1) * t_(0,1) over Z/2 reaches all nine left cosets of t_(0,2) at
    # p = 3, each once.  A transversal of K pi^(0,1) K that drops a coset
    # reaches four of them, still with one count each.
    H = HeckeAlgebra(GroupContext(base_side("F", MIXED, 3, 1), 2), CoeffField(2, 1))
    f = H.unif_basis((0, 1))
    reps = H.context.left_coset_reps

    def drop_last(label, ring):
        out = reps(label, ring)
        return out[:-1] if label.mu == (0, 1) else out

    monkeypatch.setattr(H.context, "left_coset_reps", drop_last)
    with pytest.raises(InvariantViolationError, match="the 9 left cosets"):
        H.convolve(f, f)


def test_a_transversal_short_for_every_label_raises(monkeypatch):
    # every transversal drops its last coset, the one listed for the
    # double coset a product reaches as well: the closed-form index tells
    H = HeckeAlgebra(GroupContext(base_side("F", MIXED, 3, 1), 2), CoeffField(2, 1))
    f = H.unif_basis((0, 1))
    reps = H.context.left_coset_reps
    monkeypatch.setattr(H.context, "left_coset_reps", lambda label, ring: reps(label, ring)[:-1])
    with pytest.raises(InvariantViolationError):
        H.convolve(f, f)


def test_basis_product_counts_every_pair_of_left_cosets():
    H = HeckeAlgebra(GroupContext(base_side("F", MIXED, 2, 1), 2), CoeffField(3, 1))
    ctx = H.context
    rng = random.Random(31)
    la, lb = rand_label(ctx, rng, [(0, 1)]), rand_label(ctx, rng, [(0, 1)])
    product = H._basis_product(la, lb)
    sizes = [len(fingerprint(ctx, lab)[1]) for lab, _ in product]
    # every left coset of every double coset reached, each with its count
    assert sum(cnt * size for (_, cnt), size in zip(product, sizes)) == \
        len(fingerprint(ctx, la)[1]) * len(fingerprint(ctx, lb)[1])
    assert max(sizes) > 1
    for lab, cnt in product:
        assert conv_coeff_double_sum(ctx, la, lb, lab) == cnt


def test_every_basis_product_of_a_window_matches_the_double_sum():
    # all 225 ordered pairs of the 15 labels of cocharacters (0,0) and (0,1)
    # at p = 2, m = 1: every count by the double sum, and the counts cover
    # the |A| |B| pairs of left cosets
    H = HeckeAlgebra(GroupContext(base_side("F", MIXED, 2, 1), 2), CoeffField(3, 1))
    ctx = H.context
    labels = ctx.enumerate_labels([(0, 0), (0, 1)])
    assert len(labels) == 15
    for la in labels:
        for lb in labels:
            product = H._basis_product(la, lb)
            assert sum(cnt * ctx.coset_count(lab.mu) for lab, cnt in product) == \
                ctx.coset_count(la.mu) * ctx.coset_count(lb.mu)
            for lab, cnt in product:
                assert conv_coeff_double_sum(ctx, la, lb, lab) == cnt, (la, lb, lab)


@pytest.mark.parametrize("pair,index", [("unram_pair", 0), ("unram_pair", 1),
                                        ("ram_pair", 0), ("ram_pair", 1)])
def test_basis_product_agrees_with_its_mirrored_route(request, pair, index):
    # c_D(a, b) = c_{D^-1}(b^-1, a^-1) on seeded pairs over F and E of both
    # towers, cocharacters in [-1, 2] with spread at most 2
    H = request.getfixturevalue(pair)[index]
    ctx = H.context
    mus = [(a, b) for a in range(-1, 3) for b in range(a, min(a + 2, 2) + 1)]
    rng = random.Random(17)
    for _ in range(40):
        la, lb = random_label(ctx, rng, mus), random_label(ctx, rng, mus)
        direct = {ctx.canonical_label(lab): cnt for lab, cnt in H._basis_product(la, lb)}
        assert direct == basis_product_mirrored(H, la, lb), (la, lb)


def test_unit_law(HF2):
    one = hecke_unit(HF2)
    for mu in [(0, 0), (0, 1), (-1, 1)]:
        f = HF2.unif_basis(mu)
        assert HF2.convolve(one, f) == f
        assert HF2.convolve(f, one) == f


def test_cocharacter_additivity(HF2, HF3):
    for H in (HF2, HF3):
        for lam in [(0, 0), (0, 1), (1, 2), (-1, 0)]:
            for mu in [(0, 1), (0, 2)]:
                lhs = H.convolve(H.unif_basis(lam), H.unif_basis(mu))
                assert lhs == H.unif_basis(tuple(a + b for a, b in zip(lam, mu)))


def test_associativity_seeded(HF2):
    rng = random.Random(41)
    ctx = HF2.context
    for _ in range(8):
        a = HF2.basis(rand_label(ctx, rng, [(0, 0), (0, 1)]))
        b = HF2.basis(rand_label(ctx, rng, [(0, 0), (0, 1)]))
        c = HF2.basis(rand_label(ctx, rng, [(0, 1)]))
        assert HF2.convolve(HF2.convolve(a, b), c) == HF2.convolve(a, HF2.convolve(b, c))


def test_bilinearity(HF2):
    F = HF2.field
    rng = random.Random(4)
    ctx = HF2.context
    a = HF2.basis(rand_label(ctx, rng, [(0, 1)]))
    b = HF2.basis(rand_label(ctx, rng, [(0, 1)]))
    c = HF2.basis(rand_label(ctx, rng, [(0, 0)]))
    two = F.from_int(2)
    lhs = HF2.convolve(a + HF2.element([(lab, two) for lab in b.support()]), c)
    bc = HF2.convolve(b, c)
    rhs = HF2.convolve(a, c) + HF2.element([(lab, F.mul(two, x)) for lab, x in bc.terms.values()])
    assert lhs == rhs


def test_convolution_against_double_sum_oracle(HF2, HF3):
    rng = random.Random(77)
    for H, spreads in ((HF2, [(0, 0), (0, 1), (0, 2)]), (HF3, [(0, 0), (0, 1)])):
        ctx = H.context
        for _ in range(4):
            la = rand_label(ctx, rng, spreads)
            lb = rand_label(ctx, rng, spreads)
            conv = H.convolve(H.basis(la), H.basis(lb))
            support = conv.support()
            for lc in support[:3]:
                count = conv_coeff_double_sum(ctx, la, lb, lc)
                assert H.field.from_int(count) == coeff_at(conv, lc)
                assert count % H.field.l != 0
            # an absent label has zero oracle count mod l
            absent = ctx.unif_label((0,) * ctx.n)
            if all(fingerprint(ctx, absent) != fingerprint(ctx, s) for s in support):
                count = conv_coeff_double_sum(ctx, la, lb, absent)
                assert count % H.field.l == 0


def test_structure_constants_representative_independent(HF2):
    # replace each factor label by a different representative pair of the
    # same double coset (a k-translate re-run through the Cartan
    # decomposition) and compare the products fingerprint-by-fingerprint
    rng = random.Random(8)
    ctx = HF2.context
    ring = ctx.working_ring(8)
    la = ctx.unif_label((0, 1))
    base = HF2.convolve(HF2.basis(la), HF2.basis(la))
    ks = k_elements(ctx, ring, 3)
    for _ in range(4):
        k1 = ks[rng.randrange(len(ks))]
        k2 = ks[rng.randrange(len(ks))]
        alt = label_of(ctx, k1 * lift_label(ctx, la, ring) * k2)
        assert fingerprint(ctx, alt) == fingerprint(ctx, la)
        out = HF2.convolve(HF2.basis(alt), HF2.basis(alt))
        assert out == base


def test_a_product_over_budget_is_refused_before_its_working_ring(monkeypatch):
    # t_(0,30) * t_(0,30) over F_2 lists 2^30 cosets of the right factor
    H = Tower(2, 1, l=3).alg["F"]
    monkeypatch.setattr(H.context, "working_ring",
                        lambda prec: pytest.fail("built a ring over budget"))
    t = H.unif_basis((0, 30))
    with pytest.raises(BudgetExceededError, match=r"holds 2\^30 cosets, over budget"):
        H.convolve(t, t)


def test_side_mismatch(HF2, HF3):
    with pytest.raises(SideMismatchError):
        HF2.convolve(hecke_unit(HF2), hecke_unit(HF3))


# -- Galois action -----------------------------------------------------------------

def test_sigma_act_fixes_base_supported(ram_pair):
    HE, HF = ram_pair
    ctxE = HE.context
    # a label whose representatives live over the base field
    f = hecke_unit(HE) + HE.element([(ctxE.unif_label((0, 2)), HE.field.from_int(1))])
    assert HE.sigma_act(f) == f


def test_sigma_act_order_l(ram_pair, unram_pair):
    for HE, _ in (ram_pair, unram_pair):
        ctx = HE.context
        rng = random.Random(5)
        f = HE.basis(rand_label(ctx, rng, [(0, 1)]))
        g = f
        for _ in range(ctx.side.sigma(ctx.label_ring.level).l):
            g = HE.sigma_act(g)
        assert g == f


def test_sigma_act_is_algebra_automorphism(ram_pair):
    HE, _ = ram_pair
    ctx = HE.context
    rng = random.Random(6)
    for _ in range(3):
        f = HE.basis(rand_label(ctx, rng, [(0, 1)]))
        g = HE.basis(rand_label(ctx, rng, [(0, 0)]))
        assert HE.sigma_act(HE.convolve(f, g)) == \
            HE.convolve(HE.sigma_act(f), HE.sigma_act(g))


def test_sigma_relabel_matches_matrix_oracle(ram_pair):
    HE, _ = ram_pair
    ctx = HE.context
    lab = ctx.unif_label((0, 1))
    slab = HE.sigma_label(lab)
    ring = ctx.working_ring(8)
    assert same_double_coset(ctx, lift_label(ctx, slab, ring),
                             sigma_on_group(ctx, lift_label(ctx, lab, ring)))


_GALOIS_TOWERS = {
    "unramified": lambda: Tower(2, 1, case="unramified", l=3),
    "ramified": lambda: Tower(3, 1, case="ramified", l=2),
    "equal-equal-ramified": lambda: Tower(3, 2, case="ramified", l=2,
                                          pair_mode="equal-equal", unif_image=(2,)),
    "equal-equal-unramified": lambda: Tower(3, 2, case="unramified", l=2,
                                            pair_mode="equal-equal", unif_image=(2,)),
}


@pytest.mark.parametrize("tower", list(_GALOIS_TOWERS))
def test_sigma_label_matches_the_lift_oracle(tower):
    # the action on residues names the double coset that lifting the label,
    # applying sigma entrywise and re-running the Smith decomposition names;
    # the equal-equal towers carry a twisted uniformizer
    tw = _GALOIS_TOWERS[tower]()
    rng = random.Random(41)
    for name in ("E", "E'"):
        ctx, H = tw.ctx[name], tw.alg[name]
        for _ in range(10):
            lab = random_label(ctx, rng, [(0, 0), (0, 1), (0, 2), (-1, 1)])
            assert ctx.canonical_label(H.sigma_label(lab)) == \
                ctx.canonical_label(sigma_label_by_lift(ctx, lab))


@pytest.fixture(scope="module", params=["unramified", "ramified"])
def acceptance_tower(request):
    return _GALOIS_TOWERS[request.param]()


def test_sigma_is_multiplicative_of_order_l(acceptance_tower):
    # the main diagram takes sigma to be an algebra automorphism of order l:
    # on the window-2 cocharacter pairs plus seeded pairs, as kaz-hom draws
    # them, sigma(f g) = sigma(f) sigma(g) and sigma^l fixes every factor
    # and product
    tw = acceptance_tower
    HE, ctx = tw.alg["E"], tw.ctx["E"]
    l = ctx.side.sigma(ctx.label_ring.level).l
    mus = cochar_window(tw.n, 0, 2, max_spread=2)
    pairs = [(HE.unif_basis(a), HE.unif_basis(b)) for a in mus for b in mus]
    rng, small = random.Random(14), cochar_window(tw.n, 0, 1)
    pairs += [(HE.basis(random_label(ctx, rng, small)), HE.basis(random_label(ctx, rng, small)))
              for _ in range(10)]
    for f, g in pairs:
        fg = HE.convolve(f, g)
        assert HE.sigma_act(fg) == HE.convolve(HE.sigma_act(f), HE.sigma_act(g))
        for h in (f, g, fg):
            image = h
            for _ in range(l):
                image = HE.sigma_act(image)
            assert image == h


def test_sigma_label_on_a_window_slice_and_the_embedded_base_labels(acceptance_tower):
    # sigma_label against the lift oracle on a seeded slice of the spread <= 1
    # window of E, and sigma fixes every embedded label of F's window
    tw = acceptance_tower
    ctxE, ctxF, HE = tw.ctx["E"], tw.ctx["F"], tw.alg["E"]
    window = cochar_window(tw.n, 0, 1, max_spread=1)
    for lab in random.Random(14).sample(ctxE.enumerate_labels(window), 60):
        assert ctxE.canonical_label(HE.sigma_label(lab)) == \
            ctxE.canonical_label(sigma_label_by_lift(ctxE, lab))
    for flab in ctxF.enumerate_labels(window):
        label = ctxE.embed_base_label(flab)
        assert ctxE.canonical_label(HE.sigma_label(label)) == ctxE.canonical_label(label)


def test_sigma_label_keeps_the_invariant(ram_pair, unram_pair):
    # sigma acts on the residues P and Q alone, so mu never moves
    rng = random.Random(12)
    for HE, _ in (ram_pair, unram_pair):
        for _ in range(10):
            lab = rand_label(HE.context, rng, [(0, 1), (0, 2), (1, 1)])
            assert HE.sigma_label(lab).mu == lab.mu


def test_sigma_orbit_of_wrong_length_raises(monkeypatch):
    # l = 3: an action that swaps two labels has an orbit of length 2
    HE = HeckeAlgebra(GroupContext(extension_side("E", base_side("F", MIXED, 2, 1),
                                                  UNRAMIFIED, 3), 2), CoeffField(3, 1))
    a, b = HE.context.unif_label((0, 1)), HE.context.unif_label((1, 1))
    monkeypatch.setattr(HE, "sigma_label", lambda lab: b if lab == a else a)
    with pytest.raises(InvariantViolationError):
        HE.sigma_orbit(a)


def test_orbit_sum_properties(ram_pair, unram_pair):
    HE, _ = ram_pair
    ctx = HE.context
    stable = HE.sigma_orbit_sum(ctx.unif_label((0, 2)))
    assert len(stable.terms) == 1
    free = HE.sigma_orbit_sum(ctx.unif_label((0, 1)))
    assert len(free.terms) == ctx.side.e
    assert HE.is_sigma_invariant(stable) and HE.is_sigma_invariant(free)
    HEu, _ = unram_pair
    ring = HEu.context.label_ring
    T = ring.gen()
    idm = tuple(tuple(ring.one() if i == j else ring.zero() for j in range(2))
                for i in range(2))
    lab = CosetLabel((0, 0), ((T, ring.zero()), (ring.zero(), ring.one())), idm, 1)
    free_u = HEu.sigma_orbit_sum(lab)
    assert len(free_u.terms) == 3
    assert not HEu.is_sigma_invariant(HEu.basis(lab))
    assert HEu.is_sigma_invariant(free_u)
    assert HEu.is_sigma_invariant(hecke_unit(HEu))


# -- Brauer restriction --------------------------------------------------------------

def test_brauer_unit(ram_pair, unram_pair):
    for HE, HF in (ram_pair, unram_pair):
        assert HE.brauer_restrict(hecke_unit(HE), HF) == hecke_unit(HF)


def test_brauer_requires_sigma_invariance(unram_pair):
    HE, HF = unram_pair
    ring = HE.context.label_ring
    T = ring.gen()
    idm = tuple(tuple(ring.one() if i == j else ring.zero() for j in range(2))
                for i in range(2))
    lab = CosetLabel((0, 0), ((T, ring.zero()), (ring.zero(), ring.one())), idm, 1)
    with pytest.raises(NotSigmaInvariantError):
        HE.brauer_restrict(HE.basis(lab), HF)


def test_brauer_ramified_indivisible_mu_vanishes(ram_pair):
    HE, HF = ram_pair
    f = HE.sigma_orbit_sum(HE.context.unif_label((0, 1)))
    assert not HE.brauer_restrict(f, HF).terms


def test_brauer_ramified_divisible_support(ram_pair):
    HE, HF = ram_pair
    f = HE.sigma_orbit_sum(HE.context.unif_label((0, 2)))
    br = HE.brauer_restrict(f, HF)
    assert [lab.mu for lab in br.support()] and \
        all(lab.mu == (0, 1) for lab in br.support())
    assert coeff_at(br, HF.context.unif_label((0, 1))) == HF.field.one()


def test_brauer_multiplicative_samples(ram_pair, unram_pair):
    rng = random.Random(12)
    for HE, HF in (ram_pair, unram_pair):
        ctx = HE.context
        sums = [HE.sigma_orbit_sum(ctx.unif_label(mu)) for mu in
                [(0, 0), (0, ctx.side.e)]]
        sums.append(HE.sigma_orbit_sum(rand_label(ctx, rng, [(0, 1)])))
        for f in sums:
            for g in sums[:2]:
                lhs = HE.brauer_restrict(HE.convolve(f, g), HF)
                rhs = HF.convolve(HE.brauer_restrict(f, HF),
                                  HE.brauer_restrict(g, HF))
                assert lhs == rhs


def _fresh_ram_pair():
    F = base_side("F", MIXED, 3, 1)
    k = CoeffField(2, 1)
    return (HeckeAlgebra(GroupContext(extension_side("E", F, RAMIFIED, 2), 2), k),
            HeckeAlgebra(GroupContext(F, 2), k))


def _restrict_fresh(f):
    HE, HF = _fresh_ram_pair()
    return HE.brauer_restrict(HE.from_json(f.to_json()), HF).to_json()


def test_brauer_restrict_reads_only_the_terms_of_f(monkeypatch):
    # a restriction of k terms de-embeds at most k labels and, once the
    # windows it reaches are listed, lists no window again
    HE, HF = _fresh_ram_pair()
    ctxE, ctxF = HE.context, HF.context
    rng = random.Random(21)
    f = HE.sigma_orbit_sum(ctxE.unif_label((0, 2))) + \
        HE.sigma_orbit_sum(rand_label(ctxE, rng, [(0, 1)]))
    for flab in rng.sample(ctxF.enumerate_labels([(0, 0), (0, 1)]), 3):
        f = f + HE.sigma_orbit_sum(embedded_label_by_lift(ctxE, ctxF, flab))
    calls = []
    for ctx, name in ((ctxE, "base_label"), (ctxF, "enumerate_labels")):
        real = getattr(ctx, name)
        monkeypatch.setattr(ctx, name, lambda *a, _r=real, _n=name: calls.append(_n) or _r(*a))
    got = HE.brauer_restrict(f, HF)
    monkeypatch.undo()
    assert calls.count("base_label") <= len(f.terms)
    assert "enumerate_labels" not in calls
    assert len(got.terms) == 4
    assert got.to_json() == brauer_restrict_by_window(HE, f, HF).to_json()


def test_brauer_restrict_needs_no_smith_or_retry(monkeypatch):
    # base labels are named from their residues: with the Smith
    # decomposition and the precision retry of G(E) refused, the restriction
    # is the one a fresh pair computes
    HE, HF = _fresh_ram_pair()
    ctxE = HE.context
    rng = random.Random(23)
    f = HE.sigma_orbit_sum(ctxE.unif_label((0, 2)))
    for flab in rng.sample(HF.context.enumerate_labels([(0, 0), (0, 1)]), 3):
        f = f + HE.sigma_orbit_sum(embedded_label_by_lift(ctxE, HF.context, flab))

    def refuse(*args):
        raise AssertionError("brauer_restrict reached the Smith path")

    monkeypatch.setattr(ctxE, "smith_cartan", refuse)
    monkeypatch.setattr(ctxE, "with_retry", refuse)
    got = HE.brauer_restrict(f, HF)
    monkeypatch.undo()
    assert len(got.terms) == 4
    assert got.to_json() == _restrict_fresh(f)


def test_brauer_restrict_refuses_a_non_canonical_base_label(monkeypatch):
    # a de-embedded label is the restriction's term as it stands, so one
    # that spells its double coset by other residues than the canonical
    # ones is an invariant violation: here (2I, 2I), which (I, I) moves by
    # the scalar pair (2I, 2I) of Gamma_mu
    HE, HF = _fresh_ram_pair()
    ctxE, ring = HE.context, HF.context.label_ring
    two = ((ring.from_int(2), ring.zero()), (ring.zero(), ring.from_int(2)))
    real = ctxE.base_label

    def respelled(label):
        flab = real(label)
        return None if flab is None else flab._replace(P=two, Q=two)

    monkeypatch.setattr(ctxE, "base_label", respelled)
    with pytest.raises(InvariantViolationError, match="not a canonical label"):
        HE.brauer_restrict(HE.sigma_orbit_sum(ctxE.unif_label((0, 2))), HF)


def test_brauer_restrict_to_another_rank_is_a_side_mismatch():
    # the target shares the fixed-field side but not the rank n
    HE, HF = _fresh_ram_pair()
    F, k = HF.context.side, HF.field
    for n in (1, 3):
        with pytest.raises(SideMismatchError):
            HE.brauer_restrict(hecke_unit(HE), HeckeAlgebra(GroupContext(F, n), k))


@pytest.mark.parametrize("tower", list(_GALOIS_TOWERS))
def test_embed_base_label_matches_the_lift_oracle(tower):
    # naming a base-side label in G(E) from its residues gives the double
    # coset that lifting, embedding and Smith-decomposing it gives; the F'
    # sides of the equal-equal towers carry a twisted uniformizer
    tw = _GALOIS_TOWERS[tower]()
    rng = random.Random(43)
    for base, ext in (("F", "E"), ("F'", "E'")):
        ctxF, ctxE = tw.ctx[base], tw.ctx[ext]
        for nu in [(0, 0), (0, 1), (1, 1)]:
            if ctxF.group_order() ** 2 // ctxF.gamma_order(nu) <= 500:
                flabs = ctxF.enumerate_labels([nu])
            else:
                flabs = [random_label(ctxF, rng, [nu]) for _ in range(40)]
            for flab in flabs:
                assert ctxE.canonical_label(ctxE.embed_base_label(flab)) == \
                    ctxE.canonical_label(embedded_label_by_lift(ctxE, ctxF, flab))
                # canonical labels commute with the embedding, which is what
                # lets brauer_restrict de-embed the terms of f
                assert ctxE.canonical_label(ctxE.embed_base_label(flab)) == \
                    ctxE.embed_base_label(ctxF.canonical_label(flab))


@pytest.mark.parametrize("tower", list(_GALOIS_TOWERS))
def test_brauer_restrict_matches_the_window_walk(tower):
    # reading the terms of f gives what walking every base-side label of
    # f's windows gives, label for label, on both extension sides; the
    # equal-equal towers walk their (0, 0) window of 3,888 labels only, to
    # keep the oracle's Smith decompositions at tier-1 size
    tw = _GALOIS_TOWERS[tower]()
    rng = random.Random(47)
    for base, ext in (("F", "E"), ("F'", "E'")):
        HE, HF = tw.alg[ext], tw.alg[base]
        ctxE, ctxF = HE.context, HF.context
        e = ctxE.side.e
        nus = [(0, 0), (0, 1), (1, 1)] if ctxF.group_order() < 1000 else [(0, 0)]
        mus = [tuple(e * x for x in nu) for nu in nus]
        cochars = [HE.sigma_orbit_sum(ctxE.unif_label(mu)) for mu in mus]
        embedded = [HE.sigma_orbit_sum(embedded_label_by_lift(ctxE, ctxF, flab))
                    for flab in rng.sample(ctxF.enumerate_labels(nus), 4)]
        # on a ramified E, labels of indivisible mu restrict to 0
        rmus = mus + [(0, 1)] if e > 1 else mus
        randoms = [HE.sigma_orbit_sum(random_label(ctxE, rng, rmus)) for _ in range(3)]
        sums = [sum(embedded[1:], embedded[0]), cochars[-1] + randoms[0] + embedded[0],
                sum(randoms[1:], cochars[0])]
        restricted = []
        for f in cochars + embedded + randoms + sums:
            got = HE.brauer_restrict(f, HF)
            assert got.to_json() == brauer_restrict_by_window(HE, f, HF).to_json()
            restricted.append(len(got.terms))
        assert max(restricted) >= 4


# -- serialization ---------------------------------------------------------------------

def test_hecke_json_roundtrip(HF2):
    rng = random.Random(3)
    f = HF2.basis(rand_label(HF2.context, rng, [(0, 1)])) + \
        HF2.element([(HF2.context.unif_label((0, 0)), HF2.field.from_int(2))])
    doc = f.to_json()
    assert doc["side"] == "F" and doc["l"] == 3 and doc["k"] == 1
    back = HF2.from_json(doc)
    assert back == f
    assert back.to_json() == doc
