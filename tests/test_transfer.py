import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from closehecke import transfer
from closehecke.errors import (
    ConfigError,
    GaloisConditionError,
    InvariantViolationError,
    SideMismatchError,
)
from closehecke.rings import (
    EQUAL,
    MIXED,
    BaseRing,
    ExtensionRing,
    RingIso,
    build_lambda,
    build_pi,
    extension_side,
)
from closehecke.transfer import (
    EXHAUSTIVE_RING_BOUND,
    Tower,
    _verify_extension_pair,
    build_close_pair,
    build_extension_pair,
    check_galois_equivariance,
    check_kaz_hom,
    check_lemma_conv,
    check_main_diagram,
    random_label,
)

from helpers import (
    check_brauer_multiplicative,
    coeff_at,
    fingerprint,
    hecke_unit,
    k_elements,
    label_of,
    lift_label,
)


@pytest.fixture(scope="module")
def tower_unram():
    return Tower(2, 1, case="unramified", l=3, pair_mode="mixed-equal")


@pytest.fixture(scope="module")
def tower_ram():
    return Tower(3, 1, case="ramified", l=2, pair_mode="mixed-equal")


# -- builders -----------------------------------------------------------------

def test_close_pair_modes():
    pair = build_close_pair(2, 1, "mixed-equal")
    assert pair.F.model == MIXED and pair.Fp.model == EQUAL
    pair2 = build_close_pair(3, 2, "equal-equal", unif_image=(2,))
    assert pair2.Fp.unif_unit == (2,)
    with pytest.raises(ConfigError):
        build_close_pair(3, 2, "mixed-equal")


def test_extension_pair_levels(tower_unram, tower_ram):
    assert tower_unram.extpair.E.e == 1
    assert tower_unram.extpair.E.m == 1
    assert tower_ram.extpair.E.e == 2
    assert tower_ram.extpair.E.m == 2  # level doubles to em


def test_extension_pair_galois_condition():
    pair = build_close_pair(2, 1, "mixed-equal")
    with pytest.raises(GaloisConditionError):
        build_extension_pair(pair, "ramified", 3)


@pytest.mark.parametrize("kw", [dict(case="ramified"), dict(case="wild", l=2),
                                dict(case="ramified", l=3)],
                         ids=["case-without-l", "unknown-case", "l-equals-p"])
def test_tower_rejects_its_own_bad_fields_before_building_a_side(monkeypatch, kw):
    def built(*args, **kwargs):
        pytest.fail("a side was built")

    monkeypatch.setattr(transfer, "build_close_pair", built)
    monkeypatch.setattr(transfer, "build_extension_pair", built)
    with pytest.raises(ConfigError):
        Tower(3, 1, **kw)


def _extension_parts(p, kind, l):
    pair = build_close_pair(p, 1, "mixed-equal")
    E = extension_side("E", pair.F, kind, l)
    Ep = extension_side("E'", pair.Fp, kind, l)
    return pair, E, Ep, build_pi(pair.lam, E.ring(1), Ep.ring(1))


def _twisted(pi, fwd, bwd):
    """Pi o fwd, with inverse bwd o Pi^-1."""
    inv = pi.inverse()
    return RingIso(pi.domain, pi.codomain, lambda a: pi.apply(fwd(a)),
                   lambda b: bwd(inv.apply(b)), {})


def _break_bijective(monkeypatch, pair, E, Ep, pi):
    dom = pi.domain
    return pair, RingIso(dom, pi.codomain, pi.apply, lambda b: dom.zero(), {})


def _break_sigma(monkeypatch, pair, E, Ep, pi):
    # Pi o (times T) sends sigma(a) T where sigma' o Pi gives sigma(a T)
    dom = pi.domain
    t, t_inv = dom.gen(), dom.inv(dom.gen())
    return pair, _twisted(pi, lambda a: dom.mul(a, t), lambda a: dom.mul(a, t_inv))


def _break_order(monkeypatch, pair, E, Ep, pi):
    # multiplication by T commutes with Pi, but T^3 != 1 in F_8
    for side in (E, Ep):
        monkeypatch.setattr(side, "sigma", lambda level, side=side: SimpleNamespace(
            apply_coords=lambda a, r=side.ring(level): r.mul(a, r.gen())))
    return pair, pi


def _break_mul(monkeypatch, pair, E, Ep, pi):
    # a -> 2a is additive and commutes with sigma, but 2ab != 4ab mod 3
    dom = pi.domain
    two = dom.from_int(2)
    return pair, _twisted(pi, lambda a: dom.mul(two, a), lambda a: dom.mul(two, a))


def _break_add(monkeypatch, pair, E, Ep, pi):
    # a -> a^3 is a multiplicative bijection of F_8 (inverse a^5), not additive
    dom = pi.domain
    return pair, _twisted(pi, lambda a: dom.pow(a, 3), lambda a: dom.pow(a, 5))


def _break_base(monkeypatch, pair, E, Ep, pi):
    lam = pair.lam
    zero = lam.codomain.zero()
    return replace(pair, lam=RingIso(lam.domain, lam.codomain, lambda a: zero,
                                     lambda b: b, {})), pi


@pytest.mark.parametrize("tower, breaker, what", [
    ((2, "unramified", 3), _break_bijective, "bijective"),
    ((2, "unramified", 3), _break_sigma, "sigma"),
    ((2, "unramified", 3), _break_order, "order l"),
    ((3, "ramified", 2), _break_mul, "multiplicative"),
    ((2, "unramified", 3), _break_add, "additive"),
    ((2, "unramified", 3), _break_base, "lambda"),
], ids=["bijective", "sigma", "order", "multiplicative", "additive", "base"])
def test_extension_pair_guards_raise_typed_errors(monkeypatch, tower, breaker, what):
    pair, E, Ep, pi = _extension_parts(*tower)
    _verify_extension_pair(pair, E, Ep, pi)          # the true data pass
    bad_pair, bad_pi = breaker(monkeypatch, pair, E, Ep, pi)
    with pytest.raises(InvariantViolationError, match=what):
        _verify_extension_pair(bad_pair, E, Ep, bad_pi)


@pytest.mark.parametrize("m, base_draws", [(5, 0), (12, EXHAUSTIVE_RING_BOUND)])
def test_extension_pair_draws_from_rings_over_the_bound(monkeypatch, m, base_draws):
    # E over F_2[t]/t^5 has 2^15 elements: 64 elements of E are drawn, three
    # base coordinates each.  At t^12 the base ring has 2^12 elements too,
    # and the restriction check draws EXHAUSTIVE_RING_BOUND of them
    listed, drawn = [], []
    for cls in (BaseRing, ExtensionRing):
        real = cls.elements
        monkeypatch.setattr(cls, "elements",
                            lambda ring, real=real: listed.append(ring.size()) or real(ring))
    real_element = BaseRing.element
    monkeypatch.setattr(BaseRing, "element",
                        lambda ring, i: drawn.append(i) or real_element(ring, i))
    Tower(2, m, case="unramified", l=3, pair_mode="equal-equal")
    assert max(listed, default=0) <= EXHAUSTIVE_RING_BOUND
    assert len(drawn) == 64 * 3 + base_draws


def test_close_pair_uniformizer_mismatch_raises_typed_error(monkeypatch):
    # lambda = identity cannot carry t to the class t (1 + t) of F' at m = 3
    monkeypatch.setattr(transfer, "build_lambda",
                        lambda F, Fp, unif_image=None: build_lambda(F, Fp))
    with pytest.raises(InvariantViolationError):
        build_close_pair(2, 3, "equal-equal", unif_image=(1, 1))


# -- kaz map ---------------------------------------------------------------------

def test_kaz_unif_basis_to_unif_basis(tower_unram):
    tw = tower_unram
    f = tw.alg["F"].unif_basis((0, 1))
    g = tw.kaz(f)
    assert g.algebra.side == "F'"
    assert g == tw.alg["F'"].unif_basis((0, 1))


def test_kaz_roundtrip_identity(tower_unram, tower_ram):
    rng = random.Random(2)
    for tw in (tower_unram, tower_ram):
        for side in ("F", "E"):
            alg = tw.alg[side]
            f = alg.basis(random_label(tw.ctx[side], rng, [(0, 1), (0, 0)]))
            assert tw.kaz(tw.kaz(f)) == f


def test_kaz_preserves_mu_and_coefficients(tower_ram):
    tw = tower_ram
    F = tw.field
    f = tw.alg["F"].element([(tw.ctx["F"].unif_label((0, 2)), F.from_int(1))])
    g = tw.kaz(f)
    assert [lab.mu for lab in g.support()] == [(0, 2)]
    assert list(g.terms.values())[0][1] == F.one()


def test_kaz_well_defined_across_representatives(tower_ram):
    # three representative pairs of one double coset transport into one
    # double coset on the other side
    tw = tower_ram
    ctx = tw.ctx["F"]
    ctxp = tw.ctx["F'"]
    ring = ctx.working_ring(8)
    ks = k_elements(ctx, ring, 3)
    rng = random.Random(9)
    lab = random_label(ctx, rng, [(0, 1)])
    reps = [lab]
    for _ in range(3):
        k1 = ks[rng.randrange(len(ks))]
        k2 = ks[rng.randrange(len(ks))]
        reps.append(label_of(ctx, k1 * lift_label(ctx, lab, ring) * k2))
    fps = set()
    for rep in reps:
        moved, target = tw.kaz_label("F", rep)
        fps.add(fingerprint(ctxp, moved))
    assert len(fps) == 1


def test_routes_refuse_an_unknown_side_and_brauer_from_a_base_side(tower_ram):
    tw = tower_ram
    with pytest.raises(SideMismatchError):
        tw.kaz_label("G", tw.ctx["F"].unif_label((0, 1)))
    for side in ("F", "F'"):
        with pytest.raises(SideMismatchError):
            tw.brauer(tw.alg[side].unif_basis((0, 1)))
    base_only = Tower(3, 1, l=2)
    with pytest.raises(SideMismatchError):
        base_only.kaz(tw.alg["E"].unif_basis((0, 1)))
    for side, (target, brauer_target) in {"F": ("F'", None), "F'": ("F", None),
                                          "E": ("E'", "F"), "E'": ("E", "F'")}.items():
        f = tw.alg[side].sigma_orbit_sum(tw.ctx[side].unif_label((0, 2))) \
            if brauer_target else tw.alg[side].unif_basis((0, 1))
        assert tw.kaz(f).algebra is tw.alg[target]
        assert tw.kaz_label(side, f.support()[0])[1] == target
        if brauer_target:
            assert tw.brauer(f).algebra is tw.alg[brauer_target]


# -- suites -----------------------------------------------------------------------

def test_kaz_hom_mixed_equal(tower_unram):
    rep = check_kaz_hom(tower_unram, window_spread=1, samples=4, seed=1)
    assert rep.passed and len(rep.samples) >= 9


def test_kaz_hom_equal_equal_nontrivial_lambda():
    tw = Tower(3, 2, case=None, l=2, pair_mode="equal-equal", unif_image=(2,))
    rep = check_kaz_hom(tw, window_spread=1, samples=2, seed=1)
    assert rep.passed


def test_galois_equivariance_both_cases(tower_unram, tower_ram):
    for tw in (tower_unram, tower_ram):
        rep = check_galois_equivariance(tw, window_spread=1, samples=4, seed=2)
        assert rep.passed


def test_main_diagram_unit_case(tower_ram):
    tw = tower_ram
    h = hecke_unit(tw.alg["E"])
    lhs = tw.kaz(tw.brauer(h))
    rhs = tw.brauer(tw.kaz(h))
    assert lhs == rhs == hecke_unit(tw.alg["F'"])


def test_main_diagram_small(tower_unram, tower_ram):
    rep = check_main_diagram(tower_unram, mu_spread=1, base_window=0, samples=2, seed=3)
    assert rep.passed
    rep = check_main_diagram(tower_ram, mu_spread=2, base_window=0, samples=2, seed=3)
    assert rep.passed


def test_main_diagram_over_a_twisted_ramified_base():
    # F' has the distinguished uniformizer 2t, so T^2 = 2t on E': base labels
    # of F' with entries of positive valuation name their double cosets of
    # G(E') only with that unit accounted for
    tw = Tower(3, 2, case="ramified", l=2, pair_mode="equal-equal", unif_image=(2,))
    HE, ctxE = tw.alg["E"], tw.ctx["E"]
    for flab in tw.ctx["F"].enumerate_labels([(0, 0)])[::300]:
        h = HE.sigma_orbit_sum(ctxE.embed_base_label(flab))
        assert tw.kaz(tw.brauer(h)) == tw.brauer(tw.kaz(h))


def test_brauer_mult_small(tower_ram):
    rep = check_brauer_multiplicative(tower_ram, pairs=4, seed=5)
    assert rep.passed


def test_brauer_restrict_on_a_second_tower_agrees(tower_ram):
    # brauer_restrict finds the terms of f through its own context, so an
    # element built on another tower with the same parameters restricts alike
    other = Tower(3, 1, case="ramified", l=2, pair_mode="mixed-equal")
    HE, HF = tower_ram.alg["E"], tower_ram.alg["F"]
    ctxE = HE.context
    rng = random.Random(19)
    f = HE.sigma_orbit_sum(ctxE.unif_label((0, 2)))
    for flab in rng.sample(HF.context.enumerate_labels([(0, 0), (0, 1)]), 3):
        f = f + HE.sigma_orbit_sum(ctxE.embed_base_label(flab))
    own = HE.brauer_restrict(f, HF)
    assert len(own.terms) == 4
    assert other.alg["E"].brauer_restrict(f, other.alg["F"]).to_json() == own.to_json()


def test_lemma_conv_small(tower_unram):
    rep = check_lemma_conv(tower_unram, window_spread=1, elements=4, seed=6)
    assert rep.passed


def test_report_shape_and_failure_diagnostics(tower_ram):
    rep = check_kaz_hom(tower_ram, window_spread=1, samples=1, seed=0)
    doc = rep.to_json()
    assert set(doc) == {"command", "config", "library_version", "samples", "pass"}
    assert doc["pass"] is True
    # every sample entry records lhs/rhs supports (diagnosability contract)
    from closehecke.transfer import _sample_entry
    f = hecke_unit(tower_ram.alg["F"])
    g = tower_ram.alg["F"].unif_basis((0, 1))
    entry = _sample_entry("forced", "demo", f, g)
    assert entry["equal"] is False and "lhs" in entry and "rhs" in entry
    # t[(0,0)] and t[(0,1)] both differ; the first in label order is named
    ctx, F = tower_ram.ctx["F"], tower_ram.alg["F"].field
    assert entry["firstDiff"] == {"label": ctx.label_to_json(ctx.identity_label()),
                                  "lhs": F.coords_json(F.one()),
                                  "rhs": F.coords_json(F.zero())}
    assert all(("lhs" in s and "rhs" in s) for s in rep.samples)


def test_failing_sample_names_its_first_differing_label(monkeypatch, tower_unram):
    # a convolution on F' that adds the unit moves exactly the identity
    # coset's coefficient, so every sample fails there and only there
    HFp = tower_unram.alg["F'"]
    ctx, F = HFp.context, HFp.field
    convolve = HFp.convolve
    monkeypatch.setattr(HFp, "convolve", lambda f, g: convolve(f, g) + hecke_unit(HFp))
    rep = check_kaz_hom(tower_unram, window_spread=1, samples=1, seed=1)
    assert rep.samples and not rep.passed
    for s in rep.samples:
        assert s["equal"] is False
        diff = s["firstDiff"]
        assert set(diff) == {"label", "lhs", "rhs"}
        label = ctx.label_from_json(diff["label"])
        assert fingerprint(ctx, label) == fingerprint(ctx, ctx.identity_label())
        c = coeff_at(HFp.from_json(s["lhs"]), label)
        assert diff["lhs"] == F.coords_json(c)
        assert diff["rhs"] == F.coords_json(F.add(c, F.one()))


def test_passing_samples_carry_no_first_diff(tower_ram):
    rep = check_kaz_hom(tower_ram, window_spread=1, samples=1, seed=0)
    assert rep.passed and all("firstDiff" not in s for s in rep.samples)


def test_reports_deterministic(tower_ram):
    import json
    a = check_kaz_hom(tower_ram, window_spread=1, samples=3, seed=9).to_json()
    b = check_kaz_hom(tower_ram, window_spread=1, samples=3, seed=9).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
