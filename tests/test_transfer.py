import random

import pytest

from closehecke.cartan import CosetLabel
from closehecke.errors import ConfigError, GaloisConditionError
from closehecke.rings import EQUAL, MIXED
from closehecke.transfer import (
    Tower,
    build_close_pair,
    build_extension_pair,
    check_brauer_multiplicative,
    check_galois_equivariance,
    check_kaz_hom,
    check_lemma_conv,
    check_main_diagram,
    random_label,
)

from helpers import k_elements


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
    assert tower_unram.extpair.e == 1
    assert tower_unram.extpair.E.m == 1
    assert tower_ram.extpair.e == 2
    assert tower_ram.extpair.E.m == 2  # level doubles to em


def test_extension_pair_galois_condition():
    pair = build_close_pair(2, 1, "mixed-equal")
    with pytest.raises(GaloisConditionError):
        build_extension_pair(pair, "ramified", 3)


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
    f = tw.alg["F"].unif_basis((0, 2)).scale(F.from_int(1))
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
        reps.append(ctx.label_of_matrix(k1 * ctx.lift_label(lab, ring) * k2))
    fps = set()
    for rep in reps:
        moved, target = tw.kaz_label("F", rep)
        fps.add(ctxp.fingerprint(moved))
    assert len(fps) == 1


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
    h = tw.alg["E"].one()
    lhs = tw.kaz(tw.brauer(h))
    rhs = tw.brauer(tw.kaz(h))
    assert lhs == rhs == tw.alg["F'"].one()


def test_main_diagram_small(tower_unram, tower_ram):
    rep = check_main_diagram(tower_unram, mu_spread=1, base_window=0, samples=2, seed=3)
    assert rep.passed
    rep = check_main_diagram(tower_ram, mu_spread=2, base_window=0, samples=2, seed=3)
    assert rep.passed


def test_brauer_mult_small(tower_ram):
    rep = check_brauer_multiplicative(tower_ram, pairs=4, seed=5)
    assert rep.passed


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
    f = tower_ram.alg["F"].one()
    g = tower_ram.alg["F"].unif_basis((0, 1))
    entry = _sample_entry("forced", "demo", f, g)
    assert entry["equal"] is False and "lhs" in entry and "rhs" in entry
    assert all(("lhs" in s and "rhs" in s) for s in rep.samples)


def test_reports_deterministic(tower_ram):
    import json
    a = check_kaz_hom(tower_ram, window_spread=1, samples=3, seed=9).to_json()
    b = check_kaz_hom(tower_ram, window_spread=1, samples=3, seed=9).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
