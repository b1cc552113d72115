"""Negative controls: each test plants a known fault by monkeypatch and
requires the check named for it to fail at tier-1 size: a check that no
planted fault can fail shows nothing (ROADMAP item 12).  A fault that no
commutation check can see is caught by the absolute oracle named for it.
"""

import pytest

from closehecke.cartan import CosetLabel, GroupContext
from closehecke.errors import InvariantViolationError
from closehecke.hecke import HeckeAlgebra
from closehecke.transfer import (
    Tower,
    check_kaz_hom,
    check_lemma_conv,
    check_main_diagram,
    structured_orbit_sums,
)

from helpers import brauer_restrict_by_window, check_brauer_multiplicative, nonzero_samples


def _equal_tower(p, m, image=None):
    return Tower(p, m, case=None, l=(3 if p == 2 else 2), pair_mode="equal-equal",
                 unif_image=image)


def _doubled_brauer(monkeypatch):
    """Br followed by multiplication by 2, on every Brauer route of a tower:
    E to F and E' to F' alike."""
    real = Tower.brauer

    def brauer(self, f):
        out = real(self, f)
        F = out.algebra.field
        return out.algebra.element([(lab, F.add(c, c)) for lab, c in out.terms.values()])

    monkeypatch.setattr(Tower, "brauer", brauer)


# (p, m, uniformizer image) of equal-equal towers whose closeness iso moves
# a label coordinate.  At p = 2, m = 2 every iso is the identity on
# F_2[t]/t^2 (c_1 t + c_2 t^2 = t there), so copying labels without lambda
# changes nothing and kaz-hom passes: that tower is no control and is not
# used.
@pytest.mark.parametrize("p, m, image", [(3, 2, (2,)), (2, 3, (1, 1))],
                         ids=["p3-m2-2t", "p2-m3-t+t2"])
def test_kaz_without_lambda_fails_kaz_hom(monkeypatch, p, m, image):
    tower = _equal_tower(p, m, image)
    assert check_kaz_hom(tower, window_spread=1, samples=10, seed=0).passed
    monkeypatch.setattr(Tower, "kaz_label",
                        lambda self, side, label: (label, self._route(side)[1]))
    assert not check_kaz_hom(tower, window_spread=1, samples=10, seed=0).passed


@pytest.mark.parametrize("p", [2, 3])
def test_swapped_convolution_passes_kaz_hom_and_fails_lemma_conv(monkeypatch, p):
    # Kaz transports both products alike, so only the three-factor identity
    # of lemma-conv sees the order of the factors
    tower = _equal_tower(p, 2)
    assert check_lemma_conv(tower, window_spread=1, elements=6).passed
    real = HeckeAlgebra.convolve
    monkeypatch.setattr(HeckeAlgebra, "convolve", lambda self, f, g: real(self, g, f))
    assert check_kaz_hom(tower, window_spread=1, samples=10, seed=0).passed
    assert not check_lemma_conv(tower, window_spread=1, elements=6).passed


def test_doubled_brauer_fails_criterion_7(monkeypatch):
    # criterion 7's verdict: every pair equal and at least 10 with a nonzero
    # side.  On the unramified tower (l = 3) Br(f) Br(g) picks up a factor
    # 4 = 1 and Br(f g) a factor 2; on the ramified tower l = 2, so 2 Br is 0, every
    # sample compares 0 with 0, and the nonzero minimum is what fails
    towers = {"unramified": Tower(2, 1, case="unramified", l=3),
              "ramified": Tower(3, 1, case="ramified", l=2)}
    _doubled_brauer(monkeypatch)
    reps = {name: check_brauer_multiplicative(tower, pairs=25, seed=70)
            for name, tower in towers.items()}
    assert not reps["unramified"].passed
    assert reps["ramified"].passed and nonzero_samples(reps["ramified"]) < 10


def test_a_fault_alike_on_br_and_br_prime_needs_the_absolute_oracle(monkeypatch):
    # 2 Br and 2 Br' commute with Kaz as Br and Br' do, so the main diagram
    # passes, on samples with a nonzero side; Br(h) read off the base-side
    # windows by brauer_restrict_by_window, which runs no Brauer route of
    # the tower, catches the fault
    tower = Tower(2, 1, case="unramified", l=3)
    HE, HF = tower.alg["E"], tower.alg["F"]
    samples = structured_orbit_sums(tower, 1, 0, 4, 60)
    assert all(tower.brauer(h) == brauer_restrict_by_window(HE, h, HF) for _, h in samples)
    _doubled_brauer(monkeypatch)
    rep = check_main_diagram(tower, mu_spread=1, base_window=0, samples=4, seed=60)
    assert rep.passed and nonzero_samples(rep) >= 1
    assert any(tower.brauer(h) != brauer_restrict_by_window(HE, h, HF) for _, h in samples)


def _base_label_without_round_trip(self, label):
    """``GroupContext.base_label`` less its embed_base_label(flab) == label
    test: it de-embeds labels that meet no double coset of G(F)."""
    e = self.side.e
    P, Q = (tuple(tuple(x[0] for x in row) for row in R) for R in (label.P, label.Q))
    return CosetLabel(tuple(x // e for x in label.mu), P, Q, self.side.base_level_m)


def test_base_label_without_its_round_trip_is_caught(monkeypatch):
    # Brauer restriction reads de-embedded labels as they stand.  On the
    # ramified tower the fault de-embeds terms of odd mu too: where the
    # label it makes is not canonical, brauer_restrict's canonicity guard
    # raises, which stops the main diagram; where it is canonical, Br(h)
    # gains a term, and brauer_restrict_by_window, which de-embeds nothing,
    # catches it
    tower = Tower(3, 1, case="ramified", l=2)
    HE, HF = tower.alg["E"], tower.alg["F"]
    samples = [h for _, h in structured_orbit_sums(tower, 1, 0, 6, 60)]
    assert all(HE.brauer_restrict(h, HF) == brauer_restrict_by_window(HE, h, HF)
               for h in samples)
    monkeypatch.setattr(GroupContext, "base_label", _base_label_without_round_trip)
    with pytest.raises(InvariantViolationError, match="is not a canonical label of G"):
        check_main_diagram(tower, mu_spread=1, base_window=0, samples=6, seed=60)
    guarded = wrong = 0
    for h in samples:
        try:
            got = HE.brauer_restrict(h, HF)
        except InvariantViolationError:
            guarded += 1
            continue
        wrong += got != brauer_restrict_by_window(HE, h, HF)
    assert guarded >= 1 and wrong >= 1


def _embed_dropping_the_unit(real):
    """``GroupContext.embed_base_label`` with the twisted-uniformizer fault
    of the lift-and-embed route it replaced: the natural pi_F^nu goes to
    T^(e nu), dropping its unit w^-nu.  The distinguished pi_F^nu is
    pi_nat^nu w^nu, so it lands on T^(e nu) w^nu: column j of P picks up
    w^nu_j, w the base side's distinguished unit."""
    def embed(self, flab):
        base = self.side.base_side
        ring = base.ring(self.side.base_level_m)
        w = base.unif_unit_coords(ring)
        P = tuple(tuple(ring.mul(x, ring.pow(w, k)) for x, k in zip(row, flab.mu))
                  for row in flab.P)
        return real(self, CosetLabel(flab.mu, P, flab.Q, flab.level))

    return embed


def test_an_embedding_that_drops_the_uniformizer_unit_fails_the_main_diagram(monkeypatch):
    # lambda(t) = 2t gives F' the distinguished uniformizer 2t, so w = 2 and
    # w^nu = 2 for odd nu; F's w = 1 hides the fault on the E -> F route.
    # Br' drops the terms of odd nu, so the main diagram fails on exactly the
    # cocharacter orbit sums pi_(0,2) and pi_(2,2), which hold the embedded
    # labels of nu = (0,1) and (1,1)
    def tower():
        return Tower(3, 2, case="ramified", l=2, pair_mode="equal-equal", unif_image=(2,))

    args = dict(mu_spread=2, base_window=0, samples=0, seed=60)
    assert check_main_diagram(tower(), **args).passed
    monkeypatch.setattr(GroupContext, "embed_base_label",
                        _embed_dropping_the_unit(GroupContext.embed_base_label))
    rep = check_main_diagram(tower(), **args)
    assert {s["input"] for s in rep.samples if not s["equal"]} == \
        {"orbit-sum pi_(0, 2)", "orbit-sum pi_(2, 2)"}
