"""Close pairs, matched extension towers, the Kazhdan transfer, and the
verification suites (homomorphism, Galois equivariance, main diagram).

The transfer acts on labels only: level-m residue pairs move through the
closeness isomorphism coefficientwise and the cocharacter stays put.  Every
check computes its two sides through independent routes and reports exact
equality; failures carry full support tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import __version__
from .cartan import CosetLabel, GroupContext
from .coeffs import CoeffField
from .errors import ConfigError, InvariantViolationError, SideMismatchError
from .hecke import HeckeAlgebra, HeckeElement
from .matrices import cochar_window, coord_mul, residue_invertible, spread
from .rings import (
    EQUAL,
    MIXED,
    RAMIFIED,
    UNRAMIFIED,
    LocalFieldSide,
    RingIso,
    base_side,
    build_lambda,
    build_pi,
    extension_side,
)

EXHAUSTIVE_RING_BOUND = 4000


@dataclass
class ClosePair:
    F: LocalFieldSide
    Fp: LocalFieldSide
    m: int
    lam: RingIso


@dataclass
class ExtensionPair:
    base: ClosePair
    E: LocalFieldSide
    Ep: LocalFieldSide
    pi: RingIso


def build_close_pair(p, m, pair_mode="mixed-equal", unif_image=None) -> ClosePair:
    """The two supported closeness modes: mixed/equal at m = 1, and
    equal/equal at any m with a configurable uniformizer image; only the
    latter reads ``unif_image``, so the former refuses one."""
    if pair_mode == "mixed-equal":
        if m != 1:
            raise ConfigError("mixed/equal pairs exist only at closeness level m = 1")
        if unif_image is not None:
            raise ConfigError("a uniformizer image is read only by equal/equal pairs")
        F = base_side("F", MIXED, p, m)
        Fp = base_side("F'", EQUAL, p, m)
        lam = build_lambda(F.ring(m), Fp.ring(m))
    elif pair_mode == "equal-equal":
        image = tuple(unif_image) if unif_image else (1,)
        F = base_side("F", EQUAL, p, m)
        Fp = base_side("F'", EQUAL, p, m, unif_unit=image)
        lam = build_lambda(F.ring(m), Fp.ring(m), unif_image=image)
    else:
        raise ConfigError(f"unknown pair mode {pair_mode!r}")
    if lam.apply(F.unif_class(lam.domain)) != Fp.unif_class(lam.codomain):
        raise InvariantViolationError(
            "closeness iso must match the distinguished uniformizer classes")
    return ClosePair(F, Fp, m, lam)


def build_extension_pair(pair: ClosePair, kind, l) -> ExtensionPair:
    """Matched degree-l extensions over a close pair, with the induced
    extension iso and matched Galois generators verified eagerly."""
    E = extension_side("E", pair.F, kind, l)
    Ep = extension_side("E'", pair.Fp, kind, l)
    mb = pair.m
    pi = build_pi(pair.lam, E.ring(mb), Ep.ring(mb))
    _verify_extension_pair(pair, E, Ep, pi)
    return ExtensionPair(pair, E, Ep, pi)


def _verify_extension_pair(pair, E, Ep, pi):
    """Checks Pi on all of a ring up to EXHAUSTIVE_RING_BOUND elements, on seeded draws beyond."""
    dom, cod, base = pi.domain, pi.codomain, pair.F.ring(pair.m)
    sig, sigp = E.sigma(pair.m), Ep.sigma(pair.m)
    rng = random.Random(0)

    def draw(ring):
        return ring.element(rng.randrange(ring.size()))

    els = (list(dom.elements()) if dom.size() <= EXHAUSTIVE_RING_BOUND
           else [tuple(draw(dom.base) for _ in range(dom.l)) for _ in range(64)])
    inv = pi.inverse()

    def require(ok, what):
        if not ok:
            raise InvariantViolationError(f"extension pair: {what}")

    for a in els:
        fa = pi.apply(a)
        require(inv.apply(fa) == a, "Pi must be bijective")
        require(pi.apply(sig.apply_coords(a)) == sigp.apply_coords(fa),
                "Pi o sigma must equal sigma' o Pi")
        sa = a
        for _ in range(dom.l):
            sa = sig.apply_coords(sa)
        require(sa == a, "sigma must have order l")
    for b in els[:32]:
        for a in els[:32]:
            require(pi.apply(dom.mul(a, b)) == cod.mul(pi.apply(a), pi.apply(b)),
                    "Pi must be multiplicative")
            require(pi.apply(dom.add(a, b)) == cod.add(pi.apply(a), pi.apply(b)),
                    "Pi must be additive")
    xs = (base.elements() if base.size() <= EXHAUSTIVE_RING_BOUND
          else (draw(base) for _ in range(EXHAUSTIVE_RING_BOUND)))
    for x in xs:
        require(pi.apply(dom.embed(x)) == cod.embed(pair.lam.apply(x)),
                "Pi restricted to the base must be lambda")


class Tower:
    """All four sides with contexts and Hecke algebras, plus the transfers.
    ``case`` is None (F and F' only) or the kind of the degree-l sides E and
    E'.  An unknown case, a case without ``l`` and ``l == p`` raise
    ``ConfigError`` before any side is built; the builders check the rest."""

    def __init__(self, p, m, n=2, case=None, l=None, pair_mode="mixed-equal",
                 coeff_k=1, unif_image=None,
                 budget=10 ** 7, pair_budget=10 ** 4):
        if case not in (None, UNRAMIFIED, RAMIFIED):
            raise ConfigError(f"unknown case {case!r}: use None, {UNRAMIFIED!r} or {RAMIFIED!r}")
        if case is not None and l is None:
            raise ConfigError(f"the {case} case needs l, the extension degree")
        if l == p:
            raise ConfigError("l must differ from the residue characteristic p")
        self.p = p
        self.m = m
        self.n = n
        self.case = case
        # the coefficient field first: it refuses a composite or oversized l
        # before a degree-l ring is built
        self.field = CoeffField(l if l is not None else (3 if p == 2 else 2), coeff_k)
        self.pair = build_close_pair(p, m, pair_mode, unif_image)
        self.extpair = None
        if case is not None:
            self.extpair = build_extension_pair(self.pair, case, l)
        kw = dict(budget=budget, pair_budget=pair_budget)
        self.ctx = {"F": GroupContext(self.pair.F, n, **kw),
                    "F'": GroupContext(self.pair.Fp, n, **kw)}
        # side -> (closeness iso, Kazhdan target, Brauer target or None)
        lam = self.pair.lam
        self._routes = {"F": (lam, "F'", None), "F'": (lam.inverse(), "F", None)}
        if self.extpair is not None:
            self.ctx["E"] = GroupContext(self.extpair.E, n, **kw)
            self.ctx["E'"] = GroupContext(self.extpair.Ep, n, **kw)
            pi = self.extpair.pi
            self._routes.update({"E": (pi, "E'", "F"), "E'": (pi.inverse(), "E", "F'")})
        self.alg = {name: HeckeAlgebra(ctx, self.field)
                    for name, ctx in self.ctx.items()}

    # -- transfers ------------------------------------------------------------
    def _route(self, side):
        if side not in self._routes:
            raise SideMismatchError(f"unknown side {side!r}")
        return self._routes[side]

    def kaz_label(self, side, label):
        iso, target, _ = self._route(side)
        P = tuple(tuple(iso.apply(x) for x in row) for row in label.P)
        Q = tuple(tuple(iso.apply(x) for x in row) for row in label.Q)
        return CosetLabel(label.mu, P, Q, label.level), target

    def _route_of(self, f):
        """The route of f's side, once f is checked to lie on this tower."""
        route = self._route(f.algebra.side)
        self.alg[f.algebra.side]._check_same(f.algebra)
        return route

    def kaz(self, f: HeckeElement) -> HeckeElement:
        """Basis-label transport; coefficients unchanged."""
        side = f.algebra.side
        target = self.alg[self._route_of(f)[1]]
        return target.element([(self.kaz_label(side, lab)[0], c)
                               for lab, c in f.terms.values()])

    def brauer(self, f: HeckeElement) -> HeckeElement:
        target = self._route_of(f)[2]
        if target is None:
            raise SideMismatchError("Brauer restriction starts on an extension side")
        return f.algebra.brauer_restrict(f, self.alg[target])


# ---------------------------------------------------------------------------
# Reports

@dataclass
class Report:
    command: str
    config: dict
    samples: list = field(default_factory=list)

    @property
    def passed(self):
        return all(s.get("equal", True) for s in self.samples)

    def add(self, **kw):
        self.samples.append(kw)

    def to_json(self):
        return {"command": self.command,
                "config": self.config,
                "library_version": __version__,
                "samples": self.samples,
                "pass": self.passed}


def _sample_entry(kind, inputs, lhs, rhs):
    equal = lhs == rhs
    entry = {"kind": kind, "input": inputs, "equal": equal,
             "lhs": lhs.to_json(), "rhs": rhs.to_json()}
    if not equal:
        entry["firstDiff"] = _first_diff(lhs, rhs)
    return entry


def _first_diff(lhs, rhs):
    """The first label, in label order, whose coefficients in lhs and rhs
    differ, with both coefficients."""
    alg = lhs.algebra
    zero = (None, alg.field.zero())
    diffs = []
    for fp in lhs.terms.keys() | rhs.terms.keys():
        (la, a), (lb, b) = lhs.terms.get(fp, zero), rhs.terms.get(fp, zero)
        if a != b:
            label = la or lb
            diffs.append((label, a, b))
    label, a, b = min(diffs)
    return {"label": alg.context.label_to_json(label),
            "lhs": alg.field.coords_json(a), "rhs": alg.field.coords_json(b)}


def _random_residue_gl(ctx, rng):
    """Seeded random invertible residue matrix over the label ring."""
    ring, n, size = ctx.label_ring, ctx.n, ctx.label_ring.size()
    while True:
        mat = tuple(tuple(ring.element(rng.randrange(size)) for _ in range(n))
                    for _ in range(n))
        if residue_invertible(ring, mat):
            return mat


def random_label(ctx, rng, mus):
    mu = mus[rng.randrange(len(mus))]
    return CosetLabel(tuple(mu), _random_residue_gl(ctx, rng),
                      _random_residue_gl(ctx, rng), ctx.m)


# ---------------------------------------------------------------------------
# Check suites

def check_kaz_hom(tower: Tower, window_spread=2, samples=10, seed=0) -> Report:
    """Kaz(f * g) = Kaz(f) * Kaz(g) on cocharacter basis pairs in the window
    plus seeded random basis pairs, both products computed on their own side.
    Every Kazhdan route of the tower is checked: F -> F' first, then, when
    the tower has a case, E -> E' under sample names prefixed "E: "."""
    rng = random.Random(seed)
    rep = Report("check kaz-hom", {"p": tower.p, "m": tower.m, "n": tower.n,
                                   "window": window_spread, "samples": samples,
                                   "seed": seed})
    mus = cochar_window(tower.n, 0, window_spread, max_spread=window_spread)
    small = cochar_window(tower.n, 0, 1)
    routes = [("F", "F'", "")] + ([("E", "E'", "E: ")] if tower.case else [])
    for side, target, prefix in routes:
        H = tower.alg[side]
        pairs = [(H.unif_basis(lam_), H.unif_basis(mu_), f"{prefix}t[{lam_}]*t[{mu_}]")
                 for lam_ in mus for mu_ in mus]
        for i in range(samples):
            a = random_label(tower.ctx[side], rng, small)
            b = random_label(tower.ctx[side], rng, small)
            pairs.append((H.basis(a), H.basis(b), f"{prefix}random#{i}"))
        for f, g, name in pairs:
            lhs = tower.kaz(H.convolve(f, g))
            rhs = tower.alg[target].convolve(tower.kaz(f), tower.kaz(g))
            rep.add(**_sample_entry("kaz-hom", name, lhs, rhs))
    return rep


def check_galois_equivariance(tower: Tower, window_spread=2, samples=50,
                              seed=0) -> Report:
    """Kaz(sigma . f) = sigma' . Kaz(f) through independent routes."""
    rng = random.Random(seed)
    rep = Report("check galois-equivariance",
                 {"p": tower.p, "m": tower.m, "n": tower.n, "case": tower.case,
                  "window": window_spread, "samples": samples, "seed": seed})
    HE, HEp = tower.alg["E"], tower.alg["E'"]
    ctxE = tower.ctx["E"]
    labels = [ctxE.unif_label(mu)
              for mu in cochar_window(tower.n, 0, window_spread, max_spread=window_spread)]
    small = cochar_window(tower.n, 0, 1)
    labels += [random_label(ctxE, rng, small) for _ in range(samples)]
    for i, lab in enumerate(labels):
        f = HE.basis(lab)
        lhs = tower.kaz(HE.sigma_act(f))
        rhs = HEp.sigma_act(tower.kaz(f))
        rep.add(**_sample_entry("galois-equivariance", f"label#{i} mu={lab.mu}",
                                lhs, rhs))
    return rep


def structured_orbit_sums(tower: Tower, mu_spread, base_window, samples, seed):
    """The sigma-invariant sample family for the main diagram: orbit-sums of
    the cocharacter labels, of extension-side labels of base-side points, and
    of seeded random labels."""
    rng = random.Random(seed)
    HE = tower.alg["E"]
    ctxE, ctxF = tower.ctx["E"], tower.ctx["F"]
    e = tower.extpair.E.e
    sums = []
    names = []
    for mu in cochar_window(tower.n, 0, mu_spread, max_spread=mu_spread):
        sums.append(HE.sigma_orbit_sum(ctxE.unif_label(mu)))
        names.append(f"orbit-sum pi_{mu}")
    for nu in cochar_window(tower.n, 0, base_window, max_spread=base_window):
        for flab in ctxF.enumerate_labels([nu]):
            sums.append(HE.sigma_orbit_sum(ctxE.embed_base_label(flab)))
            names.append(f"orbit-sum of F-label {flab.mu}")
    small = cochar_window(tower.n, 0, max(1, mu_spread - (e - 1)))
    for i in range(samples):
        lab = random_label(ctxE, rng, small)
        sums.append(HE.sigma_orbit_sum(lab))
        names.append(f"random orbit-sum #{i}")
    return list(zip(names, sums))


def check_main_diagram(tower: Tower, mu_spread, base_window=1, samples=25,
                       seed=0) -> Report:
    """Kaz_m(Br(h)) = Br'(Kaz_em(h)) for every sample in the structured
    sigma-invariant family."""
    rep = Report("check main-diagram",
                 {"p": tower.p, "m": tower.m, "n": tower.n, "case": tower.case,
                  "muSpread": mu_spread, "baseWindow": base_window,
                  "samples": samples, "seed": seed})
    for name, h in structured_orbit_sums(tower, mu_spread, base_window, samples, seed):
        lhs = tower.kaz(tower.brauer(h))
        rhs = tower.brauer(tower.kaz(h))
        rep.add(**_sample_entry("main-diagram", name, lhs, rhs))
    return rep


def check_lemma_conv(tower: Tower, window_spread=2, elements=20, seed=0) -> Report:
    """Both convolution identities on the F side: cocharacter additivity over
    the window, and the three-factor identity for unit-group window elements."""
    alg = tower.alg["F"]
    ctx = alg.context
    rng = random.Random(seed)
    rep = Report("check lemma-conv",
                 {"p": ctx.side.p, "m": ctx.m, "n": ctx.n,
                  "window": window_spread, "elements": elements, "seed": seed})
    mus = cochar_window(ctx.n, -1, window_spread, max_spread=window_spread)
    lam_list = [mu for mu in mus if spread(mu) >= 1][:3]
    if elements and not lam_list:
        raise ConfigError(f"the three-factor identity needs a cocharacter of spread >= 1, "
                          f"and the window of spread {window_spread} at n = {ctx.n} has none")
    for lam_ in mus:
        for mu_ in mus:
            lhs = alg.convolve(alg.unif_basis(lam_), alg.unif_basis(mu_))
            rhs = alg.unif_basis(tuple(a + b for a, b in zip(lam_, mu_)))
            rep.add(**_sample_entry("cocharacter-additivity",
                                    f"{lam_}+{mu_}", lhs, rhs))
    window_elements = [_random_residue_gl(ctx, rng) for _ in range(elements)]
    for i, (x1, x2) in enumerate(zip(window_elements, reversed(window_elements))):
        lam_ = lam_list[i % len(lam_list)]
        # X1 pi^lam X2 = pi^lam_1 (X1 pi^(lam - lam_1) X2), whose largest
        # invariant is spread(lam), so pi^(m + spread) fixes its label
        ring = ctx.working_ring(ctx.m + spread(lam_))
        X1 = ctx.lift_residue_matrix(x1, ring)
        X2 = ctx.lift_residue_matrix(x2, ring)
        lhs = alg.basis(ctx.label_of_matrix(
            coord_mul(ring, X1, ctx.unif_scale_rows(lam_, X2, ring)), ring, lam_[0]))
        rhs = alg.convolve(alg.convolve(alg.basis(ctx.label_of_matrix(X1, ring)),
                                        alg.unif_basis(lam_)),
                           alg.basis(ctx.label_of_matrix(X2, ring)))
        rep.add(**_sample_entry("three-factor", f"x{i} around t[{lam_}]", lhs, rhs))
    return rep
