"""The mod-l Hecke algebra H(G, K) at congruence level m.

Elements are finitely supported maps from double-coset labels to F_{l^k};
support is keyed by canonical label, so no two stored labels name the same
coset.  Convolution counts left cosets with the Haar normalization
mu(K) = 1: the coefficient of t_c in t_a * t_b is #{(i, j) : a_i b_j K = c K}
reduced mod l.  Left multiplication by K permutes the left cosets a_i K of
K a K and fixes every double coset D, so the number n_D of b_j with
a_i b_j in D is the same for each a_i; the |A| n_D pairs landing in D share
its |D/K| left cosets evenly, so c_D = |A| n_D / |D/K| from one row.  Brauer
restriction reads the terms of f alone: a canonical label of G(E) that
``GroupContext.base_label`` de-embeds names the one double coset of G(F) in it.
"""

from __future__ import annotations

from .cartan import CosetLabel, GroupContext
from .coeffs import CoeffField
from .errors import (
    InvariantViolationError,
    NotSigmaInvariantError,
    SideMismatchError,
    SpecMismatchError,
    json_field,
)
from .matrices import coord_mul, spread


class HeckeElement:
    """Finitely supported label -> coefficient map over one side."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        # terms: dict canonical label -> (label, coeff); zero coeffs dropped
        self.algebra = algebra
        self.terms = terms

    def support(self):
        return sorted(lab for lab, _ in self.terms.values())

    def __add__(self, other):
        self.algebra._check_same(other.algebra)
        return self.algebra.element([*self.terms.values(), *other.terms.values()])

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self.algebra._check_same(other.algebra)
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[key][1] == other.terms[key][1] for key in self.terms)

    def __repr__(self):
        parts = [f"{c}*t[{lab.mu}]" for lab, c in sorted(self.terms.values())]
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        alg = self.algebra
        terms = sorted(self.terms.values())
        return {"side": alg.side,
                "l": alg.field.l,
                "k": alg.field.k,
                "terms": [{"label": alg.context.label_to_json(lab),
                           "coeff": alg.field.coords_json(c)} for lab, c in terms]}


class HeckeAlgebra:
    """H(G, K) for one side, with coefficients in F_{l^k}."""

    def __init__(self, context: GroupContext, field: CoeffField):
        if field.l == context.side.p:
            raise SpecMismatchError("coefficient characteristic l must differ from p")
        self.context = context
        self.field = field
        self.side = context.side.name

    def _check_same(self, other):
        if other is not self and (other.side != self.side or other.field != self.field):
            raise SideMismatchError(f"sides {self.side} and {other.side} differ")

    # -- constructors -------------------------------------------------------
    def element(self, pairs):
        F = self.field
        out = {}
        for lab, c in pairs:
            if F.is_zero(c):
                continue
            key = self.context.canonical_label(lab)
            if key in out:
                s = F.add(out[key][1], c)
                if F.is_zero(s):
                    del out[key]
                else:
                    out[key] = (out[key][0], s)
            else:
                out[key] = (lab, c)
        return HeckeElement(self, out)

    def basis(self, label):
        return self.element([(label, self.field.one())])

    def unif_basis(self, mu):
        return self.basis(self.context.unif_label(mu))

    # -- convolution ---------------------------------------------------------
    def _basis_product(self, la, lb):
        """The counts (label, c_D) of t_la * t_lb from one row: a = P pi^mu
        Q^{-1} against the transversal b_j of K b K, each product a b_j named
        by its Smith label and c_D = |A| n_D / |D/K| (module docstring).

        The products run on integral coordinates over o/pi^N with
        N = m + spread(mu_a) + spread(mu_b), which fixes every label: with the
        central shifts a' = pi^(-mu_a1) a and b_j' = pi^(-mu_b1) b_j, the
        largest Smith invariant of a' is spread(mu_a) and that of b_j' is
        spread(mu_b), since P, Q and the unipotent u lie in GL_n(o).  For
        integral g the largest invariant is -val(g^{-1}), and
        (a' b_j')^{-1} = b_j'^{-1} a'^{-1}, so lambda_n(a' b_j') <=
        spread(mu_a) + spread(mu_b) = N - m.  Any g' = g mod pi^(lambda_n + m)
        is g (1 + g^{-1}(g' - g)) with g^{-1}(g' - g) in pi^m M_n(o), so it
        lies in g K_m: every lift of a' b_j' mod pi^N names one double coset,
        and pi_dist^(mu_a1 + mu_b1) is central, so it adds to the invariant.
        ``smith_cartan`` checks the bound on each product."""
        ctx = self.context
        shift = la.mu[0] + lb.mu[0]
        ring = ctx.working_ring(ctx.m + spread(la.mu) + spread(lb.mu))
        a, size_a = ctx.label_matrix(la, ring), ctx.coset_count(la.mu)
        reached = {}
        for bj in ctx.left_coset_reps(lb, ring):
            lab = ctx.label_of_matrix(coord_mul(ring, a, bj), ring, shift)
            reached.setdefault(ctx.canonical_label(lab), [lab, 0])[1] += 1
        out = []
        for lab, n in reached.values():
            pairs, index = size_a * n, ctx.coset_count(lab.mu)
            if pairs % index:
                raise InvariantViolationError(
                    f"the {index} left cosets of double coset {lab.mu} "
                    f"cannot share {pairs} products evenly")
            out.append((lab, pairs // index))
        return tuple(out)

    def convolve(self, f: HeckeElement, g: HeckeElement) -> HeckeElement:
        self._check_same(f.algebra)
        self._check_same(g.algebra)
        F = self.field
        terms = []
        for la, ca in f.terms.values():
            for lb, cb in g.terms.values():
                c = F.mul(ca, cb)
                if F.is_zero(c):
                    continue
                for lab, cnt in self._basis_product(la, lb):
                    coeff = F.mul(c, F.from_int(cnt))
                    if not F.is_zero(coeff):
                        terms.append((lab, coeff))
        return self.element(terms)

    # -- Galois action ---------------------------------------------------------
    def sigma_label(self, label):
        """Image label of sigma . t_label, on the residues: sigma(pi) = zeta pi
        (zeta = 1 unramified) gives (mu, sigma(P) diag(zeta^mu_i), sigma(Q))."""
        ctx = self.context
        ring = ctx.label_ring
        gen = ctx.side.sigma(ring.level)
        zeta = ring.one() if gen.zeta is None else ring.embed(gen.zeta)
        scale = [ring.pow(zeta, k % gen.l) for k in label.mu]
        P = tuple(tuple(ring.mul(gen.apply_coords(x), z) for x, z in zip(row, scale))
                  for row in label.P)
        Q = tuple(tuple(gen.apply_coords(x) for x in row) for row in label.Q)
        return CosetLabel(label.mu, P, Q, label.level)

    def sigma_act(self, f: HeckeElement) -> HeckeElement:
        self._check_same(f.algebra)
        if self.context.side.base_side is None:
            raise SideMismatchError("Galois action lives on the extension side")
        return self.element([(self.sigma_label(lab), c) for lab, c in f.terms.values()])

    def sigma_orbit(self, label):
        ctx = self.context
        l = ctx.side.sigma(ctx.label_ring.level).l
        orbit = [label]
        seen = {ctx.canonical_label(label)}
        cur = label
        for _ in range(l - 1):
            cur = self.sigma_label(cur)
            canon = ctx.canonical_label(cur)
            if canon in seen:
                break
            seen.add(canon)
            orbit.append(cur)
        if len(orbit) not in (1, l):
            raise InvariantViolationError(
                f"sigma orbit of length {len(orbit)}, expected 1 or {l}")
        return orbit

    def sigma_orbit_sum(self, label) -> HeckeElement:
        one = self.field.one()
        return self.element([(lab, one) for lab in self.sigma_orbit(label)])

    def is_sigma_invariant(self, f: HeckeElement) -> bool:
        return self.sigma_act(f) == f

    # -- Brauer restriction -------------------------------------------------------
    def brauer_restrict(self, f: HeckeElement, target: "HeckeAlgebra") -> HeckeElement:
        """Restriction of a sigma-invariant function on G(E) to G(F), read
        off the terms of f.  Stabilizers in K_E x K_E are pro-p and sigma has
        order l != p, so (K_E g K_E)^sigma = K_F g K_F: a double coset of G(E)
        holds at most one of G(F), and that one takes f's value there.
        ``canonical_label`` commutes with the embedding (pi_F = pi_E^e), so
        ``base_label`` de-embeds a canonical term to F's canonical label,
        which is the term of the restriction as it stands: no window of G(F)
        is listed.  A de-embedded label that is not canonical is an
        InvariantViolationError."""
        self._check_same(f.algebra)
        ctxE = self.context
        ctxF = target.context
        if ctxE.side.base_side is not ctxF.side:
            raise SideMismatchError("target is not the fixed-field side of this tower")
        if ctxF.n != ctxE.n:
            raise SideMismatchError(f"target has rank {ctxF.n}, not {ctxE.n}")
        if self.field != target.field:
            raise SideMismatchError("coefficient fields differ")
        if not self.is_sigma_invariant(f):
            raise NotSigmaInvariantError("restriction is only defined on sigma-invariant elements")
        terms = []
        for canon, (_, c) in f.terms.items():
            flab = ctxE.base_label(canon)
            if flab is None:
                continue
            if ctxF.canonical_label(flab) != flab:
                raise InvariantViolationError(
                    f"{flab}, de-embedded from {canon}, is not a canonical label of G(F)")
            terms.append((flab, c))
        # in label order: a later sum or product keeps the first label it
        # meets for each double coset, and documents print that label
        return target.element(sorted(terms))

    # -- serialization ---------------------------------------------------------------
    def from_json(self, d):
        if d.get("side") not in (None, self.side):
            raise SideMismatchError(f"element is on side {d.get('side')!r}")
        if json_field(d["l"], int, "l") != self.field.l \
                or json_field(d.get("k", 1), int, "k") != self.field.k:
            raise SpecMismatchError("coefficient field mismatch")
        pairs = []
        for i, t in enumerate(json_field(d["terms"], list, "terms")):
            json_field(t, dict, f"terms[{i}]")
            pairs.append((self.context.label_from_json(t["label"], f"terms[{i}].label"),
                          self.field.coords_from_json(t["coeff"])))
        return self.element(pairs)
