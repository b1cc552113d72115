"""Acceptance suite.

One test per criterion, each printing a PASS line with its runtime and
asserting the stated budget.  All comparisons are exact: characteristic-l
arithmetic admits no tolerances.
"""

import json
import random
import time

import pytest

from closehecke.cartan import GroupContext
from closehecke.coeffs import CoeffField
from closehecke.errors import InsufficientPrecisionError
from closehecke.hecke import HeckeAlgebra
from closehecke.rings import MIXED, base_side
from closehecke.tate import (
    CyclicModule,
    frobenius_twist,
    image_basis,
    kernel_basis,
    linkage_check,
    mat_identity,
    mat_mul,
    mat_sub,
    norm_operator,
    tate_cohomology,
)
from closehecke.transfer import (
    Tower,
    check_galois_equivariance,
    check_kaz_hom,
    check_lemma_conv,
    check_main_diagram,
    random_label,
)

from helpers import (
    check_brauer_multiplicative,
    coeff_at,
    conv_coeff_double_sum,
    hecke_unit,
    integral_coords,
    minor_valuation_mu,
    random_field_matrix,
    smith_reconstruction,
    transport_module,
)


def _report(criterion, passed, elapsed, budget, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} in {elapsed:.1f}s "
          f"(budget {budget}s){': ' + detail if detail else ''}")
    assert passed, f"criterion {criterion} failed: {detail}"
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s ({elapsed:.1f}s)"


@pytest.fixture(scope="module")
def tower_unram():
    return Tower(2, 1, case="unramified", l=3, pair_mode="mixed-equal")


@pytest.fixture(scope="module")
def tower_ram():
    return Tower(3, 1, case="ramified", l=2, pair_mode="mixed-equal")


def test_criterion_01_cartan_snf_oracle():
    t0 = time.perf_counter()
    total = 0
    for p in (2, 3):
        for n in (2, 3):
            ctx = GroupContext(base_side("F", MIXED, p, 1), n)
            ring = ctx.working_ring(6)
            rng = random.Random(1000 * p + n)
            done = 0
            while done < 125:
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
            total += done
    _report(1, total >= 500, time.perf_counter() - t0, 10,
            f"{total} matrices, mu oracle + reconstruction")


def test_criterion_02_lemma_conv_suite():
    t0 = time.perf_counter()
    ok = True
    counts = []
    for p in (2, 3):
        tower = Tower(p, 1, case=None, pair_mode="mixed-equal")
        rep = check_lemma_conv(tower, window_spread=2, elements=20, seed=20 + p)
        ok = ok and rep.passed
        counts.append(len(rep.samples))
    _report(2, ok, time.perf_counter() - t0, 60,
            f"identities over {counts} samples for p=2,3")


def test_criterion_03_hecke_axioms():
    t0 = time.perf_counter()
    algebras = {}
    for p, l in ((2, 3), (3, 2)):
        algebras[p] = HeckeAlgebra(GroupContext(base_side("F", MIXED, p, 1), 2),
                                   CoeffField(l, 1))
    # unit law, exactly
    for H in algebras.values():
        one = hecke_unit(H)
        for mu in [(0, 0), (0, 1), (0, 2), (-1, 1)]:
            f = H.unif_basis(mu)
            assert H.convolve(one, f) == f and H.convolve(f, one) == f
    # associativity on >= 100 seeded triples
    triples = 0
    for p, H in algebras.items():
        rng = random.Random(300 + p)
        ctx = H.context
        for _ in range(50):
            a = H.basis(random_label(ctx, rng, [(0, 0), (0, 1)]))
            b = H.basis(random_label(ctx, rng, [(0, 0), (0, 1)]))
            c = H.basis(random_label(ctx, rng, [(0, 0), (0, 1)]))
            assert H.convolve(H.convolve(a, b), c) == H.convolve(a, H.convolve(b, c))
            triples += 1
    # double-sum oracle on >= 50 basis pairs
    pairs = 0
    for p, H in algebras.items():
        rng = random.Random(400 + p)
        ctx = H.context
        windows = [(0, 0), (0, 1), (0, 2)] if p == 2 else [(0, 0), (0, 1)]
        quota = 28 if p == 2 else 22
        for _ in range(quota):
            la = random_label(ctx, rng, windows)
            lb = random_label(ctx, rng, windows)
            conv = H.convolve(H.basis(la), H.basis(lb))
            support = conv.support()
            for lc in support[:2]:
                count = conv_coeff_double_sum(ctx, la, lb, lc)
                assert H.field.from_int(count) == coeff_at(conv, lc)
            pairs += 1
    _report(3, triples >= 100 and pairs >= 50, time.perf_counter() - t0, 120,
            f"{triples} associativity triples, {pairs} oracle pairs")


def test_criterion_04_kazhdan_homomorphism():
    t0 = time.perf_counter()
    ok = True
    ran = []
    configs = [
        (2, 1, "mixed-equal", None),
        (3, 1, "mixed-equal", None),
        (2, 2, "equal-equal", (1, 1)),
        (3, 2, "equal-equal", (2,)),
        # at p = 2, m = 2 every closeness iso is the identity on F_2[t]/t^2;
        # at m = 3, t + t^2 moves the t^2 coordinate
        (2, 3, "equal-equal", (1, 1)),
    ]
    for p, m, mode, image in configs:
        tower = Tower(p, m, case=None, l=(3 if p == 2 else 2), pair_mode=mode,
                      unif_image=image)
        rep = check_kaz_hom(tower, window_spread=2, samples=10, seed=40 + p + m)
        ok = ok and rep.passed
        ran.append(f"p={p} {mode} m={m}: {len(rep.samples)}")
    _report(4, ok, time.perf_counter() - t0, 120, "; ".join(ran))


def test_criterion_05_galois_equivariance(tower_unram, tower_ram):
    t0 = time.perf_counter()
    ok = True
    for tower in (tower_unram, tower_ram):
        rep = check_galois_equivariance(tower, window_spread=2, samples=50,
                                        seed=50)
        ok = ok and rep.passed
    _report(5, ok, time.perf_counter() - t0, 120,
            "unramified p=2 l=3 and ramified p=3 l=2")


def test_criterion_06_main_theorem(tower_unram, tower_ram):
    t0 = time.perf_counter()
    rep_u = check_main_diagram(tower_unram, mu_spread=1, base_window=1,
                               samples=25, seed=60)
    rep_r = check_main_diagram(tower_ram, mu_spread=2, base_window=1,
                               samples=25, seed=60)
    ok = rep_u.passed and rep_r.passed
    _report(6, ok, time.perf_counter() - t0, 600,
            f"unramified {len(rep_u.samples)} + ramified {len(rep_r.samples)} "
            "sigma-invariant samples, two-path evaluation")


def test_criterion_07_brauer_multiplicative(tower_unram, tower_ram):
    t0 = time.perf_counter()
    ok = True
    nonzero = []
    for tower in (tower_unram, tower_ram):
        rep = check_brauer_multiplicative(tower, pairs=25, seed=70)
        # a sample comparing 0 with 0 cannot fail: each tower must compare
        # nonzero restrictions in at least 10 of its pairs
        nonzero.append(sum(1 for s in rep.samples if s["lhs"]["terms"] or s["rhs"]["terms"]))
        ok = ok and rep.passed and len(rep.samples) >= 25 and nonzero[-1] >= 10
    _report(7, ok, time.perf_counter() - t0, 120,
            f"25 pairs per case, {nonzero} with a nonzero side")


def test_criterion_08_tate_suite():
    t0 = time.perf_counter()

    def cyc(F, l):
        return tuple(tuple(F.one() if (i + 1) % l == j else F.zero()
                           for j in range(l)) for i in range(l))

    for l in (2, 3):
        F = CoeffField(l, 1)
        triv = CyclicModule(F, 1, mat_identity(F, 1))
        assert (tate_cohomology(triv, 0).dim, tate_cohomology(triv, 1).dim) == (1, 1)
        reg = CyclicModule(F, l, cyc(F, l))
        assert (tate_cohomology(reg, 0).dim, tate_cohomology(reg, 1).dim) == (0, 0)
    rng = random.Random(80)
    for _ in range(50):
        l = rng.choice([2, 3])
        F = CoeffField(l, 1)
        blocks = [rng.choice([1, l]) for _ in range(rng.randrange(1, 5))]
        d = sum(blocks)
        T = [[F.zero()] * d for _ in range(d)]
        off = 0
        for b in blocks:
            if b == 1:
                T[off][off] = F.one()
            else:
                for i in range(b):
                    T[off + i][off + (i + 1) % b] = F.one()
            off += b
        M = CyclicModule(F, d, tuple(tuple(r) for r in T))
        trivial = sum(1 for b in blocks if b == 1)
        # additivity over the direct sum and free-block vanishing
        assert tate_cohomology(M, 0).dim == trivial
        assert tate_cohomology(M, 1).dim == trivial
        # rank-nullity for both operators
        N = norm_operator(M)
        A = mat_sub(F, mat_identity(F, d), M.T)
        assert len(kernel_basis(F, A)) + len(image_basis(F, A)) == d
        assert len(kernel_basis(F, N)) + len(image_basis(F, N)) == d
    # twist-commutation at k = 2
    F4 = CoeffField(2, 2)
    om = (0, 1)
    M = CyclicModule(F4, 2, ((F4.zero(), om), (F4.pow(om, 2), F4.zero())))
    for i in (0, 1):
        assert tate_cohomology(M, i).dim == tate_cohomology(frobenius_twist(M), i).dim
    _report(8, True, time.perf_counter() - t0, 10,
            "trivial/regular dims, 50 seeded sums, rank-nullity, twist")


def _element_name(h):
    return json.dumps(h.to_json()["terms"], sort_keys=True,
                      separators=(",", ":"))


def _poly_in_T(F, T, coeffs):
    d = len(T)
    out = tuple(tuple(F.mul(coeffs[0], x) for x in row) for row in mat_identity(F, d))
    power = mat_identity(F, d)
    for c in coeffs[1:]:
        power = mat_mul(F, power, T)
        out = tuple(tuple(F.add(x, F.mul(c, y)) for x, y in zip(r1, r2))
                    for r1, r2 in zip(out, power))
    return out


def _linkage_instance(tower, rng, dim, match_scalar):
    """A windowed instance: sigma-invariant generators named by their support,
    acting by seeded polynomials in the order-l operator."""
    F = tower.field
    l = F.l
    HE, ctxE = tower.alg["E"], tower.ctx["E"]
    e = tower.extpair.E.e
    gens = [hecke_unit(HE), HE.sigma_orbit_sum(ctxE.unif_label((0, e)))]
    # order-l block operator on dim = fixed + l-cycles
    T = [[F.zero()] * dim for _ in range(dim)]
    off = 0
    while off < dim:
        b = l if dim - off >= l and rng.randrange(2) else 1
        if b == 1:
            T[off][off] = F.one()
        else:
            for i in range(b):
                T[off + i][off + (i + 1) % b] = F.one()
        off += b
    T = tuple(tuple(r) for r in T)
    xi_action = {}
    br_names = {}
    rho_action = {}
    scalars = {}
    for h in gens:
        name = _element_name(h)
        coeffs = [F.from_int(rng.randrange(l)) for _ in range(l)]
        coeffs[0] = F.add(coeffs[0], F.one())  # keep a unit-ish constant term
        xi_action[name] = _poly_in_T(F, T, coeffs)
        brh = tower.brauer(h)
        fname = _element_name(brh)
        br_names[name] = fname
        total = F.zero()
        for c in coeffs:
            total = F.add(total, c)
        scalars[fname] = total
    for fname, s in scalars.items():
        value = s if match_scalar else F.add(s, F.one())
        rho_action[fname] = ((value,),)
    Xi = CyclicModule(F, dim, T, xi_action)
    rho = CyclicModule(F, 1, mat_identity(F, 1), rho_action)
    return Xi, rho, br_names, gens


def test_criterion_09_linkage_transport(tower_unram, tower_ram):
    t0 = time.perf_counter()
    rng = random.Random(90)
    instances = 0
    linked_seen, unlinked_seen = 0, 0
    for tower in (tower_ram, tower_unram):
        for dim, match in [(1, True), (2, True), (4, False), (6, True), (8, False)]:
            Xi, rho, br, gens = _linkage_instance(tower, rng, dim, match)
            before = linkage_check(Xi, rho, br)
            # transported instance: rename everything along the transfer
            xi_map = {}
            rho_map = {}
            br_after = {}
            for h in gens:
                name = _element_name(h)
                moved = tower.kaz(h)
                moved_b = tower.kaz(tower.brauer(h))
                xi_map[name] = _element_name(moved)
                rho_map[br[name]] = _element_name(moved_b)
                br_after[_element_name(moved)] = _element_name(moved_b)
                # two-path naming consistency is the main theorem itself
                assert _element_name(tower.brauer(moved)) == _element_name(moved_b)
            Xi_t = transport_module(Xi, xi_map)
            rho_t = transport_module(rho, rho_map)
            after = linkage_check(Xi_t, rho_t, br_after)
            assert before == after, (dim, before, after)
            linked_seen += sum(1 for v in before.values() if v)
            unlinked_seen += sum(1 for v in before.values() if not v)
            instances += 1
    ok = instances >= 10 and linked_seen > 0 and unlinked_seen > 0
    _report(9, ok, time.perf_counter() - t0, 60,
            f"{instances} instances, {linked_seen} linked / {unlinked_seen} not")


def test_criterion_10_determinism():
    t0 = time.perf_counter()

    def dump(rep):
        return json.dumps(rep.to_json(), sort_keys=True)

    outputs = []
    for trial in range(2):
        tower = Tower(3, 1, case="ramified", l=2, pair_mode="mixed-equal")
        a = dump(check_kaz_hom(tower, window_spread=1, samples=3, seed=7))
        b = dump(check_galois_equivariance(tower, window_spread=1, samples=3, seed=7))
        c = dump(check_main_diagram(tower, mu_spread=2, base_window=0,
                                    samples=2, seed=7))
        d = dump(check_lemma_conv(tower, window_spread=1, elements=3, seed=7))
        outputs.append((a, b, c, d))
    _report(10, outputs[0] == outputs[1], time.perf_counter() - t0, 120,
            "four suites re-run byte-identically")
