"""The four benchmark workloads.

Each workload has a default seed, a ``build`` step (the set-up a CLI
invocation pays: towers, or for ``tate-linkage`` the generated modules) and a
``jobs`` step that returns the checks to run.  A job returns a ``Result``: the
canonical document text, the number of operations it holds and how many of
them failed the workload's own oracle.  The worker times the jobs and gates
the results; nothing here measures time.

``closehecke`` is imported inside ``build`` so that its import cost lands in
the set-up time of a fresh worker.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

SIZES = ("full", "tiny")


@dataclass
class Result:
    text: str
    samples: int
    failed: int


@dataclass
class Job:
    name: str
    expected: int
    run: Callable[[], Result]


@dataclass
class Workload:
    name: str
    default_seed: int
    build: Callable
    jobs: Callable


def _document(report):
    """The bytes ``closehecke check ...`` emits for a report."""
    return json.dumps(report.to_json(), sort_keys=True, indent=2)


def _check_result(report):
    failed = sum(1 for s in report.samples if not s["equal"])
    if not report.passed:
        failed = max(failed, 1)
    return Result(_document(report), len(report.samples), failed)


# ---------------------------------------------------------------------------
# brauer-mult-unram: Br(f * g) = Br(f) * Br(g) on the unramified tower.
#
# The cost of a pair is set by the cocharacters of its two labels: a
# (0,1) x (0,1) pair costs about eight times a mixed pair and a central pair
# a tenth of one.  The acceptance check draws the cocharacters at random, so
# four of its pairs took 0.4 s to 5.9 s depending on the seed.  Here every
# worker checks the same mix of cocharacter types and the seed draws the
# residue matrices P and Q, which keeps the cost steady across seeds.

BM_PAIRS = {
    "full": [("random", (0, 0), (0, 1)), ("random", (0, 1), (1, 1)),
             ("random", (0, 0), (0, 0)), ("random", (1, 1), (1, 1)),
             ("family", (0, 1), (0, 0)), ("family", (1, 1), (0, 1))],
    "tiny": [("random", (0, 0), (0, 0)), ("family", (1, 1), (0, 0))],
}
BM_EXPECTED = {"full": 6, "tiny": 2}


def _bm_build(seed, size):
    from closehecke.transfer import Tower
    return Tower(2, 1, case="unramified", l=3, pair_mode="mixed-equal")


def _bm_jobs(tower, seed, size):
    from closehecke.transfer import Report, random_label

    pairs = BM_PAIRS[size]

    def run():
        rng = random.Random(seed)
        HE, HF, ctxE = tower.alg["E"], tower.alg["F"], tower.ctx["E"]
        rep = Report("check brauer-mult",
                     {"p": tower.p, "m": tower.m, "n": tower.n, "case": tower.case,
                      "pairs": len(pairs), "seed": seed, "mix": "stratified"})
        for i, (kind, mu_f, mu_g) in enumerate(pairs):
            if kind == "family":
                f = HE.sigma_orbit_sum(ctxE.unif_label(mu_f))
            else:
                f = HE.sigma_orbit_sum(random_label(ctxE, rng, [mu_f]))
            g = HE.sigma_orbit_sum(random_label(ctxE, rng, [mu_g]))
            lhs = tower.brauer(HE.convolve(f, g))
            rhs = HF.convolve(tower.brauer(f), tower.brauer(g))
            rep.add(kind="brauer-mult", input=f"pair#{i} {kind} {mu_f}x{mu_g}",
                    equal=lhs == rhs, lhs=lhs.to_json(), rhs=rhs.to_json())
        return _check_result(rep)

    return [Job("brauer-mult", BM_EXPECTED[size], run)]


# ---------------------------------------------------------------------------
# main-diagram-ram: Kaz(Br(h)) = Br'(Kaz(h)) on the ramified tower.
#
# The structured family (6 cocharacter orbit sums and the 48 labels of
# GL_2(F_3) in the central base window) does not depend on the seed and is
# most of the cost; the seeded random orbit sums are few.  Base window 0
# instead of the acceptance window 1 keeps one worker near 6 s.

MD_RANDOM = {"full": 2, "tiny": 1}
MD_STRUCTURED = 6 + 48          # cochar_window(2, 0, 2) and |GL_2(F_3)|


def _md_build(seed, size):
    from closehecke.transfer import Tower
    return Tower(3, 1, case="ramified", l=2, pair_mode="mixed-equal")


def _md_jobs(tower, seed, size):
    from closehecke import transfer

    samples = MD_RANDOM[size]

    def run():
        return _check_result(transfer.check_main_diagram(
            tower, mu_spread=2, base_window=0, samples=samples, seed=seed))

    return [Job("main-diagram", MD_STRUCTURED + samples, run)]


# ---------------------------------------------------------------------------
# kaz-hom-base: Kaz(f * g) = Kaz(f) * Kaz(g) on the base side only, over the
# four pair configurations of acceptance criterion 4.  The 36 cocharacter
# pairs of the spread-2 window are the same for every seed.

KAZ_CONFIGS = [(2, 1, "mixed-equal", None), (3, 1, "mixed-equal", None),
               (2, 2, "equal-equal", (1, 1)), (3, 2, "equal-equal", (2,))]
KAZ_WINDOW = {"full": 2, "tiny": 1}
KAZ_RANDOM = {"full": 1, "tiny": 1}


def _kaz_build(seed, size):
    from closehecke.transfer import Tower
    return [Tower(p, m, case=None, l=(3 if p == 2 else 2), pair_mode=mode,
                  unif_image=image)
            for p, m, mode, image in KAZ_CONFIGS]


def _kaz_jobs(towers, seed, size):
    from closehecke import transfer

    window, samples = KAZ_WINDOW[size], KAZ_RANDOM[size]
    # n = 2: the antidominant cocharacters with entries in [0, window]
    structured = ((window + 1) * (window + 2) // 2) ** 2
    jobs = []
    for tower, (p, m, mode, _) in zip(towers, KAZ_CONFIGS):
        def run(tower=tower, s=seed + p + m):
            return _check_result(transfer.check_kaz_hom(
                tower, window_spread=window, samples=samples, seed=s))
        jobs.append(Job(f"kaz-hom p={p} m={m} {mode}", structured + samples, run))
    return jobs


# ---------------------------------------------------------------------------
# tate-linkage: Tate cohomology and the linkage predicate on generated
# modules with answers known by construction.
#
# A module is a direct sum of ``a`` trivial blocks and ``b`` free l-cycle
# blocks.  Two named generators act by upper-triangular matrices on the
# trivial blocks and by zero on the free blocks, so they commute with T.
# Then H^0 and H^1 both have dimension a, each carries the generators'
# action on the trivial blocks, and its composition factors are the
# characters on the diagonal.  rho is a character with values in the prime
# field, which the inverse Frobenius twist fixes: it is linked in both
# degrees exactly when it is one of the diagonal characters.

TATE_SHAPES = {       # (l, k, trivial blocks, free blocks): dimension 8 to 24
    "full": [(2, 1, 4, 2), (3, 1, 5, 3), (2, 2, 6, 5), (3, 2, 5, 3),
             (2, 1, 8, 8), (3, 1, 9, 5), (2, 2, 4, 6), (3, 2, 3, 2)],
    "tiny": [(2, 1, 2, 3), (3, 2, 2, 2)],
}
TATE_EXPECTED = {"full": 8, "tiny": 2}


@dataclass
class TateInstance:
    l: int
    k: int
    trivial: int
    module: object
    rho: object
    br_map: dict
    characters: list      # the diagonal characters, (g1 value, g2 value)
    linked: bool


def _coeff(l, k, rng, prime_field=False):
    if prime_field:
        return (rng.randrange(l),) + (0,) * (k - 1)
    return tuple(rng.randrange(l) for _ in range(k))


def _tate_instance(l, k, a, b, want_linked, rng):
    from closehecke.coeffs import CoeffField
    from closehecke.tate import CyclicModule

    F = CoeffField(l, k)
    zero, one = F.zero(), F.one()
    d = a + b * l
    prime_chars = [((x,) + (0,) * (k - 1), (y,) + (0,) * (k - 1))
                   for x in range(l) for y in range(l)]
    unlinked = prime_chars[rng.randrange(len(prime_chars))]
    chars = []
    for i in range(a):
        while True:
            ch = (_coeff(l, k, rng, prime_field=(i == 0)),
                  _coeff(l, k, rng, prime_field=(i == 0)))
            if ch != unlinked:
                break
        chars.append(ch)
    T = [[zero] * d for _ in range(d)]
    for i in range(a):
        T[i][i] = one
    for blk in range(b):
        off = a + blk * l
        for i in range(l):
            T[off + i][off + (i + 1) % l] = one
    action = {}
    for g in range(2):
        U = [[zero] * d for _ in range(d)]
        for i in range(a):
            U[i][i] = chars[i][g]
            for j in range(i + 1, a):
                U[i][j] = _coeff(l, k, rng)
        action[f"g{g + 1}"] = tuple(tuple(row) for row in U)
    M = CyclicModule(F, d, tuple(tuple(row) for row in T), action)
    target = chars[0] if want_linked else unlinked
    rho = CyclicModule(F, 1, ((one,),), {"r1": ((target[0],),), "r2": ((target[1],),)})
    return TateInstance(l, k, a, M, rho, {"g1": "r1", "g2": "r2"}, chars, want_linked)


def _tate_build(seed, size):
    rng = random.Random(seed)
    return [_tate_instance(l, k, a, b, i % 2 == 0, rng)
            for i, (l, k, a, b) in enumerate(TATE_SHAPES[size])]


def _tate_check(inst):
    """One module instance: both Tate dimensions, the composition factors of
    H^0 and the linkage verdict, each against the construction."""
    from closehecke import tate

    M = inst.module
    h0, h1 = tate.tate_cohomology(M, 0), tate.tate_cohomology(M, 1)
    factors = tate.composition_factors(tate.tate_quotient_module(M, 0))
    got = sorted((fac.action["g1"][0][0], fac.action["g2"][0][0])
                 for fac in factors if fac.dim == 1)
    linked = tate.linkage_check(M, inst.rho, inst.br_map)
    ok = (h0.dim == h1.dim == inst.trivial
          and len(factors) == inst.trivial and got == sorted(inst.characters)
          and linked == {0: inst.linked, 1: inst.linked})
    record = {"l": inst.l, "k": inst.k, "dim": M.dim, "h0": h0.to_json(M.field),
              "h1": h1.to_json(M.field), "factors": [list(map(list, c)) for c in got],
              "linked": {str(i): linked[i] for i in sorted(linked)}}
    return ok, record


def _tate_jobs(instances, seed, size):
    def run():
        records, failed = [], 0
        for inst in instances:
            try:
                ok, record = _tate_check(inst)
            except Exception as exc:  # a raising instance is a failed operation
                ok, record = False, {"error": f"{type(exc).__name__}: {exc}"}
            failed += not ok
            records.append(record)
        text = json.dumps({"command": "tate-linkage", "seed": seed,
                           "instances": records}, sort_keys=True, indent=2)
        return Result(text, len(records), failed)

    return [Job("tate-linkage", TATE_EXPECTED[size], run)]


WORKLOADS = {w.name: w for w in [
    Workload("brauer-mult-unram", 70, _bm_build, _bm_jobs),
    Workload("main-diagram-ram", 60, _md_build, _md_jobs),
    Workload("kaz-hom-base", 40, _kaz_build, _kaz_jobs),
    Workload("tate-linkage", 80, _tate_build, _tate_jobs),
]}
