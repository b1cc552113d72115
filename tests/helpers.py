"""Independent oracles used by the test suite.

These deliberately avoid the canonical-key machinery of the library: left
cosets are enumerated by brute force over K_m/K_r (or, where that is too
large to list, closed under its elementary generators) and compared by the
definition x^{-1} y in K, and convolution coefficients come from the double
sum over group/K points.  ``fingerprint`` is the complete double-coset
invariant (mu, sorted left-coset keys) that the library used before
canonical labels: ``coeff_at`` finds an element's term by it, and
``fingerprint_bfs_labels`` is the label walk with it as the identity, kept
to check the walk of ``enumerate_labels``.  Several keep an earlier
construction of the library as an oracle for the faster one: ``flatten``
(the label order), ``left_coset_key_by_inverse`` (V = H^{-1} A by a matrix
inverse), ``smith_x_by_inverse`` (x = P^{-1} by a matrix inverse),
``lift_label_by_products`` (P pi^mu Q^{-1} and the transversal by full
matrix products), ``canonical_label_by_tables`` (the least orbit members
over listed Y_mu and X0_mu), ``sigma_label_by_lift`` (sigma applied to
a lifted label by ``sigma_on_group``, then the Smith decomposition) and
``embedded_label_by_lift`` (a base-side label lifted, embedded in G(E) and
Smith-decomposed), with ``brauer_restrict_by_window`` (Br(f) by walking
every base-side label of f's windows and naming each that way).
``basis_product_mirrored`` reads a product of basis elements off the
mirrored product of the inverse labels (``inverse_label``), so its one-row
count runs over the other factor's transversal.  The ``dense_*`` matrix
oracles write out every product and sum over a CoeffField, zeros included,
and share no code with the zero-skipping kernels of ``closehecke.tate``;
``dense_kernel_basis`` reads the kernel off Gauss-Jordan elimination of
[A^T | I] rather than off the free columns.

The oracles work on precision-tracked ``GroupMatrix`` values, while the
library's products run on integral coordinates.  The one conversion between
them is ``integral_coords``: it reads a matrix at its certified absolute
precision N_g after a central shift, and ``smith_of_matrix``, ``label_of``
and ``smith_reconstruction`` pass it to the library's one elimination, which
refuses when no pivot lies below N_g or lambda_n + m > N_g.
``as_group_matrix`` goes the other way, for ``lift_label`` (the matrix
lift(P) pi^mu lift(Q)^{-1} of a label) and ``left_coset_matrices``.

The other helpers are no oracles either: ``check_brauer_multiplicative``
samples Br(f * g) = Br(f) * Br(g) on seeded pairs, ``transport_module``
renames a module's generators, ``module_to_json`` writes a module in the
format ``module_from_json`` reads, ``hecke_unit`` is the unit basis element
of a Hecke algebra, and ``default_pi_prec`` is the oracles' working
precision.  Only tests use them, so they live here.
"""

import itertools
import random
import weakref
from collections import deque

from closehecke.cartan import CosetLabel, residue_invertible
from closehecke.errors import (
    GeneratorNameMismatchError,
    InsufficientPrecisionError,
    MissingActionError,
    SideMismatchError,
    SpecMismatchError,
)
from closehecke.matrices import (
    FieldElement,
    GroupMatrix,
    certified_min,
    cochar_window,
    coord_mul,
    spread,
    unimodular_inverse,
)
from closehecke.rings import RAMIFIED
from closehecke.tate import CyclicModule
from closehecke.transfer import Report, _sample_entry, random_label


def minor_valuation_mu(g):
    """Cartan invariant from the valuations of gcds of k x k minors:
    mu_1 + ... + mu_k = min_{k x k minors} val(det)."""
    n = g.n
    partial = [0]
    for k in range(1, n + 1):
        best = None
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                d = _det([[g.rows[i][j] for j in cols] for i in rows])
                v, exact = d.certified_val()
                if exact:
                    best = v if best is None else min(best, v)
        assert best is not None, "oracle needs certifiable minors"
        partial.append(best)
    return tuple(partial[k] - partial[k - 1] for k in range(1, n + 1))


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        sub = [[rows[i][jj] for jj in range(n) if jj != j] for i in range(1, n)]
        term = rows[0][j] * _det(sub)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _in_k(ctx, x, y):
    """x y integral and congruent to 1 modulo pi^m, entry by entry, so a
    pair of distinct cosets is usually told apart by one entry."""
    ring, n, m = y.ring, ctx.n, ctx.m
    one, zero = ring.residue(ring.one(), m), ring.residue(ring.zero(), m)
    for i in range(n):
        for j in range(n):
            e = FieldElement.zero(ring)
            for k in range(n):
                e = e + x.rows[i][k] * y.rows[k][j]
            try:
                if e.residue(m) != (one if i == j else zero):
                    return False
            except (InsufficientPrecisionError, SpecMismatchError):
                return False
    return True


def same_left_coset(ctx, x, y):
    """x K = y K by definition: x^{-1} y integral and congruent to 1."""
    return _in_k(ctx, x.inverse(), y)


def coset_matches(ctx, x, reps):
    """How many of ``reps`` lie in the left coset x K, by definition."""
    inv = x.inverse()
    return sum(1 for rep in reps if _in_k(ctx, inv, rep))


def _distinct_cosets(ctx, candidates):
    """The candidates with a repeated left coset dropped, compared by
    definition."""
    reps = []
    for cand in candidates:
        inv = cand.inverse()
        if not any(_in_k(ctx, inv, rep) for rep in reps):
            reps.append(cand)
    return reps


def brute_left_cosets(ctx, g, mu=None):
    """Left cosets of K g K / K by full enumeration of K_m / K_r and
    pairwise definitional comparison (no canonical keys)."""
    if mu is None:
        mu = smith_of_matrix(ctx, g)[0]
    r = ctx.m + spread(mu)
    return _distinct_cosets(ctx, (k * g for k in _brute_k_elements(ctx, g.ring, r)))


def closure_left_cosets(ctx, g, mu):
    """Left cosets of K g K / K as the closure of {g K} under left
    multiplication by the elementary matrices 1 + pi^j c E_ab of K_m / K_r
    (m <= j < r, c over an F_p-basis of the residue field), compared by
    definition.  Exhaustive where K_m / K_r is too large to list."""
    ring, n, side = g.ring, ctx.n, ctx.side
    r = ctx.m + spread(mu)
    basis = [ring.one()]
    if side.is_ext and side.kind == "unramified":
        basis = [ring.pow(ring.gen(), i) for i in range(side.l)]
    ident = GroupMatrix.identity(ring, n)
    gens = []
    for j in range(ctx.m, r):
        for c in basis:
            for a in range(n):
                for b in range(n):
                    rows = [list(row) for row in ident.rows]
                    rows[a][b] = rows[a][b] + FieldElement.make(ring, j, c)
                    gens.append(GroupMatrix(ring, rows))
    reps = [g]
    for x in reps:                       # reps grows while it is walked
        for s in gens:
            y = s * x
            inv = y.inverse()
            if not any(_in_k(ctx, inv, rep) for rep in reps):
                reps.append(y)
    return reps


def _brute_k_elements(ctx, ring, r):
    """All of K_m/K_r as 1 + pi^m A with A over M_n(o/pi^(r-m))."""
    n = ctx.n
    depth = r - ctx.m
    if depth <= 0:
        yield GroupMatrix.identity(ring, n)
        return
    side = ctx.side
    e_ring = side.l if (side.is_ext and side.kind == "ramified") else 1
    sub = side.ring(max(-(-depth // e_ring), 1))
    residues = sorted({sub.residue(a, depth) for a in sub.elements()})
    ident = GroupMatrix.identity(ring, n)
    for combo in itertools.product(residues, repeat=n * n):
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                lifted = FieldElement.make(ring, ctx.m,
                                           ring.lift_residue(combo[i * n + j], depth))
                row.append(ident.rows[i][j] + lifted)
            rows.append(row)
        yield GroupMatrix(ring, rows)


def k_elements(ctx, ring, r):
    """K_m/K_r as a list of working matrices, for tests that move a
    representative within its double coset."""
    return list(_brute_k_elements(ctx, ring, r))


def member_of_double_coset_brute(ctx, x, cosets):
    """x in union of the listed left cosets, definitionally."""
    return any(same_left_coset(ctx, x, rep) for rep in cosets)


def same_double_coset(ctx, g, h):
    """K g K = K h K by definition: h lies in one of the left cosets of
    K g K, listed by brute force."""
    return coset_matches(ctx, h, brute_left_cosets(ctx, g)) > 0


def gamma_stabilizer(ctx, mu):
    """Gamma_mu = {(x, y) : lift(x) pi^mu lift(y)^-1 in K pi^mu K} as a
    list of residue-matrix pairs, every pair of G(o/pi^m) tested by
    definition against the brute-force left cosets of K pi^mu K."""
    ring = ctx.working_ring(default_pi_prec(ctx, [mu]))
    cosets = brute_left_cosets(ctx, lift_label(ctx, ctx.unif_label(mu), ring), mu)
    els = ctx.group_elements()
    return [(x, y) for x in els for y in els
            if coset_matches(ctx, lift_label(ctx, CosetLabel(mu, x, y, ctx.m), ring),
                             cosets) > 0]


def random_k_element(ctx, ring, rng):
    """A seeded element 1 + pi^m A of K_m, A with small random integral
    entries."""
    one = FieldElement.make(ring, 0, ring.one())
    units = list(itertools.islice((u for u in ring.elements() if ring.is_unit(u)), 8))
    rows = []
    for i in range(ctx.n):
        row = []
        for j in range(ctx.n):
            a = FieldElement.make(ring, ctx.m + rng.randrange(3), units[rng.randrange(len(units))])
            row.append(one + a if i == j else a)
        rows.append(row)
    return GroupMatrix(ring, rows)


_FINGERPRINTS = weakref.WeakKeyDictionary()


def fingerprint(ctx, label):
    """Complete double-coset invariant: (mu, sorted left-coset keys).
    Left cosets of distinct double coset are disjoint, so one key finds a
    known double coset; a new one lists its transversal (u = I first)."""
    memo, by_key = _FINGERPRINTS.setdefault(ctx, ({}, {}))
    fp = memo.get(label)
    if fp is not None:
        return fp

    def run(pi_prec):
        ring = ctx.working_ring(pi_prec)
        first = ctx.left_coset_key(lift_label(ctx, label, ring))
        if first in by_key:
            return by_key[first]
        return (label.mu, tuple(sorted(ctx.fingerprint(label, ring))))

    fp = ctx.with_retry(run, default_pi_prec(ctx, [label.mu]))
    for key in fp[1]:
        by_key.setdefault(key, fp)
    memo[label] = fp
    return fp


def fingerprint_bfs_labels(ctx, mu):
    """Labels of invariant ``mu`` (spread > 0) by the breadth-first walk over
    the residue generators acting on P and Q, a moved label being new when
    its fingerprint is unseen; sorted by label order."""
    start = ctx.unif_label(mu)
    seen = {fingerprint(ctx, start)}
    orbit = [start]
    queue = deque([start])
    gens = ctx._residue_gl_generators()
    while queue:
        lab = queue.popleft()
        for s in gens:
            for moved in (CosetLabel(mu, ctx._rmat_mul(s, lab.P), lab.Q, ctx.m),
                          CosetLabel(mu, lab.P, ctx._rmat_mul(s, lab.Q), ctx.m)):
                fp = fingerprint(ctx, moved)
                if fp not in seen:
                    seen.add(fp)
                    orbit.append(moved)
                    queue.append(moved)
    return sorted(orbit, key=lambda lab: lab.sort_key())


_TABLES = weakref.WeakKeyDictionary()


def canonical_label_by_tables(ctx, label):
    """The canonical label by listing the groups: Q goes to the least member
    Q y0 of Q Y_mu and P x0(y0) to the least member of P x0(y0) X0_mu, each
    orbit listed in full from the members of Y_mu (with their inverses) or
    X0_mu (t_ij = min(m, mu_j - mu_i), i < j)."""
    n, m, mu = ctx.n, ctx.m, label.mu
    t = tuple(min(m, mu[j] - mu[i]) for i in range(n) for j in range(i + 1, n))
    Q, y0 = _orbit_rep(ctx, "Y", t, label.Q)
    x0 = ctx._conjugate_by_unif(mu, y0)
    P = _orbit_rep(ctx, "X", t, ctx._rmat_mul(label.P, x0))
    return CosetLabel(mu, P, Q, m)


def subgroup(ctx, kind, t):
    """Y_mu as (y, y^{-1}) pairs, or X0_mu as its members, for the t-pattern
    ``t``, listed once from the label ring."""
    groups, _ = _TABLES.setdefault(ctx, ({}, {}))
    group = groups.get((kind, t))
    if group is not None:
        return group
    ring, n, m = ctx.label_ring, ctx.n, ctx.m
    steps = iter(t)
    if kind == "Y":
        free = sorted(ring.elements())
        cells = [ctx._digits(ring, next(steps), m) if j > i else free
                 for i in range(n) for j in range(n)]
    else:
        one, zero = [ring.one()], [ring.zero()]
        cells = [ctx._digits(ring, m - next(steps), m) if j > i else
                 one if j == i else zero for i in range(n) for j in range(n)]
    group = []
    for entries in itertools.product(*cells):
        mat = tuple(entries[i * n:(i + 1) * n] for i in range(n))
        if kind == "X":
            group.append(mat)
        elif residue_invertible(ring, mat):
            inv = lift_residue_matrix(ctx, mat, ring).inverse().residue_matrix(m)
            group.append((mat, inv))
    groups[(kind, t)] = group
    return group


def _orbit_rep(ctx, kind, t, M):
    """The least member of M Y_mu with the y0 that carries M there, or the
    least member of M X0_mu, each orbit listed once."""
    _, orbits = _TABLES.setdefault(ctx, ({}, {}))
    table = orbits.setdefault((kind, t), {})
    hit = table.get(M)
    if hit is not None:
        return hit
    group = subgroup(ctx, kind, t)
    if kind == "X":
        members = [ctx._rmat_mul(M, x) for x in group]
        rep = min(members)
        for member in members:
            table[member] = rep
        return rep
    members = [ctx._rmat_mul(M, y) for y, _ in group]
    rep, y_best = min(zip(members, (y for y, _ in group)))
    # M y lands on rep = M y_best through y^{-1} y_best
    for member, (_, y_inv) in zip(members, group):
        table[member] = (rep, ctx._rmat_mul(y_inv, y_best))
    return table[M]


def sigma_on_group(ctx, g):
    """Entrywise Galois application at the matrix's working level.

    With the ramified zeta-scaling rule, sigma(pi^v u) = pi^v zeta^v
    sigma(u); the unramified Frobenius fixes the uniformizer."""
    side = ctx.side
    if not side.is_ext:
        raise SideMismatchError("the Galois action lives on an extension side")
    ring = g.ring
    gen = side.sigma(ring.level)
    zeta = ring.embed(gen.zeta) if gen.zeta is not None else None
    rows = []
    for row in g.rows:
        new = []
        for x in row:
            if x.is_zero_marker():
                new.append(x)
                continue
            u = gen.apply_coords(x.unit)
            if zeta is not None and x.v % side.l:
                u = ring.mul(u, ring.pow(zeta, x.v % side.l))
            new.append(FieldElement(ring, x.v, u, x.prec))
        rows.append(new)
    return GroupMatrix(ring, rows)


def sigma_label_by_lift(ctx, label):
    """sigma . t_label by lifting the label, applying sigma entrywise and
    re-running the Cartan decomposition."""
    def run(prec):
        ring = ctx.working_ring(prec)
        return label_of(ctx, sigma_on_group(ctx, lift_label(ctx, label, ring)))

    return ctx.with_retry(run, default_pi_prec(ctx, [label.mu]))


def embedded_label_by_lift(ctxE, ctxF, flab):
    """The label of the base-side label ``flab`` embedded in G(E): lift it
    over F, embed the lift entrywise in G(E) with valuations scaled by the
    ramification index, and run the Smith decomposition at a working
    precision under ``with_retry``.

    The natural uniformizers of an unramified extension agree; a ramified
    one has T^e = pi_F w, w the unit of F's distinguished uniformizer, so
    pi_F^v u embeds as T^(e v) w^-v u."""
    side = ctxE.side
    e = side.e

    def run(prec):
        ringE = ctxE.working_ring(prec)
        ringF = side.base_side.ring(ringE.level)
        w = side.base_side.unif_unit_coords(ringF) if side.kind == RAMIFIED else ringF.one()
        gF = lift_label(ctxF, flab, ringF)
        return label_of(ctxE, GroupMatrix(ringE, [
            [FieldElement.zero(ringE, e * x.v) if x.is_zero_marker()
             else FieldElement(ringE, e * x.v, ringE.embed(ringF.mul(x.unit, ringF.pow(w, -x.v))),
                               e * x.prec)
             for x in row] for row in gF.rows]))

    return ctxE.with_retry(run, ctxE.m + 2 * e * spread(flab.mu) + 4)


_EMBEDDED = weakref.WeakKeyDictionary()


def brauer_restrict_by_window(HE, f, HF):
    """Br(f) by walking every base-side label of the windows that f's support
    reaches: each takes f's value at the canonical label of its double coset
    in G(E), which ``embedded_label_by_lift`` names.  The names are kept per
    extension context."""
    ctxE, ctxF = HE.context, HF.context
    e = ctxE.side.e
    nus = {tuple(x // e for x in lab.mu) for lab, _ in f.terms.values()
           if all(x % e == 0 for x in lab.mu)}
    names = _EMBEDDED.setdefault(ctxE, {})
    terms = []
    for flab in ctxF.enumerate_labels(nus):
        if flab not in names:
            names[flab] = ctxE.canonical_label(embedded_label_by_lift(ctxE, ctxF, flab))
        term = f.terms.get(names[flab])
        if term is not None:
            terms.append((flab, term[1]))
    return HF.element(terms)


def lift_label(ctx, label, ring):
    """lift(P) pi^mu lift(Q)^{-1} over ``ring`` as a precision-tracked
    matrix: the context's integral ``label_matrix`` scaled back by the
    central pi^mu_1."""
    return as_group_matrix(ctx, ctx.label_matrix(label, ring), ring, label.mu[0])


def as_group_matrix(ctx, rows, ring, shift=0):
    """pi_dist^shift times the integral coordinate matrix ``rows`` over
    ``ring``, as a GroupMatrix whose entries are known modulo
    pi^(pi-level + shift)."""
    scale = FieldElement.unif_power(ring, shift, ctx.side.unif_unit_coords(ring))
    return GroupMatrix(ring, [[FieldElement.make(ring, 0, x) * scale for x in row]
                              for row in rows])


def integral_coords(ctx, g, shift=None):
    """(rows, ring, shift, prec): pi_dist^-shift g is integral and known
    modulo pi^prec, its certified absolute precision N_g, and ``rows`` are
    its coordinates over ``ring``, a working ring of the side that holds
    pi^prec.  ``shift`` defaults to the least certified valuation of an
    entry.  A zero floor below the shift leaves prec <= 0, which
    ``smith_cartan`` refuses."""
    if shift is None:
        vals = [x.v for row in g.rows for x in row if not x.is_zero_marker()]
        if not vals:
            raise InsufficientPrecisionError("no entry has a certified valuation")
        shift = min(vals)
    scale = FieldElement.unif_power(g.ring, -shift, ctx.side.unif_unit_coords(g.ring))
    h = [[x * scale for x in row] for row in g.rows]
    prec = min(x.abs_prec() for row in h for x in row)
    ring = ctx.working_ring(max(prec, 1))
    rows = []
    for row in h:
        out = []
        for x in row:
            if x.is_zero_marker():
                out.append(ring.zero())
            elif x.v < 0:
                raise SpecMismatchError(f"{g} is not integral after the shift by {shift}")
            else:
                out.append(ring.mul_pi(ring.lift_residue(x.unit, x.prec), x.v))
        rows.append(tuple(out))
    return tuple(rows), ring, shift, prec


def smith_of_matrix(ctx, g):
    """(mu, x, y) of g = x pi^mu y^{-1} for a precision-tracked g, through
    the library's one elimination on g's integral coordinates; x and y come
    back as matrices known modulo pi^(N_g - lambda_n), which is as far as g
    fixes them."""
    rows, ring, shift, prec = integral_coords(ctx, g)
    mu, x, y = ctx.smith_cartan(rows, ring, prec)
    known = prec - mu[-1]

    def back(M):
        return GroupMatrix(ring, [[FieldElement.make(ring, 0, e, known) for e in row]
                                  for row in M])

    return tuple(k + shift for k in mu), back(x), back(y)


def smith_reconstruction(ctx, g):
    """(mu, ok): the invariant of a precision-tracked g through the
    library's elimination, and whether x pi^mu y^{-1}, rebuilt in
    coordinates with y inverted by ``unimodular_inverse``, reproduces
    pi^-shift g modulo pi^(N_g)."""
    rows, ring, shift, prec = integral_coords(ctx, g)
    mu, x, y = ctx.smith_cartan(rows, ring, prec)
    # the shift takes the least valuation, so mu_1 = 0 and pi^(mu - mu_1) = pi^mu
    rec = coord_mul(ring, x, ctx.unif_scale_rows(mu, unimodular_inverse(ring, y), ring))
    ok = all(ring.residue(a, prec) == ring.residue(b, prec)
             for ra, rb in zip(rec, rows) for a, b in zip(ra, rb))
    return tuple(k + shift for k in mu), ok


def label_of(ctx, g):
    """The label of a precision-tracked matrix g, read at its certified
    absolute precision."""
    rows, ring, shift, prec = integral_coords(ctx, g)
    return ctx.label_of_matrix(rows, ring, shift, prec)


def lift_residue_matrix(ctx, data, ring):
    """The canonical lift of a residue matrix at level m, precision-tracked."""
    return GroupMatrix.from_residue(ring, data, ctx.m)


def unif_power_matrix(ctx, mu, ring):
    """diag(pi^mu_1, ..., pi^mu_n) for the distinguished uniformizer."""
    w, zero = ctx.side.unif_unit_coords(ring), FieldElement.zero(ring)
    return GroupMatrix(ring, [[FieldElement.unif_power(ring, k, w) if i == j else zero
                               for j in range(len(mu))] for i, k in enumerate(mu)])


def default_pi_prec(ctx, mus):
    """A working pi-precision for precision-tracked matrices of the
    invariants ``mus``, with slack for the oracles' floors."""
    s = max((spread(mu) for mu in mus), default=0)
    neg = max((max(0, -mu[0]) for mu in mus), default=0)
    return ctx.m + 2 * s + neg + 4


def lift_label_by_products(ctx, label, ring):
    """P pi^mu Q^{-1} and its transversal P u pi^mu Q^{-1} with every factor
    a full GroupMatrix product, u = I first."""
    n, mu, m = ctx.n, label.mu, ctx.m
    P = lift_residue_matrix(ctx, label.P, ring)
    D = unif_power_matrix(ctx, mu, ring)
    Q_inv = lift_residue_matrix(ctx, label.Q, ring).inverse()
    right = D * Q_inv
    below = [(i, j) for i in range(1, n) for j in range(i)]
    choices = [ctx._digits(ring, m, m + mu[i] - mu[j]) for i, j in below]
    reps = []
    for entries in itertools.product(*choices):
        rows = [list(row) for row in GroupMatrix.identity(ring, n).rows]
        for (i, j), c in zip(below, entries):
            rows[i][j] = FieldElement.make(ring, 0, c)
        reps.append(P * GroupMatrix(ring, rows) * right)
    return P * D * Q_inv, reps


def left_coset_matrices(ctx, label, ring):
    """The transversal of ``left_coset_reps`` as precision-tracked matrices,
    scaled back by the central pi^mu_1."""
    return [as_group_matrix(ctx, g, ring, label.mu[0])
            for g in ctx.left_coset_reps(label, ring)]


def hecke_unit(H):
    """The unit of the Hecke algebra H: the basis element of K itself."""
    return H.basis(H.context.identity_label())


def coeff_at(f, label):
    """Coefficient of the double coset of ``label`` in the Hecke element f,
    its term found by fingerprint."""
    ctx = f.algebra.context
    fp = fingerprint(ctx, label)
    return next((c for lab, c in f.terms.values() if fingerprint(ctx, lab) == fp),
                f.algebra.field.zero())


def distinct_double_cosets(ctx, labels, ring):
    """Whether no two of ``labels`` name one double coset, by definition: no
    label's representative lies in a left coset u A K of another's
    transversal, tested as B^{-1} u A in K."""
    invs = [lift_label(ctx, lab, ring).inverse() for lab in labels]
    for a, lab in enumerate(labels):
        for rep in left_coset_matrices(ctx, lab, ring):
            if any(b != a and _in_k(ctx, inv, rep) for b, inv in enumerate(invs)):
                return False
    return True


def flatten(data, out=None):
    """The leaves of a nested tuple, in order: (mu, flatten(P), flatten(Q))
    spells the label order without relying on residues sharing one shape."""
    if out is None:
        out = []
    if isinstance(data, tuple):
        for x in data:
            flatten(x, out)
    else:
        out.append(data)
    return tuple(out)


def left_coset_key_by_inverse(ctx, g):
    """The left-coset key with its last entry taken as H^{-1} A mod pi^m, H
    the Hermite form, by a full precision-tracked matrix inverse."""
    R, n, m = g.ring, g.n, ctx.m
    c = -g.min_val()
    A = g.times_pi(c) if c else g
    cols = [[A.rows[i][j] for i in range(n)] for j in range(n)]
    avals = []
    below = []
    for i in range(n):
        ai, jstar = certified_min((cols[j][i], j) for j in range(i, n))
        if jstar != i:
            cols[i], cols[jstar] = cols[jstar], cols[i]
        prec = cols[i][i].prec
        u_inv = FieldElement(R, 0, R.inv(cols[i][i].unit), prec)
        cols[i] = [u_inv * x for x in cols[i]]
        inv_piv = FieldElement(R, -ai, R.one(), prec)
        for j in range(i + 1, n):
            f = cols[j][i] * inv_piv
            if not f.is_zero_marker():
                cols[j] = [x - f * y for x, y in zip(cols[j], cols[i])]
        avals.append(ai)
    for i in range(1, n):
        for j in range(i):
            e = cols[j][i]
            rdata = e.residue(avals[i])
            rlift = FieldElement.from_residue(R, rdata, avals[i])
            q = (e - rlift).times_pi(-avals[i])
            if not q.is_zero_marker():
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[i])]
            below.append(rdata)
    H = GroupMatrix(R, [[cols[j][i] for j in range(n)] for i in range(n)])
    return (c, tuple(avals), tuple(below), (H.inverse() * A).residue_matrix(m))


def smith_x_by_inverse(g):
    """x of the Smith/Cartan decomposition g = x pi^mu y^{-1} as the matrix
    inverse of the accumulated row transform P: the same pivots and
    operations, with P kept and inverted at the end."""
    R, n = g.ring, g.n
    a = [list(row) for row in g.rows]
    P = [list(row) for row in GroupMatrix.identity(R, n).rows]
    for k in range(n):
        _, (pi_, pj) = certified_min((a[i][j], (i, j))
                                     for i in range(k, n) for j in range(k, n))
        a[k], a[pi_] = a[pi_], a[k]
        P[k], P[pi_] = P[pi_], P[k]
        for row in a:
            row[k], row[pj] = row[pj], row[k]
        inv_piv = a[k][k].inverse()
        for i in range(k + 1, n):
            f = a[i][k] * inv_piv
            if not f.is_zero_marker():
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
                P[i] = [x - f * y for x, y in zip(P[i], P[k])]
        for j in range(k + 1, n):
            f = a[k][j] * inv_piv
            if not f.is_zero_marker():
                for row in a:
                    row[j] = row[j] - f * row[k]
    return GroupMatrix(R, P).inverse()


def dense_mat_mul(F, A, B):
    """A B over a CoeffField, every product and sum written out."""
    n, mid, m = len(A), len(B), len(B[0]) if B else 0
    return tuple(tuple(_dense_sum(F, [F.mul(A[i][k], B[k][j]) for k in range(mid)])
                       for j in range(m)) for i in range(n))


def dense_mat_apply(F, A, v):
    """A v over a CoeffField, every product and sum written out."""
    return tuple(_dense_sum(F, [F.mul(x, y) for x, y in zip(row, v)]) for row in A)


def _dense_sum(F, terms):
    acc = F.zero()
    for t in terms:
        acc = F.add(acc, t)
    return acc


def dense_mat_add(F, A, B):
    """A + B over a CoeffField, every entry added."""
    return tuple(tuple(F.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(A, B))


def dense_mat_sub(F, A, B):
    """A - B over a CoeffField, every entry subtracted."""
    return tuple(tuple(F.sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(A, B))


def dense_rref(F, rows):
    """Reduced row echelon form by Gauss-Jordan elimination: each pivot row
    scaled by the inverse of its pivot and subtracted from every other row,
    every entry written out.  Returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if not F.is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return [tuple(row) for row in rows[:len(pivots)]], pivots


def dense_reduce(F, echelon, pivots, v):
    """v minus v[c] times each reduced echelon row with pivot c, every entry
    written out."""
    for row, c in zip(echelon, pivots):
        f = v[c]
        v = tuple(F.sub(x, F.mul(f, y)) for x, y in zip(v, row))
    return tuple(v)


def dense_kernel_basis(F, A):
    """Reduced echelon basis of {v : A v = 0}, from the rows of
    [E A^T | E] = rref [A^T | I] whose A^T part is zero: each such row x has
    x A^T = 0.  A matrix with no rows gives [], as its width is unknown."""
    if not A:
        return []
    n, d = len(A), len(A[0])
    aug = [tuple(A[i][j] for i in range(n))
           + tuple(F.one() if c == j else F.zero() for c in range(d)) for j in range(d)]
    ech, _ = dense_rref(F, aug)
    kernel = [row[n:] for row in ech if all(F.is_zero(x) for x in row[:n])]
    return dense_rref(F, kernel)[0]


def dense_image_basis(F, A):
    """Reduced echelon basis of the column space of A."""
    cols = [tuple(row[j] for row in A) for j in range(len(A[0]))] if A else []
    return dense_rref(F, cols)[0]


def dense_spin(F, mats, vectors):
    """The smallest subspace of F^d that holds ``vectors`` and that every
    matrix of ``mats`` maps into itself, as the set of all its vectors: the
    span grows by every multiple of each new generator, and the images of a
    generator are generators too.  A brute-force oracle for ``tate.spin``,
    cheap while |F|^d stays in the hundreds."""
    scalars = list(F.elements())
    span = {tuple(F.zero() for _ in vectors[0])} if vectors else set()
    queue = [tuple(v) for v in vectors]
    while queue:
        v = queue.pop()
        if v in span:
            continue
        span = {tuple(F.add(x, F.mul(c, y)) for x, y in zip(s, v))
                for s in span for c in scalars}
        queue.extend(dense_mat_apply(F, A, v) for A in mats)
    return span


def conv_coeff_double_sum(ctx, la, lb, lc, pi_prec=None):
    """Coefficient of t_{lc} in t_{la} * t_{lb} by the double sum over G/K:
    #{ y K in K a K : y^{-1} c in K b K }."""
    if pi_prec is None:
        pi_prec = ctx.m + 2 * (spread(la.mu) + spread(lb.mu) + spread(lc.mu)) + 4
    ring = ctx.working_ring(pi_prec)
    A = lift_label(ctx, la, ring)
    B = lift_label(ctx, lb, ring)
    C = lift_label(ctx, lc, ring)
    acosets = brute_left_cosets(ctx, A, la.mu)
    bcosets = brute_left_cosets(ctx, B, lb.mu)
    count = 0
    for y in acosets:
        z = y.inverse() * C
        if member_of_double_coset_brute(ctx, z, bcosets):
            count += 1
    return count


def inverse_label(label):
    """A label of (K g K)^{-1} = K g^{-1} K: g^{-1} = Q pi^{-mu} P^{-1}
    = (Q w0) pi^{reversed(-mu)} (P w0)^{-1}, w0 the permutation matrix that
    reverses columns, so reversed(-mu) is antidominant again."""
    def w0(M):
        return tuple(tuple(reversed(row)) for row in M)
    return CosetLabel(tuple(-k for k in reversed(label.mu)), w0(label.Q), w0(label.P),
                      label.level)


def basis_product_mirrored(H, la, lb):
    """The counts of t_{la} * t_{lb} by the anti-involution t_D -> t_{D^-1}
    (GL_n is unimodular, so f(x) -> f(x^{-1}) reverses convolution):
    c_D(a, b) = c_{D^-1}(b^-1, a^-1), read from the product of the inverse
    labels in the other order, whose one row is a coset of b^-1, not of a.
    Keyed by the canonical label of D."""
    ctx = H.context
    return {ctx.canonical_label(inverse_label(lab)): cnt
            for lab, cnt in H._basis_product(inverse_label(lb), inverse_label(la))}


def leibniz_det(ring, mat):
    """Determinant of a square matrix over ``ring`` as the signed sum over
    all n! permutations, with the sign counted from inversions."""
    n = len(mat)
    det = ring.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = ring.one()
        for i in range(n):
            term = ring.mul(term, mat[i][perm[i]])
        det = ring.add(det, ring.neg(term) if inversions % 2 else term)
    return det


def check_ring_hom(iso, exhaustive_bound=4100):
    """Ring-homomorphism and bijectivity check, exhaustive at desk sizes."""
    dom, cod = iso.domain, iso.codomain
    els = list(dom.elements())
    assert len(els) <= exhaustive_bound
    seen = set()
    inv = iso.inverse()
    for a in els:
        fa = iso.apply(a)
        assert inv.apply(fa) == a
        assert fa not in seen
        seen.add(fa)
    assert iso.apply(dom.one()) == cod.one()
    for a in els:
        for b in els:
            assert iso.apply(dom.add(a, b)) == cod.add(iso.apply(a), iso.apply(b))
            assert iso.apply(dom.mul(a, b)) == cod.mul(iso.apply(a), iso.apply(b))


def random_field_matrix(ctx, ring, rng, n=None, val_range=(-1, 2), zero_prob=0.25):
    """Seeded random matrix with unit/valuation entries; caller filters for
    invertibility."""
    n = n or ctx.n
    units = [u for u in ring.elements() if ring.is_unit(u)]
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if rng.random() < zero_prob:
                row.append(FieldElement.zero(ring))
            else:
                v = rng.randrange(val_range[0], val_range[1] + 1)
                row.append(FieldElement(ring, v, units[rng.randrange(len(units))],
                                        ring.pi_level))
        rows.append(row)
    return GroupMatrix(ring, rows)


def schoolbook_ext_mul(ring, a, b):
    """Product in base[T]/(f) from the full polynomial product and long
    division by the monic modulus f, using only the base ring's add, neg
    and mul.  The modulus is rebuilt from the ring's minimal polynomial and
    uniformizer class: T^l + minimalPoly for an unramified ring, T^l - w for
    a ramified one."""
    B, l = ring.base, ring.l
    if ring.kind == "ramified":
        low = [B.neg(ring.w)] + [B.zero()] * (l - 1)
    else:
        low = [B.from_int(c) for c in ring.minimal_poly]
    prod = [B.zero()] * (2 * l - 1)
    for i in range(l):
        for j in range(l):
            prod[i + j] = B.add(prod[i + j], B.mul(a[i], b[j]))
    for d in range(2 * l - 2, l - 1, -1):
        c = prod[d]
        prod[d] = B.zero()
        for j in range(l):
            prod[d - l + j] = B.add(prod[d - l + j], B.neg(B.mul(c, low[j])))
    return tuple(prod[:l])


def truncated_poly_mul(p, level, a, b):
    """Coefficients of a(t) b(t) mod (p, t^level), one coefficient at a time."""
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) % p for k in range(level))


def _gf_digits(p, k, a):
    return [(a // p ** i) % p for i in range(k)]


def _gf_add(p, k, a, b):
    return sum(((x + y) % p) * p ** i
               for i, (x, y) in enumerate(zip(_gf_digits(p, k, a), _gf_digits(p, k, b))))


def _gf_mul(p, low, a, b):
    """Product in F_p[X]/(X^k + low(X)), elements encoded as the ints whose
    base-p digits are their coordinates (constant digit first)."""
    k = len(low)
    da, db = _gf_digits(p, k, a), _gf_digits(p, k, b)
    prod = [0] * (2 * k - 1)
    for i in range(k):
        for j in range(k):
            prod[i + j] += da[i] * db[j]
    for d in range(2 * k - 2, k - 1, -1):
        c, prod[d] = prod[d], 0
        for j in range(k):
            prod[d - k + j] -= c * low[j]
    return sum((prod[i] % p) * p ** i for i in range(k))


def brute_is_irreducible(f, p, low=(0,)):
    """Irreducibility of the monic f (little-endian int-encoded coefficients,
    see ``_gf_mul``) over F_p[X]/(X^k + low(X)), by trial division by every
    monic polynomial of degree 1 .. deg(f) // 2."""
    k = len(low)
    d = len(f) - 1
    if d < 1:
        return False
    for dg in range(1, d // 2 + 1):
        for low_g in itertools.product(range(p ** k), repeat=dg):
            g = list(low_g) + [1]
            rem = list(f)
            for shift in range(d - dg, -1, -1):
                # subtract c X^shift g; -1 is encoded as p - 1
                minus_c = _gf_mul(p, low, rem[shift + dg], p - 1)
                for i in range(dg + 1):
                    rem[shift + i] = _gf_add(p, k, rem[shift + i],
                                             _gf_mul(p, low, minus_c, g[i]))
            if not any(rem[:dg]):
                return False
    return True


def check_brauer_multiplicative(tower, pairs=25, seed=0):
    """Br(f * g) = Br(f) * Br(g) on seeded sigma-invariant pairs.  In every
    other pair f and g are orbit sums of base labels embedded in G(E), whose
    restrictions are nonzero; an orbit sum of a random E label almost never
    meets G(F), so on its own it would compare 0 with 0."""
    rng = random.Random(seed)
    rep = Report("check brauer-mult",
                 {"p": tower.p, "m": tower.m, "n": tower.n, "case": tower.case,
                  "pairs": pairs, "seed": seed})
    HE, HF = tower.alg["E"], tower.alg["F"]
    ctxE, ctxF = tower.ctx["E"], tower.ctx["F"]
    small = cochar_window(tower.n, 0, 1)
    family = [HE.sigma_orbit_sum(ctxE.unif_label(mu))
              for mu in cochar_window(tower.n, 0, tower.extpair.E.e)]

    def embedded():
        return HE.sigma_orbit_sum(ctxE.embed_base_label(random_label(ctxF, rng, small)))

    for i in range(pairs):
        if i % 2:
            f, g = embedded(), embedded()
        else:
            f = family[rng.randrange(len(family))] if rng.randrange(2) == 0 \
                else HE.sigma_orbit_sum(random_label(ctxE, rng, small))
            g = HE.sigma_orbit_sum(random_label(ctxE, rng, small))
        lhs = tower.brauer(HE.convolve(f, g))
        rhs = HF.convolve(tower.brauer(f), tower.brauer(g))
        rep.add(**_sample_entry("brauer-mult", f"pair#{i}", lhs, rhs))
    return rep


def transport_module(M: CyclicModule, label_map: dict) -> CyclicModule:
    """Rename the generators along an algebra-isomorphism label map."""
    if not M.action:
        raise MissingActionError("module carries no named action to transport")
    renamed = {}
    for name, op in M.action.items():
        renamed[label_map.get(name, name)] = op
    if len(renamed) != len(M.action):
        raise GeneratorNameMismatchError("label map collapses generator names")
    return CyclicModule(M.field, M.dim, M.T, renamed)


def module_to_json(M: CyclicModule) -> dict:
    """The module file of ``M``, in the format ``module_from_json`` reads."""
    F = M.field
    return {"l": F.l, "k": F.k, "dim": M.dim,
            "T": [[F.coords_json(x) for x in row] for row in M.T],
            "action": {name: [[F.coords_json(x) for x in row] for row in mat]
                       for name, mat in sorted(M.action.items())}}
