"""Independent oracles used by the test suite.

These deliberately avoid the canonical-key machinery of the library: left
cosets are enumerated by brute force over K_m/K_r and compared by the
definition x^{-1} y in K, and convolution coefficients come from the double
sum over group/K points.
"""

import itertools

from closehecke.matrices import FieldElement, GroupMatrix, spread


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


def same_left_coset(ctx, x, y):
    """x K = y K by definition: x^{-1} y integral and congruent to 1."""
    z = x.inverse() * y
    try:
        res = z.residue_matrix(ctx.m)
    except Exception:
        return False
    ring = z.ring
    ident = GroupMatrix.identity(ring, ctx.n).residue_matrix(ctx.m)
    return res == ident


def brute_left_cosets(ctx, g, mu=None):
    """Left cosets of K g K / K by full enumeration of K_m / K_r and
    pairwise definitional comparison (no canonical keys)."""
    if mu is None:
        mu = ctx.smith_cartan(g)[0]
    r = ctx.m + spread(mu)
    ring = g.ring
    reps = []
    for k in _brute_k_elements(ctx, ring, r):
        cand = k * g
        if not any(same_left_coset(ctx, cand, rep) for rep in reps):
            reps.append(cand)
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
    coords = [c for c in sub.elements()]
    ident = GroupMatrix.identity(ring, n)
    for combo in itertools.product(coords, repeat=n * n):
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                a = combo[i * n + j]
                lifted = FieldElement.make(ring, ctx.m,
                                           ring.lift_residue(sub.residue(a, depth), depth))
                base = ident.rows[i][j]
                row.append(base + lifted)
            rows.append(row)
        yield GroupMatrix(ring, rows)


def member_of_double_coset_brute(ctx, x, cosets):
    """x in union of the listed left cosets, definitionally."""
    return any(same_left_coset(ctx, x, rep) for rep in cosets)


def conv_coeff_double_sum(ctx, la, lb, lc, pi_prec=None):
    """Coefficient of t_{lc} in t_{la} * t_{lb} by the double sum over G/K:
    #{ y K in K a K : y^{-1} c in K b K }."""
    if pi_prec is None:
        pi_prec = ctx.m + 2 * (spread(la.mu) + spread(lb.mu) + spread(lc.mu)) + 4
    ring = ctx.working_ring(pi_prec)
    A = ctx.lift_label(la, ring)
    B = ctx.lift_label(lb, ring)
    C = ctx.lift_label(lc, ring)
    acosets = brute_left_cosets(ctx, A, la.mu)
    bcosets = brute_left_cosets(ctx, B, lb.mu)
    count = 0
    for y in acosets:
        z = y.inverse() * C
        if member_of_double_coset_brute(ctx, z, bcosets):
            count += 1
    return count


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
    and mul.  The modulus is rebuilt from the spec: T^l + minimalPoly for
    an unramified ring, T^l - w for a ramified one."""
    B, l = ring.base, ring.l
    if ring.kind == "ramified":
        low = [B.neg(ring.w)] + [B.zero()] * (l - 1)
    else:
        low = [B.from_int(c) for c in ring.spec.minimal_poly]
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
