"""Cartan decomposition and double-coset machinery for GL_n at congruence
level m over a truncated local field side.

``smith_cartan`` is the one Smith elimination: it names the double coset of
an integral coordinate matrix known modulo pi^N, and refuses when N does not
fix it.  Convolution shifts each product a b_j centrally to an integral
matrix and names it there, at the N that ``HeckeAlgebra._basis_product``
proves sufficient, so no working precision is retried.

A label (mu, P, Q) names K P pi^mu Q^{-1} K.  ``canonical_label`` picks one
representative per double coset by normal forms over the label ring alone:
it is the one double-coset identity, and the label walk of
``enumerate_labels`` is certified complete by the count |G|^2 / |Gamma_mu|.

Left cosets g K_m also carry a canonical key, kept for the test oracles and
the benchmark tracer: scale g integral, column-reduce to the
lower-triangular Hermite form H over the valuation ring (diagonal pi^{a_i},
below-diagonal entries reduced mod the diagonal of their row) and record
(scaling, a, reduced entries, H^{-1} g mod pi^m), H^{-1} g being the inverse
of the unimodular column operations.  It runs on precision-tracked
matrices, as does ``with_retry``; no library path calls either.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .errors import (
    BudgetExceededError,
    ConfigError,
    InsufficientPrecisionError,
    InvariantViolationError,
    json_field,
)
from .matrices import (
    FieldElement,
    GroupMatrix,
    certified_min,
    check_antidominant,
    coord_mul,
    spread,
    unimodular_inverse,
)


@dataclass(frozen=True)
class CosetLabel:
    """One double coset K g K named by g = lift(P) pi_mu lift(Q)^{-1}."""
    mu: tuple
    P: tuple
    Q: tuple
    level: int

    def sort_key(self):
        # residues of one label ring share a shape: nested tuples sort as flat
        return (self.mu, self.P, self.Q)


def group_order(n, q, pi_level):
    """|GL_n(o/pi^M)| for residue field size q."""
    order = 1
    for i in range(n):
        order *= q ** n - q ** i
    return order * q ** (n * n * (pi_level - 1))


class GroupContext:
    """GL_n double-coset computations on one side at one congruence level."""

    def __init__(self, side, n, budget=10 ** 7, pair_budget=10 ** 4,
                 precision_cap=64):
        self.side = side
        self.n = n
        self.m = side.m                      # congruence level, in pi-units
        self.budget = budget
        self.pair_budget = pair_budget
        self.precision_cap = precision_cap
        self.label_ring = side.ring(side.base_level_m)
        if self.label_ring.pi_level != self.m:
            raise InvariantViolationError(
                f"label ring has pi-level {self.label_ring.pi_level}, not m = {self.m}")
        self.residue_q = side.p ** side.residue_degree
        self._group_elements = None
        self._label_cache = {}
        self._q_inverses = {}
        self._label_unif_unit = side.unif_unit_coords(self.label_ring)
        self._canonical = {}                # label -> its canonical label
        # (Q, mu) -> (Q y0, x0(y0)), shared by the labels with this Q
        self._q_forms = {}

    # -- working precision ---------------------------------------------------

    def working_ring(self, pi_prec):
        base_level = max(-(-pi_prec // self.side.e), 1)
        return self.side.ring(base_level)

    def with_retry(self, fn, pi_prec):
        while True:
            try:
                return fn(pi_prec)
            except InsufficientPrecisionError:
                if pi_prec >= self.precision_cap:
                    raise
                pi_prec = min(2 * pi_prec, self.precision_cap)

    # -- lifting ---------------------------------------------------------------

    def lift_residue_matrix(self, data, ring):
        """The canonical lift over ``ring`` of a residue matrix at level m."""
        return tuple(tuple(ring.lift_residue(x, self.m) for x in row) for row in data)

    def unif_scale_rows(self, mu, M, ring):
        """pi^(mu - mu_1) M over ``ring``: row i of M times the distinguished
        pi^(mu_i - mu_1), so a label's matrix is integral after the central
        shift by pi^(-mu_1)."""
        w = self.side.unif_unit_coords(ring)
        rows = []
        for k, row in zip(mu, M):
            d = k - mu[0]
            if d:
                scale = ring.mul_pi(ring.pow(w, d), d)
                row = tuple(ring.mul(scale, x) for x in row)
            rows.append(row)
        return tuple(rows)

    def _lift_inverse(self, Q, ring):
        """lift(Q)^{-1} over ``ring``, inverted once per (Q, ring)."""
        inv = self._q_inverses.get((Q, ring))
        if inv is None:
            inv = self._q_inverses[(Q, ring)] = unimodular_inverse(
                ring, self.lift_residue_matrix(Q, ring))
        return inv

    def identity_label(self):
        return self.unif_label((0,) * self.n)

    def unif_label(self, mu):
        mu = check_antidominant(mu)
        ring = self.label_ring
        idm = tuple(tuple(ring.one() if i == j else ring.zero() for j in range(self.n))
                    for i in range(self.n))
        return CosetLabel(mu, idm, idm, self.m)

    def embed_base_label(self, flab):
        """The label, on this extension side, of the double coset of G(E)
        that holds the base-side label ``flab``.  The distinguished
        uniformizers satisfy pi_F = pi_E^e, so lift(P) pi_F^nu lift(Q)^{-1}
        is lift(P) pi_E^(e nu) lift(Q)^{-1}; the label ring of E has the base
        side's label ring as its base and m = e m_F, so two lifts of P differ
        by an element of K_F, which lies in K_E."""
        e, embed = self.side.e, self.label_ring.embed
        P, Q = (tuple(tuple(embed(x) for x in row) for row in R) for R in (flab.P, flab.Q))
        return CosetLabel(tuple(e * x for x in flab.mu), P, Q, self.m)

    def base_label(self, label):
        """The inverse of ``embed_base_label``: the base-side label that it
        maps to ``label`` (coordinate 0 of each residue, mu divided by e), or
        None when there is none."""
        e = self.side.e
        P, Q = (tuple(tuple(x[0] for x in row) for row in R) for R in (label.P, label.Q))
        flab = CosetLabel(tuple(x // e for x in label.mu), P, Q, self.side.base_level_m)
        return flab if self.embed_base_label(flab) == label else None

    # -- Smith/Cartan ----------------------------------------------------------

    def smith_cartan(self, g, ring, prec=None):
        """g = x pi^mu y^{-1} for an integral coordinate matrix g over
        ``ring`` known modulo pi^prec (default: the ring's pi-level), with x
        and y in GL_n(o) and mu non-decreasing: the one Smith elimination.

        Each pivot is the entry of least valuation in the remaining block,
        the first in (row, col) order; the entries below and beside it are
        cleared with the unit part of the pivot inverted, which is exact in
        the truncated ring for some lift of g.  x undoes each row operation
        on its columns, y collects the column operations, and the
        distinguished-uniformizer unit is folded into y:
        pi_nat^v u = pi_dist^v (w^{-v} u).  x and y are returned over
        ``ring``, determined modulo pi^(prec - mu_n).  Every lift g' of g has
        g' = g (1 + g^{-1}(g' - g)) with g^{-1} in pi^(-mu_n) M_n(o), so g'
        lies in g K_m when mu_n + m <= prec; otherwise, or when no pivot
        lies below pi^prec, the label is not determined and
        InsufficientPrecisionError is raised."""
        n = len(g)
        N = ring.pi_level if prec is None else min(prec, ring.pi_level)
        one, zero = ring.one(), ring.zero()
        a = [list(row) for row in g]
        X = [[one if i == j else zero for j in range(n)] for i in range(n)]
        Y = [[one if i == j else zero for j in range(n)] for i in range(n)]
        mu, fold = [], []
        for k in range(n):
            v, pi_, pj = smith_pivot(ring, a, k)
            if v >= N:
                raise InsufficientPrecisionError(f"no pivot of {g} lies below pi^{N}")
            mu.append(v)
            if pi_ != k:
                a[k], a[pi_] = a[pi_], a[k]
                for row in X:
                    row[k], row[pi_] = row[pi_], row[k]
            if pj != k:
                for mat in (a, Y):
                    for row in mat:
                        row[k], row[pj] = row[pj], row[k]
            u_inv = ring.inv(ring.div_pi(a[k][k], v))
            fold.append(u_inv)
            pivot_row = a[k]
            for i in range(k + 1, n):
                x = a[i][k]
                if x == zero:
                    continue
                f = ring.mul(ring.div_pi(x, v), u_inv)
                row = a[i]
                for j in range(k + 1, n):
                    row[j] = ring.sub(row[j], ring.mul(f, pivot_row[j]))
                for xrow in X:
                    if xrow[i] != zero:
                        xrow[k] = ring.add(xrow[k], ring.mul(f, xrow[i]))
            # the rows below are zero in column k now, so a column operation
            # only clears pivot_row[j]; y records it
            for j in range(k + 1, n):
                x = pivot_row[j]
                if x == zero:
                    continue
                f = ring.mul(ring.div_pi(x, v), u_inv)
                for yrow in Y:
                    if yrow[k] != zero:
                        yrow[j] = ring.sub(yrow[j], ring.mul(f, yrow[k]))
        if any(mu[i] > mu[i + 1] for i in range(n - 1)):
            raise InvariantViolationError(f"the pivots gave a decreasing invariant {tuple(mu)}")
        if mu[-1] + self.m > N:
            raise InsufficientPrecisionError(
                f"invariant {tuple(mu)} needs pi^{mu[-1] + self.m}, known to pi^{N}")
        w = self.side.unif_unit_coords(ring)
        if w != one:
            fold = [ring.mul(d, ring.pow(w, v)) if v else d for d, v in zip(fold, mu)]
        y = tuple(tuple(e if d == one else ring.mul(e, d) for e, d in zip(row, fold)) for row in Y)
        return tuple(mu), tuple(map(tuple, X)), y

    def label_of_matrix(self, g, ring, shift=0, prec=None):
        """The label of pi_dist^shift g for an integral coordinate matrix g
        (``smith_cartan``); pi_dist^shift is central, so it adds to mu."""
        mu, x, y = self.smith_cartan(g, ring, prec)
        m = self.m
        return CosetLabel(tuple(k + shift for k in mu),
                          tuple(tuple(ring.residue(e, m) for e in row) for row in x),
                          tuple(tuple(ring.residue(e, m) for e in row) for row in y), m)

    # -- canonical left-coset keys ----------------------------------------------

    def left_coset_key(self, g):
        R, n, m = g.ring, g.n, self.m
        c = -g.min_val()
        A = g.times_pi(c) if c else g
        cols = [[A.rows[i][j] for i in range(n)] for j in range(n)]
        # the column operations are unimodular over o, so V = H^{-1} A undoes
        # each on its rows; V is read mod pi^m, which a multiplier in pi^m o
        # (a zero floor counting as its valuation) leaves unchanged
        V = [list(row) for row in GroupMatrix.identity(R, n).rows]
        avals = []
        below = []
        for i in range(n):
            ai, jstar = certified_min((cols[j][i], j) for j in range(i, n))
            if jstar != i:
                cols[i], cols[jstar] = cols[jstar], cols[i]
                V[i], V[jstar] = V[jstar], V[i]
            unit, prec = cols[i][i].unit, cols[i][i].prec
            u_inv = FieldElement(R, 0, R.inv(unit), prec)
            cols[i] = [u_inv * x for x in cols[i]]
            u = FieldElement(R, 0, unit, prec)
            V[i] = [u * x for x in V[i]]
            # the pivot is now pi^ai times exactly R.one()
            inv_piv = FieldElement(R, -ai, R.one(), prec)
            for j in range(i + 1, n):
                f = cols[j][i] * inv_piv
                if not f.is_zero_marker():
                    cols[j] = [x - f * y for x, y in zip(cols[j], cols[i])]
                if f.v < m:
                    V[i] = [x + f * y for x, y in zip(V[i], V[j])]
            avals.append(ai)
        for i in range(1, n):
            for j in range(i):
                e = cols[j][i]
                rdata = e.residue(avals[i])
                rlift = FieldElement.from_residue(R, rdata, avals[i])
                q = (e - rlift).times_pi(-avals[i])
                if not q.is_zero_marker():
                    cols[j] = [x - q * y for x, y in zip(cols[j], cols[i])]
                if q.v < m:
                    V[i] = [x + q * y for x, y in zip(V[i], V[j])]
                below.append(rdata)
        return (c, tuple(avals), tuple(below), GroupMatrix(R, V).residue_matrix(m))

    def _residue_basis(self, ring):
        """Lifts of an F_p-basis of the residue field: 1, T, ..., T^(f-1) for
        the residue degree f."""
        f = self.side.residue_degree
        return [ring.one()] + [ring.pow(ring.gen(), i) for i in range(1, f)]

    def _digits(self, ring, lo, hi):
        """One representative of each class of pi^lo o / pi^hi: the sums of
        p-digits times basis elements times pi^t for lo <= t < hi, zero first."""
        steps = [ring.mul_pi(b, t) for t in range(lo, hi) for b in self._residue_basis(ring)]
        out = [ring.zero()]
        for s in steps:
            multiples = [ring.mul(ring.from_int(d), s) for d in range(self.side.p)]
            out = [ring.add(x, c) for x in out for c in multiples]
        return out

    def _label_factors(self, label, ring):
        """lift(P) and pi^(mu - mu_1) lift(Q)^{-1} over ``ring``, whose
        product is the label's matrix shifted by the central pi^(-mu_1)."""
        return (self.lift_residue_matrix(label.P, ring),
                self.unif_scale_rows(label.mu, self._lift_inverse(label.Q, ring), ring))

    def label_matrix(self, label, ring):
        """pi^(-mu_1) g for g = lift(P) pi^mu lift(Q)^{-1}, integral, over
        ``ring``: one product, the u = I member of ``left_coset_reps``."""
        return coord_mul(ring, *self._label_factors(label, ring))

    def left_coset_reps(self, label, ring):
        """Left-coset representatives of K g K / K for g = P pi^mu Q^{-1},
        each times the central pi^(-mu_1), as integral coordinate matrices.

        K_m is normal in GL_n(o), so K g K = P (K pi^mu K) Q^{-1}, and the
        Iwahori factorisation K_m = U^- T U^+ leaves only the lower
        unitriangular part: the cosets are P u pi^mu Q^{-1} K with u_ij (i > j)
        running over pi^m o / pi^(m + mu_i - mu_j).  Two such u in one coset
        agree entry by entry, diagonal by diagonal, so the list is
        duplicate-free and has prod q^(mu_i - mu_j) members; u = I comes first.
        """
        n, mu, m = self.n, label.mu, self.m
        P, right = self._label_factors(label, ring)
        zero, mul, add = ring.zero(), ring.mul, ring.add
        # u - I = sum of c_ij e_i e_j^T, so P u R = P R plus c_ij times the
        # outer product of column i of P and row j of R, for each i > j
        terms = []
        for i in range(1, n):
            for j in range(i):
                col, row = [r[i] for r in P], right[j]
                terms.append([None if c == zero else
                              tuple(tuple(mul(x, y) for y in row) for x in (mul(e, c) for e in col))
                              for c in self._digits(ring, m, m + mu[i] - mu[j])])
        base = coord_mul(ring, P, right)
        reps = []
        for chosen in itertools.product(*terms):
            rep = base
            for T in chosen:
                if T is not None:
                    rep = tuple(tuple(map(add, r1, r2)) for r1, r2 in zip(rep, T))
            reps.append(rep)
        return reps

    def fingerprint(self, label, ring):
        """The keys of the left cosets in the double coset of ``label``, in
        the order of its transversal over ``ring``: the members are read as
        precision-tracked matrices, scaled back by pi^mu_1, for the key."""
        scale = FieldElement.unif_power(ring, label.mu[0], self.side.unif_unit_coords(ring))
        return [self.left_coset_key(GroupMatrix(ring, [[FieldElement.make(ring, 0, x) * scale
                                                        for x in row] for row in g]))
                for g in self.left_coset_reps(label, ring)]

    # -- canonical labels ------------------------------------------------------------

    def canonical_label(self, label):
        """One exact representative per double coset, from the residues alone.

        (P, Q) and (P', Q') name one double coset exactly when
        (P'^{-1} P, Q'^{-1} Q) lies in Gamma_mu.  With t_ij = min(m, mu_j - mu_i)
        for i < j, Gamma_mu projects onto Y_mu (y_ij in pi^t_ij above the
        diagonal) with kernel X0_mu (upper unitriangular, x_ij in
        pi^(m - t_ij)), and (x0(y), y) lies in Gamma_mu for
        x0(y) = pi^mu y pi^-mu.  So Q goes to the normal form Q y0 of Q Y_mu,
        and P x0(y0) to that of P x0(y0) X0_mu, in O(n^3) ring operations."""
        canon = self._canonical.get(label)
        if canon is not None:
            return canon
        mu = label.mu
        q_form = self._q_forms.get((label.Q, mu))
        if q_form is None:
            Q, y0 = self._y_normal_form(label.Q, mu)
            q_form = self._q_forms[(label.Q, mu)] = (Q, self._conjugate_by_unif(mu, y0))
        Q, x0 = q_form
        canon = CosetLabel(mu, self._x_normal_form(self._rmat_mul(label.P, x0), mu), Q, self.m)
        self._canonical[label] = canon
        return canon

    def _reduce(self, x, s):
        """The canonical representative of x modulo pi^s."""
        ring = self.label_ring
        return x if s >= self.m else ring.lift_residue(ring.residue(x, s), s)

    def _y_normal_form(self, Q, mu):
        """(Q y0, y0) for the Bruhat normal form Q y0 of Q Y_mu, by column
        operations of Y_mu mirrored on y0.  From the last block of equal mu_i
        to the first: clear the later pivot rows, take the free rows holding
        a unit top-down as the block's pivots, scale each to 1 and clear it
        in the block.  Q y0 is then a row permutation of an upper
        unitriangular matrix with each entry above a pivot reduced modulo
        pi^t_ij."""
        ring, n, m = self.label_ring, self.n, self.m
        one, zero = ring.one(), ring.zero()
        cols = [list(c) for c in zip(*Q)]
        ys = [[one if i == j else zero for i in range(n)] for j in range(n)]

        def add(j, c, i):               # column j += c column i
            for M in (cols, ys):
                M[j] = [ring.add(a, ring.mul(c, b)) for a, b in zip(M[j], M[i])]

        pivot = [None] * n
        free_rows = list(range(n))
        hi = n
        while hi:
            lo = hi - 1
            while lo and mu[lo - 1] == mu[hi - 1]:
                lo -= 1
            for j in range(lo, hi):
                for i in range(n - 1, hi - 1, -1):
                    c = cols[j][pivot[i]]
                    if not ring.is_zero(c):
                        add(j, ring.neg(c), i)
            nxt = lo
            for r in free_rows:
                col = next((j for j in range(nxt, hi) if ring.is_unit(cols[j][r])), None)
                if col is None:
                    continue
                u = ring.inv(cols[col][r])
                for M in (cols, ys):
                    M[col], M[nxt] = M[nxt], [ring.mul(u, a) for a in M[col]]
                for k in range(lo, hi):
                    c = cols[k][r]
                    if k != nxt and not ring.is_zero(c):
                        add(k, ring.neg(c), nxt)
                pivot[nxt] = r
                nxt += 1
                if nxt == hi:
                    break
            if nxt != hi:
                raise InvariantViolationError(f"{Q} is not invertible modulo pi")
            free_rows = [r for r in free_rows if r not in pivot[lo:hi]]
            hi = lo
        for j in range(1, n):
            for i in range(j - 1, -1, -1):
                x = cols[j][pivot[i]]
                d = ring.sub(self._reduce(x, min(m, mu[j] - mu[i])), x)
                if not ring.is_zero(d):
                    add(j, d, i)
        return (tuple(zip(*cols)), tuple(zip(*ys)))

    def _x_normal_form(self, M, mu):
        """The normal form of M X0_mu.  Column j moves by the pi^(m - t_ij)
        multiples of the columns i < j, or of an echelon basis of them (unit
        pivot rows, each basis column zero on the earlier pivot rows): it is
        reduced modulo pi^(m - t_ij) at each pivot row in turn."""
        ring, n, m = self.label_ring, self.n, self.m
        cols = [list(c) for c in zip(*M)]
        basis = []                      # (pivot row, echelon column)
        for j in range(n):
            v = cols[j]
            for i, (r, e) in enumerate(basis):
                d = ring.sub(self._reduce(v[r], m - min(m, mu[j] - mu[i])), v[r])
                if not ring.is_zero(d):
                    v = [ring.add(a, ring.mul(d, b)) for a, b in zip(v, e)]
            cols[j] = v
            if j == n - 1:
                break
            for r, e in basis:
                c = v[r]
                if not ring.is_zero(c):
                    v = [ring.sub(a, ring.mul(c, b)) for a, b in zip(v, e)]
            used = {r for r, _ in basis}
            r = next((r for r in range(n) if r not in used and ring.is_unit(v[r])), None)
            if r is None:
                raise InvariantViolationError(f"{M} is not invertible modulo pi")
            inv = ring.inv(v[r])
            basis.append((r, [ring.mul(inv, a) for a in v]))
        return tuple(zip(*cols))

    def _conjugate_by_unif(self, mu, y):
        """pi^mu y pi^-mu mod pi^m for y in Y_mu, entry by entry: y_ij times
        pi^(mu_i - mu_j), exact division above the diagonal and 0 where
        mu_j - mu_i >= m.  The distinguished uniformizer is pi times w."""
        ring, m, w = self.label_ring, self.m, self._label_unif_unit
        rows = []
        for i, row in enumerate(y):
            out = []
            for j, e in enumerate(row):
                k = mu[i] - mu[j]
                if k and w != ring.one():
                    e = ring.mul(e, ring.pow(w, k))
                if k > 0:
                    e = ring.mul_pi(e, k)
                elif k < 0:
                    e = ring.div_pi(e, -k) if -k < m else ring.zero()
                out.append(e)
            rows.append(tuple(out))
        return tuple(rows)

    def gamma_order(self, mu):
        """|Gamma_mu| = |Y_mu| |X0_mu|: Y_mu is block lower triangular modulo
        pi over the blocks of equal mu_i, with q^(m - t_ij) choices above the
        blocks, and X0_mu has q^t_ij, so the t_ij cancel."""
        q, n, m = self.residue_q, self.n, self.m
        blocks = [len(list(run)) for _, run in itertools.groupby(mu)]
        order = q ** (m * (n * n - sum(b * b for b in blocks)))
        for b in blocks:
            order *= group_order(b, q, m)
        return order

    def coset_count(self, mu):
        """|K pi^mu K / K| = q^(sum over i < j of mu_j - mu_i), the length of
        a transversal from left_coset_reps."""
        return self.residue_q ** sum(b - a for i, a in enumerate(mu) for b in mu[i + 1:])

    # -- enumeration ---------------------------------------------------------------

    def group_order(self):
        return group_order(self.n, self.residue_q, self.m)

    def _residue_gl_generators(self):
        """Generators of GL_n(o/pi^m) as residue matrices of the label ring:
        I + c e_ab for a != b and c = pi^j times a residue basis element, then
        diag(u, 1, ..., 1) for u in the unit group generators."""
        ring, n = self.label_ring, self.n

        def with_entry(a, b, c):
            mat = [[ring.one() if r == s else ring.zero() for s in range(n)] for r in range(n)]
            mat[a][b] = c
            return tuple(tuple(row) for row in mat)

        cs = [ring.mul_pi(cb, j) for j in range(ring.pi_level) for cb in self._residue_basis(ring)]
        return ([with_entry(a, b, c) for a in range(n) for b in range(n) if a != b
                 for c in cs if not ring.is_zero(c)]
                + [with_entry(0, 0, u) for u in unit_group_generators(ring)])

    def _rmat_mul(self, A, B):
        ring = self.label_ring
        cols = list(zip(*B))
        return tuple(tuple(_ring_dot(ring, row, col) for col in cols) for row in A)

    def enumerate_labels(self, mus):
        """One label per double coset with invariant in ``mus``; complete,
        pairwise distinct, ordered lexicographically by (mu, P, Q).

        Central invariants reduce to level-m classes (K is normal there) and
        are only bounded by the group order; windows with spread walk the
        pair-group orbit and carry the |G(o/p^m)|^2 guard.  Each window is
        kept as a map from canonical label to listed label, in listed order."""
        out = []
        for mu in sorted(set(check_antidominant(mu) for mu in mus)):
            window = self._label_cache.get(mu)
            if window is None:
                window = self._label_cache[mu] = self._walk(mu)
            out.extend(window.values())
        return out

    def representative(self, canon):
        """The label that ``enumerate_labels`` lists for the double coset
        whose canonical label is ``canon``."""
        if canon.mu not in self._label_cache:
            self.enumerate_labels([canon.mu])
        label = self._label_cache[canon.mu].get(canon)
        if label is None:
            raise InvariantViolationError(f"{canon} is not a canonical label of its window")
        return label

    def _walk(self, mu):
        """The window of mu: canonical label -> listed label, in label order."""
        if spread(mu) == 0:
            # central pi-power times G(o): K is normal there, so double
            # cosets biject with level-m classes, and (mu, x, I) is canonical
            idm = self.identity_label().Q
            return {lab: lab for lab in (CosetLabel(mu, x, idm, self.m)
                                         for x in self.group_elements())}
        if self.group_order() ** 2 > self.budget:
            raise BudgetExceededError(
                f"|G(o/p^m)|^2 = {self.group_order() ** 2} exceeds budget {self.budget}")
        gens = self._residue_gl_generators()
        start = self.unif_label(mu)
        found = {self.canonical_label(start): start}
        orbit = [start]
        for lab in orbit:       # breadth first: the loop reaches appended labels
            for s in gens:
                for moved in (CosetLabel(mu, self._rmat_mul(s, lab.P), lab.Q, self.m),
                              CosetLabel(mu, lab.P, self._rmat_mul(s, lab.Q), self.m)):
                    canon = self.canonical_label(moved)
                    if canon not in found:
                        found[canon] = moved
                        orbit.append(moved)
        # the walk is complete exactly when it found |G|^2 / |Gamma_mu| labels
        expected = self.group_order() ** 2 // self.gamma_order(mu)
        if len(found) != expected:
            raise InvariantViolationError(
                f"the walk found {len(found)} labels for {mu}, "
                f"|G|^2 / |Gamma_mu| = {expected}")
        return dict(sorted(found.items(), key=lambda kv: kv[1].sort_key()))

    def group_elements(self):
        """All residue matrices of GL_n(o/pi^m), in sorted order (budgeted):
        the n x n matrices over the label ring that pass residue_invertible."""
        if self._group_elements is not None:
            return self._group_elements
        if self.group_order() > self.pair_budget:
            raise BudgetExceededError(
                f"|G(o/p^m)| = {self.group_order()} exceeds pair budget")
        ring, n = self.label_ring, self.n
        # a product over the sorted elements lists matrices in sorted order
        els = []
        for entries in itertools.product(sorted(ring.elements()), repeat=n * n):
            mat = tuple(entries[i * n:(i + 1) * n] for i in range(n))
            if residue_invertible(ring, mat):
                els.append(mat)
        if len(els) != self.group_order():
            raise InvariantViolationError(
                f"found {len(els)} invertible residue matrices, "
                f"|G(o/p^m)| = {self.group_order()}")
        self._group_elements = els
        return els

    # -- serialization --------------------------------------------------------------

    def label_to_json(self, label):
        # a residue at level m is an element of the label ring
        ring = self.label_ring
        return {"mu": list(label.mu),
                "P": [[ring.coords_json(x) for x in row] for row in label.P],
                "Q": [[ring.coords_json(x) for x in row] for row in label.Q],
                "level": label.level}

    def label_from_json(self, d, field="label"):
        """Parse a wire-format label; a field of the wrong type or shape is a
        ConfigError naming it."""
        json_field(d, dict, field)
        n, ring = self.n, self.label_ring
        mu = json_field(d["mu"], list, f"{field}.mu", n)

        def residues(key):
            rows = json_field(d[key], list, f"{field}.{key}", n)
            return tuple(tuple(ring.coords_from_json(x)
                               for x in json_field(row, list, f"{field}.{key}[{i}]", n))
                         for i, row in enumerate(rows))

        mu = tuple(json_field(x, int, f"{field}.mu[{i}]") for i, x in enumerate(mu))
        if list(mu) != sorted(mu):
            raise ConfigError(f"{field}.mu must be non-decreasing, not {list(mu)}")
        level = json_field(d["level"], int, f"{field}.level")
        if level != self.m:
            raise ConfigError(f"{field}.level must be the congruence level {self.m}, not {level}")
        P, Q = residues("P"), residues("Q")
        # the closed-form transversal needs P and Q in GL_n(o)
        for key, data in (("P", P), ("Q", Q)):
            if not residue_invertible(ring, data):
                raise ConfigError(f"{field}.{key} is not invertible modulo pi")
        return CosetLabel(mu, P, Q, level)


def smith_pivot(ring, a, k):
    """(v, i, j) for the first entry, in (row, col) order, of least
    valuation in the block of ``a`` from row and column k on."""
    best = None
    for i in range(k, len(a)):
        row = a[i]
        for j in range(k, len(row)):
            v = ring.val(row[j])
            if best is None or v < best[0]:
                best = (v, i, j)
    return best


def residue_invertible(ring, mat):
    """Whether the square matrix ``mat`` over the local ring ``ring`` lies in
    GL_n, by elimination with unit pivots: a column of the remaining block
    without a unit vanishes modulo pi, and then so does the determinant."""
    rows = [list(row) for row in mat]
    n = len(rows)
    for k in range(n):
        piv = next((i for i in range(k, n) if ring.is_unit(rows[i][k])), None)
        if piv is None:
            return False
        rows[k], rows[piv] = rows[piv], rows[k]
        inv = ring.inv(rows[k][k])
        for i in range(k + 1, n):
            f = ring.mul(rows[i][k], inv)
            rows[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(rows[i], rows[k])]
    return True


def _ring_dot(ring, row, col):
    acc = ring.mul(row[0], col[0])
    for k in range(1, len(row)):
        acc = ring.add(acc, ring.mul(row[k], col[k]))
    return acc


def unit_group_generators(ring):
    """Small generating set of the unit group, greedy over sorted units."""
    units = sorted(u for u in ring.elements() if ring.is_unit(u))
    gens = []
    closure = {ring.one()}
    for u in units:
        if u in closure:
            continue
        gens.append(u)
        queue = deque(closure)
        while queue:
            a = queue.popleft()
            for g in gens:
                c = ring.mul(a, g)
                if c not in closure:
                    closure.add(c)
                    queue.append(c)
        if len(closure) == len(units):
            break
    return gens
