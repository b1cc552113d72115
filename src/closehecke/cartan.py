"""Cartan decomposition and double-coset machinery for GL_n at congruence
level m over a truncated local field side.

Left cosets g K_m carry a canonical key: scale g integral, column-reduce to
the lower-triangular Hermite form H over the valuation ring (diagonal
pi^{a_i}, below-diagonal entries reduced mod the diagonal of their row) and
record (scaling, a, reduced entries, H^{-1} g mod pi^m), H^{-1} g being the
inverse of the unimodular column operations.  The key determines the left
coset exactly.  Convolution does not need it: it names each product by its
Smith label.

A label (mu, P, Q) names K P pi^mu Q^{-1} K.  ``canonical_label`` picks one
representative per double coset by normal forms over the label ring alone:
it is the one double-coset identity, and the label walk of
``enumerate_labels`` is certified complete by the count |G|^2 / |Gamma_mu|.
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
from .matrices import INF, FieldElement, GroupMatrix, certified_min, check_antidominant, spread


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

    def default_pi_prec(self, mus):
        s = max((spread(mu) for mu in mus), default=0)
        neg = max((max(0, -mu[0]) for mu in mus), default=0)
        return self.m + 2 * s + neg + 4

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
        return GroupMatrix.from_residue(ring, data, self.m)

    def unif_power_matrix(self, mu, ring):
        return GroupMatrix.unif_diagonal(ring, mu, self.side.unif_unit_coords(ring))

    def _unif_powers(self, mu, ring):
        """The diagonal entries pi^mu_i of pi^mu, for scaling rows or columns."""
        w = self.side.unif_unit_coords(ring)
        return [FieldElement.unif_power(ring, k, w) for k in mu]

    def _lift_inverse(self, Q, ring):
        """lift(Q)^{-1} over ``ring``, inverted once per (Q, ring)."""
        inv = self._q_inverses.get((Q, ring))
        if inv is None:
            inv = self._q_inverses[(Q, ring)] = self.lift_residue_matrix(Q, ring).inverse()
        return inv

    def identity_label(self):
        return self.unif_label((0,) * self.n)

    def unif_label(self, mu):
        mu = check_antidominant(mu)
        idm = GroupMatrix.identity(self.label_ring, self.n).residue_matrix(self.m)
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

    def smith_cartan(self, g):
        """g = x pi_mu y^{-1} with x, y integral units and mu non-decreasing.

        Pivots take the entry of globally minimal certified valuation with
        lexicographic (row, col) tie-breaking; transforms are accumulated
        exactly (x undoes each row operation on its columns) and the
        distinguished-uniformizer unit is folded into y.
        """
        R, n = g.ring, g.n
        a = [list(row) for row in g.rows]
        X = [list(row) for row in GroupMatrix.identity(R, n).rows]
        Q = [list(row) for row in GroupMatrix.identity(R, n).rows]

        def row_sub(mat, i, k, f):
            mat[i] = [x - f * y for x, y in zip(mat[i], mat[k])]

        def col_sub(mat, j, k, f):
            for row in mat:
                row[j] = row[j] - f * row[k]

        mu = []
        for k in range(n):
            v0, (pi_, pj) = certified_min((a[i][j], (i, j))
                                          for i in range(k, n) for j in range(k, n))
            mu.append(v0)
            if pi_ != k:
                a[k], a[pi_] = a[pi_], a[k]
                for row in X:
                    row[k], row[pi_] = row[pi_], row[k]
            if pj != k:
                for mat in (a, Q):
                    for row in mat:
                        row[k], row[pj] = row[pj], row[k]
            pivot = a[k][k]
            inv_piv = pivot.inverse()
            for i in range(k + 1, n):
                f = a[i][k] * inv_piv
                # only an exact zero is skipped: a zero floor must reach
                # a, x and y, or they would certify what g does not fix
                if f.v != INF:
                    row_sub(a, i, k, f)
                    col_sub(X, k, i, -f)
            for j in range(k + 1, n):
                f = a[k][j] * inv_piv
                if f.v != INF:
                    col_sub(a, j, k, f)
                    col_sub(Q, j, k, f)
        # later steps never touch a[k][k], so it is still the pivot pi^v u_k,
        # and pi_nat^v u_k = pi_dist^v (w^{-v} u_k)
        w = self.side.unif_unit_coords(R)
        units = [FieldElement(R, 0, R.mul(a[k][k].unit, R.pow(w, -v)), a[k][k].prec)
                 for k, v in enumerate(mu)]
        if any(mu[i] > mu[i + 1] for i in range(n - 1)):
            raise InvariantViolationError(
                f"global min pivoting gave a decreasing invariant {tuple(mu)}")
        x = GroupMatrix(R, X)
        y = GroupMatrix(R, Q) * GroupMatrix.diagonal(R, [u.inverse() for u in units])
        return tuple(mu), x, y

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
        """lift(P) and pi^mu lift(Q)^{-1} over ``ring``, whose product is
        the label's matrix; pi^mu Q^{-1} scales the rows of Q^{-1}, as the
        products with the off-diagonal exact zeros of pi^mu change no sum."""
        right = GroupMatrix(ring, [[d * x for x in row] for d, row in
                                   zip(self._unif_powers(label.mu, ring),
                                       self._lift_inverse(label.Q, ring).rows)])
        return self.lift_residue_matrix(label.P, ring), right

    def label_matrix(self, label, ring):
        """g = lift(P) pi^mu lift(Q)^{-1} over ``ring``, one product: the
        u = I member of ``left_coset_reps``."""
        P, right = self._label_factors(label, ring)
        return P * right

    def left_coset_reps(self, label, ring):
        """Left-coset representatives of K g K / K for g = P pi^mu Q^{-1}.

        K_m is normal in GL_n(o), so K g K = P (K pi^mu K) Q^{-1}, and the
        Iwahori factorisation K_m = U^- T U^+ leaves only the lower
        unitriangular part: the cosets are P u pi^mu Q^{-1} K with u_ij (i > j)
        running over pi^m o / pi^(m + mu_i - mu_j).  Two such u in one coset
        agree entry by entry, diagonal by diagonal, so the list is
        duplicate-free and has prod q^(mu_i - mu_j) members; u = I comes first.
        """
        n, mu, m = self.n, label.mu, self.m
        P, right = self._label_factors(label, ring)
        # P u adds c_ij times column i of P to column j: the terms left out
        # are exact zeros
        pcols = list(zip(*P.rows))
        below = [(i, j) for i in range(1, n) for j in range(i)]
        choices = [self._digits(ring, m, m + mu[i] - mu[j]) for i, j in below]
        reps = []
        for entries in itertools.product(*choices):
            cols = list(pcols)
            for (i, j), c in zip(below, entries):
                f = FieldElement.make(ring, 0, c)
                cols[j] = [x + y * f for x, y in zip(cols[j], pcols[i])]
            reps.append(GroupMatrix(ring, zip(*cols)) * right)
        return reps

    def fingerprint(self, label, ring):
        """The keys of the left cosets in the double coset of ``label``, in
        the order of its transversal over ``ring``."""
        return [self.left_coset_key(g) for g in self.left_coset_reps(label, ring)]

    def label_of_matrix(self, g):
        mu, x, y = self.smith_cartan(g)
        return CosetLabel(mu, x.residue_matrix(self.m), y.residue_matrix(self.m),
                          self.m)

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
