"""Tate cohomology of order-l operators over F_{l^k}, Frobenius twists,
composition factors and the linkage predicate.

Everything is exact linear algebra at desk dimension: vectors are coordinate
tuples, operators act on column vectors, subspaces are row-echelon bases.
T, the actions and their echelon bases are mostly zeros, so every kernel
works over nonzero entries only; an entry is tested for zero by equality
with a bound ``F.zero()``, so no kernel reads the layout of a field element.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .coeffs import CoeffField, frobenius_gcd, is_irreducible, poly_trim
from .errors import (
    ConfigError,
    DimBoundExceededError,
    GeneratorNameMismatchError,
    InvariantViolationError,
    MissingActionError,
    NotOrderLError,
    SpecMismatchError,
    UndecidedError,
    json_field,
)

DIM_BOUND = 24


# ---------------------------------------------------------------------------
# matrices over a CoeffField: tuples of tuples of field coordinates

def mat_identity(F, d):
    zero, one = F.zero(), F.one()
    return tuple(tuple(one if i == j else zero for j in range(d)) for i in range(d))


def mat_zero(F, d):
    zero = F.zero()
    return tuple(tuple(zero for _ in range(d)) for _ in range(d))


def mat_scale(F, c, A):
    """c A over the nonzero entries of A."""
    zero = F.zero()
    return tuple(tuple(x if x == zero else F.mul(c, x) for x in row) for row in A)


def mat_add(F, A, B):
    """A + B; where either entry is zero the other passes through."""
    zero = F.zero()
    return tuple(tuple(x if y == zero else y if x == zero else F.add(x, y)
                       for x, y in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_sub(F, A, B):
    """A - B; where B's entry is zero A's passes through."""
    zero = F.zero()
    return tuple(tuple(x if y == zero else F.sub(x, y) for x, y in zip(ra, rb))
                 for ra, rb in zip(A, B))


def mat_mul(F, A, B):
    """A B over pairs of nonzero entries: the nonzero entries of each row of
    B are listed once, and each nonzero a_ik meets only those of row k.  T
    and the actions are mostly zeros."""
    zero = F.zero()
    m = len(B[0]) if B else 0
    rows_b = [[(j, b) for j, b in enumerate(rb) if b != zero] for rb in B]
    out = []
    for ra in A:
        acc = [zero] * m
        for a, rb in zip(ra, rows_b):
            if a != zero:
                for j, b in rb:
                    acc[j] = F.add(acc[j], F.mul(a, b))
        out.append(tuple(acc))
    return tuple(out)


def mat_transpose(A):
    if not A:
        return A
    return tuple(tuple(A[i][j] for i in range(len(A))) for j in range(len(A[0])))


def mat_apply(F, A, v):
    """A v over the nonzero entries of v, and of each row of A there."""
    zero = F.zero()
    support = [(j, y) for j, y in enumerate(v) if y != zero]
    out = []
    for row in A:
        acc = zero
        for j, y in support:
            x = row[j]
            if x != zero:
                acc = F.add(acc, F.mul(x, y))
        out.append(acc)
    return tuple(out)


def _sub_multiple(F, v, f, row, zero):
    """v -= f row in place, over the nonzero entries of row."""
    for j, y in enumerate(row):
        if y != zero:
            v[j] = F.sub(v[j], F.mul(f, y))


def rref(F, rows):
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    A pivot of one leaves its row unscaled (always so over F_2), another
    scales only the row's nonzero entries, and elimination subtracts only
    over the pivot row's nonzero entries."""
    zero, one = F.zero(), F.one()
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] != zero:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        row = rows[r]
        if row[c] != one:
            inv = F.inv(row[c])
            row = rows[r] = [x if x == zero else F.mul(inv, x) for x in row]
        for i in range(len(rows)):
            if i != r and rows[i][c] != zero:
                _sub_multiple(F, rows[i], rows[i][c], row, zero)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[:r]], pivots


def reduce_against(F, echelon, pivots, v):
    """Remainder of v modulo the row span of an echelon basis; each row with
    a nonzero entry of v at its pivot is subtracted over its nonzero
    entries."""
    zero = F.zero()
    v = list(v)
    for row, c in zip(echelon, pivots):
        if v[c] != zero:
            _sub_multiple(F, v, v[c], row, zero)
    return tuple(v)


def kernel_basis(F, A):
    """Row-echelon basis of {v : A v = 0}; A may be rectangular."""
    if not A:
        return []
    zero, one = F.zero(), F.one()
    d = len(A[0])
    ech, pivots = rref(F, A)
    free = [c for c in range(d) if c not in pivots]
    basis = []
    for c in free:
        v = [zero] * d
        v[c] = one
        for row, pc in zip(ech, pivots):
            v[pc] = F.neg(row[c])
        basis.append(tuple(v))
    ech2, _ = rref(F, basis) if basis else ([], [])
    return ech2


def image_basis(F, A):
    """Row-echelon basis of the column space of A."""
    zero = F.zero()
    cols = [tuple(A[i][j] for i in range(len(A))) for j in range(len(A[0]))] if A else []
    nz = [c for c in cols if any(x != zero for x in c)]
    if not nz:
        return []
    ech, _ = rref(F, nz)
    return ech


def solve_in_span(F, basis_rows, v):
    """Coefficients expressing v in the given (independent) rows, or None."""
    zero = F.zero()
    if not basis_rows:
        return None if any(x != zero for x in v) else ()
    d = len(v)
    k = len(basis_rows)
    aug = [[basis_rows[j][i] for j in range(k)] + [v[i]] for i in range(d)]
    ech, pivots = rref(F, aug)
    coeffs = [zero] * k
    for row, c in zip(ech, pivots):
        if c == k:
            return None  # inconsistent
        coeffs[c] = row[k]
    # verify (guards against underdetermined nonsense): v - sum cf b = 0
    rest = list(v)
    for cf, b in zip(coeffs, basis_rows):
        if cf != zero:
            _sub_multiple(F, rest, cf, b, zero)
    return tuple(coeffs) if all(x == zero for x in rest) else None


# ---------------------------------------------------------------------------
# modules

@dataclass(frozen=True)
class CyclicModule:
    """Finite-dimensional F_{l^k}-space with an order-l operator and an
    optional named generator action."""
    field: CoeffField
    dim: int
    T: tuple
    action: dict = dc_field(default_factory=dict)


def module_from_json(d):
    """Parse a module file; a wrong-typed or wrong-shaped field is a
    ConfigError naming it."""
    F = CoeffField(json_field(d["l"], int, "l"), json_field(d.get("k", 1), int, "k"))
    dim = json_field(d["dim"], int, "dim")
    if dim < 0:
        raise ConfigError(f"dim must not be negative, got {dim}")

    def mat(rows, name):
        return tuple(tuple(F.coords_from_json(x)
                           for x in json_field(row, list, f"{name} row", dim))
                     for row in json_field(rows, list, name, dim))

    action = json_field(d.get("action", {}), dict, "action")
    return CyclicModule(F, dim, mat(d["T"], "T"),
                        {name: mat(rows, f"action {name}") for name, rows in action.items()})


@dataclass(frozen=True)
class TateResult:
    i: int
    dim: int
    basis: tuple

    def to_json(self, F):
        return {"i": self.i, "dim": self.dim,
                "basis": [[F.coords_json(x) for x in row] for row in self.basis]}


def norm_operator(M: CyclicModule):
    """N = id + T + ... + T^(l-1); raises NotOrderLError unless T^l = id."""
    F = M.field
    ident = mat_identity(F, M.dim)
    out = acc = ident
    for _ in range(F.l - 1):
        acc = mat_mul(F, acc, M.T)
        out = mat_add(F, out, acc)
    if mat_mul(F, acc, M.T) != ident:
        raise NotOrderLError("T^l is not the identity")
    return out


def _pivots(F, echelon):
    """Pivot columns of an echelon basis: each row's first nonzero entry."""
    zero = F.zero()
    return [next(c for c, x in enumerate(row) if x != zero) for row in echelon]


def _subquotient_action(F, ops, sub, quo, basis, error):
    """Matrices that the operators ``ops`` (name -> matrix) induce on the
    subquotient sub/quo, in ``basis``.

    Each space is a reduced echelon basis with its pivots, as (rows, pivots);
    sub is None for the whole space.  ``basis`` spans a complement of quo in
    sub and vanishes at quo's pivots, so the coordinates of a vector of sub
    reduced against quo are its entries at the pivots of ``basis``.  An
    operator that leaves sub, or moves quo off itself, raises ``error``."""
    zero = F.zero()
    rows, pivots = basis
    out = {}
    for name, A in ops.items():
        for w in quo[0]:
            if any(x != zero for x in reduce_against(F, *quo, mat_apply(F, A, w))):
                raise error(f"{name} does not descend to the quotient")
        cols = []
        for b in rows:
            v = mat_apply(F, A, b)
            if sub is not None and any(x != zero for x in reduce_against(F, *sub, v)):
                raise error(f"{name} does not preserve the subspace")
            v = reduce_against(F, *quo, v)
            cols.append([v[c] for c in pivots])
        out[name] = tuple(tuple(col[i] for col in cols) for i in range(len(rows)))
    return out


def _tate_spaces(M: CyclicModule, i: int):
    """(ker, im, quotient basis) of H^i: H^0 = ker(id - T)/im(N), H^1 =
    ker(N)/im(id - T).  Each is a reduced echelon basis with its pivots,
    and the quotient basis vanishes at the pivots of im."""
    F = M.field
    N = norm_operator(M)
    A = mat_sub(F, mat_identity(F, M.dim), M.T)
    if i == 0:
        ker, im = kernel_basis(F, A), image_basis(F, N)
    elif i == 1:
        ker, im = kernel_basis(F, N), image_basis(F, A)
    else:
        raise SpecMismatchError("i must be 0 or 1")
    zero = F.zero()
    im_piv = _pivots(F, im)
    reduced = []
    for row in ker:
        rem = reduce_against(F, im, im_piv, row)
        if any(x != zero for x in rem):
            reduced.append(rem)
    qbasis, q_piv = rref(F, reduced) if reduced else ([], [])
    if len(qbasis) != len(ker) - len(im):
        raise InvariantViolationError(
            f"H^{i} quotient has dimension {len(qbasis)}, "
            f"expected {len(ker)} - {len(im)}")
    return (ker, _pivots(F, ker)), (im, im_piv), (qbasis, q_piv)


def tate_cohomology(M: CyclicModule, i: int) -> TateResult:
    """H^i with the quotient basis in reduced echelon form."""
    qbasis = _tate_spaces(M, i)[2][0]
    return TateResult(i, len(qbasis), tuple(qbasis))


def tate_quotient_module(M: CyclicModule, i: int) -> CyclicModule:
    """The Tate quotient with the induced named-generator action; T and the
    generators must preserve the kernel and the image involved."""
    ker, im, quo = _tate_spaces(M, i)

    def induce(ops):
        return _subquotient_action(M.field, ops, ker, im, quo, SpecMismatchError)

    return CyclicModule(M.field, len(quo[0]), induce({"T": M.T})["T"],
                        induce(dict(sorted(M.action.items()))))


def frobenius_twist(M: CyclicModule) -> CyclicModule:
    """Entrywise inverse Frobenius x -> x^(l^(k-1)) on T and the action;
    applying it k times returns the original module."""
    F = M.field

    def tw(mat):
        return tuple(tuple(F.inv_frobenius(x) for x in row) for row in mat)

    return CyclicModule(F, M.dim, tw(M.T),
                        {name: tw(op) for name, op in M.action.items()})


def _matrix_polynomial(F, f, A):
    """f(A) by Horner's rule."""
    ident = mat_identity(F, len(A))
    out = mat_zero(F, len(A))
    for c in reversed(f):
        out = mat_add(F, mat_mul(F, out, A), mat_scale(F, c, ident))
    return out


def min_poly(F, A):
    """Monic minimal polynomial of A, by the first linear dependence among
    its flattened powers."""
    d = len(A)
    powers = [mat_identity(F, d)]
    flat = [tuple(x for row in powers[0] for x in row)]
    while True:
        nxt = mat_mul(F, powers[-1], A)
        v = tuple(x for row in nxt for x in row)
        coeffs = solve_in_span(F, flat, v)
        if coeffs is not None:
            return poly_trim(F, [F.neg(c) for c in coeffs] + [F.one()])
        powers.append(nxt)
        flat.append(v)


# ---------------------------------------------------------------------------
# composition factors (deterministic spin-up splitter)

def spin(F, mats, v):
    """Row-echelon basis of the smallest invariant subspace containing v."""
    zero = F.zero()
    basis, pivots = rref(F, [v])
    queue = list(basis)
    while queue:
        w = queue.pop(0)
        for A in mats:
            u = mat_apply(F, A, w)
            rem = reduce_against(F, basis, pivots, u)
            if any(x != zero for x in rem):
                stacked = list(basis) + [rem]
                basis, pivots = rref(F, stacked)
                queue.append(rem)
    return basis


def _theta_candidates(F, mats, d, seed):
    """Deterministic stream of algebra elements used by the splitter."""
    import random
    rng = random.Random(seed)
    scalars = list(F.elements()) if F.k > 1 else [F.from_int(c) for c in range(F.l)]
    zero = F.zero()
    ident = mat_identity(F, d)
    for A in mats:
        yield A
        for c in scalars:
            if c != zero:
                yield mat_sub(F, A, mat_scale(F, c, ident))
    for A in mats:
        for B in mats:
            yield mat_mul(F, A, B)
            yield mat_add(F, A, B)
    # random combinations of words in the generators, one product longer
    # each draw: combinations of the generators alone miss most of the algebra
    words = list(mats)
    for _ in range(40):
        words.append(mat_mul(F, rng.choice(words), rng.choice(words)))
        acc = mat_zero(F, d)
        for A in words:
            c = F.from_int(rng.randrange(F.l))
            acc = mat_add(F, acc, mat_scale(F, c, A))
        yield acc


def _probe_singular(F, d, mats, theta):
    """Try to split using the kernel of a singular algebra element; returns
    a proper submodule, True for a simplicity certificate (Parker nullity
    one), or None when inconclusive."""
    ker = kernel_basis(F, theta)
    if not (0 < len(ker) < d):
        return None
    for v in ker:
        W = spin(F, mats, v)
        if len(W) < d:
            return W
    if len(ker) == 1:
        kert = kernel_basis(F, mat_transpose(theta))
        matst = [mat_transpose(A) for A in mats]
        Wt = spin(F, matst, kert[0])
        if len(Wt) < d:
            ann = kernel_basis(F, tuple(Wt))
            if not 0 < len(ann) < d:
                raise InvariantViolationError(
                    f"annihilator of a proper transposed submodule has dimension {len(ann)}")
            return ann
        return True
    return None


def find_proper_submodule(F, d, mats, seed=0):
    """A proper nonzero invariant subspace (echelon rows), or None when the
    module is certified simple.

    Certificates: a generated-algebra element with irreducible minimal
    polynomial of full degree, or Parker's nullity-one criterion.  Kernels of
    the distinct-degree parts of minimal polynomials supply the singular
    elements.  Raises UndecidedError when the candidate budget is exhausted.
    """
    if d == 1:
        return None
    # cheap first pass: a standard basis vector may already generate a
    # proper submodule (always so with no generators or scalar ones)
    for idx in range(d):
        v = [F.zero()] * d
        v[idx] = F.one()
        W = spin(F, mats, tuple(v))
        if len(W) < d:
            return W
    for theta in _theta_candidates(F, mats, d, seed):
        res = _probe_singular(F, d, mats, theta)
        if res is True:
            return None
        if res is not None:
            return res
        m = min_poly(F, theta)
        deg = len(m) - 1
        if deg == d and is_irreducible(F, m):
            # the algebra contains a field of degree d: invariant subspaces
            # are vector spaces over it, so only 0 and the whole space
            return None
        for i in range(1, deg + 1):
            g = frobenius_gcd(F, m, i)
            if len(g) - 1 < 1:
                continue
            res = _probe_singular(F, d, mats, _matrix_polynomial(F, g, theta))
            if res is True:
                return None
            if res is not None:
                return res
    raise UndecidedError("no splitting element found within the candidate budget")


def composition_factors(M: CyclicModule, seed=0):
    """Jordan-Holder factors of the named-generator module, as simple
    CyclicModules (T is the identity on each factor)."""
    if not M.action:
        raise MissingActionError("composition factors need a named action")
    if M.dim > DIM_BOUND:
        raise DimBoundExceededError(f"dim {M.dim} exceeds bound {DIM_BOUND}")
    F = M.field
    factors = []
    stack = [(M.dim, M.action)]
    while stack:
        d, mats_named = stack.pop()
        if d == 0:
            continue
        mats = [mats_named[name] for name in sorted(mats_named)]
        W = find_proper_submodule(F, d, mats, seed)
        if W is None:
            factors.append(CyclicModule(F, d, mat_identity(F, d), dict(mats_named)))
            continue
        sub = (W, _pivots(F, W))
        comp = [c for c in range(d) if c not in sub[1]]
        units = [tuple(F.one() if j == c else F.zero() for j in range(d)) for c in comp]
        stack.append((len(W), _subquotient_action(F, mats_named, sub, ([], []), sub,
                                                  InvariantViolationError)))
        stack.append((d - len(W), _subquotient_action(F, mats_named, None, sub,
                                                      (units, comp),
                                                      InvariantViolationError)))
    factors.sort(key=lambda fac: (fac.dim, sorted(fac.action.items())))
    return factors


# ---------------------------------------------------------------------------
# module isomorphism and linkage

def modules_isomorphic(A: CyclicModule, B: CyclicModule) -> bool:
    """Simultaneous-conjugacy test over the shared generator names.  For the
    simple modules produced by the splitter any nonzero intertwiner is
    invertible, so the test is exact."""
    if A.dim != B.dim:
        return False
    if set(A.action) != set(B.action):
        raise GeneratorNameMismatchError("modules act through different generator names")
    F = A.field
    d = A.dim
    if d == 0:
        return True
    rows = []
    for name in sorted(A.action):
        Am, Bm = A.action[name], B.action[name]
        # X A = B X, linear in X: row for each (i, j)
        for i in range(d):
            for j in range(d):
                row = [F.zero()] * (d * d)
                for k in range(d):
                    row[i * d + k] = F.add(row[i * d + k], Am[k][j])
                    row[k * d + j] = F.sub(row[k * d + j], Bm[i][k])
                rows.append(tuple(row))
    if not rows:
        return True
    sols = kernel_basis(F, tuple(rows))
    for v in sols:
        X = tuple(tuple(v[i * d + j] for j in range(d)) for i in range(d))
        ech, _ = rref(F, X)
        if len(ech) == d:
            return True
    if sols:
        raise UndecidedError("nonzero intertwiners exist but none certified invertible")
    return False


def linkage_check(Xi: CyclicModule, rho: CyclicModule, br_map: dict, seed=0):
    """Is the Frobenius twist of rho a Jordan-Holder constituent of a Tate
    cohomology group of Xi, over the shared sigma-invariant generator names?

    Returns {0: bool, 1: bool}."""
    if Xi.dim > DIM_BOUND or rho.dim > DIM_BOUND:
        raise DimBoundExceededError("module dimension exceeds bound")
    if not Xi.action or not rho.action:
        raise MissingActionError("both modules need named actions")
    if set(br_map) != set(Xi.action):
        raise GeneratorNameMismatchError("br map keys must match Xi's generators")
    for name, img in br_map.items():
        if img not in rho.action:
            raise GeneratorNameMismatchError(f"rho has no action for {img!r}")
    twisted = frobenius_twist(rho)
    target = CyclicModule(rho.field, rho.dim, mat_identity(rho.field, rho.dim),
                          {name: twisted.action[br_map[name]] for name in br_map})
    out = {}
    for i in (0, 1):
        quot = tate_quotient_module(Xi, i)
        if quot.dim == 0:
            out[i] = False
            continue
        linked = False
        for fac in composition_factors(quot, seed=seed):
            if fac.dim == target.dim and modules_isomorphic(fac, target):
                linked = True
                break
        out[i] = linked
    return out
