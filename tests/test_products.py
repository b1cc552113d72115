"""Basis products pinned across kernels, and the precision bound they run at.

``test_basis_products_are_pinned`` records the sha256 of the canonical JSON
of a seeded stream of ``HeckeAlgebra._basis_product`` results (labels as
printed, counts, in order) over sides of nine towers: F, F', E and E' at
p = 2 and 3, equal-equal pairs with lambda(t) = t + t^2 and 2t, and n = 3.
The equal-equal F' with ``unif_image=(2,)`` has a distinguished uniformizer
2t, so a central shift by the natural uniformizer instead of the
distinguished one would move the residues of y, and the digest with them.
The benchmark documents restrict E-side products to 0, so this pin is the
evidence that an E-side product keeps its labels and counts.
"""

import hashlib
import json
import random

import pytest

from closehecke.errors import InsufficientPrecisionError
from closehecke.matrices import FieldElement, GroupMatrix, cochar_window, coord_mul, spread
from closehecke.transfer import Tower, random_label

from helpers import label_of

# (tower arguments, sides, n, cocharacter window (lo, hi, max spread), products per side)
_STREAM = [
    ((2, 1), {"case": "unramified", "l": 3}, ("F", "F'", "E", "E'"), 2, (-1, 1, 1), 16),
    ((3, 1), {"case": "ramified", "l": 2}, ("F", "F'", "E", "E'"), 2, (-1, 1, 1), 16),
    ((2, 1), {"n": 3}, ("F", "F'"), 3, (0, 1, 1), 16),
    ((3, 1), {}, ("F", "F'"), 2, (-1, 2, 2), 20),
    ((2, 2), {"pair_mode": "equal-equal", "unif_image": (1, 1)}, ("F", "F'"), 2, (-1, 2, 2), 20),
    ((2, 3), {"pair_mode": "equal-equal", "unif_image": (1, 1)}, ("F", "F'"), 2, (0, 2, 2), 20),
    ((3, 2), {"pair_mode": "equal-equal", "unif_image": (2,)}, ("F", "F'"), 2, (-1, 2, 2), 20),
    ((3, 2), {"pair_mode": "equal-equal", "unif_image": (2,), "case": "ramified", "l": 2},
     ("E", "E'"), 2, (0, 1, 1), 10),
    ((2, 1), {"n": 3, "case": "unramified", "l": 3}, ("E",), 3, (0, 1, 1), 4),
]

_PINNED = "ac254cf79e155570aa9cac3f96f1e99ffc3088e6b3e78eabff121f3a1bdba0ac"


def _stream():
    """The products of the stream, as JSON-ready records in order."""
    out = []
    rng = random.Random(2024)
    for (p, m), kw, sides, n, (lo, hi, s), count in _STREAM:
        tower = Tower(p, m, **kw)
        assert tower.n == n
        for side in sides:
            H, ctx = tower.alg[side], tower.ctx[side]
            mus = cochar_window(n, lo, hi, max_spread=s)
            for _ in range(count):
                la, lb = random_label(ctx, rng, mus), random_label(ctx, rng, mus)
                out.append([side, ctx.label_to_json(la), ctx.label_to_json(lb),
                            [[ctx.label_to_json(lab), cnt] for lab, cnt in H._basis_product(la, lb)]])
    return out


def test_basis_products_are_pinned():
    text = json.dumps(_stream(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED


# -- the bound -------------------------------------------------------------------

_BOUND_TOWERS = [
    ((2, 1), {"case": "unramified", "l": 3}, ("F", "E")),
    ((3, 1), {"case": "ramified", "l": 2}, ("F'", "E", "E'")),
    ((3, 2), {"pair_mode": "equal-equal", "unif_image": (2,)}, ("F'",)),
    ((2, 1), {"n": 3}, ("F",)),
]


def _random_coords(ring, rng, n):
    return tuple(tuple(ring.element(rng.randrange(ring.size())) for _ in range(n))
                 for _ in range(n))


@pytest.mark.parametrize("tower_args", _BOUND_TOWERS, ids=lambda t: str(t[:2]))
def test_a_product_moved_by_pi_to_the_n_keeps_its_label(tower_args):
    # N = m + spread(mu_a) + spread(mu_b) fixes the label of every a b_j:
    # read over a deeper ring, a b_j + pi^N h names the same label (the
    # residues of x and y included) for seeded integral h
    (p, m), kw, sides = tower_args
    tower = Tower(p, m, **kw)
    rng = random.Random(31)
    for side in sides:
        ctx = tower.ctx[side]
        mus = cochar_window(tower.n, -1, 1, max_spread=1)
        for _ in range(3):
            la, lb = random_label(ctx, rng, mus), random_label(ctx, rng, mus)
            N = ctx.m + spread(la.mu) + spread(lb.mu)
            shift = la.mu[0] + lb.mu[0]
            ring, deep = ctx.working_ring(N), ctx.working_ring(N + 3)
            a, a_deep = ctx.label_matrix(la, ring), ctx.label_matrix(la, deep)
            for bj, bj_deep in zip(ctx.left_coset_reps(lb, ring), ctx.left_coset_reps(lb, deep)):
                label = ctx.label_of_matrix(coord_mul(ring, a, bj), ring, shift)
                g = coord_mul(deep, a_deep, bj_deep)
                assert ctx.label_of_matrix(g, deep, shift) == label
                h = _random_coords(deep, rng, tower.n)
                moved = tuple(tuple(deep.add(x, deep.mul_pi(y, N)) for x, y in zip(rg, rh))
                              for rg, rh in zip(g, h))
                assert ctx.label_of_matrix(moved, deep, shift) == label


def test_a_matrix_known_below_the_bound_is_refused():
    # a product with lambda_n = 2 read at pi^(lambda_n + m - 1): some lift
    # leaves the double coset, so the conversion of a precision-tracked
    # matrix refuses it; at pi^(lambda_n + m) it is named
    tower = Tower(3, 1)
    ctx = tower.ctx["F"]
    la, lb = ctx.unif_label((0, 1)), ctx.unif_label((0, 1))
    ring = ctx.working_ring(3)
    g = coord_mul(ring, ctx.label_matrix(la, ring), ctx.left_coset_reps(lb, ring)[1])
    assert ctx.smith_cartan(g, ring)[0] == (0, 2)
    for known, named in ((2, False), (3, True)):
        G = GroupMatrix(ring, [[FieldElement.make(ring, 0, x, known) for x in row] for row in g])
        if named:
            assert label_of(ctx, G) == ctx.label_of_matrix(g, ring)
        else:
            with pytest.raises(InsufficientPrecisionError):
                label_of(ctx, G)


def test_smith_refusals_are_typed():
    # no pivot below pi^N, and a largest invariant lambda_n below N with
    # lambda_n + m above it, are InsufficientPrecisionError, not bare asserts
    ctx = Tower(2, 2, pair_mode="equal-equal").ctx["F"]
    ring = ctx.working_ring(4)
    zero, one, pi2 = ring.zero(), ring.one(), ring.mul_pi(ring.one(), 2)
    with pytest.raises(InsufficientPrecisionError, match="no pivot"):
        ctx.smith_cartan(((zero, zero), (zero, zero)), ring)
    with pytest.raises(InsufficientPrecisionError, match="needs pi"):
        ctx.smith_cartan(((one, zero), (zero, pi2)), ring, prec=3)
    assert ctx.smith_cartan(((one, zero), (zero, pi2)), ring)[0] == (0, 2)
