"""Point-addition and finite-difference calculus on configuration functionals.

The building blocks are

    (add_points(F, x_1..x_n))(omega) = F(omega u {x_1..x_n})
    (diff(F, x))(omega)              = F(omega u {x}) - F(omega)

and the multi-point difference over a set Theta of points, which expands as
the alternating sum over subsets eta of Theta with sign (-1)^{|Theta|-|eta|}
and coincides with composing single-point differences in any order. The
expansion identities relate products of kernels differenced jointly to sums
over families of index subsets, and the cover condition is the hypothesis
under which that joint difference vanishes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Callable, Sequence

from .combinatorics import _cover_tuples

Functional = Callable[[frozenset], float]
Kernel = Callable[[object, frozenset], float]

MAX_EXPANSION_LEN = 4
DEFAULT_COVER_TOL = 1e-12


def add_points(functional: Functional, points: Sequence) -> Functional:
    """omega -> F(omega u {x_1, ..., x_n}); duplicates collapse by set union."""
    added = frozenset(points)
    if not added:
        return functional

    def shifted(config):
        return functional(config | added)

    return shifted


def diff(functional: Functional, x) -> Functional:
    """Single-point finite difference D_x F."""

    def differenced(config):
        return functional(config | {x}) - functional(config)

    return differenced


def diff_multi(functional: Functional, theta) -> Functional:
    """Multi-point finite difference over the set of points theta.

    Alternating-sum form; equal to iterating diff over the elements of
    theta in any order. The empty theta gives back F.
    """
    points = tuple(frozenset(theta))
    size = len(points)

    def differenced(config):
        total = 0.0
        for k in range(size + 1):
            sign = 1.0 if (size - k) % 2 == 0 else -1.0
            for subset in combinations(points, k):
                total += sign * functional(config | frozenset(subset))
        return total

    return differenced


def product_expansion_gap(
    kernels: Sequence[Kernel], points: Sequence, config
) -> tuple[float, float]:
    """Both sides of the product difference expansion.

    lhs: the iterated difference D_{x_1} ... D_{x_l} applied to
    omega -> prod_j u_j(x_j, omega), evaluated at config.

    rhs: the sum over ordered families (Theta_1, ..., Theta_l) of possibly
    empty index subsets with union {1..l} of prod_j D_{Theta_j} u_j(x_j, .)
    at config, where D_{Theta_j} differences in the points indexed by
    Theta_j (the empty set acting as the identity).
    """
    table = _value_tables(kernels, points, config)
    l = len(table)
    full = (1 << l) - 1

    lhs = 0.0
    for eta in range(full + 1):
        sign = 1.0 if (l - eta.bit_count()) % 2 == 0 else -1.0
        prod = sign
        for j in range(l):
            prod *= table[j][eta]
        lhs += prod

    d_tables = [_difference_table(row, l) for row in table]
    rhs = 0.0
    for family in _families(l, allow_empty=True):
        prod = 1.0
        for j in range(l):
            prod *= d_tables[j][family[j]]
            if prod == 0.0:
                break
        rhs += prod
    return lhs, rhs


def cover_condition_holds(
    kernels: Sequence[Kernel],
    points: Sequence,
    config,
    tol: float = DEFAULT_COVER_TOL,
) -> bool:
    """Check the vanishing-cover hypothesis.

    True iff for every ordered family (Theta_1, ..., Theta_m) of nonempty
    index subsets with union {1..m},

        |D_{Theta_1} u_1(x_1, .) ... D_{Theta_m} u_m(x_m, .)| <= tol

    at the given configuration. This is the hypothesis under which the full
    product difference (lhs of product_expansion_gap) vanishes.
    """
    table = _value_tables(kernels, points, config)
    m = len(table)
    d_tables = [_difference_table(row, m) for row in table]
    for family in _families(m, allow_empty=False):
        prod = 1.0
        for j in range(m):
            prod *= d_tables[j][family[j]]
            if prod == 0.0:
                break
        if abs(prod) > tol:
            return False
    return True


def _value_tables(kernels, points, config):
    """table[j][eta_mask] = u_j(x_j, config u {points[i] : i in eta})."""
    pts = tuple(points)
    if len(kernels) != len(pts):
        raise ValueError("kernels and points must have equal length")
    l = len(pts)
    if not (1 <= l <= MAX_EXPANSION_LEN):
        raise ValueError(f"length must satisfy 1 <= l <= {MAX_EXPANSION_LEN}")
    augmented = []
    for eta in range(1 << l):
        extra = frozenset(pts[i] for i in range(l) if eta >> i & 1)
        augmented.append(config | extra)
    return [
        [kernels[j](pts[j], augmented[eta]) for eta in range(1 << l)]
        for j in range(l)
    ]


def _difference_table(values, l):
    """d[theta_mask] = sum over eta subset theta of signed values[eta].

    The Moebius transform on the subset lattice, one index at a time:
    O(l 2^l) instead of the O(3^l) sum over submasks.
    """
    out = list(values)
    for j in range(l):
        bit = 1 << j
        for theta in range(1 << l):
            if theta & bit:
                out[theta] -= out[theta ^ bit]
    return out


# keys are bounded by MAX_EXPANSION_LEN
@lru_cache(maxsize=None)
def _families(m: int, allow_empty: bool) -> tuple:
    """Ordered m-tuples of index subsets of {1..m} whose union is full."""
    return tuple(_cover_tuples(m, m, allow_empty))
