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

Both are computed by one engine on value tables: float arrays of shape
(..., l, 2^l) whose entry [..., j, eta] is u_j(x_j, omega u {x_i : bit i of
eta is set}), so bit i of eta means that point i is added and eta = 0 is
omega itself. The leading axes batch independent tables. `_moebius` turns
the last axis into the multi-point differences D_Theta (Theta a bitmask
like eta), `_families` holds the ordered families (Theta_1, ..., Theta_l)
as one (F, l) index array, and `_family_products` multiplies the factors
D_{Theta_j} u_j in j order for every family at once.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

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
    table = _value_tables(kernels, points, config).tolist()
    l = len(table)
    full = (1 << l) - 1

    lhs = 0.0
    for eta in range(full + 1):
        sign = 1.0 if (l - eta.bit_count()) % 2 == 0 else -1.0
        prod = sign
        for j in range(l):
            prod *= table[j][eta]
        lhs += prod

    products = _family_products(_moebius(table), allow_empty=True)
    # a running sum in family order; adding it to 0.0 turns -0.0 into 0.0
    rhs = 0.0 + float(np.cumsum(products)[-1])
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
    return bool(_covers_vanish(_value_tables(kernels, points, config), tol))


def _value_tables(kernels, points, config) -> np.ndarray:
    """The (l, 2^l) value table of the kernels at the points over config."""
    pts = tuple(points)
    if len(kernels) != len(pts):
        raise ValueError("kernels and points must have equal length")
    l = len(pts)
    if not (1 <= l <= MAX_EXPANSION_LEN):
        raise ValueError(f"length must satisfy 1 <= l <= {MAX_EXPANSION_LEN}")
    augmented = [
        config | frozenset(pts[i] for i in range(l) if eta >> i & 1)
        for eta in range(1 << l)
    ]
    return np.array(
        [[kernels[j](pts[j], cfg) for cfg in augmented] for j in range(l)], dtype=float
    )


def _moebius(values) -> np.ndarray:
    """A new array d[..., theta] = sum over eta subset theta of
    (-1)^{|theta|-|eta|} values[..., eta] on the last axis: the Moebius
    transform, one index at a time, O(l 2^l) instead of O(3^l)."""
    d = np.array(values, dtype=float)
    for j in range(d.shape[-1].bit_length() - 1):
        halves = d.reshape(d.shape[:-1] + (-1, 2, 1 << j))
        halves[..., 1, :] -= halves[..., 0, :]
    return d


# keys are bounded by MAX_EXPANSION_LEN
@lru_cache(maxsize=None)
def _families(l: int, allow_empty: bool) -> np.ndarray:
    """(F, l) bitmasks of the ordered l-tuples of index subsets with full
    union; the subsets are nonempty unless allow_empty."""
    families = np.array(list(_cover_tuples(l, l, allow_empty)), dtype=np.intp)
    families.flags.writeable = False
    return families


def _family_products(d: np.ndarray, allow_empty: bool) -> np.ndarray:
    """(..., F) products prod_j d[..., j, Theta_j], multiplied in j order,
    over _families(l, allow_empty) for differences d of shape (..., l, 2^l)."""
    families = _families(d.shape[-2], allow_empty)
    products = d[..., 0, families[:, 0]]
    for j in range(1, families.shape[1]):
        products = products * d[..., j, families[:, j]]
    return products


def _covers_vanish(values: np.ndarray, tol: float) -> np.ndarray:
    """Per value table of a (..., l, 2^l) batch, whether no family of
    nonempty index subsets has a product above tol in absolute value."""
    products = _family_products(_moebius(values), allow_empty=False)
    return ~(np.abs(products) > tol).any(axis=-1)
