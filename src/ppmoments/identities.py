"""Exact two-sided evaluation of the moment identities on finite models.

Each evaluator computes the left side by brute-force expectation and the
right side by the tuple-sum representation it is supposed to equal, then
packages both into an IdentityReport. The identities are theorems, so any
gap beyond float roundoff is an implementation bug; the reports make that
check mechanical.

Right sides sum over ordered tuples of distinct sites. Tuples that meet
the current configuration or repeat a site contribute zero through the
compound Campbell density, which is what makes the atomic convention
consistent with counting ordered distinct tuples of points.

Both sides are array expressions over the model's bitmask tables (see
finite_model), so every functional and kernel is called once per
configuration. A random set has one table, R[x, mask] at every site of
every configuration, built and checked by validate_disjoint; the counts
N(A) of every left side come from it (_counts), and the single-region
identities are the one-region case of the joint one (_setup). Each
right-side term w(t) P(omega) chat(t, omega) integrand(omega u t) is formed
separately, in (tuple x configuration) blocks of bounded size, and all
terms are added exactly: each block's sum and the sum of the block partials
are the exact sums rounded once, equal to math.fsum's bit for bit
(finite_model._fsum, which leaves arrays of fewer than 1024 values to
math.fsum itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Sequence

import numpy as np

from .combinatorics import falling_factorial, partitions, stirling2
from .difference_ops import _covers_vanish, _moebius
from .finite_model import (
    Configuration,
    FiniteModel,
    Functional,
    Kernel,
    RandomSet,
    _fsum,
)

MAX_IDENTITY_ORDER = 4
MAX_IDENTITY_SITES = 12
# terms per block of a right side
_BLOCK_TERMS = 1 << 17


class DisjointnessError(ValueError):
    """Raised when supposedly disjoint random regions overlap for some omega."""


class NotPoissonError(ValueError):
    """Raised when the independence check receives a non-Poisson model."""


class RandomWeightError(ValueError):
    """Raised when a region's weight multiset varies with the configuration."""


class CoverConditionError(ValueError):
    """Raised when the vanishing-cover hypothesis fails on sampled points."""


@dataclass
class IdentityReport:
    """Two-sided evaluation of one identity instance."""

    name: str
    lhs: float
    rhs: float
    abs_gap: float
    rel_gap: float
    parameters: dict = field(default_factory=dict)

    @classmethod
    def build(cls, name: str, lhs: float, rhs: float, parameters: dict) -> "IdentityReport":
        abs_gap = abs(lhs - rhs)
        rel_gap = abs_gap / (1.0 + max(abs(lhs), abs(rhs)))
        return cls(name, lhs, rhs, abs_gap, rel_gap, parameters)

    def to_dict(self) -> dict:
        return dict(vars(self))


# -- shared helpers -----------------------------------------------------------


def _guard(model: FiniteModel, n: int):
    if not (1 <= n <= MAX_IDENTITY_ORDER):
        raise ValueError(f"order must satisfy 1 <= n <= {MAX_IDENTITY_ORDER}")
    if model.m > MAX_IDENTITY_SITES:
        raise ValueError(f"identity evaluators support at most {MAX_IDENTITY_SITES} sites")


def region_count(region: RandomSet, config: Configuration) -> int:
    """N(A)(omega): number of points of omega lying in A(omega)."""
    return sum(1 for x in config if region(x, config))


def validate_disjoint(model: FiniteModel, regions: Sequence[RandomSet]) -> list:
    """Check that the regions are pairwise disjoint for every configuration.

    Exhaustive: every region is evaluated at every site of the ground space
    for every configuration, allowed or not. Raises DisjointnessError.
    Returns the region tables R[x, mask] it checked, for reuse.
    """
    tables = [model._full_site_table(region) for region in regions]
    hits = np.zeros((model.m, 1 << model.m), dtype=np.int64)
    for table in tables:
        hits += table
    overlaps = np.argwhere(hits.T > 1)
    if len(overlaps):
        mask, x = overlaps[0].tolist()
        raise DisjointnessError(
            f"regions overlap at site {x} for configuration {sorted(model.config(mask))}"
        )
    return tables


def _expect(model: FiniteModel, values: np.ndarray) -> float:
    """E[values[omega]] for a table indexed by bitmask."""
    support = model.support
    return _fsum(model._prob[support] * values[support])


def _counts(model: FiniteModel, table: np.ndarray) -> np.ndarray:
    """N(A)(omega) per bitmask from a region table R[x, mask]."""
    members = (np.arange(1 << model.m) >> np.arange(model.m)[:, None]) & 1
    return (table & members.astype(bool)).sum(axis=0)


# keys are bounded by MAX_IDENTITY_SITES and MAX_IDENTITY_ORDER
@lru_cache(maxsize=None)
def _tuple_layout(m: int, k: int):
    """The ordered k-tuples of distinct sites, grouped by their site set.

    Returns (sets, orders, bases): sets (C, k) the sorted k-subsets of the
    sites, orders (P, k) the permutations of range(k), so that the tuples
    are sets[:, orders], and bases (C, 2^(m-k)) the bitmasks of the
    configurations disjoint from each set.
    """
    sets = np.array(list(combinations(range(m), k)), dtype=np.int64).reshape(-1, k)
    orders = np.array(list(permutations(range(k))), dtype=np.int64)
    bases = np.broadcast_to(np.arange(1 << (m - k)), (len(sets), 1 << (m - k)))
    for j in range(k):
        # open a zero bit at the j-th smallest site of each set
        s = sets[:, j, None]
        bases = (bases >> s << (s + 1)) | (bases & ((1 << s) - 1))
    for array in (sets, orders, bases):
        array.flags.writeable = False
    return sets, orders, bases


def _added_masks(sites: np.ndarray) -> np.ndarray:
    """masks[..., eta] = the bitmask of {sites[..., i] : bit i of eta set},
    for an (..., l) array of site indices."""
    l = sites.shape[-1]
    bits = np.arange(1 << l) >> np.arange(l)[:, None] & 1
    return (bits << sites[..., None]).sum(axis=-2)


def _tuple_sum(model: FiniteModel, k: int, integrand, width: int = 1) -> float:
    """sum over ordered k-tuples t of distinct sites and configurations omega
    of w(t) P(omega) chat(t, omega) integrand(t, omega u t).

    integrand(sites, up) receives the tuple's sites as k arrays of shape
    (c, P, 1) and the bitmasks of omega u t as an array of shape (c, 1, B),
    and returns values of shape (c, P, B), or of shape (c, P, B, width) to
    add width separate terms per tuple and configuration.
    """
    if k > model.m:
        return 0.0
    sets, orders, bases = _tuple_layout(model.m, k)
    q, prob = model._q, model._prob
    step = max(1, _BLOCK_TERMS // (len(orders) * bases.shape[1] * width))
    partials = []
    for start in range(0, len(sets), step):
        block, base = sets[start : start + step], bases[start : start + step]
        up = base | (1 << block).sum(axis=1, keepdims=True)
        q_base = q[base]
        chat = np.divide(q[up], q_base, out=np.zeros(base.shape), where=q_base > 0.0)
        tuples = block[:, orders]
        weight = model._weights[tuples].prod(axis=2)
        scale = weight[:, :, None] * (prob[base] * chat)[:, None, :]
        values = integrand([tuples[:, :, j, None] for j in range(k)], up[:, None, :])
        if values.ndim == 4:
            scale = scale[..., None]
        partials.append(_fsum(scale * values))
    return math.fsum(partials)


def _setup(model: FiniteModel, functional: Functional, regions, orders):
    """(f, tables, slots) for F and the regions at the checked orders: the
    tables of F and of the regions (validate_disjoint), and the region table
    of each tuple coordinate, the first orders[0] region 0's, the next
    orders[1] region 1's, and so on."""
    if len(regions) != len(orders) or not regions:
        raise ValueError("need matching nonempty regions and orders")
    _guard(model, sum(orders))
    tables = validate_disjoint(model, regions)
    slots = [slot for table, order in zip(tables, orders) for slot in [table] * order]
    return model._table(functional), tables, slots


def _factorial_moment(model: FiniteModel, f, tables, orders) -> float:
    """E[F prod_i N(A_i)_(n_i)] for the table (or constant) f of F and the
    region tables of the A_i."""
    value = f
    for table, order in zip(tables, orders):
        value = value * falling_factorial(_counts(model, table), order)
    return _expect(model, value)


def _joint_rhs(model: FiniteModel, f: np.ndarray, slots: list) -> float:
    """Right side with the region table slots[j] on tuple coordinate j."""

    def integrand(sites, up):
        value = f[up]
        for x, table in zip(sites, slots):
            value = value * table[x, up]
        return value

    return _tuple_sum(model, len(slots), integrand)


# -- identity evaluators ------------------------------------------------------


def factorial_moment_identity(
    model: FiniteModel, functional: Functional, region: RandomSet, n: int
) -> IdentityReport:
    """Factorial moment identity for a random region.

    lhs = E[F N(A)_(n)] and rhs sums, over ordered n-tuples of distinct
    sites, the sigma-weights times E[chat(tuple, omega) * F(omega u tuple)
    * prod_k 1_{A(omega u tuple)}(x_k)].
    """
    f, tables, slots = _setup(model, functional, [region], [n])
    lhs = _factorial_moment(model, f, tables, [n])
    rhs = _joint_rhs(model, f, slots)
    return IdentityReport.build(
        "factorial-moment", lhs, rhs, {"n": n, "sites": model.m}
    )


def joint_factorial_identity(
    model: FiniteModel,
    functional: Functional,
    regions: Sequence[RandomSet],
    orders: Sequence[int],
) -> IdentityReport:
    """Joint factorial moment identity for a.s. disjoint random regions.

    lhs = E[F prod_i N(A_i)_(n_i)]; rhs sums over ordered distinct
    n-tuples whose first n_1 coordinates carry region 1's indicator, the
    next n_2 region 2's, and so on.
    """
    if any(k < 1 for k in orders):
        raise ValueError("orders must be positive")
    f, tables, slots = _setup(model, functional, regions, orders)
    lhs = _factorial_moment(model, f, tables, orders)
    rhs = _joint_rhs(model, f, slots)
    return IdentityReport.build(
        "joint-factorial", lhs, rhs, {"orders": list(orders), "sites": model.m}
    )


def stirling_moment_identity(
    model: FiniteModel, functional: Functional, region: RandomSet, n: int
) -> IdentityReport:
    """Raw moment identity E[F N(A)^n] = sum_k S(n,k) (factorial rhs at k)."""
    f, tables, slots = _setup(model, functional, [region], [n])
    lhs = _expect(model, f * _counts(model, tables[0]).astype(float) ** n)
    rhs = math.fsum(
        stirling2(n, k) * _joint_rhs(model, f, slots[:k]) for k in range(1, n + 1)
    )
    return IdentityReport.build(
        "stirling-moment", lhs, rhs, {"n": n, "sites": model.m}
    )


def partition_moment_identity(
    model: FiniteModel, kernel: Kernel, n: int
) -> IdentityReport:
    """Moment identity for a configuration-dependent process u.

    lhs = E[(sum_{x in omega} u(x, omega))^n]; rhs sums over partitions of
    {1..n} into k blocks and ordered distinct k-tuples of sites the
    sigma-weighted E[chat * prod_j u(x_j, omega u tuple)^{|B_j|}].
    """
    _guard(model, n)
    u = model._site_table(kernel)
    lhs = _expect(model, u.sum(axis=0) ** n)

    partials = []
    for part in partitions(n):
        sizes = part.block_sizes()

        def integrand(sites, up, sizes=sizes):
            value = 1.0
            for x, exponent in zip(sites, sizes):
                value = value * u[x, up] ** exponent
            return value

        partials.append(_tuple_sum(model, len(sizes), integrand))
    rhs = math.fsum(partials)
    return IdentityReport.build(
        "partition-moment", lhs, rhs, {"n": n, "sites": model.m}
    )


def dtheta_joint_expansion(
    model: FiniteModel,
    functional: Functional,
    regions: Sequence[RandomSet],
    orders: Sequence[int],
) -> IdentityReport:
    """Joint factorial identity with the right side recomputed through the
    difference-operator expansion.

    For each tuple, the integrand F * tensorized indicators is expanded as
    the sum over all index subsets Theta of the multi-point difference
    D_Theta evaluated at the base configuration, every term computed
    separately. The result must agree with the direct representation, so
    the report's lhs is joint_factorial_identity's rhs and the rhs here is
    the difference-expansion total.
    """
    f, _, slots = _setup(model, functional, regions, orders)
    n = sum(orders)
    direct = _joint_rhs(model, f, slots)

    def differences(sites, up):
        # g[..., eta] = F and indicators at omega u {x_j : j in eta}
        added = _added_masks(np.stack(sites, axis=-1))
        augmented = (up & ~added[..., -1])[..., None] | added
        g = f[augmented]
        for x, table in zip(sites, slots):
            g = g * table[x[..., None], augmented]
        return _moebius(g)

    expanded = _tuple_sum(model, n, differences, width=1 << n)
    return IdentityReport.build(
        "dtheta-joint-expansion",
        direct,
        expanded,
        {"orders": list(orders), "sites": model.m},
    )


# -- Poisson independence ----------------------------------------------------


def poisson_independence_check(
    model: FiniteModel, regions: Sequence[RandomSet], max_order: int
) -> list[IdentityReport]:
    """Factorization of joint factorial moments for the q = 1 model.

    For regions that are a.s. disjoint, have configuration-independent
    weight multisets, and satisfy the vanishing-cover condition, the counts
    N(A_i) are independent with the same law as the count of a fixed region
    carrying the same weights. The check reports, for every multi-order
    (n_1, ..., n_p) with sum <= max_order and each n_i at most the site
    count of A_i (above it both sides are 0),

        lhs = E[prod_i N(A_i)_(n_i)]  versus
        rhs = prod_i n_i! e_{n_i}(p_x : x in A_i),

    where p_x = sigma_x / (1 + sigma_x) is the inclusion probability of
    site x and e_k is the elementary symmetric polynomial. The rhs is the
    atomic-space analogue of the product of sigma(A_i)^{n_i}.
    """
    if max_order < 1:
        raise ValueError("max_order must be positive")
    if not regions:
        raise ValueError("need at least one region")
    _assert_poisson(model)
    tables = validate_disjoint(model, regions)
    weight_multisets = [_region_weight_multiset(model, table) for table in tables]
    _assert_cover_condition(model, tables)

    predictions = [_factorial_moment_table([w / (1.0 + w) for w in weights])
                   for weights in weight_multisets]

    reports = []
    ranges = [range(1, min(len(weights), max_order) + 1) for weights in weight_multisets]
    for orders in product(*ranges):
        if sum(orders) > max_order:
            continue
        lhs = _factorial_moment(model, 1.0, tables, orders)
        rhs = 1.0
        for i, order in enumerate(orders):
            rhs *= predictions[i][order]
        reports.append(
            IdentityReport.build(
                "poisson-independence",
                lhs,
                rhs,
                {"orders": list(orders), "sites": model.m},
            )
        )
    return reports


def _assert_poisson(model: FiniteModel):
    q = model._q
    if (np.abs(q - q[0]) > 1e-12 * q[0]).any():
        raise NotPoissonError("model density is not identically 1")


def _region_weight_multiset(model: FiniteModel, table: np.ndarray) -> tuple:
    """The sorted weights of the sites in the region, which must not vary
    with the configuration; table is the region's R[x, mask]."""
    chosen = np.where(table, model._weights[:, None], np.inf)
    chosen.sort(axis=0)
    if (chosen != chosen[:, :1]).any():
        raise RandomWeightError("region weight multiset varies with the configuration")
    reference = chosen[:, 0]
    return tuple(reference[np.isfinite(reference)].tolist())


def _assert_cover_condition(model: FiniteModel, tables: Sequence[np.ndarray]):
    """Check the vanishing-cover condition of every region indicator, read
    from its table R[x, mask], at sampled tuples of sites over two base
    configurations; raise CoverConditionError at the first failure in
    (base, tuple, region) order."""
    # deterministic sample: all singles, a spread of pairs and triples
    groups = [[(x,) for x in range(model.m)]]
    for k in (2, 3):
        tuples = list(permutations(range(model.m), k))
        groups.append(tuples[:: max(1, len(tuples) // 12)])
    regions = np.stack(tables)
    for base in (0, sum(1 << x for x in range(0, model.m, 2))):
        for group in filter(None, groups):
            points = np.array(group)
            masks = base | _added_masks(points)
            # values[region, tuple, j, eta] = R(x_j, base u {x_i : bit i of eta})
            values = regions[:, points[:, :, None], masks[:, None, :]]
            failed = ~_covers_vanish(values, 1e-9).all(axis=0)
            if failed.any():
                first = group[int(np.argmax(failed))]
                raise CoverConditionError(f"cover condition fails at points {first}")


def _factorial_moment_table(probs: Sequence[float]) -> list[float]:
    """table[k] = k! e_k(probs), the k-th factorial moment of the count, for
    k up to the site count len(probs)."""
    elementary = [1.0] + [0.0] * len(probs)
    for p in probs:
        for k in range(len(probs), 0, -1):
            elementary[k] += p * elementary[k - 1]
    return [math.factorial(k) * e for k, e in enumerate(elementary)]
