"""Seeded random instance generation for the verification suites.

Every builder is deterministic given its seed: numpy's PCG64 drives all
draws and generated callables close over plain Python floats, so identical
seeds reproduce identical instances byte for byte.

Functionals and kernels are bounded and configuration dependent (site
tables plus a parity term). Random regions flip site membership with the
parity of a control set; disjoint families restrict each region to its own
site pool so disjointness holds for every configuration by construction.
Each generated callable carries its array form (on_masks or on_sites, see
finite_model), equal to it bit for bit.
"""

from __future__ import annotations

from itertools import combinations, compress

import numpy as np

from .finite_model import FiniteModel, GroundSpace, pairwise_log_density, poisson_log_density

GAMMA_CHOICES = (0.0, 0.25, 0.5, 0.75, 1.0)
MAX_INSTANCE_SITES = 12


def generate_random_instance(kind: str, size_bounds: dict, seed: int) -> dict:
    """Produce a deterministic pseudo-random instance bundle.

    kind selects the bundle shape:
      "gnz"          -> {"model", "kernels"}
      "factorial"    -> {"model", "functional", "region", "n"}
      "joint"        -> {"model", "functional", "regions", "orders"}
      "stirling"     -> {"model", "functional", "region", "n"}
      "partition"    -> {"model", "kernel", "n"}
      "dtheta"       -> {"model", "functional", "regions", "orders"}
      "independence" -> {"model", "regions", "max_order"}
      "expansion"    -> {"model", "kernels", "points", "config"}
      "cover-lemma"  -> {"model", "kernels", "points", "config"}

    size_bounds may set m_min, m_max, n_max, kernels; unset entries use
    the guards' defaults.
    """
    rng = np.random.default_rng(seed)
    m_min = int(size_bounds.get("m_min", 3))
    m_max = int(size_bounds.get("m_max", 8))
    n_max = int(size_bounds.get("n_max", 3))
    if not (1 <= m_min <= m_max <= MAX_INSTANCE_SITES):
        raise ValueError(
            f"site bounds must satisfy 1 <= m_min <= m_max <= {MAX_INSTANCE_SITES}"
        )
    m = int(rng.integers(m_min, m_max + 1))

    if kind == "gnz":
        n_kernels = int(size_bounds.get("kernels", 5))
        model = _random_model(rng, m)
        return {
            "model": model,
            "kernels": [_random_kernel(rng, m) for _ in range(n_kernels)],
        }
    if kind in ("factorial", "stirling"):
        model = _random_model(rng, m)
        return {
            "model": model,
            "functional": _random_functional(rng, m),
            "region": _random_region(rng, m),
            "n": int(rng.integers(1, n_max + 1)),
        }
    if kind in ("joint", "dtheta"):
        model = _random_model(rng, m)
        regions = _disjoint_regions(rng, m, 2)
        first = int(rng.integers(1, min(2, max(1, n_max - 1)) + 1))
        second = int(rng.integers(1, min(2, max(1, n_max - first)) + 1))
        return {
            "model": model,
            "functional": _random_functional(rng, m),
            "regions": regions,
            "orders": [first, second],
        }
    if kind == "partition":
        model = _random_model(rng, m)
        return {
            "model": model,
            "kernel": _random_kernel(rng, m),
            "n": int(rng.integers(1, n_max + 1)),
        }
    if kind == "independence":
        model, regions = _independence_bundle(rng, max(m, 6))
        return {"model": model, "regions": regions, "max_order": n_max}
    if kind in ("expansion", "cover-lemma"):
        model = _random_model(rng, m)
        length = int(rng.integers(1, int(size_bounds.get("l_max", 3)) + 1))
        config = model.config(int(rng.integers(0, 1 << m)))
        if kind == "expansion":
            kernels = [_random_kernel(rng, m) for _ in range(length)]
        else:
            kernels = _cover_safe_kernels(rng, m, length)
        points = [int(x) for x in rng.choice(m, size=length, replace=False)]
        return {
            "model": model,
            "kernels": kernels,
            "points": tuple(points),
            "config": config,
        }
    raise ValueError(f"unknown instance kind {kind!r}")


def _random_model(rng, m: int) -> FiniteModel:
    weights = tuple(rng.uniform(0.1, 2.0, m).tolist())
    # the same draw as rng.choice(GAMMA_CHOICES), without its overhead
    gamma = GAMMA_CHOICES[int(rng.integers(0, len(GAMMA_CHOICES)))]
    # one uniform per pair (a, b), a < b, in lexicographic order
    kept = rng.random(m * (m - 1) // 2) < 0.3
    pairs = list(compress(combinations(range(m), 2), kept.tolist()))
    if gamma == 1.0 or not pairs:
        return FiniteModel(GroundSpace(weights), poisson_log_density())
    return FiniteModel(GroundSpace(weights), pairwise_log_density(gamma, pairs))


def _random_functional(rng, m: int):
    base = float(rng.uniform(-1.0, 1.0))
    table = [float(v) for v in rng.uniform(-1.0, 1.0, m)]
    parity_term = float(rng.uniform(-1.0, 1.0))
    parity_set = _sites(rng, range(m), 0.5)
    control = _mask(parity_set)

    # both forms add the site terms in ascending site order, so they agree
    # bit for bit (frozenset iteration is not ascending for every mask)
    def functional(config):
        total = base
        for x in sorted(config):
            total += table[x]
        if len(config & parity_set) % 2 == 0:
            return total + parity_term
        return total - parity_term

    def on_masks(masks):
        total = np.full(len(masks), base)
        for x, value in enumerate(table):
            total = np.where(masks >> x & 1, total + value, total)
        odd = np.bitwise_count(masks & control) & 1
        return np.where(odd, total - parity_term, total + parity_term)

    functional.on_masks = on_masks
    return functional


def _random_kernel(rng, m: int):
    site_term = [float(v) for v in rng.uniform(-1.0, 1.0, m)]
    parity_scale = [float(v) for v in rng.uniform(-1.0, 1.0, m)]
    parity_set = _sites(rng, range(m), 0.5)
    return _by_parity(
        [s + p for s, p in zip(site_term, parity_scale)],
        [s - p for s, p in zip(site_term, parity_scale)],
        parity_set,
    )


def _random_region(rng, m: int):
    base = (rng.random(m) < 0.5).tolist()
    flip = (rng.random(m) < 0.4).tolist()
    control = _sites(rng, range(m), 0.4)
    return _by_parity(base, [b != f for b, f in zip(base, flip)], control)


def _by_parity(even: list, odd: list, control: frozenset):
    """(x, omega) -> even[x] when |omega n control| is even, else odd[x].

    The callable carries its array form on_sites(sites, masks) for the
    exact engine: the same values at integer arrays of sites and bitmasks.
    """
    rows = (even, odd)
    table = np.array(rows)
    control_mask = _mask(control)

    def value(x, config):
        return rows[len(config & control) % 2][x]

    def on_sites(sites, masks):
        return table[np.bitwise_count(masks & control_mask) & 1, sites]

    value.on_sites = on_sites
    return value


def _sites(rng, sites, p: float) -> frozenset:
    """The sites kept by independent coin flips of probability p, one
    uniform per site in the given order, drawn in one call."""
    return frozenset(compress(sites, (rng.random(len(sites)) < p).tolist()))


def _mask(sites: frozenset) -> int:
    return sum(1 << x for x in sites)


def _members(m: int, sites: frozenset, kind=bool) -> list:
    return [kind(x in sites) for x in range(m)]


def _disjoint_regions(rng, m: int, p: int):
    """Regions confined to disjoint site pools; disjoint for every omega."""
    sites = rng.permutation(m).tolist()
    cut = m // p
    pools = [sites[i * cut : (i + 1) * cut] for i in range(p)]
    regions = []
    for pool in pools:
        even = _sites(rng, pool, 0.7)
        odd = _sites(rng, pool, 0.7)
        control = _sites(rng, range(m), 0.4)
        regions.append(_by_parity(_members(m, even), _members(m, odd), control))
    return regions


def _independence_bundle(rng, m: int):
    """q = 1 model with swap regions: constant weight multisets, membership
    controlled by parity bits of sites outside every pool."""
    p = 2
    sites = list(rng.permutation(m))
    pool_size = (m - 2) // p
    pools = [sites[i * pool_size : (i + 1) * pool_size] for i in range(p)]
    control_pool = [int(x) for x in sites[p * pool_size :]]
    weights = [0.0] * m
    for pool in pools:
        w = float(rng.uniform(0.3, 1.5))
        for x in pool:
            weights[x] = w
    for x in control_pool:
        weights[x] = float(rng.uniform(0.3, 1.5))
    model = FiniteModel(GroundSpace(tuple(weights)), poisson_log_density())
    regions = []
    for pool in pools:
        k = max(1, len(pool) - 1)
        even = frozenset(int(x) for x in pool[:k])
        odd = frozenset(int(x) for x in pool[-k:])
        control = _sites(rng, control_pool, 0.7)
        regions.append(_by_parity(_members(m, even), _members(m, odd), control))
    return model, regions


def _cover_safe_kernels(rng, m: int, length: int):
    """Indicator kernels built to satisfy the vanishing-cover condition.

    Each kernel reads membership from its own site pool and reacts only to
    parity bits of control sites outside every pool, so any family of
    nonempty differences covering the index set kills at least one factor.
    """
    sites = list(rng.permutation(m))
    n_control = max(1, m // 3)
    control_sites = [int(x) for x in sites[:n_control]]
    pool_sites = [int(x) for x in sites[n_control:]]
    kernels = []
    for _ in range(length):
        members_even = _sites(rng, pool_sites, 0.6)
        members_odd = _sites(rng, pool_sites, 0.6)
        control = _sites(rng, control_sites, 0.8)
        kernels.append(
            _by_parity(_members(m, members_even, float), _members(m, members_odd, float), control)
        )
    return kernels
