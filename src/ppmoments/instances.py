"""Seeded random instance generation for the verification suites.

Every builder is deterministic given its seed: numpy's PCG64 drives all
draws, so identical seeds reproduce identical instances byte for byte.

Every generated functional, kernel and random region is one numpy table
over the 2^m configurations, and nothing else holds its values: the
callable reads the table at the configuration's bitmask (_tabled), and
the table itself is its array form (on_masks or on_sites, see
finite_model), so the two agree by construction. The draws, in order:

  functional  (2^m,) uniforms on [-1, 1), indexed by bitmask
  kernel      (m, 2^m) uniforms on [-1, 1), row x at site x
  region      (m, 2^m) uniforms, x in A(omega) when below 0.5
  disjoint    a permutation of the sites split into pools, then per pool
              (pool size, 2^m) uniforms, below 0.7 on the pool's rows in
              permutation order; every other row is False, so the
              regions are disjoint for every configuration

The independence bundle and the cover-safe kernels need a parity
structure for their conditions: their tables switch between two site
rows with the parity of |omega n control| (_by_parity).
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

    size_bounds may set m_min and m_max (the site count, default 3 to 8),
    n_max (the largest moment order, default 3), kernels (the gnz kernel
    count, default 5) and l_max (the largest tuple length of expansion
    and cover-lemma, default 3). Every functional, kernel and region of
    the bundle is a table over the configurations, read by its callable
    and passed whole as its array form.
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
    return _tabled(rng.uniform(-1.0, 1.0, 1 << m))


def _random_kernel(rng, m: int):
    return _tabled(rng.uniform(-1.0, 1.0, (m, 1 << m)))


def _random_region(rng, m: int):
    return _tabled(rng.random((m, 1 << m)) < 0.5)


def _tabled(table: np.ndarray):
    """The callable that reads table at the configuration's bitmask, with
    the table as its array form: omega -> table[mask] with on_masks for a
    (2^m,) table, (x, omega) -> table[x, mask] with on_sites for an
    (m, 2^m) one."""
    if table.ndim == 1:
        def functional(config):
            return table[_mask(config)].item()

        functional.on_masks = lambda masks: table[masks]
        return functional

    def value(x, config):
        return table[x, _mask(config)].item()

    value.on_sites = lambda sites, masks: table[sites, masks]
    return value


def _by_parity(even: list, odd: list, control: frozenset):
    """(x, omega) -> even[x] when |omega n control| is even, else odd[x],
    tabled over every configuration."""
    masks = np.arange(1 << len(even))
    return _tabled(np.array((even, odd))[np.bitwise_count(masks & _mask(control)) & 1].T)


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
    regions = []
    for i in range(p):
        pool = sites[i * cut : (i + 1) * cut]
        table = np.zeros((m, 1 << m), bool)
        table[pool] = rng.random((len(pool), 1 << m)) < 0.7
        regions.append(_tabled(table))
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
