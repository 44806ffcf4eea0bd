"""Exact engine: point processes on a finite weighted ground space.

A model is a hereditary unnormalized density q over the subsets of m sites,
together with strictly positive site weights playing the role of the
intensity measure. Probabilities, expectations, Papangelou densities and
the compound Campbell density are all computed by full enumeration of the
2^m configurations, so identities can be checked to float roundoff.

Sites are integers 0..m-1 and a configuration is a frozenset of sites.
Functionals, random sets and kernels are plain callables:

    Functional: Configuration -> float
    RandomSet:  (site, Configuration) -> bool
    Kernel:     (site, Configuration) -> float

Inside the engine a configuration is a bitmask (bit x set when site x is
present) indexing numpy tables: q, the probabilities, and one table per
callable. The log-density is evaluated once per configuration at
construction; functionals and kernels are evaluated once per support
configuration (positive density), kernels only at the sites of the
configuration, and random sets at every site of every configuration,
allowed or not (_full_site_table). Expectations and identity sides are
array expressions over those tables, added exactly (_fsum): each sum is the
exact sum of its terms rounded once, equal to math.fsum's bit for bit.
Arrays of fewer than _EXACT_MIN = 1024 values go through math.fsum itself,
longer ones through exponent buckets (np.frexp, np.bincount) joined in
Python ints; the short lists of block partials keep math.fsum. Frozensets
are built only while a table is filled and none is kept: there is no
configuration cache. The kernels of one GNZ call share one table of
(configuration, site) pairs per block of the support, built once for all of
them and dropped after the block. The hereditary check is exhaustive at
every size whenever some configuration is forbidden (a density positive
everywhere is hereditary).

Sums that call a callable per configuration (expectation, gnz_residuals)
run over blocks of _BLOCK support configurations, which parallel._map
shares between processes; the partial sums are added in block order.

A callable may carry an array form, which fills a table in one call:

    functional.on_masks(masks)     -> values at an integer array of bitmasks
    kernel.on_sites(sites, masks)  -> values at integer arrays of sites and
                                      bitmasks of one broadcast shape

It is called on the same configurations (and sites) as the callable and
must agree with it bit for bit. The densities below and the generated
instances carry one; a user callable needs neither and is then called
once per configuration, or per site of each configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .parallel import _map

Configuration = frozenset
Functional = Callable[[Configuration], float]
RandomSet = Callable[[object, Configuration], bool]
Kernel = Callable[[object, Configuration], float]

MAX_SITES = 22
# configurations per block of a chunked sum: bounds the temporaries at large m
_BLOCK = 1 << 14
# _fsum leaves arrays shorter than this to math.fsum, which is faster there
_EXACT_MIN = 1 << 10
# values per chunk of _fsum's exact sum: a bucket then adds at most 2**15
# mantissa halves below 2**27, so its float64 partials stay exact
_EXACT_CHUNK = 1 << 15


@dataclass(frozen=True)
class GroundSpace:
    """Finite ground space: m sites with strictly positive weights."""

    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.weights) < 1:
            raise ValueError("ground space needs at least one site")
        if any(not (w > 0.0) for w in self.weights):
            raise ValueError("all site weights must be strictly positive")

    @property
    def m(self) -> int:
        return len(self.weights)


class FiniteModel:
    """Point process defined by a hereditary unnormalized density.

    The density is supplied in log scale; return -inf for forbidden
    configurations. The partition constant Z and the probability of every
    configuration are computed once at construction; the model is
    immutable afterwards.
    """

    def __init__(self, space: GroundSpace, log_density: Functional):
        m = space.m
        if m > MAX_SITES:
            raise ValueError(f"at most {MAX_SITES} sites supported, got {m}")
        self.space = space
        self.log_density = log_density
        self._weights = np.array(space.weights)

        masks = np.arange(1 << m)
        with np.errstate(over="ignore", invalid="ignore"):
            q = np.exp(self._values(log_density, masks))
        if not np.isfinite(q).all():
            raise ValueError("density overflow at a configuration")
        if not q[0] > 0.0:
            raise ValueError("q(empty) must be strictly positive")
        self._q = q

        self._check_hereditary()

        # w[mask] = prod of the weights of the sites in mask, by doubling
        w = np.ones(1)
        for sigma in space.weights:
            w = np.concatenate((w, w * sigma))
        z = _fsum(q * w)
        if not (math.isfinite(z) and z > 0.0):
            raise ValueError("partition constant must be positive and finite")
        self.partition_constant = z
        self._prob = q * w / z
        self._support = np.flatnonzero(q > 0.0)

    # -- structure ---------------------------------------------------------

    @property
    def m(self) -> int:
        return self.space.m

    @property
    def weights(self) -> tuple[float, ...]:
        return self.space.weights

    def config(self, mask: int) -> Configuration:
        return frozenset(x for x in range(self.m) if mask >> x & 1)

    def mask(self, config: Configuration) -> int:
        mask = 0
        for x in config:
            if not (0 <= x < self.m):
                raise ValueError(f"site {x!r} outside the ground space")
            mask |= 1 << x
        return mask

    def q(self, config: Configuration) -> float:
        return float(self._q[self.mask(config)])

    @property
    def support(self) -> np.ndarray:
        """Bitmasks of all configurations with positive density, which are
        the configurations of positive probability."""
        return self._support

    def _check_hereditary(self):
        # single-point removals cover all eta < omega pairs by induction;
        # axis 1 of the view splits each mask pair by bit x
        allowed = self._q > 0.0
        if allowed.all():
            return
        for x in range(self.m):
            pairs = allowed.reshape(-1, 2, 1 << x)
            if (pairs[:, 1] & ~pairs[:, 0]).any():
                raise ValueError("density is not hereditary")

    # -- tables --------------------------------------------------------------

    def _configs(self, masks: np.ndarray):
        """(sorted sites, frozenset) of each bitmask, built one at a time."""
        low, high, shift = _site_halves(self.m)
        cut = (1 << shift) - 1
        for mask in masks.tolist():
            sites = low[mask & cut] + high[mask >> shift]
            yield sites, frozenset(sites)

    def _values(self, functional: Functional, masks: np.ndarray) -> np.ndarray:
        """functional(omega) for each bitmask: one call of its array form
        when it has one, else one call per mask."""
        on_masks = getattr(functional, "on_masks", None)
        if on_masks is not None:
            return np.asarray(on_masks(masks), float)
        values = (functional(config) for _, config in self._configs(masks))
        return np.fromiter(values, float, len(masks))

    def _site_pairs(self, masks: np.ndarray):
        """(sites, up): every site x of every configuration in masks, as the
        site and its configuration's bitmask, ordered by configuration and
        then by site."""
        rows, sites = np.nonzero((masks[:, None] >> np.arange(self.m)) & 1)
        return sites, masks[rows]

    def _site_values(self, kernel: Kernel, masks: np.ndarray, pairs):
        """kernel(x, omega) at each pair of _site_pairs(masks): one call of
        its array form when it has one, else one call per pair."""
        sites, up = pairs
        on_sites = getattr(kernel, "on_sites", None)
        if on_sites is not None:
            return np.asarray(on_sites(sites, up), float)
        values = (
            kernel(x, config) for points, config in self._configs(masks) for x in points
        )
        return np.fromiter(values, float, len(sites))

    def _table(self, functional: Functional) -> np.ndarray:
        """F[mask] on the support, 0 elsewhere."""
        table = np.zeros(1 << self.m)
        table[self._support] = self._values(functional, self._support)
        return table

    def _site_table(self, kernel: Kernel) -> np.ndarray:
        """U[x, mask] for x in omega and omega in the support, 0 elsewhere."""
        table = np.zeros((self.m, 1 << self.m))
        pairs = sites, up = self._site_pairs(self._support)
        table[sites, up] = self._site_values(kernel, self._support, pairs)
        return table

    def _full_site_table(self, region: RandomSet) -> np.ndarray:
        """R[x, mask] at every site and every configuration, allowed or not."""
        m = self.m
        on_sites = getattr(region, "on_sites", None)
        if on_sites is not None:
            return np.asarray(on_sites(np.arange(m)[:, None], np.arange(1 << m)), bool)
        configs = self._configs(np.arange(1 << m))
        values = (region(x, config) for _, config in configs for x in range(m))
        return np.fromiter(values, bool, m << m).reshape(1 << m, m).T.copy()

    # -- probabilistic quantities -------------------------------------------

    def probability(self, config: Configuration) -> float:
        """P(omega) = q(omega) prod_{x in omega} sigma_x / Z."""
        return float(self._prob[self.mask(config)])

    def expectation(self, functional: Functional) -> float:
        """Exact expectation by enumeration over all configurations."""

        def partial(masks):
            return _fsum(self._prob[masks] * self._values(functional, masks))

        return math.fsum(_map(partial, list(_blocks(self._support))))

    def papangelou(self, x, config: Configuration) -> float:
        """Papangelou density c(x, omega) = q(omega u {x}) / q(omega).

        Returns 0 when x already lies in omega (the convention that makes
        the atomic Georgii-Nguyen-Zessin identity exact) and 0 on forbidden
        configurations.
        """
        return self.compound_campbell((x,), config)

    def compound_campbell(self, points: Sequence, config: Configuration) -> float:
        """Compound Campbell density of a tuple of sites.

        Product form: c(x_1, omega) c(x_2, omega u {x_1}) ... which, under
        hereditarity, telescopes to q(omega u points) / q(omega). Returns 1
        for the empty tuple and 0 when the tuple has repeats or meets omega.
        A site outside the ground space raises ValueError.
        """
        mask = self.mask(config)
        points = tuple(points)
        tmask = self.mask(points)
        if tmask.bit_count() < len(points):
            return 0.0
        if not tmask:
            return 1.0
        q = self._q
        if tmask & mask or q[mask] == 0.0:
            return 0.0
        return float(q[mask | tmask] / q[mask])

    def gnz_residual(self, u: Kernel) -> tuple[float, float]:
        """Both sides of the Georgii-Nguyen-Zessin identity, exactly.

        lhs = E[sum_{x in omega} u(x, omega)],
        rhs = sum_x sigma_x E[c(x, omega) u(x, omega u {x})].
        """
        return self.gnz_residuals([u])[0]

    def gnz_residuals(self, kernels: Sequence[Kernel]) -> list[tuple[float, float]]:
        """gnz_residual(u) for each kernel u, from one pass over the support.

        The rhs terms are indexed by the augmented configuration: u is
        called once per site of each support configuration and each value
        serves both sides. The (configuration, site) pairs of a block and
        their probability-weighted Papangelou factor are built once per
        block for all the kernels.
        """
        q, prob = self._q, self._prob

        def block_sides(masks):
            pairs = sites, up = self._site_pairs(masks)
            base = up ^ (1 << sites)
            campbell = prob[base] * (q[up] / q[base])
            # the gathers below are redone per kernel and base is dropped:
            # each table held through the loop raises the peak memory of a
            # large model by one pair-sized array
            del base
            sides = []
            for u in kernels:
                values = self._site_values(u, masks, pairs)
                sides.append((
                    _fsum(prob[up] * values),
                    _fsum(self._weights[sites] * (campbell * values)),
                ))
            return sides

        # one (lhs, rhs) column of partial sums per kernel, in block order
        columns = zip(*_map(block_sides, list(_blocks(self._support))))
        return [
            (math.fsum(left for left, _ in column), math.fsum(right for _, right in column))
            for column in columns
        ]

    def correlation(self, points: Sequence) -> float:
        """Correlation function rho_n(points) = E[chat(points, omega)]."""
        pts = tuple(points)
        if len(set(pts)) != len(pts):
            raise ValueError("correlation requires distinct sites")
        tmask = self.mask(pts)
        q, prob = self._q, self._prob
        partials = []
        for masks in _blocks(self._support):
            base = masks[(masks & tmask) == 0]
            partials.append(_fsum(prob[base] * (q[base | tmask] / q[base])))
        return math.fsum(partials)


def _fsum(values: np.ndarray) -> float:
    """math.fsum of an array's values: their exact sum, rounded once.

    From _EXACT_MIN values on, the exact sum is formed without math.fsum's
    loop over the values. Per chunk of at most _EXACT_CHUNK values, np.frexp
    writes each value as a 53-bit integer mantissa times 2**(exponent - 53);
    one np.bincount per half of the mantissas adds them per exponent,
    exactly in float64 (a bucket stays below 2**42); Python ints join the
    buckets, and one int division rounds the total half-even, as math.fsum
    rounds it. math.fsum itself adds shorter arrays (where it is faster),
    non-finite values, values large enough that its partial sums could
    overflow (so that its OverflowError stays), and values whose sum is
    exactly zero (so that its sign of zero stays).
    """
    flat = values.ravel()
    size = len(flat)
    if size < _EXACT_MIN:
        # iterating a buffer's floats skips building a list of them
        return math.fsum(memoryview(flat))
    total = 0
    for start in range(0, size, _EXACT_CHUNK):
        mantissas, exponents = np.frexp(flat[start : start + _EXACT_CHUNK])
        low = int(exponents.min())
        # each below 2**(1023 - bit_length), no sum of values reaches 2**1023
        if exponents.max() + size.bit_length() > 1023:
            return math.fsum(memoryview(flat))
        # np.bincount would convert a narrower index for each call
        index = np.subtract(exponents, low, dtype=np.intp)
        # the high 27 of the 53 mantissa bits as integers, then the low 26
        # as fractions; in place, which saves two temporaries
        mantissas *= 2.0**27
        high_bits = np.trunc(mantissas)
        tops = np.bincount(index, high_bits)
        # an inf or nan value leaves an inf or nan among the buckets
        if not math.isfinite(tops.sum()):
            return math.fsum(memoryview(flat))
        mantissas -= high_bits
        rests = np.bincount(index, mantissas)
        rests *= 2.0**26
        chunk = 0
        for shift, (high, rest) in enumerate(zip(tops.tolist(), rests.tolist())):
            if high or rest:
                chunk += ((int(high) << 26) + int(rest)) << shift
        # a value is an integer times 2**(exponent - 53), and exponents
        # start at -1073 (the least subnormal is 0.5 * 2**-1073)
        total += chunk << (low + 1073)
    if not total:
        return math.fsum(memoryview(flat))
    return total / (1 << 1126)


def _blocks(masks: np.ndarray):
    for start in range(0, len(masks), _BLOCK):
        yield masks[start : start + _BLOCK]


@lru_cache(maxsize=None)
def _site_halves(m: int):
    """Sorted site tuples of every low half-mask and every high half-mask."""
    shift = m // 2
    low = [tuple(x for x in range(shift) if k >> x & 1) for k in range(1 << shift)]
    high = [
        tuple(x for x in range(shift, m) if k >> (x - shift) & 1)
        for k in range(1 << (m - shift))
    ]
    return low, high, shift



# -- densities and model descriptions ----------------------------------------


def poisson_log_density() -> Functional:
    """q identically 1: the atomic analogue of a Poisson process."""

    def log_q(config: Configuration) -> float:
        return 0.0

    log_q.on_masks = lambda masks: np.zeros(len(masks))
    return log_q


def pairwise_log_density(gamma: float, pairs: Sequence[tuple[int, int]]) -> Functional:
    """q(omega) = gamma^{#interacting pairs inside omega}.

    gamma = 1 is the Poisson case, gamma = 0 a hard-core model, and any
    gamma > 0 a pairwise interaction. Hereditary for every gamma >= 0.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    pair_list = [(min(a, b), max(a, b)) for a, b in pairs]
    if any(a == b for a, b in pair_list):
        raise ValueError("interaction pairs must join distinct sites")
    log_gamma = -math.inf if gamma == 0.0 else math.log(gamma)

    def log_q(config: Configuration) -> float:
        count = 0
        for a, b in pair_list:
            if a in config and b in config:
                count += 1
        if count == 0:
            return 0.0
        return count * log_gamma

    pair_masks = [(1 << a) | (1 << b) for a, b in pair_list]

    def on_masks(masks: np.ndarray) -> np.ndarray:
        count = np.zeros(len(masks), np.int64)
        for pm in pair_masks:
            count += (masks & pm) == pm
        # a hard core has log_gamma = -inf, and 0 * -inf would be NaN
        return np.multiply(count, log_gamma, out=np.zeros(len(masks)), where=count > 0)

    log_q.on_masks = on_masks
    return log_q


def _real(value, name: str, kind=float):
    """value as kind (float or int) when it is a finite real number, which a
    bool, a string, NaN or an infinity is not, and for kind int an integral
    one (int(2.5) would truncate it); else a ValueError that names it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, not {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, not {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, not {value!r}")
    try:
        return kind(value)
    except OverflowError as exc:
        raise ValueError(f"{name} must be a finite number: {exc}") from exc


def model_from_description(description: dict) -> FiniteModel:
    """Build a model from the JSON description schema.

    {"sites": m, "weights": [...],
     "density": {"type": "poisson"} or
                {"type": "pairwise", "gamma": g, "pairs": [[i, j], ...]}}
    """
    try:
        m = _real(description["sites"], "sites", int)
        weights = tuple(_real(w, "weights") for w in description["weights"])
        density = description["density"]
        kind = density["type"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model description: {exc}") from exc
    if len(weights) != m:
        raise ValueError("weights length must equal the number of sites")
    space = GroundSpace(weights)
    if kind == "poisson":
        return FiniteModel(space, poisson_log_density())
    if kind == "pairwise":
        try:
            gamma = _real(density["gamma"], "gamma")
            pairs = [
                (_real(a, "pair indices", int), _real(b, "pair indices", int))
                for a, b in density.get("pairs", [])
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed pairwise density: {exc}") from exc
        if any(not (0 <= a < m and 0 <= b < m) for a, b in pairs):
            raise ValueError("pair indices outside the ground space")
        return FiniteModel(space, pairwise_log_density(gamma, pairs))
    raise ValueError(f"unknown density type {kind!r}")


def load_model(path) -> FiniteModel:
    """Load a model description file (JSON) from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_description(json.load(handle))
