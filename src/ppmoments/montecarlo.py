"""Continuous-window samplers and seeded identity estimators.

The reference measure is Lebesgue on a rectangular window, so a Poisson
process with intensity lambda has Papangelou density lambda and a
Strauss-type pairwise process has density beta * gamma^{t(x, omega)} with
t the number of points within the interaction radius.

All randomness flows from a single integer seed through
numpy.random.SeedSequence. Replicates draw from spawned child streams, one
stream per replicate, so runs are reproducible bit for bit and replicates
stay independent even if a caller chooses to parallelize them. Estimator
left and right sides use separate top-level streams, which makes the
4 * combined-standard-error comparisons between them honest.

A replicate's stream is read in a fixed order. A Poisson draw takes its
count, then two uniforms (x, y) per point. A Strauss chain takes its
Poisson(beta) start the same way, then exactly 4 uniforms per step
(move, u, v, accept), whatever the step does; an estimator's right side
continues on the same stream after the chain. The Strauss chains of a call
(all replicates of sample_many, or both sides of an estimator) advance
together in lockstep as numpy arrays, each reading its own stream in blocks
of steps, so a chain's result does not depend on which chains share its
call: sample_gibbs on one generator gives the same configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .combinatorics import falling_factorial, partitions

Configuration = frozenset

MAX_POISSON_MEAN = 1e6
MAX_ESTIMATOR_ORDER = 3


@dataclass(frozen=True)
class Window:
    """Axis-aligned rectangle in the plane."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("window must have positive extent in both axes")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def contains(self, point) -> bool:
        x, y = point
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def sample_points(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count uniform points as a (count, 2) array. Point i is mapped from
        the uniforms 2i (x) and 2i + 1 (y) drawn next from rng."""
        uniforms = rng.random((count, 2))
        uniforms[:, 0] = self.x_min + (self.x_max - self.x_min) * uniforms[:, 0]
        uniforms[:, 1] = self.y_min + (self.y_max - self.y_min) * uniforms[:, 1]
        return uniforms


@dataclass(frozen=True)
class PoissonModel:
    """Poisson process with constant intensity on a window."""

    window: Window
    intensity: float

    def __post_init__(self):
        if not self.intensity > 0.0:
            raise ValueError("intensity must be positive")

    def papangelou(self, x, config: Configuration) -> float:
        return self.intensity


@dataclass(frozen=True)
class StraussModel:
    """Strauss-type pairwise Gibbs process.

    Papangelou density c(x, omega) = beta * gamma^{t(x, omega)} where
    t counts the points of omega within distance r of x. gamma in [0, 1]
    keeps the density hereditary and integrable.
    """

    window: Window
    beta: float
    gamma: float
    r: float

    def __post_init__(self):
        if not self.beta > 0.0:
            raise ValueError("beta must be positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not self.r > 0.0:
            raise ValueError("interaction radius must be positive")

    def neighbor_count(self, x, config) -> int:
        px, py = x
        r2 = self.r * self.r
        count = 0
        for qx, qy in config:
            dx = px - qx
            dy = py - qy
            if dx * dx + dy * dy <= r2 and (qx != px or qy != py):
                count += 1
        return count

    def papangelou(self, x, config: Configuration) -> float:
        if x in config:
            config = config - {x}
        return self.beta * self.gamma ** self.neighbor_count(x, config)


ProcessModel = PoissonModel | StraussModel


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    std_error: float
    n_samples: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


def mean_and_se(values) -> tuple[float, float]:
    """Sample mean and its standard error (ddof = 1) of at least 2 values."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValueError("a standard error needs at least 2 samples")
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def z_value(estimate: float, target: float, se: float) -> float:
    """(estimate - target) / se, and 0 when the standard error is 0."""
    if se == 0.0:
        return 0.0
    return (estimate - target) / se


# two-sided |z| gate and minimum goodness-of-fit p-value of the statistical suites
Z_GATE = 4.0
P_GATE = 1e-3


def target_check(values, target: float) -> dict:
    """The sample mean of values against a target: estimate, se, target, z."""
    estimate, se = mean_and_se(values)
    return {"estimate": estimate, "se": se, "target": target,
            "z": z_value(estimate, target, se)}


def z_score(lhs: Estimate, rhs: Estimate) -> float:
    """Standardized gap between two independent estimates."""
    return z_value(lhs.mean, rhs.mean, math.hypot(lhs.std_error, rhs.std_error))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _replicate_rngs(seed: int, n: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.Generator(np.random.PCG64(child)) for child in children]


def _estimate_from_values(values, seed: int) -> Estimate:
    return Estimate(*mean_and_se(values), len(values), seed)


# -- samplers -----------------------------------------------------------------


def _tuples(points: np.ndarray) -> tuple:
    """Rows of an (N, 2) point array as (x, y) tuples of Python floats."""
    return tuple(map(tuple, points.tolist()))


def poisson_mean(window: Window, intensity: float) -> float:
    """Mean count intensity * area of a Poisson process, below MAX_POISSON_MEAN."""
    mean = intensity * window.area
    if not mean < MAX_POISSON_MEAN:
        raise ValueError(f"intensity * area must stay below {MAX_POISSON_MEAN:g}")
    return mean


def _poisson_points(window: Window, intensity: float, rng) -> np.ndarray:
    return window.sample_points(rng, int(rng.poisson(poisson_mean(window, intensity))))


def sample_poisson(window: Window, intensity: float, seed) -> Configuration:
    """One draw of a Poisson process: N ~ Poisson(intensity * area), then
    N points uniform on the window. Deterministic given the seed."""
    return frozenset(_tuples(_poisson_points(window, intensity, _as_rng(seed))))


def default_burn_in(model: StraussModel) -> int:
    """Default chain length: 10 sweeps of beta * area birth-death steps."""
    return 10 * math.ceil(model.beta * model.window.area)


# steps per block of uniforms drawn from each chain's stream at a time
_CHUNK_STEPS = 64


def _strauss_chains(model: StraussModel, n_steps: int, rngs: Sequence) -> list[Configuration]:
    """One birth-death chain per generator, all advanced together.

    Chain k draws its Poisson(beta) start and then 4 uniforms per step from
    rngs[k] alone, so its result and the position of rngs[k] afterwards do
    not depend on the other chains. The points of chain k are
    (xs[k, j], ys[k, j]) for j < n[k]; unused slots hold inf, which is never
    within r of a point.
    """
    if n_steps < default_burn_in(model):
        raise ValueError(
            f"n_steps must be at least the default burn-in {default_burn_in(model)}"
        )
    window = model.window
    area = window.area
    width = window.x_max - window.x_min
    height = window.y_max - window.y_min
    r2 = model.r * model.r
    starts = [_poisson_points(window, model.beta, rng) for rng in rngs]
    chains = len(starts)
    n = np.array([len(start) for start in starts], dtype=np.int64)
    cap = max(1, int(n.max(initial=0)))
    xs = np.full((chains, cap), np.inf)
    ys = np.full((chains, cap), np.inf)
    for k, start in enumerate(starts):
        xs[k, : len(start)] = start[:, 0]
        ys[k, : len(start)] = start[:, 1]

    def c_table(size):
        """c(x, omega) = beta gamma^t for t = 0..size, as Python computes it."""
        return np.array([model.beta * model.gamma**t for t in range(size + 1)])

    c_of_t = c_table(cap)
    # gamma == 1 gives c = beta whatever t is, so no distances are needed
    interacting = model.gamma != 1.0
    rows = np.arange(chains)
    block = np.empty((chains, _CHUNK_STEPS, 4))
    for first in range(0, n_steps, _CHUNK_STEPS):
        steps = min(_CHUNK_STEPS, n_steps - first)
        for k, rng in enumerate(rngs):
            rng.random(out=block[k, :steps])
        # (step, uniform, chain): each step reads four contiguous rows
        uniforms = block[:, :steps].transpose(1, 2, 0).copy()
        for move, u, v, accept in uniforms:
            birth = move < 0.5
            death = ~birth & (n > 0)
            index = np.minimum((u * n).astype(np.int64), n - 1)
            px = np.where(death, xs[rows, index], window.x_min + width * u)
            py = np.where(death, ys[rows, index], window.y_min + height * v)
            if interacting:
                used = int(n.max(initial=0))
                dx = xs[:, :used] - px[:, None]
                dy = ys[:, :used] - py[:, None]
                dx *= dx
                dy *= dy
                dx += dy
                # a dying point is at distance 0 from itself
                c = c_of_t[np.count_nonzero(dx <= r2, axis=1) - death]
            else:
                c = model.beta
            born = np.flatnonzero(birth & (accept * (n + 1) < c * area))
            # accept a death iff accept < n / (c * area), written division-free
            died = np.flatnonzero(death & (accept * c * area < n))
            if born.size:
                slot = n[born]
                if slot.max() == cap:
                    xs = np.concatenate((xs, np.full_like(xs, np.inf)), axis=1)
                    ys = np.concatenate((ys, np.full_like(ys, np.inf)), axis=1)
                    cap *= 2
                    c_of_t = c_table(cap)
                xs[born, slot] = px[born]
                ys[born, slot] = py[born]
                n[born] += 1
            if died.size:
                last = n[died] - 1
                for coordinate in (xs, ys):
                    coordinate[died, index[died]] = coordinate[died, last]
                    coordinate[died, last] = np.inf
                n[died] = last
    return [
        frozenset(zip(xs[k, : n[k]].tolist(), ys[k, : n[k]].tolist()))
        for k in range(chains)
    ]


def sample_gibbs(model: StraussModel, n_steps: int, seed) -> Configuration:
    """Birth-death Metropolis-Hastings draw from the Strauss model.

    Each step proposes a birth (uniform point, accepted with probability
    min(1, c(x, omega) |W| / (n+1))) or a death (uniform existing point,
    accepted with probability min(1, n / (c(x, omega - x) |W|))), each with
    probability 1/2. The chain starts from a Poisson(beta) draw, which is
    already stationary when gamma = 1 and close to it otherwise; n_steps
    must be at least the default burn-in.

    Draw layout: the Poisson start (as sample_poisson), then exactly 4
    uniforms per step, (move, u, v, accept). move < 1/2 proposes a birth at
    (x_min + width u, y_min + height v); otherwise the death of the point
    in slot min(floor(u n), n - 1), where a death swaps the last point into
    the freed slot. A step with n = 0 and no birth does nothing. The
    generator therefore ends 4 n_steps uniforms after the start, whatever
    the chain did. This is the one-chain call of the lockstep engine that
    the estimators and sample_many run on all replicate streams at once.
    """
    return _strauss_chains(model, n_steps, [_as_rng(seed)])[0]


def sample_process(model: ProcessModel, seed, n_steps: int | None = None) -> Configuration:
    """Draw one configuration from either process type."""
    if isinstance(model, PoissonModel):
        return sample_poisson(model.window, model.intensity, seed)
    steps = default_burn_in(model) if n_steps is None else n_steps
    return sample_gibbs(model, steps, seed)


def _draw_sides(model: ProcessModel, seeds: Sequence[int], n_samples: int,
                n_steps: int | None) -> list:
    """Per seed, the (generator, configuration) pairs of its n_samples
    replicate streams, in stream order.

    A Poisson side spawns its generators when it is first iterated and
    draws one configuration at a time. The Strauss chains of every side run
    in one lockstep call; the callers' later draws from each generator
    continue its own stream.
    """
    if isinstance(model, PoissonModel):

        def stream(seed):
            for rng in _replicate_rngs(seed, n_samples):
                yield rng, sample_poisson(model.window, model.intensity, rng)

        return [stream(seed) for seed in seeds]
    sides = [_replicate_rngs(seed, n_samples) for seed in seeds]
    steps = default_burn_in(model) if n_steps is None else n_steps
    configs = _strauss_chains(model, steps, [rng for rngs in sides for rng in rngs])
    return [
        list(zip(rngs, configs[i * n_samples : (i + 1) * n_samples]))
        for i, rngs in enumerate(sides)
    ]


def sample_many(
    model: ProcessModel, n_samples: int, seed: int, n_steps: int | None = None
) -> list[Configuration]:
    """Independent replicates, one spawned RNG stream per replicate."""
    (side,) = _draw_sides(model, [seed], n_samples, n_steps)
    return [config for _, config in side]


def compound_papangelou(model: ProcessModel, points: Sequence, config: Configuration) -> float:
    """chat(x_1..x_n, omega) = prod_k c(x_k, omega u {x_1..x_{k-1}})."""
    value = 1.0
    current = config
    for x in points:
        value *= model.papangelou(x, current)
        if value == 0.0:
            return 0.0
        current = current | {x}
    return value


# -- estimators ---------------------------------------------------------------


def estimate_gnz(
    model: ProcessModel,
    kernel: Callable,
    n_samples: int,
    seed: int,
    n_steps: int | None = None,
) -> tuple[Estimate, Estimate]:
    """Monte Carlo estimates of both Georgii-Nguyen-Zessin sides.

    lhs averages sum_{x in omega} u(x, omega); rhs averages
    area * c(x, omega) * u(x, omega u {x}) with x uniform on the window.
    The two sides use independent replicate streams.
    """
    pairs = gnz_estimates(model, [kernel], n_samples, seed, n_steps)
    return pairs[0]


def gnz_estimates(
    model: ProcessModel,
    kernels: Sequence[Callable],
    n_samples: int,
    seed: int,
    n_steps: int | None = None,
) -> list[tuple[Estimate, Estimate]]:
    """GNZ estimates for several kernels sharing the same sample streams."""
    lhs_seed, rhs_seed = _side_seeds(seed)
    lhs, rhs = _draw_sides(model, (lhs_seed, rhs_seed), n_samples, n_steps)
    area = model.window.area
    lhs_values = [[] for _ in kernels]
    for _, config in lhs:
        for slot, u in enumerate(kernels):
            total = 0.0
            for x in config:
                total += u(x, config)
            lhs_values[slot].append(total)
    rhs_values = [[] for _ in kernels]
    for rng, config in rhs:
        (x,) = _tuples(model.window.sample_points(rng, 1))
        c = model.papangelou(x, config)
        augmented = config | {x}
        for slot, u in enumerate(kernels):
            rhs_values[slot].append(area * c * u(x, augmented))
    return [
        (
            _estimate_from_values(lhs_values[slot], lhs_seed),
            _estimate_from_values(rhs_values[slot], rhs_seed),
        )
        for slot in range(len(kernels))
    ]


def estimate_factorial_identity(
    model: ProcessModel,
    functional: Callable,
    region: Callable,
    n: int,
    n_samples: int,
    seed: int,
    n_steps: int | None = None,
) -> tuple[Estimate, Estimate]:
    """Monte Carlo estimates of both sides of the factorial moment identity.

    lhs averages F(omega) * N(A(omega))_(n). rhs uses the window-uniform
    importance representation of the intensity integral: per replicate it
    draws x_1..x_n i.i.d. uniform and averages

        area^n * chat(x, omega) * F(omega u x) * prod_k 1_{A(omega u x)}(x_k).

    region is a callable (point, configuration) -> bool.
    """
    if not (1 <= n <= MAX_ESTIMATOR_ORDER):
        raise ValueError(f"order must satisfy 1 <= n <= {MAX_ESTIMATOR_ORDER}")
    lhs_seed, rhs_seed = _side_seeds(seed)
    lhs, rhs = _draw_sides(model, (lhs_seed, rhs_seed), n_samples, n_steps)
    area = model.window.area

    lhs_values = []
    for _, config in lhs:
        count = sum(1 for x in config if region(x, config))
        lhs_values.append(functional(config) * falling_factorial(count, n))

    rhs_values = []
    for rng, config in rhs:
        draws = _tuples(model.window.sample_points(rng, n))
        chat = compound_papangelou(model, draws, config)
        if chat == 0.0:
            rhs_values.append(0.0)
            continue
        augmented = config | set(draws)
        value = functional(augmented)
        if value != 0.0:
            for x in draws:
                if not region(x, augmented):
                    value = 0.0
                    break
        rhs_values.append(area**n * chat * value)

    return (
        _estimate_from_values(lhs_values, lhs_seed),
        _estimate_from_values(rhs_values, rhs_seed),
    )


def estimate_partition_moment(
    model: ProcessModel,
    kernel: Callable,
    n: int,
    n_samples: int,
    seed: int,
    n_steps: int | None = None,
) -> tuple[Estimate, Estimate]:
    """Monte Carlo estimates of both sides of the moment identity for
    S = sum_{x in omega} u(x, omega).

    lhs averages S^n. rhs sums over partitions of {1..n}: for a partition
    with k blocks of sizes s_1..s_k it draws k uniform points and averages
    area^k * chat * prod_j u(x_j, omega u x)^{s_j}.
    """
    if not (1 <= n <= MAX_ESTIMATOR_ORDER):
        raise ValueError(f"order must satisfy 1 <= n <= {MAX_ESTIMATOR_ORDER}")
    block_sizes = [part.block_sizes() for part in partitions(n)]
    lhs_seed, rhs_seed = _side_seeds(seed)
    lhs, rhs = _draw_sides(model, (lhs_seed, rhs_seed), n_samples, n_steps)
    area = model.window.area

    lhs_values = []
    for _, config in lhs:
        total = 0.0
        for x in config:
            total += kernel(x, config)
        lhs_values.append(total**n)

    rhs_values = []
    for rng, config in rhs:
        replicate_total = 0.0
        for sizes in block_sizes:
            k = len(sizes)
            draws = _tuples(model.window.sample_points(rng, k))
            chat = compound_papangelou(model, draws, config)
            if chat == 0.0:
                continue
            augmented = config | set(draws)
            prod_value = 1.0
            for x, exponent in zip(draws, sizes):
                prod_value *= kernel(x, augmented) ** exponent
            replicate_total += area**k * chat * prod_value
        rhs_values.append(replicate_total)

    return (
        _estimate_from_values(lhs_values, lhs_seed),
        _estimate_from_values(rhs_values, rhs_seed),
    )


def _side_seeds(seed: int) -> tuple[int, int]:
    left, right = np.random.SeedSequence(seed).spawn(2)
    return (
        int(left.generate_state(1, np.uint64)[0]),
        int(right.generate_state(1, np.uint64)[0]),
    )


# -- experiment configuration --------------------------------------------------


def config_floats(config, keys: Sequence[str], what: str) -> list[float]:
    """The values of keys in a config object as floats; ValueError when
    config is not an object or a key is missing or not a number."""
    if not isinstance(config, dict):
        raise ValueError(f"{what} must be an object")
    try:
        return [float(config[key]) for key in keys]
    except KeyError as exc:
        raise ValueError(f"{what} is missing {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} values must be numbers: {exc}") from exc


def window_from_config(config: dict) -> Window:
    return Window(*config_floats(config, ("x_min", "x_max", "y_min", "y_max"), "window"))


def process_from_config(config: dict) -> ProcessModel:
    """Build a process from the experiment configuration schema.

    {"process": "poisson", "window": {...}, "intensity": l} or
    {"process": "strauss", "window": {...}, "beta": b, "gamma": g, "r": r}
    """
    try:
        kind = config["process"]
        window = window_from_config(config["window"])
        if kind == "poisson":
            return PoissonModel(window, float(config["intensity"]))
        if kind == "strauss":
            return StraussModel(
                window,
                float(config["beta"]),
                float(config["gamma"]),
                float(config["r"]),
            )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed process configuration: {exc}") from exc
    raise ValueError(f"unknown process type {kind!r}")
