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

    def sample_point(self, rng: np.random.Generator) -> tuple[float, float]:
        x = self.x_min + (self.x_max - self.x_min) * rng.random()
        y = self.y_min + (self.y_max - self.y_min) * rng.random()
        return (x, y)


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


def sample_poisson(window: Window, intensity: float, seed) -> Configuration:
    """One draw of a Poisson process: N ~ Poisson(intensity * area), then
    N points uniform on the window. Deterministic given the seed."""
    mean = intensity * window.area
    if not mean < MAX_POISSON_MEAN:
        raise ValueError(f"intensity * area must stay below {MAX_POISSON_MEAN:g}")
    rng = _as_rng(seed)
    count = int(rng.poisson(mean))
    points = []
    for _ in range(count):
        points.append(window.sample_point(rng))
    return frozenset(points)


def default_burn_in(model: StraussModel) -> int:
    """Default chain length: 10 sweeps of beta * area birth-death steps."""
    return 10 * math.ceil(model.beta * model.window.area)


def sample_gibbs(model: StraussModel, n_steps: int, seed) -> Configuration:
    """Birth-death Metropolis-Hastings draw from the Strauss model.

    Each step proposes a birth (uniform point, accepted with probability
    min(1, c(x, omega) |W| / (n+1))) or a death (uniform existing point,
    accepted with probability min(1, n / (c(x, omega - x) |W|))), each with
    probability 1/2. The chain starts from a Poisson(beta) draw, which is
    already stationary when gamma = 1 and close to it otherwise; n_steps
    must be at least the default burn-in.
    """
    if n_steps < default_burn_in(model):
        raise ValueError(
            f"n_steps must be at least the default burn-in {default_burn_in(model)}"
        )
    rng = _as_rng(seed)
    window = model.window
    area = window.area
    beta = model.beta
    gamma = model.gamma
    r2 = model.r * model.r
    points: list[tuple[float, float]] = list(
        sample_poisson(window, beta, rng)
    )

    for _ in range(n_steps):
        if rng.random() < 0.5:
            x = window.sample_point(rng)
            t = 0
            px, py = x
            for qx, qy in points:
                dx = px - qx
                dy = py - qy
                if dx * dx + dy * dy <= r2:
                    t += 1
            c = beta * gamma**t
            if rng.random() * (len(points) + 1) < c * area:
                points.append(x)
        else:
            n = len(points)
            if n == 0:
                continue
            index = int(rng.integers(n))
            px, py = points[index]
            t = 0
            for j, (qx, qy) in enumerate(points):
                if j == index:
                    continue
                dx = px - qx
                dy = py - qy
                if dx * dx + dy * dy <= r2:
                    t += 1
            c = beta * gamma**t
            # accept death iff U < n / (c * area), written division-free
            if rng.random() * c * area < n:
                points.pop(index)
    return frozenset(points)


def sample_process(model: ProcessModel, seed, n_steps: int | None = None) -> Configuration:
    """Draw one configuration from either process type."""
    if isinstance(model, PoissonModel):
        return sample_poisson(model.window, model.intensity, seed)
    steps = default_burn_in(model) if n_steps is None else n_steps
    return sample_gibbs(model, steps, seed)


def sample_many(
    model: ProcessModel, n_samples: int, seed: int, n_steps: int | None = None
) -> list[Configuration]:
    """Independent replicates, one spawned RNG stream per replicate."""
    rngs = _replicate_rngs(seed, n_samples)
    return [sample_process(model, rng, n_steps) for rng in rngs]


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
    area = model.window.area
    lhs_values = [[] for _ in kernels]
    for rng in _replicate_rngs(lhs_seed, n_samples):
        config = sample_process(model, rng, n_steps)
        for slot, u in enumerate(kernels):
            total = 0.0
            for x in config:
                total += u(x, config)
            lhs_values[slot].append(total)
    rhs_values = [[] for _ in kernels]
    for rng in _replicate_rngs(rhs_seed, n_samples):
        config = sample_process(model, rng, n_steps)
        x = model.window.sample_point(rng)
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
    area = model.window.area

    lhs_values = []
    for rng in _replicate_rngs(lhs_seed, n_samples):
        config = sample_process(model, rng, n_steps)
        count = sum(1 for x in config if region(x, config))
        lhs_values.append(functional(config) * falling_factorial(count, n))

    rhs_values = []
    for rng in _replicate_rngs(rhs_seed, n_samples):
        config = sample_process(model, rng, n_steps)
        draws = tuple(model.window.sample_point(rng) for _ in range(n))
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
    area = model.window.area

    lhs_values = []
    for rng in _replicate_rngs(lhs_seed, n_samples):
        config = sample_process(model, rng, n_steps)
        total = 0.0
        for x in config:
            total += kernel(x, config)
        lhs_values.append(total**n)

    rhs_values = []
    for rng in _replicate_rngs(rhs_seed, n_samples):
        config = sample_process(model, rng, n_steps)
        replicate_total = 0.0
        for sizes in block_sizes:
            k = len(sizes)
            draws = tuple(model.window.sample_point(rng) for _ in range(k))
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


def window_from_config(config: dict) -> Window:
    return Window(
        float(config["x_min"]),
        float(config["x_max"]),
        float(config["y_min"]),
        float(config["y_max"]),
    )


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
