"""Continuous-window samplers and seeded identity estimators.

The reference measure is Lebesgue on a rectangular window, so a Poisson
process with intensity lambda has Papangelou density lambda and a
Strauss-type pairwise process has density beta * gamma^{t(x, omega)} with
t the number of points within the interaction radius.

K sampled configurations are one batch (xs, ys, n): configuration k holds
the points (xs[k, j], ys[k, j]) for j < n[k], and unused slots hold NaN,
which is near no point and in no region, disk or hull, and on which no
arithmetic warns (with inf, the hull edge tests of `transforms` would
compute 0 * inf). The Poisson draw and the Strauss chains return batches,
the estimators and the hull transformation are array expressions over
them, and `_batch_of` and `_frozensets` convert configurations to a batch
and back.
Integrands are array callables of the coordinates and the point count
|omega|: kernel(x, y, count), functional(count), region(x, y, count). They
never see a padded slot, and their results broadcast, so a constant such as
lambda x, y, count: 1.0 works.

All randomness flows from a single integer seed through
numpy.random.SeedSequence, so runs are reproducible bit for bit. Estimator
left and right sides use separate child seeds, which makes the 4 *
combined-standard-error comparisons between them honest. The replicates of
a seed come in blocks of BLOCK_REPLICATES (the last block holds the rest),
and block b reads the stream of SeedSequence(seed, spawn_key=(b,)) in a
fixed layout:

1. the block's Poisson counts, in one draw;
2. all the block's points, two uniforms (x, y) per point, replicate after
   replicate, in one sample_points call;
3. for the Strauss chains, one (size, steps, 4) array of uniforms per chunk
   of _CHUNK_STEPS steps: chain k reads row k, 4 uniforms per step (move, u,
   v, accept), whatever the step does;
4. the right-side points of an estimator, extra per replicate, replicate
   after replicate.

Results depend on BLOCK_REPLICATES, but not on how blocks are grouped into
calls: every block can be drawn alone, and the Strauss chains of all blocks
of a call (all replicates of sample_many, both sides of an estimator, or
all sides of the mc-identity experiments that share (model, n_samples,
n_steps)) advance together in lockstep without reading each other's
streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .combinatorics import falling_factorial, partitions

Configuration = frozenset
# (xs, ys, n): configuration k is (xs[k, j], ys[k, j]) for j < n[k], NaN after
Batch = tuple[np.ndarray, np.ndarray, np.ndarray]

MAX_POISSON_MEAN = 1e6
MAX_ESTIMATOR_ORDER = 3
# replicates per block stream; results depend on it, so changing it changes
# every Monte Carlo report body
BLOCK_REPLICATES = 1024


@dataclass(frozen=True)
class Window:
    """Closed axis-aligned rectangle in the plane: a sampling window, and
    (as `transforms.Box`) a test region."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("a window or box must have positive extent in both axes")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def contains(self, x, y):
        """Closed-rectangle membership of the points (x, y), elementwise."""
        return (self.x_min <= x) & (x <= self.x_max) & (self.y_min <= y) & (y <= self.y_max)

    def max_norm(self) -> float:
        """Largest distance from the origin to a point of the rectangle."""
        return max(math.hypot(x, y) for x in (self.x_min, self.x_max)
                   for y in (self.y_min, self.y_max))

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
        poisson_mean(self.window, self.intensity)


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
        # the chains start from a Poisson(beta) draw
        poisson_mean(self.window, self.beta)


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


def _child_seed(seed: int, index: int) -> int:
    """The integer seed of child index of seed: a 64-bit word of
    SeedSequence(seed, spawn_key=(index,)). Two (seed, index) pairs share a
    child only by a 64-bit hash collision."""
    child = np.random.SeedSequence(seed, spawn_key=(index,))
    return int(child.generate_state(1, np.uint64)[0])


def _block_streams(seed: int, n_samples: int) -> list[tuple[np.random.Generator, int]]:
    """(generator, size) of each block of n_samples replicates: block b holds
    the replicates b R .. b R + size - 1, R = BLOCK_REPLICATES, and reads the
    stream of SeedSequence(seed, spawn_key=(b,)), so it can be drawn without
    the blocks before it."""
    return [
        (np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(b,)))),
         min(BLOCK_REPLICATES, n_samples - first))
        for b, first in enumerate(range(0, n_samples, BLOCK_REPLICATES))
    ]


def _estimate(values: np.ndarray, seed: int) -> Estimate:
    return Estimate(*mean_and_se(values), len(values), seed)


# -- samplers -----------------------------------------------------------------


def poisson_mean(window: Window, intensity: float) -> float:
    """Mean count intensity * area of a Poisson process, below MAX_POISSON_MEAN."""
    mean = intensity * window.area
    if not mean < MAX_POISSON_MEAN:
        raise ValueError(f"intensity * area must stay below {MAX_POISSON_MEAN:g}")
    return mean


def _batch_from(n: np.ndarray, points: np.ndarray) -> Batch:
    """The batch of K configurations with n[k] points each, taken in order
    from the rows of a (sum n, 2) array, with NaN in the unused slots."""
    n = np.asarray(n, dtype=np.int64)
    used = np.arange(max(1, int(n.max(initial=0)))) < n[:, None]
    xs, ys = np.full((2, *used.shape), np.nan)
    xs[used], ys[used] = points.T
    return xs, ys, n


def _batch(samples: Sequence[np.ndarray]) -> Batch:
    """The batch of K (n_k, 2) point arrays, with NaN in the unused slots."""
    n = [len(sample) for sample in samples]
    return _batch_from(n, np.concatenate([np.empty((0, 2)), *samples]))


def _batch_of(configs) -> Batch:
    """The batch of configurations (iterables of points), in their order."""
    return _batch([np.array(list(config), dtype=float).reshape(-1, 2) for config in configs])


def _frozensets(batch: Batch) -> list[Configuration]:
    """The configurations of a batch, each a frozenset of (x, y) tuples."""
    return [frozenset(zip(x[:k].tolist(), y[:k].tolist())) for x, y, k in zip(*batch)]


def _poisson_batch(window: Window, intensity: float, blocks: Sequence) -> Batch:
    """The batch of the Poisson replicates of the (generator, size) blocks,
    in order. A block reads its size counts in one draw, then all its points
    in one sample_points call, replicate after replicate."""
    mean = poisson_mean(window, intensity)
    # the empty first entries keep a call without blocks valid
    counts, points = [np.zeros(0, np.int64)], [np.zeros((0, 2))]
    for rng, size in blocks:
        counts.append(rng.poisson(mean, size))
        points.append(window.sample_points(rng, int(counts[-1].sum())))
    # rebinding drops the per-block arrays before the batch is filled
    points = np.concatenate(points)
    return _batch_from(np.concatenate(counts), points)


def sample_poisson(window: Window, intensity: float, seed) -> Configuration:
    """One draw of a Poisson process: N ~ Poisson(intensity * area), then
    N points uniform on the window. Deterministic given the seed."""
    return _frozensets(_poisson_batch(window, intensity, [(_as_rng(seed), 1)]))[0]


def default_burn_in(model: StraussModel) -> int:
    """Default chain length: 10 sweeps of beta * area birth-death steps."""
    return 10 * math.ceil(model.beta * model.window.area)


def _chain_steps(model: StraussModel, n_steps: int | None) -> int:
    """n_steps, or the default burn-in when it is None; a ValueError when
    n_steps is below the default burn-in."""
    burn_in = default_burn_in(model)
    if n_steps is not None and n_steps < burn_in:
        raise ValueError(f"n_steps must be at least the default burn-in {burn_in}")
    return burn_in if n_steps is None else n_steps


def _neighbours(xs: np.ndarray, ys: np.ndarray, px: np.ndarray, py: np.ndarray,
                r2: float) -> np.ndarray:
    """Per row k, how many of the points (xs[k, j], ys[k, j]) lie within
    distance sqrt(r2) of (px[k], py[k]); NaN slots never do."""
    dx = xs - px[:, None]
    dy = ys - py[:, None]
    dx *= dx
    dy *= dy
    dx += dy
    return np.count_nonzero(dx <= r2, axis=1)


def _strauss_table(model: StraussModel, size: int) -> np.ndarray:
    """c(x, omega) = beta gamma^t for t = 0..size, as Python computes it."""
    return np.array([model.beta * model.gamma**t for t in range(size + 1)])


# steps per block of uniforms drawn from each chain's stream at a time
_CHUNK_STEPS = 64


def _strauss_chains(model: StraussModel, n_steps: int | None, blocks: Sequence) -> Batch:
    """One birth-death chain per replicate of the (generator, size) blocks,
    all advanced together, as a batch, n_steps long (by default the burn-in).

    A block reads its Poisson(beta) starts as _poisson_batch does, then one
    (size, steps, 4) array of uniforms per chunk of _CHUNK_STEPS steps (the
    last chunk shorter), chain k of the block reading row k. A block's chains
    and the position of its generator afterwards do not depend on the other
    blocks of the call.

    Inside the loop xs and ys are slot-major, (capacity, chains): a step
    counts neighbours over the contiguous rows xs[:used], and a capacity
    doubling appends rows. Each chunk's uniforms are copied block by block
    into one (4, steps, chains) array, allocated once per call, and
    the chunk's birth flags and birth proposals are computed from it at
    once, with the arithmetic of a single step; the draw layout above does
    not change. The batch is transposed back to (chains, capacity) on
    return.
    """
    n_steps = _chain_steps(model, n_steps)
    window = model.window
    area = window.area
    width = window.x_max - window.x_min
    height = window.y_max - window.y_min
    r2 = model.r * model.r
    xs, ys, n = _poisson_batch(window, model.beta, blocks)
    chains, cap = xs.shape
    xs, ys = xs.T.copy(), ys.T.copy()
    c_of_t = _strauss_table(model, cap)
    # gamma == 1 gives c = beta whatever t is, so no distances are needed
    interacting = model.gamma != 1.0
    columns = np.arange(chains)
    # (uniform, step, chain): a step reads one contiguous row of each
    chunk = np.empty((4, min(_CHUNK_STEPS, n_steps), chains))
    for first in range(0, n_steps, _CHUNK_STEPS):
        steps = min(_CHUNK_STEPS, n_steps - first)
        uniforms = chunk[:, :steps]
        row = 0
        for rng, size in blocks:
            uniforms[:, :, row:row + size] = rng.random((size, steps, 4)).T
            row += size
        move, us, vs, accepts = uniforms
        births = move < 0.5
        deaths = ~births
        # the birth proposals x_min + width u and y_min + height v, written
        # over the move and v rows, which no step reads
        birth_xs = np.multiply(width, us, out=move)
        birth_xs += window.x_min
        birth_ys = np.multiply(height, vs, out=vs)
        birth_ys += window.y_min
        for step in range(steps):
            u, accept = us[step], accepts[step]
            death = deaths[step] & (n > 0)
            index = np.minimum((u * n).astype(np.int64), n - 1)
            px = np.where(death, xs[index, columns], birth_xs[step])
            py = np.where(death, ys[index, columns], birth_ys[step])
            if interacting:
                used = int(n.max(initial=0))
                dx = xs[:used] - px
                dy = ys[:used] - py
                dx *= dx
                dy *= dy
                dx += dy
                # a dying point is at distance 0 from itself
                c = c_of_t[np.count_nonzero(dx <= r2, axis=0) - death]
            else:
                c = model.beta
            born = (births[step] & (accept * (n + 1) < c * area)).nonzero()[0]
            # accept a death iff accept < n / (c * area), written division-free
            died = (death & (accept * c * area < n)).nonzero()[0]
            if born.size:
                slot = n[born]
                if slot.max() == cap:
                    xs = np.concatenate((xs, np.full_like(xs, np.nan)))
                    ys = np.concatenate((ys, np.full_like(ys, np.nan)))
                    cap *= 2
                    c_of_t = _strauss_table(model, cap)
                xs[slot, born] = px[born]
                ys[slot, born] = py[born]
                n[born] = slot + 1
            if died.size:
                last = n[died] - 1
                freed = index[died]
                for coordinate in (xs, ys):
                    coordinate[freed, died] = coordinate[last, died]
                    coordinate[last, died] = np.nan
                n[died] = last
    return xs.T.copy(), ys.T.copy(), n


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
    the chain did. This is the lockstep engine on one block of one chain;
    the estimators and sample_many run it on all their blocks at once.
    """
    return _frozensets(_strauss_chains(model, n_steps, [(_as_rng(seed), 1)]))[0]


def sample_process(model: ProcessModel, seed, n_steps: int | None = None) -> Configuration:
    """Draw one configuration from either process type."""
    if isinstance(model, PoissonModel):
        return sample_poisson(model.window, model.intensity, seed)
    return sample_gibbs(model, _chain_steps(model, n_steps), seed)


def _draw_sides(model: ProcessModel, sides: Sequence[tuple[int, int]], n_samples: int,
                n_steps: int | None) -> list[tuple[Batch, np.ndarray]]:
    """Per (seed, extra) side, the batch of its n_samples replicates and the
    (n_samples, extra, 2) right-side points of each.

    Each block stream of a side yields its configurations (Poisson draws or
    Strauss chains), then extra points per replicate in one sample_points
    call. The configurations of every side come from one call, so the
    Strauss chains of all sides run in lockstep.
    """
    streams = [_block_streams(seed, n_samples) for seed, _ in sides]
    blocks = [block for side in streams for block in side]
    if isinstance(model, PoissonModel):
        xs, ys, n = _poisson_batch(model.window, model.intensity, blocks)
    else:
        xs, ys, n = _strauss_chains(model, n_steps, blocks)
    drawn = []
    for i, ((_, extra), side) in enumerate(zip(sides, streams)):
        rows = slice(i * n_samples, (i + 1) * n_samples)
        points = [model.window.sample_points(rng, size * extra) for rng, size in side]
        points = np.concatenate([np.zeros((0, 2)), *points]).reshape(n_samples, extra, 2)
        drawn.append(((xs[rows], ys[rows], n[rows]), points))
    return drawn


def sample_batch(model: ProcessModel, n_samples: int, seed: int,
                 n_steps: int | None = None) -> Batch:
    """Independent replicates as one batch (xs, ys, n), drawn from the block
    streams of seed."""
    ((batch, _),) = _draw_sides(model, [(seed, 0)], n_samples, n_steps)
    return batch


def sample_many(
    model: ProcessModel, n_samples: int, seed: int, n_steps: int | None = None
) -> list[Configuration]:
    """Independent replicates, drawn from the block streams of seed."""
    return _frozensets(sample_batch(model, n_samples, seed, n_steps))


def _chat(model: ProcessModel, batch: Batch, points: np.ndarray) -> np.ndarray:
    """chat(x_1..x_k, omega) per configuration omega of the batch, for the
    new points x_j = points[:, j] of a (K, k, 2) array, multiplied in tuple
    order: prod_j c(x_j, omega u {x_1..x_{j-1}})."""
    xs, ys, _ = batch
    chat = np.ones(len(points))
    k = points.shape[1]
    if isinstance(model, PoissonModel):
        for _ in range(k):
            chat *= model.intensity
        return chat
    c_of_t = _strauss_table(model, xs.shape[1] + k)
    r2 = model.r * model.r
    px, py = points[..., 0], points[..., 1]
    for j in range(k):
        t = _neighbours(xs, ys, px[:, j], py[:, j], r2)
        t += _neighbours(px[:, :j], py[:, :j], px[:, j], py[:, j], r2)
        chat *= c_of_t[t]
    return chat


def compound_papangelou(model: ProcessModel, points: Sequence, config: Configuration) -> float:
    """chat(x_1..x_n, omega) = prod_k c(x_k, omega u {x_1..x_{k-1}}) for
    points x_k not in omega: the one-row call of the estimators' batch form."""
    points = np.array(points, dtype=float).reshape(1, -1, 2)
    return float(_chat(model, _batch_of([config]), points)[0])


# -- estimators ---------------------------------------------------------------
#
# Each estimator is two parts: _<name>_parts gives the (seed, extra) sides it
# draws and the array expression that it evaluates on them (the output of
# _draw_sides for those sides). The public estimators compose the two;
# mc-identity draws the sides of all its experiments that share (model,
# n_samples, n_steps) in one call.


def _point_sums(batch: Batch, integrand: Callable) -> np.ndarray:
    """Per configuration, the sum of integrand(x, y, |omega|) over its points,
    added one after another in slot order, so that the padding width of the
    batch cannot change a rounding. Padded slots are never evaluated."""
    xs, ys, n = batch
    used = np.arange(xs.shape[1]) < n[:, None]
    values = np.zeros(xs.shape)
    values[used] = integrand(xs[used], ys[used], np.repeat(n, n))
    # a row with no points reads its last column, a sum of zeros
    return np.cumsum(values, axis=1)[np.arange(len(n)), n - 1]


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
    return gnz_estimates(model, [kernel], n_samples, seed, n_steps)[0]


def gnz_estimates(
    model: ProcessModel,
    kernels: Sequence[Callable],
    n_samples: int,
    seed: int,
    n_steps: int | None = None,
) -> list[tuple[Estimate, Estimate]]:
    """GNZ estimates for several kernels sharing the same sample streams."""
    sides, evaluate = _gnz_parts(model, kernels, seed)
    return evaluate(_draw_sides(model, sides, n_samples, n_steps))


def _gnz_parts(model: ProcessModel, kernels: Sequence[Callable], seed: int):
    lhs_seed, rhs_seed = _side_seeds(seed)

    def evaluate(drawn) -> list[tuple[Estimate, Estimate]]:
        (lhs, _), (rhs, points) = drawn
        weight = model.window.area * _chat(model, rhs, points)
        x, y = points[:, 0, 0], points[:, 0, 1]
        count = rhs[2] + 1
        return [
            (
                _estimate(_point_sums(lhs, u), lhs_seed),
                _estimate(weight * u(x, y, count), rhs_seed),
            )
            for u in kernels
        ]

    return ((lhs_seed, 0), (rhs_seed, 1)), evaluate


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
    """
    sides, evaluate = _factorial_parts(model, functional, region, n, seed)
    return evaluate(_draw_sides(model, sides, n_samples, n_steps))


def _factorial_parts(model: ProcessModel, functional: Callable, region: Callable, n: int,
                     seed: int):
    _check_order(n)
    lhs_seed, rhs_seed = _side_seeds(seed)

    def evaluate(drawn) -> tuple[Estimate, Estimate]:
        (lhs, _), (rhs, points) = drawn
        lhs_values = functional(lhs[2]) * falling_factorial(_point_sums(lhs, region), n)
        count = rhs[2] + n
        chat = _chat(model, rhs, points)
        inside = chat != 0.0
        for j in range(n):
            inside &= region(points[:, j, 0], points[:, j, 1], count)
        rhs_values = np.where(
            inside, model.window.area**n * chat * functional(count), 0.0
        )
        return _estimate(lhs_values, lhs_seed), _estimate(rhs_values, rhs_seed)

    return ((lhs_seed, 0), (rhs_seed, n)), evaluate


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
    sides, evaluate = _partition_parts(model, kernel, n, seed)
    return evaluate(_draw_sides(model, sides, n_samples, n_steps))


def _partition_parts(model: ProcessModel, kernel: Callable, n: int, seed: int):
    _check_order(n)
    block_sizes = [part.block_sizes() for part in partitions(n)]
    ends = np.cumsum([len(sizes) for sizes in block_sizes])
    lhs_seed, rhs_seed = _side_seeds(seed)
    area = model.window.area

    def evaluate(drawn) -> tuple[Estimate, Estimate]:
        (lhs, _), (rhs, points) = drawn
        # float_power is the C pow of Python's float ** int; ** on arrays
        # squares by multiplication, which differs in the last bit
        lhs_values = np.float_power(_point_sums(lhs, kernel), n)
        rhs_values = np.zeros(len(points))
        for sizes, draws in zip(block_sizes, np.split(points, ends[:-1], axis=1)):
            k = len(sizes)
            chat = _chat(model, rhs, draws)
            count = rhs[2] + k
            product = np.ones(len(points))
            for j, exponent in enumerate(sizes):
                product *= np.float_power(kernel(draws[:, j, 0], draws[:, j, 1], count), exponent)
            rhs_values += np.where(chat != 0.0, area**k * chat * product, 0.0)
        return _estimate(lhs_values, lhs_seed), _estimate(rhs_values, rhs_seed)

    return ((lhs_seed, 0), (rhs_seed, int(ends[-1]))), evaluate


def _check_order(n: int):
    if not (1 <= n <= MAX_ESTIMATOR_ORDER):
        raise ValueError(f"order must satisfy 1 <= n <= {MAX_ESTIMATOR_ORDER}")


def _side_seeds(seed: int) -> tuple[int, int]:
    return _child_seed(seed, 0), _child_seed(seed, 1)


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


# process type -> (model, the config keys of its parameters after the window)
_PROCESSES = {
    "poisson": (PoissonModel, ("intensity",)),
    "strauss": (StraussModel, ("beta", "gamma", "r")),
}


def process_from_config(config: dict) -> ProcessModel:
    """Build a process from the experiment configuration schema.

    {"process": "poisson", "window": {...}, "intensity": l} or
    {"process": "strauss", "window": {...}, "beta": b, "gamma": g, "r": r}
    """
    kind = config.get("process") if isinstance(config, dict) else None
    if not isinstance(kind, str) or kind not in _PROCESSES:
        raise ValueError(f"unknown process type {kind!r}")
    model, keys = _PROCESSES[kind]
    return model(window_from_config(config.get("window")), *config_floats(config, keys, kind))
