"""Sampler and estimator tests. Statistical gates use 4 standard errors on
seeded runs, so outcomes are deterministic."""

import copy
import math

import numpy as np
import pytest
from scipy import stats

from ppmoments import montecarlo
from ppmoments.combinatorics import partitions
from ppmoments.montecarlo import (
    _CHUNK_STEPS,
    Estimate,
    PoissonModel,
    StraussModel,
    Window,
    _birth_death_counts,
    _block_streams,
    _frozensets,
    _point_sums,
    _poisson_batch,
    _poisson_counts,
    _side_seeds,
    _strauss_chains,
    compound_papangelou,
    default_burn_in,
    estimate_factorial_identity,
    estimate_gnz,
    estimate_partition_moment,
    gnz_estimates,
    mean_and_se,
    poisson_mean,
    process_from_config,
    sample_batch,
    sample_gibbs,
    sample_many,
    sample_poisson,
    sample_process,
    z_score,
    z_value,
)

UNIT = Window(0.0, 1.0, 0.0, 1.0)


def count_stats(configs):
    counts = np.array([len(c) for c in configs], dtype=float)
    return (
        float(counts.mean()),
        float(counts.std(ddof=1) / math.sqrt(counts.size)),
    )


def test_window_validation_and_area():
    assert UNIT.area == 1.0
    assert Window(-2.0, 2.0, 0.0, 0.5).area == pytest.approx(2.0)
    with pytest.raises(ValueError):
        Window(1.0, 0.0, 0.0, 1.0)


def test_sample_poisson_deterministic():
    a = sample_poisson(UNIT, 5.0, 42)
    b = sample_poisson(UNIT, 5.0, 42)
    assert a == b
    assert all(UNIT.contains(*p) for p in a)


def test_sample_process_is_the_sampler_of_its_model():
    poisson = PoissonModel(UNIT, 5.0)
    assert sample_process(poisson, 42) == sample_poisson(UNIT, 5.0, 42)
    strauss = StraussModel(UNIT, 20.0, 0.5, 0.1)
    burn_in = default_burn_in(strauss)
    drawn = sample_process(strauss, 7)
    assert drawn == sample_gibbs(strauss, burn_in, 7) != sample_gibbs(strauss, burn_in + 40, 7)
    assert sample_process(strauss, 7, burn_in + 40) == sample_gibbs(strauss, burn_in + 40, 7)


def test_sample_poisson_near_zero_intensity():
    # with intensity * area = 1e-9 the draw is empty essentially surely
    for seed in range(20):
        assert sample_poisson(UNIT, 1e-9, seed) == frozenset()


def test_sample_poisson_guard():
    with pytest.raises(ValueError):
        sample_poisson(UNIT, 2e6, 0)


def test_sample_poisson_mean_count():
    samples = sample_many(PoissonModel(UNIT, 3.0), 20_000, 7)
    mean, se = count_stats(samples)
    assert abs(mean - 3.0) <= 4 * se


def test_sample_poisson_disjoint_counts_uncorrelated():
    samples = sample_many(PoissonModel(UNIT, 4.0), 20_000, 8)
    left = np.array(
        [sum(1 for p in c if p[0] < 0.5) for c in samples], dtype=float
    )
    right = np.array(
        [sum(1 for p in c if p[0] >= 0.5) for c in samples], dtype=float
    )
    products = (left - left.mean()) * (right - right.mean())
    cov = float(products.sum() / (products.size - 1))
    se = float(products.std(ddof=1) / math.sqrt(products.size))
    assert abs(cov) <= 4 * se


def test_gibbs_deterministic_and_burn_in_guard():
    model = StraussModel(UNIT, 20.0, 0.5, 0.05)
    a = sample_gibbs(model, default_burn_in(model), 3)
    b = sample_gibbs(model, default_burn_in(model), 3)
    assert a == b
    with pytest.raises(ValueError):
        sample_gibbs(model, default_burn_in(model) - 1, 3)


def test_gibbs_hard_core_has_no_close_pairs():
    model = StraussModel(UNIT, 15.0, 0.0, 0.15)
    r2 = 0.15**2
    for seed in range(5):
        config = sample_gibbs(model, default_burn_in(model), seed)
        points = list(config)
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                dx = points[i][0] - points[j][0]
                dy = points[i][1] - points[j][1]
                assert dx * dx + dy * dy > r2


def test_gibbs_hard_core_at_window_diameter_keeps_at_most_one_point():
    # r exceeds the window diameter, so any two points conflict
    model = StraussModel(UNIT, 5.0, 0.0, 1.5)
    for seed in range(10):
        config = sample_gibbs(model, default_burn_in(model), seed)
        assert len(config) <= 1


def reference_start(model, rng, count):
    """count start points of a chain, two uniforms (x, y) each."""
    window = model.window
    return [
        (window.x_min + (window.x_max - window.x_min) * float(u),
         window.y_min + (window.y_max - window.y_min) * float(v))
        for u, v in rng.random((count, 2))
    ]


def reference_chain(model, n_steps, rng):
    """The birth-death chain one step at a time, on the draw layout that
    sample_gibbs documents: the Poisson start, then (move, u, v, accept)
    per step."""
    points = reference_start(model, rng, int(rng.poisson(model.beta * model.window.area)))
    return run_reference_chain(model, points, (rng.random(4) for _ in range(n_steps)))


def reference_block(model, n_steps, rng, size):
    """The chains of one block stream, read in its documented layout by one
    call per chain and per chunk: the block's Poisson counts, each chain's
    start in turn, then one (size, steps, 4) draw per chunk of steps."""
    return [config for config, *_ in reference_block_runs(model, n_steps, rng, size)]


def reference_block_runs(model, n_steps, rng, size):
    """reference_block's chains, each as run_reference_chain returns it."""
    counts = rng.poisson(model.beta * model.window.area, size)
    starts = [reference_start(model, rng, count) for count in counts]
    chunks = [rng.random((size, min(_CHUNK_STEPS, n_steps - first), 4))
              for first in range(0, n_steps, _CHUNK_STEPS)]
    uniforms = np.concatenate(chunks, axis=1)
    return [run_reference_chain(model, start, steps) for start, steps in zip(starts, uniforms)]


def run_reference_chain(model, points, uniforms):
    """The chain from the start points, one step per (move, u, v, accept) of
    uniforms, with deaths swapping the last point into the freed slot; the
    final configuration, the largest count reached and the number of deaths
    proposed while the chain was empty."""
    window = model.window
    area = window.area
    r2 = model.r * model.r
    largest = len(points)
    empty_deaths = 0
    for step in uniforms:
        move, u, v, accept = (float(w) for w in step)
        n = len(points)
        if move < 0.5:
            x = (window.x_min + (window.x_max - window.x_min) * u,
                 window.y_min + (window.y_max - window.y_min) * v)
            t = sum((q[0] - x[0]) ** 2 + (q[1] - x[1]) ** 2 <= r2 for q in points)
            if accept * (n + 1) < model.beta * model.gamma**t * area:
                points.append(x)
                largest = max(largest, len(points))
        elif n:
            index = min(int(u * n), n - 1)
            x = points[index]
            t = sum(
                (q[0] - x[0]) ** 2 + (q[1] - x[1]) ** 2 <= r2
                for j, q in enumerate(points)
                if j != index
            )
            if accept * (model.beta * model.gamma**t) * area < n:
                points[index] = points[-1]
                points.pop()
        else:
            empty_deaths += 1
    return frozenset(points), largest, empty_deaths


@pytest.mark.parametrize(
    "beta,gamma,r,n_steps",
    [(20.0, 0.5, 0.1, 400), (15.0, 0.0, 0.15, 150), (8.0, 0.3, 1.5, 200)],
)
def test_gibbs_matches_the_reference_chain(beta, gamma, r, n_steps):
    model = StraussModel(Window(-1.0, 1.0, 0.0, 0.5), beta, gamma, r)
    for seed in range(4):
        reference = np.random.default_rng(seed)
        expected, *_ = reference_chain(model, n_steps, reference)
        rng = np.random.default_rng(seed)
        assert sample_gibbs(model, n_steps, rng) == expected
        assert rng.random() == reference.random()


def test_gibbs_batch_equals_single_chains(monkeypatch):
    model = StraussModel(UNIT, 25.0, 0.4, 0.08)
    # 300 steps: four full chunks and a short one
    steps = 300
    # 7 replicates in blocks of 3, 3 and 1
    monkeypatch.setattr(montecarlo, "BLOCK_REPLICATES", 3)
    expected = [config for rng, size in _block_streams(99, 7)
                for config in reference_block(model, steps, rng, size)]
    assert sample_many(model, 7, 99, n_steps=steps) == expected
    # after the estimators' chains, each block stream goes on with the
    # right-side points, replicate after replicate
    kernel = lambda x, y, count: y * count
    lhs_seed, rhs_seed = _side_seeds(5)
    values = []
    for rng, size in _block_streams(rhs_seed, 40):
        configs = reference_block(model, steps, rng, size)
        for config, (u, v) in zip(configs, rng.random((size, 2))):
            c = compound_papangelou(model, [(u, v)], config)
            values.append(model.window.area * c * kernel(u, v, len(config) + 1))
    _, rhs = estimate_gnz(model, kernel, 40, 5, n_steps=steps)
    assert rhs.mean == float(np.mean(values))


def test_blocks_do_not_depend_on_how_they_are_grouped_into_calls(monkeypatch):
    sizes = (5, 1, 3)

    def blocks():
        return [(np.random.default_rng([8, b]), size) for b, size in enumerate(sizes)]

    model = StraussModel(UNIT, 25.0, 0.4, 0.08)
    poisson = PoissonModel(UNIT, 6.0)
    for draw in (lambda group: _strauss_chains(model, 250, group),
                 lambda group: _poisson_batch(poisson.window, poisson.intensity, group)):
        grouped = blocks()
        together = _frozensets(draw(grouped))
        alone = blocks()
        apart = [config for block in alone for config in _frozensets(draw([block]))]
        assert together == apart
        # each generator stands at the same place afterwards
        assert [rng.random() for rng, _ in grouped] == [rng.random() for rng, _ in alone]
    # the block of one chain is sample_gibbs on its generator
    chains = _frozensets(_strauss_chains(model, 250, blocks()))
    assert chains[5] == sample_gibbs(model, 250, np.random.default_rng([8, 1]))
    # an estimator's side gives the same values whichever blocks share its
    # call: the lhs of estimate_gnz against its replicates drawn alone
    monkeypatch.setattr(montecarlo, "BLOCK_REPLICATES", 4)
    kernel = lambda x, y, count: x * count
    lhs, _ = estimate_gnz(model, kernel, 10, 3, n_steps=250)
    alone = sample_batch(model, 10, _side_seeds(3)[0], n_steps=250)
    assert lhs.mean == float(np.mean(_point_sums(alone, kernel)))
    # point sums do not depend on the padding width of the batch
    xs, ys, n = alone
    for width in range(n.max(), n.max() + 9):
        trimmed = (xs[:, :width], ys[:, :width], n)
        assert np.array_equal(_point_sums(trimmed, kernel), _point_sums(alone, kernel))


def test_gibbs_capacity_growth():
    # gamma = 1 and a long chain: the count wanders far above its start
    model = StraussModel(UNIT, 200.0, 1.0, 0.05)
    steps = default_burn_in(model)
    for seed in range(3):
        reference = np.random.default_rng(seed)
        expected, largest, _ = reference_chain(model, steps, reference)
        start = int(np.random.default_rng(seed).poisson(200.0))
        assert largest > start
        assert sample_gibbs(model, steps, np.random.default_rng(seed)) == expected


@pytest.mark.parametrize(
    "beta,gamma,r,seed,sizes,steps",
    [
        (60.0, 0.8, 0.03, 3, (3, 1, 2), None),
        (60.0, 0.0, 0.06, 0, (3, 1, 2), None),
        (60.0, 1.0, 0.05, 0, (3, 1, 2), None),
        (2.0, 0.5, 0.1, 0, (3, 1, 2), 3000),
        (60.0, 0.5, 0.05, 2, (1,), None),
        (150.0, 0.999, 1.5, 0, (2,), None),
    ],
    ids=["interacting-capacity-doubles", "hard-core", "no-interaction",
         "empty-chains-propose-deaths", "one-chain", "more-than-127-neighbours"],
)
def test_strauss_chains_of_several_blocks_match_the_reference(beta, gamma, r, seed, sizes, steps):
    # the blocks' chains advance together in one call, every chain bit for
    # bit the reference chain on its block's stream
    model = StraussModel(UNIT, beta, gamma, r)
    steps = steps or default_burn_in(model)

    def blocks():
        return [(np.random.default_rng([seed, b]), size) for b, size in enumerate(sizes)]

    references = blocks()
    runs = [run for rng, size in references for run in reference_block_runs(model, steps, rng, size)]
    drawn = blocks()
    chains = _strauss_chains(model, steps, drawn)
    assert _frozensets(chains) == [config for config, *_ in runs]
    assert [rng.random() for rng, _ in drawn] == [rng.random() for rng, _ in references]
    largest = max(run[1] for run in runs)
    if gamma == 0.8:
        # a chain of the call outgrows the largest start, so the capacity
        # of the batch doubles while the chains interact
        starts = max(rng.poisson(model.beta, size).max() for rng, size in blocks())
        assert largest > starts
    if beta == 2.0:
        # chains empty and then propose deaths, which read slot -1 and fail
        assert sum(run[2] for run in runs) > 100
        assert all(run[2] for run in runs)
    if gamma == 0.999:
        # every pair interacts, so a birth counts every point: more than
        # the 127 that a neighbour count in int8 holds
        assert largest > 128


@pytest.mark.parametrize(
    "window,beta,seed,n_samples,steps",
    [
        (UNIT, 30.0, 1, 400, 900),
        (UNIT, 30.0, 2, 400, None),
        (UNIT, 30.0, 3, 2100, 900),
        (Window(0.0, 2.0, 0.0, 0.75), 20.0, 4, 700, 901),
        (UNIT, 2.0, 5, 600, 3000),
    ],
    # 900 and 901 steps end in a short chunk; 2100 chains are three blocks
    ids=["steps-900", "burn-in", "three-blocks", "non-unit-window", "chains-reach-zero"],
)
def test_count_chain_is_the_strauss_chain_count_at_gamma_one(window, beta, seed, n_samples, steps):
    # the count chain reads each block stream as the full chain does and
    # makes the same birth and death decisions, so its counts are the
    # chain's bit for bit and each generator ends at the same place
    model = StraussModel(window, beta, 1.0, 0.05)
    chained, counted = _block_streams(seed, n_samples), _block_streams(seed, n_samples)
    expected = _strauss_chains(model, steps, chained)[2]
    counts = _birth_death_counts(model, steps, counted)
    assert counts.dtype == expected.dtype and np.array_equal(counts, expected)
    assert [rng.random() for rng, _ in counted] == [rng.random() for rng, _ in chained]
    if beta == 2.0:
        assert (counts == 0).any()


def test_count_chain_needs_gamma_one():
    with pytest.raises(ValueError, match="gamma = 1"):
        _birth_death_counts(StraussModel(UNIT, 30.0, 0.5, 0.05), 900, _block_streams(1, 10))


def test_poisson_counts_are_the_counts_of_the_batch():
    # two blocks: each block's counts are the first draw of its stream
    mean = poisson_mean(UNIT, 30.0)
    counts = _poisson_counts(mean, _block_streams(7, 1500))
    _, _, n = sample_batch(PoissonModel(UNIT, 30.0), 1500, 7)
    assert counts.dtype == n.dtype and np.array_equal(counts, n)


def test_gibbs_count_law_with_all_pairs_interacting():
    # r exceeds the window diameter, so every pair interacts and
    # P(n) is proportional to (beta |W|)^n gamma^(n(n-1)/2) / n!
    beta, gamma = 5.0, 0.5
    model = StraussModel(UNIT, beta, gamma, 1.5)
    counts = np.array([len(c) for c in sample_many(model, 2000, 2024, n_steps=500)])
    weights = np.array(
        [beta**n * gamma ** (n * (n - 1) / 2) / math.factorial(n) for n in range(40)]
    )
    law = weights / weights.sum()
    expected = np.append(law[:4], law[4:].sum()) * counts.size
    observed = np.append(np.bincount(counts, minlength=4)[:4], np.sum(counts >= 4))
    assert stats.chisquare(observed, expected).pvalue >= 1e-3


def close_pair_count(config, radius):
    points = list(config)
    r2 = radius * radius
    count = 0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            dx = points[i][0] - points[j][0]
            dy = points[i][1] - points[j][1]
            if dx * dx + dy * dy <= r2:
                count += 1
    return count


def test_gibbs_gamma_one_matches_poisson_mean_and_pair_counts():
    model = StraussModel(UNIT, 25.0, 1.0, 0.05)
    chain = sample_many(model, 600, 11, n_steps=max(300, default_burn_in(model)))
    direct = sample_many(PoissonModel(UNIT, 25.0), 5000, 12)
    chain_mean, chain_se = count_stats(chain)
    direct_mean, direct_se = count_stats(direct)
    z = (chain_mean - direct_mean) / math.hypot(chain_se, direct_se)
    assert abs(z) <= 4
    chain_pairs = np.array([close_pair_count(c, 0.05) for c in chain], dtype=float)
    direct_pairs = np.array([close_pair_count(c, 0.05) for c in direct], dtype=float)
    pair_z = (chain_pairs.mean() - direct_pairs.mean()) / math.hypot(
        chain_pairs.std(ddof=1) / math.sqrt(chain_pairs.size),
        direct_pairs.std(ddof=1) / math.sqrt(direct_pairs.size),
    )
    assert abs(pair_z) <= 4


def test_strauss_papangelou_and_chat():
    model = StraussModel(UNIT, 10.0, 0.5, 0.2)
    config = frozenset({(0.5, 0.5), (0.58, 0.5)})
    # one point: c(x, omega) = beta gamma^t
    assert compound_papangelou(model, [(0.5, 0.58)], config) == 10.0 * 0.25
    assert compound_papangelou(model, [(0.9, 0.9)], config) == 10.0
    assert compound_papangelou(model, [], config) == 1.0
    # a point at distance exactly r is a neighbour: 0.2 - 0.0 squares to r * r
    assert compound_papangelou(model, [(0.0, 0.0)], {(0.2, 0.0)}) == 5.0
    assert compound_papangelou(model, [(0.0, 0.0)], {(0.2, 0.1)}) == 10.0
    # two points: chat telescopes the sequential product, and the second
    # point counts the first as a neighbour
    assert compound_papangelou(model, ((0.52, 0.5), (0.9, 0.1)), config) == 2.5 * 10.0
    assert compound_papangelou(model, ((0.9, 0.9), (0.9, 0.95)), config) == 10.0 * 5.0
    assert compound_papangelou(model, ((0.0, 0.0), (0.2, 0.0)), frozenset()) == 10.0 * 5.0
    hard_core = StraussModel(UNIT, 10.0, 0.0, 0.2)
    assert compound_papangelou(hard_core, ((0.9, 0.9), (0.9, 0.95)), config) == 0.0
    assert compound_papangelou(PoissonModel(UNIT, 3.0), ((0.5, 0.5), (0.5, 0.5)), config) == 9.0


def test_strauss_model_validation():
    with pytest.raises(ValueError):
        StraussModel(UNIT, 0.0, 0.5, 0.1)
    with pytest.raises(ValueError):
        StraussModel(UNIT, 1.0, 1.5, 0.1)
    with pytest.raises(ValueError):
        StraussModel(UNIT, 1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        PoissonModel(UNIT, 0.0)


def test_estimate_and_z_score_helpers():
    a = Estimate(1.0, 0.1, 100, 1)
    b = Estimate(1.2, 0.1, 100, 2)
    assert z_score(a, b) == pytest.approx(-0.2 / math.hypot(0.1, 0.1))
    assert z_score(Estimate(0.0, 0.0, 10, 1), Estimate(0.0, 0.0, 10, 2)) == 0.0


def test_a_zero_standard_error_gates_only_an_estimate_on_target():
    assert z_value(1.5, 1.0, 0.25) == 2.0
    assert z_value(2.0, 2.0, 0.0) == 0.0
    # with se 0 any gap would read z = 0 and pass every gate
    with pytest.raises(ValueError, match=r"estimate 0\.0 against target 1e-300$"):
        z_value(0.0, 1e-300, 0.0)
    with pytest.raises(ValueError, match="estimate 3.0 against target 2.5"):
        z_score(Estimate(3.0, 0.0, 10, 1), Estimate(2.5, 0.0, 10, 2))


def test_gnz_estimates_poisson_unit_kernel():
    model = PoissonModel(UNIT, 3.0)
    lhs, rhs = estimate_gnz(model, lambda x, y, count: 1.0, 20_000, 21)
    assert abs(lhs.mean - 3.0) <= 4 * lhs.std_error
    assert abs(z_score(lhs, rhs)) <= 4


def test_gnz_estimates_strauss_within_error():
    model = StraussModel(UNIT, 20.0, 0.5, 0.05)
    kernels = [
        lambda x, y, count: 1.0,
        lambda x, y, count: x + y,
        lambda x, y, count: count,
    ]
    pairs = gnz_estimates(model, kernels, 700, 22, n_steps=600)
    for lhs, rhs in pairs:
        assert abs(z_score(lhs, rhs)) <= 4


def test_gnz_deterministic_given_seed():
    model = PoissonModel(UNIT, 2.0)
    first = estimate_gnz(model, lambda x, y, count: x, 500, 5)
    second = estimate_gnz(model, lambda x, y, count: x, 500, 5)
    assert first == second


def test_factorial_identity_estimator_poisson_closed_form():
    model = PoissonModel(UNIT, 3.0)
    region = lambda x, y, count: True
    lhs, rhs = estimate_factorial_identity(model, lambda count: 1.0, region, 2, 20_000, 31)
    assert abs(lhs.mean - 9.0) <= 4 * lhs.std_error
    # the rhs integrand is constant for the Poisson model: exactly 9
    assert rhs.mean == pytest.approx(9.0, rel=1e-12)
    assert abs(z_score(lhs, rhs)) <= 4


def test_factorial_identity_estimator_zero_functional():
    model = PoissonModel(UNIT, 1.0)
    lhs, rhs = estimate_factorial_identity(
        model, lambda count: 0.0, lambda x, y, count: True, 2, 200, 3
    )
    assert lhs.mean == 0.0 and lhs.std_error == 0.0
    assert rhs.mean == 0.0 and rhs.std_error == 0.0


def test_factorial_identity_estimator_strauss():
    model = StraussModel(UNIT, 12.0, 0.5, 0.08)
    region = lambda x, y, count: x <= 0.5
    functional = lambda count: 1.0 + 0.1 * count
    lhs, rhs = estimate_factorial_identity(
        model, functional, region, 2, 2500, 33, n_steps=600
    )
    assert abs(z_score(lhs, rhs)) <= 4


def test_factorial_identity_order_guard():
    with pytest.raises(ValueError):
        estimate_factorial_identity(
            PoissonModel(UNIT, 1.0), lambda count: 1.0, lambda x, y, count: True, 4, 10, 0
        )


def test_partition_moment_estimator_order_one_is_campbell_mean():
    model = PoissonModel(UNIT, 3.0)
    kernel = lambda x, y, count: x
    lhs, rhs = estimate_partition_moment(model, kernel, 1, 20_000, 41)
    # E[sum u] = intensity * integral of x over the window = 1.5
    assert abs(lhs.mean - 1.5) <= 4 * lhs.std_error
    assert abs(z_score(lhs, rhs)) <= 4


def test_partition_moment_estimator_poisson_closed_form():
    # deterministic u = 1: E[N^2] = lam + lam^2 = 12 at lam = 3
    model = PoissonModel(UNIT, 3.0)
    lhs, rhs = estimate_partition_moment(model, lambda x, y, count: 1.0, 2, 20_000, 43)
    assert abs(lhs.mean - 12.0) <= 4 * lhs.std_error
    assert abs(rhs.mean - 12.0) <= 4 * rhs.std_error if rhs.std_error else rhs.mean == pytest.approx(12.0)
    assert abs(z_score(lhs, rhs)) <= 4


def test_partition_moment_estimator_strauss():
    model = StraussModel(UNIT, 12.0, 0.5, 0.08)
    kernel = lambda x, y, count: 1.0 + y - 0.05 * count
    lhs, rhs = estimate_partition_moment(model, kernel, 2, 2500, 45, n_steps=600)
    assert abs(z_score(lhs, rhs)) <= 4


def test_process_from_config():
    poisson = process_from_config(
        {
            "process": "poisson",
            "window": {"x_min": 0, "x_max": 2, "y_min": 0, "y_max": 1},
            "intensity": 1.5,
        }
    )
    assert isinstance(poisson, PoissonModel)
    assert poisson.window.area == pytest.approx(2.0)
    strauss = process_from_config(
        {
            "process": "strauss",
            "window": {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1},
            "beta": 10.0,
            "gamma": 0.5,
            "r": 0.1,
        }
    )
    assert isinstance(strauss, StraussModel)
    with pytest.raises(ValueError):
        process_from_config({"process": "unknown", "window": {}})
    with pytest.raises(ValueError):
        process_from_config({"process": "poisson"})


# -- the batch estimators against a scalar reference ---------------------------


def reference_papangelou(model, x, config):
    """c(x, omega) one point at a time, with x's own copy left out of omega."""
    if isinstance(model, PoissonModel):
        return model.intensity
    r2 = model.r * model.r
    t = 0
    for q in config - {x}:
        dx = x[0] - q[0]
        dy = x[1] - q[1]
        t += dx * dx + dy * dy <= r2
    return model.beta * model.gamma**t


def reference_chat(model, points, config):
    value = 1.0
    for x in points:
        value *= reference_papangelou(model, x, config)
        if value == 0.0:
            return 0.0
        config = config | {x}
    return value


def reference_sides(model, n_samples, seed, n_steps):
    """Per estimator side, its seed and its (frozenset, extras) replicates,
    each block stream read in its documented layout by one call per
    replicate: the block's Poisson counts and then each replicate's points
    in turn, or reference_block's chains; then the right-side points.
    extras(e) is a replicate's right-side points when each replicate of its
    side draws e of them."""
    sides = []
    for side_seed in _side_seeds(seed):
        side = []
        for rng, size in _block_streams(side_seed, n_samples):
            if isinstance(model, PoissonModel):
                counts = rng.poisson(model.intensity * model.window.area, size)
                configs = [frozenset(reference_draws(model, rng, count)) for count in counts]
            else:
                configs = reference_block(model, n_steps, rng, size)
            for k, config in enumerate(configs):
                side.append((config, lambda e, rng=rng, k=k: reference_extras(model, rng, k, e)))
        sides.append((side_seed, side))
    return sides


def reference_draws(model, rng, count):
    return [(float(x), float(y)) for x, y in model.window.sample_points(rng, count)]


def reference_extras(model, rng, k, extra):
    """Replicate k's extra right-side points, read from a copy of its block
    stream after the configurations, past the points of the k replicates
    before it."""
    rng = copy.deepcopy(rng)
    reference_draws(model, rng, k * extra)
    return reference_draws(model, rng, extra)


def reference_estimate(values, seed):
    return Estimate(*mean_and_se(values), len(values), seed)


def reference_gnz(model, kernel, sides):
    (lhs_seed, lhs), (rhs_seed, rhs) = sides
    lhs_values = []
    for config, _ in lhs:
        total = 0.0
        for x in config:
            total += kernel(*x, len(config))
        lhs_values.append(total)
    rhs_values = []
    for config, extras in rhs:
        (x,) = extras(1)
        c = reference_papangelou(model, x, config)
        rhs_values.append(model.window.area * c * kernel(*x, len(config) + 1))
    return reference_estimate(lhs_values, lhs_seed), reference_estimate(rhs_values, rhs_seed)


def reference_factorial(model, functional, region, n, sides):
    (lhs_seed, lhs), (rhs_seed, rhs) = sides
    area = model.window.area
    lhs_values = []
    for config, _ in lhs:
        count = sum(1 for x in config if region(*x, len(config)))
        lhs_values.append(functional(len(config)) * math.perm(count, n))
    rhs_values = []
    for config, extras in rhs:
        draws = extras(n)
        chat = reference_chat(model, draws, config)
        augmented = len(config) + n
        value = functional(augmented)
        if chat == 0.0 or not all(region(*x, augmented) for x in draws):
            value = 0.0
        rhs_values.append(area**n * chat * value)
    return reference_estimate(lhs_values, lhs_seed), reference_estimate(rhs_values, rhs_seed)


def reference_partition(model, kernel, n, sides):
    (lhs_seed, lhs), (rhs_seed, rhs) = sides
    area = model.window.area
    lhs_values = []
    for config, _ in lhs:
        total = 0.0
        for x in config:
            total += kernel(*x, len(config))
        lhs_values.append(total**n)
    rhs_values = []
    parts = [part.block_sizes() for part in partitions(n)]
    for config, extras in rhs:
        points = iter(extras(sum(len(sizes) for sizes in parts)))
        replicate_total = 0.0
        for sizes in parts:
            draws = [next(points) for _ in sizes]
            chat = reference_chat(model, draws, config)
            if chat == 0.0:
                continue
            product = 1.0
            for x, exponent in zip(draws, sizes):
                product *= kernel(*x, len(config) + len(sizes)) ** exponent
            replicate_total += area ** len(sizes) * chat * product
        rhs_values.append(replicate_total)
    return reference_estimate(lhs_values, lhs_seed), reference_estimate(rhs_values, rhs_seed)


def finite_points(integrand):
    """integrand, asserting that it only ever sees the coordinates of points."""

    def checked(x, y, count):
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))
        return integrand(x, y, count)

    return checked


REFERENCE_MODELS = [
    (PoissonModel(UNIT, 3.0), 300),
    (StraussModel(UNIT, 12.0, 0.5, 0.08), 30),
    (StraussModel(UNIT, 12.0, 0.0, 0.08), 30),
]


def assert_sides_match(batch, reference):
    (lhs, rhs), (ref_lhs, ref_rhs) = batch, reference
    assert rhs == ref_rhs
    assert lhs.n_samples == ref_lhs.n_samples and lhs.seed == ref_lhs.seed
    assert lhs.mean == pytest.approx(ref_lhs.mean, rel=1e-12, abs=0.0)
    assert lhs.std_error == pytest.approx(ref_lhs.std_error, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("model,n_samples", REFERENCE_MODELS, ids=["poisson", "strauss", "hard-core"])
@pytest.mark.parametrize("seed", [3, 2027])
def test_batch_estimators_match_the_scalar_reference(model, n_samples, seed, monkeypatch):
    # the sides in one block stream each, then in three
    for blocks in (1, 3):
        monkeypatch.setattr(montecarlo, "BLOCK_REPLICATES", -(-n_samples // blocks))
        check_batch_estimators(model, n_samples, seed)


def check_batch_estimators(model, n_samples, seed):
    steps = default_burn_in(model) if isinstance(model, StraussModel) else None
    kernel = lambda x, y, count: 1.0 + y - 0.05 * count
    linear = lambda x, y, count: x * count
    constant = lambda x, y, count: 1.0
    region = lambda x, y, count: x <= 0.5
    functional = lambda count: 1.0 + 0.1 * count
    sides = reference_sides(model, n_samples, seed, steps)
    with np.errstate(all="raise"):
        pairs = gnz_estimates(
            model, [finite_points(kernel), finite_points(linear), finite_points(constant)],
            n_samples, seed, steps,
        )
        for u, pair in zip((kernel, linear, constant), pairs):
            assert_sides_match(pair, reference_gnz(model, u, sides))
        for n in (2, 3):
            assert_sides_match(
                estimate_factorial_identity(
                    model, functional, finite_points(region), n, n_samples, seed, steps
                ),
                reference_factorial(model, functional, region, n, sides),
            )
            assert_sides_match(
                estimate_partition_moment(model, finite_points(kernel), n, n_samples, seed, steps),
                reference_partition(model, kernel, n, sides),
            )
