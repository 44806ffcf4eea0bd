"""The exact engine's blocks, the side groups of a large Strauss draw, and
the items of any map, shared with forked children: the same sums, chains and
estimates for every process count, the serial loop's results and exception,
no child left behind, and no fork outside parallel."""

import ast
import io
import math
import os
from pathlib import Path

import numpy as np
import pytest

from ppmoments import cli, finite_model, identities, montecarlo, parallel
from ppmoments.finite_model import FiniteModel, GroundSpace, pairwise_log_density
from ppmoments.identities import factorial_moment_identity
from ppmoments.instances import _by_parity
from ppmoments.montecarlo import (
    PoissonModel,
    StraussModel,
    Window,
    default_burn_in,
    estimate_factorial_identity,
    estimate_gnz,
)

from conftest import assert_no_children


def _model(m, gamma, pairs, seed=29):
    rng = np.random.default_rng(seed)
    weights = tuple(float(w) for w in rng.uniform(0.1, 2.0, m))
    return FiniteModel(GroundSpace(weights), pairwise_log_density(gamma, pairs)), rng


def _block_count(model):
    return -(-len(model.support) // (1 << 14))


@pytest.mark.parametrize(
    "m,gamma,pairs,blocks",
    [
        (15, 0.5, [(0, 1), (2, 7), (3, 14), (9, 12)], 2),
        (15, 0.0, [(0, 1)], 2),
        (15, 0.0, [(0, 1), (1, 5), (4, 9)], 1),
        (17, 0.5, [(0, 1), (2, 7), (3, 16), (9, 12)], 8),
    ],
    ids=["pairwise-full-support", "hard-core-two-blocks", "hard-core-one-block", "m17-eight-blocks"],
)
def test_sums_are_equal_for_every_process_count(
    processes, forks, capfd, monkeypatch, m, gamma, pairs, blocks
):
    model, rng = _model(m, gamma, pairs)
    assert _block_count(model) == blocks
    site_term = [float(v) for v in rng.uniform(-1, 1, m)]
    scalar = lambda x, cfg: site_term[x] * (1.0 + 0.1 * len(cfg))
    array = _by_parity(
        [float(v) for v in rng.uniform(-1, 1, m)],
        [float(v) for v in rng.uniform(-1, 1, m)],
        frozenset(int(x) for x in rng.choice(m, 5, replace=False)),
    )
    functional = lambda cfg: sum(site_term[x] for x in cfg) - 0.3 * len(cfg) ** 2
    small, _ = _model(11, gamma, [(0, 1), (2, 7), (3, 10)])
    region = lambda x, cfg: (x + len(cfg)) % 3 != 0

    def sums():
        factorial = factorial_moment_identity(small, functional, region, 4)
        return (
            FiniteModel(model.space, model.log_density).partition_constant,
            model.gnz_residuals([scalar, array]),
            model.expectation(functional),
            (factorial.lhs, factorial.rhs),
        )

    results = []
    for count in (1, 2, 3):
        processes(count)
        before = len(forks)
        results.append(sums())
        # one child per further process, at most one per further block,
        # for each of the two calls
        assert len(forks) - before == 2 * (min(count, blocks) - 1)
        assert_no_children()
    assert results[0] == results[1] == results[2]
    # the exact sums equal math.fsum's loop over the values, bit for bit
    fsum_loop = lambda values: math.fsum(memoryview(values.ravel()))
    monkeypatch.setattr(finite_model, "_fsum", fsum_loop)
    monkeypatch.setattr(identities, "_fsum", fsum_loop)
    processes(1)
    assert sums() == results[0]
    assert capfd.readouterr() == ("", "")


def _failing_kernel(failing):
    """A kernel that raises in the blocks of the full support of 15 or 17
    sites listed in failing; sites 14..16 number the blocks."""

    def kernel(x, cfg):
        block = (14 in cfg) + 2 * (15 in cfg) + 4 * (16 in cfg)
        if block in failing:
            raise ValueError(f"kernel fails in block {block}")
        return 1.0 + x

    return kernel


@pytest.mark.parametrize(
    "m,count,failing,first",
    [
        (15, 2, {1}, 1),  # a child's block
        (15, 2, {0}, 0),  # a block of this process
        (15, 2, {0, 1}, 0),
        (17, 3, {2, 3}, 2),  # a child's block before one of this process
        (17, 3, {3, 5}, 3),  # a block of this process before a child's
        (17, 3, {1, 6}, 1),
        (17, 3, {4, 5}, 4),  # blocks of both children
    ],
)
def test_the_lowest_failing_block_raises(processes, capfd, m, count, failing, first):
    model, _ = _model(m, 0.5, [(0, 1), (2, 7)])
    kernel = _failing_kernel(failing)
    processes(1)
    with pytest.raises(ValueError) as serial:
        model.gnz_residual(kernel)
    processes(count)
    with pytest.raises(ValueError) as shared:
        model.gnz_residual(kernel)
    assert_no_children()
    assert type(shared.value) is type(serial.value)
    assert str(shared.value) == str(serial.value) == f"kernel fails in block {first}"
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("count", [1, 2, 3])
def test_a_map_yields_the_results_before_the_lowest_failing_item(processes, capfd, count):
    processes(count)

    def square(item):
        if item in (4, 5):
            raise ValueError(f"item {item} fails")
        return item * item

    results = []
    with pytest.raises(ValueError, match="item 4 fails"):
        for result in parallel._map(square, range(9)):
            results.append(result)
    assert results == [0, 1, 4, 9]
    assert_no_children()
    assert capfd.readouterr() == ("", "")


def test_a_block_of_a_child_that_dies_is_computed_here(processes, capfd):
    processes(2)
    parent = os.getpid()

    def first_mask(block):
        if os.getpid() != parent:
            os._exit(3)
        return int(block[0])

    blocks = list(finite_model._blocks(np.arange(1 << 16)))
    assert list(parallel._map(first_mask, blocks)) == [0, 1 << 14, 2 << 14, 3 << 14]
    assert_no_children()
    assert capfd.readouterr() == ("", "")


def test_blocks_of_a_child_that_cannot_be_forked_are_computed_here(processes, monkeypatch):
    def failing_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    processes(3)
    monkeypatch.setattr(os, "fork", failing_fork)
    blocks = list(finite_model._blocks(np.arange(1 << 16)))
    assert list(parallel._map(lambda block: int(block[0]), blocks)) == [
        0, 1 << 14, 2 << 14, 3 << 14,
    ]
    assert_no_children()


def test_a_nested_map_inside_a_child_runs_serially(processes, capfd):
    processes(2)
    blocks = list(finite_model._blocks(np.arange(1 << 15)))

    def pids(block):
        inner = list(parallel._map(lambda _: os.getpid(), blocks))
        return os.getpid(), inner

    (parent, _), (child, inner) = parallel._map(pids, blocks)
    assert parent == os.getpid() != child
    assert inner == [child, child]
    assert_no_children()
    assert capfd.readouterr() == ("", "")


def test_runs_serially_without_fork_or_with_one_core(processes, forks, monkeypatch):
    model, _ = _model(15, 0.5, [(0, 1)])
    kernel = lambda x, cfg: 1.0 + x * len(cfg)
    processes(2)
    shared = model.gnz_residual(kernel)
    assert len(forks) == 1
    processes(1)
    assert model.gnz_residual(kernel) == shared
    # one item, as in a one-instance exact suite
    processes(3)
    assert list(parallel._map(lambda item: item + 1, [4])) == [5]
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")
    processes(2)
    assert model.gnz_residual(kernel) == shared
    assert len(forks) == 1
    assert_no_children()


UNIT = Window(0.0, 1.0, 0.0, 1.0)


def _used_slots(batch):
    """The coordinates of the points of a batch, row after row, after
    checking that every other slot holds NaN."""
    xs, ys, n = batch
    used = np.arange(xs.shape[1]) < n[:, None]
    assert np.isnan(xs[~used]).all() and np.isnan(ys[~used]).all()
    return xs[used], ys[used]


def _start_width(model, seeds, n_samples):
    """The batch width of the Poisson(beta) starts of the chains of seeds."""
    return max(int(rng.poisson(model.beta, size).max())
               for seed in seeds for rng, size in montecarlo._block_streams(seed, n_samples))


@pytest.mark.parametrize(
    "sides",
    [[(5, (2,))], [(0, ()), (5, (2, 1))], [(0, ()), (5, (2,)), (16, (1, 3))]],
    ids=["one-side", "two-sides", "three-sides"],
)
def test_strauss_side_groups_draw_what_one_process_draws(processes, forks, monkeypatch, sides):
    # blocks of 3 replicates, so each side of 6 is two block streams; at 2
    # processes two sides are cut into (0), (1) and three into (0), (1, 2)
    monkeypatch.setattr(montecarlo, "BLOCK_REPLICATES", 3)
    monkeypatch.setattr(montecarlo, "_SPLIT_MIN", 0)
    model = StraussModel(UNIT, 60.0, 0.5, 0.05)
    steps = default_burn_in(model)
    draws = []
    for count in (1, 2, 3):
        processes(count)
        before = len(forks)
        draws.append(montecarlo._draw_sides(model, sides, 6, steps))
        assert len(forks) - before == min(count, len(sides)) - 1
        assert_no_children()
    if len(sides) > 1:
        # at 2 processes the first group's chains outgrow the capacity of
        # their start and the last group's do not, so the groups' batches
        # differ in width
        groups = (sides[:len(sides) // 2], sides[len(sides) // 2:])
        widths = [draws[1][0][0][0].shape[1], draws[1][-1][0][0].shape[1]]
        starts = [_start_width(model, [seed for seed, _ in group], 6) for group in groups]
        assert [width > start for width, start in zip(widths, starts)] == [True, False]
    for drawn in draws[1:]:
        assert len(drawn) == len(sides)
        for (batch, points), (expected, expected_points) in zip(drawn, draws[0]):
            assert np.array_equal(batch[2], expected[2])
            for got, want in zip(_used_slots(batch), _used_slots(expected)):
                assert np.array_equal(got, want)
            assert len(points) == len(expected_points)
            for got, want in zip(points, expected_points):
                assert np.array_equal(got, want)
    # a Poisson draw never splits
    before = len(forks)
    montecarlo._draw_sides(PoissonModel(UNIT, 5.0), sides, 6, None)
    assert len(forks) == before
    assert_no_children()


def test_strauss_estimates_are_equal_for_every_process_count(processes, monkeypatch):
    monkeypatch.setattr(montecarlo, "BLOCK_REPLICATES", 3)
    monkeypatch.setattr(montecarlo, "_SPLIT_MIN", 0)
    model = StraussModel(UNIT, 60.0, 0.5, 0.05)
    steps = default_burn_in(model)
    kernel = lambda x, y, count: 1.0 + x * count
    functional = lambda count: 1.0 + 0.1 * count
    region = lambda x, y, count: x <= 0.5
    records = []
    for count in (1, 2, 3):
        processes(count)
        records.append((estimate_gnz(model, kernel, 6, 11, steps),
                        estimate_factorial_identity(model, functional, region, 2, 6, 11, steps)))
    assert records[0] == records[1] == records[2]
    assert_no_children()


def test_grouped_mc_identity_records_are_equal_for_every_process_count(
    processes, forks, monkeypatch
):
    # two seed groups on one model, the first of three experiments, draw 4
    # sides in one call: at 2 processes the split cuts between the groups,
    # at 3 also between the first group's left and right sides
    monkeypatch.setattr(montecarlo, "BLOCK_REPLICATES", 3)
    strauss = {"process": "strauss", "window": {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1},
               "beta": 60.0, "gamma": 0.5, "r": 0.05, "n_samples": 7}
    experiments = [{**strauss, "identity": "factorial", "n": 2},
                   {**strauss, "identity": "partition", "n": 3},
                   {**strauss, "identity": "gnz", "seed": 5},
                   {**strauss, "identity": "factorial", "n": 1}]
    config = cli.SuiteConfig("mc-identity", 13, parameters={"experiments": experiments})
    bodies = []
    for count, split_min in ((1, montecarlo._SPLIT_MIN), (2, 0), (3, 0)):
        processes(count)
        monkeypatch.setattr(montecarlo, "_SPLIT_MIN", split_min)
        stream = io.StringIO()
        before = len(forks)
        # 7 samples are too few for every gate to pass; only equality counts
        status = cli.run_suite(config, stream)
        bodies.append((status, stream.getvalue().splitlines()[1:]))
        assert len(forks) - before == count - 1
    assert bodies[0] == bodies[1] == bodies[2]
    assert len(bodies[0][1]) == len(experiments) + 1
    assert_no_children()


def test_strauss_draws_of_the_mc_strauss_benchmark_make_no_fork(processes, forks):
    processes(2)
    strauss = {"process": "strauss", "window": {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1},
               "beta": 12.0, "gamma": 0.5, "r": 0.08, "n_steps": 600, "n_samples": 150}
    experiments = [{**strauss, "identity": "factorial", "n": 2},
                   {**strauss, "identity": "partition", "n": 2}]
    for config in (cli.SuiteConfig("mc-gibbs", 1, 60),
                   cli.SuiteConfig("mc-identity", 1, parameters={"experiments": experiments})):
        assert cli.run_suite(config, io.StringIO()) == cli.EXIT_PASS
    assert forks == []
    # the default mc-gibbs (2 x 1500 chains, 900 steps) and mc-identity
    # (one seed group of 2 x 2000 chains, 600 steps) draws split
    assert min(2 * 1500 * 900, 2 * 2000 * 600) >= montecarlo._SPLIT_MIN


def _names(tree):
    """Every dotted name, name and imported module or name in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            yield f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_only_parallel_forks():
    """Only parallel.py names os.fork, os._exit, pickle or signal, and
    finite_model defines no map of its own."""
    forbidden = {"os.fork", "os._exit", "pickle", "signal"}
    naming = {}
    for path in sorted(Path(parallel.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in forbidden.intersection(_names(tree)):
            naming.setdefault(name, set()).add(path.name)
        if path.name == "finite_model.py":
            defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            defined |= {
                target.id
                for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)
            }
            assert not defined & {"_map", "_map_blocks", "_process_count", "_in_child"}
    assert naming == dict.fromkeys(forbidden, {"parallel.py"})
