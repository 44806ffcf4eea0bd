"""The exact engine's blocks shared with forked children: the same sums for
every process count, the serial loop's exception, no child left behind."""

import os

import numpy as np
import pytest

from ppmoments import finite_model
from ppmoments.finite_model import FiniteModel, GroundSpace, pairwise_log_density
from ppmoments.instances import _by_parity


@pytest.fixture
def processes(monkeypatch):
    """Set the process count that the block map reads."""

    def use(count):
        monkeypatch.setattr(finite_model, "_process_count", lambda: count)

    return use


@pytest.fixture
def forks(monkeypatch):
    """A list that grows by one entry per os.fork call of this process."""
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
def test_sums_are_equal_for_every_process_count(processes, forks, capfd, m, gamma, pairs, blocks):
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
    results = []
    for count in (1, 2, 3):
        processes(count)
        before = len(forks)
        results.append((model.gnz_residuals([scalar, array]), model.expectation(functional)))
        # one child per further process, at most one per further block,
        # for each of the two calls
        assert len(forks) - before == 2 * (min(count, blocks) - 1)
        assert_no_children()
    assert results[0] == results[1] == results[2]
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


def test_a_block_of_a_child_that_dies_is_computed_here(processes, capfd):
    processes(2)
    parent = os.getpid()

    def first_mask(block):
        if os.getpid() != parent:
            os._exit(3)
        return int(block[0])

    masks = np.arange(1 << 16)
    assert finite_model._map_blocks(first_mask, masks) == [0, 1 << 14, 2 << 14, 3 << 14]
    assert_no_children()
    assert capfd.readouterr() == ("", "")


def test_blocks_of_a_child_that_cannot_be_forked_are_computed_here(processes, monkeypatch):
    def failing_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    processes(3)
    monkeypatch.setattr(os, "fork", failing_fork)
    masks = np.arange(1 << 16)
    assert finite_model._map_blocks(lambda block: int(block[0]), masks) == [
        0, 1 << 14, 2 << 14, 3 << 14,
    ]
    assert_no_children()


def test_a_nested_map_inside_a_child_runs_serially(processes, capfd):
    processes(2)
    masks = np.arange(1 << 15)

    def pids(block):
        inner = finite_model._map_blocks(lambda _: os.getpid(), masks)
        return os.getpid(), inner

    (parent, _), (child, inner) = finite_model._map_blocks(pids, masks)
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
    monkeypatch.delattr(os, "fork")
    processes(2)
    assert model.gnz_residual(kernel) == shared
    assert len(forks) == 1
    assert_no_children()
