"""CLI behavior: suite execution, exit codes, report format, determinism."""

import dataclasses
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ppmoments import montecarlo, transforms
from ppmoments.combinatorics import falling_factorial
from ppmoments.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_GATE_FAILURE,
    EXIT_PASS,
    EXIT_VALIDATION_ERROR,
    SUITES,
    SuiteConfig,
    main,
    run_suite,
)
from ppmoments import cli
from ppmoments.identities import validate_disjoint
from ppmoments.instances import MAX_INSTANCE_SITES, generate_random_instance

from conftest import assert_no_children


def run_to_lines(suite, seed, instances=None, parameters=None):
    config = SuiteConfig(suite, seed, instances, parameters or {})
    stream = io.StringIO()
    status = run_suite(config, stream)
    lines = stream.getvalue().splitlines()
    return status, lines


def body_of(lines):
    """Everything after the header record."""
    return lines[1:]


def test_every_suite_has_description_and_runs():
    assert set(SUITES) == {
        "exact-gnz",
        "exact-factorial",
        "exact-joint",
        "exact-stirling",
        "exact-partition",
        "exact-independence",
        "stir1",
        "ddd0",
        "mc-poisson",
        "mc-gibbs",
        "mc-identity",
        "transform-invariance",
        "rho-tau",
    }


@pytest.mark.parametrize(
    "suite,instances",
    [
        ("exact-gnz", 4),
        ("exact-factorial", 4),
        ("exact-joint", 4),
        ("exact-stirling", 4),
        ("exact-partition", 4),
        ("exact-independence", 3),
        ("stir1", 2),
        ("ddd0", 4),
    ],
)
def test_exact_suites_pass(suite, instances):
    status, lines = run_to_lines(suite, 17, instances)
    assert status == EXIT_PASS
    header = json.loads(lines[0])
    assert header["record"] == "header"
    assert {"version", "config_hash", "timestamp"} <= set(header)
    summary = json.loads(lines[-1])
    assert summary["record"] == "summary"
    assert summary["passed"] is True
    for line in body_of(lines)[:-1]:
        record = json.loads(line)
        assert record["passed"] is True


@pytest.mark.parametrize("n_max", [None, 40], ids=["default-n-max", "n-max-40"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_independence_records_stop_at_each_region_site_count(seed, n_max):
    # an order above a region's site count reads 0 = 0 and tests nothing
    parameters = {} if n_max is None else {"n_max": n_max}
    instances = 25 if n_max is None else 5
    status, lines = run_to_lines("exact-independence", seed, instances, parameters)
    assert status == EXIT_PASS
    records = [json.loads(line) for line in body_of(lines)[:-1]]
    assert not [r for r in records if r["lhs"] == r["rhs"] == 0.0]
    bounds = {"m_min": 6, "m_max": 8, "n_max": n_max or 3}
    for i in range(instances):
        bundle = generate_random_instance("independence", bounds, montecarlo._child_seed(seed, i))
        sites = [int(table[:, 0].sum())
                 for table in validate_disjoint(bundle["model"], bundle["regions"])]
        orders = [r["parameters"]["orders"] for r in records if r["instance"] == i]
        assert orders == [list(o) for o in itertools.product(*(range(1, k + 1) for k in sites))
                          if sum(o) <= bounds["n_max"]]


def test_mc_poisson_suite_small():
    status, lines = run_to_lines("mc-poisson", 23, 20_000)
    assert status == EXIT_PASS
    records = [json.loads(line) for line in body_of(lines)[:-1]]
    assert [r["order"] for r in records] == [1, 2, 3]
    for r in records:
        assert abs(r["estimate"] - r["target"]) <= 4 * r["se"]


@pytest.mark.parametrize("seed", [1, 17])
def test_mc_poisson_counts_are_the_engines_counts(seed):
    # 2500 replicates read three block streams
    status, lines = run_to_lines("mc-poisson", seed, 2500)
    assert status == EXIT_PASS
    records = [json.loads(line) for line in body_of(lines)[:-1]]
    window = montecarlo.window_from_config(cli.UNIT_WINDOW)
    _, _, counts = montecarlo.sample_batch(montecarlo.PoissonModel(window, 3.0), 2500, seed)
    counts = counts.astype(float)
    for record, order in zip(records, [1, 2, 3], strict=True):
        expected = montecarlo.target_check(falling_factorial(counts, order), 3.0**order)
        assert record["order"] == order
        assert {key: record[key] for key in expected} == expected


def test_an_order_whose_target_overflows_names_orders():
    status, lines = run_to_lines("mc-poisson", 1, 100, {"orders": [1, 700]})
    assert status == EXIT_VALIDATION_ERROR
    records = [json.loads(line) for line in lines]
    assert [r["record"] for r in records] == ["header", "error"]
    assert records[1]["message"].startswith("orders must ")


def test_transform_invariance_suite_small():
    status, lines = run_to_lines(
        "transform-invariance", 29, 500, {"condition_instances": 5}
    )
    assert status == EXIT_PASS
    kinds = {json.loads(line)["record"] for line in body_of(lines)[:-1]}
    assert {"gof", "covariance", "moment", "condition"} <= kinds


def test_rho_tau_suite_small():
    status, lines = run_to_lines("rho-tau", 37, 400, {"grid_size": 2})
    assert status == EXIT_PASS


def test_mc_identity_experiment_file_schema():
    experiments = [
        {
            "process": "poisson",
            "window": {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1},
            "intensity": 2.0,
            "identity": "gnz",
            "n_samples": 3000,
        },
        {
            "process": "poisson",
            "window": {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1},
            "intensity": 2.0,
            "identity": "partition",
            "n": 2,
            "n_samples": 3000,
        },
    ]
    status, lines = run_to_lines("mc-identity", 41, None, {"experiments": experiments})
    assert status == EXIT_PASS
    records = [json.loads(line) for line in body_of(lines)[:-1]]
    assert [r["name"] for r in records] == ["poisson-gnz", "poisson-partition"]
    for record in records:
        assert abs(record["z"]) <= 4.0


def test_mc_identity_experiments_on_one_model_share_one_draw(monkeypatch):
    # the Strauss experiments share (model, n_samples, n_steps) and draw in
    # one lockstep call, the gnz one with its own seed; the Poisson one draws
    # alone. Each record is that of the experiment run on its own.
    strauss = {
        "process": "strauss", "window": {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1},
        "beta": 12.0, "gamma": 0.5, "r": 0.08, "n_steps": 120, "n_samples": 30,
    }
    experiments = [
        {**strauss, "identity": "factorial", "n": 2},
        {**strauss, "identity": "partition", "n": 2},
        {**_POISSON_FACTORIAL, "n_samples": 50},
        {**strauss, "identity": "gnz", "seed": 7},
    ]
    draws = []
    draw_sides = cli._draw_sides

    def counted(model, sides, n_samples, n_steps):
        draws.append(len(sides))
        return draw_sides(model, sides, n_samples, n_steps)

    monkeypatch.setattr(cli, "_draw_sides", counted)
    seed = 23
    status, lines = run_to_lines("mc-identity", seed, None, {"experiments": experiments})
    assert status == EXIT_PASS
    assert draws == [6, 2]
    records = [json.loads(line) for line in body_of(lines)[:-1]]
    for index, (experiment, record) in enumerate(zip(experiments, records)):
        alone = {"seed": cli._child_seed(seed, index), **experiment}
        _, alone_lines = run_to_lines("mc-identity", seed, None, {"experiments": [alone]})
        (expected,) = [json.loads(line) for line in body_of(alone_lines)[:-1]]
        assert [record[key] for key in ("lhs", "rhs", "z")] == [
            expected[key] for key in ("lhs", "rhs", "z")
        ]


def test_determinism_byte_identical_bodies():
    for suite, instances, parameters in (
        ("stir1", 2, None),
        ("exact-gnz", 3, None),
        ("mc-poisson", 31, None),
    ):
        kwargs = {"instances": 2000 if suite == "mc-poisson" else instances}
        _, first = run_to_lines(suite, 99, kwargs["instances"], parameters)
        _, second = run_to_lines(suite, 99, kwargs["instances"], parameters)
        assert body_of(first) == body_of(second)
        h1 = json.loads(first[0])
        h2 = json.loads(second[0])
        h1.pop("timestamp")
        h2.pop("timestamp")
        assert h1 == h2


def test_different_seeds_differ():
    _, first = run_to_lines("exact-gnz", 1, 2)
    _, second = run_to_lines("exact-gnz", 2, 2)
    assert body_of(first) != body_of(second)


_INSTANCE_SUITES = ("exact-gnz", "exact-factorial", "exact-joint", "exact-stirling",
                    "exact-partition", "exact-independence")


def _without_timestamp(lines):
    header = json.loads(lines[0])
    header.pop("timestamp")
    return [header] + lines[1:]


@pytest.mark.parametrize(
    "suite,seed,instances",
    [(suite, seed, None) for suite in _INSTANCE_SUITES for seed in (1, 17)]
    + [("exact-partition", 1, cli._INSTANCE_CHUNK + 3), ("exact-gnz", 1, 1)],
)
def test_exact_suites_are_byte_identical_for_every_process_count(
    processes, forks, suite, seed, instances
):
    reports = []
    for count in (1, 2, 3):
        processes(count)
        before = len(forks)
        status, lines = run_to_lines(suite, seed, instances)
        assert status == EXIT_PASS
        reports.append(_without_timestamp(lines))
        # each chunk of instances forks one child per further process, at
        # most one per further instance of the chunk
        total = 1 + max(json.loads(line).get("instance", -1) for line in lines[1:])
        chunks = range(0, total, cli._INSTANCE_CHUNK)
        assert len(forks) - before == sum(
            min(count, total - start, cli._INSTANCE_CHUNK) - 1 for start in chunks
        )
        assert_no_children()
    assert reports[0] == reports[1] == reports[2]
    if instances is not None:
        assert total == instances


def _failing_instances(monkeypatch, seed, failing):
    """Make generate_random_instance raise at the instances listed in failing."""
    generate = cli.generate_random_instance
    seeds = {montecarlo._child_seed(seed, i): i for i in failing}

    def instance(kind, bounds, child_seed):
        if child_seed in seeds:
            raise ValueError(f"instance {seeds[child_seed]} fails")
        return generate(kind, bounds, child_seed)

    monkeypatch.setattr(cli, "generate_random_instance", instance)


@pytest.mark.parametrize(
    "failing,first",
    # with 2 or 3 processes, instance 6 is one of this process and 5 and 7
    # are children's
    [({5, 6}, 5), ({6, 7}, 6)],
    ids=["child-instance-first", "own-instance-first"],
)
def test_an_instance_error_ends_the_report_where_the_serial_run_does(
    processes, monkeypatch, capfd, failing, first
):
    _failing_instances(monkeypatch, 1, failing)
    argv = ["run", "--suite", "exact-gnz", "--seed", "1", "--instances", "12"]
    reports = []
    for count in (1, 2, 3):
        processes(count)
        assert main(argv) == EXIT_VALIDATION_ERROR
        assert_no_children()
        out, err = capfd.readouterr()
        assert err == ""
        reports.append(_without_timestamp(out.splitlines()))
    assert reports[0] == reports[1] == reports[2]
    records = [json.loads(line) for line in reports[0][1:]]
    assert records[-1] == {"record": "error", "message": f"instance {first} fails"}
    assert sorted({r["instance"] for r in records[:-1]}) == list(range(first))


@pytest.mark.parametrize(
    "suite,seed,instances",
    [(suite, seed, instances) for suite in ("transform-invariance", "rho-tau")
     for seed in (1, 17) for instances in (100, 33)]
    # one full block of replicates, and three blocks, the last of one row
    + [(suite, 1, instances) for suite in ("transform-invariance", "rho-tau")
       for instances in (transforms._BLOCK, 2 * transforms._BLOCK + 1)],
)
def test_transform_suites_are_byte_identical_for_every_process_count(
    processes, forks, suite, seed, instances
):
    reports = []
    for count in (1, 2, 3):
        processes(count)
        before = len(forks)
        status, lines = run_to_lines(suite, seed, instances)
        reports.append((status, _without_timestamp(lines)))
        # the suite's one _transformed_counts call forks one child per
        # further process, at most one per further block of replicates
        blocks = -(-instances // transforms._BLOCK)
        assert len(forks) - before == min(count, blocks) - 1
        assert_no_children()
    assert reports[0][0] in (EXIT_PASS, EXIT_GATE_FAILURE)
    assert reports[0] == reports[1] == reports[2]


def _failing_blocks(monkeypatch, processes, suite, failing):
    """Make transforms._tau raise at the blocks of replicates listed in
    failing, which a serial run tells apart by their points."""
    # 130 replicates in 5 blocks of 32
    monkeypatch.setattr(transforms, "_BLOCK", 32)
    tau = transforms._tau
    keys = []

    def recording(offset, xs, ys, x, y):
        keys.append(xs.tobytes())
        return tau(offset, xs, ys, x, y)

    processes(1)
    monkeypatch.setattr(transforms, "_tau", recording)
    run_to_lines(suite, 1, 130)
    blocks = {keys[block]: block for block in failing}

    def failing_tau(offset, xs, ys, x, y):
        block = blocks.get(xs.tobytes())
        if block is not None:
            raise ValueError(f"block {block} fails")
        return tau(offset, xs, ys, x, y)

    monkeypatch.setattr(transforms, "_tau", failing_tau)


@pytest.mark.parametrize("suite", ["transform-invariance", "rho-tau"])
@pytest.mark.parametrize(
    "failing,first",
    # with 2 processes, blocks 0 and 2 are this process's and 1 and 3 a
    # child's; with 3, blocks 1 and 2 are children's and 3 this process's
    [({1, 2}, 1), ({2, 3}, 2)],
    ids=["child-block-first", "own-block-first"],
)
def test_a_block_error_ends_the_transform_report_as_the_serial_run_does(
    processes, monkeypatch, capfd, suite, failing, first
):
    _failing_blocks(monkeypatch, processes, suite, failing)
    argv = ["run", "--suite", suite, "--seed", "1", "--instances", "130"]
    reports = []
    for count in (1, 2, 3):
        processes(count)
        assert main(argv) == EXIT_VALIDATION_ERROR
        assert_no_children()
        out, err = capfd.readouterr()
        assert err == ""
        reports.append(_without_timestamp(out.splitlines()))
    assert reports[0] == reports[1] == reports[2]
    # the header, then the error: no record comes before the counts
    assert [json.loads(line) for line in reports[0][1:]] == [
        {"record": "error", "message": f"block {first} fails"}
    ]


@pytest.mark.parametrize("failing", [5, 21], ids=["first-chunk", "second-chunk"])
def test_a_condition_error_mid_chunk_ends_the_report_at_its_instance(monkeypatch, failing):
    # a _tau that raises on any block holding the sample of one condition
    # instance, found by a point of it, fails that instance's chunk; the
    # chunk is checked again one instance at a time
    parameters = {"condition_instances": 40}
    samples = []
    draw = cli.sample_poisson

    def recording(*args):
        samples.append(draw(*args))
        return samples[-1]

    monkeypatch.setattr(cli, "sample_poisson", recording)
    status, expected = run_to_lines("transform-invariance", 1, 200, parameters)
    assert status == EXIT_PASS and len(samples) == 40
    marker = min(samples[failing])
    tau = transforms._tau

    def failing_tau(offset, xs, ys, x, y):
        if ((xs == marker[0]) & (ys == marker[1])).any():
            raise ValueError(f"instance {failing} fails")
        return tau(offset, xs, ys, x, y)

    monkeypatch.setattr(transforms, "_tau", failing_tau)
    status, lines = run_to_lines("transform-invariance", 1, 200, parameters)
    assert status == EXIT_VALIDATION_ERROR
    records = [json.loads(line) for line in expected]
    cut = next(i for i, record in enumerate(records)
               if record["record"] == "condition" and record["instance"] == failing)
    assert _without_timestamp(lines[:-1]) == _without_timestamp(expected[:cut])
    assert json.loads(lines[-1]) == {"record": "error", "message": f"instance {failing} fails"}


def test_a_transform_run_maps_one_block_per_chunk_of_conditions(monkeypatch, processes):
    # the condition checks of a run with default parameters share their
    # _tau calls: one per chunk of instances, not one per instance
    processes(1)
    calls = []
    tau = transforms._tau

    def counting(offset, xs, ys, x, y):
        calls.append(len(xs))
        return tau(offset, xs, ys, x, y)

    monkeypatch.setattr(transforms, "_tau", counting)
    assert run_to_lines("transform-invariance", 1, 300)[0] == EXIT_PASS
    blocks = -(-300 // transforms._BLOCK)
    chunks = -(-20 // transforms._CONDITION_CHUNK)
    assert len(calls) <= blocks + chunks < blocks + 20


def test_suite_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig.from_dict({"suite": "unknown", "seed": 1})
    with pytest.raises(ValueError):
        SuiteConfig.from_dict({"suite": "exact-gnz"})
    with pytest.raises(ValueError):
        SuiteConfig.from_dict({"seed": 3})
    config = SuiteConfig.from_dict(
        {"suite": "stir1", "seed": 3, "instance_count": 5, "parameters": {"n_max": 2}}
    )
    assert config.parameters == {"n_max": 2}


def test_main_run_with_config_file(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"suite": "stir1", "seed": 7, "instance_count": 2})
    )
    out = tmp_path / "report.jsonl"
    status = main(["run", "--config", str(path), "--out", str(out)])
    assert status == EXIT_PASS
    lines = out.read_text().splitlines()
    assert json.loads(lines[0])["record"] == "header"
    assert json.loads(lines[-1])["passed"] is True


def test_main_seed_override(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"suite": "stir1", "seed": 7, "instance_count": 2}))
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    assert main(["run", "--config", str(path), "--out", str(out_a)]) == EXIT_PASS
    assert (
        main(["run", "--config", str(path), "--seed", "8", "--out", str(out_b)])
        == EXIT_PASS
    )
    assert out_a.read_text().splitlines()[1:] != out_b.read_text().splitlines()[1:]


def test_main_malformed_config_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG_ERROR
    path.write_text(json.dumps([1, 2, 3]))
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG_ERROR
    capsys.readouterr()
    # an --out path that cannot be opened: a missing directory, a directory
    for out in (tmp_path / "missing" / "r.jsonl", tmp_path):
        run = ["run", "--suite", "exact-gnz", "--seed", "1", "--out", str(out)]
        assert main(run) == EXIT_CONFIG_ERROR
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err.startswith("cannot write report: ") and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_main_unknown_suite_is_exit_3():
    assert main(["run", "--suite", "nope", "--seed", "1"]) == EXIT_VALIDATION_ERROR


def test_main_missing_seed_is_exit_3():
    assert main(["run", "--suite", "stir1"]) == EXIT_VALIDATION_ERROR


_ONE_SAMPLE_EXPERIMENT = {
    "process": "poisson",
    "window": {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1},
    "intensity": 2.0,
    "n_samples": 1,
}
_TWO_SAMPLE_EXPERIMENT = {**_ONE_SAMPLE_EXPERIMENT, "n_samples": 2}
_STRAUSS_EXPERIMENT = {
    "process": "strauss",
    "window": _ONE_SAMPLE_EXPERIMENT["window"],
    "beta": 5.0,
    "gamma": 0.5,
    "r": 0.1,
    "n_samples": 2,
}

# (suite, parameter, value) of a bound or count outside its range
_OUT_OF_RANGE = [
    ("stir1", "n_max", 6),
    ("stir1", "n_max", 0),
    ("stir1", "m_max", 5),
    ("stir1", "m_max", 0),
    ("stir1", "p_max", 4),
    ("stir1", "p_max", 0),
    ("exact-gnz", "kernels", 0),
    ("exact-factorial", "n_max", 0),
    ("exact-partition", "n_max", 0),
    ("exact-stirling", "n_max", 0),
    ("exact-joint", "n_max", 0),
    ("ddd0", "l_max", 0),
    ("ddd0", "l_max", 9),
    ("ddd0", "lemma_count", -3),
    ("transform-invariance", "condition_instances", -1),
    # the rho-tau grid: its pair records grow as grid_size^4
    ("rho-tau", "grid_size", 0),
    ("rho-tau", "grid_size", transforms.MAX_GRID_SIZE + 1),
    # a Poisson intensity that is not positive
    ("mc-poisson", "intensity", 0),
    ("mc-poisson", "intensity", -1),
    ("transform-invariance", "intensity", 0),
    ("rho-tau", "intensity", 0),
    # orders above identities.MAX_IDENTITY_ORDER; a joint instance draws
    # two orders of at least 1
    ("exact-factorial", "n_max", 5),
    ("exact-stirling", "n_max", 5),
    ("exact-partition", "n_max", 6),
    ("exact-joint", "n_max", 1),
    ("exact-joint", "n_max", 5),
    # site bounds below the suite's m_min or above the instance generator's
    ("exact-gnz", "m_max", 2),
    ("exact-joint", "m_max", 3),
    ("exact-independence", "m_max", 5),
    ("ddd0", "m_max", 2),
    *[(suite, "m_max", MAX_INSTANCE_SITES + 1)
      for suite in ("exact-gnz", "exact-factorial", "exact-joint", "exact-stirling",
                    "exact-partition", "exact-independence", "ddd0")],
]
_OUT_OF_RANGE_IDS = [
    f"{suite}-{name}-{value}".replace("_", "-") for suite, name, value in _OUT_OF_RANGE
]
# (suite, parameter, value) of a value that must not stand for the default:
# a model_file that is no path string, which open() would take for a file
# descriptor (0 is stdin, 1 stdout), and a window that is falsy but not null
_NOT_THE_DEFAULT = [
    *[("exact-gnz", "model_file", value) for value in (0, 1, True, 2.5, [])],
    *[(suite, "window", value)
      for suite in ("mc-poisson", "mc-identity", "transform-invariance", "rho-tau")
      for value in ({}, 0, False, [], "")],
]
_NOT_THE_DEFAULT_IDS = [
    f"{suite}-{name}-{json.dumps(value)}".replace("_", "-")
    for suite, name, value in _NOT_THE_DEFAULT
]
# every parameter of the registry, each of which must reject a malformed value
# before the first record: a parameter that is declared but never read would
# accept it silently
_DECLARED = [(suite, name) for suite in SUITES for name in SUITES[suite].parameters]


@pytest.mark.parametrize(
    "argv,config,records",
    [
        # rejected before the header: bad counts, seeds and keys
        (["--suite", "exact-gnz", "--seed", "1", "--instances", "0"], None, []),
        (["--suite", "exact-gnz", "--seed", "1", "--instances", "-3"], None, []),
        (["--suite", "mc-poisson", "--seed", "1", "--instances", "-3"], None, []),
        (["--suite", "stir1", "--seed", "-1"], None, []),
        ([], {"suite": "stir1", "seed": 1, "instances": 2}, []),
        ([], {"suite": "exact-gnz", "seed": 1, "parameters": {"m-max": 6}}, []),
        ([], {"suite": "exact-independence", "seed": 1,
              "parameters": {"model_file": "model.json"}}, []),
        ([], {"suite": "stir1", "seed": 1, "parameters": {"model_file": "model.json"}}, []),
        ([], {"suite": "mc-poisson", "seed": 1,
              "parameters": {"model_file": "model.json"}}, []),
        # one sample has no standard error: an error record, never a NaN
        # standard error that passes the gate
        (["--suite", "mc-poisson", "--seed", "1", "--instances", "1"], None,
         ["header", "error"]),
        ([], {"suite": "mc-identity", "seed": 1,
              "parameters": {"experiments": [_ONE_SAMPLE_EXPERIMENT]}},
         ["header", "error"]),
        # an experiment list replaces the parameters of the default experiments
        ([], {"suite": "mc-identity", "seed": 1,
              "parameters": {"experiments": [_ONE_SAMPLE_EXPERIMENT], "beta": 1000}}, []),
        ([], {"suite": "mc-identity", "seed": 1, "instance_count": 5,
              "parameters": {"experiments": [_ONE_SAMPLE_EXPERIMENT]}}, []),
        ([], {"suite": "mc-poisson", "seed": 1, "parameters": []}, []),
        # malformed parameter values
        ([], {"suite": "mc-poisson", "seed": 1, "parameters": {"window": {"x_min": 0}}},
         ["header", "error"]),
        ([], {"suite": "mc-poisson", "seed": 1, "parameters": {"window": [0, 1, 0, 1]}},
         ["header", "error"]),
        ([], {"suite": "transform-invariance", "seed": 1,
              "parameters": {"regions": [{"type": "box", "x_min": 0, "x_max": 0.5,
                                          "y_min": 0}]}},
         ["header", "error"]),
        ([], {"suite": "transform-invariance", "seed": 1,
              "parameters": {"regions": [{"type": "disk", "cx": 0, "cy": None,
                                          "radius": 0.5}]}},
         ["header", "error"]),
        ([], {"suite": "mc-poisson", "seed": 1, "parameters": {"orders": [2.5]}},
         ["header", "error"]),
        ([], {"suite": "mc-poisson", "seed": 1, "parameters": {"orders": [0]}},
         ["header", "error"]),
        ([], {"suite": "mc-poisson", "seed": 1, "parameters": {"orders": []}},
         ["header", "error"]),
        ([], {"suite": "transform-invariance", "seed": 1, "parameters": {"regions": 5}},
         ["header", "error"]),
        ([], {"suite": "transform-invariance", "seed": 1, "parameters": {"regions": []}},
         ["header", "error"]),
        ([], {"suite": "mc-identity", "seed": 1, "parameters": {"experiments": 5}},
         ["header", "error"]),
        ([], {"suite": "mc-identity", "seed": 1, "parameters": {"experiments": []}},
         ["header", "error"]),
        ([], {"suite": "mc-identity", "seed": 1,
              "parameters": {"experiments": [{**_TWO_SAMPLE_EXPERIMENT, "identity": "bogus"}]}},
         ["header", "error"]),
        # an experiment key that no code reads, and one of another process
        ([], {"suite": "mc-identity", "seed": 1,
              "parameters": {"experiments": [{**_TWO_SAMPLE_EXPERIMENT, "n_sample": 50}]}},
         ["header", "error"]),
        ([], {"suite": "mc-identity", "seed": 1,
              "parameters": {"experiments": [{**_TWO_SAMPLE_EXPERIMENT, "gamma": 0.1,
                                              "n_steps": 5}]}},
         ["header", "error"]),
        ([], {"suite": "mc-identity", "seed": 1,
              "parameters": {"experiments": [{**_TWO_SAMPLE_EXPERIMENT, "n_samples": -5}]}},
         ["header", "error"]),
        # values that are not numbers
        ([], {"suite": "stir1", "seed": [1]}, []),
        ([], {"suite": "stir1", "seed": 1, "instance_count": {"a": 1}}, []),
        ([], {"suite": "exact-gnz", "seed": 1, "parameters": {"m_max": [5]}},
         ["header", "error"]),
        ([], {"suite": "transform-invariance", "seed": 1, "parameters": {"offset": [0.3]}},
         ["header", "error"]),
        ([], {"suite": "mc-identity", "seed": 1,
              "parameters": {"experiments": [{**_TWO_SAMPLE_EXPERIMENT, "n_samples": [50]}]}},
         ["header", "error"]),
        # integers that are not integral, which int() would truncate
        ([], {"suite": "exact-gnz", "seed": 1.9}, []),
        ([], {"suite": "exact-gnz", "seed": 1, "instance_count": 2.5}, []),
        ([], {"suite": "exact-gnz", "seed": 1, "parameters": {"m_max": 5.7}},
         ["header", "error"]),
        ([], {"suite": "mc-identity", "seed": 1,
              "parameters": {"experiments": [{**_TWO_SAMPLE_EXPERIMENT, "n_samples": 50.5}]}},
         ["header", "error"]),
        # booleans and strings are not numbers, though int() and float() read them
        ([], {"suite": "stir1", "seed": True}, []),
        ([], {"suite": "stir1", "seed": "1"}, []),
        ([], {"suite": "stir1", "seed": 1, "instance_count": True}, []),
        ([], {"suite": "mc-poisson", "seed": 1, "parameters": {"intensity": "3"}},
         ["header", "error"]),
        ([], {"suite": "exact-gnz", "seed": 1, "parameters": {"kernels": True}},
         ["header", "error"]),
        ([], {"suite": "mc-poisson", "seed": 1,
              "parameters": {"window": {"x_min": False, "x_max": True,
                                        "y_min": "0", "y_max": "1e0"}}},
         ["header", "error"]),
        ([], {"suite": "mc-identity", "seed": 1,
              "parameters": {"experiments": [{**_TWO_SAMPLE_EXPERIMENT, "intensity": "2"}]}},
         ["header", "error"]),
        ([], {"suite": "transform-invariance", "seed": 1,
              "parameters": {"regions": [{"type": "disk", "cx": 0, "cy": 0,
                                          "radius": "0.5"}]}},
         ["header", "error"]),
        # an integer beyond the float range, which float() cannot convert
        ([], {"suite": "mc-poisson", "seed": 1, "parameters": {"intensity": 10**400}},
         ["header", "error"]),
        # an order whose target (intensity * area)^n is not a finite float
        ([], {"suite": "mc-poisson", "seed": 1, "instance_count": 100,
              "parameters": {"orders": [1, 700]}},
         ["header", "error"]),
        # every parameter is read before the first record
        ([], {"suite": "transform-invariance", "seed": 1, "instance_count": 50,
              "parameters": {"condition_instances": "x"}},
         ["header", "error"]),
        ([], {"suite": "ddd0", "seed": 1, "instance_count": 3,
              "parameters": {"lemma_count": [2]}},
         ["header", "error"]),
        ([], {"suite": "mc-identity", "seed": 1,
              "parameters": {"experiments": [_TWO_SAMPLE_EXPERIMENT,
                                             {**_TWO_SAMPLE_EXPERIMENT, "n_sample": 50}]}},
         ["header", "error"]),
        ([], {"suite": "mc-identity", "seed": 1,
              "parameters": {"experiments": [_TWO_SAMPLE_EXPERIMENT,
                                             {**_TWO_SAMPLE_EXPERIMENT, "n": 4}]}},
         ["header", "error"]),
        ([], {"suite": "mc-identity", "seed": 1,
              "parameters": {"experiments": [_TWO_SAMPLE_EXPERIMENT,
                                             {**_TWO_SAMPLE_EXPERIMENT, "intensity": 1e7}]}},
         ["header", "error"]),
        ([], {"suite": "mc-identity", "seed": 1,
              "parameters": {"experiments": [
                  _TWO_SAMPLE_EXPERIMENT,
                  {**_TWO_SAMPLE_EXPERIMENT, "process": "strauss", "beta": 5.0, "gamma": 0.5,
                   "r": 0.1, "n_steps": 10},
              ]}},
         ["header", "error"]),
        ([], {"suite": "exact-gnz", "seed": 1, "instance_count": 5,
              "parameters": {"model_file": "no-such-model.json"}},
         ["header", "error"]),
        # NaN and the infinities, which Python's json reads, are not finite numbers
        ([], {"suite": "mc-poisson", "seed": 1, "parameters": {"intensity": math.nan}},
         ["header", "error"]),
        ([], {"suite": "mc-poisson", "seed": 1, "parameters": {"intensity": math.inf}},
         ["header", "error"]),
        ([], {"suite": "mc-identity", "seed": 1,
              "parameters": {"experiments": [{**_STRAUSS_EXPERIMENT, "r": math.inf}]}},
         ["header", "error"]),
        ([], {"suite": "mc-identity", "seed": 1,
              "parameters": {"experiments": [{**_STRAUSS_EXPERIMENT, "beta": -math.inf}]}},
         ["header", "error"]),
        # a bound or count outside its range, before any other record
        *[([], {"suite": suite, "seed": 1, "parameters": {name: value}}, ["header", "error"])
          for suite, name, value in _OUT_OF_RANGE],
        *[([], {"suite": suite, "seed": 1, "parameters": {name: "x"}}, ["header", "error"])
          for suite, name in _DECLARED],
        *[([], {"suite": suite, "seed": 1, "parameters": {name: value}}, ["header", "error"])
          for suite, name, value in _NOT_THE_DEFAULT],
    ],
    ids=[
        "instances-0",
        "instances-negative-exact",
        "instances-negative-mc",
        "seed-negative",
        "unknown-config-key",
        "unknown-parameter",
        "model-file-exact-independence",
        "model-file-stir1",
        "model-file-mc-poisson",
        "one-replicate-mc-poisson",
        "one-sample-experiment",
        "experiments-and-beta",
        "experiments-and-instance-count",
        "parameters-not-an-object",
        "window-missing-key",
        "window-not-an-object",
        "region-missing-key",
        "region-value-not-a-number",
        "orders-not-integer",
        "orders-below-1",
        "orders-empty",
        "regions-not-a-list",
        "regions-empty",
        "experiments-not-a-list",
        "experiments-empty",
        "experiment-identity-unknown",
        "experiment-unknown-key",
        "experiment-key-of-other-process",
        "experiment-n-samples-negative",
        "seed-not-a-number",
        "instance-count-not-a-number",
        "m-max-not-a-number",
        "offset-not-a-number",
        "experiment-n-samples-not-a-number",
        "seed-not-integral",
        "instance-count-not-integral",
        "m-max-not-integral",
        "experiment-n-samples-not-integral",
        "seed-a-bool",
        "seed-a-string",
        "instance-count-a-bool",
        "intensity-a-string",
        "kernels-a-bool",
        "window-bools-and-strings",
        "experiment-intensity-a-string",
        "region-value-a-string",
        "intensity-beyond-float",
        "orders-target-overflows",
        "condition-instances-read-first",
        "lemma-count-read-first",
        "every-experiment-validated-first",
        "experiment-order-validated-first",
        "experiment-mean-count-validated-first",
        "experiment-burn-in-validated-first",
        "model-file-missing",
        "intensity-NaN",
        "intensity-Infinity",
        "experiment-r-Infinity",
        "experiment-beta--Infinity",
        *_OUT_OF_RANGE_IDS,
        *[f"{suite}-{name}-malformed".replace("_", "-") for suite, name in _DECLARED],
        *_NOT_THE_DEFAULT_IDS,
    ],
)
def test_bad_input_is_exit_3_without_traceback(argv, config, records, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert main(["run"] + argv) == EXIT_VALIDATION_ERROR
    captured = capsys.readouterr()
    assert [json.loads(line)["record"] for line in captured.out.splitlines()] == records
    assert "Traceback" not in captured.err


_ORDER_40 = "a standard error of 0 cannot gate estimate 0.0 against target 1.2157665459056929e+19"


@pytest.mark.parametrize(
    "config,records,message",
    [
        # no count reaches 40, so every falling factorial is 0
        ({"suite": "mc-poisson", "seed": 1, "instance_count": 1000,
          "parameters": {"orders": [40]}}, ["header", "error"], _ORDER_40),
        # the error record stands where the order-40 record would
        ({"suite": "mc-poisson", "seed": 1, "instance_count": 1000,
          "parameters": {"orders": [1, 40, 2]}}, ["header", "moment", "error"], _ORDER_40),
        # the first box of a 12 x 12 grid that no replicate's points reach
        ({"suite": "rho-tau", "seed": 1, "instance_count": 200,
          "parameters": {"grid_size": 12, "intensity": 5}}, ["header", "error"],
         "a standard error of 0 cannot gate estimate 0.0 against target 0.004631558641975313"),
    ],
    ids=["mc-poisson-order-40", "mc-poisson-order-40-second", "rho-tau-grid-12"],
)
def test_a_zero_standard_error_off_target_is_exit_3(config, records, message, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) == EXIT_VALIDATION_ERROR
    captured = capsys.readouterr()
    written = [json.loads(line) for line in captured.out.splitlines()]
    assert [record["record"] for record in written] == records
    assert written[-1]["message"] == message
    assert "Traceback" not in captured.err


def _disk(cx, cy, radius):
    return {"type": "disk", "cx": cx, "cy": cy, "radius": radius}


_BOX = {"type": "box", "x_min": 0.2, "x_max": 0.6, "y_min": -0.2, "y_max": 0.2}


def test_transform_invariance_reads_disk_regions():
    regions = [_disk(-0.45, 0.0, 0.25), _disk(0.45, -0.45, 0.25), _BOX]
    status, lines = run_to_lines("transform-invariance", 1, 500,
                                 {"regions": regions, "condition_instances": 0})
    assert status == EXIT_PASS
    records = [json.loads(line) for line in body_of(lines)]
    assert [r["area"] for r in records if r["record"] == "gof"] == [
        math.pi * 0.25 * 0.25, math.pi * 0.25 * 0.25, transforms.Box(0.2, 0.6, -0.2, 0.2).area,
    ]
    assert records[-1] == {"record": "summary", "suite": "transform-invariance",
                           "n_records": len(records) - 1, "n_failures": 0, "passed": True}


@pytest.mark.parametrize(
    "regions,message",
    [
        ([_disk(0.7, 0.0, 0.25), _disk(-0.3, 0.0, 0.25), _disk(0.1, 0.0, 0.25)],
         "regions 1 and 2 overlap"),
        ([_disk(0.0, 0.0, 0.25), _BOX], "regions 0 and 1 overlap"),
        ([_BOX, _disk(0.0, 0.0, 0.25)], "regions 0 and 1 overlap"),
        ([_disk(0.0, 0.8, 0.25)], "regions must lie inside the unit disk"),
        ([_disk(0.0, 0.0, 0.0)], "disk radius must be positive"),
        # a NaN centre would fail no comparison, and the disk would hold no point
        ([_disk(math.nan, 0.0, 0.25)], "region cx must be a finite number, not nan"),
        ([_disk(0.0, 0.0, 0.25), _disk(0.0, math.nan, 0.25)],
         "region cy must be a finite number, not nan"),
        ([_disk(0.0, 0.0, math.inf)], "region radius must be a finite number, not inf"),
    ],
    ids=["disk-disk-overlap", "disk-box-overlap", "box-disk-overlap", "disk-outside",
         "disk-radius-0", "disk-cx-NaN", "second-disk-cy-NaN", "disk-radius-Infinity"],
)
def test_bad_disk_regions_are_exit_3(regions, message):
    status, lines = run_to_lines("transform-invariance", 1, 50, {"regions": regions})
    assert status == EXIT_VALIDATION_ERROR
    assert [json.loads(line) for line in body_of(lines)] == [
        {"record": "error", "message": message}
    ]


@pytest.mark.parametrize("suite,name,value", _OUT_OF_RANGE, ids=_OUT_OF_RANGE_IDS)
def test_out_of_range_errors_name_the_parameter(suite, name, value):
    status, lines = run_to_lines(suite, 1, None, {name: value})
    assert status == EXIT_VALIDATION_ERROR
    message = json.loads(lines[-1])["message"]
    assert message.startswith(f"{name} must be ") and message.endswith(f", got {value}")


@pytest.mark.parametrize("suite,name,value", _NOT_THE_DEFAULT, ids=_NOT_THE_DEFAULT_IDS)
def test_a_value_that_is_not_the_default_names_the_parameter(suite, name, value):
    status, lines = run_to_lines(suite, 1, 50, {name: value})
    assert status == EXIT_VALIDATION_ERROR
    records = [json.loads(line) for line in lines]
    assert [r["record"] for r in records] == ["header", "error"]
    assert records[1]["message"].startswith(f"{name} ")


@pytest.mark.parametrize(
    "suite,instances,parameters,steps,burn_in",
    [
        ("mc-gibbs", 4, {"beta": 200}, 2000, 2000),
        ("mc-gibbs", 4, {"beta": 80}, 900, 800),
        ("mc-identity", 20, {"beta": 61, "gamma": 1.0}, 610, 610),
        ("mc-identity", 20, {"beta": 59, "gamma": 1.0}, 600, 590),
    ],
    ids=["mc-gibbs-burn-in", "mc-gibbs-default", "mc-identity-burn-in", "mc-identity-default"],
)
def test_an_unset_n_steps_is_the_default_or_the_longer_burn_in(
    monkeypatch, suite, instances, parameters, steps, burn_in
):
    drawn = []
    draw_sides = montecarlo._draw_sides

    def recorded(model, sides, n_samples, n_steps):
        if isinstance(model, montecarlo.StraussModel):
            drawn.append(n_steps)
        return draw_sides(model, sides, n_samples, n_steps)

    monkeypatch.setattr(montecarlo, "_draw_sides", recorded)
    monkeypatch.setattr(cli, "_draw_sides", recorded)
    status, _ = run_to_lines(suite, 1, instances, parameters)
    assert status == EXIT_PASS
    assert drawn and set(drawn) == {steps}
    # an n_steps below the burn-in is still an error
    status, lines = run_to_lines(suite, 1, instances, {**parameters, "n_steps": burn_in - 1})
    assert status == EXIT_VALIDATION_ERROR
    assert json.loads(lines[-1])["message"] == (
        f"n_steps must be at least the default burn-in {burn_in}")


_STRAUSS_EXPERIMENT = {
    "process": "strauss",
    "window": _ONE_SAMPLE_EXPERIMENT["window"],
    "beta": 5.0,
    "gamma": 0.5,
    "r": 0.1,
    "n_samples": 20,
}


@pytest.mark.parametrize(
    "suite,instances,parameters,nulled",
    [
        ("mc-gibbs", 4, {}, {"n_steps": None}),
        ("mc-identity", 20, {"beta": 5}, {"beta": 5, "n_steps": None}),
        ("mc-identity", None, {"experiments": [_STRAUSS_EXPERIMENT]},
         {"experiments": [{**_STRAUSS_EXPERIMENT, "n_steps": None}]}),
    ],
    ids=["mc-gibbs", "mc-identity", "mc-identity-experiment"],
)
def test_a_null_n_steps_runs_the_default_chain(suite, instances, parameters, nulled):
    status, lines = run_to_lines(suite, 1, instances, parameters)
    assert status == EXIT_PASS
    nulled_status, nulled_lines = run_to_lines(suite, 1, instances, nulled)
    assert nulled_status == status and body_of(nulled_lines) == body_of(lines)


def test_a_null_instance_count_is_unset():
    config = SuiteConfig.from_dict({"suite": "mc-poisson", "seed": 1, "instance_count": None})
    assert config == SuiteConfig.from_dict({"suite": "mc-poisson", "seed": 1})
    assert config.instance_count is None


def test_readme_table_lists_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## What gets verified", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(SUITES)


def test_list_suites_and_explain(capsys):
    assert main(["list-suites"]) == EXIT_PASS
    listing = capsys.readouterr().out
    for name in SUITES:
        assert name in listing
    assert main(["explain", "exact-gnz"]) == EXIT_PASS
    text = capsys.readouterr().out
    assert "Papangelou" in text or "enumeration" in text
    assert main(["explain", "nope"]) == EXIT_VALIDATION_ERROR


def _write_model(path, m, first_weight=0.5):
    path.write_text(
        json.dumps(
            {
                "sites": m,
                "weights": [first_weight, 1.0, 0.7, 1.2] * (m // 4) + [0.9] * (m % 4),
                "density": {"type": "pairwise", "gamma": 0.5, "pairs": [[0, 1], [2, 3]]},
            }
        )
    )
    return str(path)


def test_model_file_parameter(tmp_path, monkeypatch):
    # the model is loaded once per run, and the instances are drawn at its
    # site count: at seed 1 some generated instances have fewer than 4 sites
    loads = []
    load_model = cli.load_model
    monkeypatch.setattr(cli, "load_model", lambda path: loads.append(path) or load_model(path))
    path = _write_model(tmp_path / "model.json", 4)
    for suite in ("exact-gnz", "exact-factorial", "exact-joint", "exact-stirling",
                  "exact-partition"):
        loads.clear()
        status, lines = run_to_lines(suite, 1, 50, {"model_file": path})
        assert status == EXIT_PASS, suite
        records = [json.loads(line) for line in body_of(lines)]
        identities = [r for r in records if r["record"] == "identity"]
        assert len(identities) >= 50
        assert all(r["parameters"]["sites"] == 4 for r in identities)
        assert loads == [path]


@pytest.mark.parametrize(
    "sites,first_weight,parameters,message",
    [
        (MAX_INSTANCE_SITES + 1, 0.5, {}, "at most"),
        (4, 0.5, {"m_max": 5}, "m_max"),
        (4, math.nan, {}, "weights must be a finite number, not nan"),
        (4, math.inf, {}, "weights must be a finite number, not inf"),
    ],
    ids=["above-instance-bound", "and-m-max", "weight-NaN", "weight-Infinity"],
)
def test_model_file_conflicts_are_exit_3(tmp_path, sites, first_weight, parameters, message):
    path = _write_model(tmp_path / "model.json", sites, first_weight)
    status, lines = run_to_lines("exact-gnz", 1, 5, {"model_file": path, **parameters})
    assert status == EXIT_VALIDATION_ERROR
    records = [json.loads(line) for line in lines]
    assert [r["record"] for r in records] == ["header", "error"]
    assert message in records[1]["message"]


def test_a_null_m_max_with_a_model_file_is_unset(tmp_path):
    path = _write_model(tmp_path / "model.json", 4)
    status, lines = run_to_lines("exact-gnz", 1, 5, {"model_file": path})
    assert status == EXIT_PASS
    nulled_status, nulled_lines = run_to_lines("exact-gnz", 1, 5,
                                               {"model_file": path, "m_max": None})
    assert nulled_status == status and body_of(nulled_lines) == body_of(lines)


def test_gate_failure_exit_code():
    # an impossible statistical gate: target mean shifted by parameters is
    # not available, so force failure through a tiny replicate count with a
    # wrong target via a biased window trick is convoluted; instead check
    # the plumbing by asserting a fabricated failing record flips the status
    config = SuiteConfig("stir1", 1, 1, {})
    stream = io.StringIO()

    def failing_runner(cfg):
        yield {"record": "identity", "passed": False}

    from ppmoments import cli as cli_module

    original = cli_module.SUITES["stir1"]
    cli_module.SUITES["stir1"] = (failing_runner, original[1])
    try:
        status = run_suite(config, stream)
    finally:
        cli_module.SUITES["stir1"] = original
    assert status == EXIT_GATE_FAILURE


class _InflatedPoisson:
    """A generator whose Poisson draws have 1.05 times the mean asked for."""

    def __init__(self, rng):
        self.rng = rng

    def poisson(self, lam, size):
        return self.rng.poisson(1.05 * lam, size)


def _inflate_poisson_counts(monkeypatch):
    block_streams = cli._block_streams
    monkeypatch.setattr(cli, "_block_streams", lambda seed, count: [
        (_InflatedPoisson(rng), size) for rng, size in block_streams(seed, count)
    ])


def _unit_papangelou(monkeypatch):
    monkeypatch.setattr(montecarlo, "_chat", lambda model, batch, points: np.ones(len(points)))


def _pull_toward_anchor(monkeypatch):
    rotate = transforms._Frames.rotate

    def pulled(frames, offset, x, y):
        new_x, new_y = rotate(frames, offset, x, y)
        if not len(frames.anchor):
            return new_x, new_y
        moved = (new_x != x) | (new_y != y)
        # the anchor of each block row; a row without a hull has no moved point
        ax, ay = frames.anchor[frames.row, :1], frames.anchor[frames.row, 1:]
        return (np.where(moved, ax + 0.9 * (new_x - ax), new_x),
                np.where(moved, ay + 0.9 * (new_y - ay), new_y))

    monkeypatch.setattr(transforms._Frames, "rotate", pulled)


_POISSON_FACTORIAL = {
    "process": "poisson", "window": {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1},
    "intensity": 3.0, "identity": "factorial", "n": 2, "n_samples": 2000,
}


def _chains_at_higher_beta(monkeypatch):
    # the chains sample the Strauss law at 1.1 beta, while the estimators
    # still evaluate c(x, omega) at beta
    chains = montecarlo._strauss_chains
    monkeypatch.setattr(montecarlo, "_strauss_chains", lambda model, n_steps, blocks: chains(
        dataclasses.replace(model, beta=1.1 * model.beta), n_steps, blocks))


# negative controls: each statistical suite passes at its size and seed, and
# fails its gates there with a fault patched into the engine
@pytest.mark.parametrize(
    "suite,instances,parameters,fault",
    [
        ("mc-poisson", 5000, {}, _inflate_poisson_counts),
        ("mc-gibbs", 300, {}, _chains_at_higher_beta),
        ("mc-identity", None, {"experiments": [_POISSON_FACTORIAL]}, _unit_papangelou),
        ("transform-invariance", 1000, {"condition_instances": 0}, _pull_toward_anchor),
        ("rho-tau", 600, {}, _pull_toward_anchor),
    ],
    ids=["mc-poisson-counts-at-1.05-mean", "mc-gibbs-chains-at-1.1-beta",
         "mc-identity-unit-papangelou",
         "transform-invariance-pulled-to-anchor", "rho-tau-pulled-to-anchor"],
)
def test_negative_controls_fail_the_gates(suite, instances, parameters, fault, monkeypatch):
    assert run_to_lines(suite, 1, instances, parameters)[0] == EXIT_PASS
    fault(monkeypatch)
    status, lines = run_to_lines(suite, 1, instances, parameters)
    assert status == EXIT_GATE_FAILURE
    assert json.loads(lines[-1])["n_failures"] > 0


def test_the_pulled_map_leaves_blocks_without_a_hull_alone(monkeypatch):
    # rows of two points and of none: the block has no hull, so the tables are empty
    _pull_toward_anchor(monkeypatch)
    x, y = np.array([[0.1, -0.2], [np.nan, np.nan]]), np.array([[0.3, 0.1], [np.nan, np.nan]])
    assert np.array_equal(transforms._tau(0.3, x, y, x, y), (x, y), equal_nan=True)


def test_generate_random_instance_determinism_and_kinds():
    a = generate_random_instance("gnz", {"m_min": 3, "m_max": 5}, 11)
    b = generate_random_instance("gnz", {"m_min": 3, "m_max": 5}, 11)
    assert a["model"].m == b["model"].m
    assert a["model"].partition_constant == b["model"].partition_constant
    cfg = a["model"].config(1)
    for ka, kb in zip(a["kernels"], b["kernels"]):
        assert ka(0, cfg) == kb(0, cfg)
    with pytest.raises(ValueError):
        generate_random_instance("unknown", {}, 1)
    with pytest.raises(ValueError):
        generate_random_instance("gnz", {"m_min": 5, "m_max": 2}, 1)


def test_generated_disjoint_regions_validate():
    for seed in range(10):
        bundle = generate_random_instance(
            "joint", {"m_min": 4, "m_max": 8, "n_max": 4}, 4000 + seed
        )
        validate_disjoint(bundle["model"], bundle["regions"])


def test_hard_core_instances_are_hereditary():
    # construction must never produce a non-hereditary density; gamma = 0
    # draws exercise the hard-core branch
    for seed in range(30):
        bundle = generate_random_instance("gnz", {"m_min": 3, "m_max": 6}, 6000 + seed)
        assert bundle["model"].partition_constant > 0


def test_child_seeds_of_different_seeds_differ():
    # an affine child seed (seed * 1_000_003 + index) gave seed 0's child
    # 1_000_003 the stream of seed 1's child 0
    assert cli._child_seed(0, 1_000_003) != cli._child_seed(1, 0)
    children = {cli._child_seed(seed, index) for seed in range(50) for index in range(50)}
    assert len(children) == 2500


def test_importing_the_cli_does_not_import_scipy():
    # scipy.stats takes most of a second to import, and only the p-values
    # of poisson_count_gof need it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, ppmoments.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
