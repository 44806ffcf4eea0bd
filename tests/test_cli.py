"""CLI behavior: suite execution, exit codes, report format, determinism."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
from ppmoments.instances import MAX_INSTANCE_SITES, generate_random_instance


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


def test_mc_poisson_suite_small():
    status, lines = run_to_lines("mc-poisson", 23, 20_000)
    assert status == EXIT_PASS
    records = [json.loads(line) for line in body_of(lines)[:-1]]
    assert [r["order"] for r in records] == [1, 2, 3]
    for r in records:
        assert abs(r["estimate"] - r["target"]) <= 4 * r["se"]


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


def test_main_malformed_config_is_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG_ERROR
    path.write_text(json.dumps([1, 2, 3]))
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG_ERROR


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
        "condition-instances-read-first",
        "lemma-count-read-first",
        "every-experiment-validated-first",
        "experiment-order-validated-first",
        "experiment-mean-count-validated-first",
        "experiment-burn-in-validated-first",
        "model-file-missing",
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


def _write_model(path, m):
    path.write_text(
        json.dumps(
            {
                "sites": m,
                "weights": [0.5, 1.0, 0.7, 1.2] * (m // 4) + [0.9] * (m % 4),
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
    "sites,parameters,message",
    [(MAX_INSTANCE_SITES + 1, {}, "at most"), (4, {"m_max": 5}, "m_max")],
    ids=["above-instance-bound", "and-m-max"],
)
def test_model_file_conflicts_are_exit_3(tmp_path, sites, parameters, message):
    path = _write_model(tmp_path / "model.json", sites)
    status, lines = run_to_lines("exact-gnz", 1, 5, {"model_file": path, **parameters})
    assert status == EXIT_VALIDATION_ERROR
    records = [json.loads(line) for line in lines]
    assert [r["record"] for r in records] == ["header", "error"]
    assert message in records[1]["message"]


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
    from ppmoments.identities import validate_disjoint

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
