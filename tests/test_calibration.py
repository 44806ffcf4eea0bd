"""calibration/run.py: the run filter and the seed range, on a few seeds."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "calibration" / "run.py"
_SPEC = importlib.util.spec_from_file_location("calibration_run", _PATH)
calibration = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(calibration)

_ALL_RUNS = ["mc-poisson-hull/mc-poisson", "mc-poisson-hull/transform-invariance",
             "mc-poisson-hull/rho-tau", "mc-poisson-hull/mc-identity",
             "mc-strauss/mc-gibbs", "mc-strauss/mc-identity"]


def test_without_a_filter_every_monte_carlo_run_is_kept():
    assert [label for label, _ in calibration.suite_runs(calibration.FIRST_SEED)] == _ALL_RUNS


@pytest.mark.parametrize("only,labels", [
    (["mc-strauss/mc-gibbs"], ["mc-strauss/mc-gibbs"]),
    (["mc-identity"], ["mc-poisson-hull/mc-identity", "mc-strauss/mc-identity"]),
    (["rho-tau", "mc-strauss/mc-gibbs"], ["mc-poisson-hull/rho-tau", "mc-strauss/mc-gibbs"]),
])
def test_a_filter_keeps_the_named_runs(only, labels):
    assert [label for label, _ in calibration.suite_runs(calibration.FIRST_SEED, only)] == labels


def test_one_family_at_a_seed_range(tmp_path, capsys):
    out = tmp_path / "result.json"
    assert calibration.main(["--suite", "mc-strauss/mc-gibbs", "--first-seed", "2000000",
                             "--seeds", "3", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["seeds"] == {"first": 2_000_000, "count": 3}
    assert result["only"] == ["mc-strauss/mc-gibbs"]
    assert {row["run"] for row in result["families"] + result["suites"]} == {"mc-strauss/mc-gibbs"}
    families = {row["family"]: row["trials"] for row in result["families"]}
    assert families == {"estimate/strauss-gnz": 9, "comparison/gibbs-vs-poisson-mean-count": 3}


@pytest.mark.parametrize("argv", [
    ["--suite", "mc-strauss"],
    ["--suite", "mc-strauss/mc-poisson"],
    ["--seeds", "0"],
    ["--first-seed", "-1"],
], ids=["a-workload", "a-run-no-workload-makes", "no-seeds", "a-negative-seed"])
def test_a_filter_that_names_no_run_or_an_empty_range_is_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        calibration.main(argv)
    assert exc.value.code == 2
