"""tools/bench_pairs.py: alternating benchmark pairs, without running one."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _output(wall, raw, failed=0):
    """The tail of a perfbench/run.py --trace 0 output."""
    info = {"info": {"workload": "w", "raw_wall_s": raw, "speed_scale": 1.2}}
    result = {"correct": failed == 0, "attempted": 9, "failed": failed, "metrics": {
        "wall_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": 100.0 + wall, "unit": "MB"},
    }}
    return f"wall_s {wall:.6g} s\npeak_rss_mb 100 MB\n{json.dumps(info)}\n{json.dumps(result)}\n"


def test_a_run_record_reads_the_info_and_result_lines():
    assert bench_pairs.run_record(_output(0.25, 0.2, 1)) == {
        "wall_s": 0.25, "peak_rss_mb": 100.25, "raw_wall_s": 0.2, "failed": 1}


def _pairs(walls):
    return [(bench_pairs.run_record(_output(p, p - 0.05)),
             bench_pairs.run_record(_output(c, c - 0.05, failed=k == 1)))
            for k, (p, c) in enumerate(walls)]


_BOUNDS = {"wall_s": 0.25, "peak_rss_mb": 0.2}


def test_the_summary_gives_medians_quartiles_and_wins():
    walls = [(0.20, 0.15), (0.18, 0.19), (0.22, 0.14), (0.19, 0.16), (0.21, 0.13)]
    pairs = _pairs(walls)
    assert bench_pairs.summary(pairs, _BOUNDS) == [
        "wall_s: parent 0.2 [0.19, 0.21], change 0.15 [0.14, 0.16], change wins 4 of 5",
        "wall_s: change/parent 0.75, parent spread 0.1, bound 0.25: within bound",
        "peak_rss_mb: parent 100.2 [100.2, 100.2], change 100.2 [100.1, 100.2], "
        "change wins 4 of 5",
        "peak_rss_mb: change/parent 0.9995, parent spread 0.0001996, bound 0.2: within bound",
        "raw_wall_s: parent 0.15 [0.14, 0.16], change 0.1 [0.09, 0.11], change wins 4 of 5",
        "failed: parent 0, change 1",
    ]
    assert bench_pairs.pair_line(1, *pairs[1]) == (
        "pair 2 (change first): wall_s 0.18 -> 0.19 peak_rss_mb 100.2 -> 100.2 "
        "raw_wall_s 0.13 -> 0.14")


@pytest.mark.parametrize(
    "walls,verdict",
    [
        # a median ratio of 1.5 over a parent without spread
        ([(0.2, 0.3)] * 5, "change/parent 1.5, parent spread 0, bound 0.25: worse than bound"),
        # a parent spread of 2/3 of its median hides a ratio of 1
        ([(0.1, 0.3), (0.2, 0.3), (0.3, 0.3), (0.4, 0.3), (0.5, 0.3)],
         "change/parent 1, parent spread 0.6667, bound 0.25: unresolved"),
        # unless every change run beats every parent run
        ([(0.1, 0.05), (0.2, 0.05), (0.3, 0.05), (0.4, 0.05), (0.5, 0.05)],
         "change/parent 0.1667, parent spread 0.6667, bound 0.25: within bound"),
    ],
    ids=["worse", "unresolved", "wide-parent-beaten-by-every-run"],
)
def test_the_verdict_weighs_the_ratio_against_the_bound_and_the_spread(walls, verdict):
    assert bench_pairs.summary(_pairs(walls), _BOUNDS)[1] == f"wall_s: {verdict}"


def test_the_sides_alternate_which_runs_first(monkeypatch, capsys):
    runs = []

    def run_once(checkout, workload, seed, seconds):
        runs.append((checkout, workload, seed, seconds))
        return bench_pairs.run_record(_output(0.2 if checkout == "p" else 0.1, 0.1))

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--parent", "p", "--change", "c", "--workload", "w"]) == 0
    seconds = json.loads(bench_pairs.BENCHMARK.read_text())["run_seconds"]
    assert runs == [(side, "w", 1, seconds) for side in ("p", "c", "c", "p") * 5]
    assert capsys.readouterr().out.splitlines()[-6:-4] == [
        "wall_s: parent 0.2 [0.2, 0.2], change 0.1 [0.1, 0.1], change wins 10 of 10",
        "wall_s: change/parent 0.5, parent spread 0, bound 0.25: within bound",
    ]


@pytest.mark.parametrize("argv", [["--pairs", "9"], ["--seconds", "6"]],
                         ids=["fewer-than-10-pairs", "a-run-length-of-its-own"])
def test_runs_shorter_or_fewer_than_the_benchmark_are_refused(argv, monkeypatch):
    monkeypatch.setattr(bench_pairs, "run_once", pytest.fail)
    with pytest.raises(SystemExit) as refused:
        bench_pairs.main(["--parent", "p", "--change", "c", "--workload", "w", *argv])
    assert refused.value.code == 2
