"""Benchmark for ppmoments: one workload per invocation, closed loop.

    python3 perfbench/run.py --workload exact-small --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from its
src/ directory. The caller is closed-loop and single-threaded: it starts
the next library call only after the previous verdict returns, and it uses
no worker threads or pools. A pass runs the workload's fixed batch once;
passes repeat until --seconds is spent (at least one), and times are the
median over passes.

--trace 0 reports the end-to-end metrics: wall_s (median pass time),
setup_s (median of several fresh set-ups: importing numpy, scipy and
ppmoments and building the workload's inputs) and peak_rss_mb. Both times
are rescaled to the host's nominal speed by a calibration loop sampled
while they are measured (see calibrate.py); the raw times are printed on
the info line. --trace 1
alternates untraced and traced passes and reports the per-layer metrics,
with trace.overhead_frac comparing the two; the spans of the last traced
pass are written to perfbench/out/.

Every gated output is checked. The last line of standard output is a JSON
object with correct, attempted, failed and metrics; the lines before it
print each metric with its unit, the failed fraction and host facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("exact-small", "exact-large", "mc-strauss", "mc-poisson-hull")
SETUP_SAMPLES = 5

# A fresh interpreter times one set-up: the imports, then building inputs.
_SETUP_PROBE = """
import json, sys
sys.path[:0] = [sys.argv[1]]
import run
_, took, scale = run.timed_setup(sys.argv[2], int(sys.argv[3]))
print(json.dumps([took, scale]))
"""


def timed_setup(workload: str, seed: int):
    """Import numpy, scipy and ppmoments and build the workload's inputs
    while sampling the host's speed; (inputs, seconds, speed scale)."""
    from calibrate import Calibration

    calibration = Calibration()
    with calibration.sampling():
        start = time.perf_counter()
        sys.path[:0] = [str(SRC)]
        import numpy  # noqa: F401
        import scipy  # noqa: F401
        import scipy.stats  # noqa: F401

        import ppmoments  # noqa: F401
        import workloads

        inputs = workloads.WORKLOADS[workload][0](seed)
        took = time.perf_counter() - start - calibration.spent_s
    return inputs, took, calibration.scale()


def _setup_probe(workload: str, seed: int) -> tuple[float, float]:
    result = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(BENCH), workload, str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    took, scale = json.loads(result.stdout.strip().splitlines()[-1])
    return took, scale


def _timed_passes(run, inputs, seconds: float, calibration=None):
    """Run passes until seconds are spent; (wall times, outcomes). With a
    calibration, it samples the host's speed during the passes, and the
    time its samples take is left out of the pass times."""
    walls, outcomes = [], []
    spent = calibration.spent_s if calibration else 0.0
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        outcomes.append(run(inputs))
        walls.append(time.perf_counter() - begin)
        if calibration:
            walls[-1] -= calibration.spent_s - spent
            spent = calibration.spent_s
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls, outcomes


def _source_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted(SRC.rglob("*.py"))
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ppmoments" / "__init__.py").is_file():
        print(f"no ppmoments sources under {SRC}", file=sys.stderr)
        return 2

    inputs, took, setup_scale = timed_setup(args.workload, args.seed)
    import numpy
    import scipy

    import ppmoments

    if Path(ppmoments.__file__).resolve().parent != SRC / "ppmoments":
        print(f"ppmoments imported from {ppmoments.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    run = workloads.WORKLOADS[args.workload][1]

    # the determinism check doubles as warm-up before timing
    repeat_ok = workloads.deterministic(inputs["repeat"])

    info_extra = {}
    if args.trace:
        metrics, walls, outcomes = _traced(args, run, inputs)
    else:
        from calibrate import Calibration

        setups = [(took, setup_scale)] + [
            _setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
        ]
        calibration = Calibration()
        with calibration.sampling():
            walls, outcomes = _timed_passes(run, inputs, args.seconds, calibration)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        scale = calibration.scale()
        metrics = {
            "wall_s": (statistics.median(walls) * scale, "s"),
            "setup_s": (statistics.median(took * factor for took, factor in setups), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
        info_extra = {
            "raw_wall_s": statistics.median(walls),
            "speed_scale": scale,
            "raw_setup_s": [took for took, _ in setups],
            "setup_speed_scale": [factor for _, factor in setups],
        }

    attempted = 1 + sum(o.attempted for o in outcomes)
    failed = (not repeat_ok) + sum(o.failed for o in outcomes)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "untraced_pass_s": walls,
        "fail_frac": failed / attempted,
        "deterministic_report": repeat_ok,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": _source_lines(),
        **info_extra,
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _traced(args, run, inputs):
    """Untraced and traced passes in turn, so that both see the same host
    load; (per-layer metrics, untraced pass times, outcomes)."""
    import layers
    import workloads
    from spans import Tracer

    tracer = Tracer()
    walls, passes = [], []

    def both(pass_inputs):
        begin = time.perf_counter()
        untraced = run(pass_inputs)
        walls.append(time.perf_counter() - begin)
        tracer.reset()
        tracer.install(layers.TARGETS)
        try:
            root = tracer.open(layers.ROOT)
            try:
                traced = run(pass_inputs)
            finally:
                tracer.close(root)
        finally:
            tracer.uninstall()
        passes.append(layers.pass_metrics(tracer, traced.records))
        return untraced, traced

    _, rounds = _timed_passes(both, inputs, args.seconds)
    metrics = {}
    for name, unit, _ in layers.METRICS:
        if name == "trace.overhead_frac":
            traced_wall = statistics.median(p["trace.wall_s"] for p in passes)
            value = traced_wall / statistics.median(walls) - 1.0
        elif name in layers.COUNTS:
            value = passes[-1][name]
        else:
            value = statistics.median(p[name] for p in passes)
        metrics[name] = (value, unit)

    # work counts must repeat exactly from pass to pass
    counts_repeat = workloads.Outcome()
    counts_repeat.check(
        all(p[name] == passes[0][name] for p in passes for name in layers.COUNTS)
    )
    OUT.mkdir(exist_ok=True)
    tracer.dump(
        OUT / f"trace-{args.workload}-seed{args.seed}.json",
        {"workload": args.workload, "seed": args.seed, "untraced_pass_s": walls},
    )
    return metrics, walls, [o for pair in rounds for o in pair] + [counts_repeat]


if __name__ == "__main__":
    sys.exit(main())
