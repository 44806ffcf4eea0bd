"""Digest of every suite's report body at the given seeds.

Runs all 13 suites in-process through `cli.run_suite`, the exact suites at
their default configs and the Monte Carlo suites at reduced instance counts,
and prints one line per run:

    suite seed exit sha256(body)

The body is the report stream without its header record, which carries the
only nondeterministic field (the timestamp). Two checkouts give equal
report bodies at these seeds exactly when their outputs are equal, so

    python tools/report_digest.py --seeds 1 17 9001 > a.txt

run from the root of each checkout (it imports that checkout's `src/`) and
one `diff` compare them. `--suites` limits the run to the named suites, so
a change to one engine can be checked at many seeds in seconds:

    python tools/report_digest.py --suites mc-gibbs mc-identity --seeds 1 2 3
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ppmoments import cli  # noqa: E402

# instance counts of the Monte Carlo suites; None keeps the suite default
INSTANCES = {
    "mc-poisson": 5000,
    "mc-gibbs": 60,
    "transform-invariance": 1000,
    "rho-tau": 600,
    "mc-identity": 2000,
}


def digest(suite: str, seed: int) -> tuple[int, str]:
    """The exit status and the sha256 of the report body of one run."""
    stream = io.StringIO()
    status = cli.run_suite(cli.SuiteConfig(suite, seed, INSTANCES.get(suite)), stream)
    body = stream.getvalue().split("\n", 1)[1]
    return status, hashlib.sha256(body.encode()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--suites", nargs="+", choices=sorted(cli.SUITES), default=sorted(cli.SUITES),
                        metavar="SUITE", help="the suites to run (default: all)")
    args = parser.parse_args(argv)
    for suite in sorted(set(args.suites)):
        for seed in args.seeds:
            status, body = digest(suite, seed)
            print(suite, seed, status, body, flush=True)


if __name__ == "__main__":
    main()
