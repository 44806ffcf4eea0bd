"""Report bodies change only when CHANGES.md says why.

golden_digests.json holds, per suite, the exit status and the sha256 of the
report body that `tools/report_digest.py --seeds 1` prints, at its reduced
Monte Carlo sizes, together with the numpy and scipy versions it was
recorded with. The eight exact suites are pinned at a second seed as well
(`exact_seed`), so that a last-bit change in the exact engine shows beyond
the instances of seed 1, and so are the two Strauss chain suites, mc-gibbs
and mc-identity (`chain_seed`), so that a change in the lockstep chains
shows beyond the chains of seed 1. A change that moves a body fails here;
record the new digests with that tool and give the reason in CHANGES.md.
Other library versions may round differently in the last bit, so there the
test is skipped: every suite where numpy differs from the recorded version,
and transform-invariance also where scipy does, since its goodness-of-fit
test (`transforms.poisson_count_gof`) is the one use of scipy at run time.
"""

import importlib.metadata
import importlib.util
import json
from pathlib import Path

import numpy
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads(Path(__file__).with_name("golden_digests.json").read_text())
_SPEC = importlib.util.spec_from_file_location(
    "report_digest", ROOT / "tools" / "report_digest.py"
)
report_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_digest)


def _scipy_version():
    try:
        return importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        return None


def _skip_on_other_versions(suite):
    versions = {"numpy": numpy.__version__}
    if suite == "transform-invariance":
        versions["scipy"] = _scipy_version()
    other = {name: version for name, version in versions.items() if version != GOLDEN[name]}
    if other:
        pytest.skip(
            f"{suite} digests were recorded with "
            + ", ".join(f"{name} {GOLDEN[name]}, not {version}" for name, version in other.items())
        )


@pytest.mark.parametrize("suite", sorted(GOLDEN["digests"]))
def test_report_body_matches_its_golden_digest(suite):
    _skip_on_other_versions(suite)
    status, body = report_digest.digest(suite, GOLDEN["seed"])
    assert [status, body] == GOLDEN["digests"][suite]


@pytest.mark.parametrize("suite", sorted(GOLDEN["exact_digests"]))
def test_exact_report_body_matches_its_second_seed_digest(suite):
    _skip_on_other_versions(suite)
    status, body = report_digest.digest(suite, GOLDEN["exact_seed"])
    assert [status, body] == GOLDEN["exact_digests"][suite]


@pytest.mark.parametrize("suite", sorted(GOLDEN["chain_digests"]))
def test_chain_report_body_matches_its_second_seed_digest(suite):
    _skip_on_other_versions(suite)
    status, body = report_digest.digest(suite, GOLDEN["chain_seed"])
    assert [status, body] == GOLDEN["chain_digests"][suite]


def test_every_suite_has_a_golden_digest():
    assert sorted(GOLDEN["digests"]) == sorted(report_digest.cli.SUITES)
    # the Monte Carlo suites are the ones the tool runs at reduced sizes
    exact = set(report_digest.cli.SUITES) - set(report_digest.INSTANCES)
    assert sorted(GOLDEN["exact_digests"]) == sorted(exact)
    # the second-seed chain suites are Monte Carlo suites at reduced sizes
    assert set(GOLDEN["chain_digests"]) <= set(report_digest.INSTANCES)
