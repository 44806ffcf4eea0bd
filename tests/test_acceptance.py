"""Acceptance criteria.

Each test evaluates one acceptance criterion at its stated tolerance and
instance counts, and prints a PASS/FAIL line (run pytest with -s to watch
them stream). Statistical criteria run on fixed seeds, so outcomes are
reproducible; gates are 4 standard errors or chi-square p >= 1e-3.
"""

import io
import json
import time

from ppmoments.cli import SuiteConfig, _gated, run_suite
from ppmoments.combinatorics import (
    falling_factorial,
    stirling2,
    stirling_reindex_gap,
)
from ppmoments.difference_ops import (
    cover_condition_holds,
    diff,
    diff_multi,
    product_expansion_gap,
)
from ppmoments.identities import (
    dtheta_joint_expansion,
    factorial_moment_identity,
    joint_factorial_identity,
    partition_moment_identity,
    stirling_moment_identity,
)
from ppmoments.instances import generate_random_instance
from ppmoments.montecarlo import (
    PoissonModel,
    StraussModel,
    Window,
    gnz_estimates,
    sample_many,
    sample_poisson,
    z_score,
)
from ppmoments.transforms import (
    Box,
    TransformSpec,
    invariance_suite,
    verify_transform_condition,
)

import numpy as np

EXACT_GATE = 1e-9
EXPANSION_GATE = 1e-10


def report(number, name, passed, detail=""):
    state = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {state} {detail}".rstrip())
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_exact_gnz_residuals():
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for i in range(200):
        bundle = generate_random_instance(
            "gnz", {"m_min": 3, "m_max": 8, "kernels": 5}, 100_000 + i
        )
        model = bundle["model"]
        for kernel in bundle["kernels"]:
            lhs, rhs = model.gnz_residual(kernel)
            gap = abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))
            worst = max(worst, gap)
            checked += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        "exact-gnz",
        worst <= EXACT_GATE and checked == 1000 and elapsed < 10.0,
        f"(1000 instances, worst rel gap {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_02_factorial_moment_identity():
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        bundle = generate_random_instance(
            "factorial", {"m_min": 3, "m_max": 7, "n_max": 3}, 200_000 + i
        )
        result = factorial_moment_identity(
            bundle["model"], bundle["functional"], bundle["region"], bundle["n"]
        )
        worst = max(worst, result.rel_gap)
    elapsed = time.perf_counter() - start
    report(
        2,
        "exact-factorial",
        worst <= EXACT_GATE and elapsed < 60.0,
        f"(100 instances, worst rel gap {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_03_joint_factorial_identity():
    worst = 0.0
    for i in range(50):
        bundle = generate_random_instance(
            "joint", {"m_min": 4, "m_max": 7, "n_max": 4}, 300_000 + i
        )
        result = joint_factorial_identity(
            bundle["model"], bundle["functional"], bundle["regions"], bundle["orders"]
        )
        worst = max(worst, result.rel_gap)
    report(3, "exact-joint", worst <= EXACT_GATE, f"(50 instances, worst {worst:.2e})")


def test_criterion_04_stirling_partition_and_expansion():
    worst = 0.0
    for i in range(50):
        bundle = generate_random_instance(
            "stirling", {"m_min": 3, "m_max": 7, "n_max": 3}, 400_000 + i
        )
        result = stirling_moment_identity(
            bundle["model"], bundle["functional"], bundle["region"], bundle["n"]
        )
        worst = max(worst, result.rel_gap)
    for i in range(50):
        bundle = generate_random_instance(
            "partition", {"m_min": 3, "m_max": 6, "n_max": 3}, 410_000 + i
        )
        result = partition_moment_identity(
            bundle["model"], bundle["kernel"], bundle["n"]
        )
        worst = max(worst, result.rel_gap)
    three_way_worst = 0.0
    for i in range(25):
        bundle = generate_random_instance(
            "dtheta", {"m_min": 4, "m_max": 6, "n_max": 3}, 420_000 + i
        )
        direct = joint_factorial_identity(
            bundle["model"], bundle["functional"], bundle["regions"], bundle["orders"]
        )
        expansion = dtheta_joint_expansion(
            bundle["model"], bundle["functional"], bundle["regions"], bundle["orders"]
        )
        cross = abs(expansion.rhs - direct.lhs) / (
            1.0 + max(abs(expansion.rhs), abs(direct.lhs))
        )
        three_way_worst = max(
            three_way_worst, direct.rel_gap, expansion.rel_gap, cross
        )
    report(
        4,
        "exact-stirling/partition/dtheta",
        worst <= EXACT_GATE and three_way_worst <= EXACT_GATE,
        f"(125 instances, worst {max(worst, three_way_worst):.2e})",
    )


def test_criterion_05_stirling_reindex_identity():
    rng = np.random.default_rng(55)
    worst = 0.0
    checked = 0
    for n in range(1, 5):
        for m in range(1, 4):
            for p in range(1, 3):
                for _ in range(20):
                    alphas = [
                        [float(v) for v in rng.uniform(-1, 1, m)] for _ in range(p)
                    ]
                    betas = [float(v) for v in rng.uniform(-1, 1, p)]
                    lhs, rhs = stirling_reindex_gap(alphas, betas, n, m)
                    gap = abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))
                    worst = max(worst, gap)
                    checked += 1
    report(
        5,
        "stir1",
        worst <= EXACT_GATE,
        f"({checked} matrices over n<=4, m<=3, p<=2, worst {worst:.2e})",
    )


def test_criterion_06_product_expansion_and_cover_lemma():
    worst = 0.0
    for i in range(50):
        bundle = generate_random_instance(
            "expansion", {"m_min": 3, "m_max": 6, "l_max": 3}, 600_000 + i
        )
        lhs, rhs = product_expansion_gap(
            bundle["kernels"], bundle["points"], bundle["config"]
        )
        worst = max(worst, abs(lhs - rhs))
        # alternating-sum form against composed single differences
        kernel, points = bundle["kernels"][0], bundle["points"]
        functional = lambda cfg, k=kernel, x=points[0]: k(x, cfg)
        multi = diff_multi(functional, points)(bundle["config"])
        composed = functional
        for x in points:
            composed = diff(composed, x)
        worst = max(worst, abs(multi - composed(bundle["config"])))
    implication_worst = 0.0
    for i in range(25):
        bundle = generate_random_instance(
            "cover-lemma", {"m_min": 4, "m_max": 6, "l_max": 3}, 610_000 + i
        )
        assert cover_condition_holds(
            bundle["kernels"], bundle["points"], bundle["config"], tol=1e-12
        )
        lhs, _ = product_expansion_gap(
            bundle["kernels"], bundle["points"], bundle["config"]
        )
        implication_worst = max(implication_worst, abs(lhs))
    report(
        6,
        "ddd0",
        worst <= EXPANSION_GATE and implication_worst <= EXPANSION_GATE,
        f"(75 instances, worst gap {max(worst, implication_worst):.2e})",
    )


def test_criterion_07_classical_stirling_identity():
    exact = True
    for x in range(-5, 6):
        for n in range(0, 11):
            total = sum(
                stirling2(n, k) * falling_factorial(x, k) for k in range(n + 1)
            )
            exact = exact and (total == x**n)
    report(7, "classical-moment-identity", exact, "(integer x in [-5,5], n <= 10)")


def test_criterion_08_poisson_factorial_moments():
    start = time.perf_counter()
    window = Window(0.0, 1.0, 0.0, 1.0)
    replicates = 100_000
    seeds = np.random.SeedSequence(808).spawn(replicates)
    counts = np.empty(replicates, dtype=np.int64)
    for i, child in enumerate(seeds):
        rng = np.random.Generator(np.random.PCG64(child))
        counts[i] = len(sample_poisson(window, 3.0, rng))
    ok = True
    details = []
    for order in (1, 2, 3):
        values = np.ones(replicates, dtype=float)
        for k in range(order):
            values *= counts - k
        estimate = float(values.mean())
        se = float(values.std(ddof=1) / np.sqrt(replicates))
        target = 3.0**order
        ok = ok and abs(estimate - target) <= 4 * se
        details.append(f"n={order}: {estimate:.3f} vs {target:g} (se {se:.3f})")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(8, "mc-poisson", ok, f"({'; '.join(details)}, {elapsed:.1f}s)")


def test_criterion_09_strauss_chain_gnz_and_poisson_reduction():
    window = Window(0.0, 1.0, 0.0, 1.0)
    model = StraussModel(window, 30.0, 0.5, 0.05)
    kernels = [
        lambda x, y, count: 1.0,
        lambda x, y, count: x,
        lambda x, y, count: count,
    ]
    pairs = gnz_estimates(model, kernels, 1500, 909, n_steps=900)
    zs = [z_score(lhs, rhs) for lhs, rhs in pairs]
    ok = all(abs(z) <= 4.0 for z in zs)
    poisson_like = StraussModel(window, 30.0, 1.0, 0.05)
    chain = sample_many(poisson_like, 600, 910, n_steps=900)
    direct = sample_many(PoissonModel(window, 30.0), 4000, 911)
    chain_counts = np.array([len(c) for c in chain], dtype=float)
    direct_counts = np.array([len(c) for c in direct], dtype=float)
    gap = float(chain_counts.mean() - direct_counts.mean())
    se = float(
        np.hypot(
            chain_counts.std(ddof=1) / np.sqrt(chain_counts.size),
            direct_counts.std(ddof=1) / np.sqrt(direct_counts.size),
        )
    )
    ok = ok and abs(gap) <= 4 * se
    report(
        9,
        "mc-gibbs",
        ok,
        f"(GNZ z-scores {', '.join(f'{z:.2f}' for z in zs)}; "
        f"gamma=1 gap {gap:.3f} vs 4se {4 * se:.3f})",
    )


def test_criterion_10_transform_invariance():
    start = time.perf_counter()
    window = Window(-1.05, 1.05, -1.05, 1.05)
    regions = [
        Box(-0.6, -0.2, -0.2, 0.2),
        Box(0.2, 0.6, -0.2, 0.2),
        Box(-0.2, 0.2, 0.3, 0.62),
    ]
    rows = invariance_suite(
        TransformSpec(0.37), window, 40.0, regions, 10_000, 1010
    )
    elapsed = time.perf_counter() - start
    min_p = min(row["p_value"] for row in rows["gof"])
    max_cov_z = max(abs(row["z"]) for row in rows["covariance"])
    max_mom_z = max(abs(row["z"]) for row in rows["moment"])
    passed = all(_gated(row)["passed"] for group in rows.values() for row in group)
    ok = passed and elapsed < 300.0
    report(
        10,
        "transform-invariance",
        ok,
        f"(min GOF p {min_p:.4f}, max |z| cov {max_cov_z:.2f} "
        f"moments {max_mom_z:.2f}, {elapsed:.0f}s)",
    )


def test_criterion_11_transform_condition():
    window = Window(-1.2, 1.2, -1.2, 1.2)
    rng = np.random.default_rng(1111)
    all_ok = True
    for i in range(100):
        config = sample_poisson(window, 10.0, 700_000 + i)
        length = int(rng.integers(1, 4))
        points = tuple(
            (float(x), float(y)) for x, y in rng.uniform(-1.1, 1.1, (length, 2))
        )
        offset = float(rng.uniform(0.0, 1.0))
        all_ok = all_ok and verify_transform_condition(
            TransformSpec(offset), config, points, tol=EXACT_GATE
        )
    report(11, "transform-condition", all_ok, "(100 sampled instances, tol 1e-9)")


def test_criterion_12_deterministic_reports():
    ok = True
    for suite, instances in (
        ("stir1", 3),
        ("exact-gnz", 5),
        ("mc-poisson", 5000),
        ("transform-invariance", 300),
    ):
        bodies = []
        for _ in range(2):
            stream = io.StringIO()
            run_suite(SuiteConfig(suite, 1212, instances, {}), stream)
            lines = stream.getvalue().splitlines()
            bodies.append(lines[1:])
            header = json.loads(lines[0])
            assert header["record"] == "header"
        ok = ok and bodies[0] == bodies[1]
    report(12, "determinism", ok, "(4 suites, byte-identical bodies)")
