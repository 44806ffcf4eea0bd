"""Identity evaluator tests: every report must close to float roundoff."""

import math
from itertools import combinations, permutations, product

import pytest

from ppmoments.difference_ops import diff_multi
from ppmoments.finite_model import (
    FiniteModel,
    GroundSpace,
    pairwise_log_density,
    poisson_log_density,
)
from ppmoments.identities import (
    MAX_IDENTITY_SITES,
    CoverConditionError,
    DisjointnessError,
    NotPoissonError,
    RandomWeightError,
    dtheta_joint_expansion,
    factorial_moment_identity,
    joint_factorial_identity,
    partition_moment_identity,
    poisson_independence_check,
    region_count,
    stirling_moment_identity,
    validate_disjoint,
)
from ppmoments.instances import generate_random_instance

GATE = 1e-9


def test_report_fields():
    model = FiniteModel(GroundSpace((1.0, 1.0)), poisson_log_density())
    report = factorial_moment_identity(model, lambda c: 1.0, lambda x, c: True, 1)
    assert report.abs_gap == abs(report.lhs - report.rhs)
    assert report.rel_gap == report.abs_gap / (
        1.0 + max(abs(report.lhs), abs(report.rhs))
    )
    record = report.to_dict()
    assert "name" in record and "rel_gap" in record


def test_factorial_zero_functional():
    model = FiniteModel(GroundSpace((0.8, 1.2)), poisson_log_density())
    report = factorial_moment_identity(model, lambda c: 0.0, lambda x, c: True, 2)
    assert report.lhs == 0.0 and report.rhs == 0.0


def test_factorial_poisson_deterministic_region_closed_form():
    # q = 1, deterministic region: both sides equal the sum over distinct
    # tuples of inclusion probabilities sigma/(1 + sigma)
    weights = (0.5, 0.9, 1.3)
    model = FiniteModel(GroundSpace(weights), poisson_log_density())
    region = lambda x, cfg: x <= 1
    report = factorial_moment_identity(model, lambda c: 1.0, region, 2)
    probs = [w / (1 + w) for w in weights[:2]]
    expected = 2 * probs[0] * probs[1]
    assert report.lhs == pytest.approx(expected, rel=1e-12)
    assert report.rel_gap <= GATE


def test_factorial_order_exceeding_region_capacity():
    model = FiniteModel(GroundSpace((1.0, 1.0, 1.0)), poisson_log_density())
    region = lambda x, cfg: x == 0
    report = factorial_moment_identity(model, lambda c: 1.0, region, 2)
    assert report.lhs == pytest.approx(0.0, abs=1e-14)
    assert report.rhs == pytest.approx(0.0, abs=1e-14)


def test_factorial_random_instances():
    for seed in range(30):
        bundle = generate_random_instance(
            "factorial", {"m_min": 3, "m_max": 7, "n_max": 3}, 200 + seed
        )
        report = factorial_moment_identity(
            bundle["model"], bundle["functional"], bundle["region"], bundle["n"]
        )
        assert report.rel_gap <= GATE, report.to_dict()


def test_factorial_order_one_matches_gnz():
    # n = 1 must coincide with the GNZ residual for u = F(omega) 1_A(x)
    bundle = generate_random_instance(
        "factorial", {"m_min": 4, "m_max": 6, "n_max": 1}, 77
    )
    model, functional, region = bundle["model"], bundle["functional"], bundle["region"]
    report = factorial_moment_identity(model, functional, region, 1)
    kernel = lambda x, cfg: functional(cfg) * (1.0 if region(x, cfg) else 0.0)
    lhs, rhs = model.gnz_residual(kernel)
    assert report.lhs == pytest.approx(lhs, rel=1e-12, abs=1e-12)
    assert report.rhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_joint_reduces_to_single_region():
    bundle = generate_random_instance(
        "factorial", {"m_min": 4, "m_max": 6, "n_max": 2}, 31
    )
    model, functional, region = bundle["model"], bundle["functional"], bundle["region"]
    single = factorial_moment_identity(model, functional, region, 2)
    joint = joint_factorial_identity(model, functional, [region], [2])
    assert joint.lhs == pytest.approx(single.lhs, rel=1e-12, abs=1e-12)
    assert joint.rhs == pytest.approx(single.rhs, rel=1e-12, abs=1e-12)


def test_joint_random_instances():
    for seed in range(20):
        bundle = generate_random_instance(
            "joint", {"m_min": 4, "m_max": 7, "n_max": 4}, 500 + seed
        )
        report = joint_factorial_identity(
            bundle["model"], bundle["functional"], bundle["regions"], bundle["orders"]
        )
        assert report.rel_gap <= GATE, report.to_dict()


def test_joint_overlapping_regions_rejected():
    model = FiniteModel(GroundSpace((1.0,) * 4), poisson_log_density())
    a = lambda x, cfg: x < 2
    b = lambda x, cfg: x < 3
    with pytest.raises(DisjointnessError):
        joint_factorial_identity(model, lambda c: 1.0, [a, b], [1, 1])


def test_stirling_order_one_equals_factorial():
    bundle = generate_random_instance(
        "stirling", {"m_min": 3, "m_max": 6, "n_max": 1}, 41
    )
    model, functional, region = bundle["model"], bundle["functional"], bundle["region"]
    a = stirling_moment_identity(model, functional, region, 1)
    b = factorial_moment_identity(model, functional, region, 1)
    assert a.lhs == pytest.approx(b.lhs, rel=1e-12, abs=1e-12)
    assert a.rhs == pytest.approx(b.rhs, rel=1e-12, abs=1e-12)


def test_stirling_random_instances():
    for seed in range(20):
        bundle = generate_random_instance(
            "stirling", {"m_min": 3, "m_max": 6, "n_max": 3}, 900 + seed
        )
        report = stirling_moment_identity(
            bundle["model"], bundle["functional"], bundle["region"], bundle["n"]
        )
        assert report.rel_gap <= GATE, report.to_dict()


def test_partition_zero_kernel():
    model = FiniteModel(GroundSpace((1.0, 1.0)), poisson_log_density())
    report = partition_moment_identity(model, lambda x, c: 0.0, 3)
    assert report.lhs == 0.0 and report.rhs == 0.0


def test_partition_indicator_kernel_matches_stirling():
    # u = 1_A for a random region: the partition identity reduces to the
    # raw moment of N(A)
    bundle = generate_random_instance(
        "stirling", {"m_min": 3, "m_max": 6, "n_max": 3}, 55
    )
    model, region = bundle["model"], bundle["region"]
    n = bundle["n"]
    kernel = lambda x, cfg: 1.0 if region(x, cfg) else 0.0
    a = partition_moment_identity(model, kernel, n)
    b = stirling_moment_identity(model, lambda c: 1.0, region, n)
    assert a.lhs == pytest.approx(b.lhs, rel=1e-11, abs=1e-11)
    assert a.rhs == pytest.approx(b.rhs, rel=1e-11, abs=1e-11)


def test_partition_random_instances():
    for seed in range(20):
        bundle = generate_random_instance(
            "partition", {"m_min": 3, "m_max": 6, "n_max": 3}, 700 + seed
        )
        report = partition_moment_identity(bundle["model"], bundle["kernel"], bundle["n"])
        assert report.rel_gap <= GATE, report.to_dict()


def test_partition_simple_process_composition():
    # u = F_1 1_{A_1} + F_2 1_{A_2} with disjoint regions: the moment of the
    # sum decomposes through the multinomial expansion, an independent path
    bundle = generate_random_instance(
        "joint", {"m_min": 5, "m_max": 6, "n_max": 2}, 63
    )
    model, regions = bundle["model"], bundle["regions"]
    f1 = lambda cfg: 1.0 + 0.25 * len(cfg)
    f2 = lambda cfg: 0.5 - 0.1 * len(cfg)

    def kernel(x, cfg):
        if regions[0](x, cfg):
            return f1(cfg)
        if regions[1](x, cfg):
            return f2(cfg)
        return 0.0

    n = 3
    report = partition_moment_identity(model, kernel, n)
    assert report.rel_gap <= GATE

    def summand(cfg):
        return f1(cfg) * region_count(regions[0], cfg) + f2(cfg) * region_count(
            regions[1], cfg
        )

    brute = model.expectation(lambda cfg: summand(cfg) ** n)
    assert report.lhs == pytest.approx(brute, rel=1e-11, abs=1e-11)
    # multinomial decomposition over the two disjoint summands
    total = 0.0
    for k in range(n + 1):
        coeff = math.comb(n, k)
        total += coeff * model.expectation(
            lambda cfg, k=k: (f1(cfg) * region_count(regions[0], cfg)) ** k
            * (f2(cfg) * region_count(regions[1], cfg)) ** (n - k)
        )
    assert total == pytest.approx(report.lhs, rel=1e-11, abs=1e-11)


def test_dtheta_three_way_agreement():
    for seed in range(10):
        bundle = generate_random_instance(
            "dtheta", {"m_min": 4, "m_max": 6, "n_max": 3}, 1500 + seed
        )
        direct = joint_factorial_identity(
            bundle["model"], bundle["functional"], bundle["regions"], bundle["orders"]
        )
        expansion = dtheta_joint_expansion(
            bundle["model"], bundle["functional"], bundle["regions"], bundle["orders"]
        )
        assert direct.rel_gap <= GATE
        assert expansion.rel_gap <= GATE
        cross = abs(expansion.rhs - direct.lhs) / (
            1 + max(abs(expansion.rhs), abs(direct.lhs))
        )
        assert cross <= GATE


def test_dtheta_deterministic_regions_only_empty_subset_survives():
    # deterministic regions and constant F: D_Theta kills every nonempty
    # Theta, so the expansion equals the direct representation trivially
    model = FiniteModel(GroundSpace((0.7, 1.1, 0.5, 0.9)), poisson_log_density())
    a = lambda x, cfg: x in (0, 1)
    b = lambda x, cfg: x == 2
    report = dtheta_joint_expansion(model, lambda c: 1.0, [a, b], [1, 1])
    assert report.rel_gap <= GATE


def test_poisson_independence_deterministic_regions():
    weights = (0.4, 0.4, 1.0, 1.0, 0.6)
    model = FiniteModel(GroundSpace(weights), poisson_log_density())
    regions = [lambda x, cfg: x in (0, 1), lambda x, cfg: x in (2, 3)]
    reports = poisson_independence_check(model, regions, 3)
    assert len(reports) > 0
    for report in reports:
        assert report.rel_gap <= GATE, report.to_dict()
    # single region order 1: mean equals sum of inclusion probabilities
    mean_report = next(r for r in reports if r.parameters["orders"] == [1, 1])
    p0 = 0.4 / 1.4
    p2 = 1.0 / 2.0
    assert mean_report.rhs == pytest.approx((2 * p0) * (2 * p2), rel=1e-12)


def test_poisson_independence_swap_regions():
    for seed in range(8):
        bundle = generate_random_instance(
            "independence", {"m_min": 6, "m_max": 8, "n_max": 3}, 2500 + seed
        )
        reports = poisson_independence_check(
            bundle["model"], bundle["regions"], bundle["max_order"]
        )
        assert reports
        for report in reports:
            assert report.rel_gap <= GATE, report.to_dict()


def _site_counts(model, regions):
    """The site count of each region, which the independence check requires
    to be the same at every configuration."""
    return [int(table[:, 0].sum()) for table in validate_disjoint(model, regions)]


def test_poisson_independence_orders_above_170():
    # 171! does not convert to a float; the orders stop at the site count
    bundle = generate_random_instance(
        "independence", {"m_min": 8, "m_max": 8, "n_max": 3}, 2550
    )
    regions = bundle["regions"][:1]
    (sites,) = _site_counts(bundle["model"], regions)
    assert sites == 2
    reports = poisson_independence_check(bundle["model"], regions, 171)
    assert [r.parameters["orders"] for r in reports] == [[k] for k in range(1, sites + 1)]
    for report in reports:
        assert report.rel_gap <= GATE, report.to_dict()


def _independence_cases():
    """(model, regions) of three generated bundles and of fixed regions of
    3, 2 and 1 sites."""
    for seed in range(3):
        bundle = generate_random_instance(
            "independence", {"m_min": 6, "m_max": 8, "n_max": 3}, 2650 + seed
        )
        yield bundle["model"], bundle["regions"]
    model = FiniteModel(GroundSpace((0.4, 1.3, 0.8, 1.0, 0.6, 2.0)), poisson_log_density())
    yield model, [lambda x, cfg: x < 3, lambda x, cfg: x in (3, 4), lambda x, cfg: x == 5]


@pytest.mark.parametrize("max_order", [1, 3, 40])
def test_poisson_independence_orders_stop_at_each_region_site_count(max_order):
    # above a region's site count both sides are 0, and such a record tests
    # nothing; every order up to the site counts is still checked, in order
    for model, regions in _independence_cases():
        sites = _site_counts(model, regions)
        reports = poisson_independence_check(model, regions, max_order)
        expected = [list(orders) for orders in product(*(range(1, k + 1) for k in sites))
                    if sum(orders) <= max_order]
        assert [r.parameters["orders"] for r in reports] == expected
        for report in reports:
            assert report.rel_gap <= GATE, report.to_dict()
            assert report.rhs > 0.0


def test_poisson_independence_calls_each_region_once_per_site_and_configuration():
    # validate_disjoint tabulates R[x, mask]; the cover check reads that
    # table and never calls a region again
    for seed in range(3):
        bundle = generate_random_instance(
            "independence", {"m_min": 6, "m_max": 8, "n_max": 3}, 2600 + seed
        )
        model = bundle["model"]
        calls = [0] * len(bundle["regions"])

        def counted(index, region):
            def wrapped(x, cfg):
                calls[index] += 1
                return region(x, cfg)

            return wrapped

        regions = [counted(i, region) for i, region in enumerate(bundle["regions"])]
        assert poisson_independence_check(model, regions, bundle["max_order"])
        assert calls == [model.m << model.m] * len(regions)


def test_poisson_independence_error_discrimination():
    pairwise = FiniteModel(
        GroundSpace((1.0,) * 4), pairwise_log_density(0.5, [(0, 1)])
    )
    with pytest.raises(NotPoissonError):
        poisson_independence_check(pairwise, [lambda x, c: x == 0], 2)

    poisson = FiniteModel(GroundSpace((1.0,) * 4), poisson_log_density())

    def varying_weight(x, cfg):
        return (x < 2) if len(cfg) % 2 == 0 else (x < 1)

    with pytest.raises(RandomWeightError):
        poisson_independence_check(poisson, [varying_weight], 2)

    def self_dependent(x, cfg):
        if len(cfg & {0}) % 2 == 0:
            return x == 0
        return x == 1

    with pytest.raises(CoverConditionError):
        poisson_independence_check(poisson, [self_dependent], 2)

    overlapping = [lambda x, c: x < 2, lambda x, c: x < 3]
    with pytest.raises(DisjointnessError):
        poisson_independence_check(poisson, overlapping, 2)


_TWO_SITES = FiniteModel(GroundSpace((1.0, 1.0)), poisson_log_density())
_SITE_REGIONS = [lambda x, c: x == 0, lambda x, c: x == 1]


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: factorial_moment_identity(
            FiniteModel(GroundSpace((1.0,) * (MAX_IDENTITY_SITES + 1)), poisson_log_density()),
            lambda c: 1.0, lambda x, c: True, 1),
         f"at most {MAX_IDENTITY_SITES} sites"),
        (lambda: poisson_independence_check(_TWO_SITES, _SITE_REGIONS, 0),
         "max_order must be positive"),
        (lambda: poisson_independence_check(_TWO_SITES, [], 2), "at least one region"),
    ],
    ids=["above-max-identity-sites", "independence-max-order-0", "independence-no-regions"],
)
def test_guards_name_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_order_guard():
    model = FiniteModel(GroundSpace((1.0, 1.0)), poisson_log_density())
    region = lambda x, c: True
    regions = [lambda x, c: x == 0, lambda x, c: x == 1]
    for n in (0, 5):
        with pytest.raises(ValueError):
            factorial_moment_identity(model, lambda c: 1.0, region, n)
        with pytest.raises(ValueError):
            stirling_moment_identity(model, lambda c: 1.0, region, n)
    with pytest.raises(ValueError):
        partition_moment_identity(model, lambda x, c: 1.0, 0)
    for evaluate in (joint_factorial_identity, dtheta_joint_expansion):
        with pytest.raises(ValueError):
            evaluate(model, lambda c: 1.0, regions, [1])
        with pytest.raises(ValueError):
            evaluate(model, lambda c: 1.0, regions, [3, 2])
    with pytest.raises(ValueError):
        joint_factorial_identity(model, lambda c: 1.0, regions, [0, 1])
    # the difference expansion accepts a zero order: region 0 carries no
    # tuple coordinate
    report = dtheta_joint_expansion(model, lambda c: 1.0, regions, [0, 1])
    assert report.rel_gap <= GATE


def test_validate_disjoint_is_exhaustive_at_eleven_sites():
    # the regions overlap at site 1 exactly when site 0 is present
    model = FiniteModel(GroundSpace((1.0,) * 11), poisson_log_density())
    a = lambda x, cfg: x == 1
    b = lambda x, cfg: x == 1 and 0 in cfg
    with pytest.raises(DisjointnessError):
        validate_disjoint(model, [a, b])
    with pytest.raises(DisjointnessError):
        joint_factorial_identity(model, lambda c: 1.0, [a, b], [1, 1])


def test_hard_core_callables_never_see_forbidden_configurations():
    pairs = [(0, 1), (1, 2), (3, 4)]
    space = GroundSpace((0.6, 1.2, 0.9, 0.5, 1.4))
    model = FiniteModel(space, pairwise_log_density(0.0, pairs))

    def allowed(cfg):
        if any(a in cfg and b in cfg for a, b in pairs):
            raise AssertionError(f"called on forbidden configuration {sorted(cfg)}")

    def functional(cfg):
        allowed(cfg)
        return 1.0 + 0.5 * len(cfg)

    def kernel(x, cfg):
        allowed(cfg)
        return 0.5 + x

    region = lambda x, cfg: x != 2
    regions = [lambda x, cfg: x < 2, lambda x, cfg: x in (3, 4)]
    model.expectation(functional)
    model.gnz_residual(kernel)
    reports = [
        factorial_moment_identity(model, functional, region, 2),
        stirling_moment_identity(model, functional, region, 3),
        partition_moment_identity(model, kernel, 3),
        joint_factorial_identity(model, functional, regions, [1, 1]),
        dtheta_joint_expansion(model, functional, regions, [1, 2]),
    ]
    assert all(report.rel_gap <= GATE for report in reports)


def _loop_rhs(model, k, integrand):
    """Reference right side: sum over ordered k-tuples t and configurations
    omega of w(t) P(omega) chat(t, omega) integrand(t, omega), one term at a
    time through the public accessors."""
    total = 0.0
    for t in permutations(range(model.m), k):
        weight = math.prod(model.weights[x] for x in t)
        for mask in range(1 << model.m):
            omega = model.config(mask)
            chat = model.compound_campbell(t, omega)
            if chat != 0.0:
                total += weight * model.probability(omega) * chat * integrand(t, omega)
    return total


def test_tabulated_right_sides_match_loop_reference():
    bundle = generate_random_instance("joint", {"m_min": 6, "m_max": 6, "n_max": 3}, 81)
    model, functional, regions = bundle["model"], bundle["functional"], bundle["regions"]
    orders = [1, 2]
    slots = [regions[0], regions[1], regions[1]]

    def indicator_integrand(t, omega):
        up = omega | set(t)
        if all(region(x, up) for x, region in zip(t, slots)):
            return functional(up)
        return 0.0

    joint = joint_factorial_identity(model, functional, regions, orders)
    assert joint.rhs == pytest.approx(_loop_rhs(model, 3, indicator_integrand), rel=1e-12)

    factorial = factorial_moment_identity(model, functional, regions[1], 2)
    expected = _loop_rhs(
        model,
        2,
        lambda t, omega: functional(omega | set(t))
        * all(regions[1](x, omega | set(t)) for x in t),
    )
    assert factorial.rhs == pytest.approx(expected, rel=1e-12)

    kernel = lambda x, cfg: 0.3 + 0.1 * x - 0.2 * len(cfg)
    partition = partition_moment_identity(model, kernel, 2)
    # partitions of {1, 2}: one block of size 2, or two singleton blocks
    expected = _loop_rhs(model, 1, lambda t, omega: kernel(t[0], omega | set(t)) ** 2)
    expected += _loop_rhs(
        model,
        2,
        lambda t, omega: kernel(t[0], omega | set(t)) * kernel(t[1], omega | set(t)),
    )
    assert partition.rhs == pytest.approx(expected, rel=1e-12)

    # the expansion through the public multi-point difference operator
    def expanded_integrand(t, omega):
        def h(cfg):
            if all(region(x, cfg) for x, region in zip(t, slots)):
                return functional(cfg)
            return 0.0

        return sum(
            diff_multi(h, theta)(omega)
            for size in range(len(t) + 1)
            for theta in combinations(t, size)
        )

    dtheta = dtheta_joint_expansion(model, functional, regions, orders)
    assert dtheta.rhs == pytest.approx(_loop_rhs(model, 3, expanded_integrand), rel=1e-12)
