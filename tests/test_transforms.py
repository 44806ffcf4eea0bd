"""Geometry and invariance tests for the hull-conditioned transformation."""

import math
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from ppmoments import transforms
from ppmoments.montecarlo import (
    StraussModel,
    Window,
    _batch,
    _chat,
    _neighbours,
    _strauss_chains,
    compound_papangelou,
    sample_poisson,
)
from ppmoments.transforms import (
    _BLOCK,
    Box,
    Disk,
    TransformSpec,
    apply_tau,
    convex_hull,
    hull_frame,
    invariance_suite,
    orientation,
    poisson_count_gof,
    push_forward,
    _hull_candidates,
    _hulls,
    _transformed_counts,
    region_from_config,
    regions_disjoint,
    rho_tau_check,
    verify_transform_condition,
)

BIG_WINDOW = Window(-1.2, 1.2, -1.2, 1.2)
SQUARE = frozenset([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])


def brute_force_extreme_points(points):
    """Oracle: p is extreme iff it lies in no triangle or segment spanned by
    other points (exact rational arithmetic)."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    extreme = []
    for idx, p in enumerate(pts):
        others = [q for j, q in enumerate(pts) if j != idx]
        inside = False
        for a, b, c in combinations(others, 3):
            if _in_triangle(p, a, b, c):
                inside = True
                break
        if not inside:
            for a, b in combinations(others, 2):
                if _on_segment(p, a, b):
                    inside = True
                    break
        if not inside:
            extreme.append(points[idx])
    return set(extreme)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _in_triangle(p, a, b, c):
    d1 = _cross(a, b, p)
    d2 = _cross(b, c, p)
    d3 = _cross(c, a, p)
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)


def _on_segment(p, a, b):
    if _cross(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _strictly_inside(vertices, point):
    """Strict interior test of a counterclockwise polygon: left of every edge."""
    n = len(vertices)
    for k in range(n):
        (ax, ay), (bx, by) = vertices[k], vertices[(k + 1) % n]
        if (bx - ax) * (point[1] - ay) - (by - ay) * (point[0] - ax) <= 0.0:
            return False
    return True


def _reference_tau(vertices, offset, point):
    """The star rotation of the module docstring, one point at a time.

    Acum(phi') = (Acum(phi) + offset * T) mod T and rho' = rho R(phi') / R(phi)
    about the vertex centroid. R(phi) is the first exit of the ray from the
    half-planes of the edges, Acum(phi) the triangle areas swept from vertex 0.
    """
    if not _strictly_inside(vertices, point):
        return point
    n = len(vertices)
    cx = sum(v[0] for v in vertices) / n
    cy = sum(v[1] for v in vertices) / n
    rel = [(x - cx, y - cy) for x, y in vertices]
    nxt = rel[1:] + rel[:1]
    edges = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(rel, nxt)]
    tri = [0.5 * (a[0] * e[1] - a[1] * e[0]) for a, e in zip(rel, edges)]
    total = sum(tri)
    rho = math.hypot(point[0] - cx, point[1] - cy)
    if rho == 0.0:
        return point
    phi = math.atan2(point[1] - cy, point[0] - cx)
    ux, uy = math.cos(phi), math.sin(phi)
    exits = [
        (2.0 * tri[k] / (ux * e[1] - uy * e[0]), k)
        for k, e in enumerate(edges)
        if ux * e[1] - uy * e[0] > 0.0
    ]
    radius, k = min(exits)
    a = rel[k]
    swept = sum(tri[:k]) + 0.5 * radius * (a[0] * uy - a[1] * ux)
    target = (swept + offset * total) % total
    j = 0
    while j < n - 1 and sum(tri[: j + 1]) <= target:
        j += 1
    f = (target - sum(tri[:j])) / tri[j]
    bx = rel[j][0] + f * edges[j][0]
    by = rel[j][1] + f * edges[j][1]
    scale = rho / radius
    return (cx + scale * bx, cy + scale * by)


def test_rotate_matches_the_scalar_reference():
    rng = np.random.default_rng(21)
    checked = fixed = 0
    for _ in range(40):
        config = frozenset(
            map(tuple, rng.uniform(-1.0, 1.0, (int(rng.integers(3, 30)), 2)).tolist())
        )
        frame = hull_frame(config)
        if frame is None:
            continue
        verts = frame.extremal_vertices
        n = len(verts)
        t = rng.random((n, 1))
        edge_points = [
            (verts[k][0] + t[k, 0] * (verts[(k + 1) % n][0] - verts[k][0]),
             verts[k][1] + t[k, 0] * (verts[(k + 1) % n][1] - verts[k][1]))
            for k in range(n)
        ]
        outside = rng.uniform(-1.0, 1.0, (20, 2)) * 1.5
        outside = outside[np.hypot(outside[:, 0], outside[:, 1]) > 1.0]
        points = np.array(
            list(map(tuple, rng.uniform(-1.0, 1.0, (200, 2)).tolist()))
            + list(verts) + edge_points + [frame.anchor]
            + list(map(tuple, outside.tolist()))
        )
        offset = float(rng.random())
        images = frame.rotate(offset, points)
        for point, image in zip(map(tuple, points.tolist()), images.tolist()):
            expected = _reference_tau(verts, offset, point)
            if expected is point:
                assert tuple(image) == point
                fixed += 1
            else:
                assert image == pytest.approx(expected, rel=0.0, abs=1e-12)
                checked += 1
    assert checked > 1000 and fixed > 1000


def test_orientation_signs_and_exact_fallback():
    assert orientation((0, 0), (1, 0), (0, 1)) == 1
    assert orientation((0, 0), (0, 1), (1, 0)) == -1
    assert orientation((0, 0), (1, 1), (2, 2)) == 0
    # nearly collinear: the float determinant is below the filter threshold,
    # so the rational fallback decides the sign exactly
    a = (0.0, 0.0)
    b = (1.0, 1.0)
    c = (2.0, 2.0 + 2.0**-51)
    assert orientation(a, b, c) == 1
    assert orientation(a, b, (2.0, 2.0 - 2.0**-51)) == -1


def test_convex_hull_drops_interior_and_collinear():
    square_plus = list(SQUARE) + [(0.0, 0.0), (0.0, -0.5)]
    hull = convex_hull(square_plus)
    assert set(hull) == set(SQUARE)
    assert len(hull) == 4


def test_convex_hull_matches_brute_force_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        points = [tuple(map(float, rng.uniform(-1, 1, 2))) for _ in range(n)]
        hull = convex_hull(points)
        assert set(hull) == brute_force_extreme_points(points)


def test_convex_hull_ccw_orientation():
    hull = convex_hull(list(SQUARE) + [(0.1, 0.2)])
    area2 = 0.0
    for i in range(len(hull)):
        a = hull[i]
        b = hull[(i + 1) % len(hull)]
        area2 += a[0] * b[1] - a[1] * b[0]
    assert area2 > 0.0


def _unfiltered_hull(points):
    """The reference: the monotone chain on every point in the closed disk."""
    hull = convex_hull([p for p in points if p[0] * p[0] + p[1] * p[1] <= 1.0])
    return tuple(hull) if len(hull) >= 3 else None


def _poisson_points(window, intensity, rng):
    """One Poisson sample drawn alone from rng: its count, then its points."""
    return window.sample_points(rng, int(rng.poisson(intensity * window.area)))


def _prefilter_cases():
    rng = np.random.default_rng(33)
    disk_window = Window(-1.05, 1.05, -1.05, 1.05)
    samples = [
        list(map(tuple, _poisson_points(disk_window, 40.0, rng).tolist()))
        for _ in range(300)
    ]
    duplicated = [s + s[::3] for s in samples[:20]]
    # a diamond with exactly representable points on every edge of the
    # polygon the prefilter builds, and interior points
    diamond = [(0.5, 0.0), (0.0, 0.5), (-0.5, 0.0), (0.0, -0.5)]
    on_edges = [
        (t * a[0] + (1 - t) * b[0], t * a[1] + (1 - t) * b[1])
        for a, b in zip(diamond, diamond[1:] + diamond[:1])
        for t in (0.25, 0.5, 0.75)
    ]
    square = [(x, y) for x in (-0.5, 0.0, 0.5) for y in (-0.5, 0.0, 0.5)]
    circle = [
        (math.cos(t), math.sin(t)) for t in rng.uniform(0.0, 2.0 * math.pi, 40)
    ]
    degenerate = [
        [(0.3, 0.2)] * 5,
        [(0.3, 0.2), (-0.1, 0.4)] * 3,
        [(0.1 * k, 0.05 * k) for k in range(-5, 6)],
        [(0.0, 0.1 * k) for k in range(-5, 6)],
        [(0.2, 0.2), (0.2, 0.2), (-0.3, 0.1), (-0.3, 0.1), (0.0, -0.4)],
    ]
    few = [[], [(0.1, 0.1)], [(0.1, 0.1), (0.5, -0.2)], [(2.0, 0.0), (0.0, 2.0), (1.5, 1.5)],
           [(0.1, 0.1), (0.5, -0.2), (3.0, 3.0)]]
    return samples + duplicated + [diamond + on_edges + [(0.1, 0.1)], square,
                                   on_edges, circle] + degenerate + few


def test_prefilter_never_changes_a_hull():
    cases = _prefilter_cases()
    xs, ys, _ = _batch([np.array(case, dtype=float).reshape(-1, 2) for case in cases])
    assert _hulls(xs, ys) == [_unfiltered_hull(case) for case in cases]
    for case in cases:
        frame = hull_frame(case)
        reference = _unfiltered_hull(case)
        assert (frame and frame.extremal_vertices) == (reference and tuple(reference))
    # a triangle is extreme in several directions at each vertex: the
    # polygon's zero-length edges do not stop it dropping interior points
    triangle = np.array([(0.8, 0.0), (0.0, 0.0), (-0.4, 0.6), (0.1, 0.1), (-0.4, -0.6)])
    x, y = triangle.T[:, None]
    assert _hull_candidates(x, y).tolist() == [[True, False, True, False, True]]
    # the filter does drop most of a default-size sample
    kept = _hull_candidates(xs[:300], ys[:300]).sum(axis=1)
    in_disk = (xs[:300] ** 2 + ys[:300] ** 2 <= 1.0).sum(axis=1)
    assert kept.sum() < 0.3 * in_disk.sum()


def _reference_counts(offset, window, intensity, regions, n_replicates, seed):
    """The replicate counts, one replicate at a time through hull_frame."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = np.zeros((n_replicates, len(regions)), dtype=np.int64)
    for rep in range(n_replicates):
        points = _poisson_points(window, intensity, rng)
        frame = hull_frame(map(tuple, points.tolist()))
        if frame is not None and offset != 0.0:
            points = frame.rotate(offset, points)
        counts[rep] = [np.count_nonzero(region.contains(*points.T)) for region in regions]
    return counts


def test_block_counts_equal_the_per_replicate_reference(monkeypatch):
    window = Window(-1.05, 1.05, -1.05, 1.05)
    invariance_regions = [
        Box(-0.6, -0.2, -0.2, 0.2), Box(0.2, 0.6, -0.2, 0.2), Disk(0.0, 0.45, 0.15)
    ]
    step = 1.4 / 3
    grid = [
        Box(-0.7 + i * step, -0.7 + (i + 1) * step, -0.7 + j * step, -0.7 + (j + 1) * step)
        for i in range(3)
        for j in range(3)
    ]
    # 130 replicates: full blocks and a partial one at every block size
    for seed in (1, 17, 9001):
        for offset, intensity, regions in ((0.37, 40.0, invariance_regions),
                                           (0.37, 30.0, grid), (0.0, 30.0, grid)):
            expected = _reference_counts(offset, window, intensity, regions, 130, seed)
            for block in (1, 7, _BLOCK):
                monkeypatch.setattr(transforms, "_BLOCK", block)
                counts = _transformed_counts(
                    TransformSpec(offset), window, intensity, regions, 130, seed
                )
                assert np.array_equal(counts, expected), (seed, offset, block)


def test_padding_is_inert_on_rows_of_any_length():
    # one batch of rows from 0 to 300 points: its padding must neither warn
    # (warnings are errors here) nor change any row's images, region counts
    # or neighbour counts against the same row alone
    rng = np.random.default_rng(41)
    samples = [rng.uniform(-1.05, 1.05, (k, 2)) for k in (0, 300, 1, 3, 0, 40, 2, 120)]
    regions = [Box(-0.6, -0.2, -0.2, 0.2), Disk(0.0, 0.45, 0.15)]
    px, py = rng.uniform(-1.0, 1.0, (2, len(samples), 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs, ys, n = _batch(samples)
        x, y = transforms._tau(0.37, xs, ys, xs, ys)
        near = _neighbours(xs, ys, px[:, 0], py[:, 0], 0.09)
        for b, sample in enumerate(samples):
            row_xs, row_ys, _ = _batch([sample])
            row_x, row_y = transforms._tau(0.37, row_xs, row_ys, row_xs, row_ys)
            assert np.array_equal(x[b, : n[b]], row_x[0, : n[b]])
            assert np.array_equal(y[b, : n[b]], row_y[0, : n[b]])
            for region in regions:
                assert np.count_nonzero(region.contains(x[b], y[b])) == np.count_nonzero(
                    region.contains(row_x, row_y)
                )
            assert near[b] == _neighbours(row_xs, row_ys, px[b], py[b], 0.09)[0]

        # the lockstep chains grow, shrink and empty their rows in one batch
        model = StraussModel(Window(0.0, 1.0, 0.0, 1.0), 4.0, 0.5, 0.15)
        chains = _strauss_chains(model, 200, [(np.random.default_rng([5, b]), 1)
                                              for b in range(40)])
        assert chains[2].min() == 0 and chains[2].max() >= 6
        points = rng.random((40, 2, 2))
        chat = _chat(model, chains, points)
        for b in range(40):
            xs, ys, n = _strauss_chains(model, 200, [(np.random.default_rng([5, b]), 1)])
            assert np.array_equal(chains[0][b, : n[0]], xs[0, : n[0]])
            assert np.array_equal(chains[1][b, : n[0]], ys[0, : n[0]])
            config = frozenset(zip(xs[0, : n[0]].tolist(), ys[0, : n[0]].tolist()))
            assert chat[b] == compound_papangelou(model, points[b].tolist(), config)


def test_hull_frame_degenerate_cases():
    assert hull_frame(frozenset()) is None
    assert hull_frame(frozenset({(0.1, 0.1), (0.3, 0.3)})) is None
    collinear = frozenset({(0.0, 0.0), (0.2, 0.2), (0.4, 0.4)})
    assert hull_frame(collinear) is None
    outside = frozenset({(2.0, 0.0), (0.0, 2.0), (2.0, 2.0)})
    assert hull_frame(outside) is None


def test_hull_frame_restricted_to_unit_disk():
    config = SQUARE | {(3.0, 3.0), (-2.0, 1.0)}
    frame = hull_frame(config)
    assert frame is not None
    assert set(frame.extremal_vertices) == set(SQUARE)
    assert frame.total_area == pytest.approx(1.0)
    assert frame.anchor == pytest.approx((0.0, 0.0))


def test_hull_frame_boundary_radius():
    # an eighth turn on the square moves a ray at angle phi to phi + pi/4 and
    # scales its points by R(phi + pi/4) / R(phi), where the boundary radius R
    # is 0.5 along the axes and sqrt(2)/2 towards the corners
    frame = hull_frame(SQUARE)
    radius = {0.0: 0.5, math.pi / 4: math.sqrt(2) / 2, math.pi / 2: 0.5}
    for phi, target in ((0.0, math.pi / 4), (math.pi / 4, math.pi / 2)):
        rho = 0.3 * radius[phi]
        point = (rho * math.cos(phi), rho * math.sin(phi))
        image = frame.rotate(0.125, np.array([point]))[0]
        scaled = rho * radius[target] / radius[phi]
        assert image == pytest.approx(
            (scaled * math.cos(target), scaled * math.sin(target)), abs=1e-12
        )
    # the boundary itself sits at R(phi): just inside moves, just outside not
    for phi, r in radius.items():
        u = np.array([math.cos(phi), math.sin(phi)])
        inner, outer = frame.rotate(0.125, np.array([(r - 1e-9) * u, (r + 1e-9) * u]))
        assert not np.allclose(inner, (r - 1e-9) * u)
        assert np.array_equal(outer, (r + 1e-9) * u)


def test_apply_tau_offset_zero_is_identity():
    spec = TransformSpec(0.0)
    assert apply_tau(spec, (0.2, 0.1), SQUARE) == (0.2, 0.1)


def test_apply_tau_fixes_non_interior_points():
    spec = TransformSpec(0.41)
    assert apply_tau(spec, (0.9, 0.9), SQUARE) == (0.9, 0.9)
    for vertex in SQUARE:
        assert apply_tau(spec, vertex, SQUARE) == vertex
    assert apply_tau(spec, (0.0, 0.0), SQUARE) == (0.0, 0.0)  # anchor


def test_apply_tau_equilateral_triangle_is_rotation():
    triangle = [
        (math.cos(a), math.sin(a)) for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
    ]
    config = frozenset(triangle)
    spec = TransformSpec(1.0 / 3.0)
    frame = hull_frame(config)
    cos120, sin120 = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(100):
        w = rng.dirichlet([1.0, 1.0, 1.0])
        x = (
            sum(wi * p[0] for wi, p in zip(w, triangle)),
            sum(wi * p[1] for wi, p in zip(w, triangle)),
        )
        if not _strictly_inside(frame.extremal_vertices, x):
            continue
        image = apply_tau(spec, x, config)
        expected = (cos120 * x[0] - sin120 * x[1], sin120 * x[0] + cos120 * x[1])
        assert image == pytest.approx(expected, abs=1e-9)
        checked += 1
    assert checked > 50


def test_apply_tau_preserves_area_on_random_boxes():
    frame = hull_frame(SQUARE)
    rng = np.random.default_rng(10)
    n = 60_000
    points = rng.random((n, 2)) - 0.5
    images = frame.rotate(0.37, points)
    for _ in range(4):
        x0, y0 = rng.uniform(-0.45, 0.2, 2)
        w, h = rng.uniform(0.05, 0.25, 2)
        box = Box(x0, x0 + w, y0, y0 + h)
        inside_before = int(np.count_nonzero(box.contains(*points.T)))
        inside_after = int(np.count_nonzero(box.contains(*images.T)))
        p = inside_before / n
        se = math.sqrt(2 * p * (1 - p) / n)
        assert abs(inside_after - inside_before) / n <= 5 * se


def test_apply_tau_depends_only_on_extremal_vertices():
    spec = TransformSpec(0.29)
    config = sample_poisson(BIG_WINDOW, 20.0, 15)
    frame = hull_frame(config)
    assert frame is not None
    reduced = frozenset(frame.extremal_vertices)
    for point in list(config)[:12]:
        assert apply_tau(spec, point, config) == apply_tau(spec, point, reduced)


def test_push_forward_identity_cases():
    spec = TransformSpec(0.0)
    config = sample_poisson(BIG_WINDOW, 10.0, 1)
    assert push_forward(spec, config) == config
    tiny = frozenset({(0.1, 0.1), (0.2, 0.3)})
    assert push_forward(TransformSpec(0.5), tiny) == tiny


def test_push_forward_preserves_cardinality():
    spec = TransformSpec(0.37)
    for seed in range(40):
        config = sample_poisson(BIG_WINDOW, 12.0, 100 + seed)
        assert len(push_forward(spec, config)) == len(config)


def test_tau_differences_vanish_when_hull_is_stable():
    # adding points inside the hull leaves the extremal vertices unchanged,
    # so tau(x, omega u eta) = tau(x, omega) exactly for every such eta
    spec = TransformSpec(0.52)
    config = SQUARE | {(0.2, 0.1)}
    interior_extras = [(0.05, -0.1), (-0.2, 0.2), (0.3, -0.3)]
    probes = [(0.2, 0.1), (0.05, -0.1), (0.9, 0.9)]
    for x in probes:
        base = apply_tau(spec, x, config)
        for k in range(1, len(interior_extras) + 1):
            augmented = config | frozenset(interior_extras[:k])
            assert apply_tau(spec, x, augmented) == base


def test_verify_transform_condition_sampled_instances():
    rng = np.random.default_rng(6)
    for seed in range(20):
        config = sample_poisson(BIG_WINDOW, 10.0, 300 + seed)
        length = int(rng.integers(1, 4))
        points = tuple(
            (float(x), float(y)) for x, y in rng.uniform(-1.1, 1.1, (length, 2))
        )
        offset = float(rng.uniform(0.0, 1.0))
        assert verify_transform_condition(TransformSpec(offset), config, points, 1e-9)


def test_verify_transform_condition_offset_zero_and_guard():
    config = sample_poisson(BIG_WINDOW, 8.0, 77)
    assert verify_transform_condition(
        TransformSpec(0.0), config, ((0.1, 0.1), (0.4, -0.2)), 1e-12
    )
    with pytest.raises(ValueError):
        verify_transform_condition(TransformSpec(0.1), config, ((0.0, 0.0),) * 4)


def test_verify_transform_condition_rejects_a_map_of_interior_points(monkeypatch):
    # negative control: an image that moves with the number of configuration
    # points in the disk depends on points that are not extremal, so
    # D_x tau(x, .) != 0 and the cover condition must fail
    def count_shift(offset, xs, ys, x, y):
        shift = 0.01 * (np.hypot(xs, ys) <= 1.0).sum(axis=1)[:, None]
        return x + shift, y + shift

    config = sample_poisson(BIG_WINDOW, 10.0, 31)
    tuples = [((0.1, 0.2),), ((0.1, 0.2), (-0.3, 0.1)), ((0.1, 0.2), (-0.3, 0.1), (0.2, -0.4))]
    for points in tuples:
        assert verify_transform_condition(TransformSpec(0.3), config, points, 1e-9)
    monkeypatch.setattr(transforms, "_tau", count_shift)
    for points in tuples:
        assert not verify_transform_condition(TransformSpec(0.3), config, points, 1e-9)


def test_transform_spec_validation():
    with pytest.raises(ValueError):
        TransformSpec(1.0)
    with pytest.raises(ValueError):
        TransformSpec(-0.1)


def test_region_helpers():
    box = Box(-0.5, 0.0, -0.5, 0.0)
    disk = Disk(0.4, 0.4, 0.2)
    assert box.area == pytest.approx(0.25)
    assert disk.area == pytest.approx(math.pi * 0.04)
    assert box.contains(-0.25, -0.25)
    assert not box.contains(0.1, -0.25)
    assert disk.contains(0.4, 0.5)
    # arrays: closed at the boundary, corners and edges included
    on_box = np.array([(-0.5, -0.5), (0.0, 0.0), (-0.5, -0.2), (-0.3, 0.0), (0.0, -0.5)])
    assert box.contains(*on_box.T).tolist() == [True] * 5
    off_box = np.array([(-0.5 - 1e-12, -0.2), (-0.2, 1e-12), (0.1, 0.1)])
    assert box.contains(*off_box.T).tolist() == [False] * 3
    on_disk = np.array([(0.6, 0.4), (0.4, 0.2), (0.2, 0.4), (0.4, 0.4)])
    assert disk.contains(*on_disk.T).tolist() == [True] * 4
    off_disk = np.array([(0.6 + 1e-12, 0.4), (0.4, 0.2 - 1e-12), (0.0, 0.0)])
    assert disk.contains(*off_disk.T).tolist() == [False] * 3
    # NaN, the padding of a batch, is in no region
    assert box.contains(*np.full((2, 3), np.nan)).tolist() == [False] * 3
    assert disk.contains(*np.full((2, 3), np.nan)).tolist() == [False] * 3
    assert box.contains(*np.empty((2, 0))).shape == (0,)
    assert Box is Window
    assert regions_disjoint(box, disk)
    assert not regions_disjoint(box, Box(-0.6, -0.4, -0.6, -0.4))
    assert region_from_config(
        {"type": "box", "x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1}
    ) == Box(0, 1, 0, 1)
    assert region_from_config({"type": "disk", "cx": 0, "cy": 0, "radius": 0.5}) == Disk(
        0, 0, 0.5
    )
    with pytest.raises(ValueError):
        region_from_config({"type": "square"})


def test_poisson_count_gof_calibration():
    rng = np.random.default_rng(123)
    counts = rng.poisson(5.0, size=20_000)
    stat, dof, p = poisson_count_gof(counts, 5.0)
    assert dof >= 2
    assert p > 1e-3
    # a clearly wrong mean is rejected
    _, _, p_bad = poisson_count_gof(counts, 7.0)
    assert p_bad < 1e-6


def test_invariance_suite_offset_zero_matches_poisson_exactly():
    regions = [Box(-0.6, -0.2, -0.2, 0.2), Box(0.2, 0.6, -0.2, 0.2)]
    report = invariance_suite(
        TransformSpec(0.0), Window(-1.05, 1.05, -1.05, 1.05), 30.0, regions, 800, 5
    )
    assert report.passed()
    payload = report.to_dict()
    assert len(payload["gof"]) == 2
    assert len(payload["covariances"]) == 1
    assert len(payload["moments"]) == 6


def test_invariance_suite_rotated_counts_stay_poisson():
    regions = [
        Box(-0.6, -0.2, -0.2, 0.2),
        Box(0.2, 0.6, -0.2, 0.2),
        Box(-0.2, 0.2, 0.3, 0.62),
    ]
    report = invariance_suite(
        TransformSpec(0.37), Window(-1.05, 1.05, -1.05, 1.05), 40.0, regions, 2000, 17
    )
    assert report.passed(), report.to_dict()


def test_invariance_suite_geometry_validation():
    window = Window(-1.05, 1.05, -1.05, 1.05)
    with pytest.raises(ValueError):
        invariance_suite(
            TransformSpec(0.1), Window(0, 1, 0, 1), 5.0, [Box(-0.1, 0.1, -0.1, 0.1)], 10, 0
        )
    with pytest.raises(ValueError):
        invariance_suite(TransformSpec(0.1), window, 5.0, [Box(0.8, 1.2, 0.8, 1.2)], 10, 0)
    with pytest.raises(ValueError):
        invariance_suite(
            TransformSpec(0.1), window, 5.0,
            [Box(-0.2, 0.2, -0.2, 0.2), Box(-0.1, 0.1, -0.1, 0.1)], 10, 0,
        )


def test_rho_tau_check_constant_correlation():
    report = rho_tau_check(
        TransformSpec(0.37), Window(-1.05, 1.05, -1.05, 1.05), 25.0, 1200, 19
    )
    assert report.passed(), report.to_dict()
    payload = report.to_dict()
    assert len(payload["first_moments"]) == 9
    assert len(payload["second_moments"]) == 36


def test_rho_tau_offset_zero_baseline():
    report = rho_tau_check(
        TransformSpec(0.0), Window(-1.05, 1.05, -1.05, 1.05), 20.0, 600, 23, grid_size=2
    )
    assert report.passed()
