"""Geometry and invariance tests for the hull-conditioned transformation."""

import io
import math
import warnings
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from scipy import stats

from ppmoments import cli, montecarlo, transforms
from ppmoments.difference_ops import _covers_vanish
from ppmoments.montecarlo import (
    P_GATE,
    Z_GATE,
    PoissonModel,
    StraussModel,
    Window,
    _batch,
    _chat,
    _neighbours,
    _strauss_chains,
    compound_papangelou,
    sample_many,
    sample_poisson,
)
from ppmoments.transforms import (
    _BLOCK,
    Box,
    Disk,
    HullFrame,
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

from conftest import assert_no_children

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
    candidates, interior = _hull_candidates(x, y)
    assert candidates.tolist() == [[True, False, True, False, True]]
    assert interior.tolist() == [[False, True, False, True, False]]
    # the filter does drop most of a default-size sample, and what it drops
    # in the disk is the certified interior
    candidates, interior = _hull_candidates(xs[:300], ys[:300])
    in_disk = xs[:300] ** 2 + ys[:300] ** 2 <= 1.0
    assert candidates.sum() < 0.3 * in_disk.sum()
    assert np.array_equal(candidates | interior, in_disk) and not (candidates & interior).any()


def _kernel_cases():
    """Rows that press on the hull kernel's rounds, ties and exact fallback."""
    # a convex lower arc whose last point drops far below it: a round
    # deletes only the arc's last interior vertex
    arc = [(t, 0.5 * t * t - 0.2) for t in np.linspace(-0.6, 0.2, 12).tolist()] + [(0.3, -0.9)]
    # columns of equal x, every point twice
    ties = [(x, y) for x in (-0.4, 0.0, 0.4) for y in (0.3, -0.3, 0.1)] * 2 + [(0.0, -0.5)]
    # (0.25, 0.25) turns left or right of (0, 0) -> (0.5, 0.5 +- ulp) by a
    # hair that only the Fraction fallback of orientation decides
    fallback = [[(0.0, 0.0), (0.0, 0.6), (0.25, 0.25), (0.5, 0.5 + 2.0**-53)],
                [(0.0, 0.0), (0.0, 0.6), (0.25, 0.25), (0.5, 0.5 - 2.0**-54)]]
    # triples whose rounded determinant has the wrong sign: exactly a left
    # turn where it reads 0, and a right turn where it reads a left one;
    # with a point on either side, each turn is on the lower and the upper
    # chain in turn
    for a, b, c in (((-0.288549152555149, 0.29014438711287527),
                     (0.293119104539025, 0.468308969851169),
                     (0.49759678278284836, 0.5309403405324603)),
                    ((-0.4310515691860674, -0.22805048207624545),
                     (-0.13410796229604643, -0.16333035683152144),
                     (0.5092590373235354, -0.023105776043953252))):
        fallback += [[a, b, c, (0.0, 0.8)], [a, b, c, (0.0, -0.8)]]
    # on the unit circle: the axis points exactly, others to the nearest float
    circle = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (0.6, 0.8), (-0.8, 0.6)] + [
        (math.cos(t), math.sin(t)) for t in np.linspace(0.0, 2.0 * math.pi, 50).tolist()
    ]
    few = [[], [(0.1, 0.2)], [(0.1, 0.2)] * 3, [(0.1, 0.2), (-0.3, 0.4)],
           [(0.1, 0.2), (2.0, 0.0), (0.0, 2.0), (1.5, -1.5)]]
    collinear = [[(0.1 * k, -0.05 * k) for k in (3, -6, 0, 6, -2)],
                 [(0.3, 0.1 * k) for k in (3, -2, 5, 0, -7)],
                 [(0.1 * k, -0.4) for k in (4, -3, 0, 4)]]
    return [arc, ties, *fallback, circle, *few, *collinear]


def test_hull_kernel_equals_the_monotone_chain_row_by_row(monkeypatch):
    cases = _kernel_cases()
    xs, ys, _ = _batch([np.array(case, dtype=float).reshape(-1, 2) for case in cases])
    expected = [_unfiltered_hull(case) for case in cases]
    # the few-point and collinear rows, the last eight, have no hull
    assert [hull is None for hull in expected[-8:]] == [True] * 8
    calls = []
    exact = transforms.orientation

    def counting(a, b, c):
        calls.append(exact(a, b, c))
        return calls[-1]

    monkeypatch.setattr(transforms, "orientation", counting)
    # the vertices and their order, behind the prefilter and without it,
    # where the kernel meets every point in the disk
    assert _hulls(xs, ys) == expected
    # the float filter leaves turns of every sign to the exact test
    assert set(calls) == {-1, 0, 1}
    monkeypatch.setattr(transforms, "_hull_candidates",
                        lambda x, y: (x * x + y * y <= 1.0, np.zeros(x.shape, dtype=bool)))
    assert _hulls(xs, ys) == expected
    cases = _prefilter_cases()
    xs, ys, _ = _batch([np.array(case, dtype=float).reshape(-1, 2) for case in cases])
    assert _hulls(xs, ys) == [_unfiltered_hull(case) for case in cases]


def test_the_transform_suites_run_no_monotone_chain(monkeypatch):
    # convex_hull stays as the reference of the tests above; the suites find
    # their hulls with the array kernel alone
    def chain(points):
        raise AssertionError("convex_hull called")

    monkeypatch.setattr(transforms, "convex_hull", chain)
    for suite in ("transform-invariance", "rho-tau"):
        stream = io.StringIO()
        assert cli.run_suite(cli.SuiteConfig(suite, 1, 300), stream) == cli.EXIT_PASS, suite


def _reference_counts(offset, window, intensity, regions, n_replicates, seed):
    """The replicate counts, each replicate of sample_many through hull_frame."""
    counts = np.zeros((n_replicates, len(regions)), dtype=np.int64)
    samples = sample_many(PoissonModel(window, intensity), n_replicates, seed)
    for rep, sample in enumerate(samples):
        points = np.array(sorted(sample)).reshape(-1, 2)
        frame = hull_frame(sample)
        if frame is not None and offset != 0.0:
            points = frame.rotate(offset, points)
        counts[rep] = [np.count_nonzero(region.contains(*points.T)) for region in regions]
    return counts


def test_block_counts_equal_the_per_replicate_reference(monkeypatch, processes, forks):
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
    # 130 replicates in stream blocks of 50, 50 and 30: full row blocks and
    # a partial one at every row block size
    monkeypatch.setattr(montecarlo, "BLOCK_REPLICATES", 50)
    stream_blocks = (50, 50, 30)
    # the forks of each _map call, one call per stream block
    map_forks = []
    share = transforms._map

    def counting_map(function, items):
        before = len(forks)
        yield from share(function, items)
        map_forks.append(len(forks) - before)

    monkeypatch.setattr(transforms, "_map", counting_map)
    for seed in (1, 17, 9001):
        for offset, intensity, regions in ((0.37, 40.0, invariance_regions),
                                           (0.37, 30.0, grid), (0.0, 30.0, grid)):
            expected = _reference_counts(offset, window, intensity, regions, 130, seed)
            # row blocks that split the stream blocks, and _BLOCK, which
            # holds a whole one
            for block, count in product((1, 7, 32, _BLOCK), (1, 2, 3)):
                monkeypatch.setattr(transforms, "_BLOCK", block)
                processes(count)
                map_forks.clear()
                counts = _transformed_counts(
                    TransformSpec(offset), window, intensity, regions, 130, seed
                )
                assert np.array_equal(counts, expected), (seed, offset, block, count)
                # per stream block, one child per further process, at most
                # one per further row block
                assert map_forks == [min(count, -(-size // block)) - 1
                                     for size in stream_blocks]
                assert_no_children()


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


def _all_edges_inside(hulls, x, y):
    """The oracle of the certified interior, per point of row b of a block:
    it moves when it lies in the closed unit disk, strictly left of every
    counterclockwise edge of hulls[b] in the float arithmetic of the edge
    test, and off the hull's vertex centroid. Rows without a hull get NaN
    vertices, which pass no edge test."""
    longest = max((len(hull) for hull in hulls if hull), default=1)
    vertices = np.array([
        [hull[c % len(hull)] for c in range(longest + 1)] if hull else [(math.nan,) * 2] * (longest + 1)
        for hull in hulls
    ])
    inside = x * x + y * y <= 1.0
    for c in range(longest):
        (ax, ay), (bx, by) = vertices[:, c].T[..., None], vertices[:, c + 1].T[..., None]
        inside &= (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0.0
    # the vertex centroid, summed in vertex order as _Frames sums it
    anchors = np.array([[sum(v[k] for v in hull) / len(hull) for k in (0, 1)] if hull
                        else (math.nan, math.nan) for hull in hulls])
    return inside & ((x != anchors[:, :1]) | (y != anchors[:, 1:]))


def _assert_own_points_move_as_the_oracle_says(xs, ys):
    """_tau of a block's own points, where the prefilter's certified interior
    skips the edge test, against the oracle point for point, and against
    _tau of copies of the points, where every disk point takes it."""
    x, y = transforms._tau(0.37, xs, ys, xs, ys)
    tested_x, tested_y = transforms._tau(0.37, xs, ys, xs.copy(), ys.copy())
    assert np.array_equal(x, tested_x, equal_nan=True)
    assert np.array_equal(y, tested_y, equal_nan=True)
    moved = ((x != xs) | (y != ys)) & ~np.isnan(xs)
    assert np.array_equal(moved, _all_edges_inside(_hulls(xs, ys), xs, ys))
    return moved


def test_the_certified_interior_moves_as_the_edge_test_does():
    square = [(x, y) for x in (-0.5, 0.5) for y in (-0.5, 0.5)]
    # exactly representable points on the square's edges, its anchor (the
    # origin), interior points, and duplicates
    on_edges = [(0.5, 0.25), (0.0, 0.5), (-0.5, -0.125), (0.25, -0.5), (-0.5, 0.375)]
    inner = [(0.1, 0.2), (-0.3, 0.05), (0.0, 0.0), (0.4375, -0.4375)]
    edges_row = square + on_edges + inner + on_edges[:2] + inner + square[:1]
    # vertices on the unit circle, with points a few ulps outside and inside
    # it next to each, off the radius by up to a few ulps of angle
    circle = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (0.6, 0.8), (-0.8, -0.6)]
    near = [
        (math.cos(t) * (1.0 + k * 2.0**-52), math.sin(t) * (1.0 + k * 2.0**-52))
        for vx, vy in circle
        for t in (math.atan2(vy, vx) + d * 1e-15 for d in (-4, -1, 0, 1, 4))
        for k in (-3, -1, 1, 2, 5)
    ]
    rim_row = circle + near + [(0.1, -0.2), (0.0, 0.3)]
    # points an ulp from a vertex on the circle that the disk test puts
    # outside the disk and the edge test alone strictly inside the hull
    across_rim = [
        [(-0.8800804354039584, 0.47482462785662144), (-0.9334142937309382, 0.3588004407170841),
         (-0.995403278685624, -0.0957721921118545), (-0.9681244036211054, -0.25046983673344575),
         (0.5296988711018027, -0.8481857732557625), (0.5296988711018028, -0.8481857732557626)],
        [(-0.30479704495361354, 0.9524173252243708), (-0.9634366576998004, 0.26793619874932495),
         (-0.9997751875905456, -0.021203166704273406), (-0.9227782576674413, -0.3853313991569354),
         (-0.3047970449536134, 0.952417325224371)],
    ]
    for row in across_rim:
        x, y = row[-1]
        hull = convex_hull(row[:-1])
        assert x * x + y * y > 1.0 and _strictly_inside(hull, (x, y))
    rng = np.random.default_rng(57)
    samples = [rng.uniform(-1.05, 1.05, (40, 2)).tolist() for _ in range(20)]
    cases = [edges_row, rim_row, *across_rim, *samples, *_prefilter_cases(), *_kernel_cases()]
    xs, ys, _ = _batch([np.array(case, dtype=float).reshape(-1, 2) for case in cases])
    _assert_own_points_move_as_the_oracle_says(xs, ys)
    # the rim row holds points outside the disk
    assert not (xs[1] ** 2 + ys[1] ** 2 <= 1.0).all()
    # every default-size block of the transform suites' sample, its first
    # _BLOCK rows at seeds 1 to 50; most of its moved points are certified
    certified = moved = 0
    for seed in range(1, 51):
        stream = next(iter(montecarlo._block_streams(seed, 10_000)))
        xs, ys, n = montecarlo._poisson_batch(DISK_WINDOW, 40.0, [stream])
        xs, ys, n = xs[:_BLOCK, : n[:_BLOCK].max()], ys[:_BLOCK, : n[:_BLOCK].max()], n[:_BLOCK]
        moved += _assert_own_points_move_as_the_oracle_says(xs, ys).sum()
        certified += transforms._hull_vertices(xs, ys)[3].sum()
    assert 0.8 * moved < certified <= moved


def test_hull_frame_degenerate_cases():
    assert hull_frame(frozenset()) is None
    assert hull_frame(frozenset({(0.1, 0.1), (0.3, 0.3)})) is None
    collinear = frozenset({(0.0, 0.0), (0.2, 0.2), (0.4, 0.4)})
    assert hull_frame(collinear) is None
    outside = frozenset({(2.0, 0.0), (0.0, 2.0), (2.0, 2.0)})
    assert hull_frame(outside) is None
    with pytest.raises(ValueError, match="at least 3 vertices"):
        HullFrame(((0.1, 0.1), (0.3, 0.3)))


def test_blocks_without_a_point_or_a_hull_map_to_zero_counts():
    # at this intensity every replicate is empty: each block is one column
    # of NaN padding, and the second holds a single replicate
    box = Box(-0.5, 0.5, -0.5, 0.5)
    counts = _transformed_counts(TransformSpec(0.3), DISK_WINDOW, 1e-9, [box], _BLOCK + 1, 1)
    assert counts.shape == (_BLOCK + 1, 1) and not counts.any()
    x = np.full((2, 1), np.nan)
    assert np.array_equal(transforms._tau(0.3, x, x, x, x), (x, x), equal_nan=True)


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


def _count_shift(offset, xs, ys, x, y):
    """A mutant of transforms._tau: an image that moves with the number of
    configuration points in the disk depends on points that are not
    extremal, so D_x tau(x, .) != 0 wherever a tuple point in the disk
    changes that number."""
    shift = 0.01 * (np.hypot(xs, ys) <= 1.0).sum(axis=1)[:, None]
    return x + shift, y + shift


def test_verify_transform_condition_rejects_a_map_of_interior_points(monkeypatch):
    # negative control: under _count_shift the cover condition must fail
    config = sample_poisson(BIG_WINDOW, 10.0, 31)
    tuples = [((0.1, 0.2),), ((0.1, 0.2), (-0.3, 0.1)), ((0.1, 0.2), (-0.3, 0.1), (0.2, -0.4))]
    for points in tuples:
        assert verify_transform_condition(TransformSpec(0.3), config, points, 1e-9)
    monkeypatch.setattr(transforms, "_tau", _count_shift)
    for points in tuples:
        assert not verify_transform_condition(TransformSpec(0.3), config, points, 1e-9)


def _reference_condition(spec, config, points, tol):
    """The cover condition of one instance, its augmented configurations
    made as frozensets: the reference of the batched checks."""
    pts = tuple(map(tuple, points))
    m = len(pts)
    xs, ys, _ = montecarlo._batch_of(
        config | frozenset(pts[i] for i in range(m) if eta >> i & 1) for eta in range(1 << m)
    )
    x, y = np.broadcast_to(np.array(pts, dtype=float).T[:, None], (2, 1 << m, m))
    x, y = transforms._tau(spec.rotation_offset, xs, ys, x, y)
    table = np.stack([x.T, y.T, *(Box(*box).contains(x.T, y.T) for box in transforms._TEST_BOXES)])
    for columns in (range(2), range(2, 2 + len(transforms._TEST_BOXES))):
        assignments = np.array(list(product(columns, repeat=m)))
        if not _covers_vanish(table[assignments, np.arange(m)], tol).all():
            return False
    return True


def _parity_shift(offset, xs, ys, x, y):
    """A mutant of transforms._tau that moves every image by 1e-12, below the
    tolerance, when the configuration has an odd number of disk points: of
    a tuple point on the edge of a test box, only the box's indicator sees
    it."""
    shift = 1e-12 * ((np.hypot(xs, ys) <= 1.0).sum(axis=1) % 2)[:, None]
    return x + shift, y + shift


@pytest.mark.parametrize("mutant", [None, _count_shift, _parity_shift],
                         ids=["tau", "count-shift", "parity-shift"])
def test_batched_condition_verdicts_equal_one_instance_verdicts(monkeypatch, mutant):
    rng = np.random.default_rng(14)
    instances = []
    for k in range(240):
        # sparse samples too, so that some have fewer than 3 disk points
        config = sample_poisson(BIG_WINDOW, float(rng.choice([0.3, 1.0, 4.0, 10.0])), rng)
        points = rng.uniform(-1.1, 1.1, (int(rng.integers(1, 4)), 2)).tolist()
        # every fourth tuple starts on the right edge of the first test box
        instances.append((config, [[0.0, -0.3]] + points[1:] if k % 4 == 0 else points))
    assert len(instances) > 2 * transforms._CONDITION_CHUNK
    assert {len(points) for _, points in instances} == {1, 2, 3}
    assert sum(sum(x * x + y * y <= 1.0 for x, y in config) < 3 for config, _ in instances) > 20
    if mutant:
        monkeypatch.setattr(transforms, "_tau", mutant)
    spec = TransformSpec(0.41)
    checked = list(transforms._checked_conditions(spec, iter(instances), 1e-9))
    assert [instance for instance, _ in checked] == [(c, tuple(p)) for c, p in instances]
    batched = [ok for _, ok in checked]
    assert batched == [verify_transform_condition(spec, c, p, 1e-9) for c, p in instances]
    assert batched == [_reference_condition(spec, c, p, 1e-9) for c, p in instances]
    # the mutant fails some instances and passes others
    assert all(batched) if not mutant else 0 < sum(batched) < len(batched)


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
    # when every cell pools into one there is nothing to test
    assert poisson_count_gof(np.zeros(3, dtype=np.int64), 0.1) == (0.0, 0, 1.0)


# seeds of a seeded statistical test: its first seed and the ones after it
SEED_COUNT = 10
# the chance that a seeded statistical test fails when every gate fails
# independently at its nominal rate
SEEDED_ALPHA = 1e-3
NOMINAL_RATE = {P_GATE: P_GATE, Z_GATE: math.erfc(Z_GATE / math.sqrt(2.0))}
DISK_WINDOW = Window(-1.05, 1.05, -1.05, 1.05)
INVARIANCE_REGIONS = [
    Box(-0.6, -0.2, -0.2, 0.2),
    Box(0.2, 0.6, -0.2, 0.2),
    Box(-0.2, 0.2, 0.3, 0.62),
]


def failure_bound(gates: Counter) -> int:
    """The smallest k with P(X > k) <= SEEDED_ALPHA, for X the failures of
    gates[gate] gates of each gate, each failing independently at its
    nominal rate."""
    pmf = np.ones(1)
    for gate, trials in gates.items():
        pmf = np.convolve(pmf, stats.binom.pmf(np.arange(trials + 1), trials, NOMINAL_RATE[gate]))
    bound = 0
    while 1.0 - pmf[:bound + 1].sum() > SEEDED_ALPHA:
        bound += 1
    return bound


def seeded_gate_failures(suite, first_seed: int) -> tuple[list, int, dict]:
    """The (seed, row) of every row of suite(seed) that fails its cli gate,
    over SEED_COUNT seeds from first_seed on; the failure_bound of all the
    rows' gates; and the rows of first_seed."""
    gates, failures, results = Counter(), [], []
    for seed in range(first_seed, first_seed + SEED_COUNT):
        results.append(suite(seed))
        for row in (row for group in results[-1].values() for row in group):
            gated = cli._gated(row)
            gates[gated["gate"]] += 1
            if not gated["passed"]:
                failures.append((seed, row))
    return failures, failure_bound(gates), results[0]


def rotated_invariance(seed: int) -> dict:
    return invariance_suite(
        TransformSpec(0.37), DISK_WINDOW, 40.0, INVARIANCE_REGIONS, 2000, seed
    )


def rotated_rho_tau(seed: int) -> dict:
    return rho_tau_check(TransformSpec(0.37), DISK_WINDOW, 25.0, 1200, seed)


def test_failure_bound_follows_the_nominal_rates():
    assert failure_bound(Counter()) == 0
    # one gate: the binomial tail
    for gate, trials in ((P_GATE, 3000), (Z_GATE, 450)):
        bound = failure_bound(Counter({gate: trials}))
        rate = NOMINAL_RATE[gate]
        assert stats.binom.sf(bound, trials, rate) <= SEEDED_ALPHA
        assert stats.binom.sf(bound - 1, trials, rate) > SEEDED_ALPHA
    # both gates, as in rotated_invariance over its seeds: 30 p gates and
    # 120 z gates give P(X > 0) = 0.037 and P(X > 1) = 7e-4
    assert failure_bound(Counter({P_GATE: 30, Z_GATE: 120})) == 1


def test_invariance_suite_offset_zero_matches_poisson_exactly():
    regions = INVARIANCE_REGIONS[:2]
    failures, bound, rows = seeded_gate_failures(
        lambda seed: invariance_suite(TransformSpec(0.0), DISK_WINDOW, 30.0, regions, 800, seed),
        5,
    )
    assert len(failures) <= bound, failures
    assert [(kind, len(group)) for kind, group in rows.items()] == [
        ("gof", 2), ("covariance", 1), ("moment", 6)
    ]


def test_invariance_suite_rotated_counts_stay_poisson():
    failures, bound, _ = seeded_gate_failures(rotated_invariance, 17)
    assert len(failures) <= bound, failures


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
    failures, bound, rows = seeded_gate_failures(rotated_rho_tau, 19)
    assert len(failures) <= bound, failures
    assert [(name, len(group)) for name, group in rows.items()] == [
        ("rho-tau-first", 9), ("rho-tau-second", 36)
    ]


def test_rho_tau_offset_zero_baseline():
    failures, bound, _ = seeded_gate_failures(
        lambda seed: rho_tau_check(TransformSpec(0.0), DISK_WINDOW, 20.0, 600, seed, grid_size=2),
        23,
    )
    assert len(failures) <= bound, failures


_rotate = transforms._Frames.rotate


def _keep_distance(frames, offset, x, y):
    """The star rotation, but each moved point keeps its distance from the
    anchor: the rescale rho' = rho R(phi')/R(phi) that preserves area is
    skipped."""
    new_x, new_y = _rotate(frames, offset, x, y)
    if not len(frames.anchor):
        return new_x, new_y
    moved = (new_x != x) | (new_y != y)
    # the anchor of each block row; a row without a hull has no moved point
    ax, ay = frames.anchor[frames.row, :1], frames.anchor[frames.row, 1:]
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.hypot(x - ax, y - ay) / np.hypot(new_x - ax, new_y - ay)
    return (np.where(moved, ax + scale * (new_x - ax), new_x),
            np.where(moved, ay + scale * (new_y - ay), new_y))


@pytest.mark.parametrize(
    "suite,first_seed", [(rotated_invariance, 17), (rotated_rho_tau, 19)],
    ids=["invariance", "rho-tau"],
)
def test_seeded_gates_fail_on_a_map_that_skips_the_area_rescale(monkeypatch, suite, first_seed):
    monkeypatch.setattr(transforms._Frames, "rotate", _keep_distance)
    failures, bound, _ = seeded_gate_failures(suite, first_seed)
    assert len(failures) > bound


def test_the_map_that_skips_the_rescale_leaves_blocks_without_a_hull_alone(monkeypatch):
    # rows of two points and of none: the block has no hull, so the tables are empty
    monkeypatch.setattr(transforms._Frames, "rotate", _keep_distance)
    x, y = np.array([[0.1, -0.2], [np.nan, np.nan]]), np.array([[0.3, 0.1], [np.nan, np.nan]])
    assert np.array_equal(transforms._tau(0.3, x, y, x, y), (x, y), equal_nan=True)
