import hashlib
import math
import os
import re
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import uavrf.layout as layout
from uavrf.layout import (
    Deployment,
    _candidate,
    _grid,
    _hex_candidate,
    _points,
    _row_counts,
    _unit_layout,
    _worst_cover_distance,
    build_deployment,
    layout_positions,
    num_uavs,
)
from uavrf.patterns import Rect, Subregion, constant_pattern
from uavrf.scenario import load_scenario
from uavrf.scheduling import SchedulePlan


def worst_cover_ratio(rect: Rect, count: int, radius: float, res: int = 200) -> float:
    pts = layout_positions(rect, count, 10.0)[:, :2]
    gx = np.linspace(rect.x, rect.x + rect.width, res)
    gy = np.linspace(rect.y, rect.y + rect.height, res)
    grid = np.stack(np.meshgrid(gx, gy), axis=-1).reshape(-1, 2)
    d = np.sqrt(((grid[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
    return float(d.max()) / radius


def test_num_uavs_examples():
    radius = 50.0
    assert num_uavs(math.pi * radius * radius, radius) == 1
    assert num_uavs(1e6, 327.3) == 3  # ceil(2.972)
    assert num_uavs(100.0, 1e9) == 1  # floor of one UAV
    with pytest.raises(ValueError):
        num_uavs(0.0, 10.0)
    with pytest.raises(ValueError):
        num_uavs(10.0, 0.0)


def test_num_uavs_arrays_entry_by_entry():
    rng = np.random.default_rng(3)
    areas = rng.lognormal(12.0, 2.0, size=(4, 1))
    radii = rng.lognormal(4.0, 1.5, size=(4, 500))
    counts = num_uavs(areas, radii)
    assert counts.dtype == np.int64 and counts.shape == (4, 500)
    assert counts.tolist() == [
        [max(1, math.ceil(area / (math.pi * r * r))) for r in row]
        for area, row in zip(areas[:, 0].tolist(), radii.tolist())
    ]
    assert type(num_uavs(1e6, 327.3)) is int
    with pytest.raises(ValueError, match=r"^radius must be finite and positive, got nan at index"):
        num_uavs(areas, np.array([[1.0, np.nan]]))
    # R R underflows to 0, or the count leaves int64: raise, never wrap
    with pytest.raises(OverflowError, match="does not fit an int64"):
        num_uavs(areas, np.full((4, 2), 1e-160))
    with pytest.raises(OverflowError, match="does not fit an int64"):
        num_uavs(1e300, 1e-3)


def test_num_uavs_monotone_in_radius():
    radii = np.linspace(20.0, 600.0, 100)
    counts = [num_uavs(1e6, r) for r in radii]
    assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_single_uav_at_center():
    rect = Rect(100.0, 200.0, 400.0, 600.0)
    pts = layout_positions(rect, 1, 120.0)
    assert pts.shape == (1, 3)
    assert tuple(pts[0]) == (300.0, 500.0, 120.0)


def test_four_in_square_is_grid():
    rect = Rect(0.0, 0.0, 800.0, 800.0)
    pts = layout_positions(rect, 4, 50.0)
    got = {tuple(p[:2]) for p in pts}
    assert got == {(200.0, 200.0), (200.0, 600.0), (600.0, 200.0), (600.0, 600.0)}
    # 180-degree rotation about the center maps the set onto itself
    rotated = {(800.0 - x, 800.0 - y) for x, y in got}
    assert rotated == got


def test_layout_deterministic():
    rect = Rect(0.0, 0.0, 500.0, 1000.0)
    a = layout_positions(rect, 9, 100.0)
    b = layout_positions(rect, 9, 100.0)
    assert np.array_equal(a, b)


def test_layout_inside_rect_and_altitude():
    rect = Rect(-200.0, 50.0, 500.0, 1000.0)
    for count in (1, 2, 5, 9, 23, 40):
        pts = layout_positions(rect, count, 77.0)
        assert pts.shape == (count, 3)
        assert np.all(pts[:, 2] == 77.0)
        for x, y, _ in pts:
            assert rect.contains(x, y)


def test_layout_count_validation():
    rect = Rect(0, 0, 10, 10)
    with pytest.raises(ValueError, match="count must be at least 1"):
        layout_positions(rect, 0, 1.0)
    with pytest.raises(ValueError):
        layout_positions(rect, 2, -1.0)
    for count in (3.0, 2.5, True, np.bool_(True), np.float64(3.0), "3", None):
        with pytest.raises(ValueError, match="^count must be an integer, got "):
            layout_positions(rect, count, 1.0)
    want = layout_positions(rect, 3, 1.0)
    for count in (np.int64(3), np.int32(3), np.uint8(3)):
        assert layout_positions(rect, count, 1.0).tobytes() == want.tobytes()


def test_coverage_single_uav_regime():
    # one UAV whose disk spans the rectangle: trivially within slack
    rect = Rect(0.0, 0.0, 500.0, 1000.0)
    for radius in (600.0, 900.0):
        assert num_uavs(rect.area, radius) == 1
        assert worst_cover_ratio(rect, 1, radius) <= 1.2


def test_coverage_with_ceiling_relief():
    # the 1.2 slack is only geometrically reachable when the integer
    # fleet size sits comfortably above area/(pi R^2); near the exact
    # ceiling even provably optimal disk coverings exceed it (covering a
    # square with 9 disks needs 1.226x the naive radius), so assert the
    # tight bound on relieved configurations only
    cases = [
        (Rect(0, 0, 700, 400), 130.0, 6),
        (Rect(0, 0, 700, 400), 210.0, 3),
        (Rect(0, 0, 700, 400), 250.0, 2),
        (Rect(0, 0, 500, 1000), 150.0, 8),
        (Rect(0, 0, 500, 1000), 280.0, 3),
        (Rect(0, 0, 500, 1000), 320.0, 2),
        (Rect(0, 0, 1000, 1000), 310.0, 4),
        (Rect(0, 0, 1000, 1000), 500.0, 2),
        (Rect(0, 0, 900, 600), 40.0, 108),
        (Rect(0, 0, 900, 600), 180.0, 6),
    ]
    for rect, radius, expected_n in cases:
        n = num_uavs(rect.area, radius)
        assert n == expected_n
        assert worst_cover_ratio(rect, n, radius) <= 1.2, (rect, radius, n)


def test_coverage_envelope_near_ceiling():
    # adversarial near-ceiling counts: the lattice stays within 1.5x
    rect_cases = [
        (Rect(0, 0, 500, 1000), (60.0, 90.0, 137.0, 180.0, 250.0)),
        (Rect(0, 0, 1000, 1000), (90.0, 137.0, 250.0)),
        (Rect(0, 0, 700, 400), (60.0, 110.0, 180.0)),
    ]
    for rect, radii in rect_cases:
        for radius in radii:
            n = num_uavs(rect.area, radius)
            assert worst_cover_ratio(rect, n, radius) <= 1.51, (rect, radius, n)


def test_build_deployment():
    subs = (
        Subregion(label="A", rect=Rect(0, 0, 500, 1000), pattern=constant_pattern(1.0)),
        Subregion(label="B", rect=Rect(500, 0, 500, 1000), pattern=constant_pattern(1.0)),
    )
    dep = build_deployment(subs, radii=(200.0, 420.0), altitudes=(180.0, 380.0),
                           rsc_position=(500.0, 500.0, 0.0))
    assert isinstance(dep, Deployment)
    assert dep.labels == ("A", "B")
    assert dep.radii == (200.0, 420.0) and dep.altitudes == (180.0, 380.0)
    assert dep.counts == (num_uavs(5e5, 200.0), num_uavs(5e5, 420.0))
    assert dep.total_count == sum(dep.counts)
    assert dep.positions.shape == (dep.total_count, 3)
    zones = np.split(dep.positions, np.cumsum(dep.counts)[:-1])
    for positions, altitude, sub in zip(zones, dep.altitudes, subs):
        assert np.all(positions[:, 2] == altitude)
        for x, y, _ in positions:
            assert sub.rect.contains(x, y)
    with pytest.raises(ValueError):
        build_deployment(subs, radii=(200.0,), altitudes=(180.0, 380.0),
                         rsc_position=(0, 0, 0))


# the reference scenario's two zones, 500 m x 1000 m side by side
_ZONES = (
    Subregion(label="E", rect=Rect(0.0, 0.0, 500.0, 1000.0), pattern=constant_pattern(1.0)),
    Subregion(label="R", rect=Rect(500.0, 0.0, 500.0, 1000.0), pattern=constant_pattern(1.0)),
)


@settings(max_examples=40, deadline=None)
@given(
    zones=st.integers(min_value=1, max_value=2),
    # radii giving 1-4 UAVs a zone (the reference densities) or 165-218
    # (the paper's band, 0.1-1 users/m^2)
    band=st.sampled_from([(200.0, 2000.0), (27.0, 31.0)]),
    data=st.data(),
)
def test_block_build_equals_one_column_builds(zones, band, data):
    # a (B, D) block gives D deployments, each with the entries, the depot
    # and the position bits of building its column alone; columns repeat
    subs = _ZONES[:zones]
    pool = data.draw(st.lists(st.floats(*band), min_size=1, max_size=3))
    picks = data.draw(
        st.lists(st.tuples(*[st.sampled_from(pool)] * zones), min_size=1, max_size=6)
    )
    radii = np.array(picks).T
    altitudes = radii * data.draw(st.floats(0.0, 3.0))
    rsc = (500.0, 500.0, 0.0)
    block = build_deployment(subs, radii, altitudes, rsc)
    assert isinstance(block, list) and len(block) == radii.shape[1]
    for d, dep in enumerate(block):
        alone = build_deployment(subs, radii[:, d], altitudes[:, d], rsc)
        assert dep == alone and dep.rsc_position == alone.rsc_position
        assert dep.positions.tobytes() == alone.positions.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=40),
    altitudes=st.lists(st.floats(0.0, 1e4), min_size=0, max_size=5),
)
def test_layout_positions_altitude_vector_stacks_the_scalar_calls(count, altitudes):
    rect = Rect(3.0, -7.0, 500.0, 1000.0)
    got = layout_positions(rect, count, np.array(altitudes))
    want = np.array([layout_positions(rect, count, h) for h in altitudes]).reshape(-1, count, 3)
    assert got.shape == (len(altitudes), count, 3)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "radii, altitudes",
    [
        (np.full((2, 3), 300.0), np.full((2, 2), 300.0)),  # D differs
        (np.full((1, 3), 300.0), np.full((1, 3), 300.0)),  # one row for two zones
        (np.full((2, 3, 1), 300.0), np.full((2, 3, 1), 300.0)),  # 3-D
        (300.0, 300.0),  # scalars
        ((300.0, 400.0), ((300.0, 400.0),)),  # (B,) against (1, B)
    ],
)
def test_build_deployment_rejects_misaligned_shapes(radii, altitudes):
    with pytest.raises(ValueError, match="must align"):
        build_deployment(_ZONES, radii, altitudes, (0.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "name, row, column, value, message",
    [
        ("radius", 1, 2, -1.0, "radius must be finite and positive, got -1.0"),
        ("radius", 0, 0, math.nan, "radius must be finite and positive, got nan"),
        ("altitude", 0, 1, -5.0, "altitude must be finite and nonnegative, got -5.0"),
        ("altitude", 1, 0, math.inf, "altitude must be finite and nonnegative, got inf"),
    ],
)
def test_build_deployment_names_the_index_of_a_bad_entry(name, row, column, value, message):
    # a block names the entry's (zone, column), one column its zone
    block = {"radius": np.full((2, 3), 300.0), "altitude": np.full((2, 3), 300.0)}
    block[name][row, column] = value
    depot = (0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match=re.escape(f"{message} at index [{row}, {column}]")):
        build_deployment(_ZONES, block["radius"], block["altitude"], depot)
    with pytest.raises(ValueError, match=re.escape(f"{message} at index [{row}]")):
        build_deployment(_ZONES, block["radius"][:, column], block["altitude"][:, column], depot)


def test_subregion_deployment_validation():
    # one zone of two UAVs, with a bad radius, then with (x, y) positions
    with pytest.raises(ValueError):
        Deployment(("X",), (-1.0,), (10.0,), (2,), np.zeros((2, 3)), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        Deployment(("X",), (1.0,), (10.0,), (2,), np.zeros((2, 2)), (0.0, 0.0, 0.0))


def _two_zones(**columns):
    """Zones A (2 UAVs) and B (1 UAV), with ``columns`` replacing any column."""
    fields = dict(
        labels=("A", "B"),
        radii=(100.0, 200.0),
        altitudes=(50.0, 0.0),
        counts=(2, 1),
        positions=np.arange(9.0).reshape(3, 3),
        rsc_position=(0.0, 0.0, 0.0),
    )
    return Deployment(**{**fields, **columns})


@pytest.mark.parametrize(
    "columns, message",
    [
        (dict(labels=("A",)), "labels, radii, altitudes and counts must have one entry per zone"),
        (dict(radii=(100.0,)), "labels, radii, altitudes and counts must have one entry per zone"),
        (dict(counts=(2, 1, 0)), "labels, radii, altitudes and counts must have one entry per zone"),
        (dict(radii=(100.0, 0.0)), "radius must be finite and positive, got 0.0"),
        (dict(radii=(-1.0, 200.0)), "radius must be finite and positive, got -1.0"),
        (dict(radii=(100.0, math.inf)), "radius must be finite and positive, got inf"),
        (dict(altitudes=(50.0, -1.0)), "altitude must be finite and nonnegative, got -1.0"),
        (dict(altitudes=(math.nan, 0.0)), "altitude must be finite and nonnegative, got nan"),
        (dict(counts=(2, -1), positions=np.zeros((1, 3))), "count must be at least 0, got -1"),
        (dict(counts=(2.0, 1)), "count must be an integer, got 2.0"),
        (dict(counts=(2, True)), "count must be an integer, got True"),
        (dict(positions=np.zeros((3, 2))), "positions must have shape (3, 3), got (3, 2)"),
        (dict(positions=np.zeros((2, 3))), "positions must have shape (3, 3), got (2, 3)"),
        (dict(positions=np.zeros(9)), "positions must have shape (3, 3), got (9,)"),
    ],
    ids=["labels", "radii", "counts", "zero-radius", "negative-radius", "inf-radius",
         "negative-altitude", "nan-altitude", "negative-count", "float-count", "bool-count",
         "positions-2d", "positions-rows", "positions-1d"],
)
def test_deployment_rejects_bad_columns(columns, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        _two_zones(**columns)


def test_deployment_owns_read_only_positions():
    mine = np.arange(9.0).reshape(3, 3)
    dep = _two_zones(positions=mine)
    mine[0, 0] = -1.0  # the caller's array, not the deployment's
    assert dep.positions[0, 0] == 0.0 and dep.positions.base is None
    with pytest.raises(ValueError, match="read-only"):
        dep.positions[0, 0] = 1.0
    # a built deployment holds its one concatenation of the zone layouts,
    # not a view into a block that outlives the build
    for built in build_deployment(_ZONES, np.full((2, 3), 40.0), np.full((2, 3), 30.0), (0, 0, 0)):
        assert built.positions.base is None and not built.positions.flags.writeable


def brute_force_cover_distance(rect_w: float, rect_h: float, pts: np.ndarray, res: int) -> float:
    """Reference score: every grid point against every UAV, (res^2, m, 2) tensor."""
    gx = np.linspace(0.0, rect_w, res)
    gy = np.linspace(0.0, rect_h, res)
    grid = np.stack(np.meshgrid(gx, gy), axis=-1).reshape(-1, 2)
    d2 = ((grid[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.min(axis=1)).max())


@settings(max_examples=60, deadline=None)
@given(
    rect_w=st.floats(min_value=1.0, max_value=5000.0),
    rect_h=st.floats(min_value=1.0, max_value=5000.0),
    m=st.integers(min_value=2, max_value=150),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    lattice=st.booleans(),
    res=st.sampled_from([36, 72, 120]),
)
def test_cover_distance_matches_brute_force(rect_w, rect_h, m, seed, lattice, res):
    if lattice:
        # row lattices put many grid points at tied distances
        rows = 1 + seed % min(m, 12)
        lattice = _candidate(rect_w, rect_h, _row_counts(m, rows), seed % 2 == 1, 0.27 + 0.01 * (seed % 24))
        pts = _points(*lattice)
    else:
        # scattered points, each its own row
        pts = np.random.default_rng(seed).uniform((0.0, 0.0), (rect_w, rect_h), size=(m, 2))
        lattice = pts[:, 1], [pts[i : i + 1, 0] for i in range(m)], np.arange(m)
    got = _worst_cover_distance(_grid(rect_w, rect_h, res), *lattice)
    assert got == brute_force_cover_distance(rect_w, rect_h, pts, res)


def _kdtree_cover_distance(grid, pts: np.ndarray) -> float:
    """Reference score: one nearest-point k-d tree query per grid point."""
    gx, gy = grid
    dist, _ = cKDTree(pts).query(np.stack(np.meshgrid(gx, gy), axis=-1).reshape(-1, 2))
    return float(dist.max())


@settings(max_examples=80, deadline=None)
@given(
    rect_w=st.floats(min_value=1.0, max_value=5000.0),
    rect_h=st.floats(min_value=1.0, max_value=5000.0),
    count=st.integers(min_value=2, max_value=300),
    rows_draw=st.integers(min_value=0, max_value=2**16),
    kind=st.sampled_from(["aligned", "staggered", "hex"]),
    start=st.integers(min_value=0, max_value=1),
    margin=st.one_of(st.sampled_from([0.5, 0.42, 0.34, 0.27]), st.floats(min_value=0.25, max_value=0.5)),
    res=st.sampled_from([36, 72, 120]),
)
def test_row_score_bits_match_kdtree(rect_w, rect_h, count, rows_draw, kind, start, margin, res):
    # the row fold must give the k-d tree's bits, not merely a close value:
    # near-tied lattices are ranked by these scores
    rows = 1 + rows_draw % min(count, 30)
    if kind == "hex":
        m = max(2, count // rows)
        lattice = _hex_candidate(rect_w, rect_h, [m - (i + start) % 2 for i in range(rows)], margin)
    else:
        lattice = _candidate(rect_w, rect_h, _row_counts(count, rows), kind == "staggered", margin)
    grid = _grid(rect_w, rect_h, res)
    got = _worst_cover_distance(grid, *lattice)
    assert got.hex() == _kdtree_cover_distance(grid, _points(*lattice)).hex()


@settings(max_examples=100, deadline=None)
@given(
    rect_w=st.floats(min_value=1.0, max_value=5000.0),
    rect_h=st.floats(min_value=1.0, max_value=5000.0),
    count=st.integers(min_value=1, max_value=300),
    rows_draw=st.integers(min_value=0, max_value=2**16),
    kind=st.sampled_from(["aligned", "staggered", "hex"]),
    start=st.integers(min_value=0, max_value=1),
    margins=st.one_of(
        st.just(layout._MARGINS),
        st.lists(st.floats(min_value=0.25, max_value=0.5), min_size=1, max_size=6).map(tuple),
    ),
    res=st.sampled_from([36, 72, 120]),
)
def test_margin_stack_has_the_bits_of_one_margin_lattices(
    rect_w, rect_h, count, rows_draw, kind, start, margins, res
):
    # _unit_layout scores the margins of one shape in one call: entry g of
    # the stack must be margin g's lattice and score, bit for bit, since
    # near-tied lattices are ranked by these scores
    rows = 1 + rows_draw % min(count, 30)
    if kind == "hex":
        m = max(2, count // rows)
        build = partial(_hex_candidate, rect_w, rect_h, [m - (i + start) % 2 for i in range(rows)])
    else:
        build = partial(_candidate, rect_w, rect_h, _row_counts(count, rows), kind == "staggered")
    ys, xs, row_xs = build(margins)
    grid = _grid(rect_w, rect_h, res)
    scores = _worst_cover_distance(grid, ys, xs, row_xs)
    assert ys.shape == (len(margins), rows) and scores.shape == (len(margins),)
    for g, margin in enumerate(margins):
        one = build(margin)
        assert ys[g].tobytes() == one[0].tobytes()
        assert [row[g].tobytes() for row in xs] == [row.tobytes() for row in one[1]]
        assert row_xs.tolist() == one[2].tolist()
        assert scores[g].hex() == float(_worst_cover_distance(grid, *one)).hex()


def _per_row_candidate(rect_w, rect_h, counts, staggered, margin):
    """Reference lattice builder: one ``_axis_positions`` call and one xs per row."""
    ys = layout._axis_positions(rect_h, len(counts), margin)
    xs = []
    for i, m in enumerate(counts):
        row = layout._axis_positions(rect_w, m, margin)
        if staggered and m > 1:
            pitch = rect_w / (m - 1.0 + 2.0 * margin)
            row = row + (0.25 if i % 2 else -0.25) * pitch
        xs.append(row)
    return ys, xs


def _per_row_hex_candidate(rect_w, rect_h, counts, margin):
    """Reference hexagonal builder: one xs per row."""
    ys = layout._axis_positions(rect_h, len(counts), margin)
    m_long = max(counts)
    xs_long = layout._axis_positions(rect_w, m_long, margin)
    pitch = rect_w / (m_long - 1.0 + 2.0 * margin) if m_long > 1 else rect_w
    return ys, [xs_long if m == m_long else xs_long[:m] + 0.5 * pitch for m in counts]


def _per_row_points(ys, xs):
    return np.column_stack((np.concatenate(xs), np.repeat(ys, [len(row) for row in xs])))


def _per_row_cover_distance(grid, ys, xs) -> float:
    """Reference score: the rows folded one by one, shared xs or not."""
    gx, gy = grid
    dy2 = (gy[None, :] - ys[:, None]) ** 2
    best = np.full((len(gy), len(gx)), np.inf)
    for row, row_dy2 in zip(xs, dy2):
        dx2 = ((gx[None, :] - row[:, None]) ** 2).min(axis=0)
        np.minimum(best, dx2[None, :] + row_dy2[:, None], out=best)
    return math.sqrt(best.max())


@settings(max_examples=100, deadline=None)
@given(
    rect_w=st.floats(min_value=1.0, max_value=5000.0),
    rect_h=st.floats(min_value=1.0, max_value=5000.0),
    count=st.integers(min_value=2, max_value=300),
    rows_draw=st.integers(min_value=0, max_value=2**16),
    kind=st.sampled_from(["aligned", "staggered", "hex", "scattered"]),
    start=st.integers(min_value=0, max_value=1),
    margin=st.one_of(st.sampled_from([0.5, 0.42, 0.34, 0.27]), st.floats(min_value=0.25, max_value=0.5)),
    res=st.sampled_from([36, 72, 120]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_distinct_row_fold_matches_per_row_fold(
    rect_w, rect_h, count, rows_draw, kind, start, margin, res, seed
):
    # folding the rows that share xs through the minimum of their dy2 must
    # keep the per-row fold's bits, and the builders must name for every row
    # the xs the per-row builders give it
    rows = 1 + rows_draw % min(count, 30)
    if kind == "scattered":
        # several heights per distinct xs, in no particular order
        rng = np.random.default_rng(seed)
        n_xs = 1 + seed % min(rows, 5)
        xs = [np.sort(rng.uniform(0.0, rect_w, size=rng.integers(1, 20))) for _ in range(n_xs)]
        row_xs = rng.permutation(np.concatenate((np.arange(n_xs), rng.integers(0, n_xs, rows - n_xs))))
        ys, per_row = rng.uniform(0.0, rect_h, size=rows), None
    elif kind == "hex":
        m = max(2, count // rows)
        counts = [m - (i + start) % 2 for i in range(rows)]
        ys, xs, row_xs = _hex_candidate(rect_w, rect_h, counts, margin)
        per_row = _per_row_hex_candidate(rect_w, rect_h, counts, margin)
    else:
        counts = _row_counts(count, rows)
        ys, xs, row_xs = _candidate(rect_w, rect_h, counts, kind == "staggered", margin)
        per_row = _per_row_candidate(rect_w, rect_h, counts, kind == "staggered", margin)
    rows_xs = [xs[k] for k in row_xs]
    if per_row is not None:
        assert np.array_equal(ys, per_row[0])
        assert all(np.array_equal(a, b) for a, b in zip(rows_xs, per_row[1], strict=True))
        assert np.array_equal(_points(ys, xs, row_xs), _per_row_points(*per_row))
    grid = _grid(rect_w, rect_h, res)
    got = _worst_cover_distance(grid, ys, xs, row_xs)
    assert got.hex() == _per_row_cover_distance(grid, ys, rows_xs).hex()


def _per_margin(build):
    """A lattice builder for a tuple of margins from a one-margin reference
    builder: one lattice per margin, stacked, each row with its own xs."""

    def stacked(*args):
        *shape, margins = args
        lattices = [build(*shape, margin) for margin in margins]
        ys = np.stack([ys for ys, _ in lattices])
        xs = [np.stack(rows) for rows in zip(*(xs for _, xs in lattices))]
        return ys, xs, np.arange(ys.shape[1])

    return stacked


def _per_row_scores(grid, ys, xs, row_xs):
    """Reference scores of a stack of lattices, or of one: lattice by lattice, row by row."""
    rows = [xs[k] for k in row_xs]
    if ys.ndim == 1:
        return _per_row_cover_distance(grid, ys, rows)
    return np.array([_per_row_cover_distance(grid, ys[g], [row[g] for row in rows]) for g in range(len(ys))])


@settings(max_examples=40, deadline=None)
@given(
    rect_w=st.floats(min_value=20.0, max_value=3000.0),
    aspect=st.floats(min_value=0.05, max_value=20.0),
    count=st.integers(min_value=2, max_value=300),
)
def test_unit_layout_matches_per_row_route(rect_w, aspect, count):
    rect_h = rect_w * aspect
    per_row_route = {
        "_candidate": _per_margin(_per_row_candidate),
        "_hex_candidate": _per_margin(_per_row_hex_candidate),
        "_points": lambda ys, xs, row_xs: _per_row_points(ys, [xs[k] for k in row_xs]),
        "_worst_cover_distance": _per_row_scores,
    }
    try:
        _unit_layout.cache_clear()
        with mock.patch.multiple(layout, **per_row_route):
            want = _unit_layout(rect_w, rect_h, count)
        _unit_layout.cache_clear()
        got = _unit_layout(rect_w, rect_h, count)
    finally:
        _unit_layout.cache_clear()
    assert np.array(got).tobytes() == np.array(want).tobytes()


@settings(max_examples=60, deadline=None)
@example(aspect=200.0, tall=True, short_side=10.0, count=3)
@example(aspect=40.0, tall=True, short_side=50.0, count=5)
@given(
    aspect=st.floats(min_value=1.0, max_value=1000.0),
    tall=st.booleans(),
    short_side=st.floats(min_value=1.0, max_value=200.0),
    count=st.integers(min_value=1, max_value=60),
)
def test_extreme_aspect_rectangles_are_placed(aspect, tall, short_side, count):
    long_side = short_side * aspect
    width, height = (short_side, long_side) if tall else (long_side, short_side)
    rect = Rect(3.0, -7.0, width, height)
    pts = layout_positions(rect, count, 20.0)
    assert pts.shape == (count, 3)
    assert all(rect.contains(x, y) for x, y, _ in pts)
    radius = math.sqrt(rect.area / (math.pi * count))
    zone = Subregion(label="Z", rect=rect, pattern=constant_pattern(1.0))
    dep = build_deployment((zone,), (radius,), (20.0,), (0.0, 0.0, 0.0))
    assert dep.total_count == num_uavs(rect.area, radius)
    assert all(rect.contains(x, y) for x, y, _ in dep.positions)


# sha256 prefixes of the float64 positions: any change to the score, the
# candidates or the tie-breaks that moves a lattice shows up here
LAYOUT_DIGESTS = {
    (500.0, 1000.0, 1): "abc39f01b118bcea",
    (500.0, 1000.0, 2): "eb9e01a6d9c551f3",
    (500.0, 1000.0, 3): "8dfc0889d0a49776",
    (500.0, 1000.0, 5): "1358f8d68ccb635d",
    (500.0, 1000.0, 8): "f16f4a04991972f2",
    (500.0, 1000.0, 13): "33756b0dac08549d",
    (500.0, 1000.0, 23): "47016598325e4acd",
    (500.0, 1000.0, 40): "c8392ce7949aa4be",
    (500.0, 1000.0, 77): "e664c2fd3e997f93",
    (500.0, 1000.0, 128): "f9ebc75b98c48706",
    (500.0, 1000.0, 221): "b5d331dd290e4155",
    (500.0, 1000.0, 256): "9cc3bdb754b55538",
    (500.0, 1000.0, 257): "56efae1d337da294",
    (500.0, 1000.0, 300): "fabc0f7bc9c11f70",
    (1000.0, 1000.0, 4): "2b587b11a25b980e",
    (1000.0, 1000.0, 37): "ea0655693b0b529a",
    (1000.0, 1000.0, 165): "9c8910606759d330",
    (1000.0, 1000.0, 259): "ba621d48a08b58f1",
    (1000.0, 1000.0, 400): "894c31c4cf8fea89",
    (1000.0, 1000.0, 555): "64c614b6780cd275",
    (1000.0, 1000.0, 759): "337e7af27c497eaa",
    (1000.0, 1000.0, 800): "9e4cf196d30de1db",
}


def test_unit_layout_positions_unchanged():
    got = {
        case: hashlib.sha256(np.array(_unit_layout(*case), dtype=float).tobytes()).hexdigest()[:16]
        for case in LAYOUT_DIGESTS
    }
    assert got == LAYOUT_DIGESTS


# sha256 of the positions of every distinct (width, height, count) that the
# paper-density day (tests/data/paper_day.cfg) lays out, in sorted order:
# fleets of 120-380 UAVs a zone, of which LAYOUT_DIGESTS pins only 221 and 256
PAPER_DAY_LAYOUTS = (117, 120, 380, "e9d5a75e6b2e90ad54f57d19c365bcc4a9992f9c47e409c994125ae1075b0e0d")


def test_paper_day_layouts_unchanged():
    sc = load_scenario(os.path.join(os.path.dirname(__file__), "data", "paper_day.cfg"))
    radii = SchedulePlan(sc).radii
    keys = sorted(
        {
            (sub.rect.width, sub.rect.height, count)
            for sub, zone_radii in zip(sc.subregions, radii)
            for count in num_uavs(sub.area, zone_radii).tolist()
        }
    )
    digest = hashlib.sha256()
    _unit_layout.cache_clear()
    for key in keys:
        digest.update(_unit_layout(*key).tobytes())
    counts = [count for _, _, count in keys]
    assert (len(keys), min(counts), max(counts), digest.hexdigest()) == PAPER_DAY_LAYOUTS


def test_unit_layout_is_one_read_only_array():
    # the cache hands every caller the same array, so no caller may write it
    points = _unit_layout(500.0, 1000.0, 23)
    assert points is _unit_layout(500.0, 1000.0, 23)
    assert points.shape == (23, 2) and points.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        points[0, 0] = 1.0


def test_unit_layout_memory_bounded():
    # a score that builds the (res^2, m, 2) distance tensor needs 60+ MB here
    _unit_layout.cache_clear()
    tracemalloc.start()
    try:
        _unit_layout(1000.0, 1000.0, 759)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_unit_layout_row_score_memory():
    # the row fold keeps one (res, res) array; a (rows, res, res) tensor
    # of every row's distances peaks above 3 MB here
    _unit_layout.cache_clear()
    tracemalloc.start()
    try:
        _unit_layout(500.0, 1000.0, 221)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
