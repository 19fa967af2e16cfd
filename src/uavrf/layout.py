"""Integer fleet sizing and explicit 3D positions inside a subregion.

The disk-cover side of the problem is deliberately heuristic: the fleet
size is the ceiling of area over disk area, and positions come from a
small deterministic search over row-based lattices (aligned, quarter-pitch
staggered, and hexagonal rows; Kershner 1939 for why hexagonal rows are
the ones worth scoring).  A candidate's score is its sampled covering
radius: the largest distance from the points of a regular ``res x res``
grid over the rectangle to their nearest UAV ground projection.

The score is computed from the candidate's rows, not from a point cloud.
Most rows share their xs (an aligned or staggered lattice has at most two
row counts, each with its shift; a hexagonal one a long and a short row),
so the candidate builders return each distinct row's xs once and, for
every row, which of them it uses.  For a distinct row,
``dx2[a] = min_j (gx[a] - x_j)^2`` over its UAVs, and ``dy2[b]`` is the
smallest ``(gy[b] - y_i)^2`` over the heights y_i of the rows that use it;
the distinct rows fold into one (res, res) array of squared distances by
an elementwise minimum of ``dx2[None, :] + dy2[:, None]``, and the score
is the square root of its maximum.  Its bits equal those of a
nearest-point query that evaluates ``sqrt(dx^2 + dy^2)`` for every point:
rounding is monotone, so the minimum over a row of ``fl(fl(dx^2) + dy^2)``
is ``fl(min fl(dx^2) + dy^2)``, and the minimum over the rows sharing
those xs of ``fl(dx2 + dy2_i)`` is ``fl(dx2 + min_i dy2_i)``; the square
root is monotone, so one root of the maximum is the maximum of the roots.
No k-d tree is built; time is O(res * m + rows * res + distinct rows *
res^2) and memory O(res^2) per candidate.

Each lattice shape (a row count and a kind: aligned, staggered, or
hexagonal from a long or a short row) is tried with four edge margins,
``_MARGINS``.  The margins of one shape give arrays of the same shapes
and the same row indices, so the builders take them as a leading array
axis G (``ys`` (G, rows), each distinct row's xs (G, m)) and the score
folds the G lattices in one pass, with no padding: one scorer call per
shape on the coarse grid.  On its 36 x 36 arrays numpy's per-call
overhead dominates, so the four margins of a shape cost about 1.7 times
one margin's call, not four times.  Entry g has the bits of scoring margin g's lattice alone: the
fold uses only elementwise subtraction, squaring, addition, minimum,
maximum and square root, each of which rounds entry by entry whatever
the array's shape.  The shortlisted candidates are then scored one by
one on the fine grid, where the arithmetic, not the call, dominates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from .channel import check_integer, check_positive
from .patterns import Rect

Point3 = Tuple[float, float, float]


def num_uavs(area, radius):
    """Fleet size covering ``area`` with disks of ``radius``: ceil(S / (pi R R)), at least 1.

    Arrays broadcast entry by entry, with the bits of the scalar formula,
    and give an int array; two scalars give an int.
    """
    check_positive("area", area)
    check_positive("radius", radius)
    with np.errstate(divide="ignore", over="ignore"):  # raised below instead
        count = np.maximum(np.ceil(np.divide(area, math.pi * radius * radius)), 1.0)
    if not count.max() < 2.0**63:  # an int64 cast would wrap silently
        raise OverflowError(f"fleet size {float(count.max())!r} does not fit an int64")
    return int(count) if count.ndim == 0 else count.astype(np.int64)


def _row_counts(count: int, rows: int) -> list[int]:
    """Split ``count`` into ``rows`` balanced parts, extras to central rows."""
    base, extra = divmod(count, rows)
    counts = [base] * rows
    # hand out extras from the middle outward, deterministically
    order = sorted(range(rows), key=lambda i: (abs(i - (rows - 1) / 2.0), i))
    for i in order[:extra]:
        counts[i] += 1
    return counts


def _alternating_counts(count: int, rows: int, start: int) -> list[int] | None:
    """Row counts alternating m, m-1 (or m-1, m) summing to ``count``."""
    if rows < 2:
        return None
    n_long = (rows + 1) // 2 if start == 0 else rows // 2
    n_short = rows - n_long
    # n_long * m + n_short * (m - 1) == count
    m, rem = divmod(count + n_short, rows)
    if rem != 0 or m < 2:
        return None
    return [m if (i % 2 == start % 2) else m - 1 for i in range(rows)]


def _axis_positions(extent: float, m: int, margins) -> np.ndarray:
    """m coordinates across ``extent`` with edge margins of ``margins`` pitches.

    A scalar margin gives shape (m,); margins of shape G give G + (m,).
    """
    margins = np.asarray(margins, dtype=float)[..., None]
    if m == 1:
        return np.full(margins.shape, extent / 2.0)
    return extent * (np.arange(m) + margins) / (m - 1.0 + 2.0 * margins)


def _candidate(
    rect_w: float,
    rect_h: float,
    counts: Sequence[int],
    staggered: bool,
    margins,
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Row lattice as (row ys, the distinct rows' ascending xs, the index of row i's xs).

    Rows of one count and one shift share their xs, built once.  Margins
    of shape G give G lattices along a leading axis of ``ys`` (G + (rows,))
    and of each distinct row's xs (G + (m,)), all with the same row
    indices.
    """
    margins = np.asarray(margins, dtype=float)
    ys = _axis_positions(rect_h, len(counts), margins)
    xs, entry, row_xs = [], {}, []
    for i, m in enumerate(counts):
        # alternate quarter-pitch shifts; stays inside for margin >= 0.25
        shift = (0.25 if i % 2 else -0.25) if staggered and m > 1 else 0.0
        if (m, shift) not in entry:
            entry[m, shift] = len(xs)
            row = _axis_positions(rect_w, m, margins)
            if shift:
                pitch = rect_w / (m - 1.0 + 2.0 * margins)
                row = row + (shift * pitch)[..., None]
            xs.append(row)
        row_xs.append(entry[m, shift])
    return ys, xs, np.array(row_xs)


def _hex_candidate(
    rect_w: float, rect_h: float, counts: Sequence[int], margins
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Half-pitch staggered rows sharing one pitch (rows alternate m, m-1).

    The genuine hexagonal covering lattice; only well formed when
    consecutive row counts differ by exactly one.  Returned as
    :func:`_candidate` returns its lattice, margins and all.
    """
    margins = np.asarray(margins, dtype=float)
    ys = _axis_positions(rect_h, len(counts), margins)
    lengths = sorted(set(counts), reverse=True)
    m_long = lengths[0]
    xs_long = _axis_positions(rect_w, m_long, margins)
    pitch = rect_w / (m_long - 1.0 + 2.0 * margins)
    xs = [xs_long] + [xs_long[..., :m] + (0.5 * pitch)[..., None] for m in lengths[1:]]
    return ys, xs, np.array([lengths.index(m) for m in counts])


def _points(ys: np.ndarray, xs: Sequence[np.ndarray], row_xs: np.ndarray) -> np.ndarray:
    """The lattice's (m, 2) points, row by row."""
    rows = [xs[k] for k in row_xs]
    return np.column_stack((np.concatenate(rows), np.repeat(ys, [len(row) for row in rows])))


def _grid(rect_w: float, rect_h: float, res: int) -> tuple[np.ndarray, np.ndarray]:
    """The res x res sample grid of the rectangle, as its xs and its ys."""
    return np.linspace(0.0, rect_w, res), np.linspace(0.0, rect_h, res)


def _worst_cover_distance(
    grid: tuple[np.ndarray, np.ndarray],
    ys: np.ndarray,
    xs: Sequence[np.ndarray],
    row_xs: np.ndarray,
) -> np.ndarray:
    """Largest distance from a grid point to its nearest lattice point.

    Lattices stacked along leading axes G (as the builders return them for
    margins of shape G) give the G scores at once, entry g with the bits
    of scoring lattice g alone.
    """
    gx, gy = grid
    dy2 = (gy - ys[..., None]) ** 2
    best = np.full(ys.shape[:-1] + (len(gy), len(gx)), np.inf)
    for k, row in enumerate(xs):
        dx2 = ((gx - row[..., None]) ** 2).min(axis=-2)
        row_dy2 = dy2[..., row_xs == k, :].min(axis=-2)
        np.minimum(best, dx2[..., None, :] + row_dy2[..., :, None], out=best)
    return np.sqrt(best.max(axis=(-2, -1)))


# edge margins, in pitches, that every lattice shape is scored with
_MARGINS = (0.5, 0.42, 0.34, 0.27)


@lru_cache(maxsize=4096)
def _unit_layout(rect_w: float, rect_h: float, count: int) -> np.ndarray:
    """Best row lattice for ``count`` points in a w x h rectangle at origin (shared, read-only)."""
    # ideal hex row count, searched in a window around it; a rectangle too
    # tall for ``count`` rows falls back to one UAV per row
    dx0 = math.sqrt(2.0 * rect_w * rect_h / (math.sqrt(3) * count))
    r0 = max(1, round(rect_h / (math.sqrt(3) / 2.0 * dx0)))
    lo = min(max(1, r0 - 8), count)
    hi = min(count, r0 + 8)
    coarse = _grid(rect_w, rect_h, 36)
    shapes = []
    candidates = []
    for rows in range(lo, hi + 1):
        counts = _row_counts(count, rows)
        kinds = [(0, _candidate(rect_w, rect_h, counts, False, _MARGINS))]
        if rows >= 3 and len(set(counts)) == 1:
            kinds.append((1, _candidate(rect_w, rect_h, counts, True, _MARGINS)))
        # alternating m/m-1 rows admit the true hexagonal lattice
        for start in (0, 1):
            alt = _alternating_counts(count, rows, start)
            if alt is not None:
                kinds.append((2 + start, _hex_candidate(rect_w, rect_h, alt, _MARGINS)))
        # one scoring pass per shape: its margins share every array shape
        for kind, shape in kinds:
            scores = _worst_cover_distance(coarse, *shape).tolist()
            for g, margin in enumerate(_MARGINS):
                candidates.append((scores[g], rows, kind, margin, len(shapes), g))
            shapes.append(shape)
    # coarse shortlist, then a fine pass: the coarse grid can misrank
    # near-tied lattices by a few percent; (score, rows, kind, margin) is
    # unique, so the order never reaches the shape index
    candidates.sort()
    fine_grid = _grid(rect_w, rect_h, 120 if count <= 256 else 72)
    best = None
    for score, rows, kind, margin, index, g in candidates[:8]:
        ys, xs, row_xs = shapes[index]
        lattice = (ys[g], [row[g] for row in xs], row_xs)
        fine = float(_worst_cover_distance(fine_grid, *lattice))
        key = (fine, rows, kind, margin)
        if best is None or key < best[0]:
            best = (key, lattice)
    points = _points(*best[1])
    points.flags.writeable = False
    return points


def layout_positions(rect: Rect, count: int, altitude) -> np.ndarray:
    """Deterministic positions for ``count`` UAVs hovering over ``rect``.

    A scalar ``altitude`` gives an array of shape (count, 3), whose
    altitudes all equal it; an array of altitudes of shape S gives one
    such layout per entry, shape S + (count, 3), each with the bits of
    its scalar call.  All ground projections lie inside the rectangle.
    The lattice depends on the rectangle and the count alone: it is the
    candidate with the smallest worst uncovered distance for this count.
    ``count`` is a Python or numpy integer; a bool, a float or any other
    type raises ``ValueError``, as does a count below 1.
    """
    check_integer("count", count, 1)
    if np.ndim(altitude):
        altitude = np.asarray(altitude, dtype=float)
    check_positive("altitude", altitude, zero_ok=True)
    base = _unit_layout(rect.width, rect.height, count)
    out = np.empty(np.shape(altitude) + (count, 3))
    out[..., 0] = base[:, 0] + rect.x
    out[..., 1] = base[:, 1] + rect.y
    out[..., 2] = np.expand_dims(altitude, -1)
    return out


@dataclass(frozen=True)
class Deployment:
    """Explicit fleet placement across all subregions plus the depot.

    One entry per zone, in zone order: its label, disk radius, altitude
    and UAV count.  ``positions`` stacks every UAV's (x, y, z), zone by
    zone, so zone i's UAVs are the next ``counts[i]`` rows; the
    deployment owns a read-only copy of it.  The positions follow from
    the zones, radii and altitudes, so == and hash skip them.
    """

    labels: Tuple[str, ...]
    radii: Tuple[float, ...]
    altitudes: Tuple[float, ...]
    counts: Tuple[int, ...]
    positions: np.ndarray = field(compare=False)
    rsc_position: Point3

    def __post_init__(self):
        lengths = {len(self.labels), len(self.radii), len(self.altitudes), len(self.counts)}
        if len(lengths) != 1:
            raise ValueError("labels, radii, altitudes and counts must have one entry per zone")
        # scalar checks: on a handful of zones numpy's per-call overhead would dominate
        for radius in self.radii:
            check_positive("radius", radius)
        for altitude in self.altitudes:
            check_positive("altitude", altitude, zero_ok=True)
        for count in self.counts:
            check_integer("count", count, 0)
        positions, shape = np.array(self.positions, dtype=float), (sum(self.counts), 3)
        if positions.shape != shape:
            raise ValueError(f"positions must have shape {shape}, got {positions.shape}")
        positions.flags.writeable = False
        object.__setattr__(self, "positions", positions)

    @property
    def total_count(self) -> int:
        return len(self.positions)


# UAV positions in one run of columns of a block build (1.5 MiB of floats)
_RUN_POSITIONS = 2**16


def build_deployment(
    subregions, radii, altitudes, rsc_position: Point3
) -> Deployment | list[Deployment]:
    """Assemble deployments from per-subregion radii and altitudes.

    ``radii`` and ``altitudes`` of shape (B,), one entry per subregion,
    give one :class:`Deployment`; (B, D) blocks give a list of D
    deployments, the d-th from column d, with the bits of building that
    column alone.  The fleet sizes come from one ``num_uavs`` over the
    block.  The columns are then built in runs of consecutive columns of
    at most ``_RUN_POSITIONS`` UAVs in all (at least one column): in a
    run, each subregion makes one :func:`layout_positions` call per
    distinct fleet size, with the altitudes of the run's columns of that
    size, and each column's zone layouts are concatenated once.  So only
    one run's layout blocks exist beside the finished deployments, and
    a block that fits one run makes the calls of a one-run build.
    Misaligned shapes raise ``ValueError``, and so does a bad radius or
    altitude, naming its index.
    """
    radii = np.asarray(radii, dtype=float)
    altitudes = np.asarray(altitudes, dtype=float)
    if radii.ndim not in (1, 2) or radii.shape != altitudes.shape or len(radii) != len(subregions):
        raise ValueError("subregions, radii and altitudes must align")
    # checked in the caller's shape, so a bad entry is named by its own index
    check_positive("radius", radii)
    check_positive("altitude", altitudes, zero_ok=True)
    one = radii.ndim == 1
    if one:
        radii, altitudes = radii[:, None], altitudes[:, None]
    areas = np.array([sub.area for sub in subregions], dtype=float)
    counts = num_uavs(areas[:, None], radii)
    labels = tuple(sub.label for sub in subregions)
    rsc = tuple(rsc_position)
    radius_columns, altitude_columns = radii.T.tolist(), altitudes.T.tolist()
    count_columns = counts.T.tolist()
    deployments = []
    for start, stop in _runs(map(sum, count_columns)):
        zones = []  # per subregion, its layout of every column of the run
        run = slice(start, stop)
        for sub, sizes, zone_altitudes in zip(subregions, counts[:, run], altitudes[:, run]):
            columns_of: dict[int, list[int]] = {}
            for d, count in enumerate(sizes.tolist()):
                columns_of.setdefault(count, []).append(d)
            zone = [None] * len(sizes)
            for count, columns in columns_of.items():
                layouts = layout_positions(sub.rect, count, zone_altitudes[columns])
                for d, positions in zip(columns, layouts):
                    zone[d] = positions
            zones.append(zone)
        columns = zip(radius_columns[run], altitude_columns[run], count_columns[run], zip(*zones))
        deployments += [
            Deployment(labels, tuple(r), tuple(h), tuple(c), np.concatenate(layouts), rsc)
            for r, h, c, layouts in columns
        ]
    return deployments[0] if one else deployments


def _runs(totals) -> list[tuple[int, int]]:
    """(start, stop) runs of consecutive columns whose ``totals`` (ints,
    one per column) sum to at most ``_RUN_POSITIONS``; a column above it
    is a run of its own."""
    runs, start, stop, held = [], 0, 0, 0
    for total in totals:
        if held + total > _RUN_POSITIONS and stop > start:
            runs.append((start, stop))
            start, held = stop, 0
        held += total
        stop += 1
    runs.append((start, stop))
    return runs
