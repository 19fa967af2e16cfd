"""Multi-slot placement updating: mobility costs, trajectory assignment,
greedy and exact epoch selection, and the Lazy/Diligent baselines.

Moving a UAV costs horizontal power times flight time plus ascend or
descend power times climb time.  When the fleet size changes between
consecutive placements, the shorter position set is padded with copies
of the depot (RSC) so recalled units fly home and supplements launch
from it; the minimum-energy pairing of old to new positions is then a
square assignment problem solved exactly in polynomial time.

The solver is scipy's ``linear_sum_assignment`` (Crouse 2016), the only
scipy function the package calls.  It is loaded from the compiled module
that holds it, ``scipy.optimize._lsap``, without running
``scipy.optimize``'s package import, which pulls in ``scipy.linalg``,
linprog and ``numpy.f2py``: that import took about four fifths of
``import uavrf`` and more than half the peak RSS of a short run, even
one that never assigns.  A later ``import scipy.optimize`` re-exports the
very same function, so every solve is scipy's own.

The scheduler's move energies come from one batched path
(``_Moves.fill``), which takes any slot moves i -> j, keeps each energy
per pair and returns the batch's energies in order.  It requests the
deployments of the pairs it lacks from the plan at once, reads each
deployment's own ``positions`` column, pads only when the fleet sizes
differ, and groups those pairs by padded size.  A batch of new
pairs builds its cost matrices into one stacked array, in slices of
rows whose temporaries (one float array and one bool mask) hold at most
2^15 entries, so building a 398 x 398 matrix holds about 1.3 times its
own bytes, not 3 times; it hands each matrix to the solver through
:func:`solve_assignment`; a batch of pairs already solved under the same
cost shape (below) is one gather and one row sum.  Every check stays:
the two deployments share the depot and the subregion labels, each
matrix is square and finite, and each result is a permutation.  A batch
holds at most 2^18 cost entries, so paper-density fleets (a few hundred
UAVs per zone, where the assignment dominates) go one pair at a time.
The consecutive moves j -> j + 1, which the diligent plan needs before
any scan, and the moves of an assembled schedule are known up front and
filled together, and an assembled schedule reads its deployments from
one request; a scan's visit is a batch of one.  On the two-zone
reference scenario (2 x 2 matrices) a batched solve costs about 12 us a
pair on a 2-vCPU VM, and a re-sum about 4 us.  :func:`mobility_energy_at`
solves one pair on its own, with the same bits.

Epoch selection works on the excess-cost scale: per-slot static recall
frequency above the instantaneous optimum (a policy-independent
baseline), plus battery-normalized mobility energy.  From each decided
epoch the scheduler scores three kinds of continuation plans

  * hold the current placement to the horizon,
  * update once at slot k (then hold), for every future k,
  * update at every following slot (zero staleness, all move costs),

executes the first action of the cheapest plan, and re-optimizes from
the new state.  Because every plan's continuation remains in the next
step's candidate set, the realized average can never exceed the best
plan seen at step zero; in particular it is bounded by both the Lazy
and the Diligent baselines.  With free mobility the diligent plan costs
exactly zero, so updates happen at every slot where the density vector
changed, and with prohibitive mobility the hold plan wins immediately.

An update at slot k costs its staleness up to k, plus its move energy,
plus a continuation from k on: for SMGD, the excess of holding the
slot-k placement to the horizon.  A lower bound on that cost needs no
assignment solve: the move energy is at least the climb cost of the net
climb, because the climb cost (p_a/v_a per metre up, p_d/v_d per metre
down) is convex and positively homogeneous and horizontal flight costs
no less than 0.  The net climb of a padded move j -> k is
Z[k] - Z[j] - (N[k] - N[j]) z_depot for fleet sizes N and altitude
sums Z, which the plan keeps per slot, so one vector pass bounds every
update of a step.  The bound is shaved to stay below the float energy
and summed in the order of the value, so it never exceeds the value in
floating point.  A step visits the updates by repeated argmin of the
bound (the first of equal bounds, so equal bounds go in slot order),
marking each one visited, and stops at the first bound above the
incumbent: no other update can win, the ordering trick of PELT-style
pruning (Killick, Fearnhead & Eckley 2012).  SMGD also stops at the
first bound above the diligent plan's cost, which is known before the
scan: once the scan passes it, every update left costs more than the
diligent plan, which then wins the step whatever the scan would find.
Ties resolve as in a scan in slot order: holding beats an update of
equal value, the earliest of equal updates wins, and the diligent plan
wins only when strictly cheaper (an update that costs exactly the
diligent plan is still visited), so pruning never changes the plan
taken.  ``Schedule.candidate_evaluations`` counts the hold plan and
every update at each step, pruned or not.  Move energies are solved
once per ordered pair of distinct deployments (slots with equal radii
share one).

So a step visits an update only if its bound is at most the smaller of
the hold and the diligent cost, the step's reach, and most steps have
none: on the reference scenario over two weeks, 9 of SMGD's 3,949 steps
at pm 0.05 / 1.5 / 50 W.  The plan keeps, per slot k, the least bound of
any update from k with its move cost left out, FLOOR[k] (inf at the
last slot).  The climb bound is at least 0 and float rounding is
monotone, so every bound of the step is at least FLOOR[k] in floats,
and a step whose FLOOR is above its reach takes the hold or the
diligent plan without building its row: on those two weeks, 74 steps
build one.  FLOOR depends on no mobility field, so one plan serves a
whole mobility-power sweep.

The same visits, one step at a time from the last slot back to the first
with the least cost from each later slot as the continuation, give the
exact optimum over SMGD's candidates (:func:`optimal_schedule`): a
shortest path over update epochs, or optimal partitioning (Jackson et
al. 2005).  Its continuation is known only once the later slots are
done, so it skips no row; each step of either scheduler runs the same
one-row visits.  It solves O(n^2) pair energies in the worst case.

A :class:`Schedule` keeps its epochs as four plain columns (update slots,
deployments, move energies, ``changed`` flags), one entry per epoch.

Only the move energies depend on the mobility powers and speeds.  The
rest (densities, radii, the static-cost coefficients, deployments) lives
in a :class:`SchedulePlan` built once per scenario, in memory linear in
the number of slots.  The permutations do not depend on the powers
either, only on the cost shape: the flight coefficients (p_h/v_h,
p_a/v_a, p_d/v_d) divided by their largest.  The plan keeps each solved
permutation per shape, so a sweep over mobility powers solves each pair
once, and every other power re-sums the n matched entries in O(n), with
no n x n matrix and no assignment.  Free flight (all coefficients zero)
solves nothing: every move costs exactly 0 J.  The re-sum
has the bits of the solve for the same permutation, but a fresh plan may
pick another of several tied optima (common on paper-density lattices),
so its energies can differ from a shared plan's in the last bits; both
are optimal.  A sweep over mobility powers builds one plan and passes it
to every call,

    plan = SchedulePlan(scenario)
    for pm in (0.05, 1.5, 50.0):
        sc = scenario.with_mobility_power(pm)
        smgd_schedule(sc, plan=plan), baseline_schedule("lazy", sc, plan=plan)

and a sweep over start times builds one plan per start.  The horizon
and the energy model come from the scenario alone.  A call without
``plan`` builds its own, used for that call only; a plan built for other
non-mobility inputs, the horizon included, raises ``ValueError``.
"""

from __future__ import annotations

import dataclasses
import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np
import scipy

from .layout import Deployment, build_deployment, num_uavs
from .placement import EnergyParams, min_static_rf, optimal_altitude_ratio, static_rf_terms
from .scenario import Scenario, slot_densities


def _load_linear_sum_assignment():
    """scipy's ``linear_sum_assignment`` from its compiled module alone.

    Importing ``scipy.optimize._lsap`` by its dotted name would run the
    package import first.  The module is registered under its full name
    before it runs, so a later ``import scipy.optimize`` reuses it; a
    scipy without the module, or the name, gets the public import.
    """
    name = "scipy.optimize._lsap"
    module = sys.modules.get(name)
    if module is None:
        paths = [os.path.join(path, "optimize") for path in scipy.__path__]
        spec = importlib.machinery.PathFinder.find_spec(name, paths)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
    solver = getattr(module, "linear_sum_assignment", None)
    if solver is None:
        from scipy.optimize import linear_sum_assignment as solver
    return solver


linear_sum_assignment = _load_linear_sum_assignment()


@dataclass(frozen=True)
class Assignment:
    """Minimum-energy bijection between padded origin and destination sets."""

    permutation: Tuple[int, ...]  # origin k moves to destination permutation[k]
    total_energy: float           # [J]

    def __post_init__(self):
        if sorted(self.permutation) != list(range(len(self.permutation))):
            raise ValueError("assignment must be a permutation")


def move_energy(p_from: Sequence[float], p_to: Sequence[float], energy: EnergyParams) -> float:
    """Energy [J] to fly one UAV between two 3D points.

    Horizontal and vertical legs are charged separately; descending uses
    its own power so the result is nonnegative either way.
    """
    dx = p_to[0] - p_from[0]
    dy = p_to[1] - p_from[1]
    dz = p_to[2] - p_from[2]
    horizontal = math.hypot(dx, dy) * energy.p_horizontal / energy.v_horizontal
    if dz >= 0:
        vertical = dz * energy.p_ascend / energy.v_ascend
    else:
        vertical = -dz * energy.p_descend / energy.v_descend
    return horizontal + vertical


def _flight_energies(
    origins: np.ndarray, destinations: np.ndarray, energy: EnergyParams, out=None
) -> np.ndarray:
    """Move energies from ``origins`` to ``destinations``, (..., 3) point
    arrays broadcast against each other, written into ``out`` if given.

    Each is hypot(dx, dy) * (p_h / v_h) plus the climb dz times
    (p_a / v_a) or the descent -dz times (p_d / v_d).  The cost matrix
    and the re-sum of a stored permutation both come from here, so a pair
    of points gets the same bits whatever the shape of the arrays.  Beside
    the result it holds one float temporary of the broadcast shape, dy,
    reused for dz, and one bool mask: the climbs, then the descents.
    """
    dy = np.subtract(origins[..., 1], destinations[..., 1])
    cost = np.subtract(origins[..., 0], destinations[..., 0], out=out)
    np.hypot(cost, dy, out=cost)
    cost *= energy.p_horizontal / energy.v_horizontal
    dz = np.subtract(destinations[..., 2], origins[..., 2], out=dy)
    climbs = dz >= 0
    np.multiply(dz, energy.p_ascend / energy.v_ascend, out=dz, where=climbs)
    # dz * -(p_d / v_d) has the bits of -dz * (p_d / v_d)
    descents = np.logical_not(climbs, out=climbs)
    np.multiply(dz, -(energy.p_descend / energy.v_descend), out=dz, where=descents)
    cost += dz
    return cost


def _as_points(positions) -> np.ndarray:
    """``positions`` as an (n, 3) float array; no copy if it already is one."""
    if type(positions) is np.ndarray and positions.dtype == float and positions.ndim == 2:
        return positions
    points = np.atleast_2d(np.asarray(positions, dtype=float))
    return points.reshape(0, 3) if points.size == 0 else points


def cost_matrix(
    origins: np.ndarray, destinations: np.ndarray, energy: EnergyParams
) -> np.ndarray:
    """Pairwise move energies, origins as rows and destinations as columns.

    Entry (k, l) is hypot(dx, dy) * (p_h / v_h) plus the climb dz times
    (p_a / v_a) or the descent -dz times (p_d / v_d).  The rows are
    filled in slices into the (n, n) result, the one n x n array held:
    the temporaries hold at most ``_ROW_ENTRIES`` entries (or one row).
    """
    origins = _as_points(origins)
    destinations = _as_points(destinations)
    if len(origins) != len(destinations):
        raise ValueError(
            f"need equally many origins and destinations, got {len(origins)} and {len(destinations)}"
        )
    return _cost_block(origins[None], destinations[None], energy)[0]


def _cost_block(origins: np.ndarray, destinations: np.ndarray, energy: EnergyParams) -> np.ndarray:
    """The (B, n, n) cost matrices of B stacked (n, 3) origin and
    destination sets, filled by ``_flight_energies`` in row slices of
    at most ``_ROW_ENTRIES`` entries (at least one row); every entry has
    the bits of a one-shot build."""
    count, n, m = len(origins), origins.shape[1], destinations.shape[1]
    block = np.empty((count, n, m))
    rows = max(1, _ROW_ENTRIES // max(1, count * m))
    for i0 in range(0, n, rows):
        i1 = i0 + rows
        _flight_energies(
            origins[:, i0:i1, None], destinations[:, None], energy, out=block[:, i0:i1]
        )
    return block


def solve_assignment(cost: np.ndarray) -> Assignment:
    """Exact minimum-cost assignment for a square matrix of finite costs.

    A non-square or non-finite matrix raises ``ValueError``; the signs of
    the entries are not checked (move energies are never negative).
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError("cost matrix must be square")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix must be finite")
    rows, cols = linear_sum_assignment(cost)
    # the rows of a square matrix come back as 0..n-1, so cols is the permutation
    return Assignment(
        permutation=tuple(cols.tolist()), total_energy=float(cost[rows, cols].sum())
    )


def _padded_positions(prev: Deployment, nxt: Deployment) -> Tuple[np.ndarray, np.ndarray]:
    """Both fleets' positions, the shorter padded with depot copies; equal
    fleets return their two read-only ``positions`` arrays themselves."""
    if prev.rsc_position != nxt.rsc_position:
        raise ValueError("deployments must share the depot position")
    if prev.labels != nxt.labels:
        raise ValueError("deployments must cover the same subregions")
    before, after = prev.positions, nxt.positions
    missing = len(after) - len(before)
    if missing == 0:
        return before, after
    depot = np.broadcast_to(np.asarray(prev.rsc_position, dtype=float), (abs(missing), 3))
    if missing > 0:
        return np.concatenate((before, depot)), after
    return before, np.concatenate((after, depot))


def mobility_energy_at(
    prev: Deployment, nxt: Deployment, energy: EnergyParams
) -> Tuple[float, Assignment]:
    """Minimal total energy [J] to morph ``prev`` into ``nxt``.

    Pads the joint fleets (all subregions together) with depot copies,
    then solves the assignment over the padded sets.
    """
    origins, destinations = _padded_positions(prev, nxt)
    assignment = solve_assignment(cost_matrix(origins, destinations, energy))
    return assignment.total_energy, assignment


# cost entries in one stacked build of moves (2 MiB of floats)
_BATCH_ENTRIES = 2**18

# cost entries in one row slice of a cost build (256 KiB of floats)
_ROW_ENTRIES = 2**15

# suffix entries in one block of the plan's TAIL and FLOOR pass (256 KiB of floats)
_SCAN_ENTRIES = 2**15

# relative shave of the climb bound: above (n + 10) * eps for fleets of up
# to 10^6 UAVs, the rounding of a float move energy of n entries
_CLIMB_SHAVE = 1e-9


def _net_altitudes(
    counts: np.ndarray, altitudes: np.ndarray, depot_z: float
) -> Tuple[np.ndarray, float]:
    """Per fleet (one column of the (B, m) ``counts`` and ``altitudes``),
    its altitude sum less one depot altitude per UAV, and one slack for all
    of them that bounds the rounding of a difference of two.

    W[k] - W[j] is the net climb of the padded move j -> k: depot copies
    pad the smaller fleet, so the sum of destination minus origin
    altitudes is Z[k] - Z[j] - (N[k] - N[j]) z_depot.
    """
    total = (counts * altitudes).sum(axis=0)
    size = counts.sum(axis=0)
    scale = np.abs(total) + size * abs(depot_z)
    return total - size * depot_z, 2.0 * _CLIMB_SHAVE * float(scale.max(initial=0.0))


def _climb_bound(net: np.ndarray, slack: float, energy: EnergyParams) -> np.ndarray:
    """A lower bound on the energy [J] of moves whose padded fleets climb
    by ``net`` [m] in total.

    The climb cost, dz p_a/v_a up and -dz p_d/v_d down, is convex and
    positively homogeneous, so the matched climbs cost at least the climb
    cost of their sum, and horizontal flight costs no less than 0.  The
    net climb is shaved by ``slack`` and the result by ``_CLIMB_SHAVE``,
    so the bound stays below the float energy of the move.
    """
    up = energy.p_ascend / energy.v_ascend * (1.0 - _CLIMB_SHAVE)
    down = energy.p_descend / energy.v_descend * (1.0 - _CLIMB_SHAVE)
    magnitude = np.maximum(np.abs(net) - slack, 0.0)
    return magnitude * np.where(net >= 0, up, down)


def _block_end(n: int, k0: int) -> int:
    """The end of a block of suffix rows from slot k0 of n: at most
    ``_SCAN_ENTRIES`` entries of n - k0 columns, and at least one row."""
    return min(n, k0 + max(1, _SCAN_ENTRIES // (n - k0)))


def _ratio(x) -> Tuple[int, int]:
    """The exact value of an int, float or numpy number as (numerator,
    denominator), the denominator positive."""
    # numpy integers lack as_integer_ratio
    return (int(x), 1) if isinstance(x, np.integer) else x.as_integer_ratio()


def _cost_shape(energy: EnergyParams) -> Tuple[Tuple[int, int], ...] | None:
    """The flight coefficients (p_h/v_h, p_a/v_a, p_d/v_d) divided by
    their largest, in exact arithmetic, each as its reduced (numerator,
    denominator) pair of integers; None if all three are zero.

    A positive factor on every coefficient scales the cost matrix and
    keeps its optimal permutations, so energy models of one shape share
    them.  With free flight every permutation is optimal.
    """
    coefficients = []
    for axis in ("horizontal", "ascend", "descend"):
        pn, pd = _ratio(getattr(energy, "p_" + axis))
        vn, vd = _ratio(getattr(energy, "v_" + axis))
        coefficients.append((pn * vd, pd * vn))  # p / v, the denominator positive as v > 0
    tn, td = coefficients[0]
    for n, d in coefficients[1:]:
        if n * td > tn * d:
            tn, td = n, d
    if tn == 0:
        return None
    shape = []
    for n, d in coefficients:
        n, d = n * td, d * tn
        g = math.gcd(n, d)
        shape.append((n // g, d // g))
    return tuple(shape)


@dataclass
class Schedule:
    """A schedule's update epochs, as columns of one entry per epoch, and
    its costs.  Epoch i starts at slot ``update_slots[i]`` (the first at
    slot 0), at ``update_slots[i] * slot_s`` seconds, and holds
    ``deployments[i]`` until the next epoch; ``mobility_j[i]`` is the
    energy [J] of the move into it (the launch, or 0, for the first) and
    ``changed[i]`` is True if the placement actually moved."""

    method: str
    update_slots: List[int]
    deployments: List[Deployment]
    mobility_j: List[float]
    changed: List[bool]
    horizon_s: float
    slot_s: float
    avg_dynamic_rf: float      # [1/s]
    static_integral: float     # dimensionless (rf x time)
    mobility_total_j: float
    candidate_evaluations: int = 0

    def __post_init__(self):
        lengths = tuple(map(len, (self.update_slots, self.deployments, self.mobility_j,
                                  self.changed)))
        if len(set(lengths)) != 1:
            raise ValueError(
                f"schedule columns differ in length: update_slots, deployments, "
                f"mobility_j, changed have {', '.join(map(str, lengths))}"
            )
        if not lengths[0]:
            raise ValueError("a schedule needs at least one epoch")
        if self.update_slots[0] != 0:
            raise ValueError(f"a schedule's first epoch is at slot 0, not {self.update_slots[0]}")

    @property
    def update_count(self) -> int:
        """Epochs whose placement actually changed."""
        return sum(self.changed)


# the fields of ``EnergyParams`` that only move energies depend on
_MOBILITY_FIELDS = (
    "p_horizontal", "p_ascend", "p_descend", "v_horizontal", "v_ascend", "v_descend"
)


def _plan_inputs(scenario: Scenario) -> Scenario:
    """What a plan depends on: the scenario without its mobility fields."""
    energy = dataclasses.replace(scenario.energy, **dict.fromkeys(_MOBILITY_FIELDS, 1.0))
    return dataclasses.replace(scenario, energy=energy)


class SchedulePlan:
    """What scheduling one scenario needs, mobility aside.

    Every array is per slot, so a plan takes O(B n) memory for B
    subregions and n slots: the densities LAMS (B, n), the slot-optimal
    radii (B, n), the static-cost coefficients C1 (n,) and C2 (B, n),
    the per-slot optimum OPT (n,) and TAIL (n,), all but LAMS and TAIL
    from placement's closed forms on LAMS.  :meth:`static` is the
    area-wide static recall frequency over a range of slots with every
    subregion holding its slot-k optimal placement, SLOT_STATIC (n,) holds
    its one-slot values ``static(k, k, k + 1)`` with their bits, and
    :meth:`excess_suffixes` sums its excess max(static - OPT, 0) times the
    slot length from each slot to the horizon, for a block of slots k;
    both are computed on demand.  TAIL[k] is the excess of holding slot
    k's placement from k to the horizon, the diagonal of those blocks.
    FLOOR (n,) is the least bound of an update from slot k with its move
    left out, min over j > k of (TAIL[k] - row k's suffix from j) +
    TAIL[j], inf at the last slot (see the module docstring); one pass
    over the blocks from the last back to the first fills both.
    Slots with equal radii columns share one deployment id.
    :meth:`deployments` keeps the deployments in a list by id and builds
    the ids that a request for a batch of slots lacks in one block
    ``build_deployment`` call, so a lazy schedule builds slot 0's alone
    and each id is built once.  The fleet sizes (n,) and the
    net altitudes (n,) of the climb bound (see the module docstring) come
    from ``num_uavs`` on the radii, so no deployment is built for them.

    None of this depends on the flight powers and speeds of the
    scenario's energy, so one plan serves every scheduler call of a
    mobility-power sweep.  Move energies are cached on the plan per
    energy model.  Solved permutations are kept per cost shape (see the
    module docstring), one int32 buffer per pair with equal buffers
    shared, so each pair is solved once per shape and re-summed in O(n)
    under every other energy model of that shape; free flight solves and
    keeps nothing.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = _plan_inputs(scenario)  # mobility fields reset
        self.horizon_s = scenario.horizon_s
        self.mu = scenario.slot_s
        self.n = scenario.n_slots
        self.lams = slot_densities(scenario)
        if np.any(self.lams <= 0):
            b, k = np.argwhere(self.lams <= 0)[0]
            source = (
                "its explicit densities, which override any density band"
                if scenario.explicit_densities is not None
                else "its pattern, which clamps to zero; a density_band rescales it"
            )
            raise ValueError(
                "scheduling needs strictly positive densities: subregion "
                f"{scenario.subregions[b].label!r} has {float(self.lams[b, k])!r} at slot {k}, "
                f"from {source}"
            )
        env, radio, energy = scenario.env, scenario.radio, scenario.energy
        self.h1 = optimal_altitude_ratio(env)
        areas = np.array([[s.area] for s in scenario.subregions])  # (B, 1)
        phi, placement = min_static_rf(self.lams, energy, areas, env, radio)
        self.radii, self.opt = placement.radius, phi.sum(axis=0)
        circuit, self.c2 = static_rf_terms(self.radii, energy, areas, env, radio)
        self.c1 = circuit.sum(axis=0)
        # static(k, k, k + 1) for every k at once: the same dot product per
        # slot, so the same bits (a sum over axis 0 or einsum rounds otherwise)
        dots = np.matmul(self.c2.T[:, None, :], self.lams.T[:, :, None])
        self.slot_static = self.c1 + dots[:, 0, 0]
        starts = [0]
        while starts[-1] < self.n:
            starts.append(_block_end(self.n, starts[-1]))
        self.tail, self.floor = np.empty(self.n), np.empty(self.n)
        # from the last block back, so each row finds the TAIL of later slots
        for k0, k1 in reversed(list(zip(starts, starts[1:]))):
            suffix = self.excess_suffixes(k0, k1)
            self.tail[k0:k1] = np.diagonal(suffix)
            floors = np.subtract(self.tail[k0:k1, None], suffix, out=suffix)
            floors += self.tail[k0:]
            for r in range(k1 - k0):
                floors[r, : r + 1] = math.inf  # j > k only
            self.floor[k0:k1] = floors.min(axis=1)
        # deployment(k)'s fleet sizes by construction, so neither the climb
        # bound nor the batch sizes build a deployment
        counts = num_uavs(areas, self.radii)
        self.fleet_sizes = counts.sum(axis=0)
        self.net_altitude, self.climb_slack = _net_altitudes(
            counts, self.radii * self.h1, scenario.rsc_position[2]
        )
        distinct, ids = np.unique(self.radii.T, axis=0, return_inverse=True)
        self.deployment_ids: List[int] = ids.tolist()
        # the pair caches key deployment ids (a, b) by the int a * stride + b,
        # half the memory of a tuple key
        self._pair_stride = len(distinct)
        self._distinct_radii = distinct.T  # (B, ids): column a is id a's radii
        self._deployments: List[Deployment | None] = [None] * len(distinct)
        self._pair_energies: Dict[EnergyParams, Dict[int, float]] = {}
        # solved permutations per cost shape and pair, int32 buffers shared
        # through the pool when equal; free flight's shape None stays empty
        self._permutations: Dict[Tuple[Tuple[int, int], ...] | None, Dict[int, bytes]] = {}
        self._permutation_pool: Dict[bytes, bytes] = {}

    def static(self, k: int, t0: int, t1: int) -> np.ndarray:
        """Static recall frequency in slots t0..t1-1 of the slot-k placement."""
        return self.c1[k] + self.c2[:, k] @ self.lams[:, t0:t1]

    def excess_suffixes(self, k0: int, k1: int) -> np.ndarray:
        """Excess of the slot-k placement over OPT, summed from each slot t
        on to the horizon, for k0 <= k < k1: row k - k0, column t - k0.

        Each row takes its static row from its own ``static(k, k, n)``
        (another slice of the product can round otherwise) and an excess
        of exactly 0 left of its slot, so those columns repeat the row's
        sum from slot k, its TAIL."""
        excess = np.zeros((k1 - k0, self.n - k0))
        for r, k in enumerate(range(k0, k1)):
            np.subtract(self.static(k, k, self.n), self.opt[k:], out=excess[r, r:])
        np.maximum(excess, 0.0, out=excess)
        excess *= self.mu
        reversed_excess = excess[:, ::-1]
        np.cumsum(reversed_excess, axis=1, out=reversed_excess)
        return excess

    def check(self, scenario: Scenario) -> None:
        """Raise ``ValueError`` unless this plan fits ``scenario``.

        Every scenario field must match, the horizon included, except the
        mobility fields of its energy.
        """
        inputs = _plan_inputs(scenario)
        if inputs != self.scenario:
            differ = [
                f.name
                for f in dataclasses.fields(Scenario)
                if getattr(inputs, f.name) != getattr(self.scenario, f.name)
            ]
            raise ValueError(
                f"plan was built for another scenario: {', '.join(differ)} differ "
                "(only the mobility powers and speeds may)"
            )

    def deployments(self, slots: Iterable[int]) -> List[Deployment | None]:
        """The deployments by id, those of ``slots`` built: the ids not
        built yet go to one ``build_deployment`` call over their radii
        columns.  Read slot k's as ``[deployment_ids[k]]``; ids that no
        request has reached yet hold None."""
        built, ids = self._deployments, self.deployment_ids
        missing = sorted({ids[k] for k in slots if built[ids[k]] is None})
        if missing:
            radii = self._distinct_radii[:, missing]
            block = build_deployment(
                self.scenario.subregions, radii, radii * self.h1, self.scenario.rsc_position
            )
            for key, dep in zip(missing, block):
                built[key] = dep
        return built

    def deployment(self, k: int) -> Deployment:
        return self.deployments((k,))[self.deployment_ids[k]]


class _Moves:
    """Move energies of one energy model between the deployments of a plan.

    :meth:`fill` returns the energies of a batch of moves, computing those
    not kept yet.  Pair energies go to a dict that the plan keeps per
    energy model, so every scheduler call at the same mobility solves each
    pair once.  Solved permutations go to a dict that the plan keeps per
    cost shape, so a pair already solved under another model of the same
    shape is re-summed along its permutation, not solved.  Under free
    flight every move costs 0 J, and nothing is solved or kept.
    """

    def __init__(self, plan: SchedulePlan, energy: EnergyParams):
        self.plan = plan
        self.energy = energy
        shape = _cost_shape(energy)
        self._free = shape is None
        self._pair_energy = plan._pair_energies.setdefault(energy, {})
        self._permutations = plan._permutations.setdefault(shape, {})

    def fill(self, moves: Iterable[Tuple[int, int]]) -> List[float]:
        """The energy of every slot move i -> j of ``moves``, in order.  The
        pairs not kept yet are computed in batches of one padded size, from
        deployments that one :meth:`SchedulePlan.deployments` request builds.

        A batch of new pairs builds its cost matrices into one stacked
        array (``_cost_block``) and hands each to ``solve_assignment``;
        a batch of pairs with a stored permutation is one gather and one
        row sum, which has the bits of the 1-D sum.  A batch holds at most
        ``_BATCH_ENTRIES`` cost entries (at least one pair).
        """
        moves = list(moves)
        if self._free:
            return [0.0] * len(moves)
        plan, table = self.plan, self._pair_energy
        ids, stride = plan.deployment_ids, plan._pair_stride
        # -1 for a move between equal deployments, which costs 0 J
        keys = [ids[i] * stride + ids[j] if ids[i] != ids[j] else -1 for i, j in moves]
        missing = {}
        for key, (i, j) in zip(keys, moves):
            if key >= 0 and key not in table:
                missing.setdefault(key, (key, i, j))
        if missing:
            pairs = list(missing.values())
            deployments = plan.deployments(k for _, i, j in pairs for k in (i, j))
            sizes = plan.fleet_sizes[np.array(pairs)[:, 1:]].max(axis=1)
            batches: Dict[Tuple[bool, int], List[Tuple[int, int, int]]] = {}
            for pair, size in zip(pairs, sizes.tolist()):
                batches.setdefault((pair[0] in self._permutations, size), []).append(pair)
            for (stored, size), batch in batches.items():
                step = max(1, _BATCH_ENTRIES // (size if stored else size * size))
                for start in range(0, len(batch), step):
                    self._fill(deployments, batch[start : start + step], stored)
        return [table[key] if key >= 0 else 0.0 for key in keys]

    def _fill(
        self,
        deployments: List[Deployment | None],
        moves: List[Tuple[int, int, int]],
        stored: bool,
    ) -> None:
        """Energies of the (key, i, j) moves i -> j, of one padded size."""
        plan = self.plan
        ids = plan.deployment_ids
        padded = [_padded_positions(deployments[ids[i]], deployments[ids[j]]) for _, i, j in moves]
        origins = np.stack([before for before, _ in padded])
        destinations = np.stack([after for _, after in padded])
        keys = [key for key, _, _ in moves]
        if stored:
            perms = np.stack([np.frombuffer(self._permutations[k], dtype=np.int32) for k in keys])
            moved = destinations[np.arange(len(keys))[:, None], perms]
            totals = _flight_energies(origins, moved, self.energy).sum(axis=1)
            self._pair_energy.update(zip(keys, totals.tolist()))
        else:
            costs = _cost_block(origins, destinations, self.energy)
            for key, cost in zip(keys, costs):
                assignment = solve_assignment(cost)
                buf = np.array(assignment.permutation, dtype=np.int32).tobytes()
                self._permutations[key] = plan._permutation_pool.setdefault(buf, buf)
                self._pair_energy[key] = assignment.total_energy

    def launch_energy(self, k: int) -> float:
        """Energy to launch the slot-k fleet from the depot."""
        rsc = np.array(self.plan.scenario.rsc_position)
        fleet = self.plan.deployment(k).positions
        return float(_flight_energies(rsc, fleet, self.energy).sum())


def _moves_for(scenario: Scenario, plan: SchedulePlan | None) -> _Moves:
    """The move energies of ``scenario`` on ``plan``, or on a fresh plan."""
    if plan is None:
        plan = SchedulePlan(scenario)
    else:
        plan.check(scenario)
    return _Moves(plan, scenario.energy)


def _assemble(
    method: str,
    moves: _Moves,
    epoch_slots: List[int],
    scenario: Scenario,
    evaluations: int = 0,
) -> Schedule:
    pre = moves.plan
    mu = pre.mu
    ids = pre.deployment_ids
    epoch_ids = [ids[k] for k in epoch_slots]
    built = pre.deployments(epoch_slots)
    launch = moves.launch_energy(epoch_slots[0]) if scenario.include_initial_launch else 0.0
    mobility = [launch, *moves.fill(zip(epoch_slots, epoch_slots[1:]))]
    static_total = 0.0
    for k, end, one_slot in zip(
        epoch_slots, [*epoch_slots[1:], pre.n], pre.slot_static[epoch_slots].tolist()
    ):
        if end == k + 1:
            static_total += one_slot * mu
        else:
            static_total += float(pre.static(k, k, end).sum()) * mu
    mobility_total = 0.0
    for mob in mobility:
        mobility_total += mob
    changed = [False, *map(operator.ne, epoch_ids, epoch_ids[1:])]
    avg = (static_total + mobility_total / scenario.energy.battery_j) / pre.horizon_s
    return Schedule(
        method=method,
        update_slots=epoch_slots,
        deployments=list(map(built.__getitem__, epoch_ids)),
        mobility_j=mobility,
        changed=changed,
        horizon_s=pre.horizon_s,
        slot_s=mu,
        avg_dynamic_rf=avg,
        static_integral=static_total,
        mobility_total_j=mobility_total,
        candidate_evaluations=evaluations,
    )


def _best_update(
    moves: _Moves, k: int, continuation: np.ndarray, hold: float, cutoff: float = math.inf
) -> Tuple[float, int | None]:
    """The cheapest plan from slot ``k`` (see module docstring): hold at
    excess ``hold``, or update at j > k at its staleness plus the move
    plus ``continuation[j] >= 0``.  The updates are visited by repeated
    argmin of their bound, the staleness plus the climb bound over the
    battery plus the continuation, summed in the order of the value so
    that bound <= value in floats.  Returns the plan's excess cost and its
    update slot, None to hold.  Updates whose bound exceeds ``cutoff`` go
    unvisited, so the result is exact when it is at most ``cutoff``; when
    it is above, so is the exact one."""
    plan, eb = moves.plan, moves.energy.battery_j
    suffix = plan.excess_suffixes(k, k + 1)[0]
    stale = suffix[0] - suffix[1:]
    net = plan.net_altitude[k + 1 :] - plan.net_altitude[k]
    bound = stale + _climb_bound(net, plan.climb_slack, moves.energy) / eb
    bound += continuation[k + 1 :]
    best_value, nxt = hold, None
    for _ in range(len(bound)):
        i = int(bound.argmin())  # the first of equal bounds: slot order
        if bound[i] > best_value or bound[i] > cutoff:
            break  # every other candidate has a larger bound
        bound[i] = math.inf
        j = k + 1 + i
        value = float(stale[i]) + moves.fill(((k, j),))[0] / eb + float(continuation[j])
        if value < best_value or (value == best_value and nxt is not None and j < nxt):
            best_value, nxt = value, j
    return best_value, nxt


def _diligent_costs(moves: _Moves) -> List[float]:
    """The diligent plan's excess from each slot: every consecutive move
    left, over the battery; inf at the last slot, which has no such plan.

    The moves are filled in one batch and summed from the last back by
    one cumulative sum."""
    n = moves.plan.n
    energies = moves.fill((j, j + 1) for j in range(n - 1))[::-1]
    costs = np.cumsum(np.array(energies) / moves.energy.battery_j)[::-1]
    return [*costs.tolist(), math.inf]


def smgd_schedule(scenario: Scenario, *, plan: SchedulePlan | None = None) -> Schedule:
    """Greedy sequential epoch selection (see module docstring).

    ``candidate_evaluations`` counts every candidate, pruned or not.
    ``plan`` is shared with other calls on the same scenario (see
    :class:`SchedulePlan`); without it the call builds its own.
    """
    moves = _moves_for(scenario, plan)
    pre = moves.plan
    diligent = _diligent_costs(moves)
    tail, floor = pre.tail.tolist(), pre.floor.tolist()
    epoch_slots = [0]
    evaluations = 0
    cur = 0
    while True:
        evaluations += pre.n - cur
        best_value, nxt = tail[cur], None
        # an update dearer than the diligent plan cannot be taken, and every
        # update's bound is at least the floor
        if floor[cur] <= min(best_value, diligent[cur]):
            best_value, nxt = _best_update(moves, cur, pre.tail, best_value, diligent[cur])
        if diligent[cur] < best_value:
            nxt = cur + 1
        if nxt is None:
            break
        cur = nxt
        epoch_slots.append(cur)
    return _assemble("smgd", moves, epoch_slots, scenario, evaluations)


def optimal_schedule(scenario: Scenario) -> Schedule:
    """The cheapest schedule over SMGD's candidates (see module docstring)."""
    moves = _moves_for(scenario, None)
    plan = moves.plan
    n = plan.n
    value = np.empty(n)
    nxt: List[int | None] = [None] * n
    for k in range(n - 1, -1, -1):
        value[k], nxt[k] = _best_update(moves, k, value, float(plan.tail[k]))
    epoch_slots = [0]
    while nxt[epoch_slots[-1]] is not None:
        epoch_slots.append(nxt[epoch_slots[-1]])
    return _assemble("optimal", moves, epoch_slots, scenario)


def baseline_schedule(
    kind: str, scenario: Scenario, *, plan: SchedulePlan | None = None
) -> Schedule:
    """The two reference policies: never update, or update every slot.

    ``plan`` is shared as in :func:`smgd_schedule`.
    """
    kind = kind.lower()
    if kind not in ("lazy", "diligent"):
        raise ValueError(f"kind must be 'lazy' or 'diligent', got {kind!r}")
    moves = _moves_for(scenario, plan)
    slots = [0] if kind == "lazy" else list(range(moves.plan.n))
    return _assemble(kind, moves, slots, scenario)


def dynamic_rf(schedule: Schedule, scenario: Scenario) -> float:
    """Recompute the average dynamic recall frequency from a schedule.

    Independent reassembly of the static integral and mobility charges
    from the densities and the closed-form static recall frequency of
    each epoch's radii over the schedule's horizon, without the
    scheduler's plan; agrees with ``schedule.avg_dynamic_rf`` to float
    precision.  A scenario with another slot length raises ValueError.
    """
    if scenario.slot_s != schedule.slot_s:
        raise ValueError(
            f"scenario slot_s {scenario.slot_s:g} s differs from the schedule's "
            f"slot_s {schedule.slot_s:g} s"
        )
    horizon = schedule.horizon_s
    mu = schedule.slot_s
    n = int(round(horizon / mu))
    lams = slot_densities(dataclasses.replace(scenario, horizon_s=horizon))
    areas = np.array([s.area for s in scenario.subregions])
    slots = schedule.update_slots
    total_static = 0.0
    total_mobility = sum(schedule.mobility_j)
    for k, end, deployment in zip(slots, [*slots[1:], n], schedule.deployments):
        radii = np.array(deployment.radii)
        terms = static_rf_terms(radii, scenario.energy, areas, scenario.env, scenario.radio)
        total_static += float((terms[0].sum() + terms[1] @ lams[:, k:end]).sum()) * mu
    return (total_static + total_mobility / scenario.energy.battery_j) / horizon
