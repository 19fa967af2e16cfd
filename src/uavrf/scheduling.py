"""Multi-slot placement updating: mobility costs, trajectory assignment,
greedy and exact epoch selection, and the Lazy/Diligent baselines.

Moving a UAV costs horizontal power times flight time plus ascend or
descend power times climb time.  When the fleet size changes between
consecutive placements, the shorter position set is padded with copies
of the depot (RSC) so recalled units fly home and supplements launch
from it; the minimum-energy pairing of old to new positions is then a
square assignment problem solved exactly in polynomial time.

One pair solve (:func:`mobility_energy_at`) reads the positions that
each deployment stacked once, pads only when the fleet sizes differ,
builds the cost matrix from one (n, n) temporary per axis and hands it
to scipy's ``linear_sum_assignment`` (Crouse 2016).  It keeps every
check: the two deployments share the depot and the subregion labels,
the matrix is square and finite, and the result is a permutation.  On
the two-zone reference scenario (2 x 2 matrices) a solve costs about
22 us on a 2-vCPU VM, of which the assignment itself is under 2 us; at
paper density (a few hundred UAVs per zone) the assignment dominates.

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
slot-k placement to the horizon.  Staleness plus continuation is a lower
bound that needs no assignment solve, because move energy is
nonnegative.  Each step therefore visits the updates in ascending bound
(a stable sort, so equal bounds stay in slot order) and stops at the
first bound above the incumbent: no later update can win, the ordering
trick of PELT-style pruning (Killick, Fearnhead & Eckley 2012).  Ties
resolve as in a scan in slot order: holding beats an update of equal
value, the earliest of equal updates wins, and the diligent plan wins
only when strictly cheaper, so pruning never changes the plan taken.
``Schedule.candidate_evaluations`` counts the hold plan and every update
at each step, pruned or not.  Move energies are solved once per ordered
pair of distinct deployments (slots with equal radii share one).

The same scan, run from the last slot back to the first with the least
cost from each later slot as the continuation, gives the exact optimum
over SMGD's candidates (:func:`optimal_schedule`): a shortest path over
update epochs, or optimal partitioning (Jackson et al. 2005).  It solves
O(n^2) pair energies in the worst case.

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
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .channel import check_positive
from .layout import Deployment, _as_points, build_deployment, pad_with_rsc
from .placement import EnergyParams, optimal_altitude_ratio, optimal_normalized_power
from .scenario import Scenario, slot_densities


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
    origins: np.ndarray, destinations: np.ndarray, energy: EnergyParams
) -> np.ndarray:
    """Move energies from ``origins`` to ``destinations``, (..., 3) point
    arrays broadcast against each other.

    Each is hypot(dx, dy) * (p_h / v_h) plus the climb dz times
    (p_a / v_a) or the descent -dz times (p_d / v_d).  The cost matrix
    and the re-sum of a stored permutation both come from here, so a pair
    of points gets the same bits whatever the shape of the arrays.
    """
    dx = origins[..., 0] - destinations[..., 0]
    cost = np.hypot(dx, origins[..., 1] - destinations[..., 1], out=dx)
    cost *= energy.p_horizontal / energy.v_horizontal
    dz = destinations[..., 2] - origins[..., 2]
    # dz * -(p_d / v_d) has the bits of -dz * (p_d / v_d)
    dz *= np.where(
        dz >= 0, energy.p_ascend / energy.v_ascend, -(energy.p_descend / energy.v_descend)
    )
    cost += dz
    return cost


def cost_matrix(
    origins: np.ndarray, destinations: np.ndarray, energy: EnergyParams
) -> np.ndarray:
    """Pairwise move energies, origins as rows and destinations as columns.

    Entry (k, l) is hypot(dx, dy) * (p_h / v_h) plus the climb dz times
    (p_a / v_a) or the descent -dz times (p_d / v_d), computed with one
    (n, n) temporary per axis.
    """
    origins = _as_points(origins)
    destinations = _as_points(destinations)
    if len(origins) != len(destinations):
        raise ValueError(
            f"need equally many origins and destinations, got {len(origins)} and {len(destinations)}"
        )
    return _flight_energies(origins[:, None], destinations, energy)


def solve_assignment(cost: np.ndarray) -> Assignment:
    """Exact minimum-cost assignment for a square nonnegative matrix."""
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
    """Both fleets' positions, the shorter padded with depot copies."""
    if prev.rsc_position != nxt.rsc_position:
        raise ValueError("deployments must share the depot position")
    if [e.label for e in prev.entries] != [e.label for e in nxt.entries]:
        raise ValueError("deployments must cover the same subregions")
    return pad_with_rsc(prev.all_positions(), nxt.all_positions(), prev.rsc_position)


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


def _matched_energy(
    prev: Deployment, nxt: Deployment, permutation: np.ndarray, energy: EnergyParams
) -> float:
    """Energy [J] of moving padded origin k of ``prev`` to destination
    ``permutation[k]`` of ``nxt``, summed in O(n).

    For the permutation that :func:`mobility_energy_at` solves, this has
    the bits of its energy: the same entries, summed in the same order.
    """
    origins, destinations = _padded_positions(prev, nxt)
    return float(_flight_energies(origins, destinations[permutation], energy).sum())


def _cost_shape(energy: EnergyParams) -> Tuple[Fraction, ...] | None:
    """The flight coefficients (p_h/v_h, p_a/v_a, p_d/v_d) divided by
    their largest, in exact arithmetic; None if all three are zero.

    A positive factor on every coefficient scales the cost matrix and
    keeps its optimal permutations, so energy models of one shape share
    them.  With free flight every permutation is optimal.
    """
    coefficients = [
        Fraction(getattr(energy, "p_" + axis)) / Fraction(getattr(energy, "v_" + axis))
        for axis in ("horizontal", "ascend", "descend")
    ]
    top = max(coefficients)
    return None if top == 0 else tuple(c / top for c in coefficients)


@dataclass(frozen=True)
class ScheduleEpoch:
    tau: float                 # update instant [s]
    deployment: Deployment
    mobility_j: float          # energy of the move into this deployment [J]
    changed: bool              # True if the placement actually moved


@dataclass
class Schedule:
    method: str
    epochs: List[ScheduleEpoch]
    horizon_s: float
    slot_s: float
    avg_dynamic_rf: float      # [1/s]
    static_integral: float     # dimensionless (rf x time)
    mobility_total_j: float
    update_count: int          # epochs whose placement actually changed
    candidate_evaluations: int = 0

    @property
    def update_slots(self) -> List[int]:
        # k * slot_s / slot_s can fall just below k, so round, never floor
        return [round(e.tau / self.slot_s) for e in self.epochs]


def _static_rf(scenario: Scenario, lams: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Per-slot area-wide static RF of fixed radii under densities ``lams`` (B, m)."""
    energy = scenario.energy
    areas = np.array([s.area for s in scenario.subregions])
    spe = areas / (math.pi * energy.battery_j)  # S_b / (pi E_b)
    p1 = optimal_normalized_power(scenario.env, scenario.radio)
    c1 = (spe * energy.p_circuit / radii**2).sum()
    c2 = spe * scenario.radio.snr_gap * p1 * radii**2
    return c1 + c2 @ lams


# the fields of ``EnergyParams`` that only move energies depend on
_MOBILITY_FIELDS = (
    "p_horizontal", "p_ascend", "p_descend", "v_horizontal", "v_ascend", "v_descend"
)


def _without_mobility(energy: EnergyParams) -> EnergyParams:
    return dataclasses.replace(energy, **dict.fromkeys(_MOBILITY_FIELDS, 1.0))


def _plan_inputs(scenario: Scenario) -> Scenario:
    """What a plan depends on: the scenario without its mobility fields."""
    return dataclasses.replace(scenario, energy=_without_mobility(scenario.energy))


class SchedulePlan:
    """What scheduling one scenario needs, mobility aside.

    Every array is per slot, so a plan takes O(B n) memory for B
    subregions and n slots: the densities LAMS (B, n), the slot-optimal
    radii (B, n), the static-cost coefficients C1 (n,) and C2 (B, n),
    the per-slot optimum OPT (n,) and TAIL (n,).  :meth:`static` is the
    area-wide static recall frequency over a range of slots with every
    subregion holding its slot-k optimal placement, and
    :meth:`excess_suffix` sums its excess max(static - OPT, 0) times the
    slot length from each slot to the horizon; both are computed on
    demand.  TAIL[k] is the excess of holding slot k's placement from k
    to the horizon.  Slots with equal radii columns share one deployment
    id, and deployments are cached per id.

    None of this depends on the flight powers and speeds of the
    scenario's energy, so one plan serves every scheduler call of a
    mobility-power sweep.  Move energies come from :meth:`with_energy`,
    cached on the plan per energy model.  Solved permutations are kept
    per cost shape (see the module docstring), one int32 buffer per
    pair with equal buffers shared, so each pair is solved once per
    shape and re-summed in O(n) under every other energy model of that
    shape; free flight solves and keeps nothing.
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
        check_positive("circuit power p_circuit", energy.p_circuit)
        p1 = optimal_normalized_power(env, radio)
        self.h1 = optimal_altitude_ratio(env)
        areas = np.array([s.area for s in scenario.subregions])
        q = radio.snr_gap
        eb = energy.battery_j
        # R*[b, k] and per-slot optima
        self.radii = (energy.p_circuit / (self.lams * q * p1)) ** 0.25
        spe = areas / (math.pi * eb)  # S_b / (pi E_b)
        self.c1 = (spe[:, None] * energy.p_circuit / self.radii**2).sum(axis=0)  # (n,)
        self.c2 = spe[:, None] * q * p1 * self.radii**2                           # (B, n)
        self.opt = 2.0 * (spe[:, None] * np.sqrt(self.lams * q * energy.p_circuit * p1)).sum(axis=0)
        self.tail = np.array([self.excess_suffix(k)[0] for k in range(self.n)])
        distinct, ids = np.unique(self.radii.T, axis=0, return_inverse=True)
        self.deployment_ids: List[int] = ids.tolist()
        # the pair caches key deployment ids (a, b) by the int a * stride + b,
        # half the memory of a tuple key
        self._pair_stride = len(distinct)
        self._deployments: Dict[int, Deployment] = {}
        self._pair_energies: Dict[EnergyParams, Dict[int, float]] = {}
        # solved permutations per cost shape and pair, int32 buffers shared
        # through the pool when equal; free flight's shape None stays empty
        self._permutations: Dict[Tuple[Fraction, ...] | None, Dict[int, bytes]] = {}
        self._permutation_pool: Dict[bytes, bytes] = {}

    def static(self, k: int, t0: int, t1: int) -> np.ndarray:
        """Static recall frequency in slots t0..t1-1 of the slot-k placement."""
        return self.c1[k] + self.c2[:, k] @ self.lams[:, t0:t1]

    def excess_suffix(self, k: int) -> np.ndarray:
        """Excess of the slot-k placement over OPT, summed from each slot t >= k on."""
        excess = self.static(k, k, self.n)
        excess -= self.opt[k:]
        np.maximum(excess, 0.0, out=excess)
        excess *= self.mu
        reversed_excess = excess[::-1]
        np.cumsum(reversed_excess, out=reversed_excess)
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

    def with_energy(self, energy: EnergyParams) -> "_Moves":
        """Move energies between this plan's deployments under ``energy``."""
        if _without_mobility(energy) != self.scenario.energy:
            raise ValueError(
                "plan was built for another circuit power or battery capacity"
            )
        return _Moves(self, energy)

    def deployment(self, k: int) -> Deployment:
        key = self.deployment_ids[k]
        dep = self._deployments.get(key)
        if dep is None:
            radii = self.radii[:, k]
            dep = build_deployment(
                self.scenario.subregions,
                radii,
                radii * self.h1,
                self.scenario.rsc_position,
            )
            self._deployments[key] = dep
        return dep


class _Moves:
    """Move energies of one energy model between the deployments of a plan.

    Pair energies go to a dict that the plan keeps per energy model, so
    every scheduler call at the same mobility solves each pair once.
    Solved permutations go to a dict that the plan keeps per cost shape,
    so a pair already solved under another model of the same shape is
    re-summed along its permutation, not solved.  Under free flight every
    move costs 0 J, and nothing is solved or kept.
    """

    def __init__(self, plan: SchedulePlan, energy: EnergyParams):
        self.plan = plan
        self.energy = energy
        shape = _cost_shape(energy)
        self._free = shape is None
        self._pair_energy = plan._pair_energies.setdefault(energy, {})
        self._permutations = plan._permutations.setdefault(shape, {})

    def pair_energy(self, i: int, j: int) -> float:
        ids = self.plan.deployment_ids
        a, b = ids[i], ids[j]
        if a == b or self._free:
            return 0.0
        key = a * self.plan._pair_stride + b
        value = self._pair_energy.get(key)
        if value is None:
            prev, nxt = self.plan.deployment(i), self.plan.deployment(j)
            stored = self._permutations.get(key)
            if stored is not None:
                perm = np.frombuffer(stored, dtype=np.int32)
                value = _matched_energy(prev, nxt, perm, self.energy)
            else:
                value, assignment = mobility_energy_at(prev, nxt, self.energy)
                buf = np.array(assignment.permutation, dtype=np.int32).tobytes()
                self._permutations[key] = self.plan._permutation_pool.setdefault(buf, buf)
            self._pair_energy[key] = value
        return value

    def launch_energy(self, k: int) -> float:
        """Energy to launch the slot-k fleet from the depot."""
        rsc = np.array(self.plan.scenario.rsc_position)
        fleet = self.plan.deployment(k).all_positions()
        return float(_flight_energies(rsc, fleet, self.energy).sum())


def _moves_for(scenario: Scenario, plan: SchedulePlan | None) -> _Moves:
    """The move energies of ``scenario`` on ``plan``, or on a fresh plan."""
    if plan is None:
        plan = SchedulePlan(scenario)
    else:
        plan.check(scenario)
    return plan.with_energy(scenario.energy)


def _assemble(
    method: str,
    moves: _Moves,
    epoch_slots: List[int],
    scenario: Scenario,
    evaluations: int = 0,
) -> Schedule:
    pre = moves.plan
    mu = pre.mu
    eb = scenario.energy.battery_j
    epochs: List[ScheduleEpoch] = []
    static_total = 0.0
    mobility_total = 0.0
    for i, k in enumerate(epoch_slots):
        end = epoch_slots[i + 1] if i + 1 < len(epoch_slots) else pre.n
        static_total += float(pre.static(k, k, end).sum()) * mu
        if i == 0:
            mob = moves.launch_energy(k) if scenario.include_initial_launch else 0.0
            changed = False
        else:
            mob = moves.pair_energy(epoch_slots[i - 1], k)
            changed = bool(
                pre.deployment_ids[epoch_slots[i - 1]] != pre.deployment_ids[k]
            )
        mobility_total += mob
        epochs.append(
            ScheduleEpoch(tau=k * mu, deployment=pre.deployment(k), mobility_j=mob, changed=changed)
        )
    avg = (static_total + mobility_total / eb) / pre.horizon_s
    return Schedule(
        method=method,
        epochs=epochs,
        horizon_s=pre.horizon_s,
        slot_s=mu,
        avg_dynamic_rf=avg,
        static_integral=static_total,
        mobility_total_j=mobility_total,
        update_count=sum(1 for e in epochs if e.changed),
        candidate_evaluations=evaluations,
    )


def _best_update(
    moves: _Moves, cur: int, continuation: np.ndarray
) -> Tuple[float, int | None]:
    """The cheapest plan from slot ``cur`` (see module docstring): hold, or
    update at k > cur and then pay ``continuation[k - cur - 1] >= 0``.
    Returns its excess cost and the update slot, None to hold."""
    suffix = moves.plan.excess_suffix(cur)
    eb = moves.energy.battery_j
    hold_value = float(suffix[0])
    best_value, nxt = hold_value, None
    stale = hold_value - suffix[1:]
    bound = stale + continuation  # mobility only adds cost to an update plan
    # only an update whose bound is at most the hold value can win
    cand = np.flatnonzero(bound <= hold_value)
    for i in cand[np.argsort(bound[cand], kind="stable")]:
        if bound[i] > best_value:
            break  # every later candidate has a larger bound
        k = cur + 1 + int(i)
        value = float(stale[i]) + moves.pair_energy(cur, k) / eb + float(continuation[i])
        if value < best_value or (value == best_value and nxt is not None and k < nxt):
            best_value, nxt = value, k
    return best_value, nxt


def smgd_schedule(scenario: Scenario, *, plan: SchedulePlan | None = None) -> Schedule:
    """Greedy sequential epoch selection (see module docstring).

    ``candidate_evaluations`` counts every candidate, pruned or not.
    ``plan`` is shared with other calls on the same scenario (see
    :class:`SchedulePlan`); without it the call builds its own.
    """
    moves = _moves_for(scenario, plan)
    pre = moves.plan
    n = pre.n
    eb = scenario.energy.battery_j
    # diligent continuation cost from each slot: all remaining consecutive moves
    dil_suffix = np.zeros(n + 1)
    for j in range(n - 2, -1, -1):
        dil_suffix[j] = dil_suffix[j + 1] + moves.pair_energy(j, j + 1) / eb

    epoch_slots = [0]
    evaluations = 0
    cur = 0
    while True:
        evaluations += n - cur
        best_value, nxt = _best_update(moves, cur, pre.tail[cur + 1 :])
        if cur + 1 < n and float(dil_suffix[cur]) < best_value:
            nxt = cur + 1
        if nxt is None:
            break
        cur = nxt
        epoch_slots.append(cur)
    return _assemble("smgd", moves, epoch_slots, scenario, evaluations)


def optimal_schedule(scenario: Scenario) -> Schedule:
    """The cheapest schedule over SMGD's candidates (see module docstring)."""
    moves = _moves_for(scenario, None)
    n = moves.plan.n
    value = np.empty(n)
    nxt: List[int | None] = [None] * n
    for k in range(n - 1, -1, -1):
        value[k], nxt[k] = _best_update(moves, k, value[k + 1 :])
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
    precision.
    """
    horizon = schedule.horizon_s
    mu = schedule.slot_s
    n = int(round(horizon / mu))
    lams = slot_densities(dataclasses.replace(scenario, horizon_s=horizon))
    slots = schedule.update_slots
    total_static = 0.0
    total_mobility = sum(e.mobility_j for e in schedule.epochs)
    for i, k in enumerate(slots):
        end = slots[i + 1] if i + 1 < len(slots) else n
        radii = np.array(schedule.epochs[i].deployment.radii())
        total_static += float(_static_rf(scenario, lams[:, k:end], radii).sum()) * mu
    return (total_static + total_mobility / scenario.energy.battery_j) / horizon
