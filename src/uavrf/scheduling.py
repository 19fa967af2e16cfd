"""Multi-slot placement updating: mobility costs, trajectory assignment,
greedy epoch selection, and the Lazy/Diligent baselines.

Moving a UAV costs horizontal power times flight time plus ascend or
descend power times climb time.  When the fleet size changes between
consecutive placements, the shorter position set is padded with copies
of the depot (RSC) so recalled units fly home and supplements launch
from it; the minimum-energy pairing of old to new positions is then a
square assignment problem solved exactly in polynomial time.

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
plus the excess of holding the slot-k placement from k on.  Staleness
plus excess is a lower bound that needs no assignment solve, because
move energy is nonnegative.  Each step therefore visits the updates in
ascending bound (a stable sort, so equal bounds stay in slot order) and
stops at the first bound above the incumbent: no later update can win,
the ordering trick of PELT-style pruning (Killick, Fearnhead & Eckley
2012).  Ties resolve as in a scan in slot order: holding beats an update
of equal value, the earliest of equal updates wins, and the diligent
plan wins only when strictly cheaper.  Slots with equal radii share one
deployment, so move energies are solved once per ordered pair of
distinct deployments, and a move between equal ones costs nothing.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .layout import Deployment, build_deployment, pad_with_rsc
from .placement import (
    EnergyParams,
    check_circuit_power,
    optimal_altitude_ratio,
    optimal_normalized_power,
)
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


def cost_matrix(
    origins: np.ndarray, destinations: np.ndarray, energy: EnergyParams
) -> np.ndarray:
    """Pairwise move energies, origins as rows and destinations as columns."""
    origins = np.atleast_2d(np.asarray(origins, dtype=float))
    destinations = np.atleast_2d(np.asarray(destinations, dtype=float))
    if len(origins) != len(destinations):
        raise ValueError(
            f"need equally many origins and destinations, got {len(origins)} and {len(destinations)}"
        )
    d_xy = np.hypot(
        origins[:, None, 0] - destinations[None, :, 0],
        origins[:, None, 1] - destinations[None, :, 1],
    )
    dz = destinations[None, :, 2] - origins[:, None, 2]
    vertical = np.where(
        dz >= 0,
        dz * (energy.p_ascend / energy.v_ascend),
        -dz * (energy.p_descend / energy.v_descend),
    )
    return d_xy * (energy.p_horizontal / energy.v_horizontal) + vertical


def solve_assignment(cost: np.ndarray) -> Assignment:
    """Exact minimum-cost assignment for a square nonnegative matrix."""
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError("cost matrix must be square")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    rows, cols = linear_sum_assignment(cost)
    perm = [0] * len(rows)
    for r, c in zip(rows, cols):
        perm[r] = int(c)
    return Assignment(permutation=tuple(perm), total_energy=float(cost[rows, cols].sum()))


def mobility_energy_at(
    prev: Deployment, nxt: Deployment, energy: EnergyParams
) -> Tuple[float, Assignment]:
    """Minimal total energy [J] to morph ``prev`` into ``nxt``.

    Pads the joint fleets (all subregions together) with depot copies,
    then solves the assignment over the padded sets.
    """
    if prev.rsc_position != nxt.rsc_position:
        raise ValueError("deployments must share the depot position")
    if tuple(e.label for e in prev.entries) != tuple(e.label for e in nxt.entries):
        raise ValueError("deployments must cover the same subregions")
    origins, destinations = pad_with_rsc(
        prev.all_positions(), nxt.all_positions(), prev.rsc_position
    )
    assignment = solve_assignment(cost_matrix(origins, destinations, energy))
    return assignment.total_energy, assignment


@dataclass(frozen=True)
class ScheduleEpoch:
    tau: float                 # update instant [s]
    deployment: Deployment
    mobility_j: float          # energy of the move into this deployment [J]
    changed: bool              # True if the placement actually moved


@dataclass(frozen=True)
class StepTrace:
    """Plan values considered at one greedy step (for auditing)."""

    slot: int
    hold_value: float
    update_values: Dict[int, float]
    diligent_value: Optional[float]
    chosen: str                # 'hold', 'update:<k>' or 'diligent'
    chosen_value: float


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
    trace: Optional[List[StepTrace]] = None

    @property
    def update_slots(self) -> List[int]:
        return [int(round(e.tau // self.slot_s)) for e in self.epochs]


def interval_avg_rf(
    t_start: float,
    t_end: float,
    deployment: Deployment,
    mobility_j: float,
    scenario: Scenario,
) -> float:
    """Average recall frequency [1/s] over [t_start, t_end].

    The placement is the one fixed at t_start; densities vary per slot;
    ``mobility_j`` is the energy of the update closing the interval
    (zero when the interval runs to the horizon without an update).
    """
    mu = scenario.slot_s
    for t in (t_start, t_end):
        if abs(t / mu - round(t / mu)) > 1e-9:
            raise ValueError("interval bounds must be multiples of the slot length")
    if t_end <= t_start:
        raise ValueError("interval must have positive length")
    pre = _Precomputed.for_scenario(scenario, t_end)
    k0 = int(round(t_start / mu))
    k1 = int(round(t_end / mu))
    radii = np.array(deployment.radii())
    static = float(pre.static_with_radii(radii, k0, k1).sum()) * mu
    return (static + mobility_j / scenario.energy.battery_j) / (t_end - t_start)


class _Precomputed:
    """Per-scenario tables shared by the schedulers.

    STAT[k, t] is the area-wide static recall frequency during slot t
    with every subregion holding its slot-k optimal placement; OPT[t]
    is the same with placements re-optimized each slot.  SUFFIX[k, t]
    sums the excess max(STAT - OPT, 0) times the slot length over slots
    t..n-1.  Slots with equal radii columns share one deployment id, and
    deployments and pair energies are cached per id.
    """

    _cache: dict = {}

    def __init__(self, scenario: Scenario, horizon_s: float):
        self.scenario = scenario
        self.horizon_s = horizon_s
        self.mu = scenario.slot_s
        self.n = int(round(horizon_s / scenario.slot_s))
        self.lams = slot_densities(scenario, horizon_s)
        if np.any(self.lams <= 0):
            raise ValueError(
                "scheduling needs strictly positive densities everywhere; "
                "use a density band to rescale patterns that clamp to zero"
            )
        env, radio, energy = scenario.env, scenario.radio, scenario.energy
        check_circuit_power(energy.p_circuit)
        self.energy = energy
        self.p1 = optimal_normalized_power(env, radio)
        self.h1 = optimal_altitude_ratio(env)
        areas = np.array([s.area for s in scenario.subregions])
        self.areas = areas
        q = radio.snr_gap
        eb = energy.battery_j
        # R*[b, k] and per-slot optima
        self.radii = (energy.p_circuit / (self.lams * q * self.p1)) ** 0.25
        spe = areas / (math.pi * eb)  # S_b / (pi E_b)
        self._spe = spe
        self._q = q
        c1 = spe[:, None] * energy.p_circuit / self.radii**2       # (B, n)
        c2 = spe[:, None] * q * self.p1 * self.radii**2            # (B, n)
        self.stat = c1.sum(axis=0)[:, None] + c2.T @ self.lams     # (n, n): k rows, t cols
        self.opt = 2.0 * (spe[:, None] * np.sqrt(self.lams * q * energy.p_circuit * self.p1)).sum(axis=0)
        # built in place, so that no temporary n x n array raises the peak memory
        self.suffix = np.subtract(self.stat, self.opt[None, :])
        np.maximum(self.suffix, 0.0, out=self.suffix)
        self.suffix *= self.mu
        reversed_rows = self.suffix[:, ::-1]
        np.cumsum(reversed_rows, axis=1, out=reversed_rows)
        _, self.deployment_ids = np.unique(self.radii.T, axis=0, return_inverse=True)
        self._deployments: Dict[int, Deployment] = {}
        self._pair_energy: Dict[Tuple[int, int], float] = {}

    @classmethod
    def for_scenario(cls, scenario: Scenario, horizon_s: float) -> "_Precomputed":
        key = (id(scenario), horizon_s)
        hit = cls._cache.get(key)
        if hit is None or hit.scenario is not scenario:
            hit = cls(scenario, horizon_s)
            if len(cls._cache) >= 8:
                cls._cache.pop(next(iter(cls._cache)))
            cls._cache[key] = hit  # holds the scenario alive, so ids stay unique
        return hit

    def static_with_radii(self, radii: np.ndarray, k0: int, k1: int) -> np.ndarray:
        """Per-slot static RF over slots [k0, k1) with fixed radii."""
        lam = self.lams[:, k0:k1]
        c1 = (self._spe * self.energy.p_circuit / radii**2).sum()
        c2 = self._spe * self._q * self.p1 * radii**2
        return c1 + c2 @ lam

    def deployment(self, k: int) -> Deployment:
        key = int(self.deployment_ids[k])
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

    def pair_energy(self, i: int, j: int) -> float:
        key = (int(self.deployment_ids[i]), int(self.deployment_ids[j]))
        if key[0] == key[1]:
            return 0.0
        value = self._pair_energy.get(key)
        if value is None:
            value, _ = mobility_energy_at(self.deployment(i), self.deployment(j), self.energy)
            self._pair_energy[key] = value
        return value

    def launch_energy(self, k: int) -> float:
        """Energy to launch the slot-k fleet from the depot."""
        rsc = self.scenario.rsc_position
        return sum(
            move_energy(rsc, pos, self.energy) for pos in self.deployment(k).all_positions()
        )


def _assemble(
    method: str,
    pre: _Precomputed,
    epoch_slots: List[int],
    scenario: Scenario,
    evaluations: int = 0,
    trace: Optional[List[StepTrace]] = None,
) -> Schedule:
    mu = pre.mu
    eb = scenario.energy.battery_j
    epochs: List[ScheduleEpoch] = []
    static_total = 0.0
    mobility_total = 0.0
    for i, k in enumerate(epoch_slots):
        end = epoch_slots[i + 1] if i + 1 < len(epoch_slots) else pre.n
        static_total += float(pre.stat[k, k:end].sum()) * mu
        if i == 0:
            mob = pre.launch_energy(k) if scenario.include_initial_launch else 0.0
            changed = False
        else:
            mob = pre.pair_energy(epoch_slots[i - 1], k)
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
        trace=trace,
    )


def smgd_schedule(
    scenario: Scenario,
    horizon_s: float | None = None,
    energy: EnergyParams | None = None,
    trace: bool = False,
) -> Schedule:
    """Greedy sequential epoch selection (see module docstring).

    Update candidates are visited best-first by their static lower bound
    until a bound exceeds the incumbent; hold wins ties, then the
    earliest update, and diligent wins only when strictly cheaper.
    ``candidate_evaluations`` counts every candidate, pruned or not.
    ``trace=True`` disables pruning, scores every candidate in ascending
    slot order and records every plan value per step; the chosen plan
    is identical either way.
    """
    if energy is not None:
        scenario = dataclasses.replace(scenario, energy=energy)
    horizon = scenario.horizon_s if horizon_s is None else horizon_s
    pre = _Precomputed.for_scenario(scenario, horizon)
    n = pre.n
    eb = scenario.energy.battery_j
    # diligent continuation cost from each slot: all remaining consecutive moves
    dil_suffix = np.zeros(n + 1)
    for j in range(n - 2, -1, -1):
        dil_suffix[j] = dil_suffix[j + 1] + pre.pair_energy(j, j + 1) / eb

    diagonal = np.diagonal(pre.suffix)
    epoch_slots = [0]
    traces: List[StepTrace] = [] if trace else None
    evaluations = 0
    cur = 0
    while True:
        hold_value = float(pre.suffix[cur, cur])
        evaluations += n - cur
        best_value, best_k = hold_value, None
        update_values: Dict[int, float] = {}
        stale = hold_value - pre.suffix[cur, cur + 1 :]
        tail = diagonal[cur + 1 :]  # excess of holding slot k's placement from k on
        bound = stale + tail  # mobility only adds cost to an update plan
        order = range(len(bound)) if trace else np.argsort(bound, kind="stable")
        for i in order:
            if not trace and bound[i] > best_value:
                break  # every later candidate has a larger bound
            k = cur + 1 + int(i)
            value = float(stale[i]) + pre.pair_energy(cur, k) / eb + float(tail[i])
            if trace:
                update_values[k] = value
            if value < best_value or (
                value == best_value and best_k is not None and k < best_k
            ):
                best_value, best_k = value, k
        best_action = ("hold", None) if best_k is None else ("update", best_k)
        dil_value = None
        if cur + 1 < n:
            dil_value = float(dil_suffix[cur])
            if dil_value < best_value:
                best_value, best_action = dil_value, ("diligent", None)
        if trace:
            kind, karg = best_action
            traces.append(
                StepTrace(
                    slot=cur,
                    hold_value=hold_value,
                    update_values=update_values,
                    diligent_value=dil_value,
                    chosen=kind if karg is None else f"update:{karg}",
                    chosen_value=best_value,
                )
            )
        if best_action[0] == "hold":
            break
        cur = best_action[1] if best_action[0] == "update" else cur + 1
        epoch_slots.append(cur)
    return _assemble("smgd", pre, epoch_slots, scenario, evaluations, traces)


def baseline_schedule(
    kind: str,
    scenario: Scenario,
    horizon_s: float | None = None,
    energy: EnergyParams | None = None,
) -> Schedule:
    """The two reference policies: never update, or update every slot."""
    if energy is not None:
        scenario = dataclasses.replace(scenario, energy=energy)
    horizon = scenario.horizon_s if horizon_s is None else horizon_s
    pre = _Precomputed.for_scenario(scenario, horizon)
    kind = kind.lower()
    if kind == "lazy":
        slots = [0]
    elif kind == "diligent":
        slots = list(range(pre.n))
    else:
        raise ValueError(f"kind must be 'lazy' or 'diligent', got {kind!r}")
    return _assemble(kind, pre, slots, scenario)


def dynamic_rf(schedule: Schedule, scenario: Scenario, horizon_s: float | None = None) -> float:
    """Recompute the average dynamic recall frequency from a schedule.

    Independent reassembly of the static integral and mobility charges;
    agrees with ``schedule.avg_dynamic_rf`` to float precision.
    """
    horizon = schedule.horizon_s if horizon_s is None else horizon_s
    mu = schedule.slot_s
    n = int(round(horizon / mu))
    pre = _Precomputed.for_scenario(scenario, horizon)
    slots = schedule.update_slots
    total_static = 0.0
    total_mobility = sum(e.mobility_j for e in schedule.epochs)
    for i, k in enumerate(slots):
        end = slots[i + 1] if i + 1 < len(slots) else n
        radii = np.array(schedule.epochs[i].deployment.radii())
        total_static += float(pre.static_with_radii(radii, k, end).sum()) * mu
    return (total_static + total_mobility / scenario.energy.battery_j) / horizon


def exhaustive_schedule(
    scenario: Scenario, horizon_s: float | None = None
) -> Tuple[float, List[int]]:
    """Exact minimum over every update-slot subset (exponential; toys only)."""
    horizon = scenario.horizon_s if horizon_s is None else horizon_s
    pre = _Precomputed.for_scenario(scenario, horizon)
    n = pre.n
    if n > 16:
        raise ValueError("exhaustive search is limited to 16 slots")
    eb = scenario.energy.battery_j
    best_value, best_slots = math.inf, [0]
    for r in range(n):
        for subset in itertools.combinations(range(1, n), r):
            slots = [0] + list(subset)
            static = 0.0
            mobility = 0.0
            for i, k in enumerate(slots):
                end = slots[i + 1] if i + 1 < len(slots) else n
                static += float(pre.stat[k, k:end].sum()) * pre.mu
                if i > 0:
                    mobility += pre.pair_energy(slots[i - 1], k)
            value = (static + mobility / eb) / horizon
            if value < best_value:
                best_value, best_slots = value, slots
    return best_value, best_slots
