"""Experiment runners emitting plot-ready CSV artifacts.

Each runner reproduces one of the headline numerical studies at desk
scale: altitude/radius feasibility curves, static recall frequency
versus radius and circuit power, per-density placements, the three
update policies across mobility powers, sensitivity of the hold-first
baseline to the horizon's start time, and the Monte-Carlo study of
prediction-error inflation plus sampling budgets.

All runners are deterministic: randomness flows from one scenario seed
through numbered child streams, sweep points are assembled in a fixed
order, and floats print with 12 significant digits, so identical seeds
give byte-identical CSV files.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, Iterable, List, Sequence

import numpy as np

from .channel import environment_preset
from .layout import num_uavs
from .patterns import DENSITY_FLOOR
from .placement import (
    min_static_rf,
    normalized_tx_power,
    optimal_altitude_ratio,
    optimal_radius,
    static_rf_at_optimal_altitude,
)
from .sampling import (
    LearningBudget,
    equal_share_sampling_numbers,
    rf_increment,
    rf_increment_exact_samples,
    subregion_eigenvalue,
)
from .scenario import Scenario
from .scheduling import Schedule, SchedulePlan, baseline_schedule, smgd_schedule

MOBILITY_POWER_GRID = (0.05, 1.5, 50.0)  # W
# most Monte Carlo draws held at once in run_learning_study; at least 128,
# the longest node that numpy's pairwise sum does not split
_MC_CHUNK = 1 << 15


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _stream(scenario: Scenario, stream_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(scenario.seed, spawn_key=(stream_id,)))


def _pairwise_total(n: int, leaf_totals):
    """``np.add.reduce`` of n values, given ``leaf_totals(m)``: the
    ``np.add.reduce`` of the next m values (or an array of such totals).

    numpy sums a contiguous float64 array as one pairwise tree, whose
    nodes of more than 128 values split at ``n // 2 - (n // 2) % 8``.
    Walking those splits down to leaves of at most ``_MC_CHUNK`` values
    and adding the leaf totals back up gives the bits of one reduce.
    """
    if n <= _MC_CHUNK:
        return leaf_totals(n)
    half = n // 2 - (n // 2) % 8
    return _pairwise_total(half, leaf_totals) + _pairwise_total(n - half, leaf_totals)


def run_altitude_curves(scenario: Scenario, out_dir: str) -> List[str]:
    """Hovering-altitude feasibility curves per environment (fixed P_tx).

    Parametric in the altitude ratio: for a fixed per-UAV transmit
    power the reachable radius is R(h1) = (P/(lam Q P1(h1)))^(1/4),
    maximized exactly at the optimal ratio.
    """
    lam = 0.1
    h1_grid = np.concatenate([np.linspace(0.0, 3.0, 151), np.linspace(3.1, 6.0, 30)])
    rows = []
    powers = {"urban": (0.5, 1.5), "dense-urban": (0.05, 0.15), "suburban": (1.5, 5.0)}
    for env_name in ("urban", "dense-urban", "suburban"):
        env = environment_preset(env_name)
        h1_star = optimal_altitude_ratio(env)
        h1s = np.sort(np.append(h1_grid, h1_star))
        p1s = [normalized_tx_power(h1, env, scenario.radio) for h1 in h1s]
        for p_tx in powers[env_name]:
            for h1, p1 in zip(h1s, p1s):
                radius = (p_tx / (lam * scenario.radio.snr_gap * p1)) ** 0.25
                rows.append(
                    (env_name, p_tx, h1, radius, h1 * radius, 1 if h1 == h1_star else 0)
                )
    path = write_csv(
        os.path.join(out_dir, "fig4_altitude_vs_radius.csv"),
        ("environment", "p_tx_w", "h1", "radius_m", "altitude_m", "is_optimal"),
        rows,
    )
    return [path]


def _static_rf_curve(scenario: Scenario, lam: float, p_cu: float, n: int):
    """(radius, static RF, is_optimal) at ``n`` radii from R*/8 to 8 R*, plus R*."""
    area, env, radio = scenario.subregions[0].area, scenario.env, scenario.radio
    r_star = optimal_radius(lam, p_cu, env, radio)
    energy = dataclasses.replace(scenario.energy, p_circuit=p_cu)
    radii = np.unique(np.append(np.geomspace(r_star / 8.0, r_star * 8.0, n), r_star))
    phis = static_rf_at_optimal_altitude(radii, lam, energy, area, env, radio)
    return [(radius, phi, radius == r_star) for radius, phi in zip(radii, phis)]


def run_rf_vs_radius(scenario: Scenario, out_dir: str) -> List[str]:
    """Static recall frequency versus radius for several circuit powers."""
    rows = [
        (p_cu, *row)
        for p_cu in (0.5, 5.0, 50.0)
        for row in _static_rf_curve(scenario, 0.1, p_cu, 121)
    ]
    path = write_csv(
        os.path.join(out_dir, "fig5_static_rf_vs_radius.csv"),
        ("p_circuit_w", "radius_m", "static_rf", "is_optimal"),
        rows,
    )
    return [path]


def run_density_placements(scenario: Scenario, out_dir: str) -> List[str]:
    """Optimal placement versus user density."""
    area = scenario.subregions[0].area
    rows = []
    for lam in (0.1, 1.0, 5.0):
        phi, placement = min_static_rf(
            lam, scenario.energy, area, scenario.env, scenario.radio
        )
        rows.append(
            (
                lam,
                placement.radius,
                placement.altitude,
                num_uavs(area, placement.radius),
                placement.tx_power,
                phi,
            )
        )
    path = write_csv(
        os.path.join(out_dir, "fig6_density_placements.csv"),
        ("lambda_per_m2", "radius_m", "altitude_m", "count", "tx_power_w", "static_rf"),
        rows,
    )
    return [path]


def _epoch_rows(schedule: Schedule):
    """(tau, subregion, radius, altitude, count, mobility) per epoch and subregion."""
    for k, deployment, mobility in zip(
        schedule.update_slots, schedule.deployments, schedule.mobility_j
    ):
        tau = k * schedule.slot_s
        for zone in zip(
            deployment.labels, deployment.radii, deployment.altitudes, deployment.counts
        ):
            yield (tau, *zone, mobility)


def run_update_epochs(scenario: Scenario, out_dir: str) -> List[str]:
    """Greedy update epochs across the mobility-power grid."""
    rows = []
    plan = SchedulePlan(scenario)
    for pm in MOBILITY_POWER_GRID:
        sc = scenario.with_mobility_power(pm)
        rows.extend(("smgd", pm, *row) for row in _epoch_rows(smgd_schedule(sc, plan=plan)))
    path = write_csv(
        os.path.join(out_dir, "fig7_update_epochs.csv"),
        (
            "method",
            "pm_w",
            "tau_seconds",
            "subregion",
            "radius_m",
            "altitude_m",
            "count",
            "mobility_joules",
        ),
        rows,
    )
    return [path]


def run_policy_comparison(
    scenario: Scenario, out_dir: str, pm_grid: Sequence[float] = MOBILITY_POWER_GRID
) -> List[str]:
    """Average dynamic recall frequency of the three update policies."""
    rows = []
    plan = SchedulePlan(scenario)  # only the move energies depend on pm
    for pm in pm_grid:
        sc = scenario.with_mobility_power(pm)
        values: Dict[str, Schedule] = {
            "smgd": smgd_schedule(sc, plan=plan),
            "lazy": baseline_schedule("lazy", sc, plan=plan),
            "diligent": baseline_schedule("diligent", sc, plan=plan),
        }
        worst = max(s.avg_dynamic_rf for s in values.values())
        for method, sched in values.items():
            rows.append(
                (
                    method,
                    pm,
                    sched.avg_dynamic_rf,
                    sched.update_count,
                    sched.mobility_total_j,
                    1.0 - sched.avg_dynamic_rf / worst,
                )
            )
    path = write_csv(
        os.path.join(out_dir, "fig8_policy_comparison.csv"),
        ("method", "pm_w", "avg_dynamic_rf", "updates", "mobility_joules", "reduction_vs_worst"),
        rows,
    )
    return [path]


def run_start_time_sweep(scenario: Scenario, out_dir: str) -> List[str]:
    """Hold-first versus greedy as the horizon's start hour shifts."""
    rows = []
    for start_hour in range(0, 24, 2):
        sc = dataclasses.replace(scenario, start_s=start_hour * 3600.0)
        plan = SchedulePlan(sc)
        greedy = smgd_schedule(sc, plan=plan)
        lazy = baseline_schedule("lazy", sc, plan=plan)
        rows.append((start_hour, lazy.avg_dynamic_rf, greedy.avg_dynamic_rf))
    path = write_csv(
        os.path.join(out_dir, "fig9_start_time_sweep.csv"),
        ("start_hour", "lazy_avg_rf", "smgd_avg_rf"),
        rows,
    )
    return [path]


def run_learning_study(scenario: Scenario, out_dir: str) -> List[str]:
    """Prediction-error inflation (Monte Carlo) and sampling budgets.

    The sampling numbers are the paper's equal-share closed form
    (:func:`equal_share_sampling_numbers`), not the smaller total-count
    minimum of :func:`min_sampling_numbers`.

    Every (lambda, stddev) cell averages its increment over the same 10^6
    standard normal draws, which stream in leaves of at most ``_MC_CHUNK``
    through reused buffers; no array of 10^6 floats is held.  The means
    still have the bits of ``np.mean`` over full-length arrays: the leaves
    continue one generator stream, each increment is elementwise, the
    leaves are nodes of numpy's own pairwise-sum tree
    (:func:`_pairwise_total`), and the total is divided by 10^6 as
    ``np.mean`` does.
    """
    env, radio = scenario.env, scenario.radio
    area = scenario.subregions[0].area
    p_cu = scenario.energy.p_circuit
    battery = scenario.energy.battery_j
    lams = (3.0, 10.0)
    eigs = {lam: subregion_eigenvalue(lam, p_cu, env, radio, area, battery) for lam in lams}
    fracs = (0.005, 0.01, 0.02, 0.04, 0.08, 0.12, 0.16)
    cells = [(lam, frac * lam) for lam in lams for frac in fracs]
    rng = _stream(scenario, 10)
    z, draws, increments = (np.empty(_MC_CHUNK) for _ in range(3))

    def leaf_totals(n: int) -> np.ndarray:
        rng.standard_normal(n, out=z[:n])
        totals = np.empty(len(cells))
        for c, (lam, stddev) in enumerate(cells):
            lam_hats = np.multiply(z[:n], stddev, out=draws[:n])
            lam_hats += lam
            np.maximum(lam_hats, DENSITY_FLOOR, out=lam_hats)
            inc = rf_increment_exact_samples(
                lam, lam_hats, p_cu, env, radio, area, battery, out=increments[:n]
            )
            totals[c] = np.add.reduce(inc)
        return totals

    n_draws = 10**6
    means = _pairwise_total(n_draws, leaf_totals) / n_draws
    rows = []
    for (lam, stddev), measured in zip(cells, means.tolist()):
        xi = stddev * stddev
        rows.append((lam, stddev, xi, measured, rf_increment(eigs[lam], xi)))
    mc_path = write_csv(
        os.path.join(out_dir, "fig10_rf_increment_mc.csv"),
        ("lambda_per_m2", "stddev", "xi", "measured_increment", "second_order_increment"),
        rows,
    )

    budget = LearningBudget(
        hypothesis_volume=1000.0,
        confidence_delta=0.05,
        max_training_error=0.0,
        max_rf_increment=10.0,
    )
    rows = []
    for lam1 in np.linspace(0.05, 0.5, 10):
        lam2 = 1.0 - lam1
        eigs = [
            subregion_eigenvalue(l, p_cu, env, radio, area, battery) for l in (lam1, lam2)
        ]
        alloc = equal_share_sampling_numbers(eigs, budget)
        rows.append(
            (
                lam1,
                lam2,
                eigs[0],
                eigs[1],
                alloc.counts[0],
                alloc.counts[1],
                sum(alloc.counts),
            )
        )
    alloc_path = write_csv(
        os.path.join(out_dir, "fig10_sampling_numbers.csv"),
        ("lambda_1", "lambda_2", "eig_1", "eig_2", "n_samples_1", "n_samples_2", "total"),
        rows,
    )
    return [mc_path, alloc_path]


_RUNNERS = {
    "fig4": run_altitude_curves,
    "fig5": run_rf_vs_radius,
    "fig6": run_density_placements,
    "fig7": run_update_epochs,
    "fig8": run_policy_comparison,
    "fig9": run_start_time_sweep,
    "fig10": run_learning_study,
}

FIGURES = tuple(_RUNNERS)


def run_figure(scenario: Scenario, which: str, out_dir: str) -> List[str]:
    """Run one named study; returns the paths of the written CSV files."""
    try:
        runner = _RUNNERS[which.lower()]
    except KeyError:
        raise ValueError(f"unknown figure {which!r}; expected one of {', '.join(FIGURES)}") from None
    return runner(scenario, out_dir)
