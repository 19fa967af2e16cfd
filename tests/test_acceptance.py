"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured numbers.

Criterion 9 is split in two: 9a checks the closed-form identities
(stationarity, the binding constraint, the single-region reduction) of
both the minimal allocation and the paper's equal-share allocation; 9b
checks that the minimal allocation minimizes the total sample count,
against an independent oracle and random feasible allocations.
"""

import itertools
import math

import numpy as np
from scipy.signal import find_peaks

from uavrf.channel import RadioConfig, environment_preset
from uavrf.patterns import DENSITY_FLOOR, pattern_preset, reconstruct_series
from uavrf.placement import (
    optimal_altitude_ratio,
    optimal_radius,
    tx_power,
    tx_power_direct,
)
from uavrf.sampling import (
    LearningBudget,
    equal_share_sampling_numbers,
    min_sampling_numbers,
    rf_increment_exact_samples,
    subregion_eigenvalue,
    vc_epsilon,
)
from uavrf.scenario import reference_scenario, slot_densities
from uavrf.scheduling import (
    baseline_schedule,
    optimal_schedule,
    smgd_schedule,
    solve_assignment,
)

from test_placement import grid_normalized_power
from test_scheduling import _ascending_scan_smgd, toy_scenario

RADIO = RadioConfig()
URBAN = environment_preset("urban")
AREA = 1e6
BATTERY = AREA / math.pi

REPORTED_RADII_BY_POWER = (327.3, 582.0, 1035.0)   # m, at P_cu = 0.5 / 5 / 50 W
REPORTED_RADII_BY_DENSITY = (327.3, 184.05, 123.08)  # m, at lam = 0.1 / 1 / 5


def announce(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")


def test_criterion_01_radius_scaling_laws():
    """R* follows the quarter-power laws in circuit power and density."""
    problems = []
    by_power = [optimal_radius(0.1, p, URBAN, RADIO) for p in (0.5, 5.0, 50.0)]
    for r_small, r_big in zip(by_power, by_power[1:]):
        ratio = r_big / r_small
        if abs(ratio / 10**0.25 - 1.0) > 1e-4:
            problems.append(f"power ratio {ratio} != 10^0.25")
    reported_ratios = [
        REPORTED_RADII_BY_POWER[1] / REPORTED_RADII_BY_POWER[0],
        REPORTED_RADII_BY_POWER[2] / REPORTED_RADII_BY_POWER[1],
    ]
    for got, reported in zip(
        [by_power[1] / by_power[0], by_power[2] / by_power[1]], reported_ratios
    ):
        if abs(got / reported - 1.0) > 2e-4:  # reported values carry 4 digits
            problems.append(f"ratio {got} vs reported {reported}")

    by_density = [optimal_radius(lam, 0.5, URBAN, RADIO) for lam in (0.1, 1.0, 5.0)]
    if abs(by_density[0] / by_density[1] / 10**0.25 - 1.0) > 1e-4:
        problems.append("density ratio 0.1->1 not 10^0.25")
    if abs(by_density[1] / by_density[2] / 5**0.25 - 1.0) > 1e-4:
        problems.append("density ratio 1->5 not 5^0.25")

    # best-effort absolute comparison: a single constant factor is expected
    factors = [ref / got for ref, got in zip(REPORTED_RADII_BY_POWER, by_power)]
    spread = max(factors) / min(factors) - 1.0
    detail = (
        f"ratios exact; absolute radii {([round(r, 2) for r in by_power])} m differ from "
        f"the reported {REPORTED_RADII_BY_POWER} m by a constant factor "
        f"{np.mean(factors):.3f} (spread {spread:.2e}); unit caveat logged"
    )
    announce("criterion 1 (radius scaling laws)", not problems, detail)
    assert not problems, problems
    assert spread < 1e-3  # the discrepancy is a single constant factor


def test_criterion_02_transmit_equals_circuit_power():
    """At (R*, R* h1*) the transmit power equals the circuit power."""
    worst = 0.0
    envs = [environment_preset(n) for n in ("urban", "dense-urban", "suburban")]
    for env in envs:
        h1 = optimal_altitude_ratio(env)
        for lam in (0.05, 0.1, 0.5, 1.0, 5.0):
            for p_cu in (0.1, 0.5, 2.0, 10.0, 50.0):
                r_star = optimal_radius(lam, p_cu, env, RADIO)
                p_tx = tx_power(r_star, lam, r_star * h1, env, RADIO)
                worst = max(worst, abs(p_tx - p_cu) / p_cu)
    ok = worst < 1e-3
    announce(
        "criterion 2 (optimality condition)",
        ok,
        f"worst |P_tx - P_cu|/P_cu = {worst:.3e} over 75 grid points (< 1e-3)",
    )
    assert ok


def test_criterion_03_power_rescaling_identity():
    """Scaled-form transmit power equals the direct disk integral."""
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(100):
        radius = float(rng.uniform(20.0, 900.0))
        lam = float(10 ** rng.uniform(-3.0, 0.7))
        h = float(rng.uniform(0.0, 1.6) * radius)
        scaled = tx_power(radius, lam, h, URBAN, RADIO)
        direct = tx_power_direct(radius, lam, h, URBAN, RADIO)
        worst = max(worst, abs(scaled - direct) / direct)
    ok = worst < 1e-7
    announce(
        "criterion 3 (rescaling identity)",
        ok,
        f"worst relative gap {worst:.3e} over 100 random (R, lam, h) (< 1e-7)",
    )
    assert ok


def test_criterion_04_altitude_search_vs_grid():
    """Bisection altitude ratio matches a 1e-4-step grid minimization."""
    problems = []
    ratios = {}
    for name in ("urban", "dense-urban", "suburban"):
        env = environment_preset(name)
        h_grid = np.arange(0.05, 2.0, 1e-4)
        values = grid_normalized_power(h_grid, env, RADIO, n_nodes=513)
        h_grid_star = float(h_grid[np.argmin(values)])
        h_star = optimal_altitude_ratio(env)
        ratios[name] = h_star
        if abs(h_star - h_grid_star) > 2e-4:
            problems.append(f"{name}: bisection {h_star} vs grid {h_grid_star}")
    if not ratios["dense-urban"] > ratios["urban"] > ratios["suburban"]:
        problems.append(f"ordering violated: {ratios}")
    announce(
        "criterion 4 (altitude search vs grid oracle)",
        not problems,
        f"h1* = { {k: round(v, 5) for k, v in ratios.items()} }, grid step 1e-4",
    )
    assert not problems, problems


def test_criterion_05_assignment_exactness():
    """Assignment totals equal exhaustive-permutation minima exactly."""
    rng = np.random.default_rng(555)
    checked = 0
    for size in range(2, 8):
        for _ in range(100):
            cost = rng.uniform(0.0, 100.0, size=(size, size))
            got = solve_assignment(cost)
            rows = np.arange(size)
            best_perm = min(
                itertools.permutations(range(size)),
                key=lambda p: float(np.sum(cost[rows, list(p)])),
            )
            best = float(np.sum(cost[rows, list(best_perm)]))
            recomputed = float(np.sum(cost[rows, list(got.permutation)]))
            assert recomputed == best  # identical summation order: exact
            checked += 1
    announce(
        "criterion 5 (assignment exactness)",
        True,
        f"{checked} random instances at sizes 2..7 match brute force exactly",
    )


def test_criterion_06_scheduler_behavior_envelope():
    """Free mobility tracks every density change; prohibitive mobility
    holds; the greedy never loses to either baseline."""
    problems = []
    base = reference_scenario()
    lams = slot_densities(base)
    changed = int(np.sum(np.any(np.diff(lams, axis=1) != 0, axis=0)))

    free = smgd_schedule(base.with_mobility_power(0.0))
    if free.update_count != changed:
        problems.append(f"P_m=0: {free.update_count} updates != {changed} changed slots")

    heavy = smgd_schedule(base.with_mobility_power(50.0))
    if heavy.update_count != 0:
        problems.append(f"P_m=50: {heavy.update_count} updates != 0")

    margins = {}
    for pm in (0.05, 1.5, 50.0):
        sc = base.with_mobility_power(pm)
        greedy = smgd_schedule(sc)
        lazy = baseline_schedule("lazy", sc)
        diligent = baseline_schedule("diligent", sc)
        floor = min(lazy.avg_dynamic_rf, diligent.avg_dynamic_rf)
        margins[pm] = greedy.avg_dynamic_rf - floor
        if greedy.avg_dynamic_rf > floor + 1e-9:
            problems.append(f"P_m={pm}: greedy {greedy.avg_dynamic_rf} > min baselines {floor}")
    announce(
        "criterion 6 (scheduler behavior envelope)",
        not problems,
        f"P_m=0 updates {free.update_count}/{changed}; P_m=50 updates {heavy.update_count}; "
        f"margins vs min(baselines) { {k: f'{v:.2e}' for k, v in margins.items()} }",
    )
    assert not problems, problems


def test_criterion_07_greedy_vs_exhaustive():
    """On toy horizons and on the reference day at each mobility power
    the greedy stays within 10% of the exact optimum over its candidates
    (the shortest path over update epochs), never below it, and on the
    toys every selected step is a plan argmin: its epochs equal those of
    a scan that scores every hold, update and diligent plan at each
    step."""
    rng = np.random.default_rng(777)
    worst_gap = 0.0
    for trial in range(20):
        n_slots = int(rng.integers(8, 11))
        n_sub = int(rng.integers(1, 3))
        lams = 10 ** rng.uniform(math.log10(2e-6), math.log10(6e-5), size=(n_sub, n_slots))
        pm = float(10 ** rng.uniform(-2.0, 1.8))
        sc = toy_scenario(lams, pm=pm, seed=1000 + trial)
        greedy = smgd_schedule(sc)
        # fleet-size envelope of the toy class
        assert max(d.total_count for d in greedy.deployments) <= 6
        best = optimal_schedule(sc).avg_dynamic_rf
        assert greedy.avg_dynamic_rf >= best - 1e-15, "greedy beat the exact optimum"
        gap = greedy.avg_dynamic_rf / best - 1.0
        worst_gap = max(worst_gap, gap)
        assert gap <= 0.10, f"trial {trial}: gap {gap:.3%}"
        slots, _, _, avg = _ascending_scan_smgd(sc, prune=False)
        assert greedy.update_slots == slots, "selected step is not an argmin"
        assert greedy.avg_dynamic_rf.hex() == avg.hex()
    day_gaps = {}
    for pm in (0.05, 1.5, 50.0):
        sc = reference_scenario().with_mobility_power(pm)
        best = optimal_schedule(sc).avg_dynamic_rf
        day_gaps[pm] = smgd_schedule(sc).avg_dynamic_rf / best - 1.0
        assert -1e-13 <= day_gaps[pm] <= 0.10, f"reference day, P_m={pm}: gap {day_gaps[pm]:.3%}"
    announce(
        "criterion 7 (greedy vs exact optimum)",
        True,
        f"20 toy horizons: worst gap {worst_gap:.3%} (<= 10%), never below optimum, "
        "per-step argmin property exact; reference day gaps "
        + ", ".join(f"P_m={pm}: {gap:.4%}" for pm, gap in day_gaps.items()),
    )


def test_criterion_08_inflation_slope():
    """Monte-Carlo inflation slope matches the sensitivity coefficient."""
    problems = []
    rng = np.random.default_rng(1_000_003)
    z = rng.standard_normal(10**6)

    lam = 10.0
    eig = subregion_eigenvalue(lam, 0.5, URBAN, RADIO, AREA, BATTERY)
    xis, means = [], []
    for frac in (0.005, 0.0075, 0.01, 0.0125, 0.015, 0.0175, 0.02):
        s = frac * lam
        draws = np.maximum(lam + s * z, DENSITY_FLOOR)
        inc = rf_increment_exact_samples(lam, draws, 0.5, URBAN, RADIO, AREA, BATTERY)
        xis.append(s * s)
        means.append(float(inc.mean()))
    xis_arr, means_arr = np.array(xis), np.array(means)
    slope = float((xis_arr * means_arr).sum() / (xis_arr * xis_arr).sum())
    slope_err = abs(slope - eig) / eig
    if slope_err > 0.05:
        problems.append(f"slope {slope:.4e} vs eigenvalue {eig:.4e} ({slope_err:.2%})")

    lam = 3.0
    eig3 = subregion_eigenvalue(lam, 0.5, URBAN, RADIO, AREA, BATTERY)
    rel_errors = []
    # stddev kept within the 4-sigma positivity recommendation (with
    # margin for 1e6 draws), so the floor clamp never dominates the mean
    for frac in (0.04, 0.08, 0.12, 0.16):
        s = frac * lam
        draws = np.maximum(lam + s * z, DENSITY_FLOOR)
        measured = float(
            rf_increment_exact_samples(lam, draws, 0.5, URBAN, RADIO, AREA, BATTERY).mean()
        )
        taylor = eig3 * s * s
        if measured <= taylor:
            problems.append(f"stddev {s}: measured {measured} not above second order {taylor}")
        rel_errors.append((measured - taylor) / measured)
    if not all(b > a for a, b in zip(rel_errors, rel_errors[1:])):
        problems.append(f"relative error not monotone: {rel_errors}")
    announce(
        "criterion 8 (inflation slope, 1e6 draws)",
        not problems,
        f"slope error {slope_err:.2%} (< 5%); lam=3 relative truncation error "
        f"{[f'{e:.2%}' for e in rel_errors]} strictly increasing",
    )
    assert not problems, problems


def _random_budget_instances(n_instances=10, seed=909):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_instances):
        kappa = int(rng.integers(1, 6))
        eigs = rng.uniform(0.3, 3.0, size=kappa)
        budget = LearningBudget(
            hypothesis_volume=float(rng.uniform(50.0, 5000.0)),
            confidence_delta=float(rng.uniform(0.01, 0.2)),
            max_training_error=float(rng.uniform(0.0, 0.05)),
            max_rf_increment=float(rng.uniform(1.0, 8.0) + 0.1 * eigs.sum()),
        )
        out.append((eigs, budget))
    return out


def test_criterion_09a_allocation_identities():
    """Stationarity, binding constraint and the single-region reduction.

    Stationarity is omega * Lambda_b * sqrt(A/(2 N_b)) = 2 N_b for the
    minimal allocation (the Lagrange condition of min sum(N_b)) and = 2
    for the equal-share one.
    """
    problems = []
    for eigs, budget in _random_budget_instances():
        a = math.log(budget.hypothesis_volume) - math.log(budget.confidence_delta)
        minimal = min_sampling_numbers(eigs, budget)
        for eig, n in zip(eigs, minimal.counts):
            station = minimal.omega * eig * math.sqrt(a / (2.0 * n))
            if abs(station / (2.0 * n) - 1.0) > 1e-9:
                problems.append(f"minimal: stationarity {station} != 2 N = {2.0 * n}")
        equal = equal_share_sampling_numbers(eigs, budget)
        for eig, n in zip(eigs, equal.counts):
            station = equal.omega * eig * math.sqrt(a / (2.0 * n))
            if abs(station - 2.0) > 2e-9:
                problems.append(f"equal-share: stationarity {station} != 2")
        for name, alloc in (("minimal", minimal), ("equal-share", equal)):
            bound_total = sum(
                eig
                * (budget.max_training_error
                   + vc_epsilon(budget.hypothesis_volume, n, budget.confidence_delta))
                for eig, n in zip(eigs, alloc.counts)
            )
            if abs(bound_total / budget.max_rf_increment - 1.0) > 1e-9:
                problems.append(f"{name}: constraint not binding: {bound_total}")
            if len(eigs) == 1:
                eig = float(eigs[0])
                closed = (
                    eig**2 * a
                    / (2.0 * (budget.max_rf_increment - budget.max_training_error * eig) ** 2)
                )
                if abs(alloc.counts[0] / closed - 1.0) > 1e-12:
                    problems.append(f"{name}: single-region reduction mismatch")
    announce(
        "criterion 9a (allocation identities)",
        not problems,
        "stationarity and binding constraint at 1e-9 for the minimal and the "
        "equal-share allocation; single-region closed form exact",
    )
    assert not problems, problems


def test_criterion_09b_allocation_total_minimality():
    """Total-minimality clauses of the minimal allocation.

    The returned total sample count must match the constrained minimum
    of an independent oracle (counts proportional to Lambda^(2/3)), and
    no random feasible integer allocation may beat it.
    """
    from test_sampling import true_min_allocation

    gaps = []
    random_beats = 0
    rng = np.random.default_rng(2468)
    for eigs, budget in _random_budget_instances():
        alloc = min_sampling_numbers(eigs, budget)
        total = sum(alloc.counts)
        oracle = true_min_allocation(eigs, budget)
        # oracle self-check: feasible (binding) and never worse
        a = math.log(budget.hypothesis_volume) - math.log(budget.confidence_delta)
        cons = sum(
            eig * (budget.max_training_error + math.sqrt(a / (2.0 * n)))
            for eig, n in zip(eigs, oracle)
        )
        assert abs(cons / budget.max_rf_increment - 1.0) < 1e-9
        assert oracle.sum() <= total * (1.0 + 1e-12)
        gaps.append(total / oracle.sum() - 1.0)
        # 1000 random feasible integer allocations (scaled to the binding
        # constraint along random directions, then ceiled)
        kappa = len(eigs)
        for _ in range(1000):
            w = rng.dirichlet(np.ones(kappa))
            scale = (
                sum(e * math.sqrt(a / (2.0 * wi)) for e, wi in zip(eigs, w))
                / (budget.max_rf_increment - budget.max_training_error * sum(eigs))
            ) ** 2
            candidate = np.ceil(scale * w).astype(float)
            if candidate.sum() < total:
                random_beats += 1
    worst_gap = max(gaps)
    detail = (
        f"closed-form totals exceed the constrained minimum by up to {worst_gap:.1%} "
        f"(tolerance 0.1%); {random_beats} random feasible allocations beat the "
        "returned total across 10 instances"
    )
    ok = worst_gap <= 1e-3 and random_beats == 0
    announce("criterion 9b (allocation total minimality)", ok, detail)
    assert worst_gap <= 1e-3, detail
    assert random_beats == 0, detail


def test_criterion_10_pattern_sanity():
    """Preset reconstructions are real, periodic, with 7 weekly peaks."""
    problems = []
    for label in "ERTOC":
        pat = pattern_preset(label)
        n = np.arange(pat.n_samples)
        from uavrf.patterns import _raw_series

        raw = _raw_series(pat, n)
        residual = float(np.abs(raw.imag).max() / max(1.0, np.abs(raw.real).max()))
        if residual >= 1e-9:
            problems.append(f"{label}: imaginary residual {residual}")
        x = np.maximum(raw.real, 0.0)
        wrapped = _raw_series(pat, n + pat.n_samples).real
        if not np.allclose(np.maximum(wrapped, 0.0), x, rtol=1e-12, atol=1e-9):
            problems.append(f"{label}: not periodic with N={pat.n_samples}")
    pat = pattern_preset("E")
    week = reconstruct_series(pat, range(pat.week_samples()))
    shape = (week - week.min()) / (week.max() - week.min())
    peaks, _ = find_peaks(shape, prominence=0.2)
    if len(peaks) != 7:
        problems.append(f"E weekly shape has {len(peaks)} dominant peaks, expected 7")
    announce(
        "criterion 10 (pattern sanity)",
        not problems,
        f"presets real to 1e-9, periodic at N=4032, E weekly shape peaks: {len(peaks)}",
    )
    assert not problems, problems


def test_fig4_shape_property_best_effort():
    """Radius-maximizing altitude is unique per fixed transmit power.

    The absolute suburban (810 m at 350 m) point inherits the unit
    caveat of criterion 1 and is reported, not asserted.
    """
    env = environment_preset("suburban")
    lam = 0.1
    h1_grid = np.linspace(0.01, 3.0, 600)
    p1 = grid_normalized_power(h1_grid, env, RADIO)
    radius = (5.0 / (lam * RADIO.snr_gap * p1)) ** 0.25
    peaks, _ = find_peaks(radius)
    interior_max = len(peaks) == 1
    r_max = float(radius.max())
    h_at_max = float(h1_grid[np.argmax(radius)] * r_max)
    announce(
        "fig4 shape property",
        interior_max,
        f"unique radius-maximizing altitude; max radius {r_max:.1f} m at h = {h_at_max:.1f} m "
        "(reported 810 m at 350 m; same unit caveat as criterion 1)",
    )
    assert interior_max
