import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrf.channel import RadioConfig, environment_preset
from uavrf.layout import Deployment, SubregionDeployment, build_deployment
from uavrf.patterns import Rect, Subregion, constant_pattern
from uavrf.placement import (
    EnergyParams,
    optimal_altitude_ratio,
    optimal_normalized_power,
    optimal_radius,
)
from uavrf.scenario import Scenario, reference_scenario, slot_densities
from uavrf.scheduling import (
    Assignment,
    _Precomputed,
    baseline_schedule,
    cost_matrix,
    dynamic_rf,
    exhaustive_schedule,
    interval_avg_rf,
    mobility_energy_at,
    move_energy,
    smgd_schedule,
    solve_assignment,
)

UNIT_MOVES = EnergyParams(
    p_circuit=0.5, battery_j=1e5, p_horizontal=1.0, p_ascend=1.0, p_descend=1.0
)


def toy_scenario(densities, pm=1.0, n_sub=None, slot_s=600.0, seed=1):
    """Scenario with explicit per-slot densities on equal-area subregions."""
    densities = tuple(tuple(float(v) for v in row) for row in densities)
    n_sub = len(densities) if n_sub is None else n_sub
    width = 1000.0 / n_sub
    subs = tuple(
        Subregion(
            label=f"S{b}",
            rect=Rect(b * width, 0.0, width, 1000.0),
            pattern=constant_pattern(1.0),
        )
        for b in range(n_sub)
    )
    area = subs[0].area
    energy = EnergyParams(
        p_circuit=0.5,
        battery_j=area / math.pi,
        p_horizontal=pm,
        p_ascend=pm,
        p_descend=pm,
    )
    return Scenario(
        name="toy",
        env=environment_preset("urban"),
        radio=RadioConfig(),
        energy=energy,
        bounds=Rect(0.0, 0.0, 1000.0, 1000.0),
        subregions=subs,
        density_bands=(None,) * n_sub,
        rsc_position=(500.0, 500.0, 0.0),
        horizon_s=slot_s * len(densities[0]),
        slot_s=slot_s,
        seed=seed,
        explicit_densities=densities,
    )


def test_move_energy_examples():
    assert move_energy((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), UNIT_MOVES) == 0.0
    # pure ascent of 10 m at 1 W / 1 m/s
    assert move_energy((0, 0, 0), (0, 0, 10.0), UNIT_MOVES) == pytest.approx(10.0)
    # 3-4-5 horizontal plus a 5 m descent
    assert move_energy((0, 0, 5.0), (3.0, 4.0, 0.0), UNIT_MOVES) == pytest.approx(10.0)


def test_move_energy_uses_descend_power():
    energy = dataclasses.replace(UNIT_MOVES, p_descend=3.0, v_descend=2.0)
    assert move_energy((0, 0, 10.0), (0, 0, 0.0), energy) == pytest.approx(15.0)


def test_cost_matrix_identity_diagonal():
    pts = np.array([[0, 0, 10], [5, 5, 20], [9, 1, 30]], dtype=float)
    mat = cost_matrix(pts, pts, UNIT_MOVES)
    assert np.allclose(np.diag(mat), 0.0)
    assert np.all(mat >= 0)


def test_cost_matrix_single_pair():
    mat = cost_matrix([[0, 0, 0]], [[3, 4, 12]], UNIT_MOVES)
    assert mat.shape == (1, 1)
    assert mat[0, 0] == pytest.approx(move_energy((0, 0, 0), (3, 4, 12), UNIT_MOVES))


def test_cost_matrix_elementwise_oracle():
    rng = np.random.default_rng(3)
    origins = rng.uniform(0, 100, size=(4, 3))
    dests = rng.uniform(0, 100, size=(4, 3))
    energy = EnergyParams(
        p_circuit=0.5, battery_j=1.0, p_horizontal=2.0, p_ascend=3.0, p_descend=0.5,
        v_horizontal=1.5, v_ascend=0.5, v_descend=2.0,
    )
    mat = cost_matrix(origins, dests, energy)
    for k in range(4):
        for l in range(4):
            assert mat[k, l] == pytest.approx(
                move_energy(origins[k], dests[l], energy), rel=1e-12
            )


def test_cost_matrix_length_mismatch():
    with pytest.raises(ValueError):
        cost_matrix(np.zeros((2, 3)), np.zeros((3, 3)), UNIT_MOVES)


def test_solve_assignment_identity():
    mat = np.full((4, 4), 10.0)
    np.fill_diagonal(mat, 0.0)
    got = solve_assignment(mat)
    assert got.permutation == (0, 1, 2, 3)
    assert got.total_energy == 0.0


def test_solve_assignment_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        mat = rng.uniform(0.0, 10.0, size=(n, n))
        got = solve_assignment(mat)
        best = min(
            sum(mat[k, p[k]] for k in range(n))
            for p in itertools.permutations(range(n))
        )
        assert got.total_energy == pytest.approx(best, rel=1e-12)


def test_solve_assignment_row_shift_invariance():
    rng = np.random.default_rng(9)
    mat = rng.uniform(0.0, 5.0, size=(5, 5))
    base = solve_assignment(mat)
    shifted = mat.copy()
    shifted[2, :] += 7.0
    assert solve_assignment(shifted).permutation == base.permutation


def test_solve_assignment_validation():
    with pytest.raises(ValueError):
        solve_assignment(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        solve_assignment(np.array([[np.inf, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        Assignment(permutation=(0, 0), total_energy=1.0)


def _single_uav_deployment(position, label="S0", radius=100.0, rsc=(500.0, 500.0, 0.0)):
    return Deployment(
        entries=(
            SubregionDeployment(
                label=label,
                radius=radius,
                altitude=position[2],
                positions=np.array([position], dtype=float),
            ),
        ),
        rsc_position=rsc,
    )


def _empty_deployment(label="S0", rsc=(500.0, 500.0, 0.0)):
    return Deployment(
        entries=(
            SubregionDeployment(
                label=label, radius=1.0, altitude=0.0, positions=np.empty((0, 3))
            ),
        ),
        rsc_position=rsc,
    )


def test_mobility_energy_identical_deployments():
    dep = _single_uav_deployment((100.0, 200.0, 50.0))
    energy, assignment = mobility_energy_at(dep, dep, UNIT_MOVES)
    assert energy == 0.0
    assert assignment.permutation == (0,)


def test_mobility_energy_full_recall():
    # one UAV recalled to the depot: sqrt(2)*500 horizontal + 100 down
    prev = _single_uav_deployment((0.0, 0.0, 100.0))
    nxt = _empty_deployment()
    energy, _ = mobility_energy_at(prev, nxt, UNIT_MOVES)
    assert energy == pytest.approx(math.hypot(500.0, 500.0) + 100.0, rel=1e-12)
    assert energy == pytest.approx(807.1, abs=0.05)


def test_mobility_energy_swap_symmetry():
    prev = _single_uav_deployment((100.0, 100.0, 50.0))
    nxt = _single_uav_deployment((300.0, 400.0, 120.0))
    fwd, _ = mobility_energy_at(prev, nxt, UNIT_MOVES)
    back, _ = mobility_energy_at(nxt, prev, UNIT_MOVES)
    assert fwd == pytest.approx(back, rel=1e-12)  # P_a = P_d and v_a = v_d


def test_mobility_energy_validation():
    a = _single_uav_deployment((0, 0, 10))
    b = _single_uav_deployment((0, 0, 10), rsc=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        mobility_energy_at(a, b, UNIT_MOVES)
    c = _single_uav_deployment((0, 0, 10), label="OTHER")
    with pytest.raises(ValueError):
        mobility_energy_at(a, c, UNIT_MOVES)


def test_interval_avg_constant_density_no_mobility():
    lam = 2e-6
    sc = toy_scenario([[lam] * 6], pm=1.0)
    pre_radius = optimal_radius(lam, 0.5, sc.env, sc.radio)
    h1 = optimal_altitude_ratio(sc.env)
    dep = build_deployment(sc.subregions, (pre_radius,), (pre_radius * h1,), sc.rsc_position)
    from uavrf.placement import static_rf_at_optimal_altitude

    phi = static_rf_at_optimal_altitude(
        pre_radius, lam, sc.energy, sc.subregions[0].area, sc.env, sc.radio
    )
    got = interval_avg_rf(0.0, sc.horizon_s, dep, 0.0, sc)
    assert got == pytest.approx(phi, rel=1e-12)


def test_interval_avg_mobility_amortization():
    lam = 2e-6
    sc = toy_scenario([[lam] * 8], pm=1.0)
    radius = optimal_radius(lam, 0.5, sc.env, sc.radio)
    h1 = optimal_altitude_ratio(sc.env)
    dep = build_deployment(sc.subregions, (radius,), (radius * h1,), sc.rsc_position)
    a = interval_avg_rf(0.0, 2400.0, dep, 1234.5, sc)
    b = interval_avg_rf(0.0, 4800.0, dep, 1234.5, sc)
    static = interval_avg_rf(0.0, 2400.0, dep, 0.0, sc)
    assert a - static == pytest.approx(2.0 * (b - static), rel=1e-12)


def test_interval_avg_two_slot_hand_oracle():
    # pencil arithmetic: one subregion, stale radius over two slots
    lam0, lam1 = 1.0e-6, 2.5e-6
    sc = toy_scenario([[lam0, lam1]], pm=1.0)
    env, radio = sc.env, sc.radio
    h1 = optimal_altitude_ratio(env)
    p1 = optimal_normalized_power(env, radio)
    area = sc.subregions[0].area
    eb = sc.energy.battery_j
    r0 = (0.5 / (lam0 * radio.snr_gap * p1)) ** 0.25
    dep = build_deployment(sc.subregions, (r0,), (r0 * h1,), sc.rsc_position)
    mobility = 500.0  # J, hand-set
    spe = area / (math.pi * eb)
    phi_slot0 = spe * (0.5 / r0**2 + lam0 * radio.snr_gap * p1 * r0**2)
    phi_slot1 = spe * (0.5 / r0**2 + lam1 * radio.snr_gap * p1 * r0**2)
    expected = (600.0 * (phi_slot0 + phi_slot1) + mobility / eb) / 1200.0
    assert interval_avg_rf(0.0, 1200.0, dep, mobility, sc) == pytest.approx(
        expected, rel=1e-12
    )


def test_interval_avg_validation():
    sc = toy_scenario([[1e-6, 1e-6]])
    dep = build_deployment(sc.subregions, (100.0,), (90.0,), sc.rsc_position)
    with pytest.raises(ValueError):
        interval_avg_rf(0.0, 0.0, dep, 0.0, sc)
    with pytest.raises(ValueError):
        interval_avg_rf(0.0, 601.0, dep, 0.0, sc)


def test_smgd_constant_density_never_updates():
    sc = toy_scenario([[3e-6] * 12], pm=0.0)
    sched = smgd_schedule(sc)
    assert sched.update_count == 0
    assert len(sched.epochs) == 1  # initial placement only
    lazy = baseline_schedule("lazy", sc)
    assert sched.avg_dynamic_rf == pytest.approx(lazy.avg_dynamic_rf, rel=1e-14)


def test_smgd_free_mobility_tracks_every_change():
    rng = np.random.default_rng(4)
    lams = 10 ** rng.uniform(-6.5, -5.5, size=(2, 10))
    lams[:, 4] = lams[:, 3]  # one repeated slot
    sc = toy_scenario(lams, pm=0.0)
    sched = smgd_schedule(sc)
    changed = int(np.sum(np.any(np.diff(lams, axis=1) != 0, axis=0)))
    assert sched.update_count == changed
    dil = baseline_schedule("diligent", sc)
    assert sched.avg_dynamic_rf == pytest.approx(dil.avg_dynamic_rf, rel=1e-12)


def test_smgd_prohibitive_mobility_holds():
    rng = np.random.default_rng(8)
    lams = 10 ** rng.uniform(-6.5, -5.5, size=(1, 10))
    sc = toy_scenario(lams, pm=1e7)
    sched = smgd_schedule(sc)
    assert sched.update_count == 0
    lazy = baseline_schedule("lazy", sc)
    assert sched.avg_dynamic_rf == pytest.approx(lazy.avg_dynamic_rf, rel=1e-14)


def test_smgd_never_worse_than_baselines():
    rng = np.random.default_rng(17)
    for trial in range(6):
        lams = 10 ** rng.uniform(-6.8, -5.6, size=(2, 12))
        pm = 10 ** rng.uniform(-2.0, 2.0)
        sc = toy_scenario(lams, pm=pm, seed=trial)
        sched = smgd_schedule(sc)
        lazy = baseline_schedule("lazy", sc)
        dil = baseline_schedule("diligent", sc)
        assert sched.avg_dynamic_rf <= min(lazy.avg_dynamic_rf, dil.avg_dynamic_rf) + 1e-12


def test_smgd_trace_is_argmin_and_matches_pruned_run():
    rng = np.random.default_rng(23)
    lams = 10 ** rng.uniform(-6.8, -5.6, size=(2, 12))
    sc = toy_scenario(lams, pm=0.7)
    traced = smgd_schedule(sc, trace=True)
    plain = smgd_schedule(sc)
    assert traced.update_slots == plain.update_slots
    assert traced.avg_dynamic_rf == plain.avg_dynamic_rf
    for step in traced.trace:
        values = [step.hold_value] + list(step.update_values.values())
        if step.diligent_value is not None:
            values.append(step.diligent_value)
        assert step.chosen_value <= min(values) + 1e-18


def test_smgd_candidate_evaluation_bound():
    rng = np.random.default_rng(2)
    lams = 10 ** rng.uniform(-6.8, -5.6, size=(1, 14))
    sc = toy_scenario(lams, pm=0.0)
    sched = smgd_schedule(sc)
    n = sc.n_slots
    assert sched.candidate_evaluations <= n * (n + 1) // 2


def test_dynamic_rf_reassembly_matches():
    sc = reference_scenario().with_mobility_power(1.5)
    for method in ("smgd", "lazy", "diligent"):
        sched = (
            smgd_schedule(sc) if method == "smgd" else baseline_schedule(method, sc)
        )
        assert dynamic_rf(sched, sc) == pytest.approx(sched.avg_dynamic_rf, rel=1e-12)


def test_dynamic_rf_split_invariance():
    lam = 2e-6
    sc = toy_scenario([[lam] * 8], pm=1.0)
    radius = optimal_radius(lam, 0.5, sc.env, sc.radio)
    h1 = optimal_altitude_ratio(sc.env)
    dep = build_deployment(sc.subregions, (radius,), (radius * h1,), sc.rsc_position)
    whole = interval_avg_rf(0.0, 4800.0, dep, 0.0, sc) * 4800.0
    left = interval_avg_rf(0.0, 1800.0, dep, 0.0, sc) * 1800.0
    right = interval_avg_rf(1800.0, 4800.0, dep, 0.0, sc) * 3000.0
    assert whole == pytest.approx(left + right, rel=1e-12)


def test_single_update_hand_oracle():
    # one subregion, two slots, single-UAV fleets, forced single update
    lam0, lam1 = 6.0e-7, 1.6e-6
    pm = 1e-4
    sc = toy_scenario([[lam0, lam1]], pm=pm)
    env, radio = sc.env, sc.radio
    h1 = optimal_altitude_ratio(env)
    p1 = optimal_normalized_power(env, radio)
    eb = sc.energy.battery_j
    spe = sc.subregions[0].area / (math.pi * eb)
    r = lambda lam: (0.5 / (lam * radio.snr_gap * p1)) ** 0.25
    phi_opt = lambda lam: 2.0 * spe * math.sqrt(lam * radio.snr_gap * 0.5 * p1)
    # single UAV, same rectangle center: move is purely vertical
    climb = abs(r(lam1) - r(lam0)) * h1
    omega = pm * climb
    expected = (600.0 * (phi_opt(lam0) + phi_opt(lam1)) + omega / eb) / 1200.0
    sched = smgd_schedule(sc)
    assert sched.update_count == 1
    assert sched.avg_dynamic_rf == pytest.approx(expected, rel=1e-12)


def test_exhaustive_lower_bounds_smgd():
    rng = np.random.default_rng(31)
    for trial in range(4):
        lams = 10 ** rng.uniform(-6.8, -5.6, size=(2, 9))
        pm = 10 ** rng.uniform(-2.0, 1.5)
        sc = toy_scenario(lams, pm=pm, seed=100 + trial)
        best, slots = exhaustive_schedule(sc)
        sched = smgd_schedule(sc)
        assert sched.avg_dynamic_rf >= best - 1e-15
        assert slots[0] == 0


def test_exhaustive_guard():
    sc = toy_scenario([[1e-6] * 20], pm=1.0)
    with pytest.raises(ValueError):
        exhaustive_schedule(sc)


def test_initial_launch_flag():
    lam = 2e-6
    base = toy_scenario([[lam] * 4], pm=1.0)
    with_launch = dataclasses.replace(base, include_initial_launch=True)
    a = baseline_schedule("lazy", base)
    b = baseline_schedule("lazy", with_launch)
    assert b.mobility_total_j > a.mobility_total_j == 0.0
    assert b.avg_dynamic_rf > a.avg_dynamic_rf


def test_schedule_epoch_invariants():
    sc = reference_scenario().with_mobility_power(1.5)
    sched = smgd_schedule(sc)
    taus = [e.tau for e in sched.epochs]
    assert taus[0] == 0.0
    assert all(b > a for a, b in zip(taus, taus[1:]))  # strictly increasing
    assert taus[-1] < sched.horizon_s
    assert len(sched.epochs) - 1 <= sched.horizon_s / sched.slot_s
    assert sched.epochs[0].mobility_j == 0.0  # no charge for the initial placement


def test_single_slot_horizon():
    sc = toy_scenario([[2e-6]], pm=1.0)
    sched = smgd_schedule(sc)
    assert len(sched.epochs) == 1 and sched.update_count == 0
    assert baseline_schedule("diligent", sc).avg_dynamic_rf == pytest.approx(
        sched.avg_dynamic_rf, rel=1e-14
    )


def test_cost_matrix_single_origin_translation():
    # from one shared origin with destinations strung out along one ray,
    # translating the destinations further along that ray adds exactly
    # the same horizontal charge to every entry
    origin = np.array([[10.0, 20.0, 30.0]] * 3)
    dests = origin + np.array([[5.0, 0, 0], [9.0, 0, 0], [14.0, 0, 0]])
    base = cost_matrix(origin, dests, UNIT_MOVES)
    shifted = cost_matrix(origin, dests + np.array([40.0, 0.0, 0.0]), UNIT_MOVES)
    assert np.allclose(shifted - base, 40.0 * UNIT_MOVES.p_horizontal, rtol=1e-12)


def test_diligent_static_never_above_lazy():
    rng = np.random.default_rng(41)
    for trial in range(4):
        lams = 10 ** rng.uniform(-6.8, -5.6, size=(2, 10))
        sc = toy_scenario(lams, pm=float(10 ** rng.uniform(-2, 1)), seed=trial)
        lazy = baseline_schedule("lazy", sc)
        dil = baseline_schedule("diligent", sc)
        assert dil.static_integral <= lazy.static_integral + 1e-15


def test_constant_density_lazy_equals_diligent():
    sc = toy_scenario([[3e-6] * 8], pm=2.0)
    lazy = baseline_schedule("lazy", sc)
    dil = baseline_schedule("diligent", sc)
    assert dil.static_integral == pytest.approx(lazy.static_integral, rel=1e-14)
    assert dil.mobility_total_j == 0.0  # identical placements, no moves
    assert dil.avg_dynamic_rf == pytest.approx(lazy.avg_dynamic_rf, rel=1e-14)


def test_zero_circuit_power_names_it():
    sc = toy_scenario([[1e-6, 2e-6, 3e-6]])
    sc = dataclasses.replace(sc, energy=dataclasses.replace(sc.energy, p_circuit=0.0))
    with pytest.raises(ValueError, match="circuit power"):
        smgd_schedule(sc)


def _ascending_scan_smgd(sc):
    """Reference SMGD: candidates in ascending slot order, each pruned only
    when its static bound exceeds the running incumbent, with a pair
    energy per slot pair.  Returns the epoch slots, the candidate count,
    the update count and the average dynamic recall frequency."""
    pre = _Precomputed(sc, sc.horizon_s)
    n, eb, mu = pre.n, sc.energy.battery_j, pre.mu
    deployments = {}
    energies = {}

    def deployment(k):
        if k not in deployments:
            radii = pre.radii[:, k]
            deployments[k] = build_deployment(
                sc.subregions, radii, radii * pre.h1, sc.rsc_position
            )
        return deployments[k]

    def pair_energy(i, j):
        if (i, j) not in energies:
            if np.array_equal(pre.radii[:, i], pre.radii[:, j]):
                energies[i, j] = 0.0
            else:
                energies[i, j] = mobility_energy_at(deployment(i), deployment(j), sc.energy)[0]
        return energies[i, j]

    dil_suffix = np.zeros(n + 1)
    for j in range(n - 2, -1, -1):
        dil_suffix[j] = dil_suffix[j + 1] + pair_energy(j, j + 1) / eb
    slots, evaluations, cur = [0], 0, 0
    while True:
        base = float(pre.suffix[cur, cur])
        evaluations += 1
        best_value, best = base, None
        for k in range(cur + 1, n):
            evaluations += 1
            stale = base - float(pre.suffix[cur, k])
            if stale + float(pre.suffix[k, k]) > best_value:
                continue
            value = stale + pair_energy(cur, k) / eb + float(pre.suffix[k, k])
            if value < best_value:
                best_value, best = value, k
        if cur + 1 < n and float(dil_suffix[cur]) < best_value:
            best = cur + 1
        if best is None:
            break
        cur = best
        slots.append(cur)
    static_total = mobility_total = 0.0
    updates = 0
    for i, k in enumerate(slots):
        end = slots[i + 1] if i + 1 < len(slots) else n
        static_total += float(pre.stat[k, k:end].sum()) * mu
        if i > 0:
            mobility_total += pair_energy(slots[i - 1], k)
            updates += not np.array_equal(pre.radii[:, slots[i - 1]], pre.radii[:, k])
    avg = (static_total + mobility_total / eb) / sc.horizon_s
    return slots, evaluations, updates, avg


_band = st.floats(min_value=1e-8, max_value=2e-6, allow_nan=False)


@settings(max_examples=30, deadline=None)
@given(
    start_slot=st.integers(min_value=0, max_value=4031),
    n_slots=st.integers(min_value=1, max_value=432),
    pm=st.one_of(st.sampled_from([0.0, 0.05, 1.5, 50.0]), st.floats(0.0, 100.0)),
    bands=st.tuples(
        *[st.one_of(
            _band.map(lambda lam: (lam, lam)),
            st.tuples(_band, _band).map(lambda b: tuple(sorted(b))),
        )] * 2
    ),
)
def test_smgd_matches_ascending_scan(start_slot, n_slots, pm, bands):
    # pm = 0 and flat bands make many plans tie: hold must beat an equal
    # update, the earliest of equal updates must win, and diligent wins
    # only when strictly cheaper
    sc = dataclasses.replace(
        reference_scenario(),
        start_s=start_slot * 600.0,
        horizon_s=n_slots * 600.0,
        density_bands=bands,
    ).with_mobility_power(pm)
    slots, evaluations, updates, avg = _ascending_scan_smgd(sc)
    sched = smgd_schedule(sc)
    assert sched.update_slots == slots
    assert sched.avg_dynamic_rf.hex() == avg.hex()
    assert sched.update_count == updates
    assert sched.candidate_evaluations == evaluations
    if n_slots <= 36:
        traced = smgd_schedule(sc, trace=True)
        assert traced.update_slots == slots
        assert traced.avg_dynamic_rf.hex() == avg.hex()
        for step in traced.trace:
            assert list(step.update_values) == list(range(step.slot + 1, n_slots))


def test_smgd_equal_updates_earliest_wins(monkeypatch):
    # slot 2's update has the smaller static bound, so the best-first scan
    # visits it first; its pair energy is set so that both updates cost
    # exactly the same, and the earlier slot must still win
    sc = toy_scenario([[1.0e-6, 1.1e-6, 3.0e-6]], pm=1.0)
    pre = _Precomputed.for_scenario(sc, sc.horizon_s)
    eb = sc.energy.battery_j
    stale = [float(pre.suffix[0, 0]) - float(pre.suffix[0, k]) for k in (1, 2)]
    bound = [s + float(pre.suffix[k, k]) for s, k in zip(stale, (1, 2))]
    assert bound[1] < bound[0] < float(pre.suffix[0, 0])
    energy_02 = (bound[0] - stale[1] - float(pre.suffix[2, 2])) * eb
    for _ in range(64):
        tied = stale[1] + energy_02 / eb + float(pre.suffix[2, 2])
        if tied == bound[0]:
            break
        energy_02 = math.nextafter(energy_02, math.inf if tied < bound[0] else -math.inf)
    assert tied == bound[0]
    energies = {(0, 1): 0.0, (0, 2): energy_02, (1, 2): 1e9 * eb}
    monkeypatch.setattr(
        _Precomputed, "pair_energy", lambda self, i, j: energies.get((i, j), 0.0)
    )
    assert smgd_schedule(sc).update_slots[:2] == [0, 1]
    assert smgd_schedule(sc, trace=True).update_slots[:2] == [0, 1]


def test_precomputed_build_keeps_two_slot_tables():
    # a 2-week horizon: the static table and the suffix sums are the only
    # n x n arrays, and the suffix sums are built in their own buffer
    sc = dataclasses.replace(reference_scenario(), horizon_s=14 * 86400.0)
    optimal_altitude_ratio(sc.env)  # fill the per-environment caches untraced
    optimal_normalized_power(sc.env, sc.radio)
    tracemalloc.start()
    try:
        pre = _Precomputed(sc, sc.horizon_s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pre.n == 2016
    table_bytes = pre.n * pre.n * 8
    assert peak < 2.5 * table_bytes
