import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavrf.channel import RadioConfig, environment_preset
from uavrf.patterns import DENSITY_FLOOR
from uavrf.placement import EnergyParams, optimal_normalized_power, optimal_radius, static_rf
from uavrf.sampling import (
    GeneralizationError,
    LearningBudget,
    equal_share_sampling_numbers,
    min_sampling_numbers,
    rf_increment,
    rf_increment_exact,
    rf_increment_exact_samples,
    subregion_eigenvalue,
    vc_epsilon,
)

AREA = 1e6
BATTERY = AREA / math.pi  # S/(pi*E_b) = 1


def true_min_allocation(eigs, budget):
    """Exact constrained minimum of the total sampling count.

    Independent of the closed-form route: substitute u = sqrt(A/(2N))
    and solve the resulting Lagrange condition, which gives counts
    proportional to Lambda^(2/3).
    """
    eigs = np.asarray(eigs, dtype=float)
    a = math.log(budget.hypothesis_volume) - math.log(budget.confidence_delta)
    b = budget.max_rf_increment - budget.max_training_error * eigs.sum()
    u = b * eigs ** (-1.0 / 3.0) / np.sum(eigs ** (2.0 / 3.0))
    return a / (2.0 * u * u)


def test_eigenvalue_density_scaling(urban, radio):
    lam = 0.5
    base = subregion_eigenvalue(lam, 0.5, urban, radio, AREA, BATTERY)
    assert subregion_eigenvalue(4 * lam, 0.5, urban, radio, AREA, BATTERY) == pytest.approx(
        base / 8.0, rel=1e-12
    )


def test_eigenvalue_power_scaling(urban, radio):
    base = subregion_eigenvalue(1.0, 0.5, urban, radio, AREA, BATTERY)
    assert subregion_eigenvalue(1.0, 2.0, urban, radio, AREA, BATTERY) == pytest.approx(
        2.0 * base, rel=1e-12
    )


def test_eigenvalue_validation(urban, radio):
    for lam in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="density lam must be finite and positive"):
            subregion_eigenvalue(lam, 0.5, urban, radio, AREA, BATTERY)


def test_eigenvalue_is_taylor_coefficient(urban, radio):
    # second-derivative route: Lambda = (1/2) phi''(R*) (dR/dlam)^2
    lam = 3.0
    p_cu = 0.5
    energy = EnergyParams(p_circuit=p_cu, battery_j=BATTERY)
    from uavrf.placement import optimal_altitude_ratio

    h1 = optimal_altitude_ratio(urban)
    r_star = optimal_radius(lam, p_cu, urban, radio)

    def phi(radius):
        return static_rf(radius, lam, radius * h1, energy, AREA, urban, radio)

    dr = r_star * 1e-4
    second = (phi(r_star + dr) - 2 * phi(r_star) + phi(r_star - dr)) / dr**2
    dlam = lam * 1e-6
    drdlam = (
        optimal_radius(lam + dlam, p_cu, urban, radio)
        - optimal_radius(lam - dlam, p_cu, urban, radio)
    ) / (2 * dlam)
    taylor = 0.5 * second * drdlam**2
    eig = subregion_eigenvalue(lam, p_cu, urban, radio, AREA, BATTERY)
    assert eig == pytest.approx(taylor, rel=1e-4)


def test_rf_increment_zero_error():
    assert rf_increment(5.0, GeneralizationError(variance=0.0, bias=0.0)) == 0.0
    assert rf_increment(5.0, 0.0) == 0.0


def test_rf_increment_bias_only():
    err = GeneralizationError(variance=0.0, bias=0.2)
    assert err.xi == pytest.approx(0.04, rel=1e-15)
    assert rf_increment(3.0, err) == pytest.approx(0.12, rel=1e-15)


def test_generalization_error_validation():
    with pytest.raises(ValueError):
        GeneralizationError(variance=-1.0, bias=0.0)


def test_rf_increment_exact_positive_and_zero(urban, radio):
    inc = rf_increment_exact(3.0, 3.3, 0.5, urban, radio, AREA, BATTERY)
    assert inc > 0
    assert rf_increment_exact(3.0, 3.0, 0.5, urban, radio, AREA, BATTERY) == pytest.approx(
        0.0, abs=1e-15
    )


def test_exact_increment_vector_matches_scalar(urban, radio):
    hats = np.array([2.0, 2.9, 3.0, 3.4, 5.0])
    vec = rf_increment_exact_samples(3.0, hats, 0.5, urban, radio, AREA, BATTERY)
    for h, v in zip(hats, vec):
        assert v == pytest.approx(
            rf_increment_exact(3.0, h, 0.5, urban, radio, AREA, BATTERY),
            rel=1e-9,
            abs=1e-18,
        )


def _increments_oracle(lam_true, lam_hats, p_circuit, env, radio):
    # the closed form as one expression with temporaries: the reference
    # that the in-place route must match bit for bit
    p1 = optimal_normalized_power(env, radio)
    k = (AREA / (math.pi * BATTERY)) * math.sqrt(p_circuit * radio.snr_gap * p1)
    phi_hat = k * (np.sqrt(lam_hats) + lam_true / np.sqrt(lam_hats))
    return phi_hat - 2.0 * k * math.sqrt(lam_true)


_DENSITY = st.floats(1e-9, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    lam_true=_DENSITY,
    hats=st.lists(_DENSITY, max_size=64),
    p_circuit=st.floats(1e-3, 100.0),
)
@example(lam_true=3.0, hats=[], p_circuit=0.5)
@example(lam_true=3.0, hats=[2.9], p_circuit=0.5)
def test_exact_samples_bits_match_oracle(lam_true, hats, p_circuit):
    urban, radio = environment_preset("urban"), RadioConfig()
    hats = np.array(hats, dtype=float)
    before = hats.copy()
    out = rf_increment_exact_samples(lam_true, hats, p_circuit, urban, radio, AREA, BATTERY)
    expected = _increments_oracle(lam_true, hats, p_circuit, urban, radio)
    assert out.shape == hats.shape
    assert np.array_equal(out.view(np.int64), expected.view(np.int64))
    assert np.array_equal(hats.view(np.int64), before.view(np.int64))  # the input is untouched
    assert not np.shares_memory(out, hats)
    # into a given array, as fig10 does with a slice of a reused buffer
    buffer = np.full(len(hats) + 3, np.nan)
    given_out = buffer[: len(hats)]
    into = rf_increment_exact_samples(
        lam_true, hats, p_circuit, urban, radio, AREA, BATTERY, out=given_out
    )
    assert into is given_out
    assert np.array_equal(buffer[: len(hats)].view(np.int64), expected.view(np.int64))
    assert np.isnan(buffer[len(hats) :]).all()


def test_monte_carlo_slope_quick(urban, radio):
    # small version of the full study: slope of mean inflation vs xi
    lam = 10.0
    eig = subregion_eigenvalue(lam, 0.5, urban, radio, AREA, BATTERY)
    rng = np.random.default_rng(99)
    z = rng.standard_normal(200_000)
    xis, means = [], []
    for frac in (0.01, 0.015, 0.02):
        s = frac * lam
        inc = rf_increment_exact_samples(
            lam, np.maximum(lam + s * z, DENSITY_FLOOR), 0.5, urban, radio, AREA, BATTERY
        )
        xis.append(s * s)
        means.append(float(inc.mean()))
    xis, means = np.array(xis), np.array(means)
    slope = float((xis * means).sum() / (xis * xis).sum())
    assert slope == pytest.approx(eig, rel=0.02)


def test_vc_epsilon_values():
    assert vc_epsilon(math.e, 1, 1 / math.e) == pytest.approx(1.0, rel=1e-12)
    assert vc_epsilon(1000.0, 1e4, 0.05) == pytest.approx(
        math.sqrt((math.log(1000.0) + math.log(20.0)) / 2e4), rel=1e-12
    )
    assert vc_epsilon(1000.0, 1e4, 0.05) == pytest.approx(0.02226, abs=1e-5)
    # quadrupling the samples halves the bound
    assert vc_epsilon(50.0, 4000, 0.1) == pytest.approx(
        vc_epsilon(50.0, 1000, 0.1) / 2.0, rel=1e-12
    )


def test_vc_epsilon_validation():
    with pytest.raises(ValueError):
        vc_epsilon(1.0, 10, 0.1)
    with pytest.raises(ValueError):
        vc_epsilon(10.0, 0, 0.1)
    with pytest.raises(ValueError):
        vc_epsilon(10.0, 10, 1.5)
    for args in [(math.nan, 10, 0.05), (10.0, math.nan, 0.05), (10.0, 10, math.nan)]:
        with pytest.raises(ValueError):
            vc_epsilon(*args)
    for d in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="hypothesis volume must be finite and exceed 1"):
            vc_epsilon(d, 10, 0.05)


BUDGET = LearningBudget(
    hypothesis_volume=1000.0, confidence_delta=0.05, max_training_error=0.01,
    max_rf_increment=5.0,
)


def test_single_region_closed_form():
    eig = 2.2
    alloc = min_sampling_numbers([eig], BUDGET)
    a = math.log(1000.0) - math.log(0.05)
    expected = eig**2 * a / (2.0 * (5.0 - 0.01 * eig) ** 2)
    assert alloc.counts[0] == pytest.approx(expected, rel=1e-12)
    assert alloc.counts_int[0] == math.ceil(alloc.counts[0])


def test_single_region_matches_true_minimum():
    # with one subregion the closed form and the constrained optimum agree
    alloc = min_sampling_numbers([2.2], BUDGET)
    assert alloc.counts[0] == pytest.approx(
        float(true_min_allocation([2.2], BUDGET)[0]), rel=1e-12
    )


def test_eigenvalue_square_proportionality():
    # the equal-share closed form goes as Lambda^2
    alloc = equal_share_sampling_numbers([2.0, 1.0], BUDGET)
    assert alloc.counts[0] == pytest.approx(4.0 * alloc.counts[1], rel=1e-12)


def test_eigenvalue_two_thirds_proportionality():
    # the total-count minimum goes as Lambda^(2/3)
    alloc = min_sampling_numbers([8.0, 1.0], BUDGET)
    assert alloc.counts[0] == pytest.approx(4.0 * alloc.counts[1], rel=1e-12)


def test_min_matches_true_minimum():
    rng = np.random.default_rng(15)
    for kappa in (2, 3, 5):
        eigs = rng.uniform(0.3, 3.0, size=kappa)
        alloc = min_sampling_numbers(eigs, BUDGET)
        np.testing.assert_allclose(
            alloc.counts, true_min_allocation(eigs, BUDGET), rtol=1e-12
        )
        equal = equal_share_sampling_numbers(eigs, BUDGET)
        assert sum(alloc.counts) < sum(equal.counts)


def test_stationarity_identity():
    rng = np.random.default_rng(13)
    eigs = rng.uniform(0.3, 3.0, size=4)
    a = math.log(BUDGET.hypothesis_volume) - math.log(BUDGET.confidence_delta)
    # Lagrange condition of min sum(N_b): omega * Lambda_b * eps_b = 2 N_b
    alloc = min_sampling_numbers(eigs, BUDGET)
    for eig, n in zip(eigs, alloc.counts):
        lhs = alloc.omega * eig * math.sqrt(a / (2.0 * n))
        assert lhs == pytest.approx(2.0 * n, rel=1e-12)
    alloc = equal_share_sampling_numbers(eigs, BUDGET)
    for eig, n in zip(eigs, alloc.counts):
        lhs = alloc.omega * eig * math.sqrt(a / (2.0 * n))
        assert lhs == pytest.approx(2.0, rel=1e-12)


def test_binding_constraint():
    rng = np.random.default_rng(14)
    eigs = rng.uniform(0.3, 3.0, size=5)
    for allocate in (min_sampling_numbers, equal_share_sampling_numbers):
        alloc = allocate(eigs, BUDGET)
        total = sum(
            eig * (BUDGET.max_training_error + vc_epsilon(
                BUDGET.hypothesis_volume, n, BUDGET.confidence_delta))
            for eig, n in zip(eigs, alloc.counts)
        )
        assert total == pytest.approx(BUDGET.max_rf_increment, rel=1e-12)


def test_xi_bounds_formula():
    eigs = [0.5, 1.5]
    alloc = equal_share_sampling_numbers(eigs, BUDGET)
    for eig, bound in zip(eigs, alloc.xi_bounds):
        assert bound == pytest.approx(
            BUDGET.max_training_error + 2.0 / (alloc.omega * eig), rel=1e-12
        )
    alloc = min_sampling_numbers(eigs, BUDGET)
    for n, bound in zip(alloc.counts, alloc.xi_bounds):
        assert bound == pytest.approx(
            BUDGET.max_training_error
            + vc_epsilon(BUDGET.hypothesis_volume, n, BUDGET.confidence_delta),
            rel=1e-12,
        )


def test_infeasible_budget_rejected():
    tight = LearningBudget(
        hypothesis_volume=10.0, confidence_delta=0.1, max_training_error=1.0,
        max_rf_increment=0.5,
    )
    with pytest.raises(ValueError, match="infeasible"):
        min_sampling_numbers([1.0, 2.0], tight)
    with pytest.raises(ValueError, match="infeasible"):
        equal_share_sampling_numbers([1.0, 2.0], tight)


def test_sampling_needs_an_eigenvalue():
    for allocate in (min_sampling_numbers, equal_share_sampling_numbers):
        with pytest.raises(ValueError, match="at least one subregion eigenvalue"):
            allocate([], BUDGET)


def test_budget_validation():
    with pytest.raises(ValueError):
        LearningBudget(hypothesis_volume=1.0, confidence_delta=0.1,
                       max_training_error=0.0, max_rf_increment=1.0)
    with pytest.raises(ValueError):
        LearningBudget(hypothesis_volume=10.0, confidence_delta=1.0,
                       max_training_error=0.0, max_rf_increment=1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field",
    ["hypothesis_volume", "confidence_delta", "max_training_error", "max_rf_increment"],
)
def test_budget_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        dataclasses.replace(BUDGET, **{field: value})


@pytest.mark.parametrize("eig", [math.nan, math.inf, 0.0])
def test_allocations_reject_bad_eigenvalues(eig):
    for allocate in (min_sampling_numbers, equal_share_sampling_numbers):
        with pytest.raises(ValueError, match="eigenvalues must be finite and positive"):
            allocate([1.0, eig], BUDGET)


def test_sampling_demo_sparse_zone_needs_more_samples(capsys):
    import re
    import runpy
    from pathlib import Path

    demo = Path(__file__).resolve().parents[1] / "demos" / "05_sampling_budgets.py"
    runpy.run_path(str(demo), run_name="__main__")
    rows = re.findall(
        r"densities \(([\d.]+), ([\d.]+)\): samples \((\d+), (\d+)\)", capsys.readouterr().out
    )
    assert len(rows) == 3
    for lam_a, lam_b, n_a, n_b in rows:
        lam_a, lam_b, n_a, n_b = float(lam_a), float(lam_b), int(n_a), int(n_b)
        assert min(n_a, n_b) >= 1000  # the cap binds: no zone is served by a token sample
        if lam_a < lam_b:
            assert n_a > n_b
        else:
            assert n_a == n_b


@pytest.mark.parametrize("lam_true", [math.nan, math.inf, 0.0, -1.0])
def test_exact_samples_reject_bad_true_density(urban, radio, lam_true):
    with pytest.raises(ValueError, match="density lam must be finite and positive"):
        rf_increment_exact_samples(lam_true, [1e-6], 0.5, urban, radio, AREA, BATTERY)


@pytest.mark.parametrize(
    "route",
    [
        lambda p_cu, area, eb, env, radio: rf_increment_exact_samples(
            3.0, [1.0], p_cu, env, radio, area, eb
        ),
        lambda p_cu, area, eb, env, radio: rf_increment_exact(3.0, 1.0, p_cu, env, radio, area, eb),
    ],
    ids=["samples", "scalar"],
)
@pytest.mark.parametrize(
    "named, p_circuit, area, battery_j",
    [("circuit power p_circuit", 0.0, AREA, BATTERY), ("area", 0.5, -1e6, BATTERY),
     ("battery_j", 0.5, AREA, -1.0)],
    ids=["p_circuit-zero", "area-negative", "battery-negative"],
)
def test_exact_increment_rejects_nonpositive_constants(
    urban, radio, route, named, p_circuit, area, battery_j
):
    # the samples returned an increment of 0 or a negative one, and the
    # scalar route named the radius at zero circuit power
    with pytest.raises(ValueError, match=f"^{named} must be finite and positive"):
        route(p_circuit, area, battery_j, urban, radio)


@pytest.mark.parametrize(
    "hats", [[math.nan], [1.0, math.inf], [1.0, math.nan, 2.0], [0.0], [1.0, -1.0]]
)
def test_exact_samples_reject_bad_predictions(urban, radio, hats):
    with pytest.raises(ValueError, match="lam_hats must be finite and positive"):
        rf_increment_exact_samples(3.0, hats, 0.5, urban, radio, AREA, BATTERY)


def test_exact_samples_accept_empty_predictions(urban, radio):
    out = rf_increment_exact_samples(3.0, [], 0.5, urban, radio, AREA, BATTERY)
    assert out.shape == (0,)


@pytest.mark.parametrize("xi", [math.nan, math.inf, -1.0])
def test_rf_increment_rejects_bad_xi(xi):
    with pytest.raises(ValueError, match="xi must be finite and nonnegative"):
        rf_increment(2.0, xi)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["variance", "bias"])
def test_generalization_error_rejects_non_finite_fields(field, value):
    fields = {"variance": 0.0, "bias": 0.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        GeneralizationError(**fields)
