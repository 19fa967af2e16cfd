import dataclasses
import math
import re

import numpy as np
import pytest

from uavrf.channel import (
    LOS,
    NLOS,
    Environment,
    RadioConfig,
    avg_path_loss,
    check_positive,
    elevation_angle_deg,
    environment_preset,
    los_probability,
    los_probability_altitude_slope,
    path_loss,
    per_user_tx_power,
    to_db,
)
from uavrf.layout import Deployment, layout_positions, num_uavs
from uavrf.patterns import Rect, constant_pattern, normalized_shape, perturbed_density
from uavrf.placement import (
    EnergyParams,
    adaptive_simpson,
    normalized_tx_power,
    optimal_radius,
    static_rf,
    static_rf_at_optimal_altitude,
    tx_power,
)
from uavrf.sampling import rf_increment, rf_increment_exact_samples, subregion_eigenvalue

# frozen against a 40-digit evaluation of the closed formulas
PER_USER_POWER_URBAN_100_100 = 0.016310373953585637  # W
AVG_LOSS_URBAN_100_100 = 326207479.07171274


def test_presets():
    urban = environment_preset("urban")
    assert (urban.a, urban.b, urban.eta_los, urban.eta_nlos) == (9.61, 0.16, 1.0, 20.0)
    dense = environment_preset("dense urban")
    assert (dense.a, dense.b) == (12.08, 0.11)
    sub = environment_preset("Suburban")
    assert sub.eta_los == 0.1
    with pytest.raises(ValueError):
        environment_preset("rural")


def test_environment_validation():
    with pytest.raises(ValueError):
        Environment(a=-1.0, b=0.1, eta_los=1.0, eta_nlos=2.0)
    with pytest.raises(ValueError):
        Environment(a=1.0, b=0.1, eta_los=2.0, eta_nlos=1.0)
    with pytest.raises(ValueError):
        Environment(a=1.0, b=0.1, eta_los=0.0, eta_nlos=1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["a", "b", "eta_los", "eta_nlos"])
def test_environment_rejects_non_finite(field, value):
    constants = dict(a=9.61, b=0.16, eta_los=1.0, eta_nlos=20.0)
    constants[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        Environment(**constants)


def test_radio_validation():
    with pytest.raises(ValueError):
        RadioConfig(bandwidth_hz=0.0)
    assert RadioConfig().snr_gap == pytest.approx(1.0)  # C = W regime
    # each field finite and positive, their ratio not
    with pytest.raises(ValueError, match="rate/bandwidth ratio must be finite"):
        RadioConfig(rate_bps=1e300, bandwidth_hz=1e-300)


def test_radio_rejects_an_infinite_snr_gap():
    # a finite ratio C/W = 1e6 whose 2^(C/W) - 1 overflows
    with pytest.raises(ValueError, match=r"rate_bps=10000000000\.0, bandwidth_hz=10000\.0"):
        RadioConfig(rate_bps=1e10)
    with pytest.raises(ValueError, match="rate_bps=1024.0, bandwidth_hz=1.0"):
        RadioConfig(rate_bps=1024.0, bandwidth_hz=1.0)
    # at the largest ratio below 1024 the gap is finite, and the radio constructs
    assert RadioConfig(rate_bps=math.nextafter(1024.0, 0.0), bandwidth_hz=1.0).snr_gap < math.inf


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RadioConfig)])
def test_radio_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        RadioConfig(**{field: value})


def test_los_probability_ground_level(urban):
    # theta = 0 at h = 0
    assert los_probability(1.0, 0.0, urban) == pytest.approx(
        1.0 / (1.0 + 9.61 * math.exp(0.16 * 9.61)), rel=1e-12
    )
    assert los_probability(1.0, 0.0, urban) == pytest.approx(0.02188, abs=1e-5)


def test_los_probability_overhead(urban):
    # r = 0 means looking straight up
    assert elevation_angle_deg(0.0, 1.0) == 90.0
    assert los_probability(0.0, 1.0, urban) == pytest.approx(0.99997, abs=1e-5)


def test_los_probability_scale_invariance(urban):
    for r, h in [(1.0, 2.0), (3.0, 0.5), (100.0, 80.0)]:
        assert los_probability(r, h, urban) == pytest.approx(
            los_probability(10 * r, 10 * h, urban), rel=1e-14
        )


def test_los_probability_monotonicity(urban):
    hs = np.linspace(0.0, 500.0, 40)
    ps = [los_probability(100.0, h, urban) for h in hs]
    assert all(b > a for a, b in zip(ps, ps[1:]))
    rs = np.linspace(1.0, 500.0, 40)
    ps = [los_probability(r, 100.0, urban) for r in rs]
    assert all(b < a for a, b in zip(ps, ps[1:]))


def test_origin_rejected(urban, radio):
    with pytest.raises(ValueError):
        elevation_angle_deg(0.0, 0.0)
    with pytest.raises(ValueError):
        path_loss(LOS, 0.0, 0.0, urban, radio)
    with pytest.raises(ValueError):
        avg_path_loss(0.0, 0.0, urban, radio)


def test_path_loss_fspl_factor(urban, radio):
    # overhead at 1 m with unit excess: pure FSPL factor
    env = Environment(a=urban.a, b=urban.b, eta_los=1.0, eta_nlos=1.0)
    assert path_loss(LOS, 0.0, 1.0, env, radio) == pytest.approx(1.0107e4, rel=1e-4)
    assert radio.fspl_factor == pytest.approx((4 * math.pi * 2.4e9 / 3e8) ** 2, rel=1e-14)


def test_path_loss_branches(urban, radio):
    ratio = path_loss(NLOS, 30.0, 40.0, urban, radio) / path_loss(LOS, 30.0, 40.0, urban, radio)
    assert ratio == pytest.approx(urban.eta_nlos / urban.eta_los, rel=1e-14)
    with pytest.raises(ValueError):
        path_loss("sideways", 1.0, 1.0, urban, radio)


def test_path_loss_distance_scaling(urban, radio):
    assert path_loss(LOS, 60.0, 80.0, urban, radio) == pytest.approx(
        4.0 * path_loss(LOS, 30.0, 40.0, urban, radio), rel=1e-14
    )


def test_avg_between_los_and_nlos(urban, radio):
    for r, h in [(10.0, 1.0), (100.0, 100.0), (5.0, 400.0)]:
        lo = path_loss(LOS, r, h, urban, radio)
        hi = path_loss(NLOS, r, h, urban, radio)
        assert lo <= avg_path_loss(r, h, urban, radio) <= hi


def test_avg_collapses_when_excess_equal(radio, urban):
    env = Environment(a=urban.a, b=urban.b, eta_los=3.0, eta_nlos=3.0)
    for r, h in [(10.0, 1.0), (100.0, 100.0)]:
        assert avg_path_loss(r, h, env, radio) == pytest.approx(
            path_loss(LOS, r, h, env, radio), rel=1e-14
        )


def test_avg_midpoint_mixing(urban, radio):
    # where P0 = 1/2 the excess is the arithmetic mean
    # theta solving the sigmoid: a*exp(-b(theta-a)) = 1
    theta = urban.a + math.log(urban.a) / urban.b
    r = 100.0
    h = r * math.tan(math.radians(theta))
    assert los_probability(r, h, urban) == pytest.approx(0.5, rel=1e-12)
    excess = avg_path_loss(r, h, urban, radio) / (radio.fspl_factor * (r * r + h * h))
    assert excess == pytest.approx((urban.eta_los + urban.eta_nlos) / 2.0, rel=1e-12)


def test_avg_overhead_approaches_los(urban, radio):
    # straight overhead the excess is within 0.06% of the LOS branch
    h = 50.0
    got = avg_path_loss(0.0, h, urban, radio)
    los = path_loss(LOS, 0.0, h, urban, radio)
    assert got == pytest.approx(los, rel=6e-4)


def test_avg_scale_identity(urban, radio):
    # L(r, h) = R^2 * L(r/R, h/R), the backbone of the power rescaling
    rng = np.random.default_rng(7)
    for _ in range(25):
        r, h = rng.uniform(0.5, 500.0, 2)
        scale = rng.uniform(0.1, 50.0)
        assert avg_path_loss(r, h, urban, radio) == pytest.approx(
            scale**2 * avg_path_loss(r / scale, h / scale, urban, radio), rel=1e-12
        )


def test_avg_unimodal_in_altitude(urban, radio):
    hs = np.linspace(0.0, 2000.0, 400)
    vals = [avg_path_loss(100.0, h, urban, radio) for h in hs]
    diffs = np.sign(np.diff(vals))
    changes = np.nonzero(np.diff(diffs) != 0)[0]
    assert len(changes) == 1  # decreases, then increases


def test_per_user_power_golden(urban, radio):
    assert avg_path_loss(100.0, 100.0, urban, radio) == pytest.approx(
        AVG_LOSS_URBAN_100_100, rel=1e-12
    )
    assert per_user_tx_power(100.0, 100.0, urban, radio) == pytest.approx(
        PER_USER_POWER_URBAN_100_100, rel=1e-12
    )


def test_per_user_power_rate_regimes(urban):
    base = RadioConfig()
    # C = W: factor 2^1 - 1 = 1
    assert per_user_tx_power(50.0, 50.0, urban, base) == pytest.approx(
        avg_path_loss(50.0, 50.0, urban, base) * base.noise_density * base.bandwidth_hz,
        rel=1e-14,
    )
    # C -> 0: no power needed
    tiny = RadioConfig(rate_bps=1e-9)
    assert per_user_tx_power(50.0, 50.0, urban, tiny) == pytest.approx(0.0, abs=1e-15)


def test_altitude_slope_matches_finite_difference(urban):
    for r, h in [(50.0, 20.0), (200.0, 150.0), (10.0, 300.0)]:
        eps = 1e-7 * max(1.0, h)
        numeric = (
            los_probability(r, h + eps, urban) - los_probability(r, h - eps, urban)
        ) / (2 * eps)
        assert los_probability_altitude_slope(r, h, urban) == pytest.approx(
            numeric, rel=1e-4
        )


def test_to_db():
    assert to_db(100.0) == pytest.approx(20.0)
    with pytest.raises(ValueError):
        to_db(0.0)


@pytest.mark.parametrize(
    "value, zero_ok, bound",
    [(0.0, False, "positive"), (-1.0, True, "nonnegative"), (math.nan, False, "positive"),
     (math.nan, True, "nonnegative"), (math.inf, True, "nonnegative"), (-math.inf, False, "positive")],
)
def test_check_positive_rejects(value, zero_ok, bound):
    with pytest.raises(ValueError, match=rf"^radius must be finite and {bound}, got {value!r}$"):
        check_positive("radius", value, zero_ok=zero_ok)


@pytest.mark.parametrize("value, zero_ok", [(1e-300, False), (0.0, True), (1.7e308, False)])
def test_check_positive_accepts(value, zero_ok):
    check_positive("radius", value, zero_ok=zero_ok)


@pytest.mark.parametrize(
    "entries, zero_ok, message",
    [
        ([1.0, math.nan], False, "positive, got nan at index [1]"),
        ([math.nan, -1.0], True, "nonnegative, got nan at index [0]"),
        ([[1.0, 2.0], [math.inf, 3.0]], True, "nonnegative, got inf at index [1, 0]"),
        ([2.0, -math.inf], False, "positive, got -inf at index [1]"),
        ([1.0, 0.0, -1.0], True, "nonnegative, got -1.0 at index [2]"),
        ([3.0, 0.0], False, "positive, got 0.0 at index [1]"),
        ([[1.0], [-2.0]], False, "positive, got -2.0 at index [1, 0]"),
    ],
)
def test_check_positive_names_the_failing_entry(entries, zero_ok, message):
    # the first failing entry in C order, not the whole array
    with pytest.raises(ValueError, match="^" + re.escape(f"lam must be finite and {message}") + "$"):
        check_positive("lam", np.array(entries), zero_ok=zero_ok)


@pytest.mark.parametrize(
    "entries, zero_ok",
    [([], False), ([], True), (np.empty((2, 0)), False), ([0.0, 1.0], True),
     ([[1e-300, 1.7e308]], False)],
)
def test_check_positive_accepts_arrays(entries, zero_ok):
    check_positive("lam", np.array(entries), zero_ok=zero_ok)


_URBAN, _RADIO, _ENERGY = environment_preset("urban"), RadioConfig(), EnergyParams(0.5, 1.0)
_DEPOT = (0.0, 0.0, 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "named, call",
    [
        ("circuit power p_circuit", lambda v: optimal_radius(0.1, v, _URBAN, _RADIO)),
        ("area", lambda v: static_rf(100.0, 0.1, 50.0, _ENERGY, v, _URBAN, _RADIO)),
        ("radius", lambda v: static_rf_at_optimal_altitude(v, 0.1, _ENERGY, 1e6, _URBAN, _RADIO)),
        ("circuit power p_circuit",
         lambda v: subregion_eigenvalue(1.0, v, _URBAN, _RADIO, 1e6, 1.0)),
        ("battery_j", lambda v: subregion_eigenvalue(1.0, 0.5, _URBAN, _RADIO, 1e6, v)),
        ("circuit power p_circuit",
         lambda v: rf_increment_exact_samples(1.0, [1.0], v, _URBAN, _RADIO, 1e6, 1.0)),
        ("area", lambda v: rf_increment_exact_samples(1.0, [1.0], 0.5, _URBAN, _RADIO, v, 1.0)),
        ("battery_j", lambda v: rf_increment_exact_samples(1.0, [1.0], 0.5, _URBAN, _RADIO, 1e6, v)),
        ("altitude", lambda v: layout_positions(Rect(0.0, 0.0, 100.0, 100.0), 2, v)),
        ("radius", lambda v: Deployment(("A",), (v,), (1.0,), (1,), np.zeros((1, 3)), _DEPOT)),
        ("altitude", lambda v: Deployment(("A",), (1.0,), (v,), (1,), np.zeros((1, 3)), _DEPOT)),
        ("stddev", lambda v: perturbed_density(0.1, 0.0, v, 3, 0)),
        ("density lam", lambda v: perturbed_density(v, 0.0, 1.0, 3, 0)),
        ("eigenvalue", lambda v: rf_increment(v, 1.0)),
        ("linear", lambda v: to_db(v)),
        (r"r\^2 \+ h\^2", lambda v: avg_path_loss(v, 1.0, _URBAN, _RADIO)),
        ("r", lambda v: elevation_angle_deg(v, 1.0)),
        ("altitude ratio h1", lambda v: normalized_tx_power(v, _URBAN, _RADIO)),
        ("radius", lambda v: tx_power(v, 0.1, 1.0, _URBAN, _RADIO)),
        ("area", lambda v: num_uavs(v, 1.0)),
        ("integration bounds", lambda v: adaptive_simpson(math.sin, 0.0, v)),
    ],
    ids=["optimal_radius", "static_rf", "static_rf_at_optimal_altitude", "eigenvalue-p_circuit",
         "eigenvalue-battery", "exact_samples-p_circuit", "exact_samples-area",
         "exact_samples-battery", "layout_positions", "Deployment",
         "Deployment-altitude", "perturbed_density",
         "perturbed_density-lam", "rf_increment", "to_db", "avg_path_loss", "elevation_angle_deg", "normalized_tx_power", "tx_power",
         "num_uavs", "adaptive_simpson"],
)
def test_non_finite_input_names_the_argument(named, call, value):
    # each returned nan or inf, raised NumericalError, or named no argument
    with pytest.raises(ValueError, match=f"^{named} must be finite and"):
        call(value)


@pytest.mark.parametrize(
    "message, call",
    [
        ("density lam must be finite and nonnegative, got -1.0",
         lambda: perturbed_density(-1.0, 0.0, 1.0, 3, 0)),
        ("bias must be finite, got nan", lambda: perturbed_density(0.1, math.nan, 1.0, 3, 0)),
        ("bias must be finite, got inf", lambda: perturbed_density(0.1, math.inf, 1.0, 3, 0)),
        ("bias must be finite, got -inf", lambda: perturbed_density(0.1, -math.inf, 1.0, 3, 0)),
        ("eigenvalue must be finite and nonnegative, got -2.0", lambda: rf_increment(-2.0, 1.0)),
        ("altitude must be finite and nonnegative, got -5.0",
         lambda: Deployment(("A",), (1.0,), (-5.0,), (1,), np.zeros((1, 3)), _DEPOT)),
        ("integration bounds must be finite and satisfy a <= b, got a=1.0, b=0.0",
         lambda: adaptive_simpson(math.sin, 1.0, 0.0)),
        ("integration bounds must be finite and satisfy a <= b, got a=-inf, b=1.0",
         lambda: adaptive_simpson(math.sin, -math.inf, 1.0)),
        ("integration bounds must be finite and satisfy a <= b, got a=nan, b=nan",
         lambda: adaptive_simpson(math.sin, math.nan, math.nan)),
        ("n_points must be positive, got 0",
         lambda: normalized_shape(constant_pattern(2.5, n_samples=64), 0)),
        ("n_points must be positive, got -3",
         lambda: normalized_shape(constant_pattern(2.5, n_samples=64), -3)),
        ("n must be nonnegative, got -1", lambda: perturbed_density(0.1, 0.0, 1.0, -1, 0)),
        ("n_points must be an integer, got 2.5",
         lambda: normalized_shape(constant_pattern(2.5, n_samples=64), 2.5)),
        ("n_points must be an integer, got True",
         lambda: normalized_shape(constant_pattern(2.5, n_samples=64), True)),
        ("n must be an integer, got 2.5", lambda: perturbed_density(0.1, 0.0, 1.0, 2.5, 0)),
        ("n must be an integer, got True", lambda: perturbed_density(0.1, 0.0, 1.0, True, 0)),
    ],
    ids=["perturbed_density-negative-lam", "bias-nan", "bias-inf", "bias-neg-inf",
         "rf_increment-negative", "Deployment-negative-altitude",
         "adaptive_simpson-reversed", "adaptive_simpson-neg-inf", "adaptive_simpson-nan",
         "normalized_shape-zero", "normalized_shape-negative", "perturbed_density-negative-n",
         "normalized_shape-float", "normalized_shape-bool", "perturbed_density-float-n",
         "perturbed_density-bool-n"],
)
def test_out_of_range_input_names_the_argument(message, call):
    # each returned nan, inf, a negative increment or floored draws, hit
    # the subdivision cap or raised numpy's own error
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()
