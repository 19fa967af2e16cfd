import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_quadrature import _recursive_simpson

from uavrf import placement as pl
from uavrf.channel import (
    DENSE_URBAN,
    SUBURBAN,
    URBAN,
    Environment,
    RadioConfig,
    los_probability,
    los_probability_altitude_slope,
)
from uavrf.placement import (
    EnergyParams,
    NumericalError,
    SlotPlacement,
    min_static_rf,
    normalized_tx_power,
    optimal_altitude_ratio,
    optimal_normalized_power,
    optimal_radius,
    static_rf,
    static_rf_at_optimal_altitude,
    static_rf_terms,
    tx_power,
    tx_power_direct,
)


def grid_normalized_power(h1_values, env, radio, n_nodes=513):
    """Vectorized composite-Simpson evaluation of the normalized power.

    Independent of the adaptive route: fixed nodes, direct formula.
    """
    r = np.linspace(0.0, 1.0, n_nodes)
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (r[1] - r[0]) / 3.0
    h1 = np.asarray(h1_values, dtype=float)[:, None]
    theta = np.degrees(np.arctan2(h1, r[None, :]))
    p0 = 1.0 / (1.0 + env.a * np.exp(-env.b * (theta - env.a)))
    excess = env.eta_nlos + p0 * (env.eta_los - env.eta_nlos)
    integrand = 2.0 * math.pi * r[None, :] * (r[None, :] ** 2 + h1**2) * excess
    integral = integrand @ w
    return radio.noise_density * radio.bandwidth_hz * radio.snr_gap * radio.fspl_factor * integral


def test_normalized_power_closed_form_equal_excess(radio):
    # with flat excess the radial integral is elementary
    env = Environment(a=9.61, b=0.16, eta_los=3.0, eta_nlos=3.0)
    for h1 in (0.0, 0.3, 1.0, 2.5):
        expected = (
            radio.noise_density
            * radio.bandwidth_hz
            * radio.snr_gap
            * radio.fspl_factor
            * 3.0
            * 2.0
            * math.pi
            * (0.25 + h1 * h1 / 2.0)
        )
        assert normalized_tx_power(h1, env, radio) == pytest.approx(expected, rel=1e-8)


def test_normalized_power_asymptotic_los(urban, radio):
    # far overhead every link is line-of-sight and geometry dominates
    h1 = 1e3
    asymptote = (
        radio.noise_density
        * radio.bandwidth_hz
        * radio.snr_gap
        * radio.fspl_factor
        * urban.eta_los
        * math.pi
        * h1
        * h1
    )
    assert normalized_tx_power(h1, urban, radio) == pytest.approx(asymptote, rel=1e-2)


def test_normalized_power_unimodal(urban, radio):
    values = [normalized_tx_power(h1, urban, radio) for h1 in np.arange(0.0, 5.01, 0.1)]
    drops = np.sign(np.diff(values))
    assert list(np.unique(drops)) in ([-1.0, 1.0], [1.0])  # falls then rises
    switches = np.nonzero(np.diff(drops) != 0)[0]
    assert len(switches) == 1


def test_normalized_power_matches_grid_oracle(urban, radio):
    h1s = [0.2, 0.9, 1.7]
    oracle = grid_normalized_power(h1s, urban, radio, n_nodes=2049)
    for h1, ref in zip(h1s, oracle):
        assert normalized_tx_power(h1, urban, radio) == pytest.approx(ref, rel=1e-7)


def test_altitude_ratio_matches_grid_minimum(urban, dense_urban, suburban, radio):
    for env in (urban, dense_urban, suburban):
        h_grid = np.arange(0.05, 2.0, 2e-4)
        values = grid_normalized_power(h_grid, env, radio)
        h_star_grid = h_grid[np.argmin(values)]
        h_star = optimal_altitude_ratio(env)
        assert abs(h_star - h_star_grid) < 4e-4


def test_altitude_ratio_ordering(urban, dense_urban, suburban):
    assert (
        optimal_altitude_ratio(dense_urban)
        > optimal_altitude_ratio(urban)
        > optimal_altitude_ratio(suburban)
    )


def test_altitude_bracket_failure(radio, monkeypatch):
    # flat excess kills the descending branch: no interior optimum
    env = Environment(a=1.0, b=1.0, eta_los=1.0, eta_nlos=1.0)
    monkeypatch.setattr(pl, "_BRACKET_CAP", 1e4)
    with pytest.raises(NumericalError, match="below altitude ratio 10000"):
        optimal_altitude_ratio(env)


def test_altitude_unconverged_search_raises(urban, monkeypatch):
    # two bisection steps cannot reach |derivative| < 1e-300; the search
    # must fail loudly (a NumericalError, so the CLI exits with code 3)
    monkeypatch.setattr(pl, "_MAX_ITERATIONS", 2)
    monkeypatch.setattr(pl, "_SLOPE_TOL", 1e-300)
    with pytest.raises(NumericalError, match="did not converge in 2 iterations"):
        pl._optimum.__wrapped__(urban)  # past the memo, which may hold urban


@pytest.mark.parametrize(
    "patches, call",
    [
        ({}, lambda: pl.adaptive_simpson(
            lambda x: 1.0 / math.sqrt(abs(x - 0.3) + 1e-14), 0.0, 1.0, rel_tol=1e-13, max_depth=6
        )),
        ({"_BRACKET_CAP": 1e4}, lambda: pl._optimum.__wrapped__(
            Environment(a=1.0, b=1.0, eta_los=1.0, eta_nlos=1.0)
        )),
        ({"_MAX_ITERATIONS": 2, "_SLOPE_TOL": 1e-300},
         lambda: pl._optimum.__wrapped__(URBAN)),
    ],
    ids=["simpson-cap", "no-bracket", "bisection-iterations"],
)
def test_numerical_failures_are_one_arithmetic_error(patches, call, monkeypatch):
    # every kind raises the one class, and the CLI's `except ArithmeticError`
    # maps it to exit code 3
    for name, value in patches.items():
        monkeypatch.setattr(pl, name, value)
    with pytest.raises(NumericalError) as info:
        call()
    assert type(info.value) is NumericalError
    assert isinstance(info.value, ArithmeticError)


def test_optimal_altitude_scales_with_radius(urban, radio):
    # the minimizer of the full transmit power at fixed R is R * h1*
    h1_star = optimal_altitude_ratio(urban)
    lam = 0.1
    for radius in (100.0, 500.0, 1000.0):
        hs = np.linspace(max(0.0, (h1_star - 0.2) * radius), (h1_star + 0.2) * radius, 81)
        powers = [tx_power(radius, lam, h, urban, radio) for h in hs]
        h_best = hs[int(np.argmin(powers))]
        assert abs(h_best - radius * h1_star) <= (hs[1] - hs[0]) + 1e-9


def test_tx_power_zero_density(urban, radio):
    assert tx_power(100.0, 0.0, 50.0, urban, radio) == 0.0


def test_tx_power_fourth_power_scaling(urban, radio):
    base = tx_power(120.0, 0.3, 90.0, urban, radio)
    assert tx_power(240.0, 0.3, 180.0, urban, radio) == pytest.approx(16.0 * base, rel=1e-9)


def test_tx_power_scaled_vs_direct(urban, radio):
    rng = np.random.default_rng(11)
    for _ in range(10):
        radius = rng.uniform(20.0, 800.0)
        lam = rng.uniform(1e-3, 2.0)
        h = rng.uniform(0.0, 1.5) * radius
        scaled = tx_power(radius, lam, h, urban, radio)
        direct = tx_power_direct(radius, lam, h, urban, radio)
        assert scaled == pytest.approx(direct, rel=1e-7)


def test_optimal_radius_power_scaling(urban, radio):
    lam = 0.1
    r1 = optimal_radius(lam, 0.5, urban, radio)
    r2 = optimal_radius(lam, 5.0, urban, radio)
    r3 = optimal_radius(lam, 50.0, urban, radio)
    assert r2 / r1 == pytest.approx(10.0**0.25, rel=1e-12)
    assert r3 / r2 == pytest.approx(10.0**0.25, rel=1e-12)


def test_optimal_radius_density_scaling(urban, radio):
    p_cu = 0.5
    r1 = optimal_radius(0.1, p_cu, urban, radio)
    r2 = optimal_radius(1.0, p_cu, urban, radio)
    r3 = optimal_radius(5.0, p_cu, urban, radio)
    assert r1 / r2 == pytest.approx(10.0**0.25, rel=1e-12)
    assert r2 / r3 == pytest.approx(5.0**0.25, rel=1e-12)


@pytest.mark.parametrize("shape", [(64,), (2, 2016)])
def test_optimal_radius_array_has_the_float_bits(urban, radio, shape):
    # 64 entries and more run numpy's SIMD power loop, whose last bit can
    # differ from libm's pow, the route of a float
    lams = np.random.default_rng(7).lognormal(-3.0, 2.0, size=shape)
    radii = optimal_radius(lams, 0.5, urban, radio)
    assert radii.shape == shape
    expected = [optimal_radius(lam, 0.5, urban, radio).hex() for lam in lams.ravel().tolist()]
    assert [radius.hex() for radius in radii.ravel().tolist()] == expected


def test_optimal_radius_degenerate_inputs(urban, radio):
    with pytest.raises(ValueError, match="circuit power"):
        optimal_radius(0.1, 0.0, urban, radio)
    with pytest.raises(ValueError):
        optimal_radius(0.0, 0.5, urban, radio)


def test_optimal_radius_rejects_an_overflowing_product(urban):
    # lam * (2^(C/W) - 1) * P1(h1*) overflows: the radius would be 0
    wide = RadioConfig(rate_bps=1e7)
    with pytest.raises(NumericalError, match=r"density lam=1\.0: .* = inf"):
        optimal_radius(1.0, 1.0, urban, wide)
    # an array raises the same, before numpy can warn (warnings are errors here)
    with pytest.raises(NumericalError, match=r"density lam=1\.0 at index \[1\]"):
        optimal_radius(np.array([1e-300, 1.0]), 1.0, urban, wide)


def test_optimal_radius_rejects_an_underflowing_product(urban, radio):
    # the product underflows to 0: the radius would divide by zero
    with pytest.raises(NumericalError, match=r"density lam=1e-320: .* = 0\.0"):
        optimal_radius(1e-320, 1.0, urban, radio)
    with pytest.raises(NumericalError, match=r"density lam=1e-320 at index \[0, 1\]"):
        optimal_radius(np.array([[0.1, 1e-320]]), 1.0, urban, radio)


def test_min_static_rf_zero_circuit_power_names_it(urban, radio):
    energy = EnergyParams(p_circuit=0.0, battery_j=1e6 / math.pi)
    with pytest.raises(ValueError, match="circuit power"):
        min_static_rf(0.1, energy, 1e6, urban, radio)


def test_transmit_equals_circuit_at_optimum(urban, dense_urban, suburban, radio):
    h1 = {e.name: optimal_altitude_ratio(e) for e in (urban, dense_urban, suburban)}
    for env in (urban, dense_urban, suburban):
        for lam in (0.05, 0.5, 2.0):
            for p_cu in (0.2, 5.0):
                r_star = optimal_radius(lam, p_cu, env, radio)
                p_tx = tx_power(r_star, lam, r_star * h1[env.name], env, radio)
                assert abs(p_tx - p_cu) / p_cu < 1e-3


def test_static_rf_closed_form_at_optimum(urban, radio, energy_unit_area):
    area = 1e6
    lam = 0.1
    phi, placement = min_static_rf(lam, energy_unit_area, area, urban, radio)
    # assembled from parts
    assembled = static_rf(
        placement.radius, lam, placement.altitude, energy_unit_area, area, urban, radio
    )
    assert phi == pytest.approx(assembled, rel=1e-6)
    # explicit closed form
    p1 = optimal_normalized_power(urban, radio)
    expected = (2.0 * area / (math.pi * energy_unit_area.battery_j)) * math.sqrt(
        lam * radio.snr_gap * energy_unit_area.p_circuit * p1
    )
    assert phi == pytest.approx(expected, rel=1e-12)


def test_static_rf_minimum_is_interior(urban, radio, energy_unit_area):
    area = 1e6
    lam = 0.1
    phi, placement = min_static_rf(lam, energy_unit_area, area, urban, radio)
    h1 = optimal_altitude_ratio(urban)
    for factor in (0.5, 2.0):
        radius = factor * placement.radius
        phi_off = static_rf(radius, lam, radius * h1, energy_unit_area, area, urban, radio)
        assert phi_off > phi


def test_min_static_rf_against_joint_grid_search(urban, radio, energy_unit_area):
    # brute-force minimization over (radius, altitude), no optimality theory
    area = 1e6
    lam = 0.1
    phi, placement = min_static_rf(lam, energy_unit_area, area, urban, radio)
    radii = np.linspace(placement.radius * 0.7, placement.radius * 1.4, 36)
    h1s = np.linspace(0.4, 1.4, 36)
    best = math.inf
    best_rh = None
    for radius in radii:
        for h1 in h1s:
            val = static_rf(radius, lam, radius * h1, energy_unit_area, area, urban, radio)
            if val < best:
                best, best_rh = val, (radius, h1)
    assert best >= phi * (1 - 1e-4)
    assert best == pytest.approx(phi, rel=2e-3)
    assert best_rh[0] == pytest.approx(placement.radius, rel=0.03)


def test_static_rf_fast_path_matches_general(urban, radio, energy_unit_area):
    h1 = optimal_altitude_ratio(urban)
    for radius, lam in [(50.0, 0.3), (300.0, 0.02)]:
        fast = static_rf_at_optimal_altitude(
            radius, lam, energy_unit_area, 1e6, urban, radio
        )
        general = static_rf(radius, lam, radius * h1, energy_unit_area, 1e6, urban, radio)
        assert fast == pytest.approx(general, rel=1e-6)


def test_static_rf_terms_float_has_the_array_bits(urban, radio):
    # a float's R**2 went through libm's pow, which differs from numpy's
    # R * R in the last bit on a few radii in 10^4: C2 and C1 from a float
    # (fig5, `uavrf static-rf`) then differed from the plan's arrays
    energy = EnergyParams(p_circuit=5.16, battery_j=1e5)
    radii = np.random.default_rng(0).lognormal(3.0, 1.0, 10**4)
    for radius in radii.tolist():
        scalar = static_rf_terms(radius, energy, 1e6, urban, radio)
        array = static_rf_terms(np.array([radius]), energy, 1e6, urban, radio)
        assert [t.hex() for t in scalar] == [t[0].hex() for t in array], radius


def test_energy_params_validation():
    with pytest.raises(ValueError):
        EnergyParams(p_circuit=0.5, battery_j=0.0)
    with pytest.raises(ValueError):
        EnergyParams(p_circuit=-0.5, battery_j=1.0)
    with pytest.raises(ValueError):
        EnergyParams(p_circuit=0.5, battery_j=1.0, v_ascend=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(EnergyParams)])
def test_energy_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        EnergyParams(**{"p_circuit": 0.5, "battery_j": 1.0, field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
def test_check_circuit_power_needs_finite_positive(value, urban, radio):
    with pytest.raises(ValueError, match="p_circuit must be finite and positive"):
        optimal_radius(0.1, value, urban, radio)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_placement_needs_finite_positive_density(lam, urban, radio, energy_unit_area):
    with pytest.raises(ValueError, match="density lam must be finite and positive"):
        optimal_radius(lam, 0.5, urban, radio)
    with pytest.raises(ValueError, match="density lam must be finite and positive"):
        min_static_rf(lam, energy_unit_area, 1e6, urban, radio)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -0.1])
def test_power_and_rf_need_finite_nonnegative_density(lam, urban, radio, energy_unit_area):
    match = "density lam must be finite and nonnegative"
    with pytest.raises(ValueError, match=match):
        pl.tx_power(100.0, lam, 50.0, urban, radio)
    with pytest.raises(ValueError, match=match):
        pl.static_rf(100.0, lam, 50.0, energy_unit_area, 1e6, urban, radio)
    with pytest.raises(ValueError, match=match):
        pl.static_rf_at_optimal_altitude(100.0, lam, energy_unit_area, 1e6, urban, radio)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("named, index", [("density lam", 1), ("altitude h", 2)])
@pytest.mark.parametrize("power", [tx_power, tx_power_direct])
def test_tx_power_names_bad_density_and_altitude(power, named, index, value, urban, radio):
    # unchecked, a bad density gives nan or a negative power and a nan
    # altitude fails deep in the channel on "r^2 + h^2"
    args = [100.0, 0.3, 50.0]
    args[index] = value
    with pytest.raises(ValueError, match=f"^{named} must be finite and nonnegative, got"):
        power(*args, urban, radio)


def test_slot_placement_validation():
    with pytest.raises(ValueError):
        SlotPlacement(radius=0.0, altitude=1.0, tx_power=1.0, static_rf=1.0)


def test_min_static_rf_square_root_scalings(urban, radio, energy_unit_area):
    area = 1e6
    phi_base, _ = min_static_rf(0.2, energy_unit_area, area, urban, radio)
    phi_lam, _ = min_static_rf(0.8, energy_unit_area, area, urban, radio)
    assert phi_lam == pytest.approx(2.0 * phi_base, rel=1e-12)  # sqrt(lambda)
    doubled = EnergyParams(p_circuit=1.0, battery_j=energy_unit_area.battery_j)
    phi_pcu, _ = min_static_rf(0.2, doubled, area, urban, radio)
    assert phi_pcu == pytest.approx(math.sqrt(2.0) * phi_base, rel=1e-12)  # sqrt(P_cu)


def test_golden_section_argmin_matches_closed_form(urban, radio, energy_unit_area):
    from scipy.optimize import minimize_scalar

    area = 1e6
    lam = 0.3
    r_star = optimal_radius(lam, 0.5, urban, radio)
    result = minimize_scalar(
        lambda r: static_rf_at_optimal_altitude(
            r, lam, energy_unit_area, area, urban, radio
        ),
        bounds=(r_star / 10.0, r_star * 10.0),
        method="bounded",
        options={"xatol": r_star * 1e-6},
    )
    assert abs(result.x - r_star) / r_star < 1e-3


# --- fused P1 rule and slope integrand ----------------------------------------


def _composed_p1(h1, env):
    """The P1 integrand built from the channel functions."""

    def f(r):
        if r == 0.0 and h1 == 0.0:
            return 0.0
        p = los_probability(r, h1, env)
        return 2.0 * math.pi * r * (r * r + h1 * h1) * (env.eta_nlos + p * (env.eta_los - env.eta_nlos))

    return f


def _composed_slope(h1, env):
    """The dP1/dh1 integrand built from the channel functions."""
    delta = env.eta_los - env.eta_nlos

    def f(r):
        if r == 0.0 and h1 == 0.0:
            return 0.0
        p = los_probability(r, h1, env)
        term_fspl = 2.0 * h1 * (env.eta_nlos + p * delta)
        term_excess = (r * r + h1 * h1) * delta * los_probability_altitude_slope(r, h1, env)
        return 2.0 * math.pi * r * (term_fspl + term_excess)

    return f


def _outcome(f, r):
    # at r = 0 with h1 below ~1.5e-154, h1^2 underflows and the slope's
    # 1/(r^2 + h1^2) is undefined: the channel route raises ValueError,
    # the fused one ZeroDivisionError
    try:
        return f(r).hex()
    except (ValueError, ZeroDivisionError):
        return "undefined"


def _box(field):
    values = [getattr(e, field) for e in (URBAN, DENSE_URBAN, SUBURBAN)]
    return st.floats(min(values), max(values))


@settings(max_examples=400, deadline=None)
@given(
    a=_box("a"),
    b=_box("b"),
    eta_los=_box("eta_los"),
    eta_nlos=_box("eta_nlos"),
    r=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    h1=st.one_of(st.just(0.0), st.floats(0.0, 6.0)),
)
def test_fused_integrands_equal_channel_composition(a, b, eta_los, eta_nlos, r, h1):
    env = Environment(a=a, b=b, eta_los=eta_los, eta_nlos=eta_nlos)
    assert _outcome(pl._p1_slope_integrand(h1, env), r) == _outcome(_composed_slope(h1, env), r)


def _reference_p1(h1, env, radio):
    """P1 by the reference rule over the channel composition."""
    integral = _recursive_simpson(_composed_p1(h1, env), 0.0, 1.0, rel_tol=1e-8)
    return pl._radio_scale(radio) * integral


def _fused_from_top(h1, env, depth):
    """The fused P1 panel over [0, 1] (midpoint 0.5, quarter width 0.25,
    sixth width 0.5 / 6.0), started ``depth`` halvings from its cap."""
    f = _composed_p1(h1, env)
    fa, fm, fb = f(0.0), f(0.5), f(1.0)
    whole = 1.0 / 6.0 * (fa + 4.0 * fm + fb)
    constants = (h1, h1 * h1, env.a, -env.b, env.eta_nlos, env.eta_los - env.eta_nlos)
    return pl._p1_panel(0.5, 0.25, 0.5 / 6.0, fa, fm, fb, whole, depth, *constants)


def _settled(call):
    # a value's bits, or the message of the NumericalError it raised
    try:
        return call().hex()
    except NumericalError as exc:
        return f"NumericalError: {exc}"


@settings(max_examples=200, deadline=None)
@given(
    a=_box("a"),
    b=_box("b"),
    eta_los=_box("eta_los"),
    eta_nlos=_box("eta_nlos"),
    # at the ends of the float range: h1^2 underflows to 0 or subnormals,
    # or the integrand nears the float maximum; from 1e155 on h1^2 is inf,
    # the integrand at r = 0 is NaN and every panel splits to the cap
    h1=st.one_of(
        st.just(0.0),
        st.floats(0.0, 6.0),
        st.sampled_from([5e-324, 1e-300, 1e-160, 1e150, 1e153, 1e155, 1e300]),
    ),
    depth=st.integers(0, 4),
)
def test_fused_p1_rule_equals_reference_rule(a, b, eta_los, eta_nlos, h1, depth, radio):
    env = Environment(a=a, b=b, eta_los=eta_los, eta_nlos=eta_nlos)
    # the same value, or the same subdivision-cap message
    reference = _settled(lambda: _reference_p1(h1, env, radio))
    assert _settled(lambda: normalized_tx_power(h1, env, radio)) == reference
    # from a shallow start the panel must stop where the reference stops,
    # with its value or its subdivision-cap message
    f = _composed_p1(h1, env)
    reference = _settled(lambda: _recursive_simpson(f, 0.0, 1.0, rel_tol=1e-8, max_depth=depth))
    assert _settled(lambda: _fused_from_top(h1, env, depth)) == reference


def test_fused_p1_panel_raises_at_its_depth_cap():
    with pytest.raises(NumericalError, match=r"hit the subdivision cap on \[0, 1\]"):
        _fused_from_top(0.5, URBAN, 0)


def test_p1_curve_matches_recursive_composition(monkeypatch, radio):
    # h1* and the 301-point curve of `uavrf altitude` for each preset, by
    # the fused rules and again by the reference rule over the channel
    # composition: equal bit for bit
    def curve(p1):
        values = []
        for env in (URBAN, DENSE_URBAN, SUBURBAN):
            values.append(pl._optimum.__wrapped__(env)[0])
            values += [p1(h, env, radio) for h in np.linspace(0.0, 3.0, 301)]
        return [float(v).hex() for v in values]

    fast = curve(normalized_tx_power)
    # the h1* search reaches the slope through these two module attributes
    monkeypatch.setattr(pl, "adaptive_simpson", _recursive_simpson)
    monkeypatch.setattr(pl, "_p1_slope_integrand", _composed_slope)
    assert len(fast) == 906
    assert curve(_reference_p1) == fast


@settings(max_examples=60, deadline=None)
@given(
    a=_box("a"),
    b=_box("b"),
    eta_los=_box("eta_los"),
    eta_nlos=_box("eta_nlos"),
    carrier_hz=st.floats(1e8, 1e10),
    bandwidth_hz=st.floats(1e3, 1e5),
    noise_density=st.floats(1e-18, 1e-12),
    rate_bps=st.floats(1e3, 1e5),
)
def test_memoized_optimum_power_is_the_direct_quadrature(
    a, b, eta_los, eta_nlos, carrier_hz, bandwidth_hz, noise_density, rate_bps
):
    # the memo keeps one integral per environment; any radio's P1(h1*)
    # must still be the bits of a fresh quadrature at h1*
    env = Environment(a=a, b=b, eta_los=eta_los, eta_nlos=eta_nlos)
    radio = RadioConfig(
        carrier_hz=carrier_hz,
        bandwidth_hz=bandwidth_hz,
        noise_density=noise_density,
        rate_bps=rate_bps,
    )
    want = normalized_tx_power(optimal_altitude_ratio(env), env, radio)
    assert optimal_normalized_power(env, radio).hex() == want.hex()


def test_optimum_memo_stays_bounded_and_resolves_the_same_bits():
    bound = pl._optimum.cache_info().maxsize
    envs = [
        dataclasses.replace(URBAN, a=URBAN.a + 0.01 * i, name=f"sweep{i}")
        for i in range(bound + 8)
    ]
    first = [pl._optimum(env) for env in envs]
    info = pl._optimum.cache_info()
    assert info.currsize == bound
    # the eight oldest were evicted: each is solved again, to the same bits
    again = [pl._optimum(env) for env in envs[:8]]
    assert pl._optimum.cache_info().misses == info.misses + 8
    assert pl._optimum.cache_info().currsize == bound
    assert [(h.hex(), g.hex()) for h, g in again] == [(h.hex(), g.hex()) for h, g in first[:8]]
