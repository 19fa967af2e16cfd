"""Single-slot optimal placement of aerial base stations.

For one subregion served by identical disks of radius R, the per-UAV
transmit power factors as

    P_tx(R, lam, h) = lam * R^4 * (2^(C/W) - 1) * P1(h / R)

where P1 is the transmit power of a normalized cell (unit radius, unit
density) and depends only on the altitude-to-radius ratio.  P1 has a
unique minimizer h1*, found here by bracketed bisection on its analytic
derivative.  Balancing per-UAV power against fleet size then gives a
closed-form optimal radius at which transmit power exactly equals the
on-board circuit power, and the minimal per-subregion recall frequency

    phi* = (2 S / (pi E_b)) * sqrt(lam * (2^(C/W) - 1) * P_cu * P1(h1*)).

The normalized-power quadratures run once per environment and are
cached; everything downstream is closed-form and cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .channel import (
    Environment,
    RadioConfig,
    los_probability,
    los_probability_altitude_slope,
    per_user_tx_power,
)
from .quadrature import adaptive_simpson


@dataclass(frozen=True)
class EnergyParams:
    """Per-UAV energy model: circuit drain, battery, and mobility."""

    p_circuit: float           # on-board circuit power P_cu [W]
    battery_j: float           # battery capacity E_b [J]
    p_horizontal: float = 0.0  # horizontal flight power [W]
    p_ascend: float = 0.0      # ascend power [W]
    p_descend: float = 0.0     # descend power [W]
    v_horizontal: float = 1.0  # [m/s]
    v_ascend: float = 1.0      # [m/s]
    v_descend: float = 1.0     # [m/s]

    def __post_init__(self):
        if self.battery_j <= 0:
            raise ValueError("battery capacity must be positive")
        for name in ("p_circuit", "p_horizontal", "p_ascend", "p_descend"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("v_horizontal", "v_ascend", "v_descend"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class AltitudeSearchParams:
    """Controls for the optimal altitude-ratio search."""

    tolerance: float = 1e-3        # |derivative| stopping threshold
    bracket_scale: float = 10.0    # expansion factor for the upper bracket
    quadrature_tol: float = 1e-8   # relative tolerance of radial integrals
    bracket_cap: float = 1e6       # give up if no sign change below this ratio
    max_iterations: int = 200

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.bracket_scale <= 1:
            raise ValueError("bracket_scale must exceed 1")
        if self.quadrature_tol <= 0:
            raise ValueError("quadrature_tol must be positive")


@dataclass(frozen=True)
class SlotPlacement:
    """Optimal per-subregion placement for one time slot."""

    radius: float      # coverage radius R* [m]
    altitude: float    # hovering altitude h* [m]
    tx_power: float    # per-UAV transmit power at the optimum [W]
    static_rf: float   # minimal static recall frequency [1/s]

    def __post_init__(self):
        if self.radius <= 0 or self.altitude < 0 or self.tx_power < 0:
            raise ValueError("invalid placement")


class BracketError(RuntimeError):
    """The altitude-derivative never changed sign below the cap."""

    def __init__(self, cap: float):
        super().__init__(f"no derivative sign change found below altitude ratio {cap:g}")
        self.cap = cap


class ConvergenceError(BracketError):
    """The bisection ran out of iterations before the derivative vanished."""

    def __init__(self, iterations: int, ratio: float, slope: float):
        RuntimeError.__init__(
            self,
            f"altitude-ratio bisection did not converge in {iterations} iterations "
            f"(last ratio {ratio:g}, derivative {slope:g})",
        )
        self.iterations = iterations


def _excess(r: float, h: float, env: Environment) -> float:
    """Average excess loss factor eta1 + P0*(eta0 - eta1)."""
    p = los_probability(r, h, env)
    return env.eta_nlos + p * (env.eta_los - env.eta_nlos)


def _geometry_integral(h1: float, env: Environment, quad_tol: float) -> float:
    """Dimensionless disk integral of the average loss at ratio h1.

    int_0^1 2*pi*r * (r^2 + h1^2) * excess(r, h1) dr; multiplying by the
    FSPL factor and N0*W gives the normalized transmit power.
    """

    def f(r: float) -> float:
        if r == 0.0 and h1 == 0.0:
            return 0.0
        return 2.0 * math.pi * r * (r * r + h1 * h1) * _excess(r, h1, env)

    return adaptive_simpson(f, 0.0, 1.0, rel_tol=quad_tol)


def _geometry_slope(h1: float, env: Environment, quad_tol: float) -> float:
    """d/dh1 of :func:`_geometry_integral`, by analytic differentiation.

    Dimensionless on purpose: the search tolerance is compared against
    this O(1)-scaled quantity, not against Watt-scaled derivatives.
    """
    delta = env.eta_los - env.eta_nlos

    def f(r: float) -> float:
        if r == 0.0 and h1 == 0.0:
            return 0.0
        term_fspl = 2.0 * h1 * _excess(r, h1, env)
        term_excess = (r * r + h1 * h1) * delta * los_probability_altitude_slope(r, h1, env)
        return 2.0 * math.pi * r * (term_fspl + term_excess)

    # The integrand crosses zero near the optimum; a pure relative
    # tolerance is meaningless there, so anchor an absolute floor to the
    # integral's natural scale.
    scale = 2.0 * math.pi * max(1.0, h1) * env.eta_nlos
    return adaptive_simpson(f, 0.0, 1.0, rel_tol=quad_tol, abs_tol=quad_tol * scale)


def normalized_tx_power(
    h1: float,
    env: Environment,
    radio: RadioConfig,
    quad_tol: float = 1e-8,
) -> float:
    """Transmit power [W] of a unit-radius, unit-density cell at ratio h1."""
    if h1 < 0:
        raise ValueError("altitude ratio must be nonnegative")
    return (
        radio.noise_density
        * radio.bandwidth_hz
        * radio.snr_gap
        * radio.fspl_factor
        * _geometry_integral(h1, env, quad_tol)
    )


def tx_power(
    radius: float,
    lam: float,
    h: float,
    env: Environment,
    radio: RadioConfig,
    quad_tol: float = 1e-8,
) -> float:
    """Per-UAV transmit power [W] for radius, density and altitude.

    Uses the scale identity P_tx = lam * R^4 * (2^(C/W)-1) * P1(h/R).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if lam < 0 or h < 0:
        raise ValueError("density and altitude must be nonnegative")
    if lam == 0.0:
        return 0.0
    return lam * radius**4 * radio.snr_gap * normalized_tx_power(h / radius, env, radio, quad_tol)


def tx_power_direct(
    radius: float,
    lam: float,
    h: float,
    env: Environment,
    radio: RadioConfig,
    quad_tol: float = 1e-8,
) -> float:
    """Per-UAV transmit power by direct disk quadrature (no rescaling).

    Slower than :func:`tx_power`; kept as the independent route for
    validating the scale identity.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")

    def f(r: float) -> float:
        if r == 0.0 and h == 0.0:
            return 0.0
        return 2.0 * math.pi * r * per_user_tx_power(r, h, env, radio)

    return lam * adaptive_simpson(f, 0.0, radius, rel_tol=quad_tol)


@lru_cache(maxsize=None)
def _altitude_ratio_cached(env: Environment, params: AltitudeSearchParams) -> float:
    slope = lambda h1: _geometry_slope(h1, env, params.quadrature_tol)
    h_min, h_max = 0.0, 1.0
    d_min = slope(h_min)
    while d_min * slope(h_max) >= 0.0:
        h_max *= params.bracket_scale
        if h_max > params.bracket_cap:
            raise BracketError(params.bracket_cap)
    h_star, d = h_min, d_min
    for _ in range(params.max_iterations):
        h_star = 0.5 * (h_min + h_max)
        d = slope(h_star)
        if abs(d) < params.tolerance:
            return h_star
        if d >= 0.0:
            h_max = h_star
        else:
            h_min = h_star
    raise ConvergenceError(params.max_iterations, h_star, d)


def optimal_altitude_ratio(env: Environment, params: AltitudeSearchParams | None = None) -> float:
    """Altitude-to-radius ratio h1* minimizing the normalized power.

    Bracketed bisection on the analytic derivative; depends only on the
    environment, so results are cached per (env, params).  Raises
    :class:`BracketError` when no bracket exists below the cap, and its
    subclass :class:`ConvergenceError` when ``max_iterations`` run out
    before the derivative falls below ``tolerance``.
    """
    return _altitude_ratio_cached(env, params or AltitudeSearchParams())


@lru_cache(maxsize=None)
def _optimal_normalized_power_cached(
    env: Environment, radio: RadioConfig, params: AltitudeSearchParams
) -> float:
    h1 = _altitude_ratio_cached(env, params)
    return normalized_tx_power(h1, env, radio, params.quadrature_tol)


def optimal_normalized_power(
    env: Environment, radio: RadioConfig, params: AltitudeSearchParams | None = None
) -> float:
    """P1(h1*), cached per environment and radio configuration."""
    return _optimal_normalized_power_cached(env, radio, params or AltitudeSearchParams())


def optimal_radius(
    lam: float,
    p_circuit: float,
    env: Environment,
    radio: RadioConfig,
    params: AltitudeSearchParams | None = None,
) -> float:
    """Coverage radius R* [m] minimizing the static recall frequency.

    R* = (P_cu / (lam * (2^(C/W)-1) * P1(h1*)))^(1/4); grows with
    circuit power, shrinks with density.  The degenerate limit
    P_cu = 0 returns 0 (users camp on zero-size cells).
    """
    if lam <= 0:
        raise ValueError("density must be positive (radius diverges at lam = 0)")
    if p_circuit < 0:
        raise ValueError("circuit power must be nonnegative")
    if p_circuit == 0.0:
        return 0.0
    p1 = optimal_normalized_power(env, radio, params)
    return (p_circuit / (lam * radio.snr_gap * p1)) ** 0.25


def static_rf(
    radius: float,
    lam: float,
    h: float,
    energy: EnergyParams,
    area: float,
    env: Environment,
    radio: RadioConfig,
    quad_tol: float = 1e-8,
) -> float:
    """Static recall frequency [1/s] of one subregion.

    Fleet size is the real-valued S / (pi R^2); each UAV drains at
    transmit plus circuit power against its battery.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if area <= 0:
        raise ValueError("area must be positive")
    n = area / (math.pi * radius * radius)
    return n * (tx_power(radius, lam, h, env, radio, quad_tol) + energy.p_circuit) / energy.battery_j


def static_rf_at_optimal_altitude(
    radius: float,
    lam: float,
    energy: EnergyParams,
    area: float,
    env: Environment,
    radio: RadioConfig,
    params: AltitudeSearchParams | None = None,
) -> float:
    """Static recall frequency when altitude tracks radius * h1*.

    Closed form via the cached P1(h1*); this is the hot path of the
    multi-slot scheduler (thousands of evaluations per run).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if lam < 0:
        raise ValueError("density must be nonnegative")
    p1 = optimal_normalized_power(env, radio, params)
    return (area / (math.pi * energy.battery_j)) * (
        energy.p_circuit / radius**2 + lam * radio.snr_gap * p1 * radius**2
    )


def check_circuit_power(p_circuit: float) -> None:
    """Raise unless the circuit power admits an optimal placement.

    At P_cu = 0 the optimal radius is 0 (see :func:`optimal_radius`):
    the fleet size and the static recall frequency degenerate.
    """
    if p_circuit <= 0:
        raise ValueError(
            f"circuit power p_circuit must be positive for an optimal placement, got {p_circuit!r} W"
        )


def min_static_rf(
    lam: float,
    energy: EnergyParams,
    area: float,
    env: Environment,
    radio: RadioConfig,
    params: AltitudeSearchParams | None = None,
) -> tuple[float, SlotPlacement]:
    """Minimal static recall frequency and the placement achieving it.

    At the optimum the per-UAV transmit power equals the circuit power.
    """
    if lam <= 0:
        raise ValueError("density must be positive")
    check_circuit_power(energy.p_circuit)
    h1 = optimal_altitude_ratio(env, params)
    p1 = optimal_normalized_power(env, radio, params)
    r_star = (energy.p_circuit / (lam * radio.snr_gap * p1)) ** 0.25
    phi = (2.0 * area / (math.pi * energy.battery_j)) * math.sqrt(
        lam * radio.snr_gap * energy.p_circuit * p1
    )
    placement = SlotPlacement(
        radius=r_star,
        altitude=r_star * h1,
        tx_power=energy.p_circuit,
        static_rf=phi,
    )
    return phi, placement
