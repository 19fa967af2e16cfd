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

The one memo, :func:`_optimum`, keeps h1* and its disk integral for the
last ``_OPTIMUM_MEMO`` environments (its ``cache_info()`` misses count
the h1* solves); P1(h1*) for any radio is that integral times the
radio's scale.  Everything downstream is closed-form, cheap, and
broadcasts over arrays of densities and areas.  P1 or its slope at any
other ratio is a fresh radial quadrature by the recursive adaptive
Simpson rule (Lyness, J. ACM 1969): P1 by :func:`_p1_panel`, the rule
fused with its integrand (no closure, no integrand call) and given each
panel of [0, 1] as its midpoint, quarter width and sixth width, exact on
that interval's dyadic grid; the slope of the h1* search by
:func:`adaptive_simpson` over a fused integrand.  Both give the bits of
the plain rule over the channel composition.  Every failure to converge,
and a radius out of the float range, raises :class:`NumericalError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from math import atan2, exp
from typing import Callable

import numpy as np

from .channel import Environment, RadioConfig, check_positive, per_user_tx_power
from .channel import los_probability  # noqa: F401  module attribute that perfbench/layers.py counts


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
        # powers may be zero; the battery and the speeds divide
        for f in fields(self):
            check_positive(f.name, getattr(self, f.name), zero_ok=f.name.startswith("p_"))


@dataclass(frozen=True)
class SlotPlacement:
    """Optimal per-subregion placement for one time slot (or per entry of arrays)."""

    radius: float      # coverage radius R* [m]
    altitude: float    # hovering altitude h* [m]
    tx_power: float    # per-UAV transmit power at the optimum [W]
    static_rf: float   # minimal static recall frequency [1/s]

    def __post_init__(self):
        for f in fields(self):
            check_positive(f.name, getattr(self, f.name), zero_ok=f.name != "radius")


class NumericalError(ArithmeticError):
    """A quadrature or the h1* search did not converge."""


def _subdivision_cap(a: float, b: float, both: float, delta: float) -> NumericalError:
    """The error of a Simpson panel on [a, b] that may not halve again."""
    return NumericalError(
        f"adaptive Simpson hit the subdivision cap on [{a:g}, {b:g}]; "
        f"estimate {both + delta / 15.0!r}, error estimate {abs(delta) / 15.0!r}"
    )


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-8,
    abs_tol: float = 0.0,
    max_depth: int = 48,
) -> float:
    """Integrate ``f`` over [a, b] to a relative tolerance.

    The interval is halved wherever the two-panel Simpson estimate
    disagrees with the one-panel estimate by more than the (scaled)
    local tolerance; accepted panels take the standard delta/15
    Richardson correction.  The relative tolerance applies per panel
    against its own scale; the absolute tolerance halves with each
    split.  Raises :class:`NumericalError` if any panel reaches
    ``max_depth`` halvings, and ``ValueError`` unless the bounds are
    finite with a <= b.
    """
    # one chained test: a NaN fails every comparison
    if not -math.inf < a <= b < math.inf:
        raise ValueError(f"integration bounds must be finite and satisfy a <= b, got a={a!r}, b={b!r}")
    if b == a:
        return 0.0

    def panel(a, fa, m, fm, b, fb, whole, abs_tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = f(lm)
        frm = f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        both = left + right
        delta = both - whole
        # max(abs_tol, rel_tol * |both|) without the call
        tol = abs_tol
        scaled = rel_tol * abs(both)
        if scaled > tol:
            tol = scaled
        if abs(delta) <= 15.0 * tol:
            return both + delta / 15.0
        if depth <= 0:
            raise _subdivision_cap(a, b, both, delta)
        half_tol = abs_tol / 2.0
        return panel(a, fa, lm, flm, m, fm, left, half_tol, depth - 1) + panel(
            m, fm, rm, frm, b, fb, right, half_tol, depth - 1
        )

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    return panel(a, fa, m, fm, b, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), abs_tol, max_depth)


_RAD_TO_DEG = 180.0 / math.pi  # math.degrees(x) is x * _RAD_TO_DEG, bit for bit

# the h1* search and the radial integrals
_SLOPE_TOL = 1e-3       # stop once |_geometry_slope| falls below this
_BRACKET_SCALE = 10.0   # expansion factor for the upper bracket
_BRACKET_CAP = 1e6      # give up if no sign change below this ratio
_MAX_ITERATIONS = 200
_QUAD_TOL = 1e-8        # relative tolerance of the radial integrals
_MAX_DEPTH = 48         # halvings a P1 panel may take (adaptive_simpson's default)
_TWO_PI = 2.0 * math.pi


def _p1_slope_integrand(h1: float, env: Environment) -> Callable[[float], float]:
    """r -> d/dh1 of the P1 integrand 2*pi*r * (r^2 + h1^2) * excess(r, h1):

    2*pi*r * (2*h1*excess + (r^2 + h1^2) * (eta_los - eta_nlos) * dP0/dh),
    with dP0/dh as in :func:`channel.los_probability_altitude_slope`.
    The LOS sigmoid is computed inline, with the channel's operations in
    the channel's order, so each value equals the channel composition
    bit for bit at one frame per call.
    """
    h1 = float(h1)
    a, neg_b, b_deg = env.a, -env.b, 180.0 * env.b
    eta_nlos, delta = env.eta_nlos, env.eta_los - env.eta_nlos
    two_h1, h1_sq, pi = 2.0 * h1, h1 * h1, math.pi

    def f(r: float) -> float:
        if r == 0.0 and h1 == 0.0:
            return 0.0
        d2 = r * r + h1_sq
        p = 1.0 / (1.0 + a * exp(neg_b * (atan2(h1, r) * _RAD_TO_DEG - a)))
        slope = b_deg * r * p * (1.0 - p) / (pi * d2)
        return _TWO_PI * r * (two_h1 * (eta_nlos + p * delta) + d2 * delta * slope)

    return f


def _geometry_integral(h1: float, env: Environment) -> float:
    """Dimensionless disk integral of the average loss at ratio h1.

    int_0^1 2*pi*r * (r^2 + h1^2) * excess(r, h1) dr; multiplying by the
    FSPL factor and N0*W gives the normalized transmit power.  The rule
    is :func:`adaptive_simpson`'s at relative tolerance ``_QUAD_TOL``,
    fused with the integrand into :func:`_p1_panel`.
    """
    h1 = float(h1)  # exact; a NumPy scalar h1 would make every operation a NumPy one
    h1_sq, los_a, neg_b = h1 * h1, env.a, -env.b
    eta_nlos, gap = env.eta_nlos, env.eta_los - env.eta_nlos
    ends = []
    for r in (0.0, 0.5, 1.0):
        if r == 0.0 and h1 == 0.0:
            ends.append(0.0)  # the elevation angle is undefined; the integrand tends to 0
            continue
        p = 1.0 / (1.0 + los_a * exp(neg_b * (atan2(h1, r) * _RAD_TO_DEG - los_a)))
        ends.append(_TWO_PI * r * (r * r + h1_sq) * (eta_nlos + p * gap))
    fa, fm, fb = ends
    whole = 1.0 / 6.0 * (fa + 4.0 * fm + fb)
    # the panel [0, 1] as its midpoint, quarter width and sixth width
    return _p1_panel(0.5, 0.25, 0.5 / 6.0, fa, fm, fb, whole, _MAX_DEPTH,
                     h1, h1_sq, los_a, neg_b, eta_nlos, gap)


def _p1_panel(m, q, s, fa, fm, fb, whole, depth, h1, h1_sq, los_a, neg_b, eta_nlos, gap):
    """One panel of :func:`adaptive_simpson` at abs_tol 0, fused with the
    P1 integrand 2*pi*r * (r^2 + h1^2) * (eta_nlos + P0(r, h1) * gap),
    gap = eta_los - eta_nlos.  P0 at the two new points (never 0) is
    :func:`channel.los_probability`'s operations in its order, so a value
    is the rule's over the channel composition, bit for bit.

    The panel [a, b] = [m - 2q, m + 2q] comes as its midpoint m, its
    quarter width q and its sixth width s, the rule's fl((m - a) / 6.0).
    Within at most 48 halvings of [0, 1] every point is k / 2^d with
    d <= 50, exact in a double, so m - q and m + q are the rule's
    0.5 * (a + m) and 0.5 * (m + b), and b - m equals m - a.  Each half
    width m - a is a power of two, so fl((m - a) / 6.0) is that power
    times fl(1/6), and a child's s / 2 is its own fl((m - a) / 6.0):
    every point and weight has the rule's bits.  Started on an interval
    whose ends are not such dyadic rationals, these identities fail, and
    the panel would no longer be the rule's.
    """
    lm = m - q
    rm = m + q
    p = 1.0 / (1.0 + los_a * exp(neg_b * (atan2(h1, lm) * _RAD_TO_DEG - los_a)))
    flm = _TWO_PI * lm * (lm * lm + h1_sq) * (eta_nlos + p * gap)
    p = 1.0 / (1.0 + los_a * exp(neg_b * (atan2(h1, rm) * _RAD_TO_DEG - los_a)))
    frm = _TWO_PI * rm * (rm * rm + h1_sq) * (eta_nlos + p * gap)
    left = s * (fa + 4.0 * flm + fm)
    right = s * (fm + 4.0 * frm + fb)
    both = left + right
    delta = both - whole
    # the rule's |delta| <= 15 * (rel_tol * |both|) at abs_tol 0: the
    # integrand is nonnegative (eta_nlos >= eta_los > 0, 0 <= P0 <= 1), so
    # both is +-0, positive or NaN, and this test gives the same verdict
    tol = 15.0 * (_QUAD_TOL * both)
    if -tol <= delta <= tol:
        return both + delta / 15.0
    if depth <= 0:
        raise _subdivision_cap(m - 2.0 * q, m + 2.0 * q, both, delta)
    q, s, depth = 0.5 * q, 0.5 * s, depth - 1
    return (
        _p1_panel(lm, q, s, fa, flm, fm, left, depth, h1, h1_sq, los_a, neg_b, eta_nlos, gap)
        + _p1_panel(rm, q, s, fm, frm, fb, right, depth, h1, h1_sq, los_a, neg_b, eta_nlos, gap)
    )


def _geometry_slope(h1: float, env: Environment) -> float:
    """d/dh1 of :func:`_geometry_integral`, by analytic differentiation.

    Dimensionless on purpose: the search tolerance is compared against
    this O(1)-scaled quantity, not against Watt-scaled derivatives.
    """
    # The integrand crosses zero near the optimum; a pure relative
    # tolerance is meaningless there, so anchor an absolute floor to the
    # integral's natural scale.
    scale = 2.0 * math.pi * max(1.0, h1) * env.eta_nlos
    return adaptive_simpson(
        _p1_slope_integrand(h1, env), 0.0, 1.0, rel_tol=_QUAD_TOL, abs_tol=_QUAD_TOL * scale
    )


def _radio_scale(radio: RadioConfig) -> float:
    """N0 * W * Gamma * K [W]: the normalized power per unit disk integral."""
    return radio.noise_density * radio.bandwidth_hz * radio.snr_gap * radio.fspl_factor


def normalized_tx_power(h1: float, env: Environment, radio: RadioConfig) -> float:
    """Transmit power [W] of a unit-radius, unit-density cell at ratio h1."""
    check_positive("altitude ratio h1", h1, zero_ok=True)
    return _radio_scale(radio) * _geometry_integral(h1, env)


def tx_power(radius: float, lam: float, h: float, env: Environment, radio: RadioConfig) -> float:
    """Per-UAV transmit power [W] for radius, density and altitude.

    Uses the scale identity P_tx = lam * R^4 * (2^(C/W)-1) * P1(h/R).
    """
    check_positive("radius", radius)
    check_positive("density lam", lam, zero_ok=True)
    check_positive("altitude h", h, zero_ok=True)
    if lam == 0.0:
        return 0.0
    return lam * radius**4 * radio.snr_gap * normalized_tx_power(h / radius, env, radio)


def tx_power_direct(
    radius: float, lam: float, h: float, env: Environment, radio: RadioConfig
) -> float:
    """Per-UAV transmit power by direct disk quadrature (no rescaling).

    Slower than :func:`tx_power`; kept as the independent route for
    validating the scale identity.
    """
    check_positive("radius", radius)
    check_positive("density lam", lam, zero_ok=True)
    check_positive("altitude h", h, zero_ok=True)

    def f(r: float) -> float:
        if r == 0.0 and h == 0.0:
            return 0.0
        return 2.0 * math.pi * r * per_user_tx_power(r, h, env, radio)

    return lam * adaptive_simpson(f, 0.0, radius, rel_tol=_QUAD_TOL)


# environments whose optimum is kept: every preset and the 50 drawn
# environments of a single-slot study, with room to spare
_OPTIMUM_MEMO = 128


@lru_cache(maxsize=_OPTIMUM_MEMO)
def _optimum(env: Environment) -> tuple[float, float]:
    """(h1*, the disk integral at h1*) for one environment.

    Bracketed bisection on the analytic derivative; raises
    :class:`NumericalError` when no bracket exists below the cap or the
    iterations run out before the derivative falls below the stopping
    threshold.
    """
    slope = lambda h1: _geometry_slope(h1, env)
    h_min, h_max = 0.0, 1.0
    d_min = slope(h_min)
    while d_min * slope(h_max) >= 0.0:
        h_max *= _BRACKET_SCALE
        if h_max > _BRACKET_CAP:
            raise NumericalError(
                f"no derivative sign change found below altitude ratio {_BRACKET_CAP:g}"
            )
    h_star, d = h_min, d_min
    for _ in range(_MAX_ITERATIONS):
        h_star = 0.5 * (h_min + h_max)
        d = slope(h_star)
        if abs(d) < _SLOPE_TOL:
            return h_star, _geometry_integral(h_star, env)
        if d >= 0.0:
            h_max = h_star
        else:
            h_min = h_star
    raise NumericalError(
        f"altitude-ratio bisection did not converge in {_MAX_ITERATIONS} iterations "
        f"(last ratio {h_star:g}, derivative {d:g})"
    )


def optimal_altitude_ratio(env: Environment) -> float:
    """Altitude-to-radius ratio h1* minimizing the normalized power."""
    return _optimum(env)[0]


def optimal_normalized_power(env: Environment, radio: RadioConfig) -> float:
    """P1(h1*): :func:`normalized_tx_power` at h1*, bit for bit."""
    return _radio_scale(radio) * _optimum(env)[1]


def optimal_radius(
    lam: float,
    p_circuit: float,
    env: Environment,
    radio: RadioConfig,
) -> float:
    """Coverage radius R* [m] minimizing the static recall frequency.

    R* = (P_cu / (lam * (2^(C/W)-1) * P1(h1*)))^(1/4); grows with
    circuit power, shrinks with density.  Both must be finite and
    positive: at P_cu = 0 the radius and the fleet would degenerate.
    An array of densities gets, entry by entry, the bits of a float.
    Raises :class:`NumericalError` naming the density where
    lam * (2^(C/W)-1) * P1(h1*) underflows to 0 or overflows.
    """
    check_positive("density lam", lam)
    check_positive("circuit power p_circuit", p_circuit)
    p1 = optimal_normalized_power(env, radio)
    with np.errstate(over="ignore"):  # an overflow is reported below, not warned
        scale = lam * radio.snr_gap * p1
    # 0 or inf only at the edges of the float range: the radius would be inf or 0
    if not (np.min(scale, initial=math.inf) > 0.0 and np.max(scale, initial=0.0) < math.inf):
        where, value, product = "", lam, scale
        if isinstance(scale, np.ndarray):
            index = np.argwhere(~((scale > 0.0) & (scale < math.inf)))[0]
            where, value, product = f" at index {index.tolist()}", lam[tuple(index)], scale[tuple(index)]
        raise NumericalError(
            f"optimal radius out of float range at density lam={float(value)!r}{where}: "
            f"lam * (2^(C/W) - 1) * P1(h1*) = {float(product)!r}"
        )
    x = p_circuit / scale
    if isinstance(x, np.ndarray):
        # numpy's SIMD array power can differ from libm's pow in the last bit
        return np.array([v ** 0.25 for v in x.ravel().tolist()]).reshape(x.shape)
    return x ** 0.25


def static_rf(
    radius: float,
    lam: float,
    h: float,
    energy: EnergyParams,
    area: float,
    env: Environment,
    radio: RadioConfig,
) -> float:
    """Static recall frequency [1/s] of one subregion.

    Fleet size is the real-valued S / (pi R^2); each UAV drains at
    transmit plus circuit power against its battery.
    """
    check_positive("radius", radius)
    check_positive("area", area)
    n = area / (math.pi * radius * radius)
    return n * (tx_power(radius, lam, h, env, radio) + energy.p_circuit) / energy.battery_j


def static_rf_terms(
    radius: float, energy: EnergyParams, area: float, env: Environment, radio: RadioConfig
) -> tuple[float, float]:
    """The circuit and transmit terms S P_cu / (pi E_b R^2) and
    S (2^(C/W)-1) P1(h1*) R^2 / (pi E_b) of the static recall frequency
    with altitude R * h1*: at density lam it is circuit + transmit * lam."""
    check_positive("radius", radius)
    check_positive("area", area)
    p1 = optimal_normalized_power(env, radio)
    spe = area / (math.pi * energy.battery_j)  # S / (pi E_b)
    # R * R, not R**2: a float's ** is libm's pow, an array's ** 2 is R * R
    r2 = radius * radius
    return spe * energy.p_circuit / r2, spe * radio.snr_gap * p1 * r2


def static_rf_at_optimal_altitude(
    radius: float,
    lam: float,
    energy: EnergyParams,
    area: float,
    env: Environment,
    radio: RadioConfig,
) -> float:
    """Static recall frequency when altitude tracks radius * h1*.

    Closed form via the memoized P1(h1*); an array of radii gets the
    whole curve of fig5 and ``uavrf static-rf`` in one call.
    """
    check_positive("density lam", lam, zero_ok=True)
    circuit, transmit = static_rf_terms(radius, energy, area, env, radio)
    return circuit + transmit * lam


def min_static_rf(
    lam: float,
    energy: EnergyParams,
    area: float,
    env: Environment,
    radio: RadioConfig,
) -> tuple[float, SlotPlacement]:
    """Minimal static recall frequency and the placement achieving it.

    At the optimum the per-UAV transmit power equals the circuit power.
    """
    r_star = optimal_radius(lam, energy.p_circuit, env, radio)
    check_positive("area", area)
    h1 = optimal_altitude_ratio(env)
    p1 = optimal_normalized_power(env, radio)
    phi = (2.0 * area / (math.pi * energy.battery_j)) * np.sqrt(
        lam * radio.snr_gap * energy.p_circuit * p1
    )
    placement = SlotPlacement(
        radius=r_star,
        altitude=r_star * h1,
        tx_power=energy.p_circuit,
        static_rf=phi,
    )
    return phi, placement
