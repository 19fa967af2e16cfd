"""Air-to-ground channel model for low-altitude aerial base stations.

A link between a hovering aerial base station and a ground user is
either line-of-sight (LOS) or non-line-of-sight (NLOS).  Each branch
pays free-space path loss plus a fixed environment-dependent excess
factor; the LOS probability depends only on the elevation angle, so the
average path loss at horizontal distance ``r`` and altitude ``h`` is

    L(r, h) = (4*pi*f/c)^2 * (r^2 + h^2) * (eta_nlos + P0*(eta_los - eta_nlos))

with P0 the LOS probability.  Per-user transmit power follows from
inverting the Shannon rate at a fixed per-user data rate.

Everything here is a pure function of geometry and configuration; all
losses and powers are kept in linear units (dB only for display).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

LIGHT_SPEED = 3e8  # m/s

LOS = "los"
NLOS = "nlos"


def check_positive(name: str, value, zero_ok: bool = False) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is finite and
    positive (or zero, with ``zero_ok``).  NaN fails both comparisons.
    An ndarray is checked entry by entry (an empty one passes), and the
    error names the first failing entry and its index."""
    where = ""
    if isinstance(value, np.ndarray):
        # min and max are NaN if any entry is; the initial values pass an empty array
        low, high = value.min(initial=math.inf), value.max(initial=0.0)
        if (low >= 0 if zero_ok else low > 0) and high < math.inf:
            return
        index = np.argwhere(~((value >= 0 if zero_ok else value > 0) & (value < math.inf)))[0]
        where, value = f" at index {index.tolist()}", float(value[tuple(index)])
    if not ((value >= 0 if zero_ok else value > 0) and value < math.inf):
        bound = "nonnegative" if zero_ok else "positive"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}{where}")


def check_integer(name: str, value, minimum: int, bound: str | None = None) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a Python or
    numpy integer (a bool is not one) of at least ``minimum``.  ``bound``
    words that minimum in the message ("at least MINIMUM" by default)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be {bound or f'at least {minimum}'}, got {value!r}")


@dataclass(frozen=True)
class Environment:
    """Statistical propagation constants of a deployment environment.

    ``a`` and ``b`` shape the sigmoidal LOS-probability curve over the
    elevation angle (``b`` per degree); ``eta_los``/``eta_nlos`` are the
    linear excess path-loss factors on top of free space.
    """

    a: float
    b: float
    eta_los: float
    eta_nlos: float
    name: str = "custom"

    def __post_init__(self):
        for name in ("a", "b", "eta_los", "eta_nlos"):
            check_positive(name, getattr(self, name))
        if self.eta_nlos < self.eta_los:
            raise ValueError("excess losses must satisfy eta_nlos >= eta_los")


@dataclass(frozen=True)
class RadioConfig:
    """Link-budget constants shared by every UAV-user link."""

    carrier_hz: float = 2.4e9        # carrier frequency f [Hz]
    bandwidth_hz: float = 1e4        # per-user bandwidth W [Hz]
    noise_density: float = 5e-15     # noise PSD N0 [W/Hz]
    rate_bps: float = 1e4            # fixed per-user data rate C [bit/s]
    bs_coverage_area: float = 1e4    # reference BS coverage area [m^2]

    def __post_init__(self):
        for f in fields(self):
            check_positive(f.name, getattr(self, f.name))
        # 2^(C/W) - 1 overflows exactly from C/W = 1024 on
        if not self.rate_bps / self.bandwidth_hz < 1024.0:
            raise ValueError(
                "rate/bandwidth ratio must be finite and below 1024, where 2^(C/W) - 1 "
                f"overflows; got rate_bps={self.rate_bps!r}, bandwidth_hz={self.bandwidth_hz!r}"
            )

    @property
    def snr_gap(self) -> float:
        """Required linear SNR 2^(C/W) - 1 for the fixed rate."""
        return 2.0 ** (self.rate_bps / self.bandwidth_hz) - 1.0

    @property
    def fspl_factor(self) -> float:
        """(4*pi*f/c)^2, the distance-free part of free-space path loss."""
        return (4.0 * math.pi * self.carrier_hz / LIGHT_SPEED) ** 2


URBAN = Environment(a=9.61, b=0.16, eta_los=1.0, eta_nlos=20.0, name="urban")
DENSE_URBAN = Environment(a=12.08, b=0.11, eta_los=1.6, eta_nlos=23.0, name="dense-urban")
SUBURBAN = Environment(a=4.88, b=0.43, eta_los=0.1, eta_nlos=21.0, name="suburban")

ENVIRONMENT_PRESETS = {
    "urban": URBAN,
    "dense-urban": DENSE_URBAN,
    "dense_urban": DENSE_URBAN,
    "suburban": SUBURBAN,
}


def environment_preset(name: str) -> Environment:
    try:
        return ENVIRONMENT_PRESETS[name.strip().lower().replace(" ", "-")]
    except KeyError:
        raise ValueError(
            f"unknown environment {name!r}; expected one of urban, dense-urban, suburban"
        ) from None


def elevation_angle_deg(r: float, h: float) -> float:
    """Elevation angle in degrees; 90 when directly overhead (r = 0)."""
    check_positive("r", r, zero_ok=True)
    check_positive("h", h, zero_ok=True)
    if r == 0 and h == 0:
        raise ValueError("elevation angle undefined at r = h = 0")
    return math.degrees(math.atan2(h, r))


def los_probability(r: float, h: float, env: Environment) -> float:
    """Probability that the link at (r, h) is line-of-sight."""
    theta = elevation_angle_deg(r, h)
    return 1.0 / (1.0 + env.a * math.exp(-env.b * (theta - env.a)))


def los_probability_altitude_slope(r: float, h: float, env: Environment) -> float:
    """d P0 / d h at fixed horizontal distance.

    Follows from differentiating the sigmoid through the elevation
    angle.  The optimal-altitude search evaluates the same slope inside
    the fused integrand ``placement._p1_slope_integrand``; this function
    is the tests' reference for that integrand.
    """
    d2 = r * r + h * h
    check_positive("r^2 + h^2", d2)
    p = los_probability(r, h, env)
    return 180.0 * env.b * r * p * (1.0 - p) / (math.pi * d2)


def path_loss(link: str, r: float, h: float, env: Environment, radio: RadioConfig) -> float:
    """Linear path loss of a pure LOS or NLOS link at (r, h)."""
    d2 = r * r + h * h
    check_positive("r^2 + h^2", d2)
    if link == LOS:
        eta = env.eta_los
    elif link == NLOS:
        eta = env.eta_nlos
    else:
        raise ValueError(f"link must be {LOS!r} or {NLOS!r}, got {link!r}")
    return radio.fspl_factor * d2 * eta


def avg_path_loss(r: float, h: float, env: Environment, radio: RadioConfig) -> float:
    """LOS-probability-weighted average path loss at (r, h)."""
    d2 = r * r + h * h
    check_positive("r^2 + h^2", d2)
    p = los_probability(r, h, env)
    excess = env.eta_nlos + p * (env.eta_los - env.eta_nlos)
    return radio.fspl_factor * d2 * excess


def per_user_tx_power(r: float, h: float, env: Environment, radio: RadioConfig) -> float:
    """Average transmit power [W] needed to serve one user at (r, h).

    Shannon inversion at the fixed rate: L * N0 * W * (2^(C/W) - 1).
    """
    return (
        avg_path_loss(r, h, env, radio)
        * radio.noise_density
        * radio.bandwidth_hz
        * radio.snr_gap
    )


def to_db(linear: float) -> float:
    """Linear ratio to dB, for output formatting only."""
    check_positive("linear", linear)
    return 10.0 * math.log10(linear)
