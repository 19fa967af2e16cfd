"""Time-varying ground-user density from sparse spectral coefficients.

Measured weekly traffic in a city block is well captured by a handful
of DFT coefficients (a DC term plus the 1-, 7- and 14-cycles-per-week
harmonics).  A pattern here stores only those coefficients; the mirror
coefficients are synthesized by conjugation, and a coefficient that is
its own mirror (the DC term, and the N/2 term for even N) must be real,
so the reconstruction is real by construction.  Traffic maps to user
density by dividing by the per-user rate and a reference cell area,
with floor quantization to the sampling period.

The raw reconstructions of the shipped presets oscillate around a small
DC value, so negative values are clamped to zero; scenario code that
needs a strictly positive density rescales the normalized shape into a
band instead of using raw levels.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

from .channel import RadioConfig, check_integer, check_positive

#: Relative imaginary part allowed in a coefficient that is its own
#: mirror (k = 0, and k = N/2 for even N); a DC written with phase pi
#: keeps about 1.2e-16.
REALNESS_TOL = 1e-9

#: Truncation floor for perturbed density draws [users/m^2].
DENSITY_FLOOR = 1e-12

#: Distance [m] a point may lie outside a rectangle and still count as inside.
CONTAINS_SLACK = 1e-9


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle: origin (x, y) plus width and height [m]."""

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x, self.y, self.width, self.height))):
            raise ValueError(f"rectangle must be finite, got {self!r}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("rectangle sides must be positive")

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Tuple[float, float]:
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    def contains(self, x: float, y: float) -> bool:
        return (
            self.x - CONTAINS_SLACK <= x <= self.x + self.width + CONTAINS_SLACK
            and self.y - CONTAINS_SLACK <= y <= self.y + self.height + CONTAINS_SLACK
        )

    def overlaps(self, other: "Rect") -> bool:
        return not (
            self.x + self.width <= other.x
            or other.x + other.width <= self.x
            or self.y + self.height <= other.y
            or other.y + other.height <= self.y
        )


def _coefficient_problem(k: int, x: complex, n_samples: int) -> str | None:
    """Why ``x`` cannot be stored at index ``k`` of an ``n_samples`` record."""
    half = n_samples // 2
    if not 0 <= k <= half:
        return (
            f"coefficient index {k} outside [0, {half}] for N {n_samples}; "
            "mirror indices are implied"
        )
    if (k == 0 or 2 * k == n_samples) and abs(x.imag) > REALNESS_TOL * abs(x):
        return f"coefficient {k} is its own mirror and must be real (phase 0 or pi), got {x!r}"
    return None


@dataclass(frozen=True)
class DensityPattern:
    """Sparse spectral description of one subregion's weekly traffic.

    ``coefficients`` maps frequency index k to a complex coefficient;
    only indices in [0, n_samples/2] are stored, the mirror index
    n_samples - k is implied by conjugation.
    """

    scale: float                       # reconstruction factor gamma_r
    coefficients: Mapping[int, complex]
    n_samples: int = 4032              # samples per period (4 weeks at 10 min)
    sample_period: float = 600.0       # seconds per sample

    def __post_init__(self):
        check_positive("n_samples", self.n_samples)
        if not math.isfinite(self.scale):
            raise ValueError(f"scale must be finite, got {self.scale!r}")
        check_positive("sample_period", self.sample_period)
        for k, x in self.coefficients.items():
            if not cmath.isfinite(x):
                raise ValueError(f"coefficient {k} must be finite, got {x!r}")
            problem = _coefficient_problem(k, x, self.n_samples)
            if problem:
                raise ValueError(problem)

    def week_samples(self) -> int:
        """Samples per week (one quarter of the default 4-week record)."""
        return int(round(7 * 24 * 3600 / self.sample_period))


@dataclass(frozen=True)
class Subregion:
    """A rectangular planning subregion with its own density pattern."""

    label: str
    rect: Rect
    pattern: DensityPattern

    @property
    def area(self) -> float:
        return self.rect.area


def constant_pattern(value: float, n_samples: int = 4032, sample_period: float = 600.0) -> DensityPattern:
    """Pattern whose reconstruction is the constant ``value``."""
    return DensityPattern(
        scale=1.0,
        coefficients={0: complex(value * n_samples, 0.0)},
        n_samples=n_samples,
        sample_period=sample_period,
    )


# Built-in preset: reconstruction coefficients fitted to measured cellular
# traffic in five functional zone types (entertainment, residential,
# transport, office, comprehensive).
_XU2016_ROWS = {
    # label: (gamma_r, [(k, magnitude, phase_rad), ...])
    "E": (8.35e11, ((0, 3.24e-4, 0.0), (4, 0.06, -0.3), (28, 0.5, 2.36), (56, 0.08, 0.69))),
    "R": (17.4e11, ((0, 2.73e-4, 0.0), (4, 0.04, -1.02), (28, 0.27, 1.72), (56, 0.17, 1.35))),
    "T": (4.32e11, ((0, 3.73e-4, 0.0), (4, 0.1, 1.04), (28, 0.38, 2.53), (56, 0.28, 2.46))),
    "O": (5.23e11, ((0, 4.63e-4, 0.0), (4, 0.21, 1.21), (28, 0.56, 2.52), (56, 0.2, 0.29))),
    "C": (17.4e11, ((0, 2.85e-4, 0.0), (4, 0.04, 0.35), (28, 0.3, 2.19), (56, 0.15, 1.11))),
}


def pattern_preset(label: str) -> DensityPattern:
    """Built-in pattern for one of the subregion classes E/R/T/O/C."""
    try:
        scale, rows = _XU2016_ROWS[label.upper()]
    except KeyError:
        raise ValueError(f"unknown subregion class {label!r}; expected one of E R T O C") from None
    coeffs = {k: mag * complex(math.cos(ph), math.sin(ph)) for k, mag, ph in rows}
    return DensityPattern(scale=scale, coefficients=coeffs)


def _raw_series(pattern: DensityPattern, n: np.ndarray) -> np.ndarray:
    """Complex reconstruction at sample indices ``n`` (mirrors included)."""
    N = pattern.n_samples
    n = np.asarray(n, dtype=float) % N
    total = np.zeros(n.shape, dtype=complex)
    for k, x in pattern.coefficients.items():
        total += x * np.exp(2j * np.pi * k * n / N)
        if k != 0 and 2 * k != N:
            total += np.conj(x) * np.exp(2j * np.pi * (N - k) * n / N)
    return pattern.scale / N * total


def reconstruct_series(pattern: DensityPattern, n: Iterable[int]) -> np.ndarray:
    """Reconstructed traffic amounts at sample indices ``n``.

    Indices wrap modulo the record length, giving the periodic
    extension.  Results are clamped at zero.
    """
    return np.maximum(_raw_series(pattern, np.asarray(list(n))).real, 0.0)


def user_density(sub: Subregion, t: float, radio: RadioConfig) -> float:
    """Average user density [users/m^2] in ``sub`` at time ``t`` [s].

    Piecewise constant: the traffic sample index is floor(t / mu).
    """
    check_positive("time t", t, zero_ok=True)
    n = int(math.floor(t / sub.pattern.sample_period))
    x = reconstruct_series(sub.pattern, [n])[0]
    return float(x) / (radio.rate_bps * radio.bs_coverage_area)


def normalized_shape(pattern: DensityPattern, n_points: int | None = None) -> np.ndarray:
    """Clamped reconstruction over one record, rescaled to [0, 1].

    A constant pattern maps to all ones.
    """
    if n_points is None:
        n_points = pattern.n_samples
    else:
        check_integer("n_points", n_points, 1, "positive")
    x = reconstruct_series(pattern, range(n_points))
    lo, hi = float(x.min()), float(x.max())
    if hi == lo:
        return np.ones_like(x)
    return (x - lo) / (hi - lo)


def perturbed_density(lam: float, bias: float, stddev: float, n: int, seed) -> np.ndarray:
    """``n`` noisy density predictions lam + bias + N(0, stddev^2), floored.

    The draws come from one stream, deterministic for a given ``seed``
    (an int or anything accepted by ``numpy.random.default_rng``).
    Means and variances converge to lam + bias and stddev^2 up to
    truncation at the floor.
    """
    check_positive("density lam", lam, zero_ok=True)
    if not math.isfinite(bias):
        raise ValueError(f"bias must be finite, got {bias!r}")
    check_positive("stddev", stddev, zero_ok=True)
    check_integer("n", n, 0, "nonnegative")
    rng = np.random.default_rng(seed)
    draws = lam + bias + stddev * rng.standard_normal(n)
    return np.maximum(DENSITY_FLOOR, draws)


def parse_pattern_file(text: str) -> DensityPattern:
    """Parse the pattern override format.

    Header lines ``gamma_r VALUE``, ``N VALUE``, ``mu_seconds VALUE``
    followed by one ``k magnitude phase_radians`` line per stored
    coefficient.  Blank lines and ``#`` comments are ignored.  An error
    names the line it comes from and the key or field.
    """
    gamma = None
    n_samples = 4032
    mu = 600.0
    coeffs: Dict[int, complex] = {}
    coeff_lines: Dict[int, int] = {}

    def finite(name: str, word: str) -> float:
        value = float(word)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {word!r}")
        return value

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "gamma_r":
                gamma = finite("gamma_r", parts[1])
            elif parts[0] == "N":
                n_samples = int(parts[1])
                check_positive("N", n_samples)
            elif parts[0] == "mu_seconds":
                mu = float(parts[1])
                check_positive("mu_seconds", mu)
            else:
                if len(parts) != 3:
                    raise ValueError("expected 'k magnitude phase_radians'")
                k = int(parts[0])
                mag, ph = finite("magnitude", parts[1]), finite("phase", parts[2])
                if k in coeffs:
                    raise ValueError(f"duplicate coefficient index {k}")
                coeffs[k] = mag * complex(math.cos(ph), math.sin(ph))
                coeff_lines[k] = lineno
        except (IndexError, ValueError) as exc:
            raise ValueError(f"pattern file line {lineno}: {exc}") from None
    if gamma is None:
        raise ValueError("pattern file missing required 'gamma_r' header")
    if not coeffs:
        raise ValueError("pattern file defines no coefficients")
    for k, lineno in coeff_lines.items():
        problem = _coefficient_problem(k, coeffs[k], n_samples)
        if problem:
            raise ValueError(f"pattern file line {lineno}: {problem}")
    return DensityPattern(scale=gamma, coefficients=coeffs, n_samples=n_samples, sample_period=mu)


def dump_pattern(pattern: DensityPattern) -> str:
    """Inverse of :func:`parse_pattern_file` (phases in (-pi, pi])."""
    lines = [
        f"gamma_r {pattern.scale!r}",
        f"N {pattern.n_samples}",
        f"mu_seconds {pattern.sample_period!r}",
    ]
    for k in sorted(pattern.coefficients):
        x = pattern.coefficients[k]
        lines.append(f"{k} {abs(x)!r} {math.atan2(x.imag, x.real)!r}")
    return "\n".join(lines) + "\n"
