import cmath
import math

import numpy as np
import pytest

from uavrf.patterns import (
    DensityPattern,
    Rect,
    Subregion,
    constant_pattern,
    dump_pattern,
    normalized_shape,
    parse_pattern_file,
    pattern_preset,
    perturbed_density,
    reconstruct_series,
    user_density,
)

# raw (pre-clamp) reconstruction of the E preset, frozen from a 40-digit
# direct summation over the stored coefficients and their mirrors
E_RAW_N0 = -97629727.368147692
E_RAW_N82 = 219508027.77472156


def brute_force_reconstruction(pattern: DensityPattern, n: int) -> complex:
    """Independent direct summation including mirror indices."""
    total = 0j
    N = pattern.n_samples
    for k, x in pattern.coefficients.items():
        total += x * cmath.exp(2j * math.pi * k * n / N)
        if k != 0:
            total += x.conjugate() * cmath.exp(2j * math.pi * (N - k) * n / N)
    return pattern.scale / N * total


def traffic(pattern: DensityPattern, n: int) -> float:
    return float(reconstruct_series(pattern, [n])[0])


def test_dc_only_pattern_is_constant():
    pat = DensityPattern(scale=3.0, coefficients={0: complex(8.0, 0.0)}, n_samples=16)
    for n in range(16):
        assert traffic(pat, n) == pytest.approx(3.0 * 8.0 / 16.0, rel=1e-14)


def test_constant_pattern_helper():
    pat = constant_pattern(2.5)
    assert traffic(pat, 0) == pytest.approx(2.5, rel=1e-14)
    assert traffic(pat, 1234) == pytest.approx(2.5, rel=1e-14)


def test_preset_e_against_direct_summation():
    pat = pattern_preset("E")
    raw0 = brute_force_reconstruction(pat, 0)
    assert raw0.real == pytest.approx(E_RAW_N0, rel=1e-12)
    assert abs(raw0.imag) < 1e-9 * abs(raw0.real)
    # negative raw values clamp to zero
    assert traffic(pat, 0) == 0.0
    raw82 = brute_force_reconstruction(pat, 82)
    assert raw82.real == pytest.approx(E_RAW_N82, rel=1e-12)
    assert traffic(pat, 82) == pytest.approx(E_RAW_N82, rel=1e-12)


def test_series_matches_direct_summation():
    pat = pattern_preset("T")
    ns = [0, 5, 100, 4031, 4032, 9000]
    series = reconstruct_series(pat, ns)
    for n, v in zip(ns, series):
        expected = max(0.0, brute_force_reconstruction(pat, n % pat.n_samples).real)
        assert v == pytest.approx(expected, rel=1e-12, abs=1e-9)
    assert series.max() > 0.0 and series.min() == 0.0  # both branches of the clamp


def test_periodicity():
    pat = pattern_preset("R")
    for n in (0, 17, 1000, 4031):
        assert traffic(pat, n) == pytest.approx(
            traffic(pat, n + pat.n_samples), rel=1e-12, abs=1e-12
        )


def test_realness_residual_all_presets():
    for label in "ERTOC":
        pat = pattern_preset(label)
        raw = np.array(
            [brute_force_reconstruction(pat, n) for n in range(0, pat.n_samples, 7)]
        )
        scale = max(1.0, np.abs(raw.real).max())
        assert np.abs(raw.imag).max() / scale < 1e-9


def test_asymmetric_coefficients_rejected():
    # a coefficient at k and a conflicting explicit mirror cannot be stored
    with pytest.raises(ValueError):
        DensityPattern(scale=1.0, coefficients={4000: 1.0 + 0j}, n_samples=4032)


def test_mirror_synthesis_keeps_realness():
    # an arbitrary complex coefficient set stays real by construction
    pat = DensityPattern(scale=5.0, coefficients={0: 2 + 0j, 3: 1.5 * cmath.exp(0.7j)}, n_samples=64)
    x = reconstruct_series(pat, range(64))
    assert np.all(np.isfinite(x))


def test_user_density_composition(radio):
    pat = pattern_preset("E")
    sub = Subregion(label="E", rect=Rect(0, 0, 1000, 1000), pattern=pat)
    x82 = traffic(pat, 82)
    t = 82 * pat.sample_period + 0.3 * pat.sample_period
    assert user_density(sub, t, radio) == pytest.approx(
        x82 / (radio.rate_bps * radio.bs_coverage_area), rel=1e-12
    )


def test_user_density_floor_quantization(radio):
    pat = pattern_preset("E")
    sub = Subregion(label="E", rect=Rect(0, 0, 100, 100), pattern=pat)
    mu = pat.sample_period
    assert user_density(sub, 82 * mu, radio) == user_density(sub, 82 * mu + mu / 2, radio)
    with pytest.raises(ValueError):
        user_density(sub, -1.0, radio)


def test_user_density_constant_pattern(radio):
    sub = Subregion(label="X", rect=Rect(0, 0, 10, 10), pattern=constant_pattern(7.0))
    expected = 7.0 / (radio.rate_bps * radio.bs_coverage_area)
    for t in (0.0, 599.0, 600.0, 86400.0):
        assert user_density(sub, t, radio) == pytest.approx(expected, rel=1e-12)


def test_weekly_shape_has_seven_dominant_peaks():
    from scipy.signal import find_peaks

    pat = pattern_preset("E")
    shape = normalized_shape(pat, pat.week_samples())
    peaks, _ = find_peaks(shape, prominence=0.2)
    assert len(peaks) == 7


def test_perturbed_density_deterministic():
    a = perturbed_density(3.0, 0.1, 0.5, n=3, seed=42)
    b = perturbed_density(3.0, 0.1, 0.5, n=3, seed=42)
    assert a.tolist() == b.tolist()
    assert perturbed_density(3.0, 0.1, 0.5, n=3, seed=43)[0] != a[0]
    # a shorter draw is a prefix of the same stream
    assert perturbed_density(3.0, 0.1, 0.5, n=1, seed=42)[0] == a[0]


def test_perturbed_density_degenerate():
    assert perturbed_density(3.0, 0.0, 0.0, n=1, seed=0)[0] == 3.0
    assert perturbed_density(3.0, 0.2, 0.0, n=1, seed=0)[0] == pytest.approx(3.2, rel=1e-15)


def test_perturbed_density_moments():
    draws = perturbed_density(3.0, 0.0, 0.1, n=10**6, seed=2026)
    assert draws.mean() == pytest.approx(3.0, abs=5e-4)
    assert draws.var() == pytest.approx(0.01, rel=0.01)


def test_perturbed_density_floor():
    draws = perturbed_density(1e-13, 0.0, 0.0, n=4, seed=1)
    assert np.all(draws >= 1e-12)


def test_pattern_file_roundtrip():
    pat = pattern_preset("O")
    text = dump_pattern(pat)
    back = parse_pattern_file(text)
    assert back.scale == pat.scale
    assert back.n_samples == pat.n_samples
    assert back.sample_period == pat.sample_period
    for k, x in pat.coefficients.items():
        assert back.coefficients[k] == pytest.approx(x, rel=1e-15)


def test_pattern_file_errors():
    with pytest.raises(ValueError, match="line 2"):
        parse_pattern_file("gamma_r 1.0\n4 nope 0.3\n")
    with pytest.raises(ValueError, match="gamma_r"):
        parse_pattern_file("4 1.0 0.3\n")
    with pytest.raises(ValueError, match="no coefficients"):
        parse_pattern_file("gamma_r 1.0\n")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field, build",
    [
        ("scale", lambda v: DensityPattern(scale=v, coefficients={0: 1.0})),
        ("sample_period", lambda v: DensityPattern(scale=1.0, coefficients={0: 1.0},
                                                   sample_period=v)),
        ("coefficient 4", lambda v: DensityPattern(scale=1.0, coefficients={0: 1.0, 4: v})),
        ("coefficient 4", lambda v: DensityPattern(scale=1.0,
                                                   coefficients={4: complex(0.5, v)})),
    ],
    ids=["scale", "sample_period", "coefficient-real", "coefficient-imag"],
)
def test_pattern_rejects_non_finite(field, build, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        build(value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "template, line, field",
    [
        ("gamma_r {}\n4 0.5 0.3\n", 1, "gamma_r"),
        ("gamma_r 1.0\nmu_seconds {}\n4 0.5 0.3\n", 2, "mu_seconds"),
        ("gamma_r 1.0\n0 1.0 0.0\n4 {} 0.3\n", 3, "magnitude"),
        ("# comment\ngamma_r 1.0\n4 0.5 {}\n", 3, "phase"),
    ],
    ids=["gamma_r", "mu_seconds", "magnitude", "phase"],
)
def test_pattern_file_rejects_non_finite_naming_the_line(template, line, field, value):
    with pytest.raises(ValueError, match=f"line {line}: {field} must be finite"):
        parse_pattern_file(template.format(value))


def test_rect_validation():
    with pytest.raises(ValueError):
        Rect(0, 0, -5, 10)
    r = Rect(1, 2, 3, 4)
    assert r.area == 12
    assert r.center == (2.5, 4.0)
    assert r.contains(1.0, 2.0) and not r.contains(0.0, 0.0)
    assert r.overlaps(Rect(2, 3, 5, 5)) and not r.overlaps(Rect(4, 2, 1, 1))


def test_user_density_clamped_overnight(radio):
    # the raw preset reconstruction is negative at the record start and
    # clamps to zero density
    sub = Subregion(label="E", rect=Rect(0, 0, 100, 100), pattern=pattern_preset("E"))
    assert user_density(sub, 0.0, radio) == 0.0


@pytest.mark.parametrize(
    "text, named",
    [
        ("gamma_r 1.0\nN 0\n0 1.0 0.0\n", "line 2: N must be finite and positive, got 0"),
        ("gamma_r 1.0\nN -8\n0 1.0 0.0\n", "line 2: N must be finite and positive"),
        ("gamma_r 1.0\nmu_seconds 0\n0 1.0 0.0\n",
         "line 2: mu_seconds must be finite and positive, got 0.0"),
        ("gamma_r 1.0\nN 8\n0 1.0 0.0\n5 1 0\n",
         r"line 4: coefficient index 5 outside \[0, 4\] for N 8"),
        # the index is checked against the final N, wherever N comes
        ("gamma_r 1.0\n# header after the data\n6 1 0\n0 1.0 0.0\nN 8\n",
         r"line 3: coefficient index 6 outside \[0, 4\] for N 8"),
        ("gamma_r 1.0\n0 1.0 0.0\n-1 0.5 0.0\n", r"line 3: coefficient index -1 outside"),
        # the DC term and, for even N, the N/2 term have no conjugate
        # partner, so any phase but 0 or pi would make the series complex
        ("gamma_r 8.35e11\n0 3.24e-4 0.5\n28 0.5 2.36\n",
         "line 2: coefficient 0 is its own mirror and must be real"),
        ("gamma_r 1.0\nN 8\n0 1.0 0.0\n4 0.5 0.3\n",
         "line 4: coefficient 4 is its own mirror and must be real"),
    ],
    ids=["N-zero", "N-negative", "mu-zero", "index-above-half", "index-before-N", "index-negative",
         "dc-phase", "nyquist-phase"],
)
def test_pattern_file_range_errors_name_the_line_and_key(text, named):
    with pytest.raises(ValueError, match=f"^pattern file {named}"):
        parse_pattern_file(text)


def test_pattern_rejects_non_real_self_mirror():
    for k, n_samples in ((0, 8), (4, 8), (0, 9)):
        with pytest.raises(ValueError, match=f"^coefficient {k} is its own mirror"):
            DensityPattern(scale=1.0, coefficients={k: cmath.rect(1.0, 0.5)}, n_samples=n_samples)
    # for odd N the top stored index has a mirror, so it may be complex
    DensityPattern(scale=1.0, coefficients={4: cmath.rect(1.0, 0.5)}, n_samples=9)


def test_negative_real_self_mirror_round_trips():
    # dump_pattern writes a negative real coefficient with phase pi, whose
    # sine leaves an imaginary part of about 1.2e-16 relative
    pat = DensityPattern(scale=2.0, coefficients={0: -3.0 + 0j, 2: 1j, 4: -0.5 + 0j}, n_samples=8)
    back = parse_pattern_file(dump_pattern(pat))
    assert back.coefficients[0].imag != 0.0
    assert reconstruct_series(back, range(8)) == pytest.approx(
        reconstruct_series(pat, range(8)), rel=1e-14, abs=1e-14
    )


def test_constant_pattern_shape_is_all_ones():
    shape = normalized_shape(constant_pattern(2.5, n_samples=64))
    assert shape.tolist() == [1.0] * 64
