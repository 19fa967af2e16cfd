"""Effect of density-prediction error on recall frequency, and sampling
budgets that keep it bounded.

Serving a subregion with the radius optimized for a predicted density
instead of the true one inflates the static recall frequency.  To
second order the expected inflation is the prediction's generalization
error (variance plus squared bias) times a sensitivity coefficient

    Lambda = (S / (4 pi E_b)) * sqrt(P_cu * (2^(C/W)-1) * P1(h1*) / lam^3)

so sparse subregions (small lam) are the fragile ones.  Combining this
with the standard finite-hypothesis deviation bound
sqrt((log d - log delta) / (2 N)) yields closed-form
per-subregion sampling numbers under a cap on the area-wide inflation.

Two closed forms are provided.  :func:`min_sampling_numbers` minimizes
the total sample count sum(N_b) under the cap, which makes the counts
proportional to Lambda^(2/3).  :func:`equal_share_sampling_numbers` is
the paper's allocation: each subregion receives an equal share of the
inflation budget left after training error, which makes the counts
proportional to Lambda^2.  The two coincide for a single subregion or
equal sensitivities; otherwise the equal share needs more samples in
total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence, Tuple

import numpy as np

from .channel import Environment, RadioConfig, check_positive
from .placement import EnergyParams, min_static_rf, optimal_normalized_power, static_rf


@dataclass(frozen=True)
class GeneralizationError:
    """Variance and bias of a density predictor; xi = var + bias^2."""

    variance: float  # [(users/m^2)^2]
    bias: float      # [users/m^2]

    def __post_init__(self):
        check_positive("variance", self.variance, zero_ok=True)
        if not math.isfinite(self.bias):
            raise ValueError(f"bias must be finite, got {self.bias!r}")

    @property
    def xi(self) -> float:
        return self.variance + self.bias * self.bias


@dataclass(frozen=True)
class LearningBudget:
    """Inputs of the sampling-number optimization."""

    hypothesis_volume: float    # d, size of the hypothesis space (> 1)
    confidence_delta: float     # delta in (0, 1)
    max_training_error: float   # xi_max [(users/m^2)^2]
    max_rf_increment: float     # area-wide inflation cap [1/s]

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.hypothesis_volume <= 1:
            raise ValueError("hypothesis volume must exceed 1")
        if not (0 < self.confidence_delta < 1):
            raise ValueError("confidence delta must lie in (0, 1)")
        check_positive("max_training_error", self.max_training_error, zero_ok=True)
        check_positive("max_rf_increment", self.max_rf_increment)


@dataclass(frozen=True)
class SamplingAllocation:
    """Result of :func:`min_sampling_numbers` or
    :func:`equal_share_sampling_numbers`."""

    counts: Tuple[float, ...]      # real-valued sampling numbers
    counts_int: Tuple[int, ...]    # deployable ceiled companions
    omega: float                   # multiplier of the binding constraint
    xi_bounds: Tuple[float, ...]   # per-subregion generalization-error caps


def subregion_eigenvalue(
    lam: float,
    p_circuit: float,
    env: Environment,
    radio: RadioConfig,
    area: float,
    battery_j: float,
) -> float:
    """Sensitivity of expected static RF inflation to generalization error.

    Scales as lam^(-3/2): sparse subregions amplify prediction error.
    """
    check_positive("density lam", lam)  # the sensitivity diverges at 0
    check_positive("circuit power p_circuit", p_circuit)
    check_positive("area", area)
    check_positive("battery_j", battery_j)
    p1 = optimal_normalized_power(env, radio)
    return (area / (4.0 * math.pi * battery_j)) * math.sqrt(
        p_circuit * radio.snr_gap * p1 / lam**3
    )


def rf_increment(eigenvalue: float, error) -> float:
    """Second-order expected static RF inflation: eigenvalue times xi.

    ``error`` is a :class:`GeneralizationError` or a plain xi value.
    """
    check_positive("eigenvalue", eigenvalue, zero_ok=True)
    xi = error.xi if isinstance(error, GeneralizationError) else float(error)
    check_positive("generalization error xi", xi, zero_ok=True)
    return eigenvalue * xi


def rf_increment_exact(
    lam_true: float,
    lam_hat: float,
    p_circuit: float,
    env: Environment,
    radio: RadioConfig,
    area: float,
    battery_j: float,
) -> float:
    """Exact static RF inflation from serving lam_true with the radius
    optimized for lam_hat (no Taylor truncation).

    Routes through the general static RF evaluation with the stale
    placement, the optimum for lam_hat.
    """
    energy = EnergyParams(p_circuit=p_circuit, battery_j=battery_j)
    _, stale = min_static_rf(lam_hat, energy, area, env, radio)
    phi_hat = static_rf(stale.radius, lam_true, stale.altitude, energy, area, env, radio)
    phi_opt, _ = min_static_rf(lam_true, energy, area, env, radio)
    return phi_hat - phi_opt


def rf_increment_exact_samples(
    lam_true: float,
    lam_hats: np.ndarray,
    p_circuit: float,
    env: Environment,
    radio: RadioConfig,
    area: float,
    battery_j: float,
) -> np.ndarray:
    """Vectorized :func:`rf_increment_exact` via the closed radius form.

    Algebraically identical to the scalar route (the stale-radius static
    RF reduces to K*(sqrt(lam_hat) + lam_true/sqrt(lam_hat)) with
    K = (S/(pi E_b)) * sqrt(P_cu (2^(C/W)-1) P1)); the scalar function
    stays the reference in tests.
    """
    check_positive("density lam", lam_true)
    check_positive("circuit power p_circuit", p_circuit)
    check_positive("area", area)
    check_positive("battery_j", battery_j)
    lam_hats = np.asarray(lam_hats, dtype=float)
    check_positive("predicted densities lam_hats", lam_hats)
    p1 = optimal_normalized_power(env, radio)
    k = (area / (math.pi * battery_j)) * math.sqrt(p_circuit * radio.snr_gap * p1)
    # k*(sqrt(h) + lam/sqrt(h)) - 2k*sqrt(lam) in one fresh array, bit for
    # bit: only the operands of + and * swap places, and IEEE + and * commute
    root = np.sqrt(lam_hats)
    out = lam_true / root
    out += root
    out *= k
    out -= 2.0 * k * math.sqrt(lam_true)
    return out


def vc_epsilon(d: float, n_samples: float, delta: float) -> float:
    """Deviation bound sqrt((log d + log(1/delta)) / (2 n))."""
    check_positive("sample count n_samples", n_samples)
    if not 1 < d < math.inf:
        raise ValueError(f"hypothesis volume must be finite and exceed 1, got {d!r}")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    return math.sqrt((math.log(d) + math.log(1.0 / delta)) / (2.0 * n_samples))


def _budget_slack(lams: Sequence[float], budget: LearningBudget) -> float:
    """Inflation budget left after training error; raises if none is left."""
    if not lams:
        raise ValueError("need at least one subregion eigenvalue")
    if not all(0 < x < math.inf for x in lams):
        raise ValueError(f"eigenvalues must be finite and positive, got {lams!r}")
    slack = budget.max_rf_increment - budget.max_training_error * sum(lams)
    if slack <= 0:
        raise ValueError(
            "infeasible budget: max_rf_increment must exceed "
            f"max_training_error * sum(eigenvalues) = {budget.max_training_error * sum(lams):g}"
        )
    return slack


def _allocation(counts, omega, xi_bounds) -> SamplingAllocation:
    return SamplingAllocation(
        counts=counts,
        counts_int=tuple(math.ceil(c) for c in counts),
        omega=omega,
        xi_bounds=xi_bounds,
    )


def min_sampling_numbers(
    eigenvalues: Sequence[float], budget: LearningBudget
) -> SamplingAllocation:
    """Minimal total sampling numbers under an inflation cap.

    Minimizes sum(N_b) subject to sum_b Lambda_b (xi_max + eps_b) <= cap
    with eps_b = sqrt(A / (2 N_b)), A = log d - log delta.  Writing
    s = sum(Lambda^(2/3)), subregion b gets deviation bound
    eps_b = (cap - xi_max * sum(Lambda)) / (s * Lambda_b^(1/3)), hence
    A / (2 eps_b^2) samples, proportional to Lambda_b^(2/3), and is
    guaranteed generalization error at most xi_max + eps_b.  The
    constraint binds, and omega = A * (s / (cap - xi_max * sum(Lambda)))^3
    is its Lagrange multiplier: stationarity reads
    omega * Lambda_b * eps_b = 2 N_b.
    """
    lams = [float(x) for x in eigenvalues]
    slack = _budget_slack(lams, budget)
    log_term = math.log(budget.hypothesis_volume) - math.log(budget.confidence_delta)
    s = sum(lam ** (2.0 / 3.0) for lam in lams)
    eps = [slack / (s * lam ** (1.0 / 3.0)) for lam in lams]
    return _allocation(
        counts=tuple(log_term / (2.0 * e * e) for e in eps),
        omega=log_term * (s / slack) ** 3,
        xi_bounds=tuple(budget.max_training_error + e for e in eps),
    )


def equal_share_sampling_numbers(
    eigenvalues: Sequence[float], budget: LearningBudget
) -> SamplingAllocation:
    """The paper's closed-form sampling numbers: an equal budget share each.

    With omega = 2 kappa / (cap - xi_max * sum(Lambda)), subregion b
    needs omega^2 * Lambda_b^2 * (log d - log delta) / 8 samples and is
    guaranteed generalization error at most xi_max + 2/(omega Lambda_b).
    The constraint binds exactly: summing Lambda_b times the error caps
    reproduces the inflation cap.  Stationarity reads
    omega * Lambda_b * sqrt(A / (2 N_b)) = 2.  For differing Lambda_b
    the total exceeds that of :func:`min_sampling_numbers`.
    """
    lams = [float(x) for x in eigenvalues]
    slack = _budget_slack(lams, budget)
    kappa = len(lams)
    omega = 2.0 * kappa / slack
    log_term = math.log(budget.hypothesis_volume) - math.log(budget.confidence_delta)
    return _allocation(
        counts=tuple(omega**2 * lam**2 * log_term / 8.0 for lam in lams),
        omega=omega,
        xi_bounds=tuple(budget.max_training_error + 2.0 / (omega * lam) for lam in lams),
    )
