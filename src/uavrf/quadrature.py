"""Adaptive composite Simpson quadrature on a finite interval.

All radial power integrals in this package share the same structure: a
smooth, bounded integrand on [0, 1] (or [0, R]).  A classic adaptive
Simpson rule with interval-halving and Richardson correction handles
these to tight relative tolerances in a few hundred evaluations, with a
hard subdivision cap so a pathological integrand fails loudly instead of
spinning.

The rule runs on an explicit stack instead of recursing.  Panels are
processed depth-first, left half before right half, so the integrand is
evaluated at the same points in the same order as the recursive rule.
A split panel leaves a ``None`` marker under its two halves; when the
marker comes off the stack, both halves are finished and their totals
are added, left plus right.  The sum therefore follows the recursion's
tree, one addition per split panel, and the result keeps every bit of
the recursive rule's result (``tests/test_quadrature.py`` keeps that
rule as the oracle).
"""

from __future__ import annotations

from typing import Callable


class QuadratureError(RuntimeError):
    """Raised when the subdivision cap is hit before the tolerance.

    Carries the best available estimate and the achieved error bound so
    callers can report how far the integration got.
    """

    def __init__(self, message: str, estimate: float, error: float):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


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
    split.  Raises :class:`QuadratureError` if any panel reaches
    ``max_depth`` halvings.
    """
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if b == a:
        return 0.0

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    # Each entry is a panel (a, f(a), midpoint, f(mid), b, f(b), its
    # one-panel estimate, absolute tolerance, halvings left) or None,
    # which adds the two totals on top of ``done``.
    stack = [(a, fa, m, fm, b, fb, whole, abs_tol, max_depth)]
    done = []
    pop, push, finish = stack.pop, stack.append, done.append
    while stack:
        panel = pop()
        if panel is None:
            right_total = done.pop()
            done[-1] += right_total
            continue
        a, fa, m, fm, b, fb, whole, abs_tol, depth = panel
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
            finish(both + delta / 15.0)
            continue
        if depth <= 0:
            raise QuadratureError(
                f"adaptive Simpson hit the subdivision cap on [{a:g}, {b:g}]; "
                f"achieved error estimate {abs(delta) / 15.0:g}",
                estimate=both + delta / 15.0,
                error=abs(delta) / 15.0,
            )
        half_tol = abs_tol / 2.0
        push(None)
        push((m, fm, rm, frm, b, fb, right, half_tol, depth - 1))
        push((a, fa, lm, flm, m, fm, left, half_tol, depth - 1))
    return done[0]
