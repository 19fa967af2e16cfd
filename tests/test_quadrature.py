import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrf.placement import NumericalError, adaptive_simpson


def _simpson(fa, fm, fb, width):
    return width / 6.0 * (fa + 4.0 * fm + fb)


def _recursive_simpson(f, a, b, rel_tol=1e-8, abs_tol=0.0, max_depth=48):
    """The recursive adaptive Simpson rule that the stack-based rule replaces.

    Reference for bit-exactness: the same points, the same panel tests
    and the same summation tree must give the same bits.
    """
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if b == a:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(fa, fm, fb, b - a)
    return _recurse(f, a, fa, m, fm, b, fb, whole, rel_tol, abs_tol, max_depth)


def _recurse(f, a, fa, m, fm, b, fb, whole, rel_tol, abs_tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    tol = max(abs_tol, rel_tol * abs(left + right))
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise NumericalError(
            f"adaptive Simpson hit the subdivision cap on [{a:g}, {b:g}]; "
            f"estimate {left + right + delta / 15.0!r}, error estimate {abs(delta) / 15.0!r}"
        )
    return _recurse(f, a, fa, lm, flm, m, fm, left, rel_tol, abs_tol / 2.0, depth - 1) + _recurse(
        f, m, fm, rm, frm, b, fb, right, rel_tol, abs_tol / 2.0, depth - 1
    )


def test_cubic_is_exact():
    # Simpson integrates cubics exactly
    assert adaptive_simpson(lambda x: x**3 - 2 * x + 1, 0.0, 2.0) == pytest.approx(
        4.0 - 4.0 + 2.0, rel=1e-14
    )


def test_empty_interval():
    assert adaptive_simpson(math.sin, 1.0, 1.0) == 0.0


def test_reversed_bounds_rejected():
    with pytest.raises(ValueError):
        adaptive_simpson(math.sin, 1.0, 0.0)


def test_smooth_transcendental():
    # int_0^pi sin = 2
    value = adaptive_simpson(math.sin, 0.0, math.pi, rel_tol=1e-10)
    assert value == pytest.approx(2.0, rel=1e-10)


def test_exp_against_closed_form():
    value = adaptive_simpson(math.exp, -1.0, 3.0, rel_tol=1e-10)
    assert value == pytest.approx(math.exp(3.0) - math.exp(-1.0), rel=1e-10)


def test_sharp_peak_meets_tolerance():
    # narrow Lorentzian; reference from a dense trapezoid
    f = lambda x: 1.0 / (1e-4 + (x - 0.37) ** 2)
    xs = np.linspace(0.0, 1.0, 2_000_001)
    reference = np.trapezoid(f(xs), xs)
    value = adaptive_simpson(f, 0.0, 1.0, rel_tol=1e-9)
    assert value == pytest.approx(reference, rel=1e-7)


def test_depth_cap_raises_with_estimate():
    f = lambda x: 1.0 / math.sqrt(abs(x - 0.3) + 1e-14)
    with pytest.raises(NumericalError, match="subdivision cap") as err:
        adaptive_simpson(f, 0.0, 1.0, rel_tol=1e-13, max_depth=6)
    found = re.search(r"; estimate (\S+), error estimate (\S+)$", str(err.value))
    assert float(found[1]) > 0
    assert float(found[2]) > 0


def _integrand(family, c, w):
    if family == "poly":
        return lambda x: ((c * x - 1.5) * x + w) * x * x - 2.0 * x + 0.25
    if family == "exp":
        return lambda x: math.exp(c * x) - w
    if family == "sin":
        return lambda x: math.sin(c * x + w)
    if family == "lorentzian":
        return lambda x: 1.0 / (w * w + (x - c) ** 2)
    # NaN beyond c: every panel reaching it fails the tolerance test
    return lambda x: math.nan if x > c else w


def _recorded(f, points):
    def g(x):
        points.append(x)
        return f(x)

    return g


def _outcome(rule, f, a, b, rel_tol, abs_tol, max_depth):
    points = []
    try:
        value = rule(_recorded(f, points), a, b, rel_tol=rel_tol, abs_tol=abs_tol, max_depth=max_depth)
    except NumericalError as exc:
        # the message prints the estimate and the error with repr: every bit
        return ("cap", str(exc)), points
    return ("value", value.hex()), points


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(["poly", "exp", "sin", "lorentzian", "nan"]),
    c=st.floats(-4.0, 4.0),
    w=st.floats(1e-3, 2.0),
    a=st.floats(-3.0, 3.0),
    width=st.one_of(st.just(0.0), st.floats(1e-6, 5.0)),
    rel_tol=st.one_of(st.just(0.0), st.floats(1e-13, 1e-2)),
    abs_tol=st.one_of(st.just(0.0), st.floats(1e-14, 1e-2)),
    max_depth=st.integers(0, 24),
)
def test_stack_rule_matches_recursive_bits(family, c, w, a, width, rel_tol, abs_tol, max_depth):
    # same evaluation points in the same order, the same value bits, and at
    # the cap the same panel, estimate and error bits
    f = _integrand(family, c, w)
    b = a + width
    new, new_points = _outcome(adaptive_simpson, f, a, b, rel_tol, abs_tol, max_depth)
    old, old_points = _outcome(_recursive_simpson, f, a, b, rel_tol, abs_tol, max_depth)
    assert new == old
    assert [x.hex() for x in new_points] == [x.hex() for x in old_points]
