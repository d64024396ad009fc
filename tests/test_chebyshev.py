"""Chebyshev evaluation: recurrence values, derivatives, cosh cross-checks."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tsrk.chebyshev import cheb_t_derivs


def cheb_t(s, x):
    """T_s, T'_s and T''_s at a scalar x, as floats."""
    return tuple(float(v) for v in cheb_t_derivs(s, x, order=2))


def cosh_form(s, x):
    """T_s(x) = cosh(s arccosh x) for x >= 1, the independent reference."""
    return math.cosh(s * math.acosh(x))


def t5_exact_rational(x: float) -> float:
    """Degree-5 monomial expansion 16x^5 - 20x^3 + 5x by exact Horner."""
    xf = Fraction(x)  # exact binary-float to rational
    acc = Fraction(0)
    for coeff in (16, 0, -20, 0, 5, 0):
        acc = acc * xf + coeff
    return float(acc)


def test_t2_at_2():
    assert cheb_t(2, 2.0)[0] == pytest.approx(7.0, abs=1e-14)


def test_value_and_slope_at_one():
    value, slope, _ = cheb_t(5, 1.0)
    assert value == pytest.approx(1.0, abs=1e-14)
    assert slope == pytest.approx(25.0, abs=1e-12)


def test_recurrence_matches_exact_horner_and_cosh():
    x = 1.0020498847775692
    val = cheb_t(5, x)[0]
    assert val == pytest.approx(t5_exact_rational(x), rel=1e-14)
    assert val == pytest.approx(cosh_form(5, x), rel=1e-12)


def test_bounded_inside_interval():
    x = np.linspace(-1.0, 1.0, 201)
    for s in (1, 3, 8, 21):
        vals = cheb_t_derivs(s, x, order=0)[0]
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12


def test_first_derivative_is_s_times_second_kind():
    # T'_s = s * U_{s-1}; U via its own recurrence as an independent route.
    x = np.linspace(-0.9, 1.3, 23)
    for s in (2, 5, 11):
        u_prev, u_curr = np.ones_like(x), 2.0 * x
        for _ in range(2, s):
            u_prev, u_curr = u_curr, 2.0 * x * u_curr - u_prev
        u = u_curr if s >= 2 else u_prev
        deriv = cheb_t_derivs(s, x, order=1)[1]
        assert np.allclose(deriv, s * u, rtol=1e-12, atol=1e-12)


def test_cosh_form_trivial_points():
    assert cosh_form(3, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert cosh_form(1, 2.5) == pytest.approx(2.5, rel=1e-15)
    assert cheb_t(3, 1.0)[0] == pytest.approx(1.0, abs=1e-14)
    assert cheb_t(1, 2.5)[0] == pytest.approx(2.5, rel=1e-15)


def test_cosh_form_matches_recurrence_single_point():
    assert cosh_form(5, 1.2) == pytest.approx(cheb_t(5, 1.2)[0], rel=1e-13)


def test_recurrence_vs_cosh_sweep():
    x = np.linspace(1.0, 1.5, 100)
    for s in range(1, 201):
        rec = cheb_t_derivs(s, x, order=0)[0]
        hyp = np.cosh(s * np.arccosh(x))
        assert np.max(np.abs(rec - hyp) / np.abs(hyp)) < 1e-11, f"s={s}"


def test_large_degree_against_cosh():
    # Contract point: s = 1000 close to 1, where the recurrence is hardest.
    x = 1.0 + 2.4e-7
    assert cheb_t(1000, x)[0] == pytest.approx(cosh_form(1000, x), rel=1e-12)


def test_derivative_against_central_differences():
    # Outside [-1, 1] the values grow like cosh(s * arccosh x), so a flat
    # absolute tolerance only makes sense while T stays small; past that the
    # difference quotient itself carries O(eps * |T| / h) noise and the
    # comparison switches to relative.
    h = 1e-6
    xs = np.linspace(0.5, 1.3, 9)
    for s in (3, 17, 50):
        for x in xs:
            fd = (cheb_t(s, x + h)[0] - cheb_t(s, x - h)[0]) / (2 * h)
            deriv = cheb_t(s, x)[1]
            assert (abs(deriv - fd) <= 1e-5
                    or abs(deriv - fd) <= 1e-6 * abs(fd)), (s, x)


def test_second_derivative_against_central_differences():
    h = 1e-5
    for s in (4, 12):
        for x in (0.6, 1.0, 1.2):
            fd = (cheb_t(s, x + h)[0] - 2 * cheb_t(s, x)[0]
                  + cheb_t(s, x - h)[0]) / h**2
            assert cheb_t(s, x)[2] == pytest.approx(fd, rel=1e-4)


def test_semigroup_property():
    x = np.linspace(-1.0, 1.0, 41)
    for m, n in ((2, 3), (3, 4), (5, 2)):
        inner = cheb_t_derivs(n, x, order=0)[0]
        lhs = cheb_t_derivs(m, inner, order=0)[0]
        rhs = cheb_t_derivs(m * n, x, order=0)[0]
        assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) < 1e-10


def test_domain_errors():
    with pytest.raises(ValueError):
        cheb_t(3, float("nan"))
    with pytest.raises(ValueError):
        cheb_t(3, float("inf"))
    with pytest.raises(ValueError):
        cheb_t(-1, 0.5)
    with pytest.raises(ValueError):
        cheb_t(2.5, 0.5)


# Values near [-1, 1], where the recurrence stays bounded, and values large
# enough that T_s overflows to inf, or to nan in complex arithmetic.
_REALS = st.one_of(st.floats(-1.5, 1.5), st.floats(-1e200, 1e200))


@st.composite
def _cheb_arguments(draw):
    kind = draw(st.sampled_from(["int", "float", "real", "complex"]))
    if kind == "int":
        return draw(st.integers(-10**6, 10**6))
    if kind == "float":
        return draw(_REALS)
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, max_side=4))
    if kind == "real":
        return draw(hnp.arrays(np.float64, shape, elements=_REALS))
    re = draw(hnp.arrays(np.float64, shape, elements=_REALS))
    im = draw(hnp.arrays(np.float64, shape, elements=_REALS))
    return re + 1j * im


@settings(max_examples=200, deadline=None)
@given(s=st.sampled_from([0, 1, 2, 3, 50, 1000]), x=_cheb_arguments())
def test_values_alone_are_row_zero_of_the_joint_recurrence(s, x):
    """The order-0 loop must give row 0 of the order >= 1 loop, bit for bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = cheb_t_derivs(s, x, order=0)
        joint = cheb_t_derivs(s, x, order=1)[:1]
    assert values.dtype == joint.dtype
    assert values.shape == joint.shape == (1,) + np.shape(x)
    assert values.tobytes() == joint.tobytes()
