"""Chebyshev polynomials of the first kind: values and derivatives.

``cheb_t_derivs`` runs through the three-term recurrence, which is plain
polynomial arithmetic and therefore valid for arguments inside and outside
[-1, 1] and for complex arguments, with no branch cut.  Derivatives come
from the differentiated recurrences, so each call is O(s) and stays stable
for degrees up to about 10^3, where the monomial expansion would have long
since become useless.

One loop serves every order.  Each derivative order k is a row, carried as
an array of the shape of ``x`` (a numpy scalar for a 0-d ``x``), and ``2 x``
is formed once.  Per degree, row 0 costs one product and one in-place
subtraction; a row k >= 1 adds one more product and one in-place addition,
in the operand order of the recurrence below.  The rows are stacked once, at
the end.  Order 0, the values alone, is what ``StabilityPair.char_polys``
asks for at complex (or longdouble) mu: the s = 50 domain's 400^2 points.

The damping solve asks for order 3 at a 0-d float64 x (``design._system``,
``error_constant``).  Such an x, up to order 3, runs the recurrence on four
Python floats (``_cheb_t_scalar``) in the same operand order, so bit for
bit, without a numpy call per operation.  Complex, array and higher-order
x keep the numpy loop: Python's complex arithmetic rounds differently.

On the real axis, ``_cheb_t_real`` evaluates T_s in closed form at O(1) per
point; ``StabilityPair.char_polys`` uses it for float64 mu, such as the
s = 1000 scan's 10^5 points.
"""
from __future__ import annotations

import numpy as np

__all__ = ["cheb_t_derivs"]


def cheb_t_derivs(s: int, x, order: int = 2) -> np.ndarray:
    """Derivatives 0..order of T_s at x, as an array of length order + 1.

    Differentiating T_j = 2 x T_{j-1} - T_{j-2} k times gives

        T_j^(k) = 2 k T_{j-1}^(k-1) + 2 x T_{j-1}^(k) - T_{j-2}^(k),

    and all orders are carried jointly through one pass over j.  ``x`` may be
    a scalar or an ndarray, real or complex; the result has shape
    ``(order + 1,) + shape(x)``.
    """
    if not isinstance(s, (int, np.integer)) or isinstance(s, bool):
        raise ValueError(f"degree must be an integer, got {s!r}")
    if s < 0:
        raise ValueError(f"degree must be >= 0, got {s}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    x = np.asarray(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("argument of T_s must be finite")
    if x.ndim == 0 and x.dtype == np.float64 and order <= 3:
        return _cheb_t_scalar(s, float(x))[:order + 1]
    dtype = np.result_type(x.dtype, np.float64)
    # [()] turns a 0-d array into a numpy scalar and leaves others as they are.
    zero = np.zeros(x.shape, dtype=dtype)[()]
    one = np.ones(x.shape, dtype=dtype)[()]
    prev = [one] + [zero] * order
    if s == 0:
        return np.stack(prev)
    curr = ([x.astype(dtype)[()], one] + [zero] * order)[:order + 1]
    two_x = 2.0 * x
    for _ in range(2, s + 1):
        nxt = []
        for k in range(order + 1):
            if k:
                t = 2.0 * k * curr[k - 1]
                t += two_x * curr[k]
            else:
                t = two_x * curr[0]
            t -= prev[k]
            nxt.append(t)
        prev, curr = curr, nxt
    return np.stack(curr)


def _cheb_t_scalar(s: int, x: float) -> np.ndarray:
    """Derivatives 0..3 of T_s at a real x: ``cheb_t_derivs``'s recurrence,
    unrolled over four Python floats in its operand order, so bit for bit."""
    p0, p1, p2, p3 = 1.0, 0.0, 0.0, 0.0
    if s == 0:
        return np.array([p0, p1, p2, p3])
    c0, c1, c2, c3 = x, 1.0, 0.0, 0.0
    two_x = 2.0 * x
    for _ in range(2, s + 1):
        p0, p1, p2, p3, c0, c1, c2, c3 = (
            c0, c1, c2, c3,
            two_x * c0 - p0,
            2.0 * c0 + two_x * c1 - p1,
            4.0 * c1 + two_x * c2 - p2,
            6.0 * c2 + two_x * c3 - p3,
        )
    return np.array([c0, c1, c2, c3])


def _cheb_t_real(s: int, x: np.ndarray) -> np.ndarray:
    """T_s at float64 ``x`` in closed form, O(1) per point.

    T_s(x) = cos(s arccos x) for |x| <= 1 and cosh(s arccosh x) for x > 1
    (Mason & Handscomb, *Chebyshev Polynomials*, 2003, ch. 1), evaluated at
    |x|; T_s(-x) = (-1)^s T_s(x) sets the sign, so the symmetry holds bit for
    bit.  Where T_s exceeds the float64 range the value is +-inf; the caller
    sets ``np.errstate`` for the overflow.  At s = 1000 the error is about
    10^-15 on [-1, 1], where the recurrence's grows to about s^2 eps, and the
    extrema come out as +-1.
    """
    if not np.all(np.isfinite(x)):
        raise ValueError("argument of T_s must be finite")
    ax = np.abs(x)
    t = np.where(ax <= 1.0, np.cos(s * np.arccos(np.minimum(ax, 1.0))),
                 np.cosh(s * np.arccosh(np.maximum(ax, 1.0))))
    return np.where(x < 0.0, -t, t) if s % 2 else t
