"""Chebyshev polynomials of the first kind: values and derivatives.

Everything runs through the three-term recurrence, which is plain polynomial
arithmetic and therefore valid for arguments inside and outside [-1, 1]
(and for complex arguments, which the stability scans rely on).  Derivatives
come from the differentiated recurrences, so each call is O(s) and stays
stable for degrees up to about 10^3, where the monomial expansion would have
long since become useless.

One loop serves every order.  Each derivative order k is a row, carried as
an array of the shape of ``x`` (a numpy scalar for a 0-d ``x``), and ``2 x``
is formed once.  Per degree, row 0 costs one product and one in-place
subtraction; a row k >= 1 adds one more product and one in-place addition,
in the operand order of the recurrence below.  The rows are stacked once, at
the end.  Order 0, the values alone, is what every ``char_polys(mu)``
evaluation asks for, over arrays of up to 10^5 points and degrees up to
10^3.
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
