"""Chebyshev polynomials of the first kind: values and derivatives.

Everything runs through the three-term recurrence, which is plain polynomial
arithmetic and therefore valid for arguments inside and outside [-1, 1]
(and for complex arguments, which the stability scans rely on).  Derivatives
come from the differentiated recurrences, so each call is O(s) and stays
stable for degrees up to about 10^3, where the monomial expansion would have
long since become useless.
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
    s = int(s)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    x = np.asarray(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("argument of T_s must be finite")
    dtype = np.result_type(x.dtype, np.float64)
    shape = (order + 1,) + x.shape

    prev = np.zeros(shape, dtype=dtype)
    prev[0] = 1.0
    if s == 0:
        return prev
    curr = np.zeros(shape, dtype=dtype)
    curr[0] = x
    if order >= 1:
        curr[1] = 1.0
    for _ in range(2, s + 1):
        nxt = np.empty(shape, dtype=dtype)
        nxt[0] = 2.0 * x * curr[0] - prev[0]
        for k in range(1, order + 1):
            nxt[k] = 2.0 * k * curr[k - 1] + 2.0 * x * curr[k] - prev[k]
        prev, curr = curr, nxt
    return curr
