"""Characteristic roots, real-axis stability scans and complex domain sampling.

The method applied to y' = lambda*y obeys y_{n+1} = R1(mu) y_n + R0(mu) y_{n-1}
with mu = h*lambda, so growth is governed by the roots of

    zeta^2 - R1(mu) zeta - R0(mu) = 0.

Any object with a ``char_polys(mu)`` method (a designed pair or a built
method) can be scanned.  On the real axis a designed pair evaluates T_s in
closed form, cos(s arccos x) or cosh(s arccosh x), at O(1) per point and to
about 10^-15.  Complex-plane work goes through the polynomial recurrences
only, so no arccos or arccosh branch cut is involved.  Where a pair's T_s
overflows, far outside the domain, a point's max_abs_root is inf on the real
axis (the larger root is infinite and the smaller inf/inf) and inf or nan
off it; it counts as outside either way.

``max_abs_root`` evaluates mu in blocks of ``_ROOT_BLOCK`` points, so that
the temporaries of the closed form, of the Chebyshev or stage recurrence and
of the root solve stay in cache, and memory beyond the result stays at one
block's worth whatever the number of points.  Each block writes into one
preallocated result; the values are bit for bit those of one whole-array
evaluation.  A scalar mu takes the same path as a 1-element array, in
``char_roots`` too, so a spot check and a scan agree on the same point bit
for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "INSIDE_TOL",
    "CharRoots",
    "ScanResult",
    "DomainSample",
    "char_roots",
    "max_abs_root",
    "real_axis_scan",
    "domain_sample",
    "write_scan_csv",
    "write_domain_csv",
]

# |zeta| <= 1 + INSIDE_TOL counts as stable: boundary points are inside.
INSIDE_TOL = 1e-9

# The CSV files are written as the csv module's default dialect writes them:
# fields are repr(float) or 0/1, which never need quoting, and rows end in
# "\r\n".  Scan rows go through tolist() and one joined string a chunk at a
# time.  Small chunks keep peak memory at the csv module's level: with blocked
# roots, writing both CSVs of a 10^5-point scan (s = 1000) and a 400^2 domain
# (s = 50) raised the process's peak RSS of 40.3 MB by 1.3 MB with 8192-row
# chunks (a 370 kB string each) and by 0.04-0.17 MB with 256-row chunks, at
# the same speed.  The scan write is bound by repr: map(repr) takes
# 0.05-0.06 s of a 10^5-float column, astype(str) 0.10 s, and the whole
# 10^5-row write 0.12-0.14 s (2-core Xeon, numpy 2.4).
_EOL = "\r\n"
_CSV_CHUNK = 256

# max_abs_root's block, in points.  On a 2-core Xeon with 2 MB of L2 per
# core (numpy 2.4, one thread; median of 7), the s = 50 domain of 400^2
# points took 0.033 s at 2^14 against 0.061-0.066 s whole, 0.032 s at 2^13
# and 0.044 s at 2^15.  The s = 1000 scan of 10^5 points, in closed form,
# took 0.016 s at 2^14 against 0.021-0.022 s whole and 0.011 s at 2^13; by
# the recurrence it took 0.11 s.  Memory beyond the result stays near 2 MB.
_ROOT_BLOCK = 2**14


@dataclass(frozen=True)
class CharRoots:
    """Both characteristic roots at a point mu, larger magnitude first."""

    zeta1: complex
    zeta2: complex
    mu: complex


_SPLIT = 134217729.0  # 2^27 + 1, Dekker splitting constant


def _two_prod(a, b):
    """a * b = p + e exactly (Dekker/Veltkamp split)."""
    p = a * b
    c = _SPLIT * a
    ahi = c - (c - a)
    alo = a - ahi
    c = _SPLIT * b
    bhi = c - (c - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


def _two_sum(a, b):
    s = a + b
    t = s - a
    e = (a - (s - t)) + (b - t)
    return s, e


def _compensated_discriminant(r1, r0):
    """r1^2 + 4 r0 without the cancellation of the plain difference.

    Where the roots nearly collide the naive evaluation loses half the
    digits; the compensated products remove the arithmetic error, leaving
    only the inherent rounding of (r1, r0) themselves (which is what limits
    repeated-root resolution to ~sqrt(eps), see real_axis_scan).
    """
    p, ep = _two_prod(r1, r1)
    s, es = _two_sum(p, 4.0 * r0)
    return s + (es + ep)


def _roots(r1, r0):
    """Vectorized stable quadratic solve of zeta^2 - r1 zeta - r0 = 0.

    For real coefficient pairs: a compensated discriminant decides between
    the real-pair and conjugate-pair branches; the larger-magnitude real
    root takes the non-cancelling sign and the partner comes from the root
    product zeta1 * zeta2 = -r0.  Where r1^2 overflows (|T_s| > ~1e154)
    the roots are r1 and -r0/r1, exact to rounding: r0 grows like r1.
    """
    if np.iscomplexobj(r1) or np.iscomplexobj(r0):
        r1 = np.asarray(r1, dtype=complex)
        r0 = np.asarray(r0, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            sq = np.sqrt(r1 * r1 + 4.0 * r0)
            sign = np.where(np.real(np.conj(r1) * sq) >= 0.0, 1.0, -1.0)
            z1 = np.where(np.isfinite(sq), 0.5 * (r1 + sign * sq), r1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            z2 = np.where(z1 != 0.0, -r0 / np.where(z1 != 0.0, z1, 1.0), 0.0)
        return z1, z2

    r1 = np.asarray(r1, dtype=float)
    r0 = np.asarray(r0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        disc = _compensated_discriminant(r1, r0)
        sq = np.sqrt(np.abs(disc))
        # Conjugate pair: real part r1/2, imaginary part sqrt(-disc)/2.
        conj_z1 = 0.5 * (r1 + 1j * sq)
        # Real pair: non-cancelling combination, partner via the product.
        big = np.where(np.isfinite(disc), 0.5 * (r1 + np.where(r1 >= 0.0, sq, -sq)), r1)
    with np.errstate(divide="ignore", invalid="ignore"):
        small = np.where(big != 0.0, -r0 / np.where(big != 0.0, big, 1.0), 0.0)
    real_case = ~(disc < 0.0)  # a nan or inf disc is an overflowed r1^2
    z1 = np.where(real_case, big + 0j, conj_z1)
    z2 = np.where(real_case, small + 0j, np.conj(conj_z1))
    return z1, z2


def char_roots(pair, mu) -> CharRoots:
    """Characteristic roots of ``pair`` (a StabilityPair or TwoStepMethod) at
    mu, evaluated as a 1-element array, as ``max_abs_root`` evaluates it."""
    z1, z2 = _roots(*pair.char_polys(np.reshape(mu, 1)))
    return CharRoots(complex(z1[0]), complex(z2[0]), complex(mu))


def _max_modulus(pair, mu, out=None):
    z1, z2 = _roots(*pair.char_polys(mu))
    # fmax: where T_s overflowed, |zeta1| = inf and |zeta2| = |inf/inf| = nan.
    return np.fmax(np.abs(z1), np.abs(z2), out=out)


def max_abs_root(pair, mu):
    """max(|zeta1|, |zeta2|) at mu (scalar or ndarray).

    mu is flattened and evaluated ``_ROOT_BLOCK`` points at a time into one
    result of mu's shape; every step is elementwise, so the values are those
    of one whole-array evaluation, bit for bit.  A scalar takes the same
    path, as a 1-element array, and comes back as a float.
    """
    mu = np.asarray(mu)
    flat = mu.ravel()
    out = np.empty(flat.shape)
    for k in range(0, flat.size, _ROOT_BLOCK):
        _max_modulus(pair, flat[k:k + _ROOT_BLOCK], out=out[k:k + _ROOT_BLOCK])
    return float(out[0]) if mu.ndim == 0 else out.reshape(mu.shape)


@dataclass(frozen=True)
class ScanResult:
    """Uniform real-axis scan with the measured stable prefix length."""

    mu: np.ndarray
    max_abs_root: np.ndarray
    stable_length: float


def real_axis_scan(pair, mu_min: float, samples: int) -> ScanResult:
    """Scan mu in [mu_min, 0] and report the contiguous stable prefix from 0.

    The prefix is the largest run of consecutive samples, walking down from
    mu = 0, with max_abs_root <= 1 + INSIDE_TOL.  The boundary lies between
    the last inside sample and the first outside one, so the reported length
    is the midpoint of that bracketing cell (at most half a cell off,
    unbiased).
    When no sample violates the bound the whole scanned range is reported.

    A repeated root sitting exactly on the unit circle (the undamped pair's
    interior touching points, where the domain genuinely pinches to a point)
    can only be resolved to ~sqrt(eps) from rounded coefficients, so a grid
    landing within ~1e-8 of such a point may end the prefix there.  Damped
    pairs keep their interior roots strictly inside the circle and are free
    of the effect.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    if not mu_min < 0.0:
        raise ValueError(f"mu_min must be negative, got {mu_min}")
    mu = np.linspace(mu_min, 0.0, samples)
    mar = max_abs_root(pair, mu)
    inside = mar <= 1.0 + INSIDE_TOL
    cell = -mu_min / (samples - 1)
    # First violation walking from mu = 0 downwards.
    violations = np.nonzero(~inside[::-1])[0]
    if violations.size == 0:
        length = -float(mu[0])
    elif violations[0] == 0:
        length = 0.0
    else:
        length = -float(mu[samples - violations[0]]) + 0.5 * cell
    return ScanResult(mu=mu, max_abs_root=mar, stable_length=length)


@dataclass(frozen=True)
class DomainSample:
    """Boolean inside/outside mask over a rectangle in the complex mu-plane."""

    re: np.ndarray  # grid abscissae, length = resolution
    im: np.ndarray  # grid ordinates, symmetric about 0, length = resolution
    mask: np.ndarray  # shape (len(im), len(re)), True = inside


def domain_sample(pair, re_min: float, im_max: float, resolution: int,
                  re_max: float | None = None) -> DomainSample:
    """Sample the stability domain on a uniform grid.

    The rectangle spans [re_min, re_max] x [-im_max, im_max]; ``re_max``
    must exceed ``re_min`` and defaults to a small positive margin (4% of
    |re_min|) so the domain boundary near the origin is visible.  Real
    coefficients make the mask exactly symmetric under conjugation.
    """
    if not re_min < 0.0:
        raise ValueError(f"re_min must be negative, got {re_min}")
    if not im_max > 0.0:
        raise ValueError(f"im_max must be positive, got {im_max}")
    if resolution < 16:
        raise ValueError(f"resolution must be >= 16, got {resolution}")
    if re_max is None:
        re_max = 0.04 * abs(re_min)
    if not re_max > re_min:
        raise ValueError(f"re_max must exceed re_min, got {re_max} <= {re_min}")
    re = np.linspace(re_min, re_max, resolution)
    im = np.linspace(-im_max, im_max, resolution)
    grid = re[np.newaxis, :] + 1j * im[:, np.newaxis]
    mar = max_abs_root(pair, grid)
    return DomainSample(re=re, im=im, mask=mar <= 1.0 + INSIDE_TOL)


def write_scan_csv(path, scan: ScanResult) -> None:
    """Rows ``mu,max_abs_root`` in ascending mu order."""
    with open(path, "w", newline="") as fh:
        fh.write("mu,max_abs_root" + _EOL)
        for k in range(0, len(scan.mu), _CSV_CHUNK):
            mus = scan.mu[k:k + _CSV_CHUNK].tolist()
            mars = scan.max_abs_root[k:k + _CSV_CHUNK].tolist()
            fh.write("".join([f"{mu!r},{mar!r}{_EOL}" for mu, mar in zip(mus, mars)]))


def write_domain_csv(path, dom: DomainSample) -> None:
    """Rows ``mu_re,mu_im,inside`` (inside as 0/1), im-major order."""
    res = [repr(rev) + "," for rev in dom.re.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("mu_re,mu_im,inside" + _EOL)
        for imv, row in zip(dom.im.tolist(), dom.mask):
            tails = [f"{imv!r},{inside}{_EOL}" for inside in (0, 1)]
            fh.write("".join([r + tails[inside] for r, inside in zip(res, row.tolist())]))
