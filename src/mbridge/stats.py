"""Standard normal helpers and a two-sample Kolmogorov-Smirnov distance.

The quantile function is the standard library's ``NormalDist().inv_cdf``
(Wichura's AS241, accurate to a few ulp) behind a range check, and the CDF
is ``math.erfc``; the tests pin both against scipy's ``ndtri`` and ``ndtr``.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_INV_CDF = NormalDist().inv_cdf


def _each(fn, x):
    """``fn`` of every entry of the float array ``x``, in its shape."""
    return np.array([fn(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _quantile(q):
    """The standard normal quantile of one level in [0, 1]."""
    return _INV_CDF(q) if 0.0 < q < 1.0 else math.copysign(math.inf, q - 0.5)


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def norm_cdf(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * _each(math.erfc, -x / _SQRT2)


def norm_ppf(q):
    """Inverse standard normal CDF on [0, 1].

    Endpoints map to -inf/+inf; values outside [0, 1] raise ValueError.
    """
    q = np.asarray(q, dtype=float)
    if not np.all((q >= 0.0) & (q <= 1.0)):  # NaN fails both
        raise ValueError("quantile levels must lie in [0, 1]")
    x = _each(_quantile, q)
    return float(x) if q.ndim == 0 else x


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|.

    Both samples must be nonempty and finite; a NaN has no place in an
    empirical distribution function.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("need nonempty samples")
    # sorting puts -inf first and +inf and NaN last, so the ends decide
    if not np.all(np.isfinite([a[0], a[-1], b[0], b[-1]])):
        raise ValueError("samples must be finite")
    grid = np.concatenate([a, b])
    ca = np.searchsorted(a, grid, side="right") / a.size
    cb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(ca - cb)))
