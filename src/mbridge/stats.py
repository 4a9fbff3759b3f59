"""Standard normal helpers and a two-sample Kolmogorov-Smirnov distance.

The quantile function is scipy's ``special.ndtri`` behind a range check;
its accuracy across (0, 1) is pinned down against the erfc-based CDF by the
tests in this repository.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfc, ndtri

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def norm_cdf(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * erfc(-x / _SQRT2)


def norm_ppf(q):
    """Inverse standard normal CDF on [0, 1].

    Endpoints map to -inf/+inf; values outside [0, 1] raise ValueError.
    """
    q = np.asarray(q, dtype=float)
    if np.any((q < 0.0) | (q > 1.0)) or np.any(np.isnan(q)):
        raise ValueError("quantile levels must lie in [0, 1]")
    x = ndtri(q)
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
