"""Closed forms for the centered Gaussian case.

For marginals N(b, S0) and N(b, S1) with D = S1 - S0 positive definite, the
optimal martingale coupling is jointly Gaussian with covariance
[[S0, S0], [S0, S1]] and everything is explicit:

* entropy value             0.5 log det(S1) / det(D)
* dual potentials           phibar(xb) = -xb' D xb / 2 + 0.5 log det(S1)/det(D)
                            psi(y)    = y' (S1^{-1} - D^{-1}) y / 2
                            h(x)      = D^{-1} x
* base measure              N(0, D^{-1} S0 D^{-1})
* martingale volatility     sigma_t = D ((1-t) I + t D)^{-1}
* flat-volatility analogue  volatility D^{1/2} under the spectral time change
                            tau_k(t) = t lam_k / (1 - t + t lam_k)

The quadrature routines integrate the schedules numerically so that the
closed forms above are checked by an independent route in the tests. Per
eigenvalue lam both integrands are rational in a = 1 + (lam - 1) t, with a
pole at a = 0 that nears [0, 1] as lam leaves one; in u = log a they are
smooth, so a fixed Gauss-Legendre rule in u converges geometrically. The
rule of ``2 _QUADRATURE_NODES`` nodes gives the value, and its gap to the
rule of ``_QUADRATURE_NODES`` nodes the error estimate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NotInConvexOrder, StructuralError
from .measures import _spd_matrix

_QUADRATURE_NODES = 48


@dataclass(frozen=True)
class GaussianMsb:
    """Closed-form solution bundle for a Gaussian pair."""

    sigma0: np.ndarray
    sigma1: np.ndarray
    delta: np.ndarray
    mean: np.ndarray
    joint_covariance: np.ndarray
    entropy_value: float
    base_covariance: np.ndarray
    phibar_quadratic: np.ndarray   # phibar(xb) = xb' Q xb + phibar_constant
    phibar_constant: float
    psi_quadratic: np.ndarray      # psi(y) = y' Q y
    h_matrix: np.ndarray           # h(x) = H x

    @property
    def dim(self):
        return self.delta.shape[0]


def gaussian_msb_closed_form(sigma0, sigma1, mean0=None, mean1=None):
    """Solve the Gaussian pair N(b, sigma0) -> N(b, sigma1) in closed form.

    The increment covariance D = sigma1 - sigma0 must be positive definite
    (eigenvalues above 1e-12 times the largest), otherwise the pair is not in
    strict convex order for this construction and NotInConvexOrder is raised.
    Means, when given, must coincide; the potentials are reported for the
    centered pair and all covariances are translation invariant.
    """
    s0 = _spd_matrix(sigma0, "sigma0")
    s1 = _spd_matrix(sigma1, "sigma1")
    if s0.shape != s1.shape:
        raise StructuralError("sigma0 and sigma1 have different shapes")
    d = s0.shape[0]
    b0 = np.zeros(d) if mean0 is None else np.asarray(mean0, float).ravel()
    b1 = b0 if mean1 is None else np.asarray(mean1, float).ravel()
    if b0.shape != (d,) or b1.shape != (d,):
        raise StructuralError("mean vectors have the wrong dimension")
    if np.max(np.abs(b0 - b1)) > 1e-12 * max(1.0, float(np.abs(b0).max(initial=0.0))):
        raise NotInConvexOrder("marginal means differ; no martingale coupling")

    try:
        delta = _spd_matrix(s1 - s0, "sigma1 - sigma0")
    except StructuralError as exc:
        raise NotInConvexOrder(
            f"{exc}; the Gaussian closed form needs strict convex order") \
            from exc

    delta_inv = np.linalg.inv(delta)
    _, logdet_s1 = np.linalg.slogdet(s1)
    _, logdet_d = np.linalg.slogdet(delta)
    entropy = 0.5 * (logdet_s1 - logdet_d)

    joint = np.block([[s0, s0], [s0, s1]])
    base_cov = delta_inv @ s0 @ delta_inv
    psi_quad = 0.5 * (np.linalg.inv(s1) - delta_inv)

    return GaussianMsb(sigma0=s0, sigma1=s1, delta=delta, mean=b0,
                       joint_covariance=joint, entropy_value=float(entropy),
                       base_covariance=base_cov,
                       phibar_quadratic=-0.5 * delta,
                       phibar_constant=float(entropy),
                       psi_quadratic=psi_quad,
                       h_matrix=delta_inv)


def follmer_volatility_gaussian(delta, t):
    """Volatility matrix sigma_t = D ((1-t) I + t D)^{-1} of the Gaussian
    martingale bridge; at t=0 equal to D, at t=1 the identity.

    ``t`` is a time or an array of times; an array of shape s gives the
    matrices stacked in shape s + (d, d), from one batched inverse.
    """
    delta = _spd_matrix(delta, "delta")
    t = np.asarray(t, dtype=float)
    if not ((t >= 0.0) & (t <= 1.0)).all():
        raise StructuralError("t must lie in [0, 1]")
    t = t[..., None, None]
    d = delta.shape[0]
    return delta @ np.linalg.inv((1.0 - t) * np.eye(d) + t * delta)


def _eigen(delta):
    delta = _spd_matrix(delta, "delta")
    lam, u = np.linalg.eigh(delta)
    return lam, u


@functools.lru_cache(maxsize=None)
def _legendre(n):
    """Gauss-Legendre nodes and weights of n points on [0, 1], read-only:
    the cache hands the same arrays to every call."""
    x, w = np.polynomial.legendre.leggauss(n)
    rule = 0.5 * (x + 1.0), 0.5 * w
    for a in rule:
        a.flags.writeable = False
    return rule


def _schedule_integral(integrand, lam, upper):
    """int_0^upper integrand(lam, t) dt and its error estimate, broadcast
    over the eigenvalues ``lam`` and the upper limits ``upper`` in [0, 1].

    The rule runs in u = log(1 + (lam - 1) t), where t = expm1(u) / (lam - 1)
    and dt/du = exp(u) / (lam - 1), both without cancellation near lam = 1;
    at lam = 1 exactly it runs in t itself.
    """
    lam, upper = np.broadcast_arrays(np.asarray(lam, dtype=float)[..., None],
                                     np.asarray(upper, dtype=float)[..., None])
    plain = lam == 1.0
    c = np.where(plain, 1.0, lam - 1.0)
    top = np.where(plain, upper, np.log1p(c * upper))
    values = []
    for n in (_QUADRATURE_NODES, 2 * _QUADRATURE_NODES):
        x, w = _legendre(n)
        u = top * x
        t = np.where(plain, u, np.expm1(u) / c)
        slope = np.where(plain, 1.0, np.exp(u) / c)
        values.append(top[..., 0] * np.sum(w * slope * integrand(lam, t),
                                           axis=-1))
    return values[1], np.abs(values[1] - values[0])


def _energy_integrand(lam, t):
    return (lam - 1.0) ** 2 * (1.0 - t) / ((1.0 - t) + t * lam) ** 2


def _isometry_integrand(lam, s):
    return (lam / ((1.0 - s) + s * lam)) ** 2


def weighted_energy_quadrature(delta):
    """Numerically integrate 0.5 int_0^1 |sigma_t - I|_HS^2 / (1-t) dt.

    Per eigenvalue lam of D the integrand reduces to
    (lam-1)^2 (1-t) / ((1-t) + t lam)^2, which is continuous on [0, 1], and
    the integrals are summed over the spectrum. Closed form for comparison:
    0.5 (tr D - d - log det D). An eigenvalue whose error estimate exceeds
    1e-9 (1 + |value|) raises StructuralError: the integral grows like lam,
    and so does the rounding gap between two converged rules.
    """
    lam, _ = _eigen(delta)
    values, errors = _schedule_integral(_energy_integrand, lam, 1.0)
    refused = errors > 1e-9 * (1.0 + np.abs(values))
    if refused.any():
        raise StructuralError(
            "quadrature failed to reach tolerance (error estimate "
            f"{float(errors[refused].max()):.2e})")
    return 0.5 * float(np.sum(values))


def gaussian_energy_closed_form(delta):
    """0.5 (tr D - d - log det D), the weighted volatility energy."""
    delta = _spd_matrix(delta, "delta")
    _, logdet = np.linalg.slogdet(delta)
    return float(0.5 * (np.trace(delta) - delta.shape[0] - logdet))


@dataclass(frozen=True)
class BassComparison:
    """Spectral comparison of the bridge and its flat-volatility analogue."""

    bass_volatility: np.ndarray    # D^{1/2}
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    grid: np.ndarray
    bridge_schedule: np.ndarray    # (grid, eigen) covariance of N_t - N_0
    flat_schedule: np.ndarray      # same quantity through the time change
    max_discrepancy: float

    def time_change(self, t):
        """Per-eigenvalue time change tau_k(t) = t lam_k / (1 - t + t lam_k)."""
        t = np.asarray(t, dtype=float)
        lam = self.eigenvalues
        return (t[..., None] * lam) / (1.0 - t[..., None] + t[..., None] * lam)


def bass_comparison_gaussian(sigma0, sigma1, grid=None):
    """Check, eigenvalue by eigenvalue, that the bridge covariance schedule
    t lam^2 / (1 - t + t lam) equals the flat-volatility schedule tau(t) lam.

    The bridge side is integrated numerically (Ito isometry of the volatility
    schedule, the whole grid in one quadrature); the flat side is the time
    change applied to constant volatility D^{1/2}. Returns the two schedules
    on the grid and their maximal absolute discrepancy.
    """
    solution = gaussian_msb_closed_form(sigma0, sigma1)
    lam, u = _eigen(solution.delta)
    if grid is None:
        grid = np.linspace(0.0, 1.0, 101)
    grid = np.asarray(grid, dtype=float)

    sqrt_delta = (u * np.sqrt(lam)) @ u.T
    t = grid[:, None]
    bridge, _ = _schedule_integral(_isometry_integrand, lam, t)
    flat = t * lam / (1.0 - t + t * lam) * lam
    return BassComparison(bass_volatility=sqrt_delta, eigenvalues=lam,
                          eigenvectors=u, grid=grid, bridge_schedule=bridge,
                          flat_schedule=flat,
                          max_discrepancy=float(np.max(np.abs(bridge - flat))))
