"""Observation-time view of the pinned martingale.

Observing the terminal draw Y through additive white noise,
dR_s = (Y - x) ds + dW_s, gives the posterior weights

    w_j(s, r)  propto  m_x(y_j) exp( <y_j - x, r> - s |y_j - x|^2 / 2 ),

and the filter mean Z_s = sum_j w_j y_j. Under the time change
tau = s^2_ref * s / (1 + s^2_ref * s) the filter mean has the same law as
the pinned martingale M_tau run at reference volatility s_ref, for every
s_ref; the invariance test below samples the construction at several
volatilities and compares the laws directly. For a symmetric two-atom fiber
with unit gap the posterior probability solves dZ = Z (1 - Z) dB, which the
cross-check integrates with independent driving noise and compares in law.

A comparison in law needs only a weak scheme. Euler whose increments have
mean 0, variance ds and third moment 0 has weak order one, as Gaussian
Euler has (Kloeden & Platen 1992, Thm 14.5.2), so each increment is
sqrt(ds) q[U] for a uniform byte U and the table ``_QUANTILES`` of the 256
midpoint normal quantiles, made odd and rescaled to unit variance; the
table and its byte reader ``_byte_levels`` live in ``dynamics``, whose
Gaussian fibers draw their increments the same way. A
two-point law +-sqrt(ds) has the same order but puts coarse grids on a
lattice: at 100 steps its KS distance to the exact law is about 0.03, the
table's 0.004-0.012 (40,000 paths). The cross-check compares the laws at
the observation times ``_CHECKPOINTS``, and its Euler paths run to the
last of them, s = 4; as |q| <= q_max = 2.893, a path can leave [0, 1]
only when n_steps < 4 q_max^2 = 33.5.

Every stream here follows the rule of ``dynamics._stream``: SFC64 seeded by
SeedSequence(seed, spawn_key=key). Observations and the cross-check read
the root stream, key (): the Euler paths continue it after the exact
side's draws, reading its bytes as raw 64-bit words, eight bytes a word
(see ``dynamics._byte_levels``). The invariance test's j-th volatility
reads key (1, j). Measured as in ``dynamics``, a whole Euler step took
3-5 ns per path-step on one thread; an SFC64 ``standard_normal`` draw
alone costs 10-11 ns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _QUANTILES, _atoms_at, _byte_levels, _fiber_posterior, \
    _stream
from .errors import StructuralError
from .measures import _softmax
from .solver import inner_dual_solve
from .stats import ks_distance

# the spawn-key prefix beside the root stream: (_VOLATILITY_KEY, j) is the
# invariance test's j-th volatility
_VOLATILITY_KEY = 1
# the observation times at which the Wonham cross-check compares its laws,
# in increasing order; the Euler paths run to the last
_CHECKPOINTS = (1.0, 4.0)


def _observation_time(s):
    """An observation time as a float: finite and nonnegative."""
    s = float(s)
    if not (math.isfinite(s) and s >= 0.0):
        raise StructuralError(f"s must be finite and nonnegative: {s}")
    return s


def simulate_observations(fiber, s_grid, n_paths=1000, seed=42):
    """Sample observation paths R on the grid, exact increments.

    Returns (R, Y) with R of shape (n_paths, len(s_grid), d).
    """
    if fiber.kind != "discrete":
        raise StructuralError("observations are defined for discrete fibers")
    s_grid = np.asarray(s_grid, dtype=float)
    if (s_grid.ndim != 1 or s_grid.size < 1 or s_grid[0] < 0.0
            or not np.all(np.isfinite(s_grid))):
        raise StructuralError(
            "s_grid must be finite, nonnegative and one dimensional")
    if s_grid.size > 1 and np.any(np.diff(s_grid) <= 0.0):
        raise StructuralError("s_grid must be strictly increasing")
    rng = _stream(seed)
    d = fiber.dim
    y = _atoms_at(fiber.measure.atoms, fiber.measure.weights,
                  rng.random(n_paths))
    r = np.zeros((n_paths, s_grid.size, d))
    prev_s = 0.0
    prev_r = np.zeros((n_paths, d))
    for k, s in enumerate(s_grid):
        ds = s - prev_s
        if ds > 0.0:
            prev_r = (prev_r + (y - fiber.x) * ds
                      + math.sqrt(ds) * rng.standard_normal((n_paths, d)))
        r[:, k] = prev_r
        prev_s = s
    return r, y


def posterior_estimator(fiber, s, r):
    """Filter weights and mean given the observation value r at time s."""
    if fiber.kind != "discrete":
        raise StructuralError("the filter needs a discrete fiber")
    s = _observation_time(s)
    r = np.asarray(r, dtype=float)
    # the bridge posterior at time s, displacement r and scale one
    w = _fiber_posterior(fiber, s, fiber.x + np.atleast_2d(r), 1.0)
    z = (fiber.measure.atoms.T @ w).T
    if r.ndim == 1:
        return w[:, 0], z[0]
    return w.T, z


def info_time_change(s, sigma=1.0):
    """Bridge time tau carrying the same information as observation time s."""
    s = np.asarray(s, dtype=float)
    if not np.all(s >= 0.0):
        raise StructuralError("s must be nonnegative")
    c = sigma ** 2
    with np.errstate(invalid="ignore"):
        tau = np.where(np.isinf(s), 1.0, c * s / (1.0 + c * s))
    return float(tau) if tau.ndim == 0 else tau


def inverse_info_time(tau, sigma=1.0):
    tau = np.asarray(tau, dtype=float)
    if not np.all((tau >= 0.0) & (tau <= 1.0)):
        raise StructuralError("tau must lie in [0, 1]")
    c = sigma ** 2
    with np.errstate(divide="ignore"):
        s = np.where(tau >= 1.0, np.inf, tau / (c * (1.0 - tau)))
    return float(s) if s.ndim == 0 else s


@dataclass(frozen=True)
class SigmaInvarianceReport:
    sigmas: tuple
    s: float
    n_samples: int
    ks_matrix: np.ndarray
    max_ks: float
    samples: dict


def _volatilities(sigmas):
    """The volatilities of the invariance test: two distinct, all positive."""
    keys = [float(sg) for sg in sigmas]
    if len(set(keys)) < 2 or min(keys) <= 0.0:
        raise StructuralError(f"need two distinct positive volatilities: {keys}")
    return keys


def sigma_invariance_test(fiber, s=1.0, sigmas=(0.5, 1.0, 2.0),
                          n_samples=40_000, seed=42):
    """Sample M at the information time for several reference volatilities.

    For each volatility the bridge is sampled exactly at the single time
    tau_sigma(s) and the posterior mean is computed from the same
    construction; the empirical laws are compared pairwise by the
    Kolmogorov-Smirnov distance. One-dimensional fibers only.
    """
    if fiber.dim != 1:
        raise StructuralError("the invariance test compares laws in d = 1")
    if fiber.kind != "discrete":
        raise StructuralError("the invariance test needs a discrete fiber")
    s = _observation_time(s)
    keys = _volatilities(sigmas)
    atoms = fiber.measure.atoms
    samples = {}
    for j, sig in enumerate(keys):
        rng = _stream(seed, (_VOLATILITY_KEY, j))
        tau = info_time_change(s, sig)
        y = _atoms_at(atoms, fiber.measure.weights, rng.random(n_samples))
        noise = rng.standard_normal((n_samples, 1))
        x_tau = (fiber.x + tau * (y - fiber.x)
                 + sig * math.sqrt(tau * (1.0 - tau)) * noise)
        w = _fiber_posterior(fiber, tau, x_tau, sig ** 2 * (1.0 - tau))
        samples[sig] = (atoms.T @ w).ravel()
    ks = np.zeros((len(keys), len(keys)))
    for a in range(len(keys)):
        for b in range(a + 1, len(keys)):
            ks[a, b] = ks[b, a] = ks_distance(samples[keys[a]],
                                              samples[keys[b]])
    return SigmaInvarianceReport(sigmas=tuple(keys), s=s,
                                 n_samples=int(n_samples), ks_matrix=ks,
                                 max_ks=float(ks.max()), samples=samples)


@dataclass(frozen=True)
class WonhamReport:
    checkpoints: tuple
    ks_by_checkpoint: dict
    terminal_freq_exact: float
    terminal_freq_euler: float
    clamp_violations: int
    n_paths: int


def _euler_block(rng, n_paths, n_steps, sqrt_ds, marks):
    """Euler paths of dZ = Z (1 - Z) dB from Z_0 = 1/2, clamped to [0, 1].

    The increment of a step is Z (1 - Z) xi with xi = sqrt_ds * q[U]: U a
    uniform byte and q the odd, unit-variance table ``_QUANTILES``. The
    bytes come from ``dynamics._byte_levels``, n per step in path order.

    The clamp can fire only if some |xi| > 1, that is ds q_max^2 > 1
    (n_steps < 33.5 on the cross-check's horizon of 4). When every
    |xi| <= 1 it cannot, even in rounded arithmetic: the computed
    fl(fl(fl(1 - Z) Z) xi) is at most min(Z, 1 - Z) in size, as
    fl(1 - Z) <= 1, and 1 - Z is exact for Z >= 1/2; rounding is monotone
    and 0 and 1 are floats. The check is skipped there.

    ``marks`` holds, in checkpoint order, the step after which each
    snapshot is taken. Returns the snapshots and the number of clamped
    excursions.
    """
    table = sqrt_ds * _QUANTILES
    may_leave = np.abs(table).max() > 1.0
    z = np.full(n_paths, 0.5)
    inc = np.empty(n_paths)
    noise = np.empty(n_paths)
    snapshots = []
    violations = 0
    for i, levels in enumerate(_byte_levels(rng, n_steps, n_paths)):
        # mode="clip" gathers straight into noise; "raise" buffers it
        np.take(table, levels, out=noise, mode="clip")
        np.subtract(1.0, z, out=inc)
        inc *= z
        inc *= noise
        z += inc
        if may_leave and (z.min() < 0.0 or z.max() > 1.0):
            violations += int(np.count_nonzero((z < 0.0) | (z > 1.0)))
            np.clip(z, 0.0, 1.0, out=z)
        while len(snapshots) < len(marks) and marks[len(snapshots)] == i:
            snapshots.append(z.copy())
    return snapshots, violations


def wonham_sde_crosscheck(n_paths=20_000, n_steps=4000, seed=42):
    """Exact filter versus Euler on its autonomous SDE, compared in law.

    The symmetric two-atom fiber at gap one has posterior probability
    Z_s = logistic(R_s), and Z solves dZ = Z (1 - Z) dB for an innovation
    Brownian motion B. The cross-check integrates that SDE from Z_0 = 1/2
    by Euler with freshly drawn increments sqrt(ds) q[U], U a uniform byte
    and q the 256-level table ``_QUANTILES``. They have mean 0, variance
    ds and third moment 0, which gives weak order one, enough for a
    comparison in law. The Euler paths run from s = 0 to the last of
    ``_CHECKPOINTS``, s = 4, in n_steps steps. The check clamps excursions
    outside [0, 1], counting them (possible only when n_steps < 33.5), and
    compares the two laws at the checkpoints, plus the frequency of ending
    in the upper half.

    The Euler paths continue the root stream after the exact side's draws
    (see the module notes). The seed must lie in [0, 2**64).
    """
    n_paths, n_steps = int(n_paths), int(n_steps)
    if n_paths < 1 or n_steps < 1:
        raise StructuralError("n_paths and n_steps must be positive")
    rng = _stream(seed)

    # exact side: R_s = s Y' + W_s with Y' = +-1/2, Z = logistic(R)
    yp = np.where(rng.random(n_paths) < 0.5, -0.5, 0.5)
    z_exact = {}
    for c in _CHECKPOINTS:
        r = c * yp + math.sqrt(c) * rng.standard_normal(n_paths)
        z_exact[c] = 1.0 / (1.0 + np.exp(-r))

    # euler side, independent noise; a checkpoint is taken after the first
    # step whose end (i + 1) ds reaches it, not after a running sum of ds,
    # which can end short of the horizon
    ds = _CHECKPOINTS[-1] / n_steps
    ends = np.arange(1, n_steps + 1) * ds
    marks = [int(np.searchsorted(ends, c - 1e-12)) for c in _CHECKPOINTS]
    snapshots, violations = _euler_block(rng, n_paths, n_steps,
                                         math.sqrt(ds), marks)
    z_euler = dict(zip(_CHECKPOINTS, snapshots))

    ks = {c: float(ks_distance(z_exact[c], z_euler[c])) for c in _CHECKPOINTS}
    last = _CHECKPOINTS[-1]
    return WonhamReport(
        checkpoints=_CHECKPOINTS, ks_by_checkpoint=ks,
        terminal_freq_exact=float(np.mean(z_exact[last] > 0.5)),
        terminal_freq_euler=float(np.mean(z_euler[last] > 0.5)),
        clamp_violations=violations, n_paths=n_paths)


@dataclass(frozen=True)
class RestartReport:
    eta: np.ndarray
    weights: np.ndarray
    barycenter: np.ndarray
    recovered_h: np.ndarray
    recovered_weights: np.ndarray
    max_weight_dev: float


def restart_posterior(nu, psi, h, x, s, r):
    """Filter posterior as a fresh tilted fiber, with a dual cross-check.

    A fiber conditional with potentials (psi, h) observed up to time s at
    value r is again a Gibbs conditional for the tilted potential
    psi'_j = psi_j - s |y_j|^2 / 2 with slope eta = h + r + s x. The
    returned report also re-solves the concave single-fiber problem at the
    posterior barycenter under psi' and records how well it reproduces the
    posterior weights.
    """
    psi = np.asarray(psi, dtype=float)
    h = np.atleast_1d(np.asarray(h, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    s = _observation_time(s)
    atoms = nu.atoms
    eta = h + r + s * x
    tilted = psi - 0.5 * s * np.sum(atoms ** 2, axis=1)
    w = np.log(nu.weights) + tilted + atoms @ eta
    _softmax(w, axis=0)
    bary = w @ atoms

    h_rec, _, w_rec = inner_dual_solve(bary, tilted, nu, h0=eta)
    return RestartReport(eta=eta, weights=w, barycenter=bary,
                         recovered_h=h_rec, recovered_weights=w_rec,
                         max_weight_dev=float(np.max(np.abs(w - w_rec))))
