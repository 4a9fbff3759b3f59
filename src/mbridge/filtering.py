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

The Euler paths of that cross-check run in fixed blocks of ``_EULER_BLOCK``
paths, one task each on a thread pool as wide as the cores the process may
use. Philox is counter-based, so every block gets its own substream: block 0
continues the root stream, and block b >= 1 uses the key with b in its high
word, which no stream of the root key (the invariance test's jumped streams
included) can reach. The blocks are joined in order, so the report is the
same on one core as on many.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import _atoms_at, _fiber_posterior
from .errors import StructuralError
from .measures import _softmax
from .solver import inner_dual_solve
from .stats import ks_distance

# Euler paths per block, the unit of work of the Wonham thread pool; fixed,
# so the random streams do not depend on the number of cores
_EULER_BLOCK = 10_000
# Euler steps whose normals one standard_normal call draws
_DRAW_STEPS = 4
# seeds take the low word of the Philox key, Euler blocks the high word
SEED_BOUND = 2 ** 64


def simulate_observations(fiber, s_grid, n_paths=1000, seed=42):
    """Sample observation paths R on the grid, exact increments.

    Returns (R, Y) with R of shape (n_paths, len(s_grid), d).
    """
    if fiber.kind != "discrete":
        raise StructuralError("observations are defined for discrete fibers")
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.ndim != 1 or s_grid.size < 1 or s_grid[0] < 0.0:
        raise StructuralError("s_grid must be nonnegative and one dimensional")
    if s_grid.size > 1 and np.any(np.diff(s_grid) <= 0.0):
        raise StructuralError("s_grid must be strictly increasing")
    rng = np.random.Generator(np.random.Philox(key=seed))
    d = fiber.dim
    y = _atoms_at(fiber.measure, rng.random(n_paths))
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
    s = float(s)
    if s < 0.0:
        raise StructuralError("s must be nonnegative")
    r = np.asarray(r, dtype=float)
    # the bridge posterior at time s, displacement r and scale one
    w = _fiber_posterior(fiber, s, fiber.x + np.atleast_2d(r), 1.0)
    z = (fiber.measure.atoms.T @ w).T
    if r.ndim == 1:
        return w[:, 0], z[0]
    return w.T, z


def info_time_change(s, sigma_ref=1.0):
    """Bridge time tau carrying the same information as observation time s."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise StructuralError("s must be nonnegative")
    c = sigma_ref ** 2
    with np.errstate(invalid="ignore"):
        tau = np.where(np.isinf(s), 1.0, c * s / (1.0 + c * s))
    return float(tau) if tau.ndim == 0 else tau


def inverse_info_time(tau, sigma_ref=1.0):
    tau = np.asarray(tau, dtype=float)
    if np.any((tau < 0.0) | (tau > 1.0)):
        raise StructuralError("tau must lie in [0, 1]")
    c = sigma_ref ** 2
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
    keys = _volatilities(sigmas)
    atoms = fiber.measure.atoms
    samples = {}
    for j, sig in enumerate(keys):
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(j + 1))
        tau = info_time_change(s, sig)
        y = _atoms_at(fiber.measure, rng.random(n_samples))
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
    return SigmaInvarianceReport(sigmas=tuple(keys), s=float(s),
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


def _cores():
    """Cores this process may run on; the one source of the pool size."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask outside Linux
        return os.cpu_count() or 1


def _block_stream(seed, block):
    """Philox substream of Euler block ``block`` >= 1.

    The block index is the high word of the 128-bit key. The root stream
    Philox(key=seed) and every ``jumped(j)`` of it (the invariance test's
    streams) keep the high word 0, because a jump moves the counter and
    never the key; so for 0 <= seed < 2**64 no block stream meets them.
    """
    return np.random.Philox(key=seed + (block << 64))


def _euler_block(rng, n_paths, n_steps, sqrt_ds, marks):
    """Euler paths of dZ = Z (1 - Z) dB from Z_0 = 1/2, clamped to [0, 1].

    ``marks`` holds, in checkpoint order, the step after which each
    snapshot is taken. Returns the snapshots and the number of clamped
    excursions. Runs on a worker thread and calls nothing but numpy, which
    releases the GIL in the draws and the in-place ufuncs. The draws of
    ``_DRAW_STEPS`` steps come from one call, which reads the stream in the
    same order as one call per step.
    """
    z = np.full(n_paths, 0.5)
    inc = np.empty(n_paths)
    noise = np.empty((_DRAW_STEPS, n_paths))
    snapshots = []
    violations = 0
    for i in range(n_steps):
        k = i % _DRAW_STEPS
        if k == 0:
            rng.standard_normal(out=noise[:min(_DRAW_STEPS, n_steps - i)])
        np.subtract(1.0, z, out=inc)
        inc *= z
        inc *= sqrt_ds
        inc *= noise[k]
        z += inc
        if z.min() < 0.0 or z.max() > 1.0:
            violations += int(np.count_nonzero((z < 0.0) | (z > 1.0)))
            np.clip(z, 0.0, 1.0, out=z)
        while len(snapshots) < len(marks) and marks[len(snapshots)] == i:
            snapshots.append(z.copy())
    return snapshots, violations


def wonham_sde_crosscheck(n_paths=20_000, n_steps=4000, s_max=4.0,
                          checkpoints=(1.0, 4.0), seed=42):
    """Exact filter versus Euler on its autonomous SDE, compared in law.

    The symmetric two-atom fiber at gap one has posterior probability
    Z_s = logistic(R_s), and Z solves dZ = Z (1 - Z) dB for an innovation
    Brownian motion B. The cross-check integrates that SDE from Z_0 = 1/2
    with freshly drawn noise, clamps excursions outside [0, 1] (counting
    them), and compares the two laws at the checkpoints, plus the frequency
    of ending in the upper half.

    The Euler paths run in blocks of ``_EULER_BLOCK`` on a thread pool with
    one worker per available core (at most one per block). Block 0
    continues the root stream after the exact side's draws; block b >= 1
    draws from its own substream (``_block_stream``), disjoint from the
    root stream and from the invariance test's jumped streams of the same
    seed. The blocks are joined in order, so the report does not depend on
    the number of cores, and a run of at most one block draws exactly what
    a single serial loop would. The seed must lie in [0, 2**64).
    """
    checkpoints = tuple(float(c) for c in checkpoints)
    if any(c <= 0.0 or c > s_max for c in checkpoints):
        raise StructuralError("checkpoints must lie in (0, s_max]")
    n_paths, n_steps, seed = int(n_paths), int(n_steps), int(seed)
    if n_paths < 1 or n_steps < 1:
        raise StructuralError("n_paths and n_steps must be positive")
    if not 0 <= seed < SEED_BOUND:
        raise StructuralError("seed must lie in [0, 2**64)")
    rng = np.random.Generator(np.random.Philox(key=seed))

    # exact side: R_s = s Y' + W_s with Y' = +-1/2, Z = logistic(R)
    yp = np.where(rng.random(n_paths) < 0.5, -0.5, 0.5)
    z_exact = {}
    for c in checkpoints:
        r = c * yp + math.sqrt(c) * rng.standard_normal(n_paths)
        z_exact[c] = 1.0 / (1.0 + np.exp(-r))

    # euler side, independent noise; a checkpoint is taken after the first
    # step whose end (i + 1) ds reaches it, not after a running sum of ds,
    # which can end short of s_max
    ds = s_max / n_steps
    order = sorted(checkpoints)
    ends = np.arange(1, n_steps + 1) * ds
    marks = [int(np.searchsorted(ends, c - 1e-12)) for c in order]
    sizes = [min(_EULER_BLOCK, n_paths - lo)
             for lo in range(0, n_paths, _EULER_BLOCK)]
    streams = [rng] + [np.random.Generator(_block_stream(seed, b))
                       for b in range(1, len(sizes))]
    kernel = functools.partial(_euler_block, n_steps=n_steps,
                               sqrt_ds=math.sqrt(ds), marks=marks)
    with ThreadPoolExecutor(min(len(sizes), _cores())) as pool:
        blocks = list(pool.map(kernel, streams, sizes))
    z_euler = {c: np.concatenate([snaps[k] for snaps, _ in blocks])
               for k, c in enumerate(order)}

    ks = {c: float(ks_distance(z_exact[c], z_euler[c])) for c in checkpoints}
    last = max(checkpoints)
    return WonhamReport(
        checkpoints=checkpoints, ks_by_checkpoint=ks,
        terminal_freq_exact=float(np.mean(z_exact[last] > 0.5)),
        terminal_freq_euler=float(np.mean(z_euler[last] > 0.5)),
        clamp_violations=sum(v for _, v in blocks), n_paths=n_paths)


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
    s = float(s)
    if s < 0.0:
        raise StructuralError("s must be nonnegative")
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
