"""Simulation of the martingale that transports one marginal to another
through a Brownian pinning construction.

A fiber is a start point x together with its terminal conditional law m_x
(discrete atoms or N(x, Delta)). Conditionally on the terminal draw Y ~ m_x,
the drifted process X is a Brownian bridge from (0, x) to (1, Y). It is
exact at the grid times for a discrete fiber; for a Gaussian fiber its
first two moments are (see the draw rule below). The martingale is the
conditional mean

    M_t = E[Y | X_t] = X_t + (1 - t) u_t(X_t),

where u is the drift of X in its own filtration. The bridge over mu runs a
martingale coupling m of (mu, nu), the discrete MSB of the solve: one
process started at x_i ~ mu, whose terminal law is row i, m_i / mu_i, on
the table of nu's atoms y_j; a single discrete fiber is the one-row case.
By Bayes a path started at x_i has the backward posterior

    q_j(t, z)  propto  exp( [ <z - c, y_j - c> - t |y_j - c|^2 / 2 ]
                            / (1 - t)  +  P_ij ),
    P_ij = log (m_ij / mu_i) - <x_i - c, y_j - c>,

with one center c, the barycenter of mu, and P_ij = -inf where m_ij = 0.
The reference process is Brownian motion, of unit volatility, as in the
paper's energy. Then u = (mean(q) - z)/(1 - t) and sigma_t = Cov(q)/(1 - t);
for a Gaussian fiber both are linear and closed-form. Path energies
accumulate the drift cost |u|^2/2 and the volatility cost
|sigma - I|^2 / (2 (1 - t)), the latter exactly per step for a Gaussian
fiber.

Layout of the step kernel: the posterior is atom-major, shape (k, paths),
and the path state, drift and mean are coordinate-major, shape (d, paths),
so every reduction (softmax, moments, energies) runs over a short leading
axis while the elementwise work runs along the long contiguous paths axis;
temporaries are updated in place. A discrete step folds 1/(1 - t) into the
(k, d) factor and the (k,) offset of the logits l, exponentiates once after
the max shift, takes the normalizer, the mean and the second moments from
one product [1; y; vec(y y')] @ exp(l - top) and scales the moments by one
reciprocal: no array divide. A Gaussian fiber's covariance passes the one
SPD check of ``measures``, and its drift matrices come from one batched
inverse.

Random streams: every stream of ``dynamics`` and ``filtering`` is SFC64
seeded by SeedSequence(seed, spawn_key=key), built by ``_stream``. The
simulation reads the root stream, key (); a role that needs streams of
its own (a volatility of the invariance test) takes a key prefix of its
own. All draws of a simulation come from the root stream, chunk by chunk:
first one uniform per path, in path order, for its terminal atom (a
Gaussian fiber: one exact normal row), then the increments of each step,
by the fiber's kind.

* Discrete fibers: one path-major (paths, d) normal block per step. Their
  increments enter the posterior beyond their first two moments, so they
  stay exact normals, and the bridge is exact at the grid times.
* Gaussian fibers: d bytes U per path-step from ``_byte_levels``,
  coordinate-major, and the increment scale_k q[U], with q the 256-level
  table ``_QUANTILES`` (odd, unit variance) multiplied by the step's scale
  before the gather. The bridge is linear in the noise, so every mean and
  covariance of X and M at the grid times is exact; higher moments are
  the table's.

The Wonham Euler loop of ``filtering`` reads the same bytes and table.
Measured on one thread of a busy 2-core Xeon (Python 3.11, numpy 2.4), an
SFC64 ``standard_normal`` draw took 10-11 ns and a table draw 1.3 ns; the
study mixture (3 atoms, d = 1) ran at 29-32 ns per path-step and the
2 x 2 Gaussian fiber at 10-11 ns (10,000 paths, 1000 steps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError, TerminalAmbiguity
from .measures import (Coupling, DiscreteMeasure, _softmax, _spd_matrix,
                       barycenter_and_moments)
from .stats import norm_ppf

TIME_CLIP = 1.0 - 1e-6
TERMINAL_ATOL = 1e-9
_CHUNK = 32768
TERMINAL_MIN_P = 1e-7
MEAN_SE_BOUND = 5.0
# SeedSequence takes any nonnegative integer; a seed stays one unsigned
# 64-bit word, so every manifest's seed reads back as a 64-bit integer
SEED_BOUND = 2 ** 64
# steps whose bytes one random_raw call draws
_DRAW_STEPS = 4


def _quantile_table():
    """The 256 standard normal quantiles at the midpoints (k + 1/2) / 256.

    The upper half is mirrored, so the table is odd bit for bit (mean and
    third moment zero), and it is rescaled to second moment one.
    """
    upper = norm_ppf((np.arange(128, 256) + 0.5) / 256)
    return (np.concatenate([-upper[::-1], upper])
            / math.sqrt(math.fsum(upper ** 2) / 128))


# a table increment is scale * _QUANTILES[U] for a uniform byte U
_QUANTILES = _quantile_table()


def _byte_levels(rng, n_steps, n):
    """Yield the n uniform bytes of each of ``n_steps`` steps, in order.

    The bytes of ``_DRAW_STEPS`` steps come from one ``random_raw`` call of
    ceil(D n / 8) words, D steps of n bytes, read eight per word, the low
    byte first, step-major.
    """
    for lo in range(0, n_steps, _DRAW_STEPS):
        steps = min(_DRAW_STEPS, n_steps - lo)
        words = rng.bit_generator.random_raw((steps * n + 7) // 8)
        levels = words.astype("<u8", copy=False).view(np.uint8)
        yield from levels[:steps * n].reshape(steps, n)


def _stream(seed, key=()):
    """The random stream of ``seed`` under the spawn key ``key``.

    SFC64 seeded by SeedSequence(seed, spawn_key=key): the root stream has
    key (), and each role with streams of its own takes a key prefix of
    its own, so distinct keys give independent streams of one seed.
    """
    seed = int(seed)
    if not 0 <= seed < SEED_BOUND:
        raise StructuralError("seed must lie in [0, 2**64)")
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=key)))


@dataclass(frozen=True)
class FiberModel:
    """Start point plus terminal conditional law."""

    x: np.ndarray
    measure: DiscreteMeasure = None     # discrete terminal law, or
    delta: np.ndarray = None            # Gaussian increment covariance

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        object.__setattr__(self, "x", x)
        if not np.all(np.isfinite(x)):
            raise StructuralError("fiber start must be finite")
        if (self.measure is None) == (self.delta is None):
            raise StructuralError("provide exactly one of measure or delta")
        if self.measure is not None:
            if self.measure.dim != x.shape[0]:
                raise StructuralError("fiber start and terminal law dimensions differ")
            mean, _, _ = barycenter_and_moments(self.measure)
            if np.max(np.abs(mean - x)) > 1e-10:
                raise StructuralError(
                    "terminal law barycenter must equal the start point")
        else:
            delta = _spd_matrix(self.delta, "delta")
            if delta.shape[0] != x.shape[0]:
                raise StructuralError("delta must be d x d")
            object.__setattr__(self, "delta", delta)

    @property
    def kind(self):
        return "discrete" if self.measure is not None else "gaussian"

    @property
    def dim(self):
        return self.x.shape[0]

    @staticmethod
    def discrete(x, measure):
        return FiberModel(x=x, measure=measure)

    @staticmethod
    def gaussian(x, delta):
        return FiberModel(x=x, delta=delta)


def _atoms_at(atoms, weights, u):
    """Atoms drawn from ``weights`` at the uniforms ``u``, by inverse CDF
    in the atoms' order; an atom of weight 0 is never drawn."""
    cum = np.cumsum(weights)
    idx = np.searchsorted(cum, u, side="right")
    return atoms[idx.clip(max=len(cum) - 1)]


def _fiber_posterior(fiber, t, z, scale):
    """``_posterior_weights`` of one discrete fiber, centred at its start."""
    w = np.log(fiber.measure.weights)[:, None]
    return _posterior_weights(fiber.measure.atoms, fiber.x, w, t, z, scale)


def _posterior_weights(atoms, center, log_prior, t, z, scale):
    """Bridge posterior over a table of atoms, atom-major: shape (k, paths).

    Normalizes exp([<z - c, y_j - c> - t |y_j - c|^2 / 2] / scale + P_j)
    over the atoms y_j for the center c and the log-prior P, of shape
    (k, 1) or (k, paths): one GEMM, then in-place updates and the softmax.
    """
    rel = atoms - center                                # (k, d)
    sq = np.sum(rel ** 2, axis=1)                       # (k,)
    # np.dot, not @: matmul runs a slow non-BLAS loop when d = 1
    q = np.dot(rel, (np.atleast_2d(z) - center).T)      # (k, paths)
    q -= (0.5 * t * sq)[:, None]
    q /= scale
    q += log_prior
    _softmax(q, axis=0)
    return q


def backward_posterior(fiber, t, z):
    """Conditional law of the terminal value given position z at time t.

    Returns the posterior weights over the atoms of the discrete fiber. At
    t = 1 the posterior is a point mass when z matches an atom within 1e-9
    and TerminalAmbiguity is raised otherwise.
    """
    if fiber.kind != "discrete":
        raise StructuralError("backward_posterior needs a discrete fiber")
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise StructuralError("t must lie in [0, 1]")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if t >= 1.0:
        dist = np.linalg.norm(fiber.measure.atoms - z[None, :], axis=1)
        j = int(np.argmin(dist))
        if dist[j] > TERMINAL_ATOL:
            raise TerminalAmbiguity(
                f"terminal position is {dist[j]:.3e} away from every atom")
        return np.eye(fiber.measure.n)[j]
    return _fiber_posterior(fiber, t, z[None, :], 1.0 - t)[:, 0]


def _gaussian_drift_matrix(fiber, t):
    """A_t with u(t, z) = A_t (z - x); an array of times gives the stack of
    their matrices from one batched inverse."""
    eye = np.eye(fiber.dim)
    t = np.asarray(t, dtype=float)[..., None, None]
    return (fiber.delta - eye) @ np.linalg.inv((1.0 - t) * eye + t * fiber.delta)


def fiber_coefficients(fiber, t, z):
    """Drift u(t, z) and volatility sigma(t, z) of the pinned construction.

    Discrete fibers use posterior moments, u = (mean - z)/(1-t) and
    sigma = Cov/(1-t); Gaussian fibers use the closed forms
    u = (Delta - I)((1-t) I + t Delta)^{-1} (z - x) and
    sigma = Delta ((1-t) I + t Delta)^{-1}.
    """
    t = float(t)
    if not 0.0 <= t < 1.0:
        raise StructuralError("coefficients need t in [0, 1)")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if fiber.kind == "gaussian":
        u = _gaussian_drift_matrix(fiber, t) @ (z - fiber.x)
        eye = np.eye(fiber.dim)
        sigma = fiber.delta @ np.linalg.inv((1.0 - t) * eye + t * fiber.delta)
        return u, sigma
    q = _fiber_posterior(fiber, t, z[None, :], 1.0 - t)[:, 0]
    atoms = fiber.measure.atoms
    mean = q @ atoms
    second = (atoms * q[:, None]).T @ atoms
    cov = second - np.outer(mean, mean)
    return (mean - z) / (1.0 - t), cov / (1.0 - t)


@dataclass
class PathEnsemble:
    """Simulated paths of (X, M) on a time grid, with path energies.

    Trajectories are stored at ``grid[stored_idx]``; energies accumulate over
    the full grid. ``law`` is the simulated law, a Coupling or a Gaussian
    FiberModel, and ``fiber_index`` labels the start (the coupling's row)
    each path started from.
    """

    grid: np.ndarray
    stored_idx: np.ndarray
    law: object
    fiber_index: np.ndarray
    terminal: np.ndarray
    M: np.ndarray
    X: np.ndarray
    drift_energy: np.ndarray
    vol_energy: np.ndarray
    seed: int
    method: str

    @property
    def stored_times(self):
        return self.grid[self.stored_idx]

    @property
    def n_paths(self):
        return self.terminal.shape[0]

    def aggregate_energies(self):
        """(drift, volatility) cost of the ensemble.

        The per-start means are combined with mu's weights, which keeps the
        aggregation exact under stratified path counts.
        """
        gaussian = isinstance(self.law, FiberModel)
        drift = vol = 0.0
        for i, w in enumerate([1.0] if gaussian else self.law.mu.weights):
            sel = self.fiber_index == i
            drift += w * np.mean(self.drift_energy[sel])
            vol += w * np.mean(self.vol_energy[sel])
        return float(drift), float(vol)

    def to_csv(self, path, max_paths=None):
        """Long-format export: path_id, t, M..., X..., fiber."""
        d = self.terminal.shape[1]
        times = [repr(t) for t in self.stored_times.tolist()]
        count = self.n_paths if max_paths is None else min(self.n_paths,
                                                           int(max_paths))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            m_cols = ",".join(f"M_{k}" for k in range(d)) if d > 1 else "M"
            x_cols = ",".join(f"X_{k}" for k in range(d)) if d > 1 else "X"
            fh.write(f"path_id,t,{m_cols},{x_cols},fiber\n")
            # one path at a time: Python floats take four times the bytes
            for p, fib in enumerate(self.fiber_index[:count].tolist()):
                for t, mv, xv in zip(times, self.M[p].tolist(),
                                     self.X[p].tolist()):
                    fh.write(f"{p},{t},{','.join(map(repr, mv))},"
                             f"{','.join(map(repr, xv))},{fib}\n")


def _gaussian_vol_energy_increments(delta, grid):
    """Exact per-step integrals of |sigma_t - I|_HS^2 / (2 (1-t)).

    Per eigenvalue lam the antiderivative of (lam-1)^2 (1-t)/((1-t)+t lam)^2
    is -lam/c - log c with c(t) = 1 + t (lam - 1).
    """
    lam = np.linalg.eigvalsh(delta)
    incs = np.zeros(len(grid) - 1)
    for ev in lam:
        c = 1.0 + grid * (ev - 1.0)
        anti = -ev / c - np.log(c)
        incs += np.diff(anti)
    return 0.5 * incs


def _gaussian_drift_energy_increments(delta, grid):
    """Expected per-step drift energies 0.5 dt_k E|u_k|^2, left endpoint.

    u_k = A_k (X_k - x) with Cov X_t = t^2 Delta + t (1-t) I, so per
    eigenvalue lam E|u_t|^2 = (lam-1)^2 t / c(t), c(t) = 1 + t (lam - 1);
    steps that start after TIME_CLIP add nothing, as in the simulator.
    """
    lam = np.linalg.eigvalsh(delta)
    t = grid[:-1, None]
    rate = np.sum((lam - 1.0) ** 2 * t / (1.0 + t * (lam - 1.0)), axis=1)
    return np.where(grid[:-1] <= TIME_CLIP, 0.5 * np.diff(grid) * rate, 0.0)


def simulate_follmer_martingale(fiber, grid=None, n_paths=10_000, seed=42,
                                method="bridge", store_every=1):
    """Simulate (X, M) for one fiber: the mixture over the point mass at x.

    ``method="bridge"`` draws the terminal value and fills in the exact
    Brownian bridge, so the terminal law is exact; ``method="euler"`` runs
    an Euler scheme on dX = u dt + dB instead as an in-law cross-check,
    and its ``terminal`` is the endpoint X. Paths are stored every
    ``store_every`` grid points and at both ends; energies accumulate at
    every step by the left endpoint rule up to t = 1 - 1e-6 (a Gaussian
    fiber's volatility energy exactly per step). A discrete fiber runs as
    the one-row coupling of its start and its terminal law.
    """
    if fiber.kind == "discrete":
        fiber = Coupling(fiber.measure.weights[None, :],
                         DiscreteMeasure([fiber.x], [1.0]), fiber.measure)
    return randomize_over_mu(fiber, grid=grid, n_paths=n_paths, seed=seed,
                             method=method, store_every=store_every)


def randomize_over_mu(law, grid=None, n_paths=10_000, seed=42,
                      method="bridge", store_every=1):
    """Simulate the bridge of a coupling: every path in one time loop.

    ``law`` is a Coupling of (mu, nu) whose rows are the martingale
    conditionals of mu's atoms, as the solve's are; it is not checked
    again. Paths start at mu's atoms, with counts following mu by
    largest-remainder rounding in row order, on one random stream (see the
    module notes). The atom table is nu's m atoms, and a path's log-prior
    is the log of its row's conditional law, -inf where an entry is 0, so
    fibers of disjoint atoms run as one block-diagonal coupling on the
    union of their atoms. A chunk holds at most _CHUNK * s / m paths, s the
    largest row support, so its (k, chunk) arrays stay within one row's,
    and each step computes on the atoms its own rows charge. A Gaussian
    FiberModel runs as its single start. Otherwise as
    ``simulate_follmer_martingale``.
    """
    gaussian = isinstance(law, FiberModel)
    if gaussian:
        starts, mu_w, chunk = law.x[None, :], np.ones(1), _CHUNK
    else:
        starts, mu_w = law.mu.atoms, law.mu.weights
        cond = law.conditionals()
        # nu's atoms in lexsort order, and every row's log-weights on them
        order = np.lexsort(law.nu.atoms.T[::-1])
        atoms = law.nu.atoms[order]
        with np.errstate(divide="ignore"):
            log_w = np.log(cond[:, order])
        chunk = max(_CHUNK * int(np.count_nonzero(cond, axis=1).max())
                    // atoms.shape[0], 1)

    n_paths = int(n_paths)
    base = np.floor(mu_w * n_paths).astype(int)
    short = n_paths - base.sum()
    if short > 0:
        frac = mu_w * n_paths - base
        base[np.argsort(-frac, kind="stable")[:short]] += 1
    if np.any(base == 0):
        raise StructuralError("n_paths too small to give every start a stratum")

    if grid is None:
        grid = np.linspace(0.0, 1.0, 1001)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or grid[0] != 0.0 or grid[-1] > 1.0:
        raise StructuralError("grid must start at 0, end at most at 1")
    if np.any(np.diff(grid) <= 0.0):
        raise StructuralError("grid must be strictly increasing")
    if method not in ("bridge", "euler"):
        raise StructuralError("method must be 'bridge' or 'euler'")
    if int(store_every) < 1:
        raise StructuralError("store_every must be a positive integer")

    k_grid = grid.size
    stored_idx = np.arange(0, k_grid, int(store_every))
    if stored_idx[-1] != k_grid - 1:
        stored_idx = np.append(stored_idx, k_grid - 1)
    stored_pos = {int(g): k for k, g in enumerate(stored_idx)}

    d = starts.shape[1]
    fiber_index = np.repeat(np.arange(starts.shape[0]), base)
    rng = _stream(seed)

    if gaussian:
        chol = np.linalg.cholesky(law.delta)
        drift_mats = _gaussian_drift_matrix(law, np.minimum(grid, TIME_CLIP))
        # deterministic: every path adds the same increments in order
        gauss_vol = 0.0
        for inc in _gaussian_vol_energy_increments(law.delta, grid):
            gauss_vol += inc
    else:
        center = mu_w @ starts
        # the static part P of the logits, atom-major: one column per row
        prior = np.ascontiguousarray(
            (log_w - np.dot(starts - center, (atoms - center).T)).T)
        # per-atom outer products a_k a_k', one row per atom
        outer = (atoms[:, :, None] * atoms[:, None, :]).reshape(-1, d * d)

    M = np.empty((n_paths, stored_idx.size, d))
    X = np.empty((n_paths, stored_idx.size, d))
    terminal = np.empty((n_paths, d))
    drift_energy = np.zeros(n_paths)
    vol_energy = np.zeros(n_paths)

    eye = np.eye(d)
    x0 = starts[0][:, None]
    for lo in range(0, n_paths, chunk):
        hi = min(lo + chunk, n_paths)
        nc = hi - lo
        fi = fiber_index[lo:hi]
        if gaussian:
            y = law.x + rng.standard_normal((nc, d)) @ chol.T
            vol_energy[lo:hi] = gauss_vol
        else:
            u = rng.random(nc)
            y = np.empty((nc, d))
            for i in range(fi[0], fi[-1] + 1):    # one run per row
                a, b = np.searchsorted(fi, [i, i + 1])
                y[a:b] = _atoms_at(law.nu.atoms, cond[i], u[a:b])
            # the atoms this chunk's rows charge, and the log-prior per path
            cols = np.flatnonzero(np.isfinite(prior[:, fi[0]:fi[-1] + 1])
                                  .any(axis=1))
            rel = atoms[cols] - center
            sq = np.sum(rel ** 2, axis=1)
            # rows 1, y' and vec(y y')' over the atoms: one product gives the
            # normalizer, the mean and the second moments
            moments = np.vstack([np.ones(cols.size), atoms[cols].T,
                                 outer[cols].T])
            log_prior = np.take(prior[cols], fi, axis=1)    # the one (k, chunk)
            logits = np.empty((cols.size, nc))
            mom = np.empty((1 + d + d * d, nc))
        # Euler never reads y but draws it all the same, so both methods
        # share one random stream; it reports its own endpoint instead
        if method == "bridge":
            terminal[lo:hi] = y
        # path state is coordinate-major, (d, nc), as are the table bytes;
        # a discrete fiber's normals are drawn path-major
        y = np.ascontiguousarray(y.T)
        x_cur = np.ascontiguousarray(starts[fi].T)
        # a lazy reader: only a Gaussian fiber takes its bytes
        levels = _byte_levels(rng, k_grid - 1, d * nc)
        step = np.empty((d, nc))

        for k, t in enumerate(grid):
            last = k == k_grid - 1
            pos = stored_pos.get(k)
            # martingale value and coefficients at the current point
            t_eff = min(t, TIME_CLIP)
            inv = 1.0 / (1.0 - t_eff)
            if method == "bridge" and t >= 1.0:
                # terminal pinning: the bridge hits the drawn terminal by
                # construction, so snap away the last-step rounding
                x_cur = y.copy()
                m_cur = y
            elif gaussian:
                u_cur = np.dot(drift_mats[k], x_cur - x0)
                if pos is not None:
                    m_cur = x_cur + (1.0 - t_eff) * u_cur
            else:
                # logits <y - c, z - c>/(1-t) - t |y - c|^2 / (2(1-t)) + P
                np.subtract(x_cur, center[:, None], out=step)
                np.dot(rel * inv, step, out=logits)
                logits += (sq * (-0.5 * t_eff * inv))[:, None]
                logits += log_prior
                logits -= logits.max(axis=0)
                np.exp(logits, out=logits)
                np.dot(moments, logits, out=mom)
                mom[1:] *= 1.0 / mom[0]
                # the prior mean is the start itself: take it exactly
                m_cur = mom[1:d + 1] if t > 0.0 else x_cur.copy()
                u_cur = (m_cur - x_cur) * inv

            if pos is not None:
                M[lo:hi, pos] = m_cur.T
                X[lo:hi, pos] = x_cur.T

            if last:
                break
            dt = grid[k + 1] - grid[k]

            # energies, left endpoint, clipped near the terminal time
            if t <= TIME_CLIP:
                drift_energy[lo:hi] += 0.5 * dt * np.einsum("ip,ip->p",
                                                            u_cur, u_cur)
                if not gaussian:
                    # |Cov/(1-t) - I|^2 from the second moments of q
                    dev = mom[d + 1:]
                    dev -= (m_cur[:, None, :]
                            * m_cur[None, :, :]).reshape(d * d, nc)
                    dev *= inv
                    dev -= eye.reshape(d * d, 1)
                    vol_energy[lo:hi] += (0.5 * dt * inv
                                          * np.einsum("ip,ip->p", dev, dev))

            if method == "bridge":
                rem = 1.0 - t
                np.subtract(y, x_cur, out=step)
                step *= dt / rem
                x_cur += step
                scale = math.sqrt(dt * (1.0 - grid[k + 1]) / rem)
            else:
                u_cur *= dt
                x_cur += u_cur
                scale = math.sqrt(dt)
            x_cur += (np.take(scale * _QUANTILES, next(levels).reshape(d, nc))
                      if gaussian else scale * rng.standard_normal((nc, d)).T)
        if method == "euler":
            terminal[lo:hi] = x_cur.T

    return PathEnsemble(grid=grid, stored_idx=stored_idx, law=law,
                        fiber_index=fiber_index, terminal=terminal, M=M, X=X,
                        drift_energy=drift_energy, vol_energy=vol_energy,
                        seed=int(seed), method=method)


@dataclass(frozen=True)
class BijectionReport:
    cost_drift: float
    cost_mart: float
    rel_discrepancy: float


def phi_bijection_check(ensemble):
    """Drift-cost versus volatility-cost comparison on one ensemble.

    The pinned construction and its drift representation carry the same
    cost, so the ensemble's mean drift energy and mean weighted volatility
    energy must agree up to Monte Carlo and discretization error.
    """
    cost_drift, cost_mart = ensemble.aggregate_energies()
    rel = abs(cost_drift - cost_mart) / max(1.0, abs(cost_mart))
    return BijectionReport(cost_drift=cost_drift, cost_mart=cost_mart,
                           rel_discrepancy=rel)


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# log k! - (k + 1/2) log k + k - log(2 pi) / 2 for k = 1..15, where the
# log-gamma difference loses nothing; entry 0 is never read
_STIRLING_SMALL = np.array(
    [0.0] + [math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k
             - _HALF_LOG_2PI for k in range(1, 16)])
# a binomial tail is summed until its terms fall below e^-_TAIL_DEPTH times
# the term at the count
_TAIL_DEPTH = 45.0


def _stirling_error(k):
    """log k! - (k + 1/2) log k + k - log(2 pi) / 2 for integers k >= 1:
    a table up to 15, the asymptotic series beyond (Loader 2000)."""
    k = np.asarray(k, dtype=float)
    k2 = k * k
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * k2))
                                   / k2) / k2) / k2) / k
    return np.where(k <= 15, _STIRLING_SMALL[np.minimum(k, 15).astype(int)],
                    series)


def _binomial_log_pmf(c, n, w):
    """log P(X = c) for X ~ Binomial(n, w), n >= 1 and 0 < w < 1, in
    Loader's saddle-point form, where no log-factorials of size n cancel."""
    a, b = n * w, n * (1.0 - w)
    x, y = np.maximum(c, 1), np.maximum(n - c, 1)  # c = 0 and c = n below
    inner = (_stirling_error(n) - _stirling_error(x) - _stirling_error(y)
             - (x * np.log(x / a) + a - x) - (y * np.log(y / b) + b - y)
             + 0.5 * np.log(n / (x * y)) - _HALF_LOG_2PI)
    return np.where(c == 0, n * np.log1p(-w),
                    np.where(c == n, n * np.log(w), inner))


def _binomial_tails(counts, n, weights):
    """min(P(X <= c), P(X >= c)) for X ~ Binomial(n, w), per count c and
    weight w.

    The tail T that runs away from the mode (the lower one when
    c <= (n + 1) w) falls from its term at c, and log-concavely: each step
    lowers log pmf by at least 4 / (n + 2) more than the step before. So T
    is summed in log space over the J = sqrt(22.5 (n + 2)) + 1 terms past c,
    the last of them below e^-45 pmf(c), with pmf(c) from
    ``_binomial_log_pmf``; the other tail is 1 - T + pmf(c). The error is a
    few ulp per step plus at most n e^-45 relative for the terms cut.
    """
    c = np.asarray(counts)
    w = np.asarray(weights, dtype=float)
    if n == 0:
        return np.ones(c.shape)
    sure = w == 1.0  # X = n surely
    w = np.where(sure, 0.5, w)
    log_pmf = _binomial_log_pmf(c, n, w)
    down = (c <= (n + 1) * w)[:, None]
    depth = math.ceil(math.sqrt(_TAIL_DEPTH / 2.0 * (n + 2))) + 1
    # the term each step leaves, and the ratio of the next term to it
    k = c[:, None] + np.where(down, -1, 1) * np.arange(min(n, depth))
    num = np.where(down, k, n - k)
    den = np.where(down, n - k + 1, k + 1)
    odds = np.log(w) - np.log1p(-w)
    inside = num > 0
    rel = np.cumsum(np.log(np.where(inside, num / den, 1.0))
                    + np.where(down, -odds[:, None], odds[:, None]), axis=1)
    rel[~inside] = -np.inf
    t = np.exp(log_pmf + np.log1p(np.exp(rel).sum(axis=1)))
    tails = np.minimum(t, 1.0 - t + np.exp(log_pmf))
    return np.where(sure, (c == n).astype(float), tails)


@dataclass(frozen=True)
class LawCheckReport:
    terminal_binom_min_p: float     # None without a discrete bridge law
    max_mean_dev_se: float
    passing: bool


def law_checks(ensemble):
    """Monte Carlo checks of the ensemble's law that fail when it is wrong.

    Terminal atoms (a coupling's rows, bridge ensembles): for each start
    and each atom its row charges, the two-sided exact binomial tail of the
    terminal count is at least TERMINAL_MIN_P; a terminal off those atoms
    counts as tail 0. An Euler endpoint lies off the atoms by its
    discretization error, so Euler ensembles skip this test. Martingale
    mean (every start): at each stored t < 1 and per coordinate,
    |mean M_t - x| <= 5 std / sqrt(n) + 1e-12 (1 + |x|), with std that of
    the start's terminal law, which bounds the spread of M_t at every t; the
    report gives the largest excess over the 1e-12 slack in standard errors.
    """
    law = ensemble.law
    if isinstance(law, FiberModel):
        rows = [(law.x, None, np.diag(law.delta))]
    else:
        atoms = law.nu.atoms
        rows = [(x, w, w @ (atoms - x) ** 2)
                for x, w in zip(law.mu.atoms, law.conditionals())]
    min_p = None
    worst = 0.0
    live = ensemble.stored_times < 1.0
    for i, (x, w, var) in enumerate(rows):
        sel = ensemble.fiber_index == i
        n = int(np.count_nonzero(sel))
        if w is not None and ensemble.method == "bridge":
            term = ensemble.terminal[sel]
            pos = w > 0.0
            counts = np.array([np.count_nonzero(np.all(term == a, axis=1))
                               for a in atoms[pos]])
            p = float(min(1.0, 2.0 * _binomial_tails(counts, n, w[pos]).min()))
            if counts.sum() != n:
                p = 0.0
            min_p = p if min_p is None else min(min_p, p)
        # Var M_t <= Var M_1, so the terminal law's spread bounds every t
        se = np.sqrt(var / n)
        # one GEMV with the start's indicator: no copy of the stored paths
        flat = sel.astype(float) @ ensemble.M.reshape(len(sel), -1)
        mean = flat.reshape(ensemble.M.shape[1:])[live] / n
        excess = np.maximum(np.abs(mean - x) - 1e-12 * (1.0 + np.abs(x)), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(excess > 0.0, excess / se, 0.0)
        worst = max(worst, float(ratio.max(initial=0.0)))
    passing = (worst <= MEAN_SE_BOUND
               and (min_p is None or min_p >= TERMINAL_MIN_P))
    return LawCheckReport(terminal_binom_min_p=min_p, max_mean_dev_se=worst,
                          passing=passing)
