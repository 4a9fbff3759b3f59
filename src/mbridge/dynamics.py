"""Simulation of the martingale that transports one marginal to another
through a Brownian pinning construction.

A fiber is a start point x together with its terminal conditional law m_x
(discrete atoms or N(x, Delta)). Conditionally on the terminal draw Y ~ m_x,
the drifted process X is a Brownian bridge from (0, x) to (1, Y), which is
exact at the grid times. The martingale is the conditional mean

    M_t = E[Y | X_t] = X_t + (1 - t) u_t(X_t),

where u is the drift of X in its own filtration. The bridge over mu is one
process started at x_i ~ mu, a single fiber the case of one start. Discrete
fibers share one table of atoms y_j (weight 0 where a fiber lacks one); by
Bayes a path started at x_i has the backward posterior

    q_j(t, z)  propto  exp( [ <z - c, y_j - c> - t |y_j - c|^2 / 2 ]
                            / (s^2 (1 - t))  +  P_ij ),
    P_ij = log m_{x_i}(y_j) - <x_i - c, y_j - c> / s^2,

with reference volatility s and one center c, the barycenter of mu. Then
u = (mean(q) - z)/(1 - t) and sigma_t = Cov(q)/(1 - t); for a Gaussian
fiber both are linear and closed-form. Path energies accumulate the drift
cost |u|^2/2 and the volatility cost |sigma - I|^2 / (2 (1 - t)), the
latter exactly per step for a Gaussian fiber.

Layout of the step kernel: the posterior is atom-major, shape (k, paths),
and the path state, drift and mean are coordinate-major, shape (d, paths),
so every reduction (softmax, moments, energies) runs over a short leading
axis while the elementwise work runs along the long contiguous paths axis;
temporaries are updated in place. The softmax is ``measures._softmax``, the
normalizer of the solver's conditionals, and a Gaussian fiber's covariance
passes the one SPD check of ``measures``. All draws come from the one
stream Philox(key=seed), chunk by chunk: one uniform per path, in path
order, for its terminal atom (a Gaussian fiber: one normal row), then one
path-major (paths, d) normal block per step. With this layout the kernels
are bound by the normal draws, and the Wonham Euler loop of ``filtering``
almost entirely so. Measured back to back on one thread of a 2-core Xeon
(Python 3.11, numpy 2.4), Philox ``standard_normal`` took 21-25 ns per
draw and a whole Euler step 26-28 ns per path-step; on both cores the
40,000-path, 4000-step check ran at 14-17 ns per path-step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import bdtr, bdtrc

from .errors import StructuralError, TerminalAmbiguity
from .measures import (DiscreteMeasure, _softmax, _spd_matrix,
                       barycenter_and_moments)

TIME_CLIP = 1.0 - 1e-6
TERMINAL_ATOL = 1e-9
_CHUNK = 32768
TERMINAL_MIN_P = 1e-7
MEAN_SE_BOUND = 5.0


@dataclass(frozen=True)
class FiberModel:
    """Start point plus terminal conditional law, with reference volatility."""

    x: np.ndarray
    measure: DiscreteMeasure = None     # discrete terminal law, or
    delta: np.ndarray = None            # Gaussian increment covariance
    sigma_ref: float = 1.0

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        object.__setattr__(self, "x", x)
        if self.sigma_ref <= 0.0:
            raise StructuralError("reference volatility must be positive")
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
    def discrete(x, measure, sigma_ref=1.0):
        return FiberModel(x=x, measure=measure, sigma_ref=sigma_ref)

    @staticmethod
    def gaussian(x, delta, sigma_ref=1.0):
        return FiberModel(x=x, delta=delta, sigma_ref=sigma_ref)


def _atoms_at(measure, u):
    """Atoms of a discrete measure at the uniforms ``u``, by inverse CDF."""
    cum = np.cumsum(measure.weights)
    idx = np.searchsorted(cum, u, side="right")
    return measure.atoms[idx.clip(max=len(cum) - 1)]


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
    return _fiber_posterior(fiber, t, z[None, :],
                            fiber.sigma_ref ** 2 * (1.0 - t))[:, 0]


def _gaussian_drift_matrix(fiber, t):
    """A_t with u(t, z) = A_t (z - x), for reference volatility one."""
    d = fiber.dim
    eye = np.eye(d)
    return (fiber.delta - eye) @ np.linalg.inv((1.0 - t) * eye + t * fiber.delta)


def fiber_coefficients(fiber, t, z):
    """Drift u(t, z) and volatility sigma(t, z) of the pinned construction.

    Discrete fibers use posterior moments, u = (mean - z)/(1-t) and
    sigma = Cov/(1-t); Gaussian fibers use the closed forms
    u = (Delta - I)((1-t) I + t Delta)^{-1} (z - x) and
    sigma = Delta ((1-t) I + t Delta)^{-1}. Reference volatility must be one.
    """
    if fiber.sigma_ref != 1.0:
        raise StructuralError("coefficients are defined at reference volatility one")
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
    the full grid. ``fiber_index`` labels the fiber each path started from
    and ``mu_weights`` holds the fibers' weights, [1.0] for a single fiber.
    """

    grid: np.ndarray
    stored_idx: np.ndarray
    fibers: list
    fiber_index: np.ndarray
    terminal: np.ndarray
    M: np.ndarray
    X: np.ndarray
    drift_energy: np.ndarray
    vol_energy: np.ndarray
    seed: int
    method: str
    sigma_ref: float
    mu_weights: np.ndarray

    @property
    def stored_times(self):
        return self.grid[self.stored_idx]

    @property
    def n_paths(self):
        return self.terminal.shape[0]

    def aggregate_energies(self):
        """(drift, volatility) cost of the ensemble.

        The fiber means are combined with the declared marginal weights,
        which keeps the aggregation exact under stratified path counts.
        """
        drift = vol = 0.0
        for i, w in enumerate(self.mu_weights):
            sel = self.fiber_index == i
            drift += w * np.mean(self.drift_energy[sel])
            vol += w * np.mean(self.vol_energy[sel])
        return float(drift), float(vol)

    def to_csv(self, path, max_paths=None):
        """Long-format export: path_id, t, M..., X..., fiber."""
        d = self.terminal.shape[1]
        times = self.stored_times
        count = self.n_paths if max_paths is None else min(self.n_paths,
                                                           int(max_paths))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            m_cols = ",".join(f"M_{k}" for k in range(d)) if d > 1 else "M"
            x_cols = ",".join(f"X_{k}" for k in range(d)) if d > 1 else "X"
            fh.write(f"path_id,t,{m_cols},{x_cols},fiber\n")
            for p in range(count):
                fib = int(self.fiber_index[p])
                for k, t in enumerate(times):
                    mv = ",".join(repr(float(v)) for v in self.M[p, k])
                    xv = ",".join(repr(float(v)) for v in self.X[p, k])
                    fh.write(f"{p},{repr(float(t))},{mv},{xv},{fib}\n")


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


def simulate_follmer_martingale(fiber, grid=None, n_paths=10_000, seed=42,
                                method="bridge", store_every=1):
    """Simulate (X, M) for one fiber: the mixture over the point mass at x.

    ``method="bridge"`` draws the terminal value and fills in the exact
    Brownian bridge, so the terminal law is exact; ``method="euler"`` runs
    an Euler scheme on dX = u dt + s dB instead as an in-law cross-check,
    and its ``terminal`` is the endpoint X. Paths are stored every
    ``store_every`` grid points and at both ends; energies accumulate at
    every step by the left endpoint rule up to t = 1 - 1e-6 (a Gaussian
    fiber's volatility energy exactly per step).
    """
    return randomize_over_mu(DiscreteMeasure([fiber.x], [1.0]), [fiber],
                             grid=grid, n_paths=n_paths, seed=seed,
                             method=method, store_every=store_every)


def randomize_over_mu(mu, fibers, grid=None, n_paths=10_000, seed=42,
                      nu=None, method="bridge", store_every=1):
    """Simulate the bridge started from mu: every path in one time loop.

    Path counts follow mu by largest-remainder rounding, in fiber order, on
    one atom table and one random stream (see the module notes). Memory
    and cost grow with that table, the union of the fibers' K atoms: a
    chunk holds at most _CHUNK * m / K paths, m the most atoms of one
    fiber, so its (k, chunk) arrays stay within one fiber's, and each step
    computes on the atoms of the chunk's own fibers only. Fibers that share
    no atoms therefore run in shorter chunks. A Gaussian fiber runs alone. A passed ``nu`` must match the mixture of the fibers' laws
    within 1e-9. Otherwise as ``simulate_follmer_martingale``.
    """
    if len(fibers) != mu.n:
        raise StructuralError("need one fiber per mu atom")
    for i, fib in enumerate(fibers):
        if np.max(np.abs(fib.x - mu.atoms[i])) > 1e-12:
            raise StructuralError(f"fiber {i} does not start at mu atom {i}")
    gaussian = any(fib.kind == "gaussian" for fib in fibers)
    if gaussian and (mu.n > 1 or nu is not None):
        raise StructuralError("mixtures need discrete fibers")
    if len({fib.sigma_ref for fib in fibers}) > 1:
        raise StructuralError("fibers must share one reference volatility")
    chunk = _CHUNK
    if not gaussian:
        # the fibers' atoms, each once and in lexsort order, and every
        # fiber's log-weights on them, -inf where it lacks one
        atoms, col = np.unique(np.concatenate([f.measure.atoms
                                               for f in fibers]),
                               axis=0, return_inverse=True)
        chunk = max(_CHUNK * max(f.measure.n for f in fibers)
                    // atoms.shape[0], 1)
        log_w = np.full((mu.n, atoms.shape[0]), -np.inf)
        log_w[np.repeat(np.arange(mu.n), [f.measure.n for f in fibers]),
              col.ravel()] = np.log(np.concatenate([f.measure.weights
                                                    for f in fibers]))
    if nu is not None:
        kb = np.lexsort(nu.atoms.T[::-1])
        if (atoms.shape != nu.atoms.shape
                or np.max(np.linalg.norm(atoms - nu.atoms[kb], axis=1)) > 1e-9
                or np.max(np.abs(mu.weights @ np.exp(log_w)
                                 - nu.weights[kb])) > 1e-9):
            raise StructuralError("fiber mixture does not match the declared nu")

    n_paths = int(n_paths)
    base = np.floor(mu.weights * n_paths).astype(int)
    short = n_paths - base.sum()
    if short > 0:
        frac = mu.weights * n_paths - base
        base[np.argsort(-frac, kind="stable")[:short]] += 1
    if np.any(base == 0):
        raise StructuralError("n_paths too small to give every fiber a stratum")

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

    fiber = fibers[0]
    d = fiber.dim
    sig = fiber.sigma_ref
    fiber_index = np.repeat(np.arange(mu.n), base)
    starts = np.array([f.x for f in fibers])
    rng = np.random.Generator(np.random.Philox(key=seed))

    if method == "euler" and sig != 1.0:
        raise StructuralError("euler cross-check runs at reference volatility one")

    if gaussian:
        chol = np.linalg.cholesky(fiber.delta)
        if sig == 1.0:
            drift_mats = [_gaussian_drift_matrix(fiber, min(t, TIME_CLIP))
                          for t in grid]
            # deterministic: every path adds the same increments in order
            gauss_vol = 0.0
            for inc in _gaussian_vol_energy_increments(fiber.delta, grid):
                gauss_vol += inc
        prec_inv = np.linalg.inv(fiber.delta)
    else:
        center = mu.weights @ starts
        # the static part P of the logits, atom-major: one column per fiber
        prior = np.ascontiguousarray(
            (log_w - np.dot(starts - center, (atoms - center).T)
             / sig ** 2).T)
        # per-atom outer products a_k a_k', one row per atom
        outer = (atoms[:, :, None] * atoms[:, None, :]).reshape(-1, d * d)

    M = np.empty((n_paths, stored_idx.size, d))
    X = np.empty((n_paths, stored_idx.size, d))
    terminal = np.empty((n_paths, d))
    # energies are defined at reference volatility one
    drift_energy = np.full(n_paths, 0.0 if sig == 1.0 else np.nan)
    vol_energy = drift_energy.copy()

    eye = np.eye(d)
    x0 = fiber.x[:, None]
    for lo in range(0, n_paths, chunk):
        hi = min(lo + chunk, n_paths)
        nc = hi - lo
        fi = fiber_index[lo:hi]
        if gaussian:
            y = fiber.x + rng.standard_normal((nc, d)) @ chol.T
            if sig == 1.0:
                vol_energy[lo:hi] = gauss_vol
        else:
            u = rng.random(nc)
            y = np.empty((nc, d))
            for i in range(fi[0], fi[-1] + 1):    # one run per fiber
                a, b = np.searchsorted(fi, [i, i + 1])
                y[a:b] = _atoms_at(fibers[i].measure, u[a:b])
            # the atoms of this chunk's fibers, and their log-prior per path
            cols = np.flatnonzero(np.isfinite(prior[:, fi[0]:fi[-1] + 1])
                                  .any(axis=1))
            table, table_outer = atoms[cols], outer[cols]
            log_prior = np.take(prior[cols], fi, axis=1)    # the one (k, chunk)
        # Euler never reads y but draws it all the same, so both methods
        # share one random stream; it reports its own endpoint instead
        if method == "bridge":
            terminal[lo:hi] = y
        # path state is coordinate-major, (d, nc); noise is drawn path-major
        y = np.ascontiguousarray(y.T)
        x_cur = np.ascontiguousarray(starts[fi].T)
        noise = np.empty((nc, d))
        step = np.empty((d, nc))

        for k, t in enumerate(grid):
            last = k == k_grid - 1
            # martingale value and coefficients at the current point
            t_eff = min(t, TIME_CLIP)
            if method == "bridge" and t >= 1.0:
                # terminal pinning: the bridge hits the drawn terminal by
                # construction, so snap away the last-step rounding
                x_cur = y.copy()
                m_cur = y
                u_cur = None
            elif gaussian:
                if sig == 1.0:
                    u_cur = drift_mats[k] @ (x_cur - x0)
                    m_cur = x_cur + (1.0 - t_eff) * u_cur
                else:
                    prec = (t_eff / (sig ** 2 * (1.0 - t_eff))) * eye + prec_inv
                    cov_q = np.linalg.inv(prec)
                    m_cur = x0 + cov_q @ ((x_cur - x0)
                                          / (sig ** 2 * (1.0 - t_eff)))
                    u_cur = None
            else:
                q = _posterior_weights(table, center, log_prior, t_eff,
                                       x_cur.T, sig ** 2 * (1.0 - t_eff))
                # the prior mean is the start itself: take it exactly
                m_cur = table.T @ q if t > 0.0 else x_cur.copy()
                u_cur = (m_cur - x_cur) / (1.0 - t_eff)

            if k in stored_pos:
                M[lo:hi, stored_pos[k]] = m_cur.T
                X[lo:hi, stored_pos[k]] = x_cur.T

            if last:
                break
            dt = grid[k + 1] - grid[k]

            # energies, left endpoint, clipped near the terminal time
            if sig == 1.0 and t <= TIME_CLIP:
                drift_energy[lo:hi] += 0.5 * dt * np.einsum("ip,ip->p",
                                                            u_cur, u_cur)
                if not gaussian:
                    # |Cov/(1-t) - I|^2 from the second moments of q
                    dev = table_outer.T @ q
                    dev -= (m_cur[:, None, :]
                            * m_cur[None, :, :]).reshape(d * d, nc)
                    dev /= 1.0 - t
                    dev -= eye.reshape(d * d, 1)
                    vol_energy[lo:hi] += (dt / (2.0 * (1.0 - t))
                                          * np.einsum("ip,ip->p", dev, dev))

            rng.standard_normal(out=noise)
            if method == "bridge":
                rem = 1.0 - t
                np.subtract(y, x_cur, out=step)
                step *= dt / rem
                x_cur += step
                noise *= sig * math.sqrt(dt * (1.0 - grid[k + 1]) / rem)
            else:
                u_cur *= dt
                x_cur += u_cur
                noise *= sig * math.sqrt(dt)
            x_cur += noise.T
        if method == "euler":
            terminal[lo:hi] = x_cur.T

    return PathEnsemble(grid=grid, stored_idx=stored_idx, fibers=list(fibers),
                        fiber_index=fiber_index, terminal=terminal, M=M, X=X,
                        drift_energy=drift_energy, vol_energy=vol_energy,
                        seed=int(seed), method=method, sigma_ref=sig,
                        mu_weights=mu.weights.copy())


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


@dataclass(frozen=True)
class LawCheckReport:
    terminal_binom_min_p: float     # None without a discrete bridge fiber
    max_mean_dev_se: float
    passing: bool


def law_checks(ensemble):
    """Monte Carlo checks of the ensemble's law that fail when it is wrong.

    Terminal atoms (discrete fibers, bridge ensembles): for each fiber and
    atom, the two-sided exact binomial tail of the terminal count is at
    least TERMINAL_MIN_P; a terminal off every atom counts as tail 0. An
    Euler endpoint lies off the atoms by its discretization error, so Euler
    ensembles skip this test. Martingale mean (every fiber): at each stored
    t < 1 and per coordinate,
    |mean M_t - x| <= 5 std / sqrt(n) + 1e-12 (1 + |x|), with std that of
    the fiber's terminal law, which bounds the spread of M_t at every t; the
    report gives the largest excess over the 1e-12 slack in standard errors.
    """
    min_p = None
    worst = 0.0
    live = ensemble.stored_times < 1.0
    for i, fib in enumerate(ensemble.fibers):
        sel = ensemble.fiber_index == i
        n = int(np.count_nonzero(sel))
        if fib.kind == "discrete":
            w = fib.measure.weights
            if ensemble.method == "bridge":
                term = ensemble.terminal[sel]
                counts = np.array([np.count_nonzero(np.all(term == a, axis=1))
                                   for a in fib.measure.atoms])
                tail = np.minimum(bdtr(counts, n, w), bdtrc(counts - 1, n, w))
                p = float(min(1.0, 2.0 * tail.min()))
                if counts.sum() != n:
                    p = 0.0
                min_p = p if min_p is None else min(min_p, p)
            var = w @ (fib.measure.atoms - fib.x) ** 2
        else:
            var = np.diag(fib.delta)
        # Var M_t <= Var M_1, so the terminal law's spread bounds every t
        se = np.sqrt(var / n)
        # one GEMV with the fiber's indicator: no copy of the stored paths
        flat = sel.astype(float) @ ensemble.M.reshape(len(sel), -1)
        mean = flat.reshape(ensemble.M.shape[1:])[live] / n
        excess = np.maximum(np.abs(mean - fib.x)
                            - 1e-12 * (1.0 + np.abs(fib.x)), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(excess > 0.0, excess / se, 0.0)
        worst = max(worst, float(ratio.max(initial=0.0)))
    passing = (worst <= MEAN_SE_BOUND
               and (min_p is None or min_p >= TERMINAL_MIN_P))
    return LawCheckReport(terminal_binom_min_p=min_p, max_mean_dev_se=worst,
                          passing=passing)
