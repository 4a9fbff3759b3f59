"""Entropic martingale-transport solver.

The primal problem minimizes H(m | mu x nu) over martingale couplings m of a
pair (mu, nu) in convex order. The optimizer has a Gibbs density

    m_ij = mu_i nu_j exp(phi_i + psi_j + <h_i, y_j - x_i>).

Eliminating the fiber potentials leaves one concave dual in psi alone,

    D(psi) = <nu, psi> + sum_i mu_i phi_i(psi),
    phi_i(psi) = sup_h <h, x_i> - log sum_j nu_j exp(psi_j + <h, y_j>),

whose gradient is nu - cols, the defect of the column sums. Each phi_i and
its maximizer h_i come from a batched damped Newton solve per mu atom
(``_fiber_newton``), which makes the row mass and the conditional barycenter
exact; every conditional is normalized by ``measures._softmax``. Its Armijo
line search scores trial points by value alone (``measures._log_partition``,
no conditionals or gradient) and halves the rejected steps one length at a
time. The fibers of a trial psi start where the accepted point's h block
predicts them: a solved fiber keeps its conditional barycenter at x_i, so
Cov_i dz_i + sum_j c_ij (y_j - b_i) dpsi_j = 0, and the move psi_0 -> psi
shifts z_i by dz_i = -Cov_i^-1 sum_j c_ij (y_j - b_i) (psi_j - psi_0j), the
h half of the joint (psi, h) Newton step (``_predicted_start``). The inner
solve still runs to its gradient tolerance; only its start moves.

The psi dual is climbed by one safeguarded Newton kernel, ``_psi_newton``:
the negative Hessian is diag(cols) - sum_i mu_i c_i c_i' minus the
curvature of the eliminated h block, made solvable by adding the
nu-weighted affine gauge, and the step is damped by an Armijo line search
that treats a failing fiber solve as a rejected step. When the line search
fails, the kernel falls back to the exact column scaling
psi_j <- psi_j - log(cols_j / nu_j), a block-ascent step, so the dual still
rises. Once a step neither raises the dual nor lowers the marginal defect,
the iterate sits at the floating-point floor and the kernel stops.

The fibers live in nu's frame (``measures._frame``): the atoms centred at
nu's barycenter and whitened to unit nu-covariance on the span of their
differences. The problem and its constraints survive an affine map of both
marginals, so every tolerance that decides what is small is read there:
the fiber gradient tolerance, ``H_DIVERGENCE_BOUND`` and
``HESSIAN_CONDITION_CAP``, the martingale half of the stop rule (so the
reported ``martingale_residual`` is in units of nu's spread), the off-hull
test of ``_FiberGeometry.reduce_points``, the slack of the convex-order
test on the line and the mean test below. Only the rounding of the inputs,
at |b| eps, still sees a translation b.

The classical Schroedinger system of ``classical_sinkhorn_sp`` is the same
dual without the h block: phi_i(psi) is a closed-form row log-sum-exp and
the gauge is the constant alone. Its pairing runs against nu's barycenter,
so its exponents do not grow with a translation either.

Both psi-dual solves stop at the fixed cap of ``_MAX_OUTER`` outer
iterations. The inputs, not a knob, keep the solve from burning them: a
pair whose means differ by more than the stop rule could leave (a slack
derived from the tolerance, in nu's frame) is refused with
NotInConvexOrder before the first fiber solve.

The solve certifies itself, so no LP runs before it. A converged Gibbs
coupling whose conditionals all exceed ``CONDITIONAL_FLOOR`` is strictly
positive, hence the witness that the pair is in convex order and that every
mu atom lies in the relative interior of conv(supp nu). By weak duality the
dual is at most the primal, a mutual information bounded by
min(H(mu), H(nu)); a dual iterate above that bound proves that no martingale
coupling exists. Only a solve that does neither (an inner failure, a stall,
the iteration cap, a conditional at the floor) is diagnosed: convex order
first, then the relative interior for all mu atoms. A converged coupling
with a conditional at the floor still witnesses convex order, so only the
interior question is asked of it. On the line both are
read off the potential functions u(t) = E|X - t| with no LP: convex order
is u_mu <= u_nu, which at the extreme atoms says the means agree, and an
atom is interior when it lies strictly between the extreme nu atoms. In
dimension two or more each is one LP.

The variational identity P = SP(mubar, nu) + MCov(mubar, mu), with the base
measure mubar = h#mu, is checked from the same potentials. The classical
solve is warm-started at the martingale psi, and ``mcov_bounds`` brackets
MCov between the value of the pairing (h_i, x_i) and the dual bound of
F(h) = log sum_j nu_j exp(psi_j + <h, y_j>) and its c-transform, which meet
at the optimum. No transport LP runs; ``vp_value`` keeps one for library use.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateFiber, DualDivergence, NotConverged,
                     NotInConvexOrder, NotIrreducible, StructuralError)
from .measures import (Coupling, DiscreteMeasure, _frame, _log_partition,
                       _softmax, check_convex_order, coupling_constraints,
                       linprog, mcov_discrete, primal_value)

# The fiber bounds act in nu's frame (``measures._frame``), so they are
# relative: the cap bounds the condition number of a conditional covariance
# measured against nu's covariance, and a fiber whose whitened dual |z|
# exceeds the divergence bound is diverging toward the boundary of
# conv(supp nu).
HESSIAN_CONDITION_CAP = 1e14
H_DIVERGENCE_BOUND = 1e6
# A fiber on the boundary of conv(supp nu) meets the 1e-12 inner Newton
# tolerance only with off-face mass near 1e-12 / (distance to the face), far
# below this floor; conditionals of pairs in strict convex order sit far above.
CONDITIONAL_FLOOR = 1e-8
# The diagnosis: a point is interior when the relative-interior LP's smallest
# weight exceeds the cut; on the line, convex order holds up to the
# convex-order LP's feasibility tolerance, relative to nu's extent.
_INTERIOR_CUT = 1e-12
_ORDER_SLACK = 1e-10
# The fiber Newton: step cap and gradient tolerance per fiber; the gradient
# is the barycenter defect in nu's frame, in units of nu's spread. Both
# Newton kernels use the Armijo constant and halve the step on a rejection.
_NEWTON_MAX_STEPS = 50
_NEWTON_GRADIENT_TOLERANCE = 1e-12
_ARMIJO = 1e-4
_LINE_SEARCH_STEPS = 30
# The fiber line search: step lengths 2^-k for k < _LINE_SEARCH_LENGTHS.
_LINE_SEARCH_LENGTHS = 60
# The outer iteration cap of both psi-dual solves. Converged solves of
# random, peacock and near-boundary pairs took at most 108 (most under 30);
# unequal means, which ran to any cap, are refused before the solve.
_MAX_OUTER = 200
_FAILURES = (NotIrreducible, NotConverged)


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of the psi-dual Newton solver.

    A solve converges once both the L1 marginal defect and the largest
    conditional drift, measured in nu's frame, fall below ``tolerance``,
    and its duality gap lies within ``gap_bound``. The tolerance also sets
    the largest mean gap the solve accepts (see ``_fixed_point``); the
    outer iteration cap is the fixed ``_MAX_OUTER``.
    """

    tolerance: float = 1e-10

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise StructuralError(
                f"tolerance must be finite and positive, got {self.tolerance}")

    def gap_bound(self, primal):
        """The largest |P - D| of a converged solve with primal value P.

        The gap shrinks with the marginal defect the stop rule allows, so
        the bound follows ``tolerance``, but never below 1e-8 (1 + |P|).
        """
        return max(1e-8, self.tolerance) * (1.0 + abs(primal))


@dataclass(frozen=True)
class PotentialTriple:
    """Gibbs potentials (phi on mu-atoms, psi on nu-atoms, h field on mu-atoms).

    The density exponent is phi_i + psi_j + <h_i, y_j - x_i>. The triple is
    unique only up to an affine shift of psi; producers pin the gauge
    sum_j nu_j psi_j = 0 and sum_j nu_j psi_j y_j = 0.
    """

    phi: np.ndarray
    psi: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        for name in ("phi", "psi", "h"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise StructuralError(f"potential '{name}' must be finite")
            object.__setattr__(self, name, arr)
        if self.phi.ndim != 1 or self.psi.ndim != 1 or self.h.ndim != 2:
            raise StructuralError("potential shapes: phi (n,), psi (m,), h (n, d)")
        if self.h.shape[0] != self.phi.shape[0]:
            raise StructuralError("phi and h disagree on the number of fibers")


@dataclass
class SolveReport:
    """A solve's coupling, potentials and values; ``martingale_residual``
    is the largest conditional barycenter drift in nu's frame."""

    coupling: Coupling
    potentials: PotentialTriple
    primal_value: float
    dual_value: float
    iterations: int
    marginal_residual: float
    martingale_residual: float
    converged: bool
    dual_trace: np.ndarray = field(repr=False, default=None)
    # summed over every fiber solve that returned, trial points included
    inner_steps: int = 0
    backtracks: int = 0


def gauge_normalize(triple, mu, nu):
    """Remove the nu-weighted affine component of psi.

    In nu's frame (``measures._frame``) the constant and the whitened atoms
    y_red are nu-orthonormal, so the component is a + <beta, y_red_j> with
    a = sum_j nu_j psi_j and beta = sum_j nu_j psi_j y_red_j. After
    psi' = psi - a - <beta, y_red>, both sum_j nu_j psi'_j and
    sum_j nu_j psi'_j y_j vanish; with b = basis beta the shift is absorbed
    as phi_i += a + <b, x_i - c> and h_i += b, so the Gibbs density is
    unchanged.
    """
    center, basis, _ = _frame(nu)
    y_red = (nu.atoms - center) @ basis
    weighted = nu.weights * triple.psi
    a, beta = weighted.sum(), weighted @ y_red
    b = basis @ beta
    return PotentialTriple(triple.phi + a + (mu.atoms - center) @ b,
                           triple.psi - a - y_red @ beta, triple.h + b)


def _in_relative_interior(points, nu):
    """One LP: which points are positive convex combinations of the nu atoms.

    Maximizes sum_i t_i s.t. sum_j lam_ij = 1, sum_j lam_ij (y_j - x_i) = 0,
    lam_ij >= t_i. It separates over points, so x_i is interior iff t_i > 0
    (above ``_INTERIOR_CUT``); free weights keep it feasible for points
    outside conv(supp nu).
    """
    n, m = points.shape[0], nu.n
    if m == 1:
        return np.linalg.norm(points - nu.atoms[0], axis=1) <= 1e-12
    from scipy import sparse
    a_eq = coupling_constraints(points, nu.atoms, columns=False)
    a_eq = sparse.hstack([a_eq, sparse.csc_array((a_eq.shape[0], n))])
    b_eq = np.concatenate([np.ones(n), np.zeros(a_eq.shape[0] - n)])
    # t_i - lam_ij <= 0
    a_ub = sparse.hstack([-sparse.eye_array(n * m),
                          sparse.kron(sparse.eye_array(n), np.ones((m, 1)))])
    c = np.concatenate([np.zeros(n * m), -np.ones(n)])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n * m), A_eq=a_eq, b_eq=b_eq,
                  bounds=(None, None), method="highs")
    if not res.success:
        return np.zeros(n, dtype=bool)
    return res.x[n * m:] > _INTERIOR_CUT


def _potential(atoms, weights, points):
    """u(t) = sum_k w_k |a_k - t| of a measure on the line, at ``points``.

    With F and G the cumulative weight and first moment of the sorted atoms
    up to t, u(t) = t (2 F(t) - 1) - 2 G(t) + abar: one sort and one
    ``searchsorted``, no (points, atoms) distance array.
    """
    order = np.argsort(atoms, kind="stable")
    a = atoms[order]
    w = weights[order]
    cum_w = np.concatenate([[0.0], np.cumsum(w)])
    cum_m = np.concatenate([[0.0], np.cumsum(w * a)])
    k = np.searchsorted(a, points, side="right")
    return points * (2.0 * cum_w[k] - 1.0) - 2.0 * cum_m[k] + cum_m[-1]


def _convex_order_1d(mu, nu):
    """Convex order on the line, decided from the potential functions.

    A martingale coupling exists iff the means agree and u_mu <= u_nu. The
    difference u_nu - u_mu is piecewise linear with kinks only at the atoms
    and equals +- the mean difference beyond them, so the atoms of both
    measures are the only points to test, and the test at the two extreme
    atoms is the test of equal means. The atoms are centred at nu's
    barycenter, and the test allows the LP's feasibility slack
    ``_ORDER_SLACK`` times the largest distance of a nu atom from it, which
    also absorbs the rounding where u_mu = u_nu holds exactly.
    """
    center = nu.weights @ nu.atoms[:, 0]
    x, y = mu.atoms[:, 0] - center, nu.atoms[:, 0] - center
    slack = _ORDER_SLACK * float(np.abs(y).max())
    t = np.concatenate([x, y])
    return bool(np.all(_potential(x, mu.weights, t)
                       <= _potential(y, nu.weights, t) + slack))


def _inside_hull_1d(points, nu):
    """The relative-interior test of ``_in_relative_interior`` on the line.

    There the LP's optimal smallest weight is min(1/m, (x - y_min) / sum_j
    (y_j - y_min), (y_max - x) / sum_j (y_max - y_j)), so a point is
    interior iff both distances exceed ``_INTERIOR_CUT`` times those sums.
    A single atom is its own relative interior.
    """
    x = points[:, 0]
    y = nu.atoms[:, 0]
    if nu.n == 1:
        return np.abs(x - y[0]) <= 1e-12
    lo, hi = y.min(), y.max()
    return ((x - lo > _INTERIOR_CUT * float(np.sum(y - lo)))
            & (hi - x > _INTERIOR_CUT * float(np.sum(hi - y))))


def _diagnose(points, nu, mu=None):
    """Raise NotInConvexOrder (given mu) or NotIrreducible if the pair shows
    either; otherwise return, so the caller's answer stands. On the line the
    potential functions decide, elsewhere one LP for each question."""
    line = nu.dim == 1
    if mu is not None and not (_convex_order_1d(mu, nu) if line
                               else check_convex_order(mu, nu)[0]):
        raise NotInConvexOrder("mu and nu admit no martingale coupling")
    inside = (_inside_hull_1d if line else _in_relative_interior)(points, nu)
    if not inside.all():
        raise NotIrreducible(
            f"{'point' if mu is None else 'mu atom'} {int(np.argmin(inside))}"
            " lies outside the relative interior of conv(supp nu)")


class _FiberGeometry:
    """Reduced coordinates for the inner problems over a fixed nu.

    The Newton direction lives in the span of the centered nu atoms; the
    complement of h is pinned to zero. Atom coordinates are stored in nu's
    frame (``measures._frame``): centred at the nu barycenter and whitened,
    so that nu has unit covariance on that span. The dual z of a point in
    these coordinates is h = z basis'.
    """

    def __init__(self, nu):
        self.center, self.basis, self.inverse = _frame(nu)
        self.rank = self.basis.shape[1]
        self.y_red = (nu.atoms - self.center) @ self.basis      # (m, r)
        self.log_nu = np.log(nu.weights)

    def reduce_points(self, x):
        """Map points into reduced coordinates; error if one lies off the
        affine hull by more than 1e-9 of nu's largest spread, the length of
        the first column of ``inverse``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        centered = x - self.center
        x_red = centered @ self.basis
        off = np.linalg.norm(centered - x_red @ self.inverse.T, axis=1)
        if np.any(off > 1e-9 * np.linalg.norm(self.inverse[:, :1])):
            bad = int(np.argmax(off))
            raise NotIrreducible(
                f"point {bad} lies off the affine hull of supp(nu)")
        return x_red

    def embed(self, z):
        return z @ self.basis.T


class _FiberSolve(NamedTuple):
    """The duals, values and conditionals of one batched fiber solve, with
    its Newton steps and the value evaluations of its backtracking."""

    z: np.ndarray
    phi: np.ndarray
    cond: np.ndarray
    steps: int
    backtracks: int


def _fiber_newton(geom, x_red, psi, z0=None):
    """Batched damped Newton for the inner duals over one nu.

    Maximizes g(z) = <z, x> - log sum_j nu_j exp(psi_j + <z, y_j>) in reduced
    coordinates for every row of ``x_red``. Returns a ``_FiberSolve``.

    The Armijo line search tries the full step for every active fiber at
    once, then ``_backtrack`` halves it for the fibers that reject it. Trial
    points need only the value, so they skip the normalized conditionals,
    barycenter and gradient.
    """
    n = x_red.shape[0]
    r = geom.rank
    yr = geom.y_red
    base = geom.log_nu + psi  # (m,)

    z = np.zeros((n, r)) if z0 is None else np.array(z0, dtype=float)

    def value(zc, xs):
        top, total = _log_partition(base[None, :] + zc @ yr.T, axis=1)
        return np.einsum("nr,nr->n", zc, xs) - (top + np.log(total))[:, 0]

    def value_grad(zc, xs):
        cond = base[None, :] + zc @ yr.T
        top, total = _softmax(cond, axis=1)
        val = np.einsum("nr,nr->n", zc, xs) - (top + np.log(total))[:, 0]
        bary = cond @ yr
        return val, xs - bary, cond, bary

    val, grad, cond, bary = value_grad(z, x_red)
    active = _row_norms(grad) > _NEWTON_GRADIENT_TOLERANCE

    steps = backtracks = 0
    for _ in range(_NEWTON_MAX_STEPS):
        if not active.any():
            break
        steps += 1
        idx = np.nonzero(active)[0]
        z_a, x_a, val_a, grad_a = z[idx], x_red[idx], val[idx], grad[idx]
        cond_a = cond[idx]
        bary_a = bary[idx]
        cov = np.einsum("nm,mi,mj->nij", cond_a, yr, yr) \
            - np.einsum("ni,nj->nij", bary_a, bary_a)
        eigs = np.linalg.eigvalsh(cov)
        bad = (eigs[:, 0] <= 0) | (eigs[:, -1] / np.maximum(eigs[:, 0], 1e-300)
                                   > HESSIAN_CONDITION_CAP)
        if not bad.any():
            try:
                step = np.linalg.solve(cov, grad_a[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                # LAPACK may find singular, of unbounded condition number,
                # a covariance whose eigenvalues passed
                bad = eigs[:, 0] == eigs[:, 0].min()
        if bad.any():
            fiber = int(idx[np.nonzero(bad)[0][0]])
            raise DegenerateFiber(
                f"fiber {fiber}: conditional covariance condition number "
                f"exceeds {HESSIAN_CONDITION_CAP:.0e}")
        descent = np.einsum("nr,nr->n", grad_a, step)

        # once the predicted gain falls below the fp resolution of the
        # objective the Armijo test is meaningless; take the pure Newton step
        z_new = z_a + step
        accepted = descent <= 1e-14 * (1.0 + np.abs(val_a))
        accepted |= value(z_new, x_a) >= val_a + _ARMIJO * descent
        rejected = ~accepted
        if rejected.any():
            z_new[rejected], halvings = _backtrack(
                value, z_a[rejected], step[rejected], x_a[rejected],
                val_a[rejected], descent[rejected])
            backtracks += halvings
        z[idx] = z_new

        hn = _row_norms(z_new)
        if (hn > H_DIVERGENCE_BOUND).any():
            fiber = int(idx[np.argmax(hn)])
            raise DualDivergence(
                f"fiber {fiber}: |h| exceeded divergence bound "
                f"{H_DIVERGENCE_BOUND:.0e}")

        val, grad, cond, bary = value_grad(z, x_red)
        active = _row_norms(grad) > _NEWTON_GRADIENT_TOLERANCE

    if active.any():
        raise NotConverged(
            f"inner Newton did not reach gradient tolerance within "
            f"{_NEWTON_MAX_STEPS} steps")
    return _FiberSolve(z, val, cond, steps, backtracks)


def _backtrack(value, z, step, x, val, descent):
    """The points z + 2^-k step at each row's first k >= 1 that passes the
    Armijo test against ``val`` and ``descent``, and the number of halvings.

    ``value(points, x)`` scores the rows still searching, once per halving.
    NotConverged if a row passes at no length below
    ``_LINE_SEARCH_LENGTHS``.
    """
    out = np.empty_like(z)
    rows = np.arange(len(z))
    alpha = 1.0
    for k in range(1, _LINE_SEARCH_LENGTHS):
        alpha *= 0.5
        trial = z + alpha * step
        ok = value(trial, x) >= val + _ARMIJO * alpha * descent
        out[rows[ok]] = trial[ok]
        if ok.all():
            return out, k
        keep = ~ok
        rows, z, step, x, val, descent = (
            a[keep] for a in (rows, z, step, x, val, descent))
    raise NotConverged("inner Newton line search stalled")


def _row_norms(a):
    """Euclidean norm of each row, as ``np.linalg.norm(a, axis=1)``."""
    return np.sqrt(np.add.reduce(a * a, axis=1))


def inner_dual_solve(x, psi, nu, h0=None):
    """Solve sup_h <h, x> - log sum_j nu_j exp(psi_j + <h, y_j>).

    Returns (h, phi_x, conditional) where phi_x is the supremum value and the
    conditional is the tilted measure nu_j exp(psi_j + <h, y_j>) normalized,
    whose barycenter equals x within the Newton gradient tolerance times
    nu's spread. The relative-interior test (closed form on the line, an LP
    in dimension two or more) runs only when Newton fails or leaves a
    conditional at ``CONDITIONAL_FLOOR``.
    """
    nu_ = nu if isinstance(nu, DiscreteMeasure) else DiscreteMeasure(*nu)
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != nu_.dim:
        raise StructuralError("x and nu dimensions differ")
    psi = np.asarray(psi, dtype=float).ravel()
    if psi.shape[0] != nu_.n:
        raise StructuralError("psi must have one value per nu atom")
    geom = _FiberGeometry(nu_)
    x_red = geom.reduce_points(x[None, :])
    z0 = None if h0 is None else (np.asarray(h0, float).reshape(1, -1)
                                  @ geom.inverse)
    try:
        z, phi, cond, _, _ = _fiber_newton(geom, x_red, psi, z0=z0)
    except _FAILURES:
        _diagnose(x[None, :], nu_)
        raise
    if cond.min() <= CONDITIONAL_FLOOR:
        _diagnose(x[None, :], nu_)
    return geom.embed(z)[0], float(phi[0]), cond[0]


def dual_value(psi, mu, nu):
    """sum_j nu_j psi_j + sum_i mu_i sup_h [<h, x_i> - log sum_j nu_j e^{psi_j + <h, y_j>}]."""
    psi = np.asarray(psi, dtype=float).ravel()
    geom = _FiberGeometry(nu)
    x_red = geom.reduce_points(mu.atoms)
    phi = _fiber_newton(geom, x_red, psi).phi
    return float(nu.weights @ psi + mu.weights @ phi)


def sinkhorn_msb(mu, nu, config=None):
    """Solver for the entropic martingale transport problem.

    Climbs the concave psi dual with the safeguarded Newton kernel of the
    module docstring, each fiber refreshed by an exact inner Newton solve,
    all in log domain. Stops when the total-variation defect of the column
    sums and the martingale residual both fall below the configured
    tolerances; returns a value-bearing report with ``converged=False`` when
    the iteration cap is reached or the dual stalls at the floating-point
    floor instead. The module docstring says when the diagnosis runs; when
    it finds no infeasibility, the report or the original exception stands.
    """
    config = config or SolverConfig()
    if not isinstance(mu, DiscreteMeasure) or not isinstance(nu, DiscreteMeasure):
        raise StructuralError("sinkhorn_msb expects two discrete measures")
    if mu.dim != nu.dim:
        raise StructuralError("marginals have different dimensions")
    try:
        report = _fixed_point(mu, nu, config)
    except _FAILURES:
        _diagnose(mu.atoms, nu, mu)
        raise
    if (not report.converged
            or report.coupling.conditionals().min() <= CONDITIONAL_FLOOR):
        # a converged coupling witnesses convex order itself
        _diagnose(mu.atoms, nu, None if report.converged else mu)
    return report


def _h_block(cond, y_red):
    """The factored h block of the psi dual: (L^-1, G), both (n, r, .).

    C_i = diag(c_i), Yc_i holds the atoms centered at fiber i's barycenter
    and Cov_i = Yc_i' C_i Yc_i = L_i L_i'; G_i = L_i^-1 (C_i Yc_i)'. The
    rows sqrt(mu_i) G_i give the curvature the eliminated block adds to
    the dual, sum_i mu_i G_i' G_i, and (L_i^-1)' G_i dpsi = Cov_i^-1
    (C_i Yc_i)' dpsi is the move of fiber i's dual under dpsi
    (``_predicted_start``). No other code forms Cov_i at an accepted point.
    """
    centered = y_red[None, :, :] - (cond @ y_red)[:, None, :]   # (n, m, r)
    weighted = (cond[:, :, None] * centered).transpose(0, 2, 1)  # (n, r, m)
    factor = np.linalg.inv(np.linalg.cholesky(weighted @ centered))
    return factor, factor @ weighted


class _WarmStart(NamedTuple):
    """An accepted psi, its fibers' duals z and their lazily factored h
    block (a cached ``_h_block``; None when nu has rank 0)."""

    psi: np.ndarray
    z: np.ndarray
    block: object


def _predicted_start(prev, psi):
    """The fiber duals at ``psi`` to first order from the accepted ``prev``.

    A solved fiber keeps its barycenter at x_i, so the move dpsi = psi -
    prev.psi shifts z_i by dz_i = -Cov_i^-1 (C_i Yc_i)' dpsi, the h half of
    the joint (psi, h) Newton step. Fibers whose prediction is not finite,
    and all of them when there is no block or it has no factor, keep prev.z.
    """
    if prev.block is None:
        return prev.z
    try:
        factor, gain = prev.block()
    except np.linalg.LinAlgError:
        return prev.z
    with np.errstate(all="ignore"):
        dz = np.einsum("nri,nr->ni", factor, gain @ (prev.psi - psi))
    return prev.z + np.where(np.isfinite(dz).all(axis=1)[:, None], dz, 0.0)


def _newton_direction(mu_w, cond, cols, curvature, gauge_cols, grad):
    """Ascent direction of the psi dual, or None if its curvature is singular.

    Solves (diag(cols) - sum_i mu_i c_i c_i' - R'R + N N') s = grad, where R
    holds the curvature rows of an eliminated block; both Gram terms come
    from one symmetric product. N N' fills the gauge null space, so s keeps
    the nu-weighted gauge whenever the gradient is orthogonal to it.
    """
    rows = cond * np.sqrt(mu_w)[:, None]
    if curvature is not None:
        try:
            rows = np.concatenate([rows, curvature()])
        except np.linalg.LinAlgError:
            return None
    hess = np.diag(cols) + gauge_cols @ gauge_cols.T - rows.T @ rows
    try:
        step = np.linalg.solve(hess, grad)
    except np.linalg.LinAlgError:
        step = np.linalg.lstsq(hess, grad, rcond=None)[0]
    return step if np.all(np.isfinite(step)) else None


class _DualPoint(NamedTuple):
    """One psi iterate with its fibers, column sums, dual value and L1
    marginal defect."""

    psi: np.ndarray
    phi: np.ndarray
    cond: np.ndarray
    prev: object
    curvature: object
    cols: np.ndarray
    value: float
    marg: float


def _psi_newton(fibers, mu_w, nu_w, gauge, psi, stop, ceiling=math.inf):
    """Safeguarded Newton ascent on D(psi) = <nu, psi> + <mu, phi(psi)>.

    ``fibers(psi, prev)`` returns (phi, cond, prev, curvature): the fiber
    values, the (n, m) conditionals, the warm start of the next call and a
    callable giving the curvature rows of an eliminated block (None if
    there is none; see ``_newton_direction``). ``gauge`` holds the (m, k)
    affine directions that leave D unchanged; ``stop(cols, cond)`` says
    when the iterate is solved. Steps are Armijo-damped, and a trial point
    whose fibers fail is rejected; at the floating-point floor (predicted
    gain <= 1e-14 (1 + |D|)) the pure Newton step is taken, and when the
    line search fails the exact column scaling is. A step that neither
    raises D nor lowers the L1 marginal defect ends the ascent unconverged,
    as does the ``_MAX_OUTER``-th outer iteration. A dual above ``ceiling``
    raises NotInConvexOrder.

    Returns the last accepted ``_DualPoint``, the dual trace (one entry per
    outer iteration) and whether ``stop`` accepted the point.
    """
    gauge_cols = nu_w[:, None] * gauge
    log_nu = np.log(nu_w)

    def evaluate(psi, prev):
        phi, cond, prev, curvature = fibers(psi, prev)
        cols = mu_w @ cond
        return _DualPoint(psi, phi, cond, prev, curvature, cols,
                          float(nu_w @ psi + mu_w @ phi),
                          float(np.abs(cols - nu_w).sum()))

    def attempt(psi, prev):
        try:
            return evaluate(psi, prev)
        except _FAILURES:
            return None

    point = evaluate(psi, None)
    trace = []
    while True:
        trace.append(point.value)
        if point.value > ceiling:
            raise NotInConvexOrder(
                f"dual value {point.value!r} exceeds min(H(mu), H(nu)) (with "
                f"slack, {ceiling!r}) at outer iteration {len(trace)}: no "
                "martingale coupling exists")
        if stop(point.cols, point.cond):
            return point, np.asarray(trace), True
        if len(trace) >= _MAX_OUTER:
            return point, np.asarray(trace), False

        grad = nu_w - point.cols
        step = _newton_direction(mu_w, point.cond, point.cols, point.curvature,
                                 gauge_cols, grad)
        trial = None
        if step is not None:
            gain = float(grad @ step)
            if gain <= 1e-14 * (1.0 + abs(point.value)):
                # Armijo cannot resolve the gain: take the pure Newton step
                trial = attempt(point.psi + step, point.prev)
            else:
                alpha = 1.0
                for _ in range(_LINE_SEARCH_STEPS):
                    cand = attempt(point.psi + alpha * step, point.prev)
                    if (cand is not None and cand.value
                            >= point.value + _ARMIJO * alpha * gain):
                        trial = cand
                        break
                    alpha *= 0.5
        if trial is None:
            # exact block ascent: psi_j -= log(cols_j / nu_j)
            trial = evaluate(point.psi - (np.log(point.cols) - log_nu),
                             point.prev)
        if not (trial.value > point.value or trial.marg < point.marg):
            # the floating-point floor: no step improves either measure
            return point, np.asarray(trace), False
        point = trial


def _fixed_point(mu, nu, config):
    """The psi-dual Newton solve of ``sinkhorn_msb``, without diagnosis.

    Unequal means are refused before the first fiber solve. A solve that
    passes the stop rule leaves a mean gap below the drift tolerance plus
    the L1 column defect times the largest atom, both measured in nu's
    frame; a larger gap proves that no martingale coupling exists. The mean
    of nu is read from its whitened atoms, not taken as 0, since the
    barycenter itself rounds at |c| eps.
    """
    # weak duality: the dual never exceeds the primal <= min(H(mu), H(nu))
    bound = min(float(-(w @ np.log(w))) for w in (mu.weights, nu.weights))
    geom = _FiberGeometry(nu)
    x_red = geom.reduce_points(mu.atoms)
    gap = np.linalg.norm(mu.weights @ x_red - nu.weights @ geom.y_red)
    if gap > config.tolerance * (1.0 + _row_norms(geom.y_red).max()):
        raise NotInConvexOrder(
            f"the means differ by {gap:.3e} of nu's spread: no martingale "
            "coupling exists")

    sqrt_mu = np.sqrt(mu.weights)[:, None, None]
    work = [0, 0]   # inner Newton steps and backtracks

    def fibers(psi, prev):
        z0 = None if prev is None else _predicted_start(prev, psi)
        solve = _fiber_newton(geom, x_red, psi, z0=z0)
        work[0] += solve.steps
        work[1] += solve.backtracks
        if not geom.rank:
            # nu is one point: no h block, so nothing to predict
            return solve.phi, solve.cond, _WarmStart(psi, solve.z, None), None
        block = functools.cache(lambda: _h_block(solve.cond, geom.y_red))
        return (solve.phi, solve.cond, _WarmStart(psi, solve.z, block),
                lambda: (sqrt_mu * block()[1]).reshape(-1, nu.n))

    def residuals(cols, cond):
        drift = cond @ geom.y_red - x_red
        return (float(np.abs(cols - nu.weights).sum()),
                float(np.max(np.linalg.norm(drift, axis=1))))

    def stop(cols, cond):
        marg, mart = residuals(cols, cond)
        return marg < config.tolerance and mart < config.tolerance

    gauge = np.column_stack([np.ones(nu.n), geom.y_red])
    point, dual_trace, converged = _psi_newton(
        fibers, mu.weights, nu.weights, gauge, np.zeros(nu.n), stop,
        ceiling=bound + 1e-9 * (1.0 + bound))
    marg, mart = residuals(point.cols, point.cond)

    h = geom.embed(point.prev.z)
    matrix = mu.weights[:, None] * point.cond
    triple = gauge_normalize(PotentialTriple(point.phi, point.psi, h), mu, nu)
    # rows are softmax-normalized, and the stop rule already holds the L1
    # column defect below the tolerance; a 1e-10 check would refuse correct
    # answers at any looser tolerance
    coupling = Coupling(matrix, mu, nu, check=False)

    p_val = primal_value(coupling)
    d_val = float(dual_trace[-1])
    if converged and abs(p_val - d_val) > config.gap_bound(p_val):
        converged = False
    return SolveReport(coupling=coupling, potentials=triple,
                       primal_value=p_val, dual_value=d_val,
                       iterations=len(dual_trace), marginal_residual=marg,
                       martingale_residual=mart, converged=converged,
                       dual_trace=dual_trace, inner_steps=work[0],
                       backtracks=work[1])


def gibbs_coupling(triple, mu, nu):
    """Reassemble the coupling matrix from a potential triple."""
    expo = (triple.phi[:, None] + triple.psi[None, :]
            + np.einsum("id,jd->ij", triple.h, nu.atoms)
            - np.einsum("id,id->i", triple.h, mu.atoms)[:, None])
    return mu.weights[:, None] * nu.weights[None, :] * np.exp(expo)


def classical_sinkhorn_sp(mu_bar, nu, tolerance=None, psi0=None):
    """Static Schroedinger problem inf H(pi | mu_bar x nu) - int <x_bar, y> dpi.

    The pairing runs against nu's barycenter ybar: with
    k_ij = <x_bar_i, y_j - ybar>, which differs from <x_bar_i, y_j> by a row
    constant and so leaves the optimal coupling unchanged, it solves the
    centred system

        sum_j nu_j exp(phibar_i + psi_j + k_ij) = 1   for all i,
        sum_i mubar_i exp(phibar_i + psi_j + k_ij) = 1 for all j

    with the psi-dual Newton kernel of ``sinkhorn_msb``, without the h block:
    phibar is the closed-form row log-sum-exp, so the first equation holds
    exactly, and the kernel drives the second below ``tolerance``. The
    default, max(1e-13, 4 eps max(1, max_ij |k_ij|)), sits above the
    floating-point floor of the exponents, which no longer grows with a
    translation of both measures; a given tolerance is used as is.
    ``psi0`` warm-starts psi; on the base measure extracted from a martingale
    solve, that solve's psi already solves the system.

    Returns (value, coupling, (phibar, psi)); phibar is the potential of the
    centred system, as ``schroedinger_system_residuals`` reads it, and psi
    is centered so that sum_j nu_j psi_j = 0. The value subtracts
    sum_i mubar_i <x_bar_i, ybar> once. Raises NotConverged at the
    ``_MAX_OUTER`` cap or when the ascent stalls above the tolerance.
    """
    if mu_bar.dim != nu.dim:
        raise StructuralError("mu_bar and nu dimensions differ")
    ybar = nu.weights @ nu.atoms
    k = mu_bar.atoms @ (nu.atoms - ybar).T             # (n, m)
    if tolerance is None:
        tolerance = max(1e-13, 4.0 * np.finfo(float).eps
                        * max(1.0, float(np.abs(k).max())))
    log_nu = np.log(nu.weights)

    def fibers(psi, prev):
        cond = log_nu[None, :] + psi[None, :] + k
        top, total = _softmax(cond, axis=1)
        return -(top + np.log(total))[:, 0], cond, None, None

    def stop(cols, cond):
        return float(np.max(np.abs(cols / nu.weights - 1.0))) < tolerance

    psi = np.zeros(nu.n) if psi0 is None else np.array(psi0, dtype=float)
    point, trace, converged = _psi_newton(
        fibers, mu_bar.weights, nu.weights, np.ones((nu.n, 1)), psi, stop)
    if not converged:
        raise NotConverged(
            "classical Schroedinger Newton "
            + ("hit its iteration cap" if len(trace) >= _MAX_OUTER
               else f"stalled after {len(trace)} iterations"))

    # fix the additive gauge
    shift = float(nu.weights @ point.psi)
    psi = point.psi - shift
    phibar = point.phi + shift

    coupling = Coupling(mu_bar.weights[:, None] * point.cond, mu_bar, nu,
                        check=False)
    value = (primal_value(coupling) - float(np.sum(coupling.matrix * k))
             - float(mu_bar.weights @ (mu_bar.atoms @ ybar)))
    return value, coupling, (phibar, psi)


def schroedinger_system_residuals(mu_bar, nu, phibar, psi):
    """Max absolute defect of the two equations of the centred Schroedinger
    system of ``classical_sinkhorn_sp``, whose phibar it takes."""
    k = mu_bar.atoms @ (nu.atoms - nu.weights @ nu.atoms).T
    gibbs = np.exp(phibar[:, None] + psi[None, :] + k)
    first = np.abs(gibbs @ nu.weights - 1.0).max()
    second = np.abs(mu_bar.weights @ gibbs - 1.0).max()
    return float(first), float(second)


def extract_base_measure(report):
    """Push mu forward through the fitted field h: atoms h(x_i), weights mu_i.

    Coincident images (within 1e-12) are merged by the ``DiscreteMeasure``
    constructor, with a warning, since the fitted h is then non-injective on
    the support of mu.
    """
    mu = report.coupling.mu
    base = DiscreteMeasure(report.potentials.h, mu.weights)
    if base.n < mu.n:
        warnings.warn("fitted h is non-injective on supp(mu); "
                      "merged coincident base atoms", RuntimeWarning,
                      stacklevel=2)
    return base


def vp_value(mu_bar, mu, nu):
    """Variational value SP(mu_bar, nu) + MCov(mu_bar, mu) for a base measure."""
    sp, _, _ = classical_sinkhorn_sp(mu_bar, nu)
    mc, _ = mcov_discrete(mu_bar, mu)
    return sp + mc


def mcov_bounds(report, base):
    """Bounds (L, U) with L <= MCov(base, mu) <= U from a solve's potentials.

    ``base`` is ``extract_base_measure(report)``. The pairing (h_i, x_i) is a
    coupling of base and mu, so L = sum_i mu_i <h_i, x_i>. With the convex
    F(h) = log sum_j nu_j exp(psi_j + <h, y_j>) on the base atoms and its
    c-transform F^c(x) = max_k <hbar_k, x> - F(hbar_k), the pair (F, F^c)
    is dual feasible, so U = <mubar, F> + <mu, F^c>. At the optimum
    x_i = grad F(h_i), the pairing is cyclically monotone and U = L.
    """
    mu, nu = report.coupling.mu, report.coupling.nu
    lower = float(mu.weights @ np.einsum("id,id->i", report.potentials.h,
                                         mu.atoms))
    top, total = _softmax(np.log(nu.weights) + report.potentials.psi
                          + base.atoms @ nu.atoms.T, axis=1)
    f = (top + np.log(total))[:, 0]
    transform = (mu.atoms @ base.atoms.T - f).max(axis=1)
    return lower, float(base.weights @ f + mu.weights @ transform)
