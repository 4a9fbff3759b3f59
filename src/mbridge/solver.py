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
exact. The psi dual is climbed by one safeguarded Newton kernel,
``_psi_newton``: the negative Hessian is diag(cols) - sum_i mu_i c_i c_i'
minus the curvature of the eliminated h block, made solvable by adding the
nu-weighted affine gauge, and the step is damped by an Armijo line search
that treats a failing fiber solve as a rejected step. When the line search
fails, the kernel falls back to the exact column scaling
psi_j <- psi_j - log(cols_j / nu_j), a block-ascent step, so the dual still
rises. Once a step neither raises the dual nor lowers the marginal defect,
the iterate sits at the floating-point floor and the kernel stops.

The classical Schroedinger system of ``classical_sinkhorn_sp`` is the same
dual without the h block: phi_i(psi) is a closed-form row log-sum-exp and
the gauge is the constant alone.

The solve certifies itself, so no LP runs before it. A converged Gibbs
coupling whose conditionals all exceed ``CONDITIONAL_FLOOR`` is strictly
positive, hence the witness that the pair is in convex order and that every
mu atom lies in the relative interior of conv(supp nu). By weak duality the
dual is at most the primal, a mutual information bounded by
min(H(mu), H(nu)); a dual iterate above that bound proves that no martingale
coupling exists. Only a solve that does neither (an inner failure, a stall,
the iteration cap, a conditional at the floor) is diagnosed: convex order
first, then the relative interior for all mu atoms. On the line both are
read off the potential functions u(t) = E|X - t| with no LP: convex order
is equal means and u_mu <= u_nu, and an atom is interior when it lies
strictly between the extreme nu atoms. In dimension two or more each is
one LP.

The variational identity P = SP(mubar, nu) + MCov(mubar, mu), with the base
measure mubar = h#mu, is checked from the same potentials. The classical
solve is warm-started at the martingale psi, and ``mcov_bounds`` brackets
MCov between the value of the pairing (h_i, x_i) and the dual bound of
F(h) = log sum_j nu_j exp(psi_j + <h, y_j>) and its c-transform, which meet
at the optimum. No transport LP runs; ``vp_value`` keeps one for library use.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import (DegenerateFiber, DualDivergence, NotConverged,
                     NotInConvexOrder, NotIrreducible, StructuralError)
from .measures import (Coupling, DiscreteMeasure, check_convex_order,
                       coupling_constraints, mcov_discrete, merge_close_atoms,
                       product_coupling, relative_entropy)

HESSIAN_CONDITION_CAP = 1e14
# A fiber on the boundary of conv(supp nu) meets the 1e-12 inner Newton
# tolerance only with off-face mass near 1e-12 / (distance to the face), far
# below this floor; conditionals of pairs in strict convex order sit far above.
CONDITIONAL_FLOOR = 1e-8
# The diagnosis: a point is interior when the relative-interior LP's smallest
# weight exceeds the cut; on the line, convex order holds up to the
# convex-order LP's feasibility tolerance, relative to the atom scale.
_INTERIOR_CUT = 1e-12
_ORDER_SLACK = 1e-10
# The fiber Newton: step cap and gradient tolerance per fiber. Both Newton
# kernels use the Armijo constant and halve the step on a rejection.
_NEWTON_MAX_STEPS = 50
_NEWTON_GRADIENT_TOLERANCE = 1e-12
_ARMIJO = 1e-4
_LINE_SEARCH_STEPS = 30
_SP_MAX_ITERATIONS = 200_000
_FAILURES = (NotIrreducible, DualDivergence, DegenerateFiber, NotConverged)


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule and safeguards of the psi-dual Newton solver.

    A solve converges once both the L1 marginal defect and the largest
    conditional drift fall below ``tolerance``.
    """

    tolerance: float = 1e-10
    max_outer_iterations: int = 10_000
    h_divergence_bound: float = 1e6

    def __post_init__(self):
        if self.tolerance <= 0.0:
            raise StructuralError("tolerance must be positive")
        if self.h_divergence_bound <= 1.0:
            raise StructuralError("divergence bound must exceed 1")


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
    coupling: Coupling
    potentials: PotentialTriple
    primal_value: float
    dual_value: float
    iterations: int
    marginal_residual: float
    martingale_residual: float
    converged: bool
    dual_trace: np.ndarray = field(repr=False, default=None)


def gauge_normalize(triple, mu, nu):
    """Remove the nu-weighted affine component of psi.

    Solves for the affine map a + <b, y> with sum nu_j psi'_j = 0 and
    sum nu_j psi'_j y_j = 0 after psi' = psi - a - <b, y>; the shift is
    absorbed as phi_i += a + <b, x_i> and h_i += b so the Gibbs density is
    unchanged. Falls back to least squares when nu is affinely degenerate.
    """
    y = nu.atoms
    w = nu.weights
    d = y.shape[1]
    ybar = w @ y
    m2 = (y * w[:, None]).T @ y
    gram = np.zeros((1 + d, 1 + d))
    gram[0, 0] = 1.0
    gram[0, 1:] = ybar
    gram[1:, 0] = ybar
    gram[1:, 1:] = m2
    rhs = np.concatenate([[w @ triple.psi], (w * triple.psi) @ y])
    try:
        ab = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        ab, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    a, b = ab[0], ab[1:]
    psi = triple.psi - a - y @ b
    phi = triple.phi + a + mu.atoms @ b
    h = triple.h + b
    return PotentialTriple(phi, psi, h)


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
    and equals the mean difference beyond them, so the atoms of both
    measures are the only points to test. Both tests allow the LP's
    feasibility slack ``_ORDER_SLACK`` times the atom scale, which also
    absorbs the rounding where u_mu = u_nu holds exactly.
    """
    x, y = mu.atoms[:, 0], nu.atoms[:, 0]
    slack = _ORDER_SLACK * max(1.0, float(np.abs(x).max()),
                               float(np.abs(y).max()))
    if abs(float(mu.weights @ x - nu.weights @ y)) > slack:
        return False
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
    complement of h is pinned to zero. Atom coordinates are stored relative
    to the nu barycenter, projected on an orthonormal basis of that span.
    """

    def __init__(self, nu):
        self.nu = nu
        y = nu.atoms
        self.center = nu.weights @ y
        centered = y - self.center
        if nu.n == 1:
            self.basis = np.zeros((y.shape[1], 0))
        else:
            u, s, _ = np.linalg.svd(centered.T, full_matrices=False)
            scale = s[0] if s.size and s[0] > 0 else 1.0
            rank = int(np.sum(s > 1e-13 * scale))
            self.basis = u[:, :rank]
        self.rank = self.basis.shape[1]
        self.y_red = centered @ self.basis          # (m, r)
        self.log_nu = np.log(nu.weights)

    def reduce_points(self, x):
        """Map points into reduced coordinates; error if off the affine hull."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        centered = x - self.center
        x_red = centered @ self.basis
        recon = x_red @ self.basis.T
        off = np.linalg.norm(centered - recon, axis=1)
        if np.any(off > 1e-9 * max(1.0, float(np.abs(self.nu.atoms).max()))):
            bad = int(np.argmax(off))
            raise NotIrreducible(
                f"point {bad} lies off the affine hull of supp(nu)")
        return x_red

    def embed(self, z):
        return z @ self.basis.T


def _row_softmax(logits):
    """Row-wise log-sum-exp of an (n, m) array and the row-normalized
    exponentials, both shifted by the row maximum."""
    top = logits.max(axis=1, keepdims=True)
    lse = top[:, 0] + np.log(np.exp(logits - top).sum(axis=1))
    return lse, np.exp(logits - lse[:, None])


def _fiber_newton(geom, x_red, psi, config, z0=None):
    """Batched damped Newton for the inner duals over one nu.

    Maximizes g(z) = <z, x> - log sum_j nu_j exp(psi_j + <z, y_j>) in reduced
    coordinates for every row of ``x_red``. Returns (z, phi, conditionals).
    """
    n = x_red.shape[0]
    r = geom.rank
    yr = geom.y_red
    base = geom.log_nu + psi  # (m,)

    z = np.zeros((n, r)) if z0 is None else np.array(z0, dtype=float)

    def value_grad(zc, xs):
        lse, cond = _row_softmax(base[None, :] + zc @ yr.T)
        val = np.einsum("nr,nr->n", zc, xs) - lse
        bary = cond @ yr
        return val, xs - bary, cond, bary

    val, grad, cond, bary = value_grad(z, x_red)
    grad_norm = np.linalg.norm(grad, axis=1) if r else np.zeros(n)
    active = grad_norm > _NEWTON_GRADIENT_TOLERANCE

    for _ in range(_NEWTON_MAX_STEPS):
        if not np.any(active):
            break
        idx = np.nonzero(active)[0]
        cond_a = cond[idx]
        bary_a = bary[idx]
        cov = np.einsum("nm,mi,mj->nij", cond_a, yr, yr) \
            - np.einsum("ni,nj->nij", bary_a, bary_a)
        eigs = np.linalg.eigvalsh(cov)
        bad = (eigs[:, 0] <= 0) | (eigs[:, -1] / np.maximum(eigs[:, 0], 1e-300)
                                   > HESSIAN_CONDITION_CAP)
        if np.any(bad):
            fiber = int(idx[np.nonzero(bad)[0][0]])
            raise DegenerateFiber(
                f"fiber {fiber}: conditional covariance condition number "
                f"exceeds {HESSIAN_CONDITION_CAP:.0e}")
        step = np.linalg.solve(cov, grad[idx][:, :, None])[:, :, 0]
        descent = np.einsum("nr,nr->n", grad[idx], step)

        # once the predicted gain falls below the fp resolution of the
        # objective the Armijo test is meaningless; take the pure Newton step
        alpha = np.ones(len(idx))
        accepted = descent <= 1e-14 * (1.0 + np.abs(val[idx]))
        z_new = z[idx] + step
        for _ in range(60):
            trial = z[idx] + alpha[:, None] * step
            tv, _, _, _ = value_grad(trial, x_red[idx])
            ok = tv >= val[idx] + _ARMIJO * alpha * descent
            newly = ok & ~accepted
            z_new[newly] = trial[newly]
            accepted |= ok
            if np.all(accepted):
                break
            alpha[~accepted] *= 0.5
        if not np.all(accepted):
            raise NotConverged("inner Newton line search stalled")
        z[idx] = z_new

        hn = np.linalg.norm(z[idx], axis=1)
        if np.any(hn > config.h_divergence_bound):
            fiber = int(idx[np.argmax(hn)])
            raise DualDivergence(
                f"fiber {fiber}: |h| exceeded divergence bound "
                f"{config.h_divergence_bound:.0e}")

        val, grad, cond, bary = value_grad(z, x_red)
        grad_norm = np.linalg.norm(grad, axis=1)
        active = grad_norm > _NEWTON_GRADIENT_TOLERANCE

    if np.any(active):
        raise NotConverged(
            f"inner Newton did not reach gradient tolerance within "
            f"{_NEWTON_MAX_STEPS} steps")
    return z, val, cond


def inner_dual_solve(x, psi, nu, config=None, h0=None):
    """Solve sup_h <h, x> - log sum_j nu_j exp(psi_j + <h, y_j>).

    Returns (h, phi_x, conditional) where phi_x is the supremum value and the
    conditional is the tilted measure nu_j exp(psi_j + <h, y_j>) normalized,
    whose barycenter equals x within the Newton gradient tolerance. The
    relative-interior test (closed form on the line, an LP in dimension two
    or more) runs only when Newton fails or leaves a conditional at
    ``CONDITIONAL_FLOOR``.
    """
    config = config or SolverConfig()
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
                                  @ geom.basis)
    try:
        z, phi, cond = _fiber_newton(geom, x_red, psi, config, z0=z0)
    except _FAILURES:
        _diagnose(x[None, :], nu_)
        raise
    if cond.min() <= CONDITIONAL_FLOOR:
        _diagnose(x[None, :], nu_)
    return geom.embed(z)[0], float(phi[0]), cond[0]


def primal_value(coupling, mu=None, nu=None):
    """H(m | mu x nu), cross-checked against sum_x mu_x H(m_x | nu)."""
    mu = mu or coupling.mu
    nu = nu or coupling.nu
    direct = relative_entropy(coupling, product_coupling(mu, nu))
    cond = coupling.matrix / coupling.matrix.sum(axis=1, keepdims=True)
    mask = cond > 0.0
    ratios = np.zeros_like(cond)
    ratios[mask] = cond[mask] * np.log(cond[mask]
                                       / np.broadcast_to(nu.weights,
                                                         cond.shape)[mask])
    fiberwise = float(mu.weights @ ratios.sum(axis=1))
    if not math.isinf(direct) and abs(direct - fiberwise) > 1e-12 * (1 + abs(direct)):
        raise StructuralError(
            f"entropy decompositions disagree: {direct!r} vs {fiberwise!r}")
    return direct


def dual_value(psi, mu, nu, config=None):
    """sum_j nu_j psi_j + sum_i mu_i sup_h [<h, x_i> - log sum_j nu_j e^{psi_j + <h, y_j>}]."""
    config = config or SolverConfig()
    psi = np.asarray(psi, dtype=float).ravel()
    geom = _FiberGeometry(nu)
    x_red = geom.reduce_points(mu.atoms)
    _, phi, _ = _fiber_newton(geom, x_red, psi, config)
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
        _diagnose(mu.atoms, nu, mu)
    return report


def _h_block_rows(mu_w, cond, y_red):
    """Rows R with R'R = sum_i mu_i (C_i Yc_i) Cov_i^-1 (C_i Yc_i)', the
    curvature that the eliminated h block adds to the psi dual.

    C_i = diag(c_i), Yc_i holds the atoms centered at fiber i's barycenter
    and Cov_i = Yc_i' C_i Yc_i; each fiber contributes the r rows
    sqrt(mu_i) L_i^-1 (C_i Yc_i)' with Cov_i = L_i L_i'.
    """
    n, m = cond.shape
    centered = y_red[None, :, :] - (cond @ y_red)[:, None, :]   # (n, m, r)
    weighted = cond[:, :, None] * centered
    cov = weighted.transpose(0, 2, 1) @ centered                 # (n, r, r)
    rows = np.linalg.inv(np.linalg.cholesky(cov)) \
        @ (np.sqrt(mu_w)[:, None, None] * weighted.transpose(0, 2, 1))
    return rows.reshape(n * y_red.shape[1], m)


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


def _psi_newton(fibers, mu_w, nu_w, gauge, psi, max_iterations, stop,
                ceiling=math.inf):
    """Safeguarded Newton ascent on D(psi) = <nu, psi> + <mu, phi(psi)>.

    ``fibers(psi, prev)`` returns (phi, cond, prev, curvature): the fiber
    values, the (n, m) conditionals, the warm start of the next call and a
    callable giving the curvature rows of an eliminated block (None if
    there is none; see ``_newton_direction``). ``gauge`` holds the (m, k) affine directions that leave D
    unchanged; ``stop(cols, cond)`` says when the iterate is solved. Steps
    are Armijo-damped, and a trial point whose fibers fail is rejected; at
    the floating-point floor (predicted gain <= 1e-14 (1 + |D|)) the pure
    Newton step is taken, and when the line search fails the exact column
    scaling is. A step that neither raises D nor lowers the L1 marginal
    defect ends the ascent unconverged. A dual above ``ceiling`` raises
    NotInConvexOrder.

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
        if len(trace) >= max_iterations:
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
    """The psi-dual Newton solve of ``sinkhorn_msb``, without diagnosis."""
    # weak duality: the dual never exceeds the primal <= min(H(mu), H(nu))
    bound = min(float(-(w @ np.log(w))) for w in (mu.weights, nu.weights))
    geom = _FiberGeometry(nu)
    x_red = geom.reduce_points(mu.atoms)
    y_diff = nu.atoms[None, :, :] - mu.atoms[:, None, :]  # (n, m, d)

    def fibers(psi, z):
        z, phi, cond = _fiber_newton(geom, x_red, psi, config, z0=z)
        curvature = (lambda: _h_block_rows(mu.weights, cond, geom.y_red)) \
            if geom.rank else None
        return phi, cond, z, curvature

    def residuals(cols, cond):
        drift = np.einsum("nm,nmd->nd", cond, y_diff)
        return (float(np.abs(cols - nu.weights).sum()),
                float(np.max(np.linalg.norm(drift, axis=1))))

    def stop(cols, cond):
        marg, mart = residuals(cols, cond)
        return marg < config.tolerance and mart < config.tolerance

    gauge = np.column_stack([np.ones(nu.n), geom.y_red])
    point, dual_trace, converged = _psi_newton(
        fibers, mu.weights, nu.weights, gauge, np.zeros(nu.n),
        config.max_outer_iterations, stop,
        ceiling=bound + 1e-9 * (1.0 + bound))
    marg, mart = residuals(point.cols, point.cond)

    h = geom.embed(point.prev)
    matrix = mu.weights[:, None] * point.cond
    triple = gauge_normalize(PotentialTriple(point.phi, point.psi, h), mu, nu)
    coupling = Coupling(matrix, mu, nu, check=converged)

    p_val = primal_value(coupling, mu, nu)
    d_val = float(dual_trace[-1])
    if converged and abs(p_val - d_val) > 1e-8 * (1.0 + abs(p_val)):
        converged = False
    return SolveReport(coupling=coupling, potentials=triple,
                       primal_value=p_val, dual_value=d_val,
                       iterations=len(dual_trace), marginal_residual=marg,
                       martingale_residual=mart, converged=converged,
                       dual_trace=dual_trace)


def gibbs_coupling(triple, mu, nu):
    """Reassemble the coupling matrix from a potential triple."""
    expo = (triple.phi[:, None] + triple.psi[None, :]
            + np.einsum("id,jd->ij", triple.h, nu.atoms)
            - np.einsum("id,id->i", triple.h, mu.atoms)[:, None])
    return mu.weights[:, None] * nu.weights[None, :] * np.exp(expo)


def classical_sinkhorn_sp(mu_bar, nu, tolerance=None, psi0=None):
    """Static Schroedinger problem inf H(pi | mu_bar x nu) - int <x_bar, y> dpi.

    Solves the system

        sum_j nu_j exp(phibar_i + psi_j + <x_bar_i, y_j>) = 1   for all i,
        sum_i mubar_i exp(phibar_i + psi_j + <x_bar_i, y_j>) = 1 for all j

    with the psi-dual Newton kernel of ``sinkhorn_msb``, without the h block:
    phibar is the closed-form row log-sum-exp, so the first equation holds
    exactly, and the kernel drives the second below ``tolerance``. The
    default, max(1e-13, 4 eps max(1, max_ij |<x_bar_i, y_j>|)), sits above
    the floating-point floor of the exponents; a given tolerance is used as
    is.
    ``psi0`` warm-starts psi; on the base measure extracted from a martingale
    solve, that solve's psi already solves the system.

    Returns (value, coupling, (phibar, psi)); psi is centered so that
    sum_j nu_j psi_j = 0. Raises NotConverged at the iteration cap or when
    the ascent stalls above the tolerance.
    """
    if mu_bar.dim != nu.dim:
        raise StructuralError("mu_bar and nu dimensions differ")
    k = mu_bar.atoms @ nu.atoms.T                      # (n, m)
    if tolerance is None:
        tolerance = max(1e-13, 4.0 * np.finfo(float).eps
                        * max(1.0, float(np.abs(k).max())))
    log_mu = np.log(mu_bar.weights)
    log_nu = np.log(nu.weights)

    def fibers(psi, prev):
        lse, cond = _row_softmax(log_nu[None, :] + psi[None, :] + k)
        return -lse, cond, None, None

    def stop(cols, cond):
        return float(np.max(np.abs(cols / nu.weights - 1.0))) < tolerance

    psi = np.zeros(nu.n) if psi0 is None else np.array(psi0, dtype=float)
    point, trace, converged = _psi_newton(
        fibers, mu_bar.weights, nu.weights, np.ones((nu.n, 1)), psi,
        _SP_MAX_ITERATIONS, stop)
    if not converged:
        raise NotConverged(
            "classical Schroedinger Newton "
            + ("hit its iteration cap" if len(trace) >= _SP_MAX_ITERATIONS
               else f"stalled after {len(trace)} iterations"))

    # fix the additive gauge
    shift = float(nu.weights @ point.psi)
    psi = point.psi - shift
    phibar = point.phi + shift

    matrix = np.exp(log_mu[:, None] + log_nu[None, :]
                    + phibar[:, None] + psi[None, :] + k)
    coupling = Coupling(matrix, mu_bar, nu, check=False)
    value = (relative_entropy(coupling, product_coupling(mu_bar, nu))
             - float(np.sum(matrix * k)))
    return value, coupling, (phibar, psi)


def schroedinger_system_residuals(mu_bar, nu, phibar, psi):
    """Max absolute defect of the two Schroedinger system equations."""
    k = mu_bar.atoms @ nu.atoms.T
    expo = phibar[:, None] + psi[None, :] + k
    first = np.abs(np.exp(expo) @ nu.weights - 1.0).max()
    second = np.abs(mu_bar.weights @ np.exp(expo) - 1.0).max()
    return float(first), float(second)


def extract_base_measure(report, mu=None):
    """Push mu forward through the fitted field h: atoms h(x_i), weights mu_i.

    Coincident images (within 1e-12) are merged with a warning since the
    fitted h is then non-injective on the support of mu.
    """
    mu = mu or report.coupling.mu
    atoms, weights, merged = merge_close_atoms(report.potentials.h, mu.weights)
    if merged:
        warnings.warn("fitted h is non-injective on supp(mu); "
                      "merged coincident base atoms", RuntimeWarning,
                      stacklevel=2)
    return DiscreteMeasure(atoms, weights)


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
    f, _ = _row_softmax(np.log(nu.weights) + report.potentials.psi
                        + base.atoms @ nu.atoms.T)
    transform = (mu.atoms @ base.atoms.T - f).max(axis=1)
    return lower, float(base.weights @ f + mu.weights @ transform)
