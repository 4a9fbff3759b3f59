"""Entropic martingale-transport solver.

The primal problem minimizes H(m | mu x nu) over martingale couplings m of a
pair (mu, nu) in convex order. The optimizer has a Gibbs density

    m_ij = mu_i nu_j exp(phi_i + psi_j + <h_i, y_j - x_i>),

and the solver alternates two exact blocks in log domain:

* for each mu-atom, a damped Newton solve of the strictly concave inner
  problem sup_h <h, x> - log sum_j nu_j exp(psi_j + <h, y_j>), which refreshes
  (h_i, phi_i) and makes the row mass and conditional barycenter exact;
* a column scaling psi_j <- psi_j - log(column_j / nu_j) that restores the
  nu marginal exactly.

The dual value of the psi iterate ascends monotonically and the duality gap
closes at convergence.

The solve certifies itself, so no LP runs before it. A converged Gibbs
coupling whose conditionals all exceed ``CONDITIONAL_FLOOR`` is strictly
positive, hence the witness that the pair is in convex order and that every
mu atom lies in the relative interior of conv(supp nu). By weak duality the
dual is at most the primal, a mutual information bounded by
min(H(mu), H(nu)); a dual iterate above that bound proves that no martingale
coupling exists. Only a solve that does neither (an inner failure, the
iteration cap, a conditional at the floor) is diagnosed by LP: convex order
first, then one relative-interior LP for all mu atoms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

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
_FAILURES = (NotIrreducible, DualDivergence, DegenerateFiber, NotConverged)


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration caps for the fixed-point solver."""

    marginal_tolerance: float = 1e-10
    martingale_tolerance: float = 1e-10
    max_outer_iterations: int = 10_000
    newton_max_steps: int = 50
    newton_gradient_tolerance: float = 1e-12
    h_divergence_bound: float = 1e6
    damping_factor: float = 0.5
    armijo_constant: float = 1e-4

    def __post_init__(self):
        if min(self.marginal_tolerance, self.martingale_tolerance,
               self.newton_gradient_tolerance) <= 0.0:
            raise StructuralError("tolerances must be positive")
        if not (0.0 < self.damping_factor < 1.0):
            raise StructuralError("damping factor must lie in (0, 1)")
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
    lam_ij >= t_i. It separates over points, so x_i is interior iff t_i > 0;
    free weights keep it feasible for points outside conv(supp nu).
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
    return res.x[n * m:] > 1e-12


def _diagnose(points, nu, mu=None):
    """Raise NotInConvexOrder (given mu) or NotIrreducible if an LP shows
    either; otherwise return, so the caller's answer stands."""
    if mu is not None and not check_convex_order(mu, nu)[0]:
        raise NotInConvexOrder("mu and nu admit no martingale coupling")
    inside = _in_relative_interior(points, nu)
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
        logits = base[None, :] + zc @ yr.T          # (n, m)
        top = logits.max(axis=1, keepdims=True)
        lse = top[:, 0] + np.log(np.exp(logits - top).sum(axis=1))
        cond = np.exp(logits - lse[:, None])
        val = np.einsum("nr,nr->n", zc, xs) - lse
        bary = cond @ yr
        return val, xs - bary, cond, bary

    val, grad, cond, bary = value_grad(z, x_red)
    grad_norm = np.linalg.norm(grad, axis=1) if r else np.zeros(n)
    active = grad_norm > config.newton_gradient_tolerance

    for _ in range(config.newton_max_steps):
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
            ok = tv >= val[idx] + config.armijo_constant * alpha * descent
            newly = ok & ~accepted
            z_new[newly] = trial[newly]
            accepted |= ok
            if np.all(accepted):
                break
            alpha[~accepted] *= config.damping_factor
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
        active = grad_norm > config.newton_gradient_tolerance

    if np.any(active):
        raise NotConverged(
            f"inner Newton did not reach gradient tolerance within "
            f"{config.newton_max_steps} steps")
    return z, val, cond


def inner_dual_solve(x, psi, nu, config=None, h0=None):
    """Solve sup_h <h, x> - log sum_j nu_j exp(psi_j + <h, y_j>).

    Returns (h, phi_x, conditional) where phi_x is the supremum value and the
    conditional is the tilted measure nu_j exp(psi_j + <h, y_j>) normalized,
    whose barycenter equals x within the Newton gradient tolerance. The
    relative-interior LP runs only when Newton fails or leaves a conditional
    at ``CONDITIONAL_FLOOR``.
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
    """Fixed-point solver for the entropic martingale transport problem.

    Alternates exact per-fiber inner Newton refreshes with an exact column
    scaling of psi, all in log domain. Stops when the total-variation defect
    of the column sums and the martingale residual both fall below the
    configured tolerances; returns a value-bearing report with
    ``converged=False`` when the iteration cap is reached instead.
    The module docstring says when an LP diagnosis runs; when it finds no
    infeasibility, the report or the original exception stands.
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


def _fixed_point(mu, nu, config):
    """The alternating iteration of ``sinkhorn_msb``, without diagnosis."""
    # weak duality: the dual never exceeds the primal <= min(H(mu), H(nu))
    bound = min(float(-(w @ np.log(w))) for w in (mu.weights, nu.weights))
    ceiling = bound + 1e-9 * (1.0 + bound)
    geom = _FiberGeometry(nu)
    x_red = geom.reduce_points(mu.atoms)
    y_diff = nu.atoms[None, :, :] - mu.atoms[:, None, :]  # (n, m, d)

    psi = np.zeros(nu.n)
    z = np.zeros((mu.n, geom.rank))
    dual_trace = []
    iterations = 0
    converged = False
    marg = math.inf
    mart = math.inf

    for iterations in range(1, config.max_outer_iterations + 1):
        z, phi, cond = _fiber_newton(geom, x_red, psi, config, z0=z)
        dual_trace.append(float(nu.weights @ psi + mu.weights @ phi))
        if dual_trace[-1] > ceiling:
            raise NotInConvexOrder(
                f"dual value {dual_trace[-1]!r} exceeds min(H(mu), H(nu)) = "
                f"{bound!r} at outer iteration {iterations}: no martingale "
                "coupling exists")

        cols = mu.weights @ cond
        marg = float(np.abs(cols - nu.weights).sum())
        drift = np.einsum("nm,nmd->nd", cond, y_diff)
        mart = float(np.max(np.linalg.norm(drift, axis=1)))
        if marg < config.marginal_tolerance and mart < config.martingale_tolerance:
            converged = True
            break

        # column scaling in log domain: psi_j -= log(col_j / nu_j)
        psi = psi - (np.log(cols) - geom.log_nu)

    h = geom.embed(z)
    matrix = mu.weights[:, None] * cond
    triple = gauge_normalize(PotentialTriple(phi, psi, h), mu, nu)
    coupling = Coupling(matrix, mu, nu, check=converged)

    p_val = primal_value(coupling, mu, nu)
    d_val = dual_trace[-1]
    if converged and abs(p_val - d_val) > 1e-8 * (1.0 + abs(p_val)):
        converged = False
    return SolveReport(coupling=coupling, potentials=triple,
                       primal_value=p_val, dual_value=d_val,
                       iterations=iterations, marginal_residual=marg,
                       martingale_residual=mart, converged=converged,
                       dual_trace=np.asarray(dual_trace))


def gibbs_coupling(triple, mu, nu):
    """Reassemble the coupling matrix from a potential triple."""
    expo = (triple.phi[:, None] + triple.psi[None, :]
            + np.einsum("id,jd->ij", triple.h, nu.atoms)
            - np.einsum("id,id->i", triple.h, mu.atoms)[:, None])
    return mu.weights[:, None] * nu.weights[None, :] * np.exp(expo)


def classical_sinkhorn_sp(mu_bar, nu, tolerance=1e-13, max_iterations=200_000):
    """Static Schroedinger problem inf H(pi | mu_bar x nu) - int <x_bar, y> dpi.

    Log-domain Sinkhorn for the system

        sum_j nu_j exp(phibar_i + psi_j + <x_bar_i, y_j>) = 1   for all i,
        sum_i mubar_i exp(phibar_i + psi_j + <x_bar_i, y_j>) = 1 for all j.

    Returns (value, coupling, (phibar, psi)); psi is centered so that
    sum_j nu_j psi_j = 0. Raises NotConverged at the iteration cap.
    """
    if mu_bar.dim != nu.dim:
        raise StructuralError("mu_bar and nu dimensions differ")
    k = mu_bar.atoms @ nu.atoms.T                      # (n, m)
    log_mu = np.log(mu_bar.weights)
    log_nu = np.log(nu.weights)

    psi = np.zeros(nu.n)
    phibar = np.zeros(mu_bar.n)
    for _ in range(max_iterations):
        a = log_nu[None, :] + psi[None, :] + k
        top = a.max(axis=1, keepdims=True)
        phibar = -(top[:, 0] + np.log(np.exp(a - top).sum(axis=1)))

        b = log_mu[:, None] + phibar[:, None] + k
        top = b.max(axis=0)
        psi = -(top + np.log(np.exp(b - top).sum(axis=0)))

        # residual of the first equation after the psi refresh
        a = log_nu[None, :] + psi[None, :] + phibar[:, None] + k
        top = a.max(axis=1, keepdims=True)
        lse = top[:, 0] + np.log(np.exp(a - top).sum(axis=1))
        if np.max(np.abs(np.expm1(lse))) < tolerance:
            break
    else:
        raise NotConverged("classical Sinkhorn hit its iteration cap")

    # re-pin the first equation exactly, then fix the additive gauge
    phibar = phibar - lse
    shift = float(nu.weights @ psi)
    psi = psi - shift
    phibar = phibar + shift

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


def vp_value(mu_bar, mu, nu, tolerance=1e-13):
    """Variational value SP(mu_bar, nu) + MCov(mu_bar, mu) for a base measure."""
    sp, _, _ = classical_sinkhorn_sp(mu_bar, nu, tolerance=tolerance)
    mc, _ = mcov_discrete(mu_bar, mu)
    return sp + mc
