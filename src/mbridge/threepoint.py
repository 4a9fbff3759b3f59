"""Two-parameter family of martingale couplings on three-atom marginals.

The first marginal sits on (-1, 0, 1) with weights (p1, q1, r1), the second
on (-2, 0, 2) with weights (p2, q2, r2). When their means agree
(r1 - p1 = 2 (r2 - p2)), every martingale coupling of the pair is

    pi(u, v) = [[u,  3 p1/2 - 2u,  u - p1/2 ],
                [v,  q1   - 2v,   v         ],
                [w,  r1/2 - 2w,   w + r1/2  ]],   w = p2 - u - v,

subject to the polygon S: p1/2 <= u <= 3 p1/4, 0 <= v <= q1/2,
p2 - r1/4 <= u + v <= p2. Two optimizers over S are provided:

* ``entropy_minimize``: the coupling of minimal relative entropy with
  respect to the product of the marginals, which is the martingale
  Schroedinger bridge of the pair; ``sinkhorn_msb`` solves it and the
  solve is read back as (u, v) = (pi[0,0], pi[1,0]);
* ``bass_minimize``: the coupling whose conditional laws are closest to a
  standard Gaussian in averaged squared Wasserstein distance, the discrete
  analogue of a flat-volatility martingale fit.

Both optimizers are interior critical points characterized by explicit
two-equation systems; the systems' residuals are reported for verification.
The marginals and the entropy solve, which also starts the Bass Newton,
are computed once per instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (InfeasibleParameters, NotConverged, NotInConvexOrder,
                     StructuralError)
from .measures import Coupling, DiscreteMeasure, primal_value
from .solver import SolverConfig, sinkhorn_msb
from .stats import norm_pdf, norm_ppf

MU_ATOMS = (-1.0, 0.0, 1.0)
NU_ATOMS = (-2.0, 0.0, 2.0)

# at the default 1e-10 the entropy system residual reaches 1.4e-12; at 1e-13
# some solves stall at the floating-point floor
ENTROPY_CONFIG = SolverConfig(tolerance=1e-12)
# the Bass Newton: gradient tolerance, step cap, Armijo constant
BASS_TOLERANCE = 1e-12
NEWTON_MAX_STEPS = 100
ARMIJO = 1e-4


@dataclass(frozen=True)
class ThreePointInstance:
    """Marginal weights for the three-point family.

    p1, q1 weight -1 and 0 for the first marginal (r1 = 1 - p1 - q1 weights
    +1); p2, q2 weight -2 and 0 for the second (r2 = 1 - p2 - q2 weights +2).
    """

    p1: float
    q1: float
    p2: float
    q2: float

    def __post_init__(self):
        for name in ("p1", "q1", "p2", "q2"):
            val = float(getattr(self, name))
            object.__setattr__(self, name, val)
            if not 0.0 < val < 1.0:
                raise StructuralError(f"{name} must lie strictly in (0, 1)")
        if self.r1 <= 0.0 or self.r2 <= 0.0:
            raise StructuralError("marginal weights must be strictly positive")
        # the u-range, the v-range and the u+v strip all have positive width,
        # so S has an interior exactly when the two u+v intervals overlap
        lo_s, hi_s = self.p2 - self.r1 / 4.0, self.p2
        lo_box, hi_box = self.p1 / 2.0, 3.0 * self.p1 / 4.0 + self.q1 / 2.0
        if max(lo_s, lo_box) >= min(hi_s, hi_box):
            raise NotInConvexOrder("feasible polygon of (u, v) is empty")

    @property
    def r1(self):
        return 1.0 - self.p1 - self.q1

    @property
    def r2(self):
        return 1.0 - self.p2 - self.q2

    @cached_property
    def mu(self):
        return DiscreteMeasure(np.array(MU_ATOMS),
                               [self.p1, self.q1, self.r1])

    @cached_property
    def nu(self):
        return DiscreteMeasure(np.array(NU_ATOMS),
                               [self.p2, self.q2, self.r2])

    @cached_property
    def entropy_uv(self):
        """(pi[0,0], pi[1,0]) of the martingale Schroedinger bridge.

        The parametrization fixes the rows, the martingale constraint and the
        first column; its middle column 3 p1/2 + q1 + r1/2 - 2 p2 does not
        depend on (u, v) and equals q2 only when mu and nu have the same
        mean, so that is refused before the solve.
        """
        miss = abs(1.5 * self.p1 + self.q1 + 0.5 * self.r1 - 2.0 * self.p2
                   - self.q2)
        if miss > 1e-12:
            raise NotConverged(
                f"the family's couplings miss the nu weights by {miss:.1e}: "
                "the means of mu and nu differ, so no coupling of the family "
                "has these marginals")
        report = sinkhorn_msb(self.mu, self.nu, ENTROPY_CONFIG)
        if not report.converged:
            raise NotConverged(
                f"martingale Schroedinger bridge did not converge (marginal "
                f"residual {report.marginal_residual:.1e}, martingale "
                f"residual {report.martingale_residual:.1e})")
        matrix = report.coupling.matrix
        return float(matrix[0, 0]), float(matrix[1, 0])

    def constraints(self):
        """Half-planes a.(u,v) <= b with entry labels, describing S."""
        return [
            (np.array([-1.0, 0.0]), -self.p1 / 2.0, "pi[0,2] = u - p1/2 >= 0"),
            (np.array([1.0, 0.0]), 3.0 * self.p1 / 4.0,
             "pi[0,1] = 3 p1/2 - 2u >= 0"),
            (np.array([0.0, -1.0]), 0.0, "pi[1,0] = v >= 0"),
            (np.array([0.0, 1.0]), self.q1 / 2.0, "pi[1,1] = q1 - 2v >= 0"),
            (np.array([-1.0, -1.0]), self.r1 / 4.0 - self.p2,
             "pi[2,1] = r1/2 - 2w >= 0"),
            (np.array([1.0, 1.0]), self.p2, "pi[2,0] = w >= 0"),
        ]


def parametrize_coupling(instance, u, v):
    """Coupling matrix pi(u, v); raises InfeasibleParameters off the polygon,
    naming the violated entry."""
    u, v = float(u), float(v)
    for normal, bound, label in instance.constraints():
        if normal[0] * u + normal[1] * v > bound + 1e-12:
            raise InfeasibleParameters(f"violated constraint: {label}")
    w = instance.p2 - u - v
    return np.array([
        [u, 1.5 * instance.p1 - 2.0 * u, u - 0.5 * instance.p1],
        [v, instance.q1 - 2.0 * v, v],
        [w, 0.5 * instance.r1 - 2.0 * w, w + 0.5 * instance.r1],
    ])


def entropy_system_residual(instance, u, v):
    """Residuals of the denominator-cleared first-order system of the
    entropy objective; both vanish at the interior optimizer."""
    p1, q1, r1 = instance.p1, instance.q1, instance.r1
    w = instance.p2 - u - v
    e1 = u * (2.0 * u - p1) * (r1 - 4.0 * w) ** 2 \
        - (3.0 * p1 - 4.0 * u) ** 2 * w * (r1 + 2.0 * w)
    e2 = v ** 2 * (r1 - 4.0 * w) ** 2 \
        - 2.0 * (q1 - 2.0 * v) ** 2 * w * (r1 + 2.0 * w)
    return float(e1), float(e2)


def _bass_quantiles(instance, u, v):
    """Phi^{-1} at the quantile system's level pairs (u/p1, 3/2 - u/p1),
    (v/q1, 1 - v/q1) and (w/r1, 1/2 - w/r1), one pair per row."""
    p1, q1, r1 = instance.p1, instance.q1, instance.r1
    w = instance.p2 - u - v
    return norm_ppf(np.array([[u / p1, 1.5 - u / p1],
                              [v / q1, 1.0 - v / q1],
                              [w / r1, 0.5 - w / r1]]))


def bass_system_residual(instance, u, v):
    """Residuals of the quantile first-order system of the flat-volatility
    objective (each residual is 1/4 of the matching partial derivative)."""
    z = _bass_quantiles(instance, u, v)
    d = z[:, 0] - z[:, 1]
    return float(d[0] - d[2]), float(d[1] - d[2])


@dataclass(frozen=True)
class ThreePointSolution:
    u: float
    v: float
    matrix: np.ndarray
    value: float
    system_residual: tuple
    boundary_entries: tuple


def _interior(instance, u, v):
    return all(normal[0] * u + normal[1] * v < bound
               for normal, bound, _ in instance.constraints())


def _damped_newton_2d(x0, grad_hess, objective, feasible):
    """Minimize a smooth strictly convex function of two variables.

    Converged when the gradient norm falls below ``BASS_TOLERANCE``, or at
    the floating-point floor: when Armijo cannot resolve the predicted
    decrease and the pure Newton step returns x itself or the iterate
    before x.
    """
    x = prev = np.asarray(x0, dtype=float)
    fx = objective(*x)
    for _ in range(NEWTON_MAX_STEPS):
        g, hess = grad_hess(*x)
        if np.linalg.norm(g) < BASS_TOLERANCE:
            return x
        try:
            step = np.linalg.solve(hess, g)
        except np.linalg.LinAlgError:
            step = g / max(np.abs(hess).max(), 1.0)
        decrease = float(g @ step)
        trial = x - step
        if decrease <= 1e-14 * (1.0 + abs(fx)) and feasible(*trial):
            # Armijo cannot resolve the decrease: take the pure Newton step
            if np.array_equal(trial, x) or np.array_equal(trial, prev):
                return x
            prev, x, fx = x, trial, objective(*trial)
            continue
        alpha = 1.0
        for _ in range(80):
            trial = x - alpha * step
            if feasible(*trial):
                ft = objective(*trial)
                if ft <= fx - ARMIJO * alpha * decrease:
                    prev, x, fx = x, trial, ft
                    break
            alpha *= 0.5
        else:
            raise NotConverged("line search left the feasible polygon")
    raise NotConverged("two-dimensional Newton hit its step cap")


def entropy_minimize(instance):
    """Minimize H(pi(u, v) | mu x nu) over the polygon S.

    The minimizer is the martingale Schroedinger bridge of (mu, nu), solved
    once per instance by ``sinkhorn_msb`` (``ENTROPY_CONFIG``); its Gibbs
    density is positive, so the optimizer is interior. Raises
    ``NotConverged`` when the means of mu and nu differ or the solve does
    not converge.
    """
    u, v = instance.entropy_uv
    return _solution(
        instance, u, v,
        lambda inst, m: primal_value(Coupling(m, inst.mu, inst.nu,
                                              check=False)),
        entropy_system_residual)


def _solution(instance, u, v, objective, residual):
    """Package an optimizer of S with its value (``objective`` of the
    instance and the coupling matrix) and system residual."""
    matrix = parametrize_coupling(instance, u, v)
    boundary = tuple(f"pi[{i},{j}]" for i in range(3) for j in range(3)
                     if matrix[i, j] < 1e-11)
    return ThreePointSolution(u=float(u), v=float(v), matrix=matrix,
                              value=objective(instance, matrix),
                              system_residual=residual(instance, u, v),
                              boundary_entries=boundary)


def w2_to_standard_gaussian(measure):
    """Squared Wasserstein-2 distance from a discrete measure on R to the
    standard Gaussian, under the quantile coupling.

    With sorted atoms y_1 < ... < y_k, cumulative weights F_j and
    z_j = Phi^{-1}(F_j), the cross term integrates exactly:

        W2^2 = m2 + 1 - 2 sum_j y_j (phi(z_{j-1}) - phi(z_j)),

    where phi(+-inf) = 0.
    """
    if isinstance(measure, DiscreteMeasure):
        if measure.dim != 1:
            raise StructuralError("quantile coupling needs a one-dimensional measure")
        atoms = measure.atoms[:, 0]
        weights = measure.weights
    else:
        atoms, weights = measure
        atoms = np.asarray(atoms, dtype=float).ravel()
        weights = np.asarray(weights, dtype=float).ravel()
    order = np.argsort(atoms)
    atoms = atoms[order]
    weights = weights[order]

    edges = np.concatenate([[0.0], np.cumsum(weights)])
    edges[-1] = 1.0
    z = norm_ppf(np.clip(edges, 0.0, 1.0))
    dens = np.where(np.isfinite(z), norm_pdf(np.where(np.isfinite(z), z, 0.0)),
                    0.0)
    m2 = float(np.sum(weights * atoms ** 2))
    cross = float(np.sum(atoms * (dens[:-1] - dens[1:])))
    return m2 + 1.0 - 2.0 * cross


def _bass_objective(instance, m):
    """Averaged squared distance of the conditionals of the coupling matrix
    ``m`` to the standard Gaussian."""
    mu_w = instance.mu.weights
    atoms = np.asarray(NU_ATOMS)
    return float(sum(mu_w[i] * w2_to_standard_gaussian((atoms, m[i] / mu_w[i]))
                     for i in range(3)))


def bass_minimize(instance):
    """Minimize the flat-volatility objective over S.

    Damped Newton on the objective itself (``_damped_newton_2d``), started
    at the entropy optimizer, which is strictly interior, with the analytic
    quantile gradient (four times ``bass_system_residual``) and Hessian
    (four times ``_bass_jacobian``).
    """

    def grad_hess(u, v):
        # each residual is 1/4 of the matching partial derivative
        return (4.0 * np.asarray(bass_system_residual(instance, u, v)),
                4.0 * _bass_jacobian(instance, u, v))

    u, v = _damped_newton_2d(
        instance.entropy_uv, grad_hess,
        lambda a, b: _bass_objective(instance,
                                     parametrize_coupling(instance, a, b)),
        lambda a, b: _interior(instance, a, b))
    return _solution(instance, u, v, _bass_objective, bass_system_residual)


def _bass_jacobian(instance, u, v):
    """Analytic Jacobian of ``bass_system_residual`` in (u, v)."""
    z = _bass_quantiles(instance, u, v)
    # d Phi^{-1}(t) / dt = 1 / phi(Phi^{-1}(t)); both levels of a pair move
    # with the same sign, scaled by 1 / (p1, q1, r1)
    slope = np.sum(1.0 / norm_pdf(z), axis=1) \
        / np.array([instance.p1, instance.q1, instance.r1])
    return np.array([[slope[0] + slope[2], slope[2]],
                     [slope[2], slope[1] + slope[2]]])
