"""Finitely supported measures, couplings, entropy, convex order, max-covariance.

Summary of what lives here:

* ``DiscreteMeasure`` and ``GaussianSpec``: validated marginal types.
* ``Coupling``: a joint matrix tied to its two marginals.
* ``relative_entropy``: H(p|q) with a +inf sentinel when p is not
  absolutely continuous with respect to q.
* ``check_convex_order``: LP feasibility of a martingale coupling,
  returning a witness when one exists.
* ``mcov_discrete``: maximal covariance between two discrete measures
  (quantile pairing in one dimension, a transport LP otherwise).
* ``gaussian_reference_identity_check``: residual of the change-of-reference
  identity H(m|mu x nu) + H(nu|gamma) = H(m|mu.gamma) + m2(mu)/2, where the
  gamma terms score atoms against the standard normal density.

All arrays are float64 and frozen after validation; operations never mutate
their inputs.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import StructuralError

ATOM_MERGE_TOL = 1e-12
MARGINAL_ATOL = 1e-10
# HiGHS rejects feasibility tolerances below 1e-10
_LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
               "dual_feasibility_tolerance": 1e-9}


def _float_array(value, what):
    """``value`` as a new float array; StructuralError if it is not numeric."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise StructuralError(f"{what} must be numeric: {exc}") from exc


def _as_atoms(atoms):
    arr = _float_array(atoms, "atoms")
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise StructuralError("atoms must form a nonempty (n, d) array")
    if not np.all(np.isfinite(arr)):
        raise StructuralError("atoms must be finite")
    return arr


def merge_close_atoms(atoms, weights, tol=ATOM_MERGE_TOL):
    """Merge atoms closer than ``tol``, summing weights.

    Returns (atoms, weights, merged_any). Atoms are taken in input order; each
    joins the nearest earlier representative within ``tol`` or becomes one,
    so the representatives are pairwise more than ``tol`` apart and the
    output preserves first-occurrence order.
    """
    atoms = np.asarray(atoms, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = atoms.shape[0]
    # sorted by first coordinate, atoms on either side of a gap wider than
    # tol are more than tol apart, so only the runs between gaps can merge
    order = np.argsort(atoms[:, 0], kind="stable")
    bounds = np.concatenate(
        [[0], np.flatnonzero(np.diff(atoms[order, 0]) > tol) + 1, [n]])
    rep_of = np.arange(n)
    for k in np.flatnonzero(np.diff(bounds) > 1):
        run = np.sort(order[bounds[k]:bounds[k + 1]])
        reps = [run[0]]
        for cur in run[1:]:
            dist = np.linalg.norm(atoms[reps] - atoms[cur], axis=1)
            best = int(np.argmin(dist))
            if dist[best] <= tol:
                rep_of[cur] = reps[best]
            else:
                reps.append(cur)
    keep = np.flatnonzero(rep_of == np.arange(n))
    if len(keep) == n:
        return atoms.copy(), weights.copy(), False
    out_w = np.zeros(len(keep))
    np.add.at(out_w, np.searchsorted(keep, rep_of), weights)
    return atoms[keep], out_w, True


class DiscreteMeasure:
    """Finitely supported probability measure on R^d.

    Atoms within 1e-12 of each other are merged on construction with summed
    weights. Weights must be strictly positive and sum to 1 within
    ``weight_sum_tol`` (1e-12 by default, 1e-6 on JSON ingestion); they are
    renormalized exactly after the check. Arrays are read-only afterwards.
    """

    __slots__ = ("atoms", "weights")

    def __init__(self, atoms, weights, weight_sum_tol=1e-12):
        atoms = _as_atoms(atoms)
        weights = _float_array(weights, "weights").ravel()
        if weights.shape[0] != atoms.shape[0]:
            raise StructuralError(
                f"got {atoms.shape[0]} atoms but {weights.shape[0]} weights")
        if not np.all(np.isfinite(weights)):
            raise StructuralError("weights must be finite")
        if np.any(weights <= 0.0):
            bad = int(np.argmin(weights))
            raise StructuralError(f"weight {bad} is not strictly positive")
        total = float(weights.sum())
        if abs(total - 1.0) > weight_sum_tol:
            raise StructuralError(
                f"weights sum to {total!r}, beyond tolerance {weight_sum_tol}")
        atoms, weights, _ = merge_close_atoms(atoms, weights / total)
        self.atoms = atoms
        self.weights = weights
        for arr in (self.atoms, self.weights):
            arr.flags.writeable = False

    @property
    def n(self):
        return self.atoms.shape[0]

    @property
    def dim(self):
        return self.atoms.shape[1]

    def __repr__(self):
        return f"DiscreteMeasure(n={self.n}, dim={self.dim})"


class GaussianSpec:
    """Centered-or-shifted Gaussian marginal: mean vector plus SPD covariance."""

    __slots__ = ("mean", "covariance")

    def __init__(self, mean, covariance):
        mean = _float_array(mean, "mean").ravel()
        cov = _float_array(covariance, "covariance")
        if cov.ndim == 0:
            cov = cov.reshape(1, 1)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise StructuralError("covariance must be a square matrix")
        if cov.shape[0] != mean.shape[0]:
            raise StructuralError("mean and covariance dimensions differ")
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise StructuralError("Gaussian parameters must be finite")
        if np.max(np.abs(cov - cov.T)) > 1e-12 * max(1.0, np.max(np.abs(cov))):
            raise StructuralError("covariance must be symmetric")
        cov = 0.5 * (cov + cov.T)
        w = np.linalg.eigvalsh(cov)
        if w[0] <= 0.0:
            raise StructuralError("covariance must be positive definite")
        self.mean = mean
        self.covariance = cov
        for arr in (self.mean, self.covariance):
            arr.flags.writeable = False

    @property
    def dim(self):
        return self.mean.shape[0]

    def __repr__(self):
        return f"GaussianSpec(dim={self.dim})"


class Coupling:
    """Joint matrix on the product of two discrete marginals.

    Entries are nonnegative; with ``check=True`` (the default) the row and
    column sums must match the marginal weights within 1e-10. The martingale
    property is deliberately not a construction invariant, so intermediate
    iterates of a solver can be represented; use ``martingale_residual``.
    """

    __slots__ = ("matrix", "mu", "nu")

    def __init__(self, matrix, mu, nu, check=True, atol=MARGINAL_ATOL):
        # a copy: freezing the caller's own array would mutate the input
        matrix = np.array(matrix, dtype=float)
        if matrix.shape != (mu.n, nu.n):
            raise StructuralError(
                f"matrix shape {matrix.shape} does not match marginals "
                f"({mu.n}, {nu.n})")
        if not np.all(np.isfinite(matrix)):
            raise StructuralError("coupling entries must be finite")
        mn = matrix.min()
        if mn < 0.0:
            if mn < -1e-14:
                raise StructuralError(f"negative coupling entry {mn!r}")
            matrix = np.maximum(matrix, 0.0)
        if check:
            row_err = np.max(np.abs(matrix.sum(axis=1) - mu.weights))
            col_err = np.max(np.abs(matrix.sum(axis=0) - nu.weights))
            if row_err > atol or col_err > atol:
                raise StructuralError(
                    f"marginal mismatch: rows {row_err:.3e}, cols {col_err:.3e}")
        self.matrix = matrix
        self.mu = mu
        self.nu = nu
        self.matrix.flags.writeable = False

    @property
    def shape(self):
        return self.matrix.shape

    def conditionals(self):
        """Row-normalized kernel: conditional law of y given each mu atom."""
        return self.matrix / self.matrix.sum(axis=1, keepdims=True)

    def __repr__(self):
        return f"Coupling(shape={self.shape})"


def product_coupling(mu, nu):
    return Coupling(np.outer(mu.weights, nu.weights), mu, nu)


def martingale_residual(coupling):
    """max_i |sum_j m_ij (y_j - x_i)| / mu_i, the conditional barycenter defect."""
    m = coupling.matrix
    drift = m @ coupling.nu.atoms - m.sum(axis=1, keepdims=True) * coupling.mu.atoms
    return float(np.max(np.linalg.norm(drift, axis=1) / coupling.mu.weights))


def _aligned_weight_vectors(p, q):
    if isinstance(p, DiscreteMeasure) and isinstance(q, DiscreteMeasure):
        if p.n != q.n or p.dim != q.dim:
            raise StructuralError("measures live on different atom sets")
        if np.max(np.linalg.norm(p.atoms - q.atoms, axis=1)) > ATOM_MERGE_TOL:
            raise StructuralError("measures live on different atom sets")
        return p.weights.ravel(), q.weights.ravel()
    if isinstance(p, Coupling) and isinstance(q, Coupling):
        if p.shape != q.shape:
            raise StructuralError("couplings have different shapes")
        return p.matrix.ravel(), q.matrix.ravel()
    raise StructuralError("relative_entropy needs two measures or two couplings")


def relative_entropy(p, q):
    """H(p|q) = sum p log(p/q), with 0 log 0 = 0 and +inf off the support of q."""
    pw, qw = _aligned_weight_vectors(p, q)
    mask = pw > 0.0
    if np.any(qw[mask] <= 0.0):
        return math.inf
    return float(np.sum(pw[mask] * np.log(pw[mask] / qw[mask])))


def barycenter_and_moments(p):
    """(mean, scalar second moment, covariance matrix) of a discrete measure."""
    mean = p.weights @ p.atoms
    m2 = float(np.sum(p.weights * np.sum(p.atoms**2, axis=1)))
    cov = (p.atoms * p.weights[:, None]).T @ p.atoms - np.outer(mean, mean)
    return mean, m2, cov


def coupling_constraints(x, y, columns=True, barycenters=True):
    """Sparse equality rows on the row-major vector of an n x m matrix p:
    the row sums, the column sums (if ``columns``) and the conditional
    barycenter rows sum_j p_ij (y_j - x_i)[k], by i then k (if
    ``barycenters``). CSC without stored zeros: the matrix linprog builds
    from the same rows given densely, so HiGHS sees identical input."""
    n, m = x.shape[0], y.shape[0]
    blocks = [sparse.kron(sparse.eye_array(n), np.ones((1, m)))]
    if columns:
        blocks.append(sparse.kron(np.ones((1, n)), sparse.eye_array(m)))
    if barycenters:  # block i is the (d, m) array of y_j - x_i
        diff = np.swapaxes(y[None] - x[:, None], 1, 2)
        blocks.append(sparse.block_diag(list(diff)))
    a = sparse.vstack(blocks, format="csc")
    a.eliminate_zeros()
    return a


def check_convex_order(mu, nu):
    """Decide whether a martingale coupling of (mu, nu) exists.

    Feasibility of {m >= 0, row sums = mu, column sums = nu, conditional
    barycenters = mu atoms} is decided by an LP; on success the raw HiGHS
    vertex, which meets the equality rows to rounding, is returned as a
    witness ``Coupling``. The solver calls it only to diagnose a failed
    solve in dimension two or more; on the line it reads the potential
    functions instead, and this LP is their reference in the tests.
    """
    if not isinstance(mu, DiscreteMeasure) or not isinstance(nu, DiscreteMeasure):
        raise StructuralError("check_convex_order expects two discrete measures")
    if mu.dim != nu.dim:
        raise StructuralError("marginals have different dimensions")
    a_eq = coupling_constraints(mu.atoms, nu.atoms)
    b_eq = np.concatenate([mu.weights, nu.weights, np.zeros(mu.n * mu.dim)])
    res = linprog(np.zeros(mu.n * nu.n), A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs", options=dict(_LP_OPTIONS))
    if not res.success:
        return False, None
    witness = Coupling(res.x.reshape(mu.n, nu.n), mu, nu, check=False)
    return True, witness


def _comonotone_pairing(alpha, beta):
    """Quantile coupling of two measures on R; returns the dense matrix in the
    original atom order."""
    ia = np.argsort(alpha.atoms[:, 0], kind="stable")
    ib = np.argsort(beta.atoms[:, 0], kind="stable")
    wa = alpha.weights[ia].copy()
    wb = beta.weights[ib].copy()
    matrix = np.zeros((alpha.n, beta.n))
    i = j = 0
    while i < len(wa) and j < len(wb):
        mass = min(wa[i], wb[j])
        matrix[ia[i], ib[j]] += mass
        wa[i] -= mass
        wb[j] -= mass
        if wa[i] <= wb[j]:
            i += 1
            if wa[i - 1] == wb[j]:  # exact tie: advance both
                j += 1
        else:
            j += 1
    return matrix


def mcov_discrete(alpha, beta, force_lp=False):
    """Maximal covariance sup_pi \\int <x, y> dpi over couplings of (alpha, beta).

    In one dimension the optimum is the comonotone (quantile) pairing; in
    higher dimension it is a transport LP with cost -<x, y>. ``force_lp``
    routes one-dimensional instances through the LP as a cross-check of the
    two code paths. Returns (value, optimal Coupling).
    """
    if alpha.dim != beta.dim:
        raise StructuralError("mcov_discrete needs equal dimensions")
    if alpha.dim == 1 and not force_lp:
        matrix = _comonotone_pairing(alpha, beta)
    else:
        cost = -(alpha.atoms @ beta.atoms.T)
        a_eq = coupling_constraints(alpha.atoms, beta.atoms, barycenters=False)
        b_eq = np.concatenate([alpha.weights, beta.weights])
        res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                      method="highs", options=dict(_LP_OPTIONS))
        if not res.success:
            raise StructuralError(f"transport LP failed: {res.message}")
        matrix = res.x.reshape(cost.shape)
    value = float(np.sum(matrix * (alpha.atoms @ beta.atoms.T)))
    return value, Coupling(matrix, alpha, beta, check=False)


def _log_standard_normal(points):
    points = np.atleast_2d(points)
    d = points.shape[1]
    return -0.5 * d * math.log(2.0 * math.pi) - 0.5 * np.sum(points**2, axis=1)


def gaussian_reference_identity_check(m, nu=None):
    """Residual of H(m|mu x nu) + H(nu|gamma) = H(m|mu.gamma) + m2(mu)/2.

    gamma is the standard normal reference; the gamma-relative terms score
    each atom against the normal density value at that atom, and mu.gamma is
    the product of mu with the normal density recentered at each mu atom.
    Exact (up to rounding) whenever m is a martingale coupling.
    """
    if not isinstance(m, Coupling):
        raise StructuralError("expected a Coupling")
    mu = m.mu
    nu = m.nu if nu is None else nu
    matrix = m.matrix

    h_m = relative_entropy(m, product_coupling(mu, nu))
    if math.isinf(h_m):
        raise StructuralError("coupling entropy is infinite")
    h_nu_gamma = float(np.sum(nu.weights * (np.log(nu.weights)
                                            - _log_standard_normal(nu.atoms))))
    lhs = h_m + h_nu_gamma

    # log density of mu.gamma at (x_i, y_j): log mu_i + log phi(y_j - x_i)
    diff = nu.atoms[None, :, :] - mu.atoms[:, None, :]
    log_phi = (-0.5 * mu.dim * math.log(2.0 * math.pi)
               - 0.5 * np.sum(diff**2, axis=2))
    mask = matrix > 0.0
    h_m_mugamma = float(np.sum(matrix[mask] * (np.log(matrix[mask])
                                               - (np.log(mu.weights)[:, None]
                                                  + log_phi)[mask])))
    _, m2_mu, _ = barycenter_and_moments(mu)
    rhs = h_m_mugamma + 0.5 * m2_mu
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# JSON ingestion and emission


def measure_to_json(measure):
    if isinstance(measure, DiscreteMeasure):
        return {"dimension": measure.dim,
                "atoms": [list(map(float, a)) for a in measure.atoms],
                "weights": [float(w) for w in measure.weights]}
    if isinstance(measure, GaussianSpec):
        return {"gaussian": {"mean": [float(v) for v in measure.mean],
                             "covariance": [list(map(float, row))
                                            for row in measure.covariance]}}
    raise StructuralError("unsupported measure type")


def measure_from_json(doc):
    """Build a measure from its JSON document form.

    Discrete: {"dimension": d, "atoms": [[...], ...], "weights": [...]};
    weights are normalized when their sum is within 1e-6 of 1 and rejected
    otherwise. Gaussian: {"gaussian": {"mean": [...], "covariance": [[...]]}}.
    """
    if not isinstance(doc, dict):
        raise StructuralError("measure document must be a JSON object")
    if "gaussian" in doc:
        g = doc["gaussian"]
        if not isinstance(g, dict) or "mean" not in g or "covariance" not in g:
            raise StructuralError("field 'gaussian' needs 'mean' and 'covariance'")
        return GaussianSpec(g["mean"], g["covariance"])
    for key in ("dimension", "atoms", "weights"):
        if key not in doc:
            raise StructuralError(f"measure document is missing field '{key}'")
    atoms = _as_atoms(doc["atoms"])
    try:
        dimension = int(doc["dimension"])
    except (TypeError, ValueError) as exc:
        raise StructuralError(f"field 'dimension' must be an integer: {exc}") \
            from exc
    if atoms.shape[1] != dimension:
        raise StructuralError("field 'dimension' does not match the atoms")
    return DiscreteMeasure(atoms, doc["weights"], weight_sum_tol=1e-6)


def load_measure(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"malformed JSON in {path}: {exc}") from exc
    return measure_from_json(doc)


def save_measure(measure, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(measure_to_json(measure), fh, indent=2)
        fh.write("\n")
