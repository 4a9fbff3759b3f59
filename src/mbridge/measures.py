"""Finitely supported measures, couplings, entropy, convex order, max-covariance.

Summary of what lives here:

* ``DiscreteMeasure`` and ``GaussianSpec``: validated marginal types. The
  one check of a covariance matrix, ``_spd_matrix``, also serves the
  Gaussian closed forms and the Gaussian fibers of the simulator.
* ``Coupling``: a joint matrix tied to its two marginals.
* ``relative_entropy``: H(p|q) with a +inf sentinel when p is not
  absolutely continuous with respect to q; ``primal_value`` is H(m|mu x nu).
* ``_softmax``: the one in-place Gibbs normalizer, shared by the solver's
  conditionals, the simulator's posterior and the filter. Its first half,
  ``_log_partition`` (shift, exp, sum), serves values that need no
  normalized weights, such as the trial points of the fiber line search.
* ``check_convex_order``: LP feasibility of a martingale coupling,
  returning a witness when one exists. Every LP goes through ``linprog``,
  which imports scipy on its first call, so that no happy path pays for
  scipy.
* ``mcov_discrete``: maximal covariance between two discrete measures
  (quantile pairing in one dimension, a transport LP otherwise).
* ``_frame``: nu's barycenter and whitening basis, the one unit system of
  the solver. Both the objective H(m | mu x nu) and the martingale
  constraint survive an affine map applied to both marginals, so every
  tolerance that decides "small" is read in the coordinates where nu is
  centred with unit covariance.
* ``_write_json``: the one JSON writer of reports and measure files, one
  top-level key per line, each value a line of json's C encoder.
* ``gaussian_reference_identity_check``: residual of the change-of-reference
  identity H(m|mu x nu) + H(nu|gamma) = H(m|mu.gamma) + m2(mu)/2, where the
  gamma terms score atoms against the standard normal density. It is
  evaluated for the pair mapped into nu's frame, in its cancelled form with
  no logarithm of m: a marginal defect plus a weighted martingale residual.

All arrays are float64 and frozen after validation; the public operations
never mutate their inputs.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import StructuralError

ATOM_MERGE_TOL = 1e-12
MARGINAL_ATOL = 1e-10
MAX_DIMENSION = 512
# HiGHS rejects feasibility tolerances below 1e-10
_LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
               "dual_feasibility_tolerance": 1e-9}


def linprog(*args, **kwargs):
    """scipy's ``optimize.linprog``, imported on the first LP.

    Only the library LPs and the solver's failure diagnosis in d >= 2 call
    it; importing scipy.optimize costs more than a whole happy path of the
    command line, so no import of this package pays for it.
    """
    from scipy.optimize import linprog as highs
    return highs(*args, **kwargs)


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


def _spd_matrix(value, name):
    """``value`` as a symmetric positive definite matrix; StructuralError if
    it is not numeric, square, finite and symmetric (within 1e-12 of its
    scale, then symmetrized), at most ``MAX_DIMENSION`` wide, with every
    eigenvalue above 1e-12 times the largest. A scalar is a 1 x 1 matrix."""
    mat = _float_array(value, name)
    if mat.ndim == 0:
        mat = mat.reshape(1, 1)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise StructuralError(f"{name} must be a square matrix")
    if mat.shape[0] > MAX_DIMENSION:
        raise StructuralError(f"{name} exceeds the supported dimension cap")
    if not np.all(np.isfinite(mat)):
        raise StructuralError(f"{name} must be finite")
    if np.max(np.abs(mat - mat.T)) > 1e-12 * max(1.0, np.max(np.abs(mat))):
        raise StructuralError(f"{name} must be symmetric")
    mat = 0.5 * (mat + mat.T)
    w = np.linalg.eigvalsh(mat)
    if w[0] <= 1e-12 * w[-1]:
        raise StructuralError(f"{name} must be positive definite")
    return mat


def _log_partition(logits, axis):
    """Overwrite ``logits`` with exp(logits - top) and return (top, total).

    ``top`` is the maximum along ``axis`` and ``total`` the sum of the
    shifted exponentials, both kept with length one along ``axis``; the
    log-sum-exp of the input is top + log(total). A value needs only this,
    the normalized weights need ``_softmax``.
    """
    # the reductions of ndarray.max and sum, without their method wrappers
    top = np.maximum.reduce(logits, axis=axis, keepdims=True)
    logits -= top
    np.exp(logits, out=logits)
    return top, np.add.reduce(logits, axis=axis, keepdims=True)


def _softmax(logits, axis):
    """Normalize exp(logits) along ``axis`` in place; return (top, total).

    ``_log_partition`` followed by one divide: the log-sum-exp of the input
    is top + log(total), and a -inf entry comes out as an exact 0.
    """
    top, total = _log_partition(logits, axis)
    logits /= total
    return top, total


def merge_close_atoms(atoms, weights):
    """Merge atoms closer than ``ATOM_MERGE_TOL``, summing weights.

    Returns (atoms, weights, merged_any). Atoms are taken in input order; each
    joins the nearest earlier representative within the tolerance or becomes
    one, so the representatives are pairwise farther apart than the
    tolerance and the output preserves first-occurrence order.
    """
    atoms = np.asarray(atoms, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = atoms.shape[0]
    # sorted by first coordinate, atoms on either side of a gap wider than
    # the tolerance are farther apart, so only the runs between gaps can merge
    order = np.argsort(atoms[:, 0], kind="stable")
    gaps = np.flatnonzero(np.diff(atoms[order, 0]) > ATOM_MERGE_TOL)
    bounds = np.concatenate([[0], gaps + 1, [n]])
    rep_of = np.arange(n)
    for k in np.flatnonzero(np.diff(bounds) > 1):
        run = np.sort(order[bounds[k]:bounds[k + 1]])
        reps = [run[0]]
        for cur in run[1:]:
            dist = np.linalg.norm(atoms[reps] - atoms[cur], axis=1)
            best = int(np.argmin(dist))
            if dist[best] <= ATOM_MERGE_TOL:
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
    renormalized exactly after the check. Arrays are read-only afterwards;
    so is the frame (``_frame``), filled on first use and then shared by
    every caller that asks for it.
    """

    __slots__ = ("atoms", "weights", "_whitened")

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
        self._whitened = None
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
        cov = _spd_matrix(covariance, "covariance")
        if cov.shape[0] != mean.shape[0]:
            raise StructuralError("mean and covariance dimensions differ")
        if not np.all(np.isfinite(mean)):
            raise StructuralError("Gaussian mean must be finite")
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

    def __init__(self, matrix, mu, nu, check=True):
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
            if row_err > MARGINAL_ATOL or col_err > MARGINAL_ATOL:
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
    return _entropy_sum(*_aligned_weight_vectors(p, q))


def _entropy_sum(pw, qw):
    """sum p log(p/q) over the entries where p > 0, or +inf where q is not.

    The entries are masked only when some p is not positive, so a strictly
    positive p is summed over the same elements in the same order."""
    support = pw > 0.0
    if not support.all():
        pw, qw = pw[support], qw[support]
    if np.any(qw <= 0.0):
        return math.inf
    return float(np.sum(pw * np.log(pw / qw)))


def primal_value(coupling):
    """H(m | mu x nu), against the product of the weights, unvalidated."""
    return _entropy_sum(coupling.matrix.ravel(),
                        np.outer(coupling.mu.weights,
                                 coupling.nu.weights).ravel())


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
    from scipy import sparse
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
    barycenters = mu atoms} is decided by an LP; on success the HiGHS
    vertex, which meets the equality rows to about 1e-10, is clipped at 0
    and returned as a witness ``Coupling``. The solver calls it only to
    diagnose a failed solve in dimension two or more; on the line it reads
    the potential functions instead, and this LP is their reference in the
    tests.
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
    # HiGHS may leave entries a rounding error below its bound 0
    witness = Coupling(np.maximum(res.x, 0.0).reshape(mu.n, nu.n), mu, nu,
                       check=False)
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


def mcov_discrete(alpha, beta):
    """Maximal covariance sup_pi \\int <x, y> dpi over couplings of (alpha, beta).

    In one dimension the optimum is the comonotone (quantile) pairing; in
    higher dimension it is a transport LP with cost -<x, y>. Returns
    (value, optimal Coupling).
    """
    if alpha.dim != beta.dim:
        raise StructuralError("mcov_discrete needs equal dimensions")
    if alpha.dim == 1:
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


def _frame(nu):
    """nu's frame: (center, basis, inverse) of its whitened coordinates.

    The center is nu's barycenter c. With the SVD U S V' of
    (sqrt(nu_j) (y_j - c))_j', the r axes of U whose singular value exceeds
    1e-13 times the largest span the differences of the atoms, and each
    singular value is nu's spread (standard deviation) along its axis:
    basis = U / S maps a centred point to coordinates in which nu has unit
    covariance, and inverse = U S maps them back onto that span. A point
    mass has r = 0. Both marginals mapped by x -> (x - c) basis are the
    pair under an affine map, which leaves the entropic martingale problem
    unchanged; every tolerance of the solver is read in this frame.

    The measure is immutable, so the frame is computed once, on the first
    call, and kept read-only on it: one SVD per measure, however many
    steps of a request read the frame.
    """
    if nu._whitened is None:
        center = nu.weights @ nu.atoms
        axes, s, _ = np.linalg.svd(
            (np.sqrt(nu.weights)[:, None] * (nu.atoms - center)).T,
            full_matrices=False)
        rank = int(np.sum(s > 1e-13 * s[0]))
        axes, s = axes[:, :rank], s[:rank]
        frame = (center, axes / s, axes * s)
        for arr in frame:
            arr.flags.writeable = False
        nu._whitened = frame
    return nu._whitened


def gaussian_reference_identity_check(m):
    """Residual of H(m|mu x nu) + H(nu|gamma) = H(m|mu.gamma) + m2(mu)/2.

    The identity is evaluated for the pair mapped into nu's frame
    (``_frame``): x_i and y_j below are the whitened atoms and d the rank
    of the frame, so the residual does not depend on the units or the
    position of the atoms. gamma is the standard normal reference, scored
    at each nu atom by its density; mu.gamma is the product of mu with the
    normal density recentered at each mu atom. The log m terms appear on
    both sides, so with row and column sums ``row`` and ``col`` of m the
    residual is, exactly and for any coupling,

        |sum_j (nu_j - col_j) (log nu_j + (d/2) log 2 pi + |y_j|^2 / 2)
         + sum_i <x_i, sum_j m_ij (y_j - x_i)>
         + sum_i (row_i - mu_i) |x_i|^2 / 2|:

    a marginal defect and a weighted martingale residual, which vanish for
    a martingale coupling of (mu, nu). Costs one (n, m) x (m, d) product.
    """
    if not isinstance(m, Coupling):
        raise StructuralError("expected a Coupling")
    mu, nu = m.mu, m.nu
    center, basis, _ = _frame(nu)
    x, y = (mu.atoms - center) @ basis, (nu.atoms - center) @ basis
    row = m.matrix.sum(axis=1)
    col = m.matrix.sum(axis=0)
    score = (np.log(nu.weights)
             + 0.5 * basis.shape[1] * math.log(2.0 * math.pi)
             + 0.5 * np.sum(y**2, axis=1))
    drift = m.matrix @ y - row[:, None] * x
    sq = np.sum(x**2, axis=1)
    return abs(float((nu.weights - col) @ score + np.sum(x * drift)
                     + 0.5 * (row - mu.weights) @ sq))


# ---------------------------------------------------------------------------
# JSON ingestion and emission


def measure_to_json(measure):
    if isinstance(measure, DiscreteMeasure):
        return {"dimension": measure.dim,
                "atoms": measure.atoms.tolist(),
                "weights": measure.weights.tolist()}
    if isinstance(measure, GaussianSpec):
        return {"gaussian": {"mean": measure.mean.tolist(),
                             "covariance": measure.covariance.tolist()}}
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
    _write_json(path, measure_to_json(measure))


def _json_default(obj):
    """JSON form of the numpy values that ``json`` does not encode itself."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# no indent, so ``encode`` runs json's C encoder
_ENCODER = json.JSONEncoder(default=_json_default)


def _write_json(path, doc):
    """Write the dict ``doc`` with one top-level key per line, in one write.

    Each value is one line of ``_ENCODER`` (floats as their ``repr``), so
    ``json.load`` returns the document that ``json.dump`` would have written.
    """
    items = ",\n".join(f"  {_ENCODER.encode(key)}: {_ENCODER.encode(value)}"
                        for key, value in doc.items())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{{\n{items}\n}}\n" if items else "{}\n")
