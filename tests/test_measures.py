import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

import mbridge as mb
from mbridge import (
    Coupling,
    DiscreteMeasure,
    GaussianSpec,
    check_convex_order,
    gaussian_reference_identity_check,
    martingale_residual,
    mcov_discrete,
    measure_from_json,
    measure_to_json,
    merge_close_atoms,
    product_coupling,
    relative_entropy,
)
from mbridge.measures import _frame, _softmax, _write_json
from conftest import lifted, planted_instance, random_instance


def test_duplicate_atoms_merge_on_construction():
    m = DiscreteMeasure([[0.0], [1.0], [0.0 + 1e-13]], [0.25, 0.5, 0.25])
    assert m.n == 2
    assert np.allclose(m.weights, [0.5, 0.5])
    assert m.atoms[0, 0] == 0.0 and m.atoms[1, 0] == 1.0


def test_merge_keeps_first_occurrence_order():
    atoms = np.array([[2.0], [0.0], [2.0], [1.0]])
    out_atoms, out_w, merged = merge_close_atoms(atoms, [0.1, 0.2, 0.3, 0.4])
    assert merged
    assert out_atoms.ravel().tolist() == [2.0, 0.0, 1.0]
    assert np.allclose(out_w, [0.4, 0.2, 0.4])


def test_merge_finds_a_close_pair_with_an_atom_sorted_between():
    # (0, 0) and (9e-13, 0) are within 1e-12, but (5e-13, 10) sorts between
    # them by first coordinate
    atoms = np.array([[0.0, 0.0], [5e-13, 10.0], [9e-13, 0.0]])
    out_atoms, out_w, merged = merge_close_atoms(atoms, [0.2, 0.3, 0.5])
    assert merged
    assert out_atoms.tolist() == [[0.0, 0.0], [5e-13, 10.0]]
    assert out_w.tolist() == [0.7, 0.3]
    assert DiscreteMeasure(atoms, [0.2, 0.3, 0.5]).n == 2


# coordinates on a grid of spacing 4e-13 or 7e-13 next to 1e-12 give chains
# and clusters of near atoms; spacing 1 gives exact duplicates only
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 3), spacing=st.sampled_from([4e-13, 7e-13, 1.0]),
       data=st.data())
def test_merge_leaves_separated_atoms_that_cover_the_input(d, spacing, data):
    n = data.draw(st.integers(1, 12))
    cells = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=d,
                                        max_size=d),
                               min_size=n, max_size=n))
    atoms = spacing * np.array(cells, dtype=float)
    weights = np.arange(1.0, n + 1.0)
    out_atoms, out_w, merged = merge_close_atoms(atoms, weights)
    tol = mb.measures.ATOM_MERGE_TOL
    gaps = np.linalg.norm(out_atoms[:, None] - out_atoms[None, :], axis=2)
    assert np.all(gaps[~np.eye(len(out_atoms), dtype=bool)] > tol)
    reach = np.linalg.norm(atoms[:, None] - out_atoms[None, :], axis=2)
    assert np.all(reach.min(axis=1) <= tol)
    assert math.isclose(out_w.sum(), weights.sum(), rel_tol=1e-15)
    assert merged == (len(out_atoms) < n)


def test_weight_validation():
    with pytest.raises(mb.StructuralError):
        DiscreteMeasure([[0.0], [1.0]], [0.5, -0.5])
    with pytest.raises(mb.StructuralError):
        DiscreteMeasure([[0.0], [1.0]], [0.5, 0.6])
    # JSON tolerance is looser
    m = measure_from_json({"dimension": 1, "atoms": [[0.0], [1.0]],
                           "weights": [0.5000001, 0.5]})
    assert abs(m.weights.sum() - 1.0) < 1e-15


def test_measures_are_immutable():
    m = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        m.weights[0] = 0.7


def test_coupling_leaves_the_callers_matrix_writable():
    mu = DiscreteMeasure([[0.0]], [1.0])
    nu = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    m = np.array([[0.5, 0.5]])
    coupling = Coupling(m, mu, nu)
    assert m.flags.writeable
    m[0, 0] = 0.25
    assert coupling.matrix[0, 0] == 0.5
    with pytest.raises(ValueError):
        coupling.matrix[0, 0] = 0.25


def test_coupling_marginal_check():
    mu = DiscreteMeasure([[0.0]], [1.0])
    nu = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    Coupling(np.array([[0.5, 0.5]]), mu, nu)
    with pytest.raises(mb.StructuralError):
        Coupling(np.array([[0.4, 0.5]]), mu, nu)


def test_convex_order_positive_case_returns_martingale_witness(rng):
    for _ in range(10):
        mu, nu, _ = random_instance(rng)
        ok, witness = check_convex_order(mu, nu)
        assert ok
        assert martingale_residual(witness) < 1e-9


def test_convex_order_negative_cases():
    # spread mu, point nu: barycenter matches but dispersion decreases
    mu = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[0.0]], [1.0])
    ok, witness = check_convex_order(mu, nu)
    assert not ok and witness is None
    # barycenter mismatch
    mu2 = DiscreteMeasure([[0.2]], [1.0])
    nu2 = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    ok2, _ = check_convex_order(mu2, nu2)
    assert not ok2


def test_convex_order_two_dimensional(rng):
    mu, nu, _ = random_instance(rng, d=2)
    ok, witness = check_convex_order(mu, nu)
    assert ok and martingale_residual(witness) < 1e-9


def test_convex_order_witness_is_clipped_at_zero():
    # HiGHS's vertex for planted draw 4 of default_rng(0) (n = 15, m = 6,
    # d = 3) holds an entry of -4.6e-11 below its bound 0
    rng = np.random.default_rng(0)
    for _ in range(5):
        mu, nu, _ = planted_instance(rng)
    ok, witness = check_convex_order(mu, nu)
    assert ok and witness.matrix.min() >= 0.0


def test_relative_entropy_basics():
    mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[0.0], [1.0]], [0.25, 0.75])
    h = relative_entropy(mu, nu)
    expect = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
    assert abs(h - expect) < 1e-15
    assert relative_entropy(mu, mu) == 0.0


def test_relative_entropy_off_support_is_inf():
    a = DiscreteMeasure([[0.0]], [1.0])
    b = DiscreteMeasure([[1.0]], [1.0])
    with pytest.raises(mb.StructuralError):
        relative_entropy(a, b)  # different atom sets are a structural error
    # same support via couplings: q vanishes where p charges
    mu = DiscreteMeasure([[0.0]], [1.0])
    nu = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    p = Coupling(np.array([[0.5, 0.5]]), mu, nu)
    q = Coupling(np.array([[1.0, 0.0]]), mu, nu, check=False)
    assert math.isinf(relative_entropy(p, q))
    # the same where p has zeros of its own, which are masked out first
    nu3 = DiscreteMeasure([[-1.0], [0.0], [1.0]], [0.25, 0.5, 0.25])
    p = Coupling(np.array([[0.5, 0.0, 0.5]]), mu, nu3, check=False)
    q = Coupling(np.array([[1.0, 0.0, 0.0]]), mu, nu3, check=False)
    assert relative_entropy(p, q) == math.inf
    # q vanishing only where p does leaves the value finite
    q = Coupling(np.array([[0.25, 0.0, 0.75]]), mu, nu3, check=False)
    assert relative_entropy(p, q) == 0.5 * math.log(2.0) + 0.5 * math.log(
        0.5 / 0.75)


@pytest.mark.parametrize("zeros", [False, True])
def test_primal_value_is_the_masked_formula_bit_for_bit(rng, zeros):
    mu, nu, matrix = random_instance(rng)
    if zeros:
        matrix = matrix.copy()
        matrix[0, 0] = matrix[-1, -1] = 0.0
    coupling = Coupling(matrix, mu, nu, check=False)
    pw = coupling.matrix.ravel()
    qw = np.outer(mu.weights, nu.weights).ravel()
    mask = pw > 0.0
    assert mask.all() != zeros
    masked = float(np.sum(pw[mask] * np.log(pw[mask] / qw[mask])))
    assert mb.primal_value(coupling) == masked
    assert relative_entropy(coupling, product_coupling(mu, nu)) == masked


def test_relative_entropy_joint_convexity(rng):
    mu = DiscreteMeasure([[0.0]], [1.0])
    nu = DiscreteMeasure(np.arange(4.0).reshape(-1, 1) - 1.5,
                         [0.25, 0.25, 0.25, 0.25])
    for _ in range(25):
        p1 = rng.dirichlet(np.ones(4)) + 1e-9
        p2 = rng.dirichlet(np.ones(4)) + 1e-9
        q1 = rng.dirichlet(np.ones(4)) + 1e-9
        q2 = rng.dirichlet(np.ones(4)) + 1e-9
        as_c = lambda w: Coupling((w / w.sum()).reshape(1, -1), mu, nu,
                                  check=False)
        lhs = relative_entropy(as_c(0.5 * (p1 + p2)), as_c(0.5 * (q1 + q2)))
        rhs = 0.5 * (relative_entropy(as_c(p1), as_c(q1))
                     + relative_entropy(as_c(p2), as_c(q2)))
        assert lhs <= rhs + 1e-12


def test_mcov_one_dimensional_matches_lp(rng):
    for _ in range(8):
        a = DiscreteMeasure(rng.normal(size=(5, 1)), rng.dirichlet(np.ones(5)) + 0.0)
        b = DiscreteMeasure(rng.normal(size=(4, 1)), rng.dirichlet(np.ones(4)) + 0.0)
        v1, _ = mcov_discrete(a, b)
        v2, _ = mcov_discrete(lifted(a), lifted(b))
        assert abs(v1 - v2) < 1e-10


def test_mcov_comonotone_is_quantile_coupling():
    a = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    b = DiscreteMeasure([[-1.0], [2.0]], [0.5, 0.5])
    val, plan = mcov_discrete(a, b)
    # comonotone: low with low, high with high
    assert abs(val - (0.5 * 0.0 * -1.0 + 0.5 * 1.0 * 2.0)) < 1e-14
    assert plan.matrix[0, 0] == pytest.approx(0.5)
    assert plan.matrix[1, 1] == pytest.approx(0.5)


def test_reference_identity_exact_for_martingale_couplings(rng):
    for _ in range(6):
        mu, nu, matrix = random_instance(rng)
        m = Coupling(matrix, mu, nu)
        # the generator's matrix is a martingale coupling by construction
        assert martingale_residual(m) < 1e-12
        assert gaussian_reference_identity_check(m) < 1e-10


def entropic_reference_identity(m):
    """|H(m|mu x nu) + H(nu|gamma) - H(m|mu.gamma) - m2(mu)/2| term by term,
    with gamma the standard normal density: the entropic form that
    ``gaussian_reference_identity_check`` evaluates after cancellation."""
    mu, nu, matrix = m.mu, m.nu, m.matrix
    log_2pi = mu.dim * math.log(2.0 * math.pi)
    log_gamma = -0.5 * log_2pi - 0.5 * np.sum(nu.atoms**2, axis=1)
    h_nu_gamma = float(np.sum(nu.weights * (np.log(nu.weights) - log_gamma)))
    diff = nu.atoms[None, :, :] - mu.atoms[:, None, :]
    log_mugamma = (np.log(mu.weights)[:, None] - 0.5 * log_2pi
                   - 0.5 * np.sum(diff**2, axis=2))
    mask = matrix > 0.0
    h_m_mugamma = float(np.sum(matrix[mask] * (np.log(matrix[mask])
                                               - log_mugamma[mask])))
    m2_mu = float(np.sum(mu.weights * np.sum(mu.atoms**2, axis=1)))
    h_m = relative_entropy(m, product_coupling(mu, nu))
    return abs(h_m + h_nu_gamma - h_m_mugamma - 0.5 * m2_mu)


def test_reference_identity_matches_its_entropic_form(rng):
    # couplings with wrong rows, wrong columns, total mass off 1, some zero
    # entries and nonzero drift: each of the three cancelled terms is of
    # order one, so dropping any of them breaks the agreement
    for _ in range(100):
        mu, nu, _ = random_instance(rng)
        matrix = rng.uniform(0.0, 1.0, size=(mu.n, nu.n))
        matrix[rng.random(matrix.shape) < 0.2] = 0.0
        matrix *= rng.uniform(0.5, 2.0) / matrix.sum()
        m = Coupling(matrix, mu, nu, check=False)
        assert martingale_residual(m) > 1e-3
        # the check evaluates the identity for the pair in nu's frame
        center, basis, _ = _frame(nu)
        framed = [DiscreteMeasure((p.atoms - center) @ basis, p.weights)
                  for p in (mu, nu)]
        reference = entropic_reference_identity(
            Coupling(matrix, *framed, check=False))
        assert (abs(gaussian_reference_identity_check(m) - reference)
                <= 1e-13 * (1.0 + reference))


def test_reference_identity_fails_for_non_martingale_coupling():
    mu = DiscreteMeasure([[0.5]], [1.0])
    nu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    m = product_coupling(mu, nu)  # barycenter 0.5 = x, martingale
    assert gaussian_reference_identity_check(m) < 1e-12
    # valid marginals but conditional barycenters 0.5 != 0.25, 0.75
    mu2 = DiscreteMeasure([[0.25], [0.75]], [0.5, 0.5])
    skew = product_coupling(mu2, nu)
    assert gaussian_reference_identity_check(skew) > 1e-3


def test_json_round_trip_discrete(tmp_path):
    m = DiscreteMeasure([[-1.0, 0.5], [2.0, -0.25]], [0.4, 0.6])
    doc = measure_to_json(m)
    back = measure_from_json(json.loads(json.dumps(doc)))
    assert np.array_equal(back.atoms, m.atoms)
    assert np.array_equal(back.weights, m.weights)

    path = tmp_path / "m.json"
    mb.save_measure(m, path)
    again = mb.load_measure(path)
    assert np.array_equal(again.atoms, m.atoms)


def test_reports_hold_one_top_level_key_per_line(tmp_path):
    doc = {"schema": "mbridge/1",
           "values": np.array([[0.1, 1.0 / 3.0], [-2.5e-300, 7.0]]),
           "scalar": np.float64(2.0) / 3.0, "count": np.int64(7),
           "flag": np.bool_(True), "missing": None,
           "nested": {"ks": {"0.5": 1e-17}, "list": [1, 2.5, "x"]},
           "empty": {}}
    path = tmp_path / "report.json"
    _write_json(path, doc)
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    assert lines[0] == "{" and lines[-2:] == ["}", ""]
    assert [json.loads("{" + line.rstrip(",") + "}").popitem()[0]
            for line in lines[1:-2]] == list(doc)
    back = json.loads(text)
    assert back == json.loads(json.dumps(doc, indent=2,
                                         default=lambda o: o.tolist()))
    assert back["values"][0][1] == 1.0 / 3.0
    _write_json(path, {})
    assert json.loads(path.read_text(encoding="utf-8")) == {}


def test_save_measure_writes_the_report_layout(tmp_path):
    m = DiscreteMeasure([[-1.0, 0.5], [2.0, -0.25], [0.1, 0.3]],
                        [0.2, 0.3, 0.5])
    path = tmp_path / "m.json"
    mb.save_measure(m, path)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert len(lines) == 2 + len(measure_to_json(m)) + 1
    again = mb.load_measure(path)
    assert np.array_equal(again.atoms, m.atoms)
    assert np.array_equal(again.weights, m.weights)


def test_json_round_trip_gaussian(tmp_path):
    g = GaussianSpec([0.0, 1.0], [[2.0, 0.3], [0.3, 1.0]])
    path = tmp_path / "g.json"
    mb.save_measure(g, path)
    back = mb.load_measure(path)
    assert isinstance(back, GaussianSpec)
    assert np.array_equal(back.covariance, g.covariance)


def test_json_rejects_malformed_documents():
    with pytest.raises(mb.StructuralError):
        measure_from_json({"atoms": [[0.0]], "weights": [1.0]})
    with pytest.raises(mb.StructuralError):
        measure_from_json({"dimension": 2, "atoms": [[0.0]], "weights": [1.0]})
    with pytest.raises(mb.StructuralError):
        measure_from_json({"dimension": 1, "atoms": [[0.0], [1.0]],
                           "weights": [0.7, 0.7]})


# every consumer of a covariance matrix runs the same SPD check
COVARIANCE_CONSUMERS = {
    "GaussianSpec": lambda cov: GaussianSpec(np.zeros(len(cov)), cov),
    "FiberModel": lambda cov: mb.FiberModel.gaussian(np.zeros(len(cov)), cov),
    "gaussian": mb.gaussian_energy_closed_form,
}
NOT_SPD = {
    "nan": [[np.nan]],
    "inf": [[np.inf]],
    "nan-off-diagonal": [[1.0, np.nan], [np.nan, 1.0]],
    "asymmetric": [[1.0, 2.0], [0.0, 1.0]],
    "negative": [[-1.0]],
    # below the 1e-12 relative eigenvalue cut
    "near-singular": np.diag([1.0, 1e-13]),
}


@pytest.mark.parametrize("cov", NOT_SPD)
@pytest.mark.parametrize("consumer", COVARIANCE_CONSUMERS)
def test_every_covariance_consumer_rejects_the_same_matrices(consumer, cov):
    with pytest.raises(mb.StructuralError):
        COVARIANCE_CONSUMERS[consumer](NOT_SPD[cov])


@pytest.mark.parametrize("consumer", COVARIANCE_CONSUMERS)
def test_every_covariance_consumer_accepts_a_matrix_above_the_cut(consumer):
    COVARIANCE_CONSUMERS[consumer](np.diag([1.0, 1e-11]))


@pytest.mark.parametrize("axis", [0, 1])
def test_softmax_normalizes_in_place_and_returns_the_log_sum_exp(axis):
    rng = np.random.default_rng(11)
    logits = rng.uniform(-500.0, 500.0, size=(6, 9))     # a spread of 1e3
    logits[1, 4] = logits[3, 0] = logits[3, 7] = logits[5, 8] = -np.inf
    if axis == 0:
        logits = np.ascontiguousarray(logits.T)
    expected_lse = logsumexp(logits, axis=axis, keepdims=True)
    q = logits.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top, total = _softmax(q, axis=axis)
    assert np.all(q[np.isneginf(logits)] == 0.0)
    m = logits.shape[axis]
    assert np.max(np.abs(q.sum(axis=axis) - 1.0)) <= 4 * m * np.finfo(float).eps
    lse = top + np.log(total)
    assert np.all(np.abs(lse - expected_lse) <= 1e-15 * (1.0 + np.abs(lse)))
    if axis == 0:
        # the simulator's posterior normalized this way before the helper
        ref = logits.copy()
        ref -= ref.max(axis=0)
        np.exp(ref, out=ref)
        ref /= ref.sum(axis=0)
        assert q.tobytes() == ref.tobytes()
