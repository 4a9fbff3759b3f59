"""Psi-dual Newton solver, inner duals, and the value chain on small instances."""

import dataclasses
import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mbridge import (
    Coupling,
    DegenerateFiber,
    DiscreteMeasure,
    DualDivergence,
    Infeasible,
    MbridgeError,
    NotConverged,
    NotInConvexOrder,
    NotIrreducible,
    PotentialTriple,
    SolverConfig,
    StructuralError,
    classical_sinkhorn_sp,
    dual_value,
    extract_base_measure,
    gauge_normalize,
    gibbs_coupling,
    inner_dual_solve,
    mcov_bounds,
    mcov_discrete,
    primal_value,
    product_coupling,
    relative_entropy,
    schroedinger_system_residuals,
    measure_to_json,
    sinkhorn_msb,
    vp_value,
)
import mbridge.solver as solver
from mbridge.cli import main
from mbridge.measures import _log_partition, _softmax
from mbridge.solver import (_ARMIJO, _NEWTON_GRADIENT_TOLERANCE,
                            _NEWTON_MAX_STEPS, CONDITIONAL_FLOOR,
                            H_DIVERGENCE_BOUND, HESSIAN_CONDITION_CAP,
                            _diagnose)
from mbridge.solver import _fiber_newton as fiber_newton
from conftest import (chained_blocks, fresh_python, golden_section, lifted,
                      line_in_the_plane, peacock, planted_instance,
                      random_instance, refusal_before_the_solve,
                      study_instance, two_by_three_family)


def entropy_of(matrix, mu, nu):
    return relative_entropy(Coupling(matrix, mu, nu, check=False),
                            product_coupling(mu, nu))


def test_two_point_marginals_pin_the_coupling():
    # with two nu atoms the martingale constraint determines each row,
    # so the solver must hit the unique coupling exactly
    mu = DiscreteMeasure([[-0.5], [0.5]], [0.5, 0.5])
    nu = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    report = sinkhorn_msb(mu, nu)
    expected = np.array([[3.0, 1.0], [1.0, 3.0]]) / 8.0
    assert report.converged
    assert np.max(np.abs(report.coupling.matrix - expected)) < 1e-12
    assert abs(report.primal_value - entropy_of(expected, mu, nu)) < 1e-12


def test_point_mass_mu_solves_in_one_step_with_flat_potentials():
    mu = DiscreteMeasure([[0.0]], [1.0])
    nu = DiscreteMeasure([[-2.0], [0.0], [2.0]], [0.3, 0.4, 0.3])
    report = sinkhorn_msb(mu, nu)
    assert report.converged
    assert np.max(np.abs(report.coupling.matrix[0] - nu.weights)) < 1e-12
    assert np.max(np.abs(report.potentials.phi)) < 1e-10
    assert np.max(np.abs(report.potentials.psi)) < 1e-10
    assert np.max(np.abs(report.potentials.h)) < 1e-10
    assert abs(report.primal_value) < 1e-12


def test_inner_dual_matches_atanh_for_symmetric_bernoulli():
    nu = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    psi = np.zeros(2)
    for x in (-0.9, -0.3, 0.2, 0.7):
        h, phi, cond = inner_dual_solve(np.array([x]), psi, nu)
        # stationarity: tanh(h) = x
        assert abs(h[0] - math.atanh(x)) < 1e-12
        assert abs(phi - (h[0] * x - math.log(math.cosh(h[0])))) < 1e-12
        assert abs(cond @ nu.atoms[:, 0] - x) < 1e-11


def test_an_exact_zero_fiber_value_is_a_positive_zero():
    # x sits within the gradient tolerance of nu's barycenter, so the fiber
    # stays at z = 0, where <z, x> = 0 * x and the log-partition are both
    # zero; the value is +0, as einsum's sum gives it, not -0
    nu = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    _, phi, _ = inner_dual_solve(np.array([-1e-13]), np.zeros(2), nu)
    assert phi == 0.0 and math.copysign(1.0, phi) == 1.0


def test_inner_dual_rejects_boundary_and_off_hull_points():
    nu = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    psi = np.zeros(2)
    with pytest.raises(NotIrreducible):
        inner_dual_solve(np.array([1.0]), psi, nu)
    with pytest.raises(NotIrreducible):
        inner_dual_solve(np.array([1.5]), psi, nu)
    nu2 = DiscreteMeasure([[-1.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
    with pytest.raises(NotIrreducible):
        # off the affine hull of supp(nu): caught even without the LP test
        inner_dual_solve(np.array([0.0, 0.5]), psi, nu2)


def test_inner_dual_divergence_guard_trips_near_the_boundary(monkeypatch):
    nu = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    monkeypatch.setattr("mbridge.solver.H_DIVERGENCE_BOUND", 5.0)
    # optimal h = atanh(0.99999) ~ 6.1 exceeds the lowered bound
    with pytest.raises(DualDivergence):
        inner_dual_solve(np.array([0.99999]), np.zeros(2), nu)


def test_a_covariance_lapack_finds_singular_raises_degenerate_fiber(
        monkeypatch):
    # LAPACK may refuse a conditional covariance whose eigenvalues passed the
    # conditioning cap; the fiber Newton names the fiber instead of letting
    # numpy's LinAlgError escape the solve. A rank-1 fiber divides by its
    # variance without LAPACK, so the pair is the CI's d = 2 one
    mu = DiscreteMeasure([[-0.2, 0.1], [0.2, -0.1]], [0.5, 0.5])
    nu = DiscreteMeasure([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]],
                         [0.245, 0.255, 0.255, 0.245])
    geom = solver._FiberGeometry(nu)
    assert geom.rank == 2
    x_red = geom.reduce_points(mu.atoms)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(DegenerateFiber,
                       match="^fiber 0: conditional covariance is singular"):
        fiber_newton(geom, x_red, np.zeros(nu.n))


@pytest.mark.parametrize("smallest, cause", [
    (-1e-3, "covariance has the eigenvalue -1.000e-03, not positive"),
    (1e-20, "covariance condition number exceeds 1e+14")],
    ids=["eigenvalue", "condition"])
def test_a_degenerate_fiber_in_the_plane_names_its_cause(monkeypatch,
                                                         smallest, cause):
    # fiber 1's smallest eigenvalue is replaced: a non-positive one and a
    # condition number above the cap are told apart
    mu = DiscreteMeasure([[-0.2, 0.1], [0.2, -0.1]], [0.5, 0.5])
    nu = DiscreteMeasure([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]],
                         [0.245, 0.255, 0.255, 0.245])
    geom = solver._FiberGeometry(nu)
    eigvalsh = np.linalg.eigvalsh

    def replaced(cov):
        eigs = eigvalsh(cov)
        eigs[1, 0] = smallest
        return eigs

    monkeypatch.setattr(np.linalg, "eigvalsh", replaced)
    with pytest.raises(DegenerateFiber,
                       match=re.escape(f"fiber 1: conditional {cause}")):
        fiber_newton(geom, geom.reduce_points(mu.atoms), np.zeros(nu.n))


def test_a_degenerate_fiber_on_the_line_says_its_variance_is_not_positive():
    # at the potentials of the component start the conditional of every
    # fiber started at z = 0 sits on one nu atom, so its variance underflows
    # to 0; the condition number of a variance is 1, so the message names
    # the variance
    mu, nu = peacock(10, 0.1)
    report = sinkhorn_msb(mu, nu)
    with pytest.raises(DegenerateFiber,
                       match="^fiber 0: conditional variance 0.000e[+]00 is "
                       "not positive$"):
        dual_value(report.potentials.psi, mu, nu)


def _linalg_calls(monkeypatch, call):
    """The name and argument shapes of every ``numpy.linalg`` function
    that ``call()`` reaches."""
    calls = []

    def recording(name, function):
        def recorded(*args, **kwargs):
            calls.append((name, [np.shape(a) for a in args
                                 if isinstance(a, np.ndarray)]))
            return function(*args, **kwargs)
        return recorded

    with monkeypatch.context() as m:
        for name in ("cholesky", "eig", "eigh", "eigvals", "eigvalsh", "inv",
                     "lstsq", "norm", "pinv", "qr", "solve", "svd"):
            m.setattr(np.linalg, name,
                      recording(name, getattr(np.linalg, name)))
        call()
    return calls


def without_the_component_start(monkeypatch):
    """Start every psi solve at psi = 0, as a pair with one component does;
    from the component start a reducible peacock takes no Newton step."""
    monkeypatch.setattr(solver, "_component_start", lambda *args: None)


def test_a_line_solve_passes_no_one_by_one_stack_to_numpy_linalg(
        monkeypatch):
    # on a line every fiber Hessian is a variance: the fiber Newton, its
    # h block and the predicted starts divide by it, and only the m x m psi
    # system reaches np.linalg.solve
    without_the_component_start(monkeypatch)
    mu, nu = _benchmark_peacock(0.05)
    calls = _linalg_calls(monkeypatch, lambda: sinkhorn_msb(mu, nu))
    stacked = [(name, shapes) for name, shapes in calls
               if any(len(s) >= 3 and s[-2:] == (1, 1) for s in shapes)]
    assert stacked == []
    solves = [shapes[0] for name, shapes in calls if name == "solve"]
    assert solves and set(solves) == {(nu.n, nu.n)}


def test_the_dual_rate_reads_linear_on_reducible_pairs_and_fast_on_strict(
        monkeypatch):
    # from psi = 0 a reducible peacock's dual rises at the rate 1/e per
    # iteration, and from the component start it converges at once; the
    # strict study pair converges quadratically
    started = sinkhorn_msb(*peacock(10, 0.05))
    assert started.converged and started.iterations <= 2
    without_the_component_start(monkeypatch)
    report = sinkhorn_msb(*peacock(10, 0.05))
    assert report.converged
    assert 0.3 <= report.rate <= 0.45
    study = sinkhorn_msb(*study_instance())
    assert 0.0 < study.rate < 1e-3
    assert solver._rate(np.array([0.5, 0.5])) == 0.0


def _certify(tmp_path, mu, nu):
    """Write the pair under ``tmp_path`` and return the exit code of
    ``mbridge certify`` on it, whose artifacts go to ``tmp_path / "run"``."""
    paths = []
    for name, measure in (("mu", mu), ("nu", nu)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(measure_to_json(measure)), encoding="utf-8")
        paths.append(str(path))
    return main(["certify", "--mu", paths[0], "--nu", paths[1],
                 "--out", str(tmp_path / "run")])


def test_a_rank_one_pair_in_the_plane_solves_as_on_the_line(tmp_path):
    # nu spans a line in d = 2, so its frame has rank 1 and every fiber
    # takes the closed forms of the line
    mu, nu = study_instance()
    mu2, nu2 = line_in_the_plane(mu), line_in_the_plane(nu)
    assert solver._FiberGeometry(nu2).rank == 1
    line, plane = sinkhorn_msb(mu, nu), sinkhorn_msb(mu2, nu2)
    assert plane.converged
    assert np.abs(plane.coupling.matrix - line.coupling.matrix).sum() < 1e-14
    assert _certify(tmp_path, mu2, nu2) == 0


def test_golden_section_oracle_matches_solver_on_the_one_parameter_family():
    mu, nu, family = two_by_three_family()

    a_star = golden_section(lambda a: entropy_of(family(a), mu, nu),
                            0.25, 0.30)
    report = sinkhorn_msb(mu, nu)
    assert report.converged
    assert np.max(np.abs(report.coupling.matrix - family(a_star))) < 1e-7
    # the instance is symmetric, so the optimizer is the symmetric coupling
    assert abs(a_star - 0.275) < 1e-9


def test_dual_trace_is_monotone():
    mu, nu = study_instance()
    report = sinkhorn_msb(mu, nu)
    assert report.converged
    diffs = np.diff(report.dual_trace)
    assert np.min(diffs) > -1e-12


def test_value_chain_on_random_instances(rng):
    for _ in range(5):
        mu, nu, _ = random_instance(rng)
        report = sinkhorn_msb(mu, nu)
        assert report.converged
        gap = abs(report.primal_value - report.dual_value)
        assert gap < 1e-8 * (1 + abs(report.primal_value))
        mu_bar = extract_base_measure(report)
        vp = vp_value(mu_bar, mu, nu)
        assert abs(report.primal_value - vp) < 1e-7


def test_mcov_bounds_pin_the_transport_lp(rng):
    # the pairing (h_i, x_i) is the optimal MCov coupling: both bounds meet
    # the LP value, on the study instance and on random pairs in d = 1, 2
    pairs = [study_instance()]
    pairs += [random_instance(rng, d=d)[:2] for d in (1, 2) for _ in range(12)]
    for mu, nu in pairs:
        report = sinkhorn_msb(mu, nu)
        base = extract_base_measure(report)
        lower, upper = mcov_bounds(report, base)
        exact, _ = mcov_discrete(lifted(base), lifted(mu))
        assert abs(lower - exact) < 1e-12 and abs(upper - exact) < 1e-12
        assert upper - lower <= 1e-12


def test_mcov_bounds_separate_on_a_pairing_that_is_not_optimal():
    mu, nu = study_instance()
    report = sinkhorn_msb(mu, nu)
    pot = report.potentials
    swapped = dataclasses.replace(report, potentials=PotentialTriple(
        pot.phi, pot.psi, pot.h[[1, 0, 2]]))
    lower, upper = mcov_bounds(swapped, extract_base_measure(swapped))
    assert upper - lower > 1e-7


def test_translation_invariance(rng):
    mu, nu, _ = random_instance(rng, d=2)
    shift = np.array([3.0, -1.5])
    mu_s = DiscreteMeasure(mu.atoms + shift, mu.weights)
    nu_s = DiscreteMeasure(nu.atoms + shift, nu.weights)
    a = sinkhorn_msb(mu, nu)
    b = sinkhorn_msb(mu_s, nu_s)
    assert np.max(np.abs(a.coupling.matrix - b.coupling.matrix)) < 1e-9
    assert abs(a.primal_value - b.primal_value) < 1e-9


def test_gauge_normalize_pins_psi_and_preserves_the_density():
    mu, nu = study_instance()
    report = sinkhorn_msb(mu, nu)
    triple = report.potentials
    w, y = nu.weights, nu.atoms
    assert abs(w @ triple.psi) < 1e-10
    assert np.max(np.abs((w * triple.psi) @ y)) < 1e-10
    # shifting psi by an affine map and renormalizing lands back on the
    # same gauge and the same Gibbs density
    shifted = type(triple)(phi=triple.phi - 0.7 - 0.3 * mu.atoms[:, 0],
                           psi=triple.psi + 0.7 + 0.3 * y[:, 0],
                           h=triple.h - 0.3)
    renorm = gauge_normalize(shifted, mu, nu)
    assert np.max(np.abs(renorm.psi - triple.psi)) < 1e-12
    assert np.max(np.abs(renorm.h - triple.h)) < 1e-12
    assert np.max(np.abs(gibbs_coupling(shifted, mu, nu)
                         - gibbs_coupling(triple, mu, nu))) < 1e-14


def test_gibbs_reassembly_reproduces_the_coupling():
    mu, nu = study_instance()
    report = sinkhorn_msb(mu, nu)
    rebuilt = gibbs_coupling(report.potentials, mu, nu)
    assert np.max(np.abs(rebuilt - report.coupling.matrix)) < 1e-12


def test_dual_value_is_invariant_under_constant_psi_shifts():
    mu, nu = study_instance()
    psi = np.array([0.3, -0.1, 0.4])
    base = dual_value(psi, mu, nu)
    shifted = dual_value(psi + 1.7, mu, nu)
    assert abs(base - shifted) < 1e-12


def test_conditionals_match_the_tilted_fiber_measures():
    # each conditional of the optimal coupling is nu tilted by psi and h(x)
    mu, nu = study_instance()
    report = sinkhorn_msb(mu, nu)
    cond = report.coupling.conditionals()
    psi, h = report.potentials.psi, report.potentials.h
    for i in range(mu.n):
        logits = psi + nu.atoms @ h[i]
        tilted = nu.weights * np.exp(logits)
        tilted /= tilted.sum()
        assert np.max(np.abs(cond[i] - tilted)) < 1e-10


def test_classical_sinkhorn_matches_the_symmetric_closed_form():
    two = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    value, coupling, (phibar, psi) = classical_sinkhorn_sp(two, two)
    p = math.exp(2.0) / (2.0 * (1.0 + math.exp(2.0)))
    expected = np.array([[p, 0.5 - p], [0.5 - p, p]])
    f = (2.0 * (p * math.log(4 * p) + (0.5 - p) * math.log(4 * (0.5 - p)))
         - (4.0 * p - 1.0))
    assert np.max(np.abs(coupling.matrix - expected)) < 1e-12
    assert abs(value - f) < 1e-12
    assert abs(value - (-0.43378083048302707)) < 1e-12
    r1, r2 = schroedinger_system_residuals(two, two, phibar, psi)
    assert max(r1, r2) < 1e-12


def test_schroedinger_system_residuals_at_the_extracted_base(rng):
    mu, nu, _ = random_instance(rng, d=1)
    report = sinkhorn_msb(mu, nu)
    mu_bar = extract_base_measure(report)
    _, _, (phibar, psi) = classical_sinkhorn_sp(mu_bar, nu)
    r1, r2 = schroedinger_system_residuals(mu_bar, nu, phibar, psi)
    assert max(r1, r2) < 1e-10


def test_extract_base_measure_is_symmetric_on_the_symmetric_instance():
    mu, nu, _ = two_by_three_family()
    report = sinkhorn_msb(mu, nu)
    mu_bar = extract_base_measure(report)
    assert mu_bar.n == 2
    assert np.max(np.abs(mu_bar.weights - 0.5)) < 1e-12
    assert abs(mu_bar.atoms[0, 0] + mu_bar.atoms[1, 0]) < 1e-9


def test_extract_base_measure_merges_coincident_images_with_a_warning():
    mu, nu = study_instance()
    report = sinkhorn_msb(mu, nu)
    pot = report.potentials
    h = pot.h.copy()
    h[2] = h[0] + 1e-13
    collapsed = dataclasses.replace(
        report, potentials=PotentialTriple(pot.phi, pot.psi, h))
    with pytest.warns(RuntimeWarning, match="non-injective"):
        base = extract_base_measure(collapsed)
    assert base.n == 2
    assert np.array_equal(base.atoms, h[:2])
    assert np.allclose(base.weights, [mu.weights[0] + mu.weights[2],
                                      mu.weights[1]], rtol=0, atol=1e-15)


def test_infeasible_and_boundary_instances_raise():
    mu = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[0.0]], [1.0])
    with pytest.raises(NotInConvexOrder):
        sinkhorn_msb(mu, nu)
    # mu = nu is in convex order but every atom sits on the boundary
    two = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    with pytest.raises(NotIrreducible):
        sinkhorn_msb(two, two)


def _forbid_lps(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an LP ran")
    monkeypatch.setattr("mbridge.solver.check_convex_order", refuse)
    monkeypatch.setattr("mbridge.solver.linprog", refuse)


@pytest.mark.parametrize("d", [1, 2])
def test_strict_pairs_certify_themselves_without_an_lp(rng, monkeypatch, d):
    _forbid_lps(monkeypatch)
    for _ in range(5):
        mu, nu, _ = random_instance(rng, d=d)
        report = sinkhorn_msb(mu, nu)
        assert report.converged
        assert report.coupling.conditionals().min() > 1e-8


def test_weak_duality_refutes_an_equal_mean_pair_without_an_lp(monkeypatch):
    # equal means, but nu is less spread than mu: no martingale coupling.
    # On the line the potential functions refute it before any fiber solve
    _forbid_lps(monkeypatch)
    mu = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[-1.5], [0.0], [1.5]], [0.1, 0.8, 0.1])
    assert "u_mu exceeds u_nu" in refusal_before_the_solve(mu, nu)
    # in the plane no potential function decides, and the dual climbs past
    # min(H(mu), H(nu))
    mu = DiscreteMeasure([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                         [0.25] * 4)
    nu = DiscreteMeasure([[1.5, 0.0], [-1.5, 0.0], [0.0, 1.5], [0.0, -1.5],
                          [0.0, 0.0]], [0.1] * 4 + [0.6])
    with pytest.raises(NotInConvexOrder, match="exceeds min"):
        sinkhorn_msb(mu, nu)


@pytest.mark.parametrize("nu", [
    DiscreteMeasure([[-2.0], [0.0], [2.0]], [0.3, 0.4, 0.3]),
    DiscreteMeasure([[-2.0, 0.0], [0.0, 1.0], [0.0, -1.0], [2.0, 0.0]],
                    [0.3, 0.2, 0.2, 0.3])], ids=["line", "plane"])
def test_the_tolerance_sets_the_accepted_mean_gap_in_every_rank(nu):
    # mu sits 1e-7 off nu's mean: the default tolerance refuses that gap
    # before the solve, and 1e-6 admits it on the line as in the plane,
    # since the order scan allows the mean gap the mean test admits
    mu = DiscreteMeasure(np.eye(nu.dim)[:1] * [[-1.0 + 1e-7], [1.0 + 1e-7]],
                         [0.5, 0.5])
    assert "means differ" in refusal_before_the_solve(mu, nu)
    assert sinkhorn_msb(mu, nu, SolverConfig(tolerance=1e-6)).converged


def test_an_atom_off_the_hull_is_refused_without_an_lp_in_any_rank(
        monkeypatch):
    # a linear function normal to nu's plane separates the marginals
    # (Strassen 1965), so the pair is refused before any fiber solve; a
    # fresh interpreter shows that no scipy module loads on the way
    _forbid_lps(monkeypatch)
    nu = DiscreteMeasure([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                          [0.0, -1.0, 0.0]], [0.25] * 4)
    mu = DiscreteMeasure([[0.0, 0.0, 0.1], [0.0, 0.0, -0.1]], [0.5, 0.5])
    assert "off the affine hull" in refusal_before_the_solve(mu, nu)
    loaded = fresh_python(
        "import sys\n"
        "from mbridge import DiscreteMeasure, NotInConvexOrder, sinkhorn_msb\n"
        f"nu = DiscreteMeasure({nu.atoms.tolist()!r}, {nu.weights.tolist()!r})\n"
        f"mu = DiscreteMeasure({mu.atoms.tolist()!r}, {mu.weights.tolist()!r})\n"
        "try:\n"
        "    sinkhorn_msb(mu, nu)\n"
        "except NotInConvexOrder:\n"
        "    print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
    assert loaded == "[]"


def test_a_converged_solve_is_not_overturned_by_the_convex_order_lp(
        monkeypatch):
    # planted draw 4 of default_rng(0) (n = 15, m = 6, d = 3) converges
    # with a conditional near 4e-14, below the floor, so it is diagnosed;
    # HiGHS's convex-order vertex for it held an entry of -4.6e-11, which
    # the witness Coupling refused. The converged coupling is its own
    # witness of convex order, so only the interior question is asked
    rng = np.random.default_rng(0)
    for _ in range(5):
        mu, nu, matrix = planted_instance(rng)
    assert (mu.n, nu.n) == (15, 6)

    def refuse(*args, **kwargs):
        raise AssertionError("the convex-order LP ran")
    monkeypatch.setattr("mbridge.solver.check_convex_order", refuse)
    report = sinkhorn_msb(mu, nu)
    assert report.converged
    assert report.coupling.conditionals().min() <= CONDITIONAL_FLOOR
    assert np.abs(report.coupling.matrix - matrix).sum() < 1e-9


def test_peacock_certify_runs_no_lp(tmp_path, monkeypatch):
    # the solve converges with conditionals at the floor, so it is
    # diagnosed; on the line the diagnosis reads the potential functions
    _forbid_lps(monkeypatch)
    assert _certify(tmp_path, *peacock(50, 0.3)) == 0


def test_line_diagnosis_scales_to_twenty_thousand_atoms(monkeypatch):
    # mu atom i splits between nu atoms i and i + 1 (the last wraps to 0),
    # so the pair is in strict convex order; O(n) to build, no dense array.
    # Its diagnosis finds every mu atom interior, the order scan that runs
    # before the solve passes it, and the scan refutes the pair whose mu is
    # spread to 1.5 times its width about its mean, which leaves the means
    # equal
    _forbid_lps(monkeypatch)
    n = 20_000
    rng = np.random.default_rng(11)
    y = np.sort(rng.uniform(-2.0, 2.0, n))
    left, right = rng.uniform(0.1, 1.0, (2, n)) / n
    nxt = np.roll(np.arange(n), -1)
    mu_w = left + right
    x = (left * y + right * y[nxt]) / mu_w
    nu_w = left + np.roll(right, 1)
    mu = DiscreteMeasure(x, mu_w / mu_w.sum())
    nu = DiscreteMeasure(y, nu_w / nu_w.sum())
    assert mu.n == nu.n == n
    mean = mu.weights @ mu.atoms[:, 0]
    spread = DiscreteMeasure(mean + 1.5 * (mu.atoms - mean), mu.weights)
    start = time.perf_counter()
    _diagnose(mu.atoms, nu, mu)
    assert refusal_before_the_solve(mu, nu) is None
    assert "u_mu exceeds u_nu" in refusal_before_the_solve(spread, nu)
    assert time.perf_counter() - start < 1.0


def test_binomial_discretization_recovers_the_linear_gaussian_field():
    # binomial approximations of N(0,1) and N(0,3); the fitted field
    # should track the Gaussian closed form h(x) = (var1 - var0)^-1 x
    n = 16
    k = np.arange(n + 1)
    weights = np.array([math.comb(n, int(j)) for j in k], float) / 2.0**n
    atoms = (2.0 * k - n) / math.sqrt(n)
    mu = DiscreteMeasure(atoms[:, None], weights)
    nu = DiscreteMeasure(math.sqrt(3.0) * atoms[:, None], weights)
    report = sinkhorn_msb(mu, nu)
    assert report.converged
    x = mu.atoms[:, 0]
    h = report.potentials.h[:, 0]
    slope = float(np.sum(mu.weights * x * h) / np.sum(mu.weights * x * x))
    assert abs(slope - 0.5) < 0.05


def test_solver_config_validation():
    with pytest.raises(StructuralError):
        SolverConfig(tolerance=0.0)


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_solver_config_refuses_a_non_finite_tolerance(tol):
    # an infinite tolerance accepts any iterate, and NaN none
    with pytest.raises(StructuralError, match="must be finite"):
        SolverConfig(tolerance=tol)


def test_primal_value_rejects_nothing_but_cross_checks(rng):
    mu, nu, matrix = random_instance(rng)
    coupling = Coupling(matrix, mu, nu, check=False)
    direct = relative_entropy(coupling, product_coupling(mu, nu))
    assert abs(primal_value(coupling) - direct) < 1e-12


def reducible_pair():
    # a unique coupling with two forced zeros: row -1 never reaches +2
    return (DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5]),
            DiscreteMeasure([[-2.0], [0.0], [2.0]], [0.25, 0.5, 0.25]))


def test_reducible_pair_converges_and_certifies(tmp_path):
    mu, nu = reducible_pair()
    report = sinkhorn_msb(mu, nu)
    assert report.converged
    assert report.iterations < 100
    assert _certify(tmp_path, mu, nu) == 0


def test_peacock_converges_in_few_newton_iterations():
    mu, nu = peacock(10, 0.3)
    report = sinkhorn_msb(mu, nu)
    assert report.converged
    assert report.iterations <= 20


@pytest.mark.parametrize("a", [0.1, 0.05])
def test_small_peacocks_stop_well_before_the_cap(a):
    # the optimizers have zeros, so the dual sup is not attained; started at
    # the glued limit of its ten components, the solve converges at once
    report = sinkhorn_msb(*peacock(10, a), SolverConfig())
    assert report.converged
    assert report.iterations <= 2
    assert report.components == 10


# The component start on the line (``solver._line_components``).


@pytest.mark.parametrize("seed", range(4))
def test_chained_peacock_blocks_certify_as_their_blocks(tmp_path, seed):
    # every block holds several mu atoms, so the start solves each block
    # alone and glues the solves; the MSB of the chain is the sum of the
    # blocks' MSBs, each carrying its block's mass
    mu, nu, matrix, parts = chained_blocks(np.random.default_rng(seed))
    assert _certify(tmp_path, mu, nu) == 0
    doc = json.loads((tmp_path / "run" / "certify_report.json").read_text())
    assert doc["iterations"] <= 10
    report = sinkhorn_msb(mu, nu)
    assert report.components == len(parts)
    blocks = np.zeros_like(matrix)
    for rows, cols in parts:
        cell = matrix[rows[:, None], cols[None, :]]
        mass = cell.sum()
        alone = sinkhorn_msb(
            DiscreteMeasure(mu.atoms[rows], cell.sum(axis=1) / mass),
            DiscreteMeasure(nu.atoms[cols], cell.sum(axis=0) / mass))
        blocks[rows[:, None], cols[None, :]] = mass * alone.coupling.matrix
    assert np.abs(report.coupling.matrix - blocks).sum() <= 1e-10
    assert report.coupling.matrix[blocks == 0.0].sum() <= 1e-20


def test_a_mu_atom_on_a_touch_point_stays_there_and_certifies(tmp_path):
    mu, nu, matrix, parts = chained_blocks(np.random.default_rng(5),
                                           blocks=2, point=0.1)
    report = sinkhorn_msb(mu, nu)
    assert report.converged and report.iterations <= 2
    assert report.components == 3
    (i,), (j,) = parts[-1]
    assert mu.atoms[i, 0] == nu.atoms[j, 0]
    assert report.coupling.matrix[i, j] >= 0.1 * (1.0 - 1e-12)
    assert _certify(tmp_path, mu, nu) == 0


def _components_found(mu, nu):
    geom = solver._FiberGeometry(nu)
    x = geom.reduce_points(mu.atoms)[:, 0]
    scan = solver._order_gap(x, mu.weights, geom.y_red[:, 0], nu.weights)
    return solver._line_components(x, mu.weights, nu.weights, scan,
                                   SolverConfig().tolerance)


def test_the_component_start_leaves_strict_pairs_alone(rng):
    # no touch point, so the solve starts at psi = 0 as before
    for _ in range(300):
        mu, nu, _ = random_instance(rng, d=1)
        assert _components_found(mu, nu) is None
    planted = np.random.default_rng(11)
    for spread in (1.0, 2.0, 3.0, 5.0):
        for _ in range(30):
            mu, nu, _ = planted_instance(planted, d=1, spread=spread)
            assert _components_found(mu, nu) is None


@pytest.mark.parametrize("eps", [1e-14, 1e-12, 1e-11, 3e-11, 1e-9, 1e-6])
def test_a_near_touching_strict_pair_converges_under_its_stop_rule(
        monkeypatch, eps):
    # moving eps of nu's mass outward leaves u_nu - u_mu = 4 eps at 0: within
    # the slack the pair is split there and started at the glued limit,
    # beyond it the solve starts at psi = 0; either way the stop rule decides
    mu, nu = reducible_pair()
    nu = DiscreteMeasure(nu.atoms, [0.25 + eps, 0.5 - 2.0 * eps, 0.25 + eps])
    config = SolverConfig()
    report = sinkhorn_msb(mu, nu, config)
    assert report.converged
    assert report.marginal_residual < config.tolerance
    assert report.martingale_residual < config.tolerance
    without_the_component_start(monkeypatch)
    cold = sinkhorn_msb(mu, nu, config)
    assert np.abs(report.coupling.matrix - cold.coupling.matrix).sum() <= 1e-9


def test_a_collinear_pair_is_diagnosed_on_its_line(monkeypatch):
    # nu's frame has rank 1, so the solve decides convex order before its
    # first fiber solve, the diagnosis asks only the interior question in
    # the frame's coordinate, and no LP runs
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP ran")

    monkeypatch.setattr(solver, "check_convex_order", no_lp)
    monkeypatch.setattr(solver, "_in_relative_interior", no_lp)
    study_mu, study_nu = study_instance()
    pm1 = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    shifted = DiscreteMeasure(study_nu.atoms + 0.25, study_nu.weights)
    for mu, nu, outcome in ((study_mu, study_nu, None),
                            (*reducible_pair(), None),
                            (pm1, pm1, NotIrreducible)):
        for pair in ((mu, nu), (line_in_the_plane(mu), line_in_the_plane(nu))):
            if outcome is None:
                _diagnose(pair[0].atoms, pair[1], pair[0])
            else:
                with pytest.raises(outcome):
                    _diagnose(pair[0].atoms, pair[1], pair[0])
                with pytest.raises(outcome):
                    sinkhorn_msb(*pair)
    for pair in ((study_mu, shifted),
                 (line_in_the_plane(study_mu), line_in_the_plane(shifted))):
        assert refusal_before_the_solve(*pair) is not None
    off = DiscreteMeasure([[0.4, -1.3], [1.6, 0.4]], [0.5, 0.5])
    plane_nu = line_in_the_plane(reducible_pair()[1])
    assert "off the affine hull" in refusal_before_the_solve(off, plane_nu)
    with pytest.raises(NotIrreducible):
        _diagnose(off.atoms, plane_nu)


def test_classical_warm_start_matches_the_cold_solve(rng):
    for d in (1, 2, 1, 2):
        mu, nu, _ = random_instance(rng, d=d)
        report = sinkhorn_msb(mu, nu)
        mu_bar = extract_base_measure(report)
        cold = classical_sinkhorn_sp(mu_bar, nu)
        warm = classical_sinkhorn_sp(mu_bar, nu, psi0=report.potentials.psi)
        assert abs(cold[0] - warm[0]) < 1e-10
        assert np.max(np.abs(cold[1].matrix - warm[1].matrix)) < 1e-10
        for a, b in zip(cold[2], warm[2]):
            assert np.max(np.abs(a - b)) < 1e-10


def test_classical_solve_raises_when_it_stalls_at_the_floor():
    mu_bar = DiscreteMeasure([[-0.7], [0.2], [1.1]], [0.3, 0.5, 0.2])
    nu = DiscreteMeasure([[-2.0], [-0.5], [0.4], [2.0]], [0.2, 0.3, 0.3, 0.2])
    # no float iterate meets this tolerance; the stall rule stops the ascent
    # long before the iteration cap
    with pytest.raises(NotConverged, match="stalled"):
        classical_sinkhorn_sp(mu_bar, nu, tolerance=1e-30)


def test_certify_passes_where_the_classical_floor_lies_above_1e13(tmp_path):
    # peacock n=10 a=0.05 translated by the benchmark's seed-101 shift: the
    # base atoms reach |<x_bar, y>| ~ 2e3, where a 1e-13 column residual lies
    # below the floating-point floor, so that tolerance stalls the classical
    # solve
    shift = float(np.random.default_rng([101, 7]).uniform(-0.5, 0.5))
    mu, nu = peacock(10, 0.05)
    assert _certify(tmp_path, *(DiscreteMeasure(m.atoms + shift, m.weights)
                                for m in (mu, nu))) == 0


# The fiber line search. ``_reference_fiber_newton`` is the solver's fiber
# Newton as it stood with the line search as sequential halving; the
# value-only search must reproduce its iterates bit for bit. It takes the
# values, conditionals and barycenters of the fibers that accept the full
# step from that step's evaluation, and evaluates the others afresh at their
# accepted points, on the row batches of the solver's kernel.


def _reference_fiber_newton(geom, x_red, psi, z0=None):
    """The fiber Newton whose line search halves every rejected step and
    evaluates the conditionals of every active fiber at each trial."""
    n = x_red.shape[0]
    r = geom.rank
    yr = geom.y_red
    base = geom.log_nu + psi  # (m,)

    z = np.zeros((n, r)) if z0 is None else np.array(z0, dtype=float)

    def value_grad(zc, xs):
        cond = base[None, :] + zc @ yr.T
        top, total = _softmax(cond, axis=1)
        val = np.einsum("nr,nr->n", zc, xs) - (top + np.log(total))[:, 0]
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
            k = int(np.nonzero(bad)[0][0])
            if r == 1:
                cause = f"variance {eigs[k, 0]:.3e} is not positive"
            elif eigs[k, 0] <= 0:
                cause = (f"covariance has the eigenvalue {eigs[k, 0]:.3e}, "
                         "not positive")
            else:
                cause = ("covariance condition number exceeds "
                         f"{HESSIAN_CONDITION_CAP:.0e}")
            raise DegenerateFiber(f"fiber {int(idx[k])}: conditional {cause}")
        step = np.linalg.solve(cov, grad[idx][:, :, None])[:, :, 0]
        descent = np.einsum("nr,nr->n", grad[idx], step)

        # once the predicted gain falls below the fp resolution of the
        # objective the Armijo test is meaningless; take the pure Newton step
        alpha = np.ones(len(idx))
        accepted = descent <= 1e-14 * (1.0 + np.abs(val[idx]))
        z_new = z[idx] + step
        full = None
        for _ in range(60):
            trial = z[idx] + alpha[:, None] * step
            tv, _, tc, tb = value_grad(trial, x_red[idx])
            ok = tv >= val[idx] + _ARMIJO * alpha * descent
            newly = ok & ~accepted
            z_new[newly] = trial[newly]
            accepted |= ok
            if full is None:
                full = (accepted.copy(), tv, tc, tb)
            if np.all(accepted):
                break
            alpha[~accepted] *= 0.5
        if not np.all(accepted):
            raise NotConverged("inner Newton line search stalled")
        z[idx] = z_new
        at_full, val_new, cond_new, bary_new = full
        later = ~at_full
        if np.any(later):
            tv, _, tc, tb = value_grad(z_new[later], x_red[idx][later])
            val_new[later], cond_new[later], bary_new[later] = tv, tc, tb

        hn = np.linalg.norm(z[idx], axis=1)
        if np.any(hn > H_DIVERGENCE_BOUND):
            fiber = int(idx[np.argmax(hn)])
            raise DualDivergence(
                f"fiber {fiber}: |h| exceeded divergence bound "
                f"{H_DIVERGENCE_BOUND:.0e}")

        val[idx], cond[idx], bary[idx] = val_new, cond_new, bary_new
        grad = x_red - bary
        grad_norm = np.linalg.norm(grad, axis=1)
        active = grad_norm > _NEWTON_GRADIENT_TOLERANCE

    if np.any(active):
        raise NotConverged(
            f"inner Newton did not reach gradient tolerance within "
            f"{_NEWTON_MAX_STEPS} steps")
    return z, val, cond


def _fiber_calls(monkeypatch, mu, nu, predict=True):
    """The arguments of every fiber solve along ``sinkhorn_msb(mu, nu)``;
    with ``predict=False`` each trial starts at the accepted point's duals."""
    calls = []

    def record(geom, x_red, psi, z0=None):
        calls.append((geom, x_red, psi.copy(),
                      None if z0 is None else np.array(z0)))
        return fiber_newton(geom, x_red, psi, z0)

    with monkeypatch.context() as m:
        m.setattr(solver, "_fiber_newton", record)
        if not predict:
            m.setattr(solver, "_predicted_start", lambda prev, psi: prev.z)
        try:
            sinkhorn_msb(mu, nu, SolverConfig())
        except (Infeasible, NotConverged):
            pass
    return calls


def _outcome(newton, call):
    """(z, phi, cond), or the type and message of the failure."""
    try:
        return newton(*call)
    except NotConverged as exc:
        return type(exc), str(exc)


def _same_outcome(a, b):
    if isinstance(a[0], type):
        return a == b
    return all(np.array_equal(u, v) for u, v in zip(a, b))


def _evaluations(monkeypatch, call):
    """The value-only evaluations of each backtracking of one fiber solve:
    the halvings ``_backtrack`` returns, one entry per Newton step that
    backtracked."""
    halvings = []
    backtrack = solver._backtrack

    def record(*args):
        out = backtrack(*args)
        halvings.append(out[1])
        return out

    with monkeypatch.context() as m:
        m.setattr(solver, "_backtrack", record)
        _outcome(fiber_newton, call)
    return halvings


def _benchmark_peacock(a):
    # the benchmark's n = 10 peacock at its seed-1 translation
    shift = float(np.random.default_rng([1, 7]).uniform(-0.5, 0.5))
    mu, nu = peacock(10, a)
    return (DiscreteMeasure(mu.atoms + shift, mu.weights),
            DiscreteMeasure(nu.atoms + shift, nu.weights))


def _random_calls(monkeypatch, rng, d):
    """Fiber solves along the solves of random pairs, and cold solves at
    random psi, whose full Newton steps overshoot."""
    calls = []
    for _ in range(4):
        mu, nu, _ = random_instance(rng, d=d)
        geom = solver._FiberGeometry(nu)
        x_red = geom.reduce_points(mu.atoms)
        calls.append((geom, x_red, rng.normal(scale=3.0, size=nu.n), None))
        calls.extend(_fiber_calls(monkeypatch, mu, nu))
    return calls


@pytest.mark.parametrize("d", [1, 2])
def test_batched_line_search_matches_sequential_halving_on_random_pairs(
        monkeypatch, rng, d):
    calls = _random_calls(monkeypatch, rng, d)
    assert len(calls) > 8
    for call in calls:
        assert _same_outcome(_outcome(fiber_newton, call),
                             _outcome(_reference_fiber_newton, call))


def test_batched_line_search_matches_sequential_halving_on_peacocks(
        monkeypatch):
    # the predicted starts leave these fibers nothing to backtrack, so the
    # calls are harvested from warm starts at the accepted duals of the
    # solve from psi = 0 (at the component start's psi a cold fiber solve
    # raises DegenerateFiber, and the started solve takes no Newton step)
    without_the_component_start(monkeypatch)
    halvings = 0
    for a in (0.1, 0.05):
        calls = _fiber_calls(monkeypatch, *_benchmark_peacock(a),
                             predict=False)
        assert len(calls) > 20
        for call in calls:
            assert _same_outcome(_outcome(fiber_newton, call),
                                 _outcome(_reference_fiber_newton, call))
            halvings = max([halvings, *_evaluations(monkeypatch, call)])
    # some fiber backtracks past the first nine halvings
    assert halvings > 9


@pytest.mark.parametrize("d", [1, 2])
def test_a_solve_without_backtracks_exponentiates_once_per_step(
        monkeypatch, rng, d):
    # the start, then the full step of each Newton step, whose exponentials
    # also give the accepted fibers' conditionals
    count = [0]

    def counting(normalize):
        def counted(logits, axis):
            count[0] += 1
            return normalize(logits, axis)
        return counted

    solves = 0
    for call in _random_calls(monkeypatch, rng, d):
        count[0] = 0
        with monkeypatch.context() as m:
            m.setattr(solver, "_log_partition", counting(_log_partition))
            m.setattr(solver, "_softmax", counting(_softmax))
            solve = fiber_newton(*call)
        if solve.steps and not solve.backtracks:
            assert count[0] == 1 + solve.steps
            solves += 1
    assert solves > 8


# The predicted fiber starts (``solver._predicted_start``).


@pytest.mark.parametrize("a", [0.1, 0.05])
def test_predicted_starts_leave_few_inner_steps_on_peacocks(monkeypatch, a):
    # started from the accepted duals these solves took 9.1 (a = 0.1) and
    # 6.3 (a = 0.05) inner Newton steps per outer iteration, climbing from
    # psi = 0
    without_the_component_start(monkeypatch)
    report = sinkhorn_msb(*_benchmark_peacock(a))
    assert report.inner_steps <= 3 * report.iterations


def _verdict(mu, nu):
    """The converged flag and coupling of a solve, or its failure type."""
    try:
        report = sinkhorn_msb(mu, nu)
    except MbridgeError as exc:
        return type(exc), None
    return report.converged, report.coupling.matrix


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3),
       spread=st.sampled_from([None, 1.0, 2.0, 3.0, 5.0]))
def test_predicted_starts_give_the_verdicts_of_accepted_duals(seed, d,
                                                              spread):
    # spread None draws a random pair, otherwise a planted one
    rng = np.random.default_rng(seed)
    mu, nu, _ = (random_instance(rng, d=d) if spread is None
                 else planted_instance(rng, d=d, spread=spread))
    predicted = _verdict(mu, nu)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "_predicted_start", lambda prev, psi: prev.z)
        accepted = _verdict(mu, nu)
    assert predicted[0] == accepted[0]
    if predicted[0] is True:
        assert np.abs(predicted[1] - accepted[1]).sum() <= 1e-9


def test_line_search_stalls_when_no_step_length_passes(monkeypatch, rng):
    mu, nu, _ = random_instance(rng, d=2)
    geom = solver._FiberGeometry(nu)
    x_red = geom.reduce_points(mu.atoms)
    psi = rng.normal(size=nu.n)
    lengths = []

    def rejected(logits, axis):
        # every trial value comes out -inf, below any Armijo bound
        lengths.append(logits.shape[0])
        top, total = _log_partition(logits, axis)
        return top, np.full_like(total, np.inf)

    monkeypatch.setattr(solver, "_log_partition", rejected)
    with pytest.raises(NotConverged, match="line search stalled"):
        fiber_newton(geom, x_red, psi)
    # the full step, then every shorter length up to the cap
    assert sum(lengths) == mu.n * 60
