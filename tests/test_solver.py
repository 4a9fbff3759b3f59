"""Psi-dual Newton solver, inner duals, and the value chain on small instances."""

import dataclasses
import json
import math
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
from conftest import (golden_section, lifted, peacock, planted_instance,
                      random_instance, study_instance, two_by_three_family)


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
    # numpy's LinAlgError escape the solve
    mu, nu = study_instance()
    geom = solver._FiberGeometry(nu)
    x_red = geom.reduce_points(mu.atoms)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(DegenerateFiber, match="^fiber 0: "):
        fiber_newton(geom, x_red, np.zeros(nu.n))


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
    # equal means, but nu is less spread than mu: no martingale coupling
    _forbid_lps(monkeypatch)
    mu = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[-1.5], [0.0], [1.5]], [0.1, 0.8, 0.1])
    with pytest.raises(NotInConvexOrder, match="exceeds min"):
        sinkhorn_msb(mu, nu)


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
    paths = []
    for name, measure in zip(("mu", "nu"), peacock(50, 0.3)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(measure_to_json(measure)), encoding="utf-8")
        paths.append(str(path))
    code = main(["certify", "--mu", paths[0], "--nu", paths[1],
                 "--out", str(tmp_path / "run")])
    assert code == 0


def test_line_diagnosis_scales_to_twenty_thousand_atoms(monkeypatch):
    # mu atom i splits between nu atoms i and i + 1 (the last wraps to 0),
    # so the pair is in strict convex order; O(n) to build, no dense array
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
    moved = DiscreteMeasure(x + 0.01, mu.weights)
    start = time.perf_counter()
    _diagnose(mu.atoms, nu, mu)
    with pytest.raises(NotInConvexOrder):
        _diagnose(moved.atoms, nu, moved)
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
    paths = []
    for name, measure in (("mu", mu), ("nu", nu)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(measure_to_json(measure)), encoding="utf-8")
        paths.append(str(path))
    code = main(["certify", "--mu", paths[0], "--nu", paths[1],
                 "--out", str(tmp_path / "run")])
    assert code == 0


def test_peacock_converges_in_few_newton_iterations():
    mu, nu = peacock(10, 0.3)
    report = sinkhorn_msb(mu, nu)
    assert report.converged
    assert report.iterations <= 20


@pytest.mark.parametrize("a", [0.1, 0.05])
def test_small_peacocks_stop_well_before_the_cap(a):
    # the optimizers have zeros, so the dual sup need not be attained; the
    # solve must still return or raise long before the iteration cap
    mu, nu = peacock(10, a)
    config = SolverConfig()
    try:
        report = sinkhorn_msb(mu, nu, config)
    except NotConverged:
        return
    assert report.iterations < solver._MAX_OUTER


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
    paths = []
    for name, measure in (("mu", mu), ("nu", nu)):
        moved = DiscreteMeasure(measure.atoms + shift, measure.weights)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(measure_to_json(moved)), encoding="utf-8")
        paths.append(str(path))
    code = main(["certify", "--mu", paths[0], "--nu", paths[1],
                 "--out", str(tmp_path / "run")])
    assert code == 0


# The fiber line search. ``_reference_fiber_newton`` is the solver's fiber
# Newton as it stood with the line search as sequential halving, copied
# verbatim; the value-only search must reproduce its iterates bit for bit.


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
        if np.any(hn > H_DIVERGENCE_BOUND):
            fiber = int(idx[np.argmax(hn)])
            raise DualDivergence(
                f"fiber {fiber}: |h| exceeded divergence bound "
                f"{H_DIVERGENCE_BOUND:.0e}")

        val, grad, cond, bary = value_grad(z, x_red)
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
    """Rows of each value-only evaluation of one fiber solve, one list per
    Newton step: first the full step of every active fiber, then one entry
    per halving."""
    steps = []

    def trial(logits, axis):
        steps[-1].append(logits.shape[0])
        return _log_partition(logits, axis)

    def full(logits, axis):
        steps.append([])
        return _softmax(logits, axis)

    with monkeypatch.context() as m:
        m.setattr(solver, "_log_partition", trial)
        m.setattr(solver, "_softmax", full)
        _outcome(fiber_newton, call)
    return [rows for rows in steps if rows]


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
    # calls are harvested from warm starts at the accepted duals
    halvings = 0
    for a in (0.1, 0.05):
        calls = _fiber_calls(monkeypatch, *_benchmark_peacock(a),
                             predict=False)
        assert len(calls) > 20
        for call in calls:
            assert _same_outcome(_outcome(fiber_newton, call),
                                 _outcome(_reference_fiber_newton, call))
            # a Newton step makes one evaluation per halving after the
            # full step
            steps = _evaluations(monkeypatch, call)
            halvings = max(halvings, *(len(rows) - 1 for rows in steps))
    # some fiber backtracks past the first nine halvings
    assert halvings > 9


# The predicted fiber starts (``solver._predicted_start``).


@pytest.mark.parametrize("a", [0.1, 0.05])
def test_predicted_starts_leave_few_inner_steps_on_peacocks(a):
    # started from the accepted duals these solves took 9.1 (a = 0.1) and
    # 6.3 (a = 0.05) inner Newton steps per outer iteration
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
