"""Acceptance suite: one test per advertised guarantee, with pinned
tolerances and runtime caps. Each test prints a single pass/fail line.
"""

import json
import math
import time

import numpy as np
import pytest

from mbridge import (
    DiscreteMeasure,
    NotIrreducible,
    bass_comparison_gaussian,
    bass_minimize,
    check_convex_order,
    entropy_minimize,
    extract_base_measure,
    FiberModel,
    gaussian_energy_closed_form,
    gaussian_msb_closed_form,
    gaussian_reference_identity_check,
    inner_dual_solve,
    measure_to_json,
    phi_bijection_check,
    schroedinger_system_residuals,
    sigma_invariance_test,
    simulate_follmer_martingale,
    sinkhorn_msb,
    classical_sinkhorn_sp,
    ThreePointInstance,
    vp_value,
    weighted_energy_quadrature,
    wonham_sde_crosscheck,
)
from mbridge.cli import main as cli_main
from conftest import golden_section, study_instance, random_instance, \
    two_by_three_family

M_ENTROPY = np.array([
    [0.25123, 0.09755, 0.05123],
    [0.16085, 0.13831, 0.16085],
    [0.01793, 0.03414, 0.08793],
])
M_BASS = np.array([
    [0.25229, 0.09543, 0.05229],
    [0.15941, 0.14117, 0.15941],
    [0.01830, 0.03340, 0.08830],
])


def _report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {label}: {status} ({detail})")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_1_three_point_reproduction():
    start = time.perf_counter()
    inst = ThreePointInstance(p1=0.40, q1=0.46, p2=0.43, q2=0.27)
    entropy = entropy_minimize(inst)
    bass = bass_minimize(inst)
    solved = sinkhorn_msb(inst.mu, inst.nu)
    elapsed = time.perf_counter() - start

    dev_e = float(np.max(np.abs(entropy.matrix - M_ENTROPY)))
    dev_s = float(np.max(np.abs(solved.coupling.matrix - M_ENTROPY)))
    dev_b = float(np.max(np.abs(bass.matrix - M_BASS)))
    gap = (entropy.u - bass.u, entropy.v - bass.v)
    gap_ok = (abs(gap[0] - (-1.06e-3)) <= 0.05 * 1.06e-3
              and abs(gap[1] - 1.43e-3) <= 0.05 * 1.43e-3)
    ok = (dev_e < 5e-5 and dev_s < 5e-5 and dev_b < 5e-5
          and gap_ok and elapsed < 5.0)
    _report(1, "three-point reproduction", ok,
            f"dev_entropy={dev_e:.2e} dev_solver={dev_s:.2e} "
            f"dev_bass={dev_b:.2e} gap=({gap[0]:.3e},{gap[1]:.3e}) "
            f"{elapsed:.2f}s")


def test_criterion_2_value_chain():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    mu_p, nu_p = study_instance()
    instances = [(mu_p, nu_p)]
    for _ in range(20):
        mu, nu, _ = random_instance(rng)
        instances.append((mu, nu))

    worst_pd = worst_pvp = 0.0
    for mu, nu in instances:
        report = sinkhorn_msb(mu, nu)
        assert report.converged
        worst_pd = max(worst_pd,
                       abs(report.primal_value - report.dual_value))
        base = extract_base_measure(report)
        vp = vp_value(base, mu, nu)
        worst_pvp = max(worst_pvp, abs(report.primal_value - vp))
    elapsed = time.perf_counter() - start
    ok = worst_pd < 1e-8 and worst_pvp < 1e-7 and elapsed < 60.0
    _report(2, "value chain P=D=VP", ok,
            f"max|P-D|={worst_pd:.2e} max|P-VP|={worst_pvp:.2e} "
            f"n=21 {elapsed:.2f}s")


def test_criterion_3_gibbs_and_schroedinger_structure():
    rng = np.random.default_rng(11)
    mu_p, nu_p = study_instance()
    instances = [(mu_p, nu_p)] + \
        [random_instance(rng)[:2] for _ in range(5)]

    worst_cond = worst_ss = 0.0
    for mu, nu in instances:
        report = sinkhorn_msb(mu, nu)
        cond = report.coupling.conditionals()
        psi, h = report.potentials.psi, report.potentials.h
        for i in range(mu.n):
            tilted = nu.weights * np.exp(psi + nu.atoms @ h[i])
            tilted /= tilted.sum()
            worst_cond = max(worst_cond,
                             float(np.max(np.abs(cond[i] - tilted))))
        base = extract_base_measure(report)
        _, _, (phibar, psi_sp) = classical_sinkhorn_sp(base, nu)
        ss1, ss2 = schroedinger_system_residuals(base, nu, phibar, psi_sp)
        worst_ss = max(worst_ss, ss1, ss2)
    ok = worst_cond < 1e-8 and worst_ss < 1e-10
    _report(3, "Gibbs conditionals and Schroedinger system", ok,
            f"max_cond_dev={worst_cond:.2e} max_ss_residual={worst_ss:.2e}")


def test_criterion_4_golden_section_oracle():
    from mbridge import Coupling, product_coupling, relative_entropy
    mu, nu, family = two_by_three_family()

    def entropy_at(a):
        coupling = Coupling(family(a), mu, nu, check=False)
        return relative_entropy(coupling, product_coupling(mu, nu))

    a_star = golden_section(entropy_at, 0.25, 0.30)
    report = sinkhorn_msb(mu, nu)
    dev = float(np.max(np.abs(report.coupling.matrix - family(a_star))))
    ok = report.converged and dev < 1e-7
    _report(4, "golden-section oracle equivalence", ok,
            f"a*={a_star:.9f} max_dev={dev:.2e}")


def test_criterion_5_gaussian_identities():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(3, 3))
    random_spd = a @ a.T + 3.0 * np.eye(3)

    # independent oracle: the entropy value must equal the Gaussian KL
    # divergence between the joint law and the product of its marginals
    sol = gaussian_msb_closed_form(np.eye(2), np.eye(2) + np.diag([1.0, 2.0]))
    joint = sol.joint_covariance
    prod = np.zeros_like(joint)
    prod[:2, :2] = sol.sigma0
    prod[2:, 2:] = sol.sigma1
    kl = 0.5 * (np.trace(np.linalg.solve(prod, joint)) - joint.shape[0]
                + np.linalg.slogdet(prod)[1]
                - np.linalg.slogdet(joint)[1])
    entropy_dev = abs(sol.entropy_value - kl)

    worst_energy = 0.0
    for delta in (np.array([[2.0]]), np.diag([2.0, 3.0]), random_spd):
        worst_energy = max(worst_energy,
                           abs(weighted_energy_quadrature(delta)
                               - gaussian_energy_closed_form(delta)))

    worst_schedule = 0.0
    for s0, s1 in ((np.eye(1), np.full((1, 1), 3.0)),
                   (np.eye(2), np.eye(2) + np.diag([2.0, 3.0])),
                   (np.eye(3), np.eye(3) + random_spd)):
        comp = bass_comparison_gaussian(s0, s1)
        assert comp.grid.size == 101
        worst_schedule = max(worst_schedule, comp.max_discrepancy)

    ok = entropy_dev < 1e-12 and worst_energy < 1e-8 and worst_schedule < 1e-12
    _report(5, "Gaussian closed-form identities", ok,
            f"entropy_dev={entropy_dev:.2e} energy_dev={worst_energy:.2e} "
            f"schedule_dev={worst_schedule:.2e}")


def test_criterion_6_monte_carlo_dynamics():
    start = time.perf_counter()
    fiber = FiberModel.gaussian([0.0], [[2.0]])
    ensemble = simulate_follmer_martingale(
        fiber, grid=np.linspace(0.0, 1.0, 1001), n_paths=100_000, seed=42,
        store_every=100)
    bij = phi_bijection_check(ensemble)
    elapsed = time.perf_counter() - start

    se = float(ensemble.vol_energy.std() / math.sqrt(ensemble.n_paths))
    # the volatility energy is integrated exactly per step, so its MC
    # standard error degenerates to zero; allow the rounding width of the
    # six-decimal reference value on top of the 3 SE band
    dev = abs(bij.cost_mart - 0.153426)
    mart_ok = dev <= 3.0 * se + 5e-7
    exact_ok = abs(bij.cost_mart - 0.5 * (1.0 - math.log(2.0))) < 1e-12
    ok = (mart_ok and exact_ok and bij.rel_discrepancy < 1e-2
          and elapsed < 120.0)
    _report(6, "Monte-Carlo dynamics at unit-mean increment", ok,
            f"C_mart={bij.cost_mart:.9f} dev_from_ref={dev:.2e} "
            f"rel_discrepancy={bij.rel_discrepancy:.2e} "
            f"paths={ensemble.n_paths} {elapsed:.1f}s")


def test_criterion_7_filtering_invariance_and_wonham():
    start = time.perf_counter()
    fiber = FiberModel.discrete(
        [0.0], DiscreteMeasure([[-1.0], [0.0], [1.0]], [0.3, 0.4, 0.3]))
    inv = sigma_invariance_test(fiber, s=1.0, sigmas=(0.5, 1.0, 2.0),
                                n_samples=100_000, seed=42)
    won = wonham_sde_crosscheck(n_paths=100_000, n_steps=4000, seed=42)
    elapsed = time.perf_counter() - start

    freq_dev = max(abs(won.terminal_freq_exact - 0.5),
                   abs(won.terminal_freq_euler - 0.5))
    ok = (inv.max_ks < 0.02
          and max(won.ks_by_checkpoint.values()) < 0.02
          and freq_dev < 0.01
          and elapsed < 120.0)
    _report(7, "filter invariance and Wonham cross-check", ok,
            f"max_ks={inv.max_ks:.4f} "
            f"wonham_ks={max(won.ks_by_checkpoint.values()):.4f} "
            f"freq_dev={freq_dev:.4f} {elapsed:.1f}s")


def test_criterion_8_change_of_reference_identity():
    rng = np.random.default_rng(17)
    mu_p, nu_p = study_instance()
    mu_t, nu_t, _ = two_by_three_family()
    instances = [(mu_p, nu_p), (mu_t, nu_t)] + \
        [random_instance(rng)[:2] for _ in range(10)]

    worst = 0.0
    for mu, nu in instances:
        report = sinkhorn_msb(mu, nu)
        assert report.converged
        worst = max(worst, gaussian_reference_identity_check(report.coupling))
    ok = worst < 1e-10
    _report(8, "change-of-reference identity", ok,
            f"max_residual={worst:.2e} n={len(instances)}")


def test_criterion_9_infeasibility_handling(tmp_path):
    mu = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[0.0]], [1.0])
    order_ok, _ = check_convex_order(mu, nu)

    mu_file = tmp_path / "mu.json"
    nu_file = tmp_path / "nu.json"
    mu_file.write_text(json.dumps(measure_to_json(mu)), encoding="utf-8")
    nu_file.write_text(json.dumps(measure_to_json(nu)), encoding="utf-8")
    code = cli_main(["solve", "--mu", str(mu_file), "--nu", str(nu_file),
                     "--out", str(tmp_path / "run")])

    boundary_raises = False
    try:
        inner_dual_solve(np.array([1.0]), np.zeros(2),
                         DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5]))
    except NotIrreducible:
        boundary_raises = True

    ok = (not order_ok) and code == 3 and boundary_raises
    _report(9, "infeasibility handling", ok,
            f"convex_order={order_ok} exit_code={code} "
            f"boundary_raises={boundary_raises}")
