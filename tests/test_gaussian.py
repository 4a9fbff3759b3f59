"""Closed forms for the Gaussian pair and their quadrature cross-checks."""

import math

import numpy as np
import pytest

from mbridge import (
    NotInConvexOrder,
    StructuralError,
    bass_comparison_gaussian,
    follmer_volatility_gaussian,
    gaussian_energy_closed_form,
    gaussian_msb_closed_form,
    weighted_energy_quadrature,
)
from mbridge import gaussian


def random_spd(rng, d, scale=1.0):
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T + d * np.eye(d))


def test_unit_increment_case_is_fully_explicit():
    sol = gaussian_msb_closed_form(1.0, 2.0)
    assert abs(sol.entropy_value - 0.5 * math.log(2.0)) < 1e-15
    assert np.allclose(sol.delta, [[1.0]])
    assert np.allclose(sol.h_matrix, [[1.0]])
    # flat increment: the volatility schedule is constant equal to 1
    for t in (0.0, 0.3, 1.0):
        assert abs(follmer_volatility_gaussian(sol.delta, t)[0, 0] - 1.0) < 1e-15
    assert gaussian_energy_closed_form(sol.delta) == 0.0


def test_entropy_value_matches_the_determinant_formula(rng):
    for d in (1, 2, 3):
        s0 = random_spd(rng, d, 0.5)
        s1 = s0 + random_spd(rng, d, 0.8)
        sol = gaussian_msb_closed_form(s0, s1)
        expected = 0.5 * (np.linalg.slogdet(s1)[1]
                          - np.linalg.slogdet(s1 - s0)[1])
        assert abs(sol.entropy_value - expected) < 1e-12


def test_closed_form_bundle_internal_consistency(rng):
    s0 = random_spd(rng, 3, 0.7)
    s1 = s0 + random_spd(rng, 3, 1.1)
    sol = gaussian_msb_closed_form(s0, s1)
    delta = s1 - s0
    delta_inv = np.linalg.inv(delta)
    assert np.max(np.abs(sol.delta - delta)) < 1e-12
    assert np.max(np.abs(sol.h_matrix - delta_inv)) < 1e-10
    assert np.max(np.abs(sol.base_covariance - delta_inv @ s0 @ delta_inv)) < 1e-10
    assert np.max(np.abs(sol.psi_quadratic
                         - 0.5 * (np.linalg.inv(s1) - delta_inv))) < 1e-10
    # joint covariance blocks: Cov(X)=S0, Cov(X,Y)=S0, Cov(Y)=S1, and the
    # conditional covariance of Y given X is the increment covariance
    j = sol.joint_covariance
    assert np.max(np.abs(j[:3, :3] - s0)) < 1e-14
    assert np.max(np.abs(j[:3, 3:] - s0)) < 1e-14
    assert np.max(np.abs(j[3:, 3:] - s1)) < 1e-14
    schur = s1 - s0 @ np.linalg.solve(s0, s0)
    assert np.max(np.abs(schur - delta)) < 1e-10


def test_energy_quadrature_matches_closed_form(rng):
    cases = [np.array([[2.0]]), np.diag([2.0, 3.0]), random_spd(rng, 3)]
    for delta in cases:
        quad_val = weighted_energy_quadrature(delta)
        closed = gaussian_energy_closed_form(delta)
        assert abs(quad_val - closed) < 1e-8
    # frozen values for the two explicit cases
    assert abs(gaussian_energy_closed_form([[2.0]])
               - 0.5 * (1.0 - math.log(2.0))) < 1e-15
    assert abs(gaussian_energy_closed_form(np.diag([2.0, 3.0]))
               - 0.5 * (3.0 - math.log(6.0))) < 1e-15


def test_volatility_schedule_endpoints_and_monotone_eigenvalues(rng):
    delta = random_spd(rng, 3)
    d = delta.shape[0]
    assert np.max(np.abs(follmer_volatility_gaussian(delta, 0.0) - delta)) < 1e-12
    assert np.max(np.abs(follmer_volatility_gaussian(delta, 1.0) - np.eye(d))) < 1e-12
    # each eigenvalue moves monotonically from lam to 1
    lam = np.linalg.eigvalsh(delta)
    prev = None
    for t in np.linspace(0.0, 1.0, 11):
        ev = np.linalg.eigvalsh(follmer_volatility_gaussian(delta, t))
        if prev is not None:
            drift = (ev - prev) * np.sign(1.0 - lam)
            assert np.all(drift >= -1e-12)
        prev = ev
    with pytest.raises(StructuralError):
        follmer_volatility_gaussian(delta, 1.5)


def test_volatility_schedule_on_a_grid_equals_the_pointwise_calls(rng):
    grid = np.linspace(0.0, 1.0, 11)
    for k in range(200):
        delta = random_spd(rng, 1 + k % 3, rng.uniform(0.1, 10.0))
        stacked = follmer_volatility_gaussian(delta, grid)
        assert stacked.shape == (grid.size,) + delta.shape
        for t, sigma in zip(grid, stacked):
            assert np.array_equal(sigma, follmer_volatility_gaussian(delta, t))
    with pytest.raises(StructuralError):
        follmer_volatility_gaussian(delta, np.array([0.5, np.nan]))


def test_bridge_and_flat_schedules_agree_through_the_time_change(rng):
    for s0, s1 in [
        (np.eye(1), 3.0 * np.eye(1)),
        (np.eye(2), np.eye(2) + np.diag([2.0, 3.0])),
        (random_spd(rng, 3, 0.5), None),
    ]:
        if s1 is None:
            s1 = s0 + random_spd(rng, 3, 0.9)
        comp = bass_comparison_gaussian(s0, s1)
        assert comp.max_discrepancy < 1e-12
        assert comp.grid.size == 101
        # flat volatility is the SPD square root of the increment covariance
        assert np.max(np.abs(comp.bass_volatility @ comp.bass_volatility
                             - (s1 - s0))) < 1e-10
        # time change endpoints
        tau = comp.time_change(np.array([0.0, 1.0]))
        assert np.max(np.abs(tau[0])) < 1e-15
        assert np.max(np.abs(tau[1] - 1.0)) < 1e-15


# eigenvalues of D from 1e-4 to 1e4, one of them 1 and two a rounding away
SPECTRUM = np.concatenate([np.logspace(-4.0, 4.0, 33),
                           [1.0 - 2.0 ** -52, 1.0 + 2.0 ** -52]])


def test_energy_rule_matches_scipy_quad():
    from scipy.integrate import quad
    assert 1.0 in SPECTRUM
    for lam in SPECTRUM:
        ours = weighted_energy_quadrature([[lam]])
        ref, _ = quad(lambda t, lam=lam: gaussian._energy_integrand(lam, t),
                      0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
        assert abs(ours - 0.5 * ref) <= 1e-13 * (1.0 + 0.5 * ref), lam


def test_isometry_rule_matches_scipy_quad():
    from scipy.integrate import quad
    grid = np.array([0.0, 0.01, 0.3, 0.77, 1.0])
    ours, _ = gaussian._schedule_integral(gaussian._isometry_integrand,
                                          SPECTRUM, grid[:, None])
    for k, lam in enumerate(SPECTRUM):
        for g, t in enumerate(grid):
            ref, _ = quad(
                lambda s, lam=lam: gaussian._isometry_integrand(lam, s),
                0.0, t, epsabs=1e-14, epsrel=1e-13, limit=200)
            assert abs(ours[g, k] - ref) <= 1e-12 * ref + 1e-15, (lam, t)


def test_energy_quadrature_accepts_a_large_converged_integral():
    # at lam = 1e5 the energy is about 5e4, and the gap between two
    # converged rules (3.6e-9) is rounding, far below 1e-9 of the value
    delta = [[1e5]]
    energy = weighted_energy_quadrature(delta)
    closed = gaussian_energy_closed_form(delta)
    assert abs(energy - closed) <= 1e-13 * closed


def test_energy_quadrature_refuses_a_rule_too_short(monkeypatch):
    # two nodes cannot resolve the integrand at lam = 50: the gap between
    # the two rules exceeds the 1e-9 tolerance
    monkeypatch.setattr(gaussian, "_QUADRATURE_NODES", 2)
    with pytest.raises(StructuralError, match="tolerance"):
        weighted_energy_quadrature(np.diag([2.0, 50.0]))


def test_convex_order_and_validation_failures():
    with pytest.raises(NotInConvexOrder):
        gaussian_msb_closed_form(2.0, 1.0)
    with pytest.raises(NotInConvexOrder):
        gaussian_msb_closed_form(np.eye(2), np.diag([2.0, 1.0]))
    with pytest.raises(NotInConvexOrder):
        gaussian_msb_closed_form(1.0, 2.0, mean0=[0.0], mean1=[1.0])
    with pytest.raises(StructuralError):
        gaussian_msb_closed_form(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))
    with pytest.raises(StructuralError):
        gaussian_msb_closed_form(-1.0, 2.0)
