"""Observation filter: time change, invariance in law, SDE cross-check."""

import math

import numpy as np
import pytest

from mbridge import (
    DiscreteMeasure,
    FiberModel,
    StructuralError,
    backward_posterior,
    info_time_change,
    inverse_info_time,
    posterior_estimator,
    restart_posterior,
    sigma_invariance_test,
    simulate_observations,
    wonham_sde_crosscheck,
)
from mbridge import filtering


def three_atom_fiber():
    return FiberModel.discrete(
        [0.0], DiscreteMeasure([[-1.0], [0.0], [1.0]], [0.3, 0.4, 0.3]))


def test_time_change_properties():
    assert info_time_change(0.0) == 0.0
    assert info_time_change(np.inf) == 1.0
    s = np.linspace(0.0, 50.0, 200)
    for sig in (0.5, 1.0, 2.0):
        tau = info_time_change(s, sig)
        assert np.all(np.diff(tau) > 0.0)
        assert np.all((tau >= 0.0) & (tau < 1.0))
        back = inverse_info_time(tau, sig)
        assert np.max(np.abs(back - s)) < 1e-9 * (1 + s.max())
    assert inverse_info_time(1.0) == np.inf
    # more information per unit time at higher reference volatility
    assert info_time_change(1.0, 2.0) > info_time_change(1.0, 1.0)
    with pytest.raises(StructuralError):
        info_time_change(-0.1)
    with pytest.raises(StructuralError):
        inverse_info_time(1.2)


def test_filter_equals_bridge_posterior_at_the_information_time(rng):
    # observing r up to time s carries the same information as seeing the
    # bridge at tau = s/(1+s) in position x + r/(1+s)
    fib = three_atom_fiber()
    for _ in range(20):
        s = float(rng.uniform(0.1, 5.0))
        r = rng.normal(size=1)
        w_filter, mean = posterior_estimator(fib, s, r)
        tau = info_time_change(s)
        z = fib.x + r / (1.0 + s)
        w_bridge = backward_posterior(fib, tau, z)
        assert np.max(np.abs(w_filter - w_bridge)) < 1e-12
        assert abs(mean[0] - w_bridge @ fib.measure.atoms[:, 0]) < 1e-12


def test_posterior_estimator_shapes_and_validation():
    fib = three_atom_fiber()
    w, mean = posterior_estimator(fib, 1.0, np.zeros((5, 1)))
    assert w.shape == (5, 3) and mean.shape == (5, 1)
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-14
    with pytest.raises(StructuralError):
        posterior_estimator(fib, -1.0, [0.0])
    gau = FiberModel.gaussian([0.0], [[2.0]])
    with pytest.raises(StructuralError):
        posterior_estimator(gau, 1.0, [0.0])


def test_observation_paths_have_the_right_moments():
    fib = three_atom_fiber()
    s_grid = np.array([0.5, 1.0, 3.0])
    n = 40_000
    r, y = simulate_observations(fib, s_grid, n_paths=n, seed=6)
    assert r.shape == (n, 3, 1)
    var_y = float(np.sum(fib.measure.weights
                         * fib.measure.atoms[:, 0] ** 2))
    for k, s in enumerate(s_grid):
        sample = r[:, k, 0]
        var = s * s * var_y + s
        assert abs(sample.mean()) < 4.0 * math.sqrt(var / n)
        assert abs(sample.var() - var) < 5.0 * var / math.sqrt(n) * 2.0
    freqs = np.array([(np.abs(y[:, 0] - a) < 1e-12).mean()
                      for a in fib.measure.atoms[:, 0]])
    assert np.abs(freqs - fib.measure.weights).sum() < 0.02
    with pytest.raises(StructuralError):
        simulate_observations(fib, np.array([1.0, 0.5]), n_paths=8)
    with pytest.raises(StructuralError):
        simulate_observations(FiberModel.gaussian([0.0], [[1.0]]),
                              s_grid, n_paths=8)


def test_sigma_invariance_of_the_filter_law():
    fib = three_atom_fiber()
    report = sigma_invariance_test(fib, s=1.0, sigmas=(0.5, 1.0, 2.0),
                                   n_samples=20_000, seed=10)
    assert report.max_ks < 0.02
    assert report.ks_matrix.shape == (3, 3)
    assert np.all(report.ks_matrix == report.ks_matrix.T)
    # the sampled laws are means of the fiber measure, inside the hull
    for sample in report.samples.values():
        assert sample.min() >= -1.0 and sample.max() <= 1.0


@pytest.mark.parametrize("sigmas", [(2.0,), (1.0, 1.0), (0.0, 1.0)])
def test_sigma_invariance_needs_two_distinct_positive_volatilities(sigmas):
    # a single law has no pair to compare: the check could not fail
    with pytest.raises(StructuralError):
        sigma_invariance_test(three_atom_fiber(), sigmas=sigmas, n_samples=8)


def test_wonham_crosscheck_agrees_in_law():
    report = wonham_sde_crosscheck(n_paths=20_000, n_steps=2_000, seed=3)
    assert max(report.ks_by_checkpoint.values()) < 0.025
    assert abs(report.terminal_freq_exact - 0.5) < 0.015
    assert abs(report.terminal_freq_euler - 0.5) < 0.015
    assert report.clamp_violations < 5
    for bad in ({"n_paths": 0}, {"n_steps": -3}, {"seed": -1},
                {"seed": 2**64}):
        with pytest.raises(StructuralError):
            wonham_sde_crosscheck(**{"n_paths": 16, "n_steps": 4, **bad})


def test_euler_increment_table_is_odd_with_unit_variance():
    # Euler with increments of mean 0, variance ds and third moment 0 has
    # weak order one, as with Gaussian increments
    q = filtering._QUANTILES
    assert q.shape == (256,)
    assert np.all(np.diff(q) > 0.0)
    assert np.array_equal(q, -q[::-1])
    assert math.fsum(q) == 0.0
    assert abs(math.fsum(q * q) / q.size - 1.0) <= 1e-15
    assert math.fsum(q * q * q) == 0.0


def test_euler_increment_table_matches_scipy_ndtri():
    from scipy.special import ndtri
    upper = ndtri((np.arange(128, 256) + 0.5) / 256)
    ref = (np.concatenate([-upper[::-1], upper])
           / math.sqrt(math.fsum(upper ** 2) / 128))
    q = filtering._QUANTILES
    assert np.all(np.abs(q - ref) <= 8 * np.spacing(np.abs(ref)))


@pytest.mark.parametrize("seed", range(1, 7))
def test_wonham_law_has_no_lattice_bias_on_a_coarse_grid(seed):
    # a two-point increment law puts the Euler paths of 100 steps on a
    # lattice about 0.03 away in KS; the 256-level table stays with
    # Gaussian Euler
    report = wonham_sde_crosscheck(n_paths=40_000, n_steps=100, seed=seed)
    assert max(report.ks_by_checkpoint.values()) < 0.02


NON_FINITE_TIMES = {
    "time-change-nan": lambda: info_time_change(math.nan),
    "inverse-time-change-nan": lambda: inverse_info_time(
        np.array([0.5, math.nan])),
    "invariance-s-inf": lambda: sigma_invariance_test(
        three_atom_fiber(), s=math.inf, n_samples=8),
    "invariance-s-nan": lambda: sigma_invariance_test(
        three_atom_fiber(), s=math.nan, n_samples=8),
    "observations-grid-nan": lambda: simulate_observations(
        three_atom_fiber(), np.array([0.5, math.nan]), n_paths=8),
    "observations-grid-inf": lambda: simulate_observations(
        three_atom_fiber(), np.array([0.5, math.inf]), n_paths=8),
    "posterior-s-nan": lambda: posterior_estimator(
        three_atom_fiber(), math.nan, [0.0]),
    "posterior-s-inf": lambda: posterior_estimator(
        three_atom_fiber(), math.inf, [0.0]),
    "restart-s-nan": lambda: restart_posterior(
        three_atom_fiber().measure, np.zeros(3), [0.0], [0.0], math.nan,
        [0.0]),
}


@pytest.mark.parametrize("call", NON_FINITE_TIMES.values(),
                         ids=NON_FINITE_TIMES.keys())
def test_non_finite_times_are_refused(call):
    with pytest.raises(StructuralError):
        call()


def test_restart_posterior_is_again_a_tilted_fiber(rng):
    nu = DiscreteMeasure([[-2.0], [-0.5], [1.0], [2.5]],
                         [0.2, 0.3, 0.3, 0.2])
    psi = rng.normal(scale=0.3, size=4)
    h = rng.normal(size=1)
    x = np.array([0.1])
    s = 1.7
    r = rng.normal(size=1)
    report = restart_posterior(nu, psi, h, x, s, r)
    # direct filter update of the fiber conditional
    rel = nu.atoms - x
    logits = (np.log(nu.weights) + psi + rel[:, 0] * h[0]
              + rel[:, 0] * r[0] - 0.5 * s * rel[:, 0] ** 2)
    logits -= logits.max()
    manual = np.exp(logits)
    manual /= manual.sum()
    assert np.max(np.abs(report.weights - manual)) < 1e-14
    assert np.max(np.abs(report.eta - (h + r + s * x))) < 1e-15
    # the re-solved single-fiber problem reproduces the posterior
    assert report.max_weight_dev < 1e-12
    assert np.max(np.abs(report.recovered_h - report.eta)) < 1e-8
    with pytest.raises(StructuralError):
        restart_posterior(nu, psi, h, x, -1.0, r)
