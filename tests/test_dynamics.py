"""Path simulation: exact bridge mixtures, energies, and the cost bijection."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mbridge import (
    DiscreteMeasure,
    FiberModel,
    law_checks,
    StructuralError,
    TerminalAmbiguity,
    backward_posterior,
    fiber_coefficients,
    follmer_volatility_gaussian,
    gaussian_energy_closed_form,
    ks_distance,
    phi_bijection_check,
    randomize_over_mu,
    simulate_follmer_martingale,
    sinkhorn_msb,
)
from mbridge.dynamics import (TIME_CLIP, _gaussian_drift_matrix,
                              _gaussian_vol_energy_increments)
from mbridge import dynamics, filtering
from mbridge.filtering import wonham_sde_crosscheck
from conftest import random_instance, two_by_three_family


def bernoulli_fiber(sigma_ref=1.0):
    return FiberModel.discrete(
        [0.0], DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5]),
        sigma_ref=sigma_ref)


def test_fiber_model_validation():
    meas = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    fib = FiberModel.discrete([0.0], meas)
    assert fib.kind == "discrete" and fib.dim == 1
    gau = FiberModel.gaussian([0.0, 0.0], np.diag([2.0, 3.0]))
    assert gau.kind == "gaussian" and gau.dim == 2
    with pytest.raises(StructuralError):
        # barycenter 0 != 0.5
        FiberModel.discrete([0.5], meas)
    with pytest.raises(StructuralError):
        FiberModel.gaussian([0.0], [[-1.0]])
    with pytest.raises(StructuralError):
        FiberModel.discrete([0.0], meas, sigma_ref=0.0)


def test_backward_posterior_prior_normalization_and_terminal(rng):
    fib = bernoulli_fiber()
    w0 = backward_posterior(fib, 0.0, [0.0])
    assert np.max(np.abs(w0 - 0.5)) < 1e-14
    for _ in range(10):
        t = rng.uniform(0.0, 0.999)
        z = rng.normal(size=1)
        w = backward_posterior(fib, t, z)
        assert abs(w.sum() - 1.0) < 1e-14
        assert np.all(w >= 0.0)
    w1 = backward_posterior(fib, 1.0, [1.0])
    assert np.array_equal(w1, [0.0, 1.0])
    with pytest.raises(TerminalAmbiguity):
        backward_posterior(fib, 1.0, [0.4])


def test_fiber_coefficients_closed_forms():
    # identity increment: zero drift, unit volatility everywhere
    flat = FiberModel.gaussian([0.0], [[1.0]])
    u, s = fiber_coefficients(flat, 0.37, [0.8])
    assert abs(u[0]) < 1e-14 and abs(s[0, 0] - 1.0) < 1e-14
    # delta = 2 at t = 1/2: volatility 4/3, matching the schedule module
    two = FiberModel.gaussian([0.0], [[2.0]])
    _, s = fiber_coefficients(two, 0.5, [0.3])
    assert abs(s[0, 0] - 4.0 / 3.0) < 1e-14
    assert abs(s[0, 0] - follmer_volatility_gaussian([[2.0]], 0.5)[0, 0]) < 1e-14
    # symmetric Bernoulli at the start: posterior (1/2, 1/2)
    u, s = fiber_coefficients(bernoulli_fiber(), 0.0, [0.0])
    assert abs(u[0]) < 1e-14 and abs(s[0, 0] - 1.0) < 1e-14
    with pytest.raises(StructuralError):
        fiber_coefficients(bernoulli_fiber(sigma_ref=2.0), 0.0, [0.0])
    with pytest.raises(StructuralError):
        fiber_coefficients(bernoulli_fiber(), 1.0, [0.0])


def test_degenerate_fiber_has_constant_martingale():
    fib = FiberModel.discrete([0.3], DiscreteMeasure([[0.3]], [1.0]))
    ens = simulate_follmer_martingale(fib, grid=np.linspace(0, 1, 101),
                                      n_paths=64, seed=7)
    assert np.max(np.abs(ens.M - 0.3)) < 1e-12
    assert np.max(np.abs(ens.terminal - 0.3)) < 1e-12
    # the pinned bridge still fluctuates, so the path energies are positive
    # (they diverge with grid refinement, as for every atomic fiber)
    assert np.all(ens.X.std(axis=0)[1:-1] > 0.0)
    assert np.min(ens.drift_energy) > 0.0
    assert np.min(ens.vol_energy) > 0.0


def test_terminal_law_matches_the_fiber_measure():
    meas = DiscreteMeasure([[-1.0], [0.5], [2.0]], [0.4, 0.4, 0.2])
    fib = FiberModel.discrete([0.2], meas)
    n = 20_000
    ens = simulate_follmer_martingale(fib, grid=np.linspace(0, 1, 21),
                                      n_paths=n, seed=11)
    # bridge endpoint is the drawn terminal, exactly on the atoms
    assert np.array_equal(ens.M[:, -1], ens.terminal)
    assert np.array_equal(ens.X[:, -1], ens.terminal)
    freqs = np.array([(np.abs(ens.terminal[:, 0] - a) < 1e-12).mean()
                      for a in meas.atoms[:, 0]])
    assert np.abs(freqs - meas.weights).sum() < 3.0 * math.sqrt(meas.n / n)


def test_terminal_law_gaussian_moments():
    delta = np.array([[2.0, 0.6], [0.6, 1.5]])
    fib = FiberModel.gaussian([1.0, -2.0], delta)
    n = 40_000
    ens = simulate_follmer_martingale(fib, grid=np.linspace(0, 1, 11),
                                      n_paths=n, seed=3)
    mean = ens.terminal.mean(axis=0)
    cov = np.cov(ens.terminal.T)
    se_mean = np.sqrt(np.diag(delta) / n)
    assert np.all(np.abs(mean - fib.x) < 4.0 * se_mean)
    assert np.max(np.abs(cov - delta)) < 4.0 * np.max(delta) / math.sqrt(n) * 2.0


def test_martingale_property_conditionally_on_the_past():
    meas = DiscreteMeasure([[-1.0], [0.0], [2.0]], [0.3, 0.5, 0.2])
    fib = FiberModel.discrete([0.1], meas)
    n = 40_000
    ens = simulate_follmer_martingale(fib, grid=np.linspace(0, 1, 201),
                                      n_paths=n, seed=5, store_every=20)
    times = ens.stored_times
    s_pos = int(np.searchsorted(times, 0.3))
    t_pos = int(np.searchsorted(times, 0.7))
    ms = ens.M[:, s_pos, 0]
    mt = ens.M[:, t_pos, 0]
    # unconditional and quartile-binned increments both vanish within noise
    edges = np.quantile(ms, [0.0, 0.25, 0.5, 0.75, 1.0])
    edges[-1] += 1.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (ms >= lo) & (ms < hi)
        inc = mt[sel] - ms[sel]
        se = inc.std() / math.sqrt(sel.sum())
        assert abs(inc.mean()) < 4.0 * se + 1e-12


def test_gaussian_bijection_and_exact_volatility_energy():
    fib = FiberModel.gaussian([0.0], [[2.0]])
    ens = simulate_follmer_martingale(fib, grid=np.linspace(0, 1, 1001),
                                      n_paths=20_000, seed=42)
    report = phi_bijection_check(ens)
    closed = gaussian_energy_closed_form([[2.0]])
    # per-path volatility energy is deterministic and integrated exactly
    assert np.ptp(ens.vol_energy) == 0.0
    assert abs(report.cost_mart - closed) < 1e-12
    assert report.rel_discrepancy < 1e-2
    se = ens.drift_energy.std() / math.sqrt(ens.n_paths)
    assert abs(report.cost_drift - closed) < 3.0 * se


def test_bridge_and_euler_agree_in_law():
    fib = FiberModel.gaussian([0.5], [[2.0]])
    grid = np.linspace(0.0, 1.0, 801)
    a = simulate_follmer_martingale(fib, grid=grid, n_paths=5_000, seed=1,
                                    method="bridge")
    b = simulate_follmer_martingale(fib, grid=grid, n_paths=5_000, seed=2,
                                    method="euler")
    assert ks_distance(a.X[:, -1, 0], b.X[:, -1, 0]) < 0.04
    mid = a.stored_idx.size // 2
    assert ks_distance(a.X[:, mid, 0], b.X[:, mid, 0]) < 0.04


@pytest.mark.parametrize("fiber", [FiberModel.gaussian([0.5], [[2.0]]),
                                   bernoulli_fiber()],
                         ids=["gaussian", "bernoulli"])
def test_euler_terminal_is_the_euler_endpoint(fiber):
    # the Euler paths never read the bridge's terminal draw
    ens = simulate_follmer_martingale(fiber, grid=np.linspace(0, 1, 201),
                                      n_paths=2_000, seed=3, method="euler",
                                      store_every=50)
    assert np.array_equal(ens.terminal, ens.X[:, -1])
    # the endpoints miss the atoms, so only the mean test gates
    report = law_checks(ens)
    assert report.passing and report.terminal_binom_min_p is None


def test_discrete_volatility_energy_diverges_under_refinement():
    fib = bernoulli_fiber()
    vols = []
    drifts = []
    for k in (251, 1001, 4001):
        ens = simulate_follmer_martingale(fib, grid=np.linspace(0, 1, k),
                                          n_paths=4_000, seed=9,
                                          store_every=k)
        d, v = ens.aggregate_energies()
        vols.append(v)
        drifts.append(d)
    # left-endpoint sums of the 1/(1-t) tail grow like log(grid step)
    assert vols[1] - vols[0] > 0.3
    assert vols[2] - vols[1] > 0.3
    assert drifts[1] - drifts[0] > 0.3
    # on a horizon bounded away from 1 the drift energy converges
    fixed = []
    for k in (401, 1601):
        ens = simulate_follmer_martingale(fib,
                                          grid=np.linspace(0, 0.99, k),
                                          n_paths=20_000, seed=9,
                                          store_every=k)
        fixed.append(ens.aggregate_energies()[0])
    assert abs(fixed[1] - fixed[0]) / fixed[1] < 0.05


def test_randomized_mixture_reproduces_the_solver_coupling():
    mu, nu, _ = two_by_three_family()
    report = sinkhorn_msb(mu, nu)
    cond = report.coupling.conditionals()
    fibers = [FiberModel.discrete(mu.atoms[i],
                                  DiscreteMeasure(nu.atoms, cond[i]))
              for i in range(mu.n)]
    n = 100_000
    ens = randomize_over_mu(mu, fibers, grid=np.linspace(0, 1, 11),
                            n_paths=n, seed=17, nu=nu, store_every=10)
    # joint law of (M_0, M_1) against the coupling matrix, in total variation
    freq = np.zeros((mu.n, nu.n))
    for i in range(mu.n):
        sel = ens.fiber_index == i
        for j in range(nu.n):
            hits = np.abs(ens.terminal[sel, 0] - nu.atoms[j, 0]) < 1e-12
            freq[i, j] = hits.sum() / n
    assert 0.5 * np.abs(freq - report.coupling.matrix).sum() < 0.015
    # starting marginal is exactly the stratified mu
    counts = np.bincount(ens.fiber_index, minlength=mu.n) / n
    assert np.max(np.abs(counts - mu.weights)) < 1e-4
    # aggregation identity
    d, v = ens.aggregate_energies()
    manual_d = sum(w * ens.drift_energy[ens.fiber_index == i].mean()
                   for i, w in enumerate(mu.weights))
    assert abs(d - manual_d) < 1e-15


def test_randomized_mixture_structural_errors():
    mu, nu, _ = two_by_three_family()
    fib_ok = FiberModel.discrete(mu.atoms[0],
                                 DiscreteMeasure(nu.atoms, [0.6, 0.3, 0.1]))
    with pytest.raises(StructuralError):
        randomize_over_mu(mu, [fib_ok], n_paths=100)
    fib_other = FiberModel.discrete(mu.atoms[1],
                                    DiscreteMeasure(nu.atoms,
                                                    [0.1, 0.3, 0.6]))
    with pytest.raises(StructuralError):
        randomize_over_mu(mu, [fib_ok, fib_ok], n_paths=100)
    # declared nu does not match the pooled mixture
    wrong_nu = DiscreteMeasure([[-2.0], [0.0], [3.0]], [0.3, 0.4, 0.3])
    with pytest.raises(StructuralError):
        randomize_over_mu(mu, [fib_ok, fib_other], n_paths=100,
                          nu=wrong_nu)
    with pytest.raises(StructuralError):
        randomize_over_mu(mu, [fib_ok, fib_other], n_paths=1)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2]),
       n_paths=st.integers(40, 400))
def test_mixture_starts_at_mu_and_ends_on_nu_atoms(seed, d, n_paths):
    mu, nu, _ = random_instance(np.random.default_rng(seed), d=d)
    cond = sinkhorn_msb(mu, nu).coupling.conditionals()
    fibers = [FiberModel.discrete(mu.atoms[i],
                                  DiscreteMeasure(nu.atoms, cond[i]))
              for i in range(mu.n)]
    ens = randomize_over_mu(mu, fibers, grid=np.linspace(0, 1, 11),
                            n_paths=n_paths, seed=seed, nu=nu, store_every=4)
    assert np.array_equal(ens.M[:, 0], mu.atoms[ens.fiber_index])
    on_atom = np.all(ens.terminal[:, None, :] == nu.atoms[None], axis=2)
    assert np.all(on_atom.sum(axis=1) == 1)
    assert np.array_equal(ens.M[:, -1], ens.terminal)
    assert np.all(np.diff(ens.fiber_index) >= 0)
    assert np.array_equal(np.bincount(ens.fiber_index, minlength=mu.n),
                          _reference_strata(mu.weights, n_paths))


def test_sigma_ref_scaling_keeps_the_martingale_property():
    fib = FiberModel.gaussian([0.0], [[2.0]], sigma_ref=2.0)
    n = 30_000
    ens = simulate_follmer_martingale(fib, grid=np.linspace(0, 1, 101),
                                      n_paths=n, seed=21, store_every=10)
    assert ens.sigma_ref == 2.0
    assert np.all(np.isnan(ens.drift_energy))
    for pos in range(ens.stored_idx.size):
        mean = ens.M[:, pos, 0].mean()
        assert abs(mean) < 4.0 * math.sqrt(2.0 / n) + 1e-12
    with pytest.raises(StructuralError):
        simulate_follmer_martingale(fib, method="euler", n_paths=8)


def test_store_every_and_csv_round_trip(tmp_path):
    fib = bernoulli_fiber()
    ens = simulate_follmer_martingale(fib, grid=np.linspace(0, 1, 101),
                                      n_paths=12, seed=2, store_every=50)
    assert ens.stored_times[0] == 0.0 and ens.stored_times[-1] == 1.0
    out = tmp_path / "paths.csv"
    ens.to_csv(out, max_paths=5)
    raw = out.read_bytes().decode()
    lines = raw.split("\n")
    assert lines[0] == "path_id,t,M,X,fiber"
    assert len(lines) == 1 + 5 * ens.stored_times.size + 1  # header + rows + EOL
    assert "\r" not in raw
    first = lines[1].split(",")
    assert float(first[2]) == ens.M[0, 0, 0]  # repr round-trips exactly


def test_grid_validation():
    fib = bernoulli_fiber()
    with pytest.raises(StructuralError):
        simulate_follmer_martingale(fib, grid=np.array([0.1, 0.5, 1.0]))
    with pytest.raises(StructuralError):
        simulate_follmer_martingale(fib, grid=np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(StructuralError):
        simulate_follmer_martingale(fib, grid=np.array([0.0, 0.5, 1.1]))
    with pytest.raises(StructuralError):
        simulate_follmer_martingale(fib, method="heun", n_paths=4)
    with pytest.raises(StructuralError):
        simulate_follmer_martingale(fib, n_paths=4, store_every=0)


# --- reference kernels: the row-major step, one path per row, written out
# --- plainly in the mixture form; the simulator must reproduce it


def _reference_posterior(fiber, t, z):
    # the posterior of one fiber centred at its start, as first written
    rel = fiber.measure.atoms - fiber.x
    sq = np.sum(rel ** 2, axis=1)
    scale = fiber.sigma_ref ** 2 * (1.0 - t)
    logits = (np.log(fiber.measure.weights)[None, :]
              + ((z - fiber.x) @ rel.T - 0.5 * t * sq[None, :]) / scale)
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    return w / w.sum(axis=1, keepdims=True)


def _reference_table(fibers):
    # every atom once, sorted by coordinates; -inf where a fiber lacks an
    # atom
    atoms = sorted({tuple(a) for fib in fibers for a in fib.measure.atoms})
    atoms = [np.array(a) for a in atoms]
    log_w = np.full((len(fibers), len(atoms)), -np.inf)
    for i, fib in enumerate(fibers):
        for a, lw in zip(fib.measure.atoms, np.log(fib.measure.weights)):
            j = next(j for j, b in enumerate(atoms) if np.array_equal(a, b))
            log_w[i, j] = lw
    return np.array(atoms), log_w


def _reference_strata(weights, n_paths):
    # largest-remainder path counts, ties to the first atom
    exact = np.asarray(weights) * n_paths
    counts = np.floor(exact).astype(int)
    for i in np.argsort(counts - exact, kind="stable")[:n_paths - counts.sum()]:
        counts[i] += 1
    return counts


def _reference_chunk(fibers, weights, fi, grid, rng, method, stored):
    n_paths = fi.size
    fib = fibers[0]
    d = fib.dim
    eye = np.eye(d)
    starts = np.array([f.x for f in fibers])
    gaussian = fib.kind == "gaussian"
    if gaussian:
        y = fib.x + (rng.standard_normal((n_paths, d))
                     @ np.linalg.cholesky(fib.delta).T)
        vol_incs = _gaussian_vol_energy_increments(fib.delta, grid)
    else:
        atoms, log_w = _reference_table(fibers)
        c = weights @ starts
        rel = atoms - c
        sq = np.sum(rel ** 2, axis=1)
        prior = log_w - (starts - c) @ rel.T / fib.sigma_ref ** 2
        u = rng.random(n_paths)
        y = np.empty((n_paths, d))
        for p in range(n_paths):
            meas = fibers[fi[p]].measure
            j = np.searchsorted(np.cumsum(meas.weights), u[p], side="right")
            y[p] = meas.atoms[min(j, meas.n - 1)]
    x = starts[fi]
    M, X = [], []
    drift = np.zeros(n_paths)
    vol = np.zeros(n_paths)
    for k, t in enumerate(grid):
        t_eff = min(t, TIME_CLIP)
        if method == "bridge" and t >= 1.0:
            x = y.copy()
            m = y
        elif gaussian:
            u = (x - fib.x) @ _gaussian_drift_matrix(fib, t_eff).T
            m = x + (1.0 - t_eff) * u
        else:
            logits = (((x - c) @ rel.T - 0.5 * t_eff * sq[None, :])
                      / (fib.sigma_ref ** 2 * (1.0 - t_eff)) + prior[fi])
            logits -= logits.max(axis=1, keepdims=True)
            q = np.exp(logits)
            q = q / q.sum(axis=1, keepdims=True)
            # the prior mean is the start
            m = q @ atoms if t > 0.0 else x.copy()
            u = (m - x) / (1.0 - t_eff)
        if k in stored:
            M.append(m.copy())
            X.append(x.copy())
        if k == grid.size - 1:
            break
        dt = grid[k + 1] - grid[k]
        if t <= TIME_CLIP:
            drift += 0.5 * dt * np.sum(u ** 2, axis=1)
            if not gaussian:
                second = np.einsum("pk,ki,kj->pij", q, atoms, atoms)
                cov = second - np.einsum("pi,pj->pij", m, m)
                vol += (dt / (2.0 * (1.0 - t))
                        * np.sum((cov / (1.0 - t) - eye) ** 2, axis=(1, 2)))
        if gaussian:
            vol += vol_incs[k]
        noise = rng.standard_normal((n_paths, d))
        if method == "bridge":
            rem = 1.0 - t
            x = (x + (y - x) * (dt / rem)
                 + math.sqrt(dt * (1.0 - grid[k + 1]) / rem) * noise)
        else:
            x = x + u * dt + math.sqrt(dt) * noise
    return {"M": np.stack(M, axis=1), "X": np.stack(X, axis=1),
            "terminal": y if method == "bridge" else x,
            "drift_energy": drift, "vol_energy": vol}


def _reference_simulate(fibers, weights, n_paths, grid, seed, method,
                        store_every, chunk):
    # the fibers' paths in fiber order, chunk by chunk on one stream
    fi = np.repeat(np.arange(len(fibers)),
                   _reference_strata(weights, n_paths))
    rng = np.random.Generator(np.random.Philox(key=seed))
    stored = list(range(0, grid.size, store_every))
    if stored[-1] != grid.size - 1:
        stored.append(grid.size - 1)
    parts = [_reference_chunk(fibers, weights, fi[lo:lo + chunk], grid, rng,
                              method, stored)
             for lo in range(0, n_paths, chunk)]
    ref = {name: np.concatenate([p[name] for p in parts])
           for name in parts[0]}
    ref["fiber_index"] = fi
    return ref


def _four_atom_plane_fiber():
    atoms = np.array([[-1.0, 0.3], [0.7, 1.1], [1.3, -0.6], [0.2, -1.4]])
    w = np.array([0.3, 0.2, 0.25, 0.25])
    return FiberModel.discrete(w @ atoms, DiscreteMeasure(atoms, w))


def _study_fibers():
    # three fibers on the dyadic atoms -2, 0, 2, as the solver gives them
    mu = DiscreteMeasure([[-1.0], [0.0], [1.0]], [0.40, 0.46, 0.14])
    nu = DiscreteMeasure([[-2.0], [0.0], [2.0]], [0.43, 0.27, 0.30])
    cond = sinkhorn_msb(mu, nu).coupling.conditionals()
    return mu, [FiberModel.discrete(mu.atoms[i],
                                    DiscreteMeasure(nu.atoms, cond[i]))
                for i in range(mu.n)]


def _plane_fibers():
    # three fibers in the plane; the last lacks the fourth atom, and the
    # second lists its atoms in another order
    atoms = np.array([[-1.0, 0.3], [0.7, 1.1], [1.3, -0.6], [0.2, -1.4]])
    rows = [(atoms, [0.3, 0.2, 0.25, 0.25]),
            (atoms[[2, 0, 3, 1]], [0.1, 0.4, 0.3, 0.2]),
            (atoms[:3], [0.5, 0.2, 0.3])]
    fibers = [FiberModel.discrete(np.asarray(w) @ a, DiscreteMeasure(a, w))
              for a, w in rows]
    mu = DiscreteMeasure([f.x for f in fibers], [0.5, 0.3, 0.2])
    return mu, fibers


def _kernel_pair(case, method, chunk=32768):
    grid = np.linspace(0.0, 1.0, 201)
    if isinstance(case, FiberModel):
        ens = simulate_follmer_martingale(case, grid=grid, n_paths=500,
                                          seed=13, method=method,
                                          store_every=20)
        mu, fibers = DiscreteMeasure([case.x], [1.0]), [case]
    else:
        mu, fibers = case
        ens = randomize_over_mu(mu, fibers, grid=grid, n_paths=500, seed=13,
                                method=method, store_every=20)
    ref = _reference_simulate(fibers, mu.weights, 500, grid, 13, method, 20,
                              chunk)
    return ens, ref


@pytest.mark.parametrize("method", ["bridge", "euler"])
@pytest.mark.parametrize("case", [
    # dyadic atoms make every atom product exact, as in the study instance,
    # so only the order of the sums could differ, and it does not
    FiberModel.discrete([-0.26], DiscreteMeasure([[-2.0], [0.0], [2.0]],
                                                 [0.43, 0.27, 0.30])),
    _study_fibers(),
    FiberModel.gaussian([0.4, -0.3], [[2.0, 0.3], [0.3, 1.5]]),
], ids=["discrete-3-d1", "mixture-3-d1", "gaussian-d2"])
def test_kernel_reproduces_the_row_major_reference_exactly(case, method):
    ens, ref = _kernel_pair(case, method)
    for name, value in ref.items():
        assert np.array_equal(getattr(ens, name), value), name


@pytest.mark.parametrize("method", ["bridge", "euler"])
@pytest.mark.parametrize("case", [
    _four_atom_plane_fiber(),
    FiberModel.discrete([0.4 * -1.3 + 0.4 * 0.7 + 0.2 * 2.1],
                        DiscreteMeasure([[-1.3], [0.7], [2.1]],
                                        [0.4, 0.4, 0.2])),
    _plane_fibers(),
], ids=["discrete-4-d2", "discrete-3-d1-generic", "mixture-3-d2"])
def test_kernel_matches_the_row_major_reference_to_rounding(case, method):
    # the GEMMs and reductions run in another order; the last bits move
    ens, ref = _kernel_pair(case, method)
    for name in ("terminal", "fiber_index"):
        assert np.array_equal(getattr(ens, name), ref[name]), name
    for name in ("M", "X", "drift_energy", "vol_energy"):
        value = getattr(ens, name)
        scale = max(1.0, float(np.max(np.abs(ref[name]))))
        assert np.max(np.abs(value - ref[name])) <= 1e-13 * scale, name


def _disjoint_fibers():
    # two fibers that share no atom: a table of six atoms, three per fiber
    rows = [([[-2.0], [0.0], [2.0]], [0.25, 0.5, 0.25]),
            ([[1.0], [3.0], [5.0]], [0.5, 0.25, 0.25])]
    fibers = [FiberModel.discrete(np.asarray(w) @ a, DiscreteMeasure(a, w))
              for a, w in rows]
    return DiscreteMeasure([f.x for f in fibers], [0.5, 0.5]), fibers


@pytest.mark.parametrize("method", ["bridge", "euler"])
@pytest.mark.parametrize("case, chunk, tol", [
    # 500 paths in chunks of 64: chunks that hold one fiber and chunks
    # that hold two; dyadic atoms, so exact
    (_study_fibers(), 64, 0.0),
    # six atoms, at most three per fiber: chunks of 64 * 3 // 6 = 32 paths
    # keep the (k, chunk) arrays at one fiber's size; a chunk drops the
    # atoms of the fibers it lacks, so the sums move in the last bits
    (_disjoint_fibers(), 32, 1e-13),
], ids=["shared-atoms", "disjoint-atoms"])
def test_chunks_split_fibers_on_one_stream(monkeypatch, case, chunk, tol,
                                           method):
    monkeypatch.setattr(dynamics, "_CHUNK", 64)
    ens, ref = _kernel_pair(case, method, chunk=chunk)
    for name, value in ref.items():
        scale = max(1.0, float(np.max(np.abs(value))))
        assert np.max(np.abs(getattr(ens, name) - value)) <= tol * scale, name


@pytest.mark.parametrize("method", ["bridge", "euler"])
@pytest.mark.parametrize("fiber", [
    _four_atom_plane_fiber(),
    FiberModel.discrete([0.4 * -1.3 + 0.4 * 0.7 + 0.2 * 2.1],
                        DiscreteMeasure([[-1.3], [0.7], [2.1]],
                                        [0.4, 0.4, 0.2])),
], ids=["discrete-4-d2", "discrete-3-d1"])
def test_mixture_of_one_fiber_is_the_single_fiber(fiber, method):
    grid = np.linspace(0.0, 1.0, 101)
    single = simulate_follmer_martingale(fiber, grid=grid, n_paths=700,
                                         seed=3, method=method, store_every=7)
    mixed = randomize_over_mu(DiscreteMeasure([fiber.x], [1.0]), [fiber],
                              grid=grid, n_paths=700, seed=3, method=method,
                              store_every=7)
    for name in ("M", "X", "terminal", "drift_energy", "vol_energy",
                 "fiber_index"):
        assert np.array_equal(getattr(mixed, name), getattr(single, name))
    assert mixed.aggregate_energies() == single.aggregate_energies()


@pytest.mark.parametrize("t", [0.0, 0.5, 0.99, 1.0 - 1e-6])
def test_posterior_weights_match_the_per_fiber_form(t):
    mu, fibers = _plane_fibers()
    starts = np.array([f.x for f in fibers])
    atoms, log_w = _reference_table(fibers)
    center = mu.weights @ starts
    prior = (log_w - (starts - center) @ (atoms - center).T).T
    rng = np.random.default_rng(4)
    fi = np.repeat(np.arange(3), 40)
    z = starts[fi] + rng.normal(size=(fi.size, 2))
    q = dynamics._posterior_weights(atoms, center, prior[:, fi], t, z, 1.0 - t)
    for i, fib in enumerate(fibers):
        sel = fi == i
        cols = [next(j for j, b in enumerate(atoms) if np.array_equal(a, b))
                for a in fib.measure.atoms]
        ref = _reference_posterior(fib, t, z[sel])
        assert np.max(np.abs(q[cols][:, sel] - ref.T)) <= 1e-13
        lacking = np.setdiff1d(np.arange(atoms.shape[0]), cols)
        assert np.all(q[lacking][:, sel] == 0.0)


def _reference_wonham(n_paths, n_steps, s_max, checkpoints, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    yp = np.where(rng.random(n_paths) < 0.5, -0.5, 0.5)
    z_exact = {}
    for c in checkpoints:
        r = c * yp + math.sqrt(c) * rng.standard_normal(n_paths)
        z_exact[c] = 1.0 / (1.0 + np.exp(-r))
    ds = s_max / n_steps
    z = np.full(n_paths, 0.5)
    z_euler = {}
    violations = 0
    for step in range(1, n_steps + 1):
        z = z + z * (1.0 - z) * math.sqrt(ds) * rng.standard_normal(n_paths)
        violations += int(np.count_nonzero((z < 0.0) | (z > 1.0)))
        z = np.clip(z, 0.0, 1.0)
        for c in checkpoints:
            if c not in z_euler and step * ds >= c - 1e-12:
                z_euler[c] = z.copy()
    ks = {c: ks_distance(z_exact[c], z_euler[c]) for c in checkpoints}
    return ks, violations, float(np.mean(z_euler[max(checkpoints)] > 0.5))


@pytest.mark.parametrize("n_paths, n_steps", [(3000, 800), (3000, 40),
                                               (50, 10), (50, 9361)])
def test_wonham_euler_reproduces_the_reference_loop(n_paths, n_steps):
    # coarse steps push paths out of [0, 1] (clamped and counted); with 50
    # paths some steps lose paths through the top only; at 9361 steps a
    # running sum of ds ends more than 1e-12 short of s_max
    report = wonham_sde_crosscheck(n_paths=n_paths, n_steps=n_steps,
                                   checkpoints=(1.0, 4.0), seed=8)
    ks, violations, freq = _reference_wonham(n_paths, n_steps, 4.0,
                                             (1.0, 4.0), 8)
    assert report.ks_by_checkpoint == ks
    assert report.clamp_violations == violations
    assert report.terminal_freq_euler == freq
    assert (violations > 0) == (n_steps < 800)


def _reference_wonham_blocks(n_paths, n_steps, s_max, checkpoints, seed,
                             block):
    # the same plain loop, run block by block: block 0 continues the root
    # stream, block b >= 1 draws from the key with b in its high word
    rng = np.random.Generator(np.random.Philox(key=seed))
    yp = np.where(rng.random(n_paths) < 0.5, -0.5, 0.5)
    z_exact = {}
    for c in checkpoints:
        r = c * yp + math.sqrt(c) * rng.standard_normal(n_paths)
        z_exact[c] = 1.0 / (1.0 + np.exp(-r))
    ds = s_max / n_steps
    parts = {c: [] for c in checkpoints}
    violations = 0
    for b, lo in enumerate(range(0, n_paths, block)):
        if b > 0:
            rng = np.random.Generator(np.random.Philox(key=seed + b * 2**64))
        z = np.full(min(block, n_paths - lo), 0.5)
        taken = set()
        for step in range(1, n_steps + 1):
            z = z + z * (1.0 - z) * math.sqrt(ds) * rng.standard_normal(z.size)
            violations += int(np.count_nonzero((z < 0.0) | (z > 1.0)))
            z = np.clip(z, 0.0, 1.0)
            for c in checkpoints:
                if c not in taken and step * ds >= c - 1e-12:
                    taken.add(c)
                    parts[c].append(z.copy())
    z_euler = {c: np.concatenate(parts[c]) for c in checkpoints}
    ks = {c: ks_distance(z_exact[c], z_euler[c]) for c in checkpoints}
    return ks, violations, float(np.mean(z_euler[max(checkpoints)] > 0.5))


def test_wonham_blocks_reproduce_the_per_block_reference_loop():
    # three blocks, the last one short; the coarse steps make paths clamp
    block = filtering._EULER_BLOCK
    n_paths = 2 * block + block // 3
    report = wonham_sde_crosscheck(n_paths=n_paths, n_steps=37,
                                   checkpoints=(1.0, 4.0), seed=8)
    ks, violations, freq = _reference_wonham_blocks(n_paths, 37, 4.0,
                                                    (1.0, 4.0), 8, block)
    assert report.ks_by_checkpoint == ks
    assert report.clamp_violations == violations > 0
    assert report.terminal_freq_euler == freq


def test_wonham_report_does_not_depend_on_the_worker_count(monkeypatch):
    reports = []
    for cores in (1, 2):
        monkeypatch.setattr(filtering, "_cores", lambda cores=cores: cores)
        reports.append(wonham_sde_crosscheck(
            n_paths=2 * filtering._EULER_BLOCK + 17, n_steps=200, seed=5))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("seed", [0, 42, 2**63 + 5, 2**64 - 1])
def test_block_substreams_miss_the_invariance_streams(seed):
    # sigma_invariance_test draws from Philox(key=seed).jumped(j + 1), the
    # Euler blocks b >= 1 from their own keys; a plain jumped(b) would
    # hand block b the stream of the (b - 1)-th volatility
    root = np.random.Philox(key=seed)
    used = [root.state["state"]] + [root.jumped(j + 1).state["state"]
                                    for j in range(64)]
    assert all(np.array_equal(st["key"], [seed, 0]) for st in used)
    for b in range(1, 64):
        state = filtering._block_stream(seed, b).state["state"]
        assert np.array_equal(state["key"], [seed, b])
        assert not any(np.array_equal(state["key"], st["key"])
                       and np.array_equal(state["counter"], st["counter"])
                       for st in used)


# --- law checks that can fail


def _study_mixture(n_paths, grid_points):
    mu = DiscreteMeasure([[-1.0], [0.0], [1.0]], [0.40, 0.46, 0.14])
    nu = DiscreteMeasure([[-2.0], [0.0], [2.0]], [0.43, 0.27, 0.30])
    cond = sinkhorn_msb(mu, nu).coupling.conditionals()
    fibers = [FiberModel.discrete(mu.atoms[i],
                                  DiscreteMeasure(nu.atoms, cond[i]))
              for i in range(mu.n)]
    return randomize_over_mu(mu, fibers,
                             grid=np.linspace(0, 1, grid_points),
                             n_paths=n_paths, seed=42, nu=nu, store_every=50)


@pytest.mark.parametrize("n_paths, grid_points", [(10_000, 1001), (60, 11)])
def test_law_checks_pass_on_the_study_instance(n_paths, grid_points):
    report = law_checks(_study_mixture(n_paths, grid_points))
    assert report.passing
    assert report.terminal_binom_min_p >= 1e-7
    assert report.max_mean_dev_se <= 5.0


def test_law_checks_fail_on_tampered_ensembles():
    ens = _study_mixture(3000, 101)
    assert law_checks(ens).passing
    # every terminal reassigned to one atom
    moved = copy.copy(ens)
    moved.terminal = np.full_like(ens.terminal, ens.fibers[0].measure.atoms[0])
    report = law_checks(moved)
    assert not report.passing and report.terminal_binom_min_p < 1e-7
    # a terminal off every atom
    stray = copy.copy(ens)
    stray.terminal = ens.terminal.copy()
    stray.terminal[0] += 0.5
    assert law_checks(stray).terminal_binom_min_p == 0.0
    # a martingale that drifts
    drifted = copy.copy(ens)
    drifted.M = ens.M + ens.stored_times[None, :, None]
    report = law_checks(drifted)
    assert not report.passing and report.max_mean_dev_se > 5.0


def test_law_checks_on_a_gaussian_fiber():
    fib = FiberModel.gaussian([0.5, -0.5], [[2.0, 0.3], [0.3, 1.5]])
    ens = simulate_follmer_martingale(fib, grid=np.linspace(0, 1, 101),
                                      n_paths=2000, seed=4, store_every=10)
    report = law_checks(ens)
    assert report.passing and report.terminal_binom_min_p is None
    ens.M[:, 1:-1] += 0.3
    assert not law_checks(ens).passing
