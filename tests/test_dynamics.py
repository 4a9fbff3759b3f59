"""Path simulation: exact bridge mixtures, energies, and the cost bijection."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mbridge import (
    Coupling,
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
from mbridge.dynamics import (TIME_CLIP, _gaussian_drift_energy_increments,
                              _gaussian_drift_matrix,
                              _gaussian_vol_energy_increments)
from mbridge import dynamics, filtering
from mbridge.filtering import wonham_sde_crosscheck
from conftest import random_instance, two_by_three_family


def bernoulli_fiber():
    return FiberModel.discrete(
        [0.0], DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5]))


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
    # a non-finite start is refused, not carried into NaN posteriors
    for start in ([np.nan], [np.inf], [-np.inf]):
        with pytest.raises(StructuralError, match="finite"):
            FiberModel.discrete(start, meas)
        with pytest.raises(StructuralError, match="finite"):
            FiberModel.gaussian(start, [[2.0]])


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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3))
def test_gaussian_energy_increments_and_the_drift_bias(seed, d):
    # a random SPD increment: a random rotation of eigenvalues in [0.1, 10]
    rng = np.random.default_rng(seed)
    rot, _ = np.linalg.qr(rng.normal(size=(d, d)))
    delta = (rot * rng.uniform(0.1, 10.0, size=d)) @ rot.T
    delta = 0.5 * (delta + delta.T)
    closed = gaussian_energy_closed_form(delta)
    bias = []
    for points in (41, 1001):
        grid = np.linspace(0.0, 1.0, points)
        vol = _gaussian_vol_energy_increments(delta, grid).sum()
        assert abs(vol - closed) <= 1e-12 * (1.0 + abs(closed))
        bias.append(_gaussian_drift_energy_increments(delta, grid).sum()
                    - vol)
    # the left-endpoint drift cost's bias b shrinks under refinement
    assert abs(bias[1]) < abs(bias[0])


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
    n = 100_000
    ens = randomize_over_mu(report.coupling, grid=np.linspace(0, 1, 11),
                            n_paths=n, seed=17, store_every=10)
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
    # one path cannot give both starts a stratum
    mu, nu, matrix = two_by_three_family()
    with pytest.raises(StructuralError):
        randomize_over_mu(Coupling(matrix(0.27), mu, nu), n_paths=1)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2]),
       n_paths=st.integers(40, 400))
def test_mixture_starts_at_mu_and_ends_on_nu_atoms(seed, d, n_paths):
    mu, nu, _ = random_instance(np.random.default_rng(seed), d=d)
    ens = randomize_over_mu(sinkhorn_msb(mu, nu).coupling,
                            grid=np.linspace(0, 1, 11), n_paths=n_paths,
                            seed=seed, store_every=4)
    assert np.array_equal(ens.M[:, 0], mu.atoms[ens.fiber_index])
    on_atom = np.all(ens.terminal[:, None, :] == nu.atoms[None], axis=2)
    assert np.all(on_atom.sum(axis=1) == 1)
    assert np.array_equal(ens.M[:, -1], ens.terminal)
    assert np.all(np.diff(ens.fiber_index) >= 0)
    assert np.array_equal(np.bincount(ens.fiber_index, minlength=mu.n),
                          _reference_strata(mu.weights, n_paths))


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
    logits = (np.log(fiber.measure.weights)[None, :]
              + ((z - fiber.x) @ rel.T - 0.5 * t * sq[None, :]) / (1.0 - t))
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    return w / w.sum(axis=1, keepdims=True)


def _coupling(mu, fibers):
    # the coupling of mu's atoms with the fibers' terminal laws, on the
    # union of their atoms in order of first appearance
    atoms = []
    for fib in fibers:
        atoms += [a for a in fib.measure.atoms.tolist() if a not in atoms]
    matrix = np.zeros((mu.n, len(atoms)))
    for i, fib in enumerate(fibers):
        cols = [atoms.index(a) for a in fib.measure.atoms.tolist()]
        matrix[i, cols] = mu.weights[i] * fib.measure.weights
    return Coupling(matrix, mu, DiscreteMeasure(atoms, matrix.sum(axis=0)))


def _reference_table(coupling):
    # nu's atoms sorted by coordinates, and every row's log-weights on
    # them, -inf where a row puts no mass
    cond = coupling.conditionals()
    order = sorted(range(coupling.nu.n),
                   key=lambda j: tuple(coupling.nu.atoms[j]))
    with np.errstate(divide="ignore"):
        return coupling.nu.atoms[order], np.log(cond[:, order])


def _reference_strata(weights, n_paths):
    # largest-remainder path counts, ties to the first atom
    exact = np.asarray(weights) * n_paths
    counts = np.floor(exact).astype(int)
    for i in np.argsort(counts - exact, kind="stable")[:n_paths - counts.sum()]:
        counts[i] += 1
    return counts


def _reference_chunk(law, fi, grid, rng, method, stored):
    n_paths = fi.size
    gaussian = isinstance(law, FiberModel)
    starts = law.x[None, :] if gaussian else law.mu.atoms
    d = starts.shape[1]
    eye = np.eye(d)
    if gaussian:
        y = law.x + (rng.standard_normal((n_paths, d))
                     @ np.linalg.cholesky(law.delta).T)
        vol_incs = _gaussian_vol_energy_increments(law.delta, grid)
        # d bytes per path-step, coordinate-major within a step
        levels = _reference_levels(rng, grid.size - 1, d * n_paths)
    else:
        atoms, log_w = _reference_table(law)
        c = law.mu.weights @ starts
        # mu's barycenter on the power-of-two grid of the atoms' extent
        grid_step = 2.0 ** math.floor(math.log2(np.abs(atoms - c).max()))
        c = grid_step * np.round(c / grid_step)
        rel = atoms - c
        sq = np.sum(rel ** 2, axis=1)
        prior = log_w - (starts - c) @ rel.T
        cond = law.conditionals()
        u = rng.random(n_paths)
        y = np.empty((n_paths, d))
        for p in range(n_paths):
            # inverse CDF over nu's atoms in their own order
            j = np.searchsorted(np.cumsum(cond[fi[p]]), u[p], side="right")
            y[p] = law.nu.atoms[min(j, law.nu.n - 1)]
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
            u = (x - law.x) @ _gaussian_drift_matrix(law, t_eff).T
            m = x + (1.0 - t_eff) * u
        else:
            # the kernel's scalar formulas: 1/(1 - t) is folded into the
            # atoms and the offset, and the moments, centred at c, take one
            # reciprocal
            inv = 1.0 / (1.0 - t_eff)
            logits = ((x - c) @ (rel * inv).T + sq * (-0.5 * t_eff * inv)
                      + prior[fi])
            logits -= logits.max(axis=1, keepdims=True)
            e = np.exp(logits)
            r = 1.0 / e.sum(axis=1, keepdims=True)
            # the prior mean is the start
            m_rel = (e @ rel) * r if t > 0.0 else x - c
            u = (m_rel - (x - c)) * inv
            m = m_rel + c if t > 0.0 else x.copy()
        if k in stored:
            M.append(m.copy())
            X.append(x.copy())
        if k == grid.size - 1:
            break
        dt = grid[k + 1] - grid[k]
        if t <= TIME_CLIP:
            drift += 0.5 * dt * np.sum(u ** 2, axis=1)
            if not gaussian:
                second = np.einsum("pk,ki,kj->pij", e, rel, rel)
                cov = (second * r[:, :, None]
                       - np.einsum("pi,pj->pij", m_rel, m_rel))
                vol += (0.5 * dt * inv
                        * np.sum((cov * inv - eye) ** 2, axis=(1, 2)))
        if gaussian:
            vol += vol_incs[k]
        if method == "bridge":
            rem = 1.0 - t
            x = x + (y - x) * (dt / rem)
            scale = math.sqrt(dt * (1.0 - grid[k + 1]) / rem)
        else:
            x = x + u * dt
            scale = math.sqrt(dt)
        if gaussian:
            # the byte table scaled to the step, then gathered
            x = x + (scale * filtering._QUANTILES)[levels[k]].reshape(
                d, n_paths).T
        else:
            x = x + scale * rng.standard_normal((n_paths, d))
    return {"M": np.stack(M, axis=1), "X": np.stack(X, axis=1),
            "terminal": y if method == "bridge" else x,
            "drift_energy": drift, "vol_energy": vol}


def _reference_simulate(law, n_paths, grid, seed, method, store_every,
                        chunk):
    # the rows' paths in row order, chunk by chunk on one stream
    weights = [1.0] if isinstance(law, FiberModel) else law.mu.weights
    fi = np.repeat(np.arange(len(weights)),
                   _reference_strata(weights, n_paths))
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))
    stored = list(range(0, grid.size, store_every))
    if stored[-1] != grid.size - 1:
        stored.append(grid.size - 1)
    parts = [_reference_chunk(law, fi[lo:lo + chunk], grid, rng, method,
                              stored)
             for lo in range(0, n_paths, chunk)]
    ref = {name: np.concatenate([p[name] for p in parts])
           for name in parts[0]}
    ref["fiber_index"] = fi
    return ref


def _four_atom_plane_fiber():
    atoms = np.array([[-1.0, 0.3], [0.7, 1.1], [1.3, -0.6], [0.2, -1.4]])
    w = np.array([0.3, 0.2, 0.25, 0.25])
    return FiberModel.discrete(w @ atoms, DiscreteMeasure(atoms, w))


def _study_coupling():
    # three rows on the dyadic atoms -2, 0, 2, as the solver gives them
    mu = DiscreteMeasure([[-1.0], [0.0], [1.0]], [0.40, 0.46, 0.14])
    nu = DiscreteMeasure([[-2.0], [0.0], [2.0]], [0.43, 0.27, 0.30])
    return sinkhorn_msb(mu, nu).coupling


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
    # a single fiber runs through simulate_follmer_martingale, a coupling
    # through randomize_over_mu; the reference reads the same weights
    grid = np.linspace(0.0, 1.0, 201)
    if isinstance(case, FiberModel):
        ens = simulate_follmer_martingale(case, grid=grid, n_paths=500,
                                          seed=13, method=method,
                                          store_every=20)
        if case.kind == "discrete":
            case = _coupling(DiscreteMeasure([case.x], [1.0]), [case])
    else:
        ens = randomize_over_mu(case, grid=grid, n_paths=500, seed=13,
                                method=method, store_every=20)
    ref = _reference_simulate(case, 500, grid, 13, method, 20, chunk)
    return ens, ref


@pytest.mark.parametrize("method", ["bridge", "euler"])
@pytest.mark.parametrize("case", [
    # dyadic atoms make every atom product exact, as in the study instance,
    # so only the order of the sums could differ, and it does not
    FiberModel.discrete([-0.26], DiscreteMeasure([[-2.0], [0.0], [2.0]],
                                                 [0.43, 0.27, 0.30])),
    _study_coupling(),
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
    _coupling(*_plane_fibers()),
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


def _disjoint_coupling():
    # two fibers that share no atom: a table of six atoms, three per row
    rows = [([[-2.0], [0.0], [2.0]], [0.25, 0.5, 0.25]),
            ([[1.0], [3.0], [5.0]], [0.5, 0.25, 0.25])]
    fibers = [FiberModel.discrete(np.asarray(w) @ a, DiscreteMeasure(a, w))
              for a, w in rows]
    return _coupling(DiscreteMeasure([f.x for f in fibers], [0.5, 0.5]),
                     fibers)


@pytest.mark.parametrize("method", ["bridge", "euler"])
@pytest.mark.parametrize("case, chunk, tol", [
    # 500 paths in chunks of 64: chunks that hold one row and chunks that
    # hold two; dyadic atoms, so exact
    (_study_coupling(), 64, 0.0),
    # six atoms, at most three per row: chunks of 64 * 3 // 6 = 32 paths
    # keep the (k, chunk) arrays at one row's size; a chunk drops the atoms
    # that its rows do not charge, so the sums move in the last bits
    (_disjoint_coupling(), 32, 1e-13),
], ids=["shared-atoms", "disjoint-atoms"])
def test_chunks_split_fibers_on_one_stream(monkeypatch, case, chunk, tol,
                                           method):
    monkeypatch.setattr(dynamics, "_CHUNK", 64)
    ens, ref = _kernel_pair(case, method, chunk=chunk)
    for name, value in ref.items():
        scale = max(1.0, float(np.max(np.abs(value))))
        assert np.max(np.abs(getattr(ens, name) - value)) <= tol * scale, name


def test_the_volatility_energy_does_not_move_with_a_translation():
    # the study pair shifted by 1e6: second moments of the raw atoms cancel
    # there (cost_mart moved by 1.3e-5 relative), centred ones keep the
    # digits up to the paths' own rounding at that offset
    grid = np.linspace(0.0, 1.0, 101)
    costs = []
    for shift in (0.0, 1e6):
        mu = DiscreteMeasure(np.array([[-1.0], [0.0], [1.0]]) + shift,
                             [0.40, 0.46, 0.14])
        nu = DiscreteMeasure(np.array([[-2.0], [0.0], [2.0]]) + shift,
                             [0.43, 0.27, 0.30])
        ens = randomize_over_mu(sinkhorn_msb(mu, nu).coupling, grid=grid,
                                n_paths=2000, seed=1)
        costs.append(phi_bijection_check(ens).cost_mart)
    assert abs(costs[1] - costs[0]) <= 1e-9 * abs(costs[0])


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
    mixed = randomize_over_mu(
        _coupling(DiscreteMeasure([fiber.x], [1.0]), [fiber]), grid=grid,
        n_paths=700, seed=3, method=method, store_every=7)
    for name in ("M", "X", "terminal", "drift_energy", "vol_energy",
                 "fiber_index"):
        assert np.array_equal(getattr(mixed, name), getattr(single, name))
    assert mixed.aggregate_energies() == single.aggregate_energies()


@pytest.mark.parametrize("t", [0.0, 0.5, 0.99, 1.0 - 1e-6])
def test_posterior_weights_match_the_per_fiber_form(t):
    mu, fibers = _plane_fibers()
    starts = mu.atoms
    atoms, log_w = _reference_table(_coupling(mu, fibers))
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


def _reference_levels(rng, n_steps, n_paths):
    # the draw rule: ceil(D n / 8) raw words per D steps, read as bytes, the
    # low byte of each word first, step-major and in path order
    levels = []
    for lo in range(0, n_steps, dynamics._DRAW_STEPS):
        steps = min(dynamics._DRAW_STEPS, n_steps - lo)
        words = rng.bit_generator.random_raw(math.ceil(steps * n_paths / 8))
        raw = b"".join(int(w).to_bytes(8, "little") for w in words)
        levels += [list(raw[k * n_paths:(k + 1) * n_paths])
                   for k in range(steps)]
    return np.array(levels)


def test_the_table_kernels_read_the_reference_bytes(monkeypatch):
    # with the identity table q[U] = U every increment gives its byte back:
    # 13 paths fill no whole word, and 6 steps are one draw and part of one
    monkeypatch.setattr(dynamics, "_QUANTILES", np.arange(256.0))
    monkeypatch.setattr(filtering, "_QUANTILES", np.arange(256.0))
    n_paths, n_steps = 13, 6
    # Gaussian kernel: A_t = 0 at Delta = I, so an Euler step adds
    # sqrt(dt) q[U], after the terminal normals; d bytes per path-step,
    # coordinate-major within a step
    grid = np.linspace(0.0, 1.0, n_steps + 1)
    ens = simulate_follmer_martingale(FiberModel.gaussian([0.0, 0.0],
                                                          np.eye(2)),
                                      grid=grid, n_paths=n_paths, seed=7,
                                      method="euler")
    got = np.rint(np.diff(ens.X, axis=1) / math.sqrt(grid[1]))
    rng = dynamics._stream(7)
    rng.standard_normal((n_paths, 2))
    ref = _reference_levels(rng, n_steps, 2 * n_paths)
    assert np.array_equal(got, ref.reshape(n_steps, 2, n_paths)
                          .transpose(2, 0, 1))
    # Wonham Euler block: Z += Z (1 - Z) sqrt_ds q[U] from Z = 1/2
    sqrt_ds = 2.0 ** -12
    snapshots, violations = filtering._euler_block(
        dynamics._stream(7), n_paths, n_steps, sqrt_ds, list(range(n_steps)))
    z = np.array([np.full(n_paths, 0.5)] + snapshots)
    got = np.rint(np.diff(z, axis=0) / (z[:-1] * (1.0 - z[:-1]) * sqrt_ds))
    assert violations == 0
    assert np.array_equal(got, _reference_levels(dynamics._stream(7),
                                                 n_steps, n_paths))


@pytest.mark.parametrize("delta", [
    [[2.0]], [[2.0, 0.3], [0.3, 1.5]],
    [[1.0, 0.2, -0.1], [0.2, 0.6, 0.05], [-0.1, 0.05, 2.5]],
], ids=["d1", "d2", "d3"])
def test_batched_drift_matrices_equal_the_per_time_calls(delta):
    fiber = FiberModel.gaussian(np.zeros(len(delta)), delta)
    times = np.minimum(np.linspace(0.0, 1.0, 1001), TIME_CLIP)
    stack = _gaussian_drift_matrix(fiber, times)
    assert stack.shape == (times.size, fiber.dim, fiber.dim)
    for t, matrix in zip(times.tolist(), stack):
        assert np.array_equal(matrix, _gaussian_drift_matrix(fiber, t))


def _reference_wonham(n_paths, n_steps, s_max, checkpoints, seed):
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))
    yp = np.where(rng.random(n_paths) < 0.5, -0.5, 0.5)
    z_exact = {}
    for c in checkpoints:
        r = c * yp + math.sqrt(c) * rng.standard_normal(n_paths)
        z_exact[c] = 1.0 / (1.0 + np.exp(-r))
    ds = s_max / n_steps
    table = math.sqrt(ds) * filtering._QUANTILES
    levels = _reference_levels(rng, n_steps, n_paths)
    z = np.full(n_paths, 0.5)
    z_euler = {}
    violations = 0
    for step in range(1, n_steps + 1):
        z = z + z * (1.0 - z) * table[levels[step - 1]]
        violations += int(np.count_nonzero((z < 0.0) | (z > 1.0)))
        z = np.clip(z, 0.0, 1.0)
        for c in checkpoints:
            if c not in z_euler and step * ds >= c - 1e-12:
                z_euler[c] = z.copy()
    ks = {c: ks_distance(z_exact[c], z_euler[c]) for c in checkpoints}
    return ks, violations, float(np.mean(z_euler[max(checkpoints)] > 0.5))


def _clamp_can_fire(n_steps, s_max):
    # an increment is at most sqrt(ds) q_max Z (1 - Z), which leaves [0, 1]
    # only if sqrt(ds) q_max > 1, that is n_steps < s_max q_max^2 (~33.5 at
    # s_max = 4)
    return n_steps < s_max * filtering._QUANTILES.max() ** 2


@pytest.mark.parametrize("n_paths, n_steps", [(3000, 800), (3000, 40),
                                               (3000, 30), (50, 10),
                                               (50, 9361)])
def test_wonham_euler_reproduces_the_reference_loop(n_paths, n_steps):
    # 30 and 10 steps push paths out of [0, 1] (clamped and counted), 40
    # steps are just too fine to; at 9361 steps a running sum of ds ends
    # more than 1e-12 short of s_max
    report = wonham_sde_crosscheck(n_paths=n_paths, n_steps=n_steps, seed=8)
    ks, violations, freq = _reference_wonham(n_paths, n_steps, 4.0,
                                             (1.0, 4.0), 8)
    assert report.ks_by_checkpoint == ks
    assert report.clamp_violations == violations
    assert report.terminal_freq_euler == freq
    assert (violations > 0) == _clamp_can_fire(n_steps, 4.0)


def test_wonham_blocks_reproduce_the_per_block_reference_loop():
    # more paths than the 10,000 of the former blocks, which now all read
    # the root stream in one loop; the coarse steps make paths clamp
    n_paths = 23_333
    report = wonham_sde_crosscheck(n_paths=n_paths, n_steps=33, seed=8)
    ks, violations, freq = _reference_wonham(n_paths, 33, 4.0, (1.0, 4.0), 8)
    assert report.ks_by_checkpoint == ks
    assert report.clamp_violations == violations > 0
    assert report.terminal_freq_euler == freq


@pytest.mark.parametrize("seed", [0, 42, 2**63 + 5, 2**64 - 1])
def test_every_stream_has_its_own_spawn_key_and_draws(monkeypatch, seed):
    # the invariance test's three volatilities, then the Wonham root stream,
    # which its Euler paths continue
    made = []

    def spy(seed, key=()):
        made.append(dynamics._stream(seed, key))
        return made[-1]

    monkeypatch.setattr(filtering, "_stream", spy)
    filtering.sigma_invariance_test(bernoulli_fiber(), n_samples=8, seed=seed)
    wonham_sde_crosscheck(n_paths=20, n_steps=2, seed=seed)
    assert all(isinstance(rng.bit_generator, np.random.SFC64) for rng in made)
    seqs = [rng.bit_generator.seed_seq for rng in made]
    assert all(sq.entropy == seed for sq in seqs)
    keys = [sq.spawn_key for sq in seqs]
    assert keys == [(1, 0), (1, 1), (1, 2), ()]
    draws = [dynamics._stream(seed, key).standard_normal(1000)
             for key in keys]
    for a in range(len(draws)):
        for b in range(a):
            assert np.intersect1d(draws[a], draws[b]).size == 0, (a, b)


# --- law checks that can fail


def _study_mixture(n_paths, grid_points):
    mu = DiscreteMeasure([[-1.0], [0.0], [1.0]], [0.40, 0.46, 0.14])
    nu = DiscreteMeasure([[-2.0], [0.0], [2.0]], [0.43, 0.27, 0.30])
    return randomize_over_mu(sinkhorn_msb(mu, nu).coupling,
                             grid=np.linspace(0, 1, grid_points),
                             n_paths=n_paths, seed=42, store_every=50)


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
    moved.terminal = np.full_like(ens.terminal, ens.law.nu.atoms[0])
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


def test_law_checks_read_a_zero_entry_as_an_atom_never_drawn():
    # row -1 charges no mass on atom 2: the kernel never draws it, the
    # binomial test runs over the charged atoms only (no log 0 under
    # -W error), and a terminal moved onto it fails the count
    mu, nu, matrix = two_by_three_family()
    ens = randomize_over_mu(Coupling(matrix(0.25), mu, nu),
                            grid=np.linspace(0, 1, 101), n_paths=2000,
                            seed=5, store_every=10)
    first = ens.fiber_index == 0
    assert not np.any(ens.terminal[first, 0] == 2.0)
    report = law_checks(ens)
    assert report.passing and report.terminal_binom_min_p >= 1e-7
    moved = copy.copy(ens)
    moved.terminal = ens.terminal.copy()
    moved.terminal[0] = 2.0
    report = law_checks(moved)
    assert not report.passing and report.terminal_binom_min_p == 0.0


def test_law_checks_on_a_gaussian_fiber():
    fib = FiberModel.gaussian([0.5, -0.5], [[2.0, 0.3], [0.3, 1.5]])
    ens = simulate_follmer_martingale(fib, grid=np.linspace(0, 1, 101),
                                      n_paths=2000, seed=4, store_every=10)
    report = law_checks(ens)
    assert report.passing and report.terminal_binom_min_p is None
    ens.M[:, 1:-1] += 0.3
    assert not law_checks(ens).passing


@pytest.mark.parametrize("n", [1, 2, 3, 7, 15, 16, 17, 100, 1000, 10_000,
                               99_999, 100_000])
def test_binomial_tails_match_scipy(n):
    # the law checks' exact two-sided tails, against scipy's bdtr/bdtrc,
    # at every count near each tail and across the bulk
    from scipy.special import bdtr, bdtrc
    rng = np.random.default_rng(n)
    for p in (1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.77, 0.99, 1.0 - 1e-6, 1.0):
        spread = math.sqrt(n * p * (1.0 - p))
        counts = np.unique(np.clip(np.concatenate([
            np.arange(21), n - np.arange(21), rng.integers(0, n + 1, 30),
            np.round(n * p + spread * np.linspace(-40.0, 40.0, 81))]),
            0, n).astype(int))
        ref = np.minimum(bdtr(counts, n, p), bdtrc(counts - 1, n, p))
        ours = dynamics._binomial_tails(counts, n, np.full(counts.size, p))
        shown = ref > 1e-300
        assert np.all(np.abs(ours - ref)[shown] <= 1e-9 * ref[shown]), p
        assert np.all(ours[~shown] <= 1e-290), p
