"""Path ensembles for the bridge dynamics dM = u dt + sigma dB.

Two regimes share one simulator.  For a Gaussian fiber the volatility
schedule is deterministic and the pathwise energies have closed forms,
so martingale-side and drift-side cost estimates must agree.  For a
discrete fiber the paths are generated from the exact bridge law and
the terminal values land on the fiber atoms; the drift-side energy is
finite on any horizon bounded away from 1 while the volatility-side one
log-diverges, which is the expected signature of an atomic terminal
law.
"""

import numpy as np

from mbridge import (
    Coupling,
    DiscreteMeasure,
    FiberModel,
    phi_bijection_check,
    randomize_over_mu,
    simulate_follmer_martingale,
)


def gaussian_fiber_run():
    print("== Gaussian fiber, increment variance 2 ==")
    fiber = FiberModel.gaussian([0.0], [[2.0]])
    ens = simulate_follmer_martingale(fiber, n_paths=20000, seed=1,
                                      store_every=100)
    print(f"paths {ens.n_paths}, grid {ens.grid.size} points, "
          f"method {ens.method}")
    print(f"terminal mean {ens.M[:, -1].mean():+.5f}  "
          f"variance {ens.M[:, -1].var():.5f} (target 2)")

    report = phi_bijection_check(ens)
    print(f"drift-side cost      {report.cost_drift:.9f}")
    print(f"volatility-side cost {report.cost_mart:.9f}")
    closed = 0.5 * (1.0 - np.log(2.0))
    print(f"closed form          {closed:.9f}")
    print(f"relative discrepancy {report.rel_discrepancy:.2e}")


def discrete_fiber_run():
    print("\n== discrete fiber: bridge from 0 to 0.3/0.4/0.3 on -2/0/2 ==")
    meas = DiscreteMeasure([[-2.0], [0.0], [2.0]], [0.3, 0.4, 0.3])
    fiber = FiberModel.discrete([0.0], meas)
    ens = simulate_follmer_martingale(fiber, n_paths=20000, seed=2,
                                      store_every=100)
    terminal = ens.M[:, -1]
    for atom, weight in zip(meas.atoms.ravel(), meas.weights):
        freq = float(np.mean(terminal == atom))
        print(f"  terminal atom {atom:+.0f}: frequency {freq:.4f} "
              f"(weight {weight})")
    print(f"drift energy mean {ens.drift_energy.mean():.4f} "
          f"(clipped near t=1; diverges as the clip tightens)")

    # refining the grid towards t=1 shows the volatility-side divergence
    for refine in (1, 4, 16):
        grid = np.linspace(0.0, 1.0, 250 * refine + 1)
        e = simulate_follmer_martingale(fiber, grid=grid, n_paths=2000,
                                        seed=3, store_every=250 * refine)
        print(f"  grid x{refine:<3d} vol-side energy "
              f"{e.vol_energy.mean():8.4f}")


def mixture_run():
    print("\n== mu-randomized start ==")
    # a martingale coupling of mu and nu: row i is mu_i times the terminal
    # law of the paths started at mu's atom i, as sinkhorn_msb returns it
    mu = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[-2.0], [0.0], [2.0]], [0.3, 0.4, 0.3])
    coupling = Coupling(0.5 * np.array([[0.55, 0.40, 0.05],
                                        [0.05, 0.40, 0.55]]), mu, nu)
    ens = randomize_over_mu(coupling, n_paths=20000, seed=4, store_every=100)
    start = ens.M[:, 0]
    print(f"start frequencies at -1/+1: "
          f"{np.mean(np.isclose(start, -1.0)):.4f} / "
          f"{np.mean(np.isclose(start, 1.0)):.4f}")
    terminal = ens.M[:, -1]
    pooled = [float(np.mean(terminal == a)) for a in (-2.0, 0.0, 2.0)]
    print(f"pooled terminal frequencies {pooled} (target 0.3/0.4/0.3)")
    drift, vol = ens.aggregate_energies()
    print(f"mu-weighted energies: drift {drift:.4f}, vol {vol:.4f}")


def main():
    gaussian_fiber_run()
    discrete_fiber_run()
    mixture_run()


if __name__ == "__main__":
    main()
