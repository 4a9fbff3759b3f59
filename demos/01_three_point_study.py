"""Three-atom marginals with a two-parameter coupling polygon.

The pair mu = p1*d_{-1} + q1*d_0 + (1-p1-q1)*d_{+1} and
nu = p2*d_{-2} + q2*d_0 + (1-p2-q2)*d_{+2} leaves exactly two free
entries (u, v) in any martingale coupling.  This script walks the
polygon of admissible (u, v), then compares the entropic optimizer (the
martingale Schroedinger bridge of the pair) against the Bass
(quantile-coupled) one and reports the gap between them.  It exits 1 when
either coupling misses the published matrix by more than 5e-5 or a
first-order system residual exceeds its bound.
"""

import sys

import numpy as np

from mbridge import (
    ThreePointInstance,
    bass_minimize,
    entropy_minimize,
    w2_to_standard_gaussian,
)

# published optimizers for p1=0.40, q1=0.46, p2=0.43, q2=0.27, reported to
# five decimals
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
MATRIX_TOLERANCE = 5e-5
RESIDUAL_BOUNDS = {"entropy": 1e-12, "Bass": 1e-10}


def describe_polygon(instance):
    print("polygon of admissible (u, v):")
    for a, b, label in instance.constraints():
        print(f"  {a[0]:+.1f}*u {a[1]:+.1f}*v <= {b:+.4f}   [{label}]")


def main():
    instance = ThreePointInstance(p1=0.40, q1=0.46, p2=0.43, q2=0.27)
    describe_polygon(instance)

    entropy = entropy_minimize(instance)
    bass = bass_minimize(instance)

    failures = []
    for name, sol, published in (("entropy", entropy, M_ENTROPY),
                                 ("Bass", bass, M_BASS)):
        print(f"\n{name} optimizer (rows = mu atoms, cols = nu atoms):")
        with np.printoptions(precision=5, suppress=True):
            print(sol.matrix)
        print(f"  (u, v) = ({sol.u:.10f}, {sol.v:.10f})")
        r1, r2 = sol.system_residual
        print(f"  first-order system residuals ({r1:.2e}, {r2:.2e})")
        dev = float(np.max(np.abs(sol.matrix - published)))
        print(f"  max deviation from the published matrix {dev:.2e}")
        if dev > MATRIX_TOLERANCE:
            failures.append(f"{name} coupling is {dev:.1e} from the "
                            "published matrix")
        if max(abs(r1), abs(r2)) > RESIDUAL_BOUNDS[name]:
            failures.append(f"{name} system residual exceeds "
                            f"{RESIDUAL_BOUNDS[name]:.0e}")

    gap_u = entropy.u - bass.u
    gap_v = entropy.v - bass.v
    print(f"\ngap (u_E - u_B, v_E - v_B) = ({gap_u:.6e}, {gap_v:.6e})")
    print("the two optimizers are close but provably distinct")
    print(f"relative entropy at the optimum {entropy.value:.10f}")

    # distance of nu to the standard Gaussian in the Bass time change
    w2 = w2_to_standard_gaussian(instance.nu)
    print(f"\nW2(nu, N(0,1))^2 = {w2:.10f}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
