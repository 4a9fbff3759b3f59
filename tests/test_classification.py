"""Property tests: every small pair is solved, or classified as infeasible,
within a bounded number of outer iterations.

Pairs are built backwards from a strictly positive coupling (see
``conftest.random_instance``) and then, for the infeasible classes, either
one row is sent to an extreme nu atom (a coupling exists, but that mu atom
sits on the boundary of conv(supp nu)) or mu is translated (the means
differ, so no martingale coupling exists). On the line the diagnosis of a
failed solve reads the potential functions; its two decisions must match
the convex-order and relative-interior LPs on the same families and more.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mbridge import (DiscreteMeasure, NotInConvexOrder, NotIrreducible,
                     SolverConfig, check_convex_order, sinkhorn_msb)
from mbridge.solver import (_convex_order_1d, _in_relative_interior,
                            _inside_hull_1d)
from conftest import peacock, random_instance

CONFIG = SolverConfig(max_outer_iterations=200)
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)
seeds = st.integers(0, 2**32 - 1)
dims = st.sampled_from([1, 2])


@SETTINGS
@given(seed=seeds, d=dims)
def test_strict_pairs_converge(seed, d):
    mu, nu, _ = random_instance(np.random.default_rng(seed), d=d)
    report = sinkhorn_msb(mu, nu, CONFIG)
    assert report.converged


@SETTINGS
@given(seed=seeds, d=dims)
def test_boundary_pairs_are_not_irreducible(seed, d):
    _, nu, matrix = random_instance(np.random.default_rng(seed), d=d)
    # the atom maximizing the first coordinate is a vertex of conv(supp nu)
    k = int(np.argmax(nu.atoms[:, 0]))
    matrix = matrix.copy()
    matrix[0] = np.where(np.arange(nu.n) == k, matrix[0].sum(), 0.0)
    mu_w = matrix.sum(axis=1)
    mu = DiscreteMeasure((matrix @ nu.atoms) / mu_w[:, None], mu_w)
    nu = DiscreteMeasure(nu.atoms, matrix.sum(axis=0))
    with pytest.raises(NotIrreducible):
        sinkhorn_msb(mu, nu, CONFIG)


@SETTINGS
@given(seed=seeds, d=dims,
       shift=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
def test_mean_shifted_pairs_are_not_in_convex_order(seed, d, shift):
    shift = np.asarray(shift[:d])
    assume(np.linalg.norm(shift) >= 0.05)
    mu, nu, _ = random_instance(np.random.default_rng(seed), d=d)
    moved = DiscreteMeasure(mu.atoms + shift, mu.weights)
    with pytest.raises(NotInConvexOrder):
        sinkhorn_msb(moved, nu, CONFIG)


def _line_pair(family, seed, t):
    """One pair on the line; ``t`` in [0, 1] sets the family's parameter."""
    rng = np.random.default_rng(seed)
    if family == "peacock":
        # reducible: u_mu = u_nu holds exactly at all 20 nu atoms
        return peacock(10, (0.1, 0.05)[seed % 2], t - 0.5)
    mu, nu, matrix = random_instance(rng, d=1)
    if family == "shifted":
        shift = (-1.0) ** seed * 10.0 ** (-6.0 * t)
        return DiscreteMeasure(mu.atoms + shift, mu.weights), nu
    if family == "contracted":
        center = nu.weights @ nu.atoms
        return mu, DiscreteMeasure(center + t * (nu.atoms - center),
                                   nu.weights)
    if family == "boundary":
        # row 0 on an extreme nu atom, then nudged by at most one ulp
        k = int((np.argmin, np.argmax)[seed % 2](nu.atoms[:, 0]))
        matrix = matrix.copy()
        matrix[0] = np.where(np.arange(nu.n) == k, matrix[0].sum(), 0.0)
        mu_w = matrix.sum(axis=1)
        x = (matrix @ nu.atoms) / mu_w[:, None]
        x[0] = np.nextafter(x[0], (-np.inf, x[0], np.inf)[min(int(3 * t), 2)])
        return (DiscreteMeasure(x, mu_w),
                DiscreteMeasure(nu.atoms, matrix.sum(axis=0)))
    return mu, nu


@pytest.mark.parametrize("family", ["strict", "shifted", "contracted",
                                    "boundary", "peacock"])
@SETTINGS
@given(seed=seeds, t=st.floats(0.0, 1.0))
def test_line_diagnosis_agrees_with_the_lps(family, seed, t):
    mu, nu = _line_pair(family, seed, t)
    assert _convex_order_1d(mu, nu) == check_convex_order(mu, nu)[0]
    assert np.array_equal(_inside_hull_1d(mu.atoms, nu),
                          _in_relative_interior(mu.atoms, nu))
