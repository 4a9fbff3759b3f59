"""Property tests: every small pair is solved, or classified as infeasible,
within a bounded number of outer iterations.

Pairs are built backwards from a strictly positive coupling (see
``conftest.random_instance``) and then, for the infeasible classes, either
one row is sent to an extreme nu atom (a coupling exists, but that mu atom
sits on the boundary of conv(supp nu)) or mu is translated (the means
differ, so no martingale coupling exists). When nu spans a line the solve
decides convex order before its first fiber solve from the potential
functions, and the diagnosis of a failed solve asks only the interior
question in closed form; both decisions must match the convex-order and
relative-interior LPs on the same families and more, on the line and on a
line of the plane.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mbridge import (DiscreteMeasure, NotInConvexOrder, NotIrreducible,
                     SolverConfig, check_convex_order, sinkhorn_msb)
import mbridge.solver as solver
from mbridge.measures import _frame
from mbridge.solver import _in_relative_interior, _inside_hull_1d
from conftest import (line_in_the_plane, peacock, random_instance,
                      refusal_before_the_solve)

CONFIG = SolverConfig()
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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=seeds, d=dims, log_shift=st.floats(-6.0, 0.0),
       log_scale=st.floats(-6.0, 3.0))
def test_unequal_means_are_refused_before_any_fiber_solve(seed, d, log_shift,
                                                          log_scale):
    # mu moves by 10^log_shift of nu's largest spread, then both marginals
    # are scaled; the stop rule could leave no such mean gap, so the solve
    # refuses the pair without one fiber solve
    rng = np.random.default_rng(seed)
    mu, nu, _ = random_instance(rng, d=d)
    direction = rng.normal(size=d)
    spread = np.linalg.norm(_frame(nu)[2][:, :1])
    shift = 10.0 ** log_shift * spread * direction / np.linalg.norm(direction)
    scale = 10.0 ** log_scale
    mu = DiscreteMeasure((mu.atoms + shift) * scale, mu.weights)
    nu = DiscreteMeasure(nu.atoms * scale, nu.weights)
    assert refusal_before_the_solve(mu, nu) is not None


@SETTINGS
@given(seed=seeds, t=st.floats(0.0, 1.0), plane=st.booleans())
def test_contracted_line_pairs_out_of_order_are_refused_before_any_fiber_solve(
        seed, t, plane):
    # equal means, so the mean test passes them; the potential functions
    # on nu's line prove that no martingale coupling exists
    mu, nu = _line_pair("contracted", seed, t)
    if plane:
        mu, nu = line_in_the_plane(mu), line_in_the_plane(nu)
    if not check_convex_order(mu, nu)[0]:
        assert refusal_before_the_solve(mu, nu) is not None


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
    for mu, nu in ((mu, nu), (line_in_the_plane(mu), line_in_the_plane(nu))):
        # the solve's refusals before its first fiber solve decide convex
        # order: the off-hull test, the mean test and the order scan
        assert ((refusal_before_the_solve(mu, nu) is None)
                == check_convex_order(mu, nu)[0])
        geom = solver._FiberGeometry(nu)
        try:
            x = geom.reduce_points(mu.atoms)[:, 0]
        except NotIrreducible:
            # t = 0 contracts nu to one atom, and mu lies off it
            continue
        # the interior test, read in nu's frame coordinate
        assert np.array_equal(_inside_hull_1d(x, geom.y_red[:, 0]),
                              _in_relative_interior(mu.atoms, nu))
