"""Property tests: every small pair is solved, or classified as infeasible,
within a bounded number of outer iterations.

Pairs are built backwards from a strictly positive coupling (see
``conftest.random_instance``) and then, for the infeasible classes, either
one row is sent to an extreme nu atom (a coupling exists, but that mu atom
sits on the boundary of conv(supp nu)) or mu is translated (the means
differ, so no martingale coupling exists).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mbridge import (DiscreteMeasure, NotInConvexOrder, NotIrreducible,
                     SolverConfig, sinkhorn_msb)
from conftest import random_instance

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
