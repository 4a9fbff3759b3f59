"""Shared generators for randomized feasible instances.

A feasible pair in convex order is built backwards: draw a strictly positive
coupling matrix, read off the row sums as mu weights and the conditional
barycenters as mu atoms. Every mu atom is then a strict convex combination of
the nu atoms, so the pair is in strict convex order and each atom lies in the
relative interior of conv(supp nu).
"""

import numpy as np
import pytest

from mbridge import DiscreteMeasure


def random_instance(rng, n=None, m=None, d=None, spread=2.0):
    d = d if d is not None else int(rng.integers(1, 3))
    m = m if m is not None else int(rng.integers(d + 1, 7))
    n = n if n is not None else int(rng.integers(2, 7))

    while True:
        atoms_nu = rng.uniform(-spread, spread, size=(m, d))
        # keep nu atoms well separated so merging never kicks in
        if m == 1:
            break
        dists = np.linalg.norm(atoms_nu[:, None] - atoms_nu[None, :], axis=2)
        if np.min(dists[~np.eye(m, dtype=bool)]) > 1e-3:
            break

    matrix = rng.uniform(0.05, 1.0, size=(n, m))
    matrix /= matrix.sum()
    mu_w = matrix.sum(axis=1)
    mu_atoms = (matrix @ atoms_nu) / mu_w[:, None]

    nu = DiscreteMeasure(atoms_nu, matrix.sum(axis=0))
    mu = DiscreteMeasure(mu_atoms, mu_w)
    return mu, nu, matrix


def peacock(n, a, shift=0.0):
    """mu uniform on n points of [-1, 1]; nu puts half of each atom at +-a;
    both translated by ``shift``."""
    x = np.linspace(-1.0, 1.0, n) + shift
    y = np.concatenate([x - a, x + a])
    return (DiscreteMeasure(x[:, None], np.full(n, 1.0 / n)),
            DiscreteMeasure(y[:, None], np.full(2 * n, 0.5 / n)))


def study_instance():
    mu = DiscreteMeasure([[-1.0], [0.0], [1.0]], [0.40, 0.46, 0.14])
    nu = DiscreteMeasure([[-2.0], [0.0], [2.0]], [0.43, 0.27, 0.30])
    return mu, nu


def two_by_three_family():
    """mu = (1/2, 1/2) on (-1, 1), nu = (0.3, 0.4, 0.3) on (-2, 0, 2).

    Martingale couplings with these marginals form a one-parameter family
    m(a) with a in [0.25, 0.3]; returns (mu, nu, m).
    """
    mu = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[-2.0], [0.0], [2.0]], [0.3, 0.4, 0.3])

    def matrix(a):
        return np.array([
            [a, 0.75 - 2.0 * a, a - 0.25],
            [0.3 - a, 2.0 * a - 0.35, 0.55 - a],
        ])

    return mu, nu, matrix


def golden_section(f, lo, hi, tol=1e-12):
    """Minimize a unimodal scalar function by golden-section search."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
