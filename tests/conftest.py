"""Shared generators for randomized feasible instances, and the helpers
that several test modules use.

A feasible pair in convex order is built backwards: draw a strictly positive
coupling matrix, read off the row sums as mu weights and the conditional
barycenters as mu atoms. Every mu atom is then a strict convex combination of
the nu atoms, so the pair is in strict convex order and each atom lies in the
relative interior of conv(supp nu).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mbridge import DiscreteMeasure, NotInConvexOrder, sinkhorn_msb
import mbridge.solver as solver


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


def planted_instance(rng, d=3, spread=3.0):
    """A pair whose MSB is known: nu's atoms y_j, base weights g_j, fields
    h_i and mu's weights give cond_ij propto g_j exp(<h_i, y_j>), mu's atoms
    x_i = sum_j cond_ij y_j and nu_j = sum_i mu_i cond_ij. Returns
    (mu, nu, matrix)."""
    n = int(rng.integers(2, 30))
    m = int(rng.integers(d + 2, 40))
    y = rng.standard_normal((m, d))
    g = rng.uniform(0.2, 1.0, m)
    h = spread * rng.standard_normal((n, d))
    mu_w = rng.dirichlet(np.ones(n))
    logits = np.log(g) + h @ y.T
    cond = np.exp(logits - logits.max(axis=1, keepdims=True))
    cond /= cond.sum(axis=1, keepdims=True)
    return (DiscreteMeasure(cond @ y, mu_w), DiscreteMeasure(y, mu_w @ cond),
            mu_w[:, None] * cond)


def peacock(n, a, shift=0.0):
    """mu uniform on n points of [-1, 1]; nu puts half of each atom at +-a;
    both translated by ``shift``."""
    x = np.linspace(-1.0, 1.0, n) + shift
    y = np.concatenate([x - a, x + a])
    return (DiscreteMeasure(x[:, None], np.full(n, 1.0 / n)),
            DiscreteMeasure(y[:, None], np.full(2 * n, 0.5 / n)))


def chained_blocks(rng, blocks=4, point=0.0):
    """Peacock blocks chained on the line: block k puts nu on 2k - 1, a few
    inner points and 2k + 1, so neighbours share an atom, and its 2 to 4 mu
    atoms are barycenters of a strictly positive coupling with that nu.
    Each block is an irreducible component. ``point`` > 0 also puts a mu
    atom of that weight on the atom block 0 shares with block 1, where it
    stays. Returns (mu, nu, matrix, parts): ``matrix`` is the generating
    martingale coupling and ``parts`` the (rows, columns) of each block."""
    mass = rng.dirichlet(np.full(blocks, 3.0)) * (1.0 - point)
    ends = 2.0 * np.arange(blocks + 1) - 1.0
    parts, xs, cells = [], [], []
    for k in range(blocks):
        inner = np.sort(rng.uniform(-0.8, 0.8, int(rng.integers(1, 4))))
        atoms = np.concatenate([[ends[k]], 2.0 * k + inner, [ends[k + 1]]])
        cell = rng.uniform(0.05, 1.0, (int(rng.integers(2, 5)), len(atoms)))
        cell *= mass[k] / cell.sum()
        xs.extend(cell @ atoms / cell.sum(axis=1))
        cells.append((atoms, cell))
    y = np.unique(np.concatenate([atoms for atoms, _ in cells]))
    if point:
        xs.append(ends[1])
        cells.append((ends[1:2], np.array([[point]])))
    matrix = np.zeros((len(xs), len(y)))
    row = 0
    for atoms, cell in cells:
        rows = np.arange(row, row + len(cell))
        cols = np.searchsorted(y, atoms)
        matrix[rows[:, None], cols[None, :]] = cell
        parts.append((rows, cols))
        row += len(cell)
    return (DiscreteMeasure(np.array(xs)[:, None], matrix.sum(axis=1)),
            DiscreteMeasure(y[:, None], matrix.sum(axis=0)), matrix, parts)


def lifted(measure):
    """The measure with a zero coordinate appended to every atom, (x, 0).

    Couplings, marginal constraints and the pairing <x, y> are those of the
    original measure, so ``mcov_discrete`` of lifted measures solves the
    transport LP of the original pair even on the line.
    """
    atoms = np.column_stack([measure.atoms, np.zeros(measure.n)])
    return DiscreteMeasure(atoms, measure.weights)


def line_in_the_plane(measure, center=(1.0, -0.5), direction=(0.6, 0.8)):
    """A measure on the line placed on center + t direction in the plane."""
    return DiscreteMeasure(np.asarray(center)
                           + measure.atoms[:, :1] * np.asarray(direction),
                           measure.weights)


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


def fresh_python(code):
    """Run ``code`` in a new interpreter that imports this checkout's
    mbridge; return its stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return done.stdout.strip()


class _FirstFiberSolve(Exception):
    pass


def refusal_before_the_solve(mu, nu, config=None):
    """The NotInConvexOrder message ``sinkhorn_msb(mu, nu, config)`` raises
    before its first fiber solve, or None when it reaches one or the psi
    Newton that runs them (which is then stopped, before it allocates)."""
    def stop(*args, **kwargs):
        raise _FirstFiberSolve

    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "_fiber_newton", stop)
        m.setattr(solver, "_psi_newton", stop)
        try:
            sinkhorn_msb(mu, nu, config)
        except NotInConvexOrder as exc:
            return str(exc)
        except _FirstFiberSolve:
            return None
    raise AssertionError("sinkhorn_msb returned without a fiber solve")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
