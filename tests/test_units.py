"""One unit system: certify gives the same answer for (A mu + b, A nu + b).

The entropic martingale problem H(m | mu x nu) over martingale couplings is
unchanged when one affine map x -> A x + b moves both marginals, so the
exit code of ``certify``, each of its check verdicts and the primal value
must not depend on (A, b). The solver reads every tolerance in nu's
whitened frame (``measures._frame``), which the map leaves unchanged.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mbridge import DiscreteMeasure, save_measure
from mbridge.cli import main
from conftest import random_instance

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


def _recipe(rng, kind):
    """A feasible pair, or one of the two infeasible kinds of the benchmark:
    ``mean-shift`` moves every nu atom by 0.25 (no martingale coupling),
    ``boundary`` sends mu's first row to the nu atom of least first
    coordinate (that mu atom is a vertex of conv(supp nu))."""
    mu, nu, matrix = random_instance(rng)
    if kind == "mean-shift":
        return mu, DiscreteMeasure(nu.atoms + 0.25, nu.weights)
    if kind == "boundary":
        matrix = matrix.copy()
        k = int(np.argmin(nu.atoms[:, 0]))
        matrix[0] = np.where(np.arange(nu.n) == k, matrix[0].sum(), 0.0)
        mu_w = matrix.sum(axis=1)
        mu = DiscreteMeasure((matrix @ nu.atoms) / mu_w[:, None], mu_w)
        nu = DiscreteMeasure(nu.atoms, matrix.sum(axis=0))
    return mu, nu


def _affine_map(rng, d, scale):
    """A = scale G with G Gaussian of condition number at most 1e3, and a
    translation b with |b_k| <= 1e3 scale."""
    while True:
        g = rng.normal(size=(d, d))
        if np.linalg.cond(g) <= 1e3:
            return scale * g, rng.uniform(-1e3, 1e3, size=d) * scale


def _certify(tmp, mu, nu, *flags):
    """certify's exit code, and its checks and primal value if it wrote a
    report."""
    paths = [str(tmp / name) for name in ("mu.json", "nu.json")]
    for measure, path in zip((mu, nu), paths):
        save_measure(measure, path)
    out = tmp / "run"
    report = out / "certify_report.json"
    if report.exists():
        report.unlink()
    code = main(["certify", "--mu", paths[0], "--nu", paths[1],
                 "--out", str(out), *flags])
    if not report.exists():
        return code, None, None
    doc = json.loads(report.read_text())
    return code, doc["checks"], doc["primal_value"]


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["feasible", "mean-shift", "boundary"]),
       log_scale=st.floats(-6.0, 3.0))
def test_certify_does_not_depend_on_an_affine_map_of_both_marginals(
        tmp_path_factory, seed, kind, log_scale):
    rng = np.random.default_rng(seed)
    mu, nu = _recipe(rng, kind)
    a, b = _affine_map(rng, mu.dim, 10.0 ** log_scale)
    moved = [DiscreteMeasure(p.atoms @ a.T + b, p.weights) for p in (mu, nu)]
    tmp = tmp_path_factory.mktemp("units")
    code, checks, primal = _certify(tmp, mu, nu)
    moved_code, moved_checks, moved_primal = _certify(tmp, *moved)
    assert moved_code == code
    assert moved_checks == checks
    if kind != "feasible":
        assert code == 3
    if primal is not None:
        assert abs(moved_primal - primal) <= 1e-9 * abs(primal)


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6])
def test_a_mean_shift_of_a_millionth_is_infeasible_at_every_scale(tmp_path,
                                                                  scale):
    # the means differ by 1e-6 of nu's spread; before nu's frame, the micro
    # pair stopped on the absolute |h| bound and exited 2. The mean test
    # reads the gap in nu's frame, so it refuses the pair before the solve
    # at every scale
    mu = DiscreteMeasure(np.array([[-1.0], [1.0]]) * scale, [0.5, 0.5])
    nu = DiscreteMeasure((np.array([[-2.0], [0.0], [2.0]]) + 1e-6) * scale,
                         [0.3, 0.4, 0.3])
    assert _certify(tmp_path, mu, nu)[0] == 3


def test_draw_299_certifies(tmp_path):
    # its marginal defect sits just under the stopping tolerance, and the
    # identity weighted it by |y_j|^2 / 2 in input units: 1.088e-10 there,
    # 7.7e-11 in nu's frame
    rng = np.random.default_rng(1)
    for _ in range(300):
        mu, nu, _ = random_instance(rng)
    code, checks, _ = _certify(tmp_path, mu, nu)
    assert code == 0 and all(checks.values())


@pytest.mark.parametrize("draw, shift", [(5, 1e6), (9, 1e6), (13, 1e6),
                                         (24, 1e5)])
def test_translated_draws_certify_the_classical_system(tmp_path, draw, shift):
    # the classical Schroedinger chain pairs x_bar with y - ybar, so its
    # exponents, and the rounding floor of its residuals, do not grow with
    # the shift
    rng = np.random.default_rng(5)
    for _ in range(draw + 1):
        mu, nu, _ = random_instance(rng)
    moved = [DiscreteMeasure(p.atoms + shift, p.weights) for p in (mu, nu)]
    code, checks, _ = _certify(tmp_path, *moved)
    assert code == 0 and all(checks.values())
