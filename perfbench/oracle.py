"""Independent checks of each operation's output.

The oracle does not trust the CLI's own verdict: it recomputes what it can
from the benchmark's inputs and the reported raw numbers. Each check returns
one of three verdicts:

* ``ok``: the expected exit code and an output that passes every check;
* ``failed``: the program gave no answer where one exists (exit 2, the
  solver or a law check did not converge) and said so consistently;
* ``wrong``: a misclassification, a crash, or an output that contradicts
  itself or the inputs, such as a certificate whose coupling does not
  reproduce the marginals.

``failed`` counts against ``fail_frac``; ``wrong`` makes the run incorrect.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

CERTIFY_TOL = 1e-8
MC_SIGMAS = 4.0


class Wrong(Exception):
    """An output that contradicts its inputs or the expected exit code."""


def _require(cond, message):
    if not cond:
        raise Wrong(message)


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _measure(doc):
    atoms = np.asarray(doc["atoms"], dtype=float)
    return atoms.reshape(len(doc["weights"]), -1), np.asarray(doc["weights"],
                                                              dtype=float)


def _check_certify(op, code, out, work, counts):
    report_path = out / "certify_report.json"
    if code == 3:
        _require(not report_path.exists(), "infeasible run wrote a report")
        return "ok"
    if code == 2 and not report_path.exists():
        return "failed"
    doc = _load(report_path)
    counts["iterations"] = int(doc["iterations"])
    if code == 2:
        _require(not doc["all_pass"], "exit 2 but the report says all_pass")
        return "failed"
    _require(doc["all_pass"] is True and doc["converged"] is True,
             "exit 0 without all_pass")

    stem = op.name.replace(":", "_")
    x, mu_w = _measure(_load(work / f"{stem}_mu.json"))
    y, nu_w = _measure(_load(work / f"{stem}_nu.json"))
    rx, rmu = _measure(doc["mu"])
    ry, rnu = _measure(doc["nu"])
    _require(rx.shape == x.shape and ry.shape == y.shape
             and np.max(np.abs(rx - x)) <= 1e-12
             and np.max(np.abs(ry - y)) <= 1e-12
             and np.max(np.abs(rmu - mu_w)) <= 1e-9
             and np.max(np.abs(rnu - nu_w)) <= 1e-9,
             "reported marginals differ from the inputs")

    pot = doc["potentials"]
    phi = np.asarray(pot["phi"], dtype=float)
    psi = np.asarray(pot["psi"], dtype=float)
    h = np.asarray(pot["h"], dtype=float).reshape(len(phi), -1)
    expo = (phi[:, None] + psi[None, :] + h @ y.T
            - np.sum(h * x, axis=1)[:, None])
    m = mu_w[:, None] * nu_w[None, :] * np.exp(expo)
    rows = float(np.max(np.abs(m.sum(axis=1) - mu_w)))
    cols = float(np.max(np.abs(m.sum(axis=0) - nu_w)))
    drift = m @ y - m.sum(axis=1, keepdims=True) * x
    mart = float(np.max(np.linalg.norm(drift, axis=1) / mu_w))
    _require(max(rows, cols, mart) <= CERTIFY_TOL,
             f"Gibbs coupling residuals rows {rows:.2e} cols {cols:.2e} "
             f"martingale {mart:.2e} exceed {CERTIFY_TOL:.0e}")
    return "ok"


def _check_simulate(op, code, out, work, counts):
    paths, grid = op.data["paths"], op.data["grid_points"]
    counts["path_steps"] = paths * (grid - 1)
    if code == 2:
        return "failed"
    doc = _load(out / "simulate_report.json")
    _require(doc["all_pass"] is True, "simulate report without all_pass")
    _require(doc["n_paths"] == paths, "wrong number of paths")
    _require((out / "ensemble.csv").stat().st_size > 0, "empty ensemble.csv")
    mean = np.asarray(doc["terminal_mean"], dtype=float)
    second = float(doc["terminal_second_moment"])

    if "nu" in op.data:
        y = np.asarray(op.data["nu"][0], dtype=float)
        w = np.asarray(op.data["nu"][1], dtype=float)
        nu_mean = w @ y
        nu_var = w @ (y - nu_mean) ** 2
        sq = np.sum(y ** 2, axis=1)
        nu_second = float(w @ sq)
        second_var = float(w @ (sq - nu_second) ** 2)
    else:
        delta = np.asarray(op.data["delta"], dtype=float)
        nu_mean = np.zeros(delta.shape[0])
        nu_var = np.diag(delta)
        nu_second = float(np.trace(delta))
        second_var = 2.0 * float(np.trace(delta @ delta))
    mean_err = np.abs(mean - nu_mean) / np.sqrt(nu_var / paths)
    second_err = abs(second - nu_second) / math.sqrt(second_var / paths)
    _require(np.all(mean_err <= MC_SIGMAS) and second_err <= MC_SIGMAS,
             f"terminal moments off by {float(np.max(mean_err)):.2f} and "
             f"{second_err:.2f} standard errors")
    return "ok"


def _check_filter(op, code, out, work, counts):
    counts["path_steps"] = op.data["paths"] * op.data["steps"]
    if code == 2:
        return "failed"
    doc = _load(out / "filter_report.json")
    inv, won = doc["sigma_invariance"], doc["wonham"]
    ks = np.asarray(inv["ks_matrix"], dtype=float)
    _require(doc["all_pass"] is True
             and float(ks.max()) < 0.02
             and max(won["ks"].values()) < 0.02
             and abs(won["terminal_freq_exact"] - 0.5) < 0.01
             and abs(won["terminal_freq_euler"] - 0.5) < 0.01,
             "filter law checks fail on the reported numbers")
    lines = (out / "filter_quantiles.csv").read_text().strip().split("\n")
    table = np.array([[float(v) for v in line.split(",")]
                      for line in lines[1:]])
    _require(table.shape == (201, 1 + len(inv["sigmas"])),
             "quantile table has the wrong shape")
    q = table[:, 1:]
    _require(np.all(np.diff(q, axis=0) >= 0.0)
             and q.min() >= -1.0 and q.max() <= 1.0,
             "quantiles are not monotone inside the support")
    # the symmetric default law has barycenter 0 at every volatility
    _require(np.all(np.abs(q.mean(axis=0)) < 0.03),
             "filter means drift from the barycenter")
    return "ok"


def _check_threepoint(op, code, out, work, counts):
    if code == 2:
        return "failed"
    doc = _load(out / "threepoint_report.json")
    p = op.data
    mu_w = np.array([p["p1"], p["q1"], 1.0 - p["p1"] - p["q1"]])
    nu_w = np.array([p["p2"], p["q2"], 1.0 - p["p2"] - p["q2"]])
    x = np.array([-1.0, 0.0, 1.0])
    y = np.array([-2.0, 0.0, 2.0])
    entropies = {}
    for key in ("entropy", "bass"):
        m = np.asarray(doc[key]["matrix"], dtype=float)
        _require(m.shape == (3, 3) and m.min() >= -1e-12,
                 f"{key} coupling is not a nonnegative 3x3 matrix")
        err = max(np.max(np.abs(m.sum(axis=1) - mu_w)),
                  np.max(np.abs(m.sum(axis=0) - nu_w)),
                  np.max(np.abs(m @ y - m.sum(axis=1) * x)))
        _require(err <= 1e-9,
                 f"{key} coupling misses a constraint by {err:.1e}")
        pos = m > 0.0
        prod = np.outer(mu_w, nu_w)
        entropies[key] = float(np.sum(m[pos] * np.log(m[pos] / prod[pos])))
    _require(entropies["entropy"] <= entropies["bass"] + 1e-12,
             "the entropy optimizer has more entropy than the Bass coupling")
    return "ok"


def _check_gaussian(op, code, out, work, counts):
    doc = _load(out / "gaussian_report.json")
    s0 = np.atleast_2d(np.asarray(op.data["sigma0"], dtype=float))
    s1 = np.atleast_2d(np.asarray(op.data["sigma1"], dtype=float))
    delta = s1 - s0
    logdet_d = np.linalg.slogdet(delta)[1]
    entropy = 0.5 * (np.linalg.slogdet(s1)[1] - logdet_d)
    energy = 0.5 * (np.trace(delta) - delta.shape[0] - logdet_d)
    _require(abs(doc["entropy_value"] - entropy) <= 1e-9 * (1 + abs(entropy)),
             "entropy value differs from the closed form")
    _require(abs(doc["energy_closed_form"] - energy) <= 1e-9 * (1 + energy)
             and abs(doc["energy_quadrature"] - energy) <= 1e-8,
             "volatility energy differs from the closed form")
    _require(doc["max_schedule_discrepancy"] <= 1e-8,
             "bridge and flat schedules disagree")
    return "ok"


_CHECKS = {"certify": _check_certify, "simulate": _check_simulate,
           "filter": _check_filter, "threepoint": _check_threepoint,
           "gaussian": _check_gaussian}


def judge(op, code, out, work):
    """Return (verdict, message, exact counts) for one finished operation."""
    out, work = Path(out), Path(work)
    counts = {"exit": code,
              "bytes_written": sum(p.stat().st_size for p in out.iterdir())
              if out.is_dir() else 0}
    try:
        # exit 2 means "no answer" and only fits a request that has one
        _require(code == op.expected_exit or (code == 2
                                              and op.expected_exit == 0),
                 f"exit {code}, expected {op.expected_exit}")
        verdict = _CHECKS[op.check](op, code, out, work, counts)
        return verdict, "", counts
    except Wrong as exc:
        return "wrong", str(exc), counts
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return "wrong", f"unreadable output: {exc!r}", counts
