"""End-to-end command tests: exit codes, artifacts, reproducibility."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mbridge import DegenerateFiber, DiscreteMeasure, check_convex_order, \
    cli, dynamics, errors, filtering, measure_to_json
from mbridge.cli import build_parser, main
from conftest import peacock, random_instance, study_instance


def write_measure(path, atoms, weights):
    doc = measure_to_json(DiscreteMeasure(atoms, weights))
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def study_files(tmp_path):
    mu = write_measure(tmp_path / "mu.json",
                       [[-1.0], [0.0], [1.0]], [0.40, 0.46, 0.14])
    nu = write_measure(tmp_path / "nu.json",
                       [[-2.0], [0.0], [2.0]], [0.43, 0.27, 0.30])
    return mu, nu


def test_solve_writes_artifacts_and_exits_zero(tmp_path, study_files, capsys):
    mu, nu = study_files
    out = tmp_path / "run"
    code = main(["solve", "--mu", mu, "--nu", nu, "--out", str(out)])
    assert code == 0
    report = json.loads((out / "solve_report.json").read_text())
    assert report["schema"] == "mbridge/1"
    assert report["converged"] is True
    assert report["duality_gap"] < 1e-8
    assert report["identity_residual"] < 1e-10
    man = report["manifest"]
    assert man["command"] == "solve"
    assert man["inputs"] == {"mu": mu, "nu": nu}
    assert "wall" not in json.dumps(man)
    csv_lines = (out / "coupling.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "nu_0,nu_1,nu_2"
    assert len(csv_lines) == 4
    matrix = np.array([[float(v) for v in line.split(",")]
                       for line in csv_lines[1:]])
    assert abs(matrix.sum() - 1.0) < 1e-12
    err = capsys.readouterr().err
    assert "wall-clock" in err


@pytest.mark.parametrize("command", ["solve", "certify"])
def test_solve_work_goes_to_stderr_only(tmp_path, study_files, capsys,
                                        command):
    mu, nu = study_files
    out = tmp_path / "run"
    assert main([command, "--mu", mu, "--nu", nu, "--out", str(out)]) == 0
    lines = [line for line in capsys.readouterr().err.split("\n")
             if "outer iterations" in line]
    assert len(lines) == 1
    found = re.fullmatch(rf"\[{command}\] (\d+) outer iterations, (\d+) "
                         r"inner Newton steps, (\d+) backtracks", lines[0])
    report = json.loads((out / f"{command}_report.json").read_text())
    assert int(found[1]) == report["iterations"]
    assert int(found[2]) > 0
    assert "inner" not in json.dumps(report)
    assert "backtrack" not in json.dumps(report)


def test_identical_runs_produce_byte_identical_artifacts(tmp_path, study_files):
    mu, nu = study_files
    pair = ["--mu", mu, "--nu", nu]
    runs = {
        "solve": (["solve", *pair], ("solve_report.json", "coupling.csv")),
        # the study mixture: every fiber's paths on the one random stream
        "simulate": (["simulate", *pair, "--paths", "300", "--grid-points",
                      "41", "--store-every", "10"],
                     ("simulate_report.json", "ensemble.csv")),
        "simulate-delta": (["simulate", "--delta", "2.0", "--paths", "3000",
                            "--grid-points", "401", "--store-every", "100",
                            "--csv-paths", "20"],
                           ("simulate_report.json", "ensemble.csv")),
        # two Euler blocks: the root stream's and block 1's
        "filter": (["filter", "--paths", "12000", "--steps", "100"],
                   ("filter_report.json", "filter_quantiles.csv")),
    }
    for cmd, (argv, names) in runs.items():
        out1, out2 = tmp_path / f"{cmd}-a", tmp_path / f"{cmd}-b"
        for out in (out1, out2):
            assert main([*argv, "--out", str(out)]) == 0
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_certify_value_chain_passes(tmp_path, study_files):
    mu, nu = study_files
    out = tmp_path / "run"
    code = main(["certify", "--mu", mu, "--nu", nu, "--out", str(out)])
    assert code == 0
    report = json.loads((out / "certify_report.json").read_text())
    assert report["all_pass"] is True
    assert all(report["checks"].values())
    assert report["variational_gap"] < 1e-7
    assert max(report["schroedinger_residuals"]) < 1e-10


def test_infeasible_instance_exits_three(tmp_path, capsys):
    mu = write_measure(tmp_path / "mu.json", [[-1.0], [1.0]], [0.5, 0.5])
    nu = write_measure(tmp_path / "nu.json", [[0.0]], [1.0])
    code = main(["solve", "--mu", mu, "--nu", nu,
                 "--out", str(tmp_path / "run")])
    assert code == 3
    assert "infeasible" in capsys.readouterr().err


def test_degenerate_fiber_exits_two(tmp_path, study_files, monkeypatch,
                                    capsys):
    # the pair is feasible, so the diagnosis lets the solver failure stand
    def degenerate(*args, **kwargs):
        raise DegenerateFiber("fiber 0: conditional covariance is singular")
    monkeypatch.setattr("mbridge.solver._fiber_newton", degenerate)
    mu, nu = study_files
    code = main(["solve", "--mu", mu, "--nu", nu,
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert "fiber 0" in capsys.readouterr().err


# the exit code of every error class: 3 infeasible (proved), 2 no answer
# found where one may exist, 1 malformed input or misuse
EXIT_CODES = {
    errors.MbridgeError: 1, errors.StructuralError: 1,
    errors.TerminalAmbiguity: 1, errors.Infeasible: 3,
    errors.NotInConvexOrder: 3, errors.NotIrreducible: 3,
    errors.InfeasibleParameters: 3, errors.NotConverged: 2,
    errors.DualDivergence: 2, errors.DegenerateFiber: 2,
}


def test_every_error_class_exits_with_its_code(tmp_path, monkeypatch, capsys):
    declared = {obj for obj in vars(errors).values() if isinstance(obj, type)
                and issubclass(obj, errors.MbridgeError)}
    assert declared == set(EXIT_CODES)
    prefix = {1: "error", 2: "not converged", 3: "infeasible"}
    for cls, expected in EXIT_CODES.items():
        def fail(*args, cls=cls):
            raise cls("planted")
        monkeypatch.setattr("mbridge.cli.ThreePointInstance", fail)
        code = main(["threepoint", "--p1", "0.40", "--q1", "0.46",
                     "--p2", "0.43", "--q2", "0.27",
                     "--out", str(tmp_path / "run")])
        assert code == expected, cls.__name__
        assert capsys.readouterr().err.startswith(
            f"{prefix[expected]}: planted\n")


def test_feasible_pairs_at_micro_scale_never_exit_three(tmp_path):
    # scaled by 1e-6, these pairs stay in convex order with every atom
    # interior; the |h| bound is read in nu's frame, so the inner duals stay
    # as small as at unit scale and the pairs certify
    rng = np.random.default_rng(5)
    for _ in range(3):
        mu, nu, _ = random_instance(rng)
        mu, nu = (DiscreteMeasure(m.atoms * 1e-6, m.weights) for m in (mu, nu))
        assert check_convex_order(mu, nu)[0]
        code = main(["certify",
                     "--mu", write_measure(tmp_path / "mu.json", mu.atoms,
                                           mu.weights),
                     "--nu", write_measure(tmp_path / "nu.json", nu.atoms,
                                           nu.weights),
                     "--out", str(tmp_path / "run")])
        assert code == 0


@pytest.mark.parametrize("tol", ["1e-6", "1e-8"])
def test_a_converged_solve_meets_its_own_tolerance(tmp_path, tol):
    # draw 2 (n = m = 6, d = 2) stops with a column defect above 1e-10 but
    # below either tolerance: a correct answer at the requested tolerance
    rng = np.random.default_rng(1)
    for _ in range(3):
        mu, nu, _ = random_instance(rng)
    out = tmp_path / "run"
    code = main(["solve", "--tol", tol,
                 "--mu", write_measure(tmp_path / "mu.json", mu.atoms,
                                       mu.weights),
                 "--nu", write_measure(tmp_path / "nu.json", nu.atoms,
                                       nu.weights),
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "solve_report.json").read_text())
    assert report["converged"] and report["marginal_residual"] < float(tol)


@pytest.mark.parametrize("draw", [6, 61])
def test_the_gap_bound_follows_the_tolerance(tmp_path, draw):
    # at --tol 1e-6 the stop rule accepts these draws after 3 outer
    # iterations with a marginal defect near 1e-6 and a relative duality gap
    # near 1e-8; a gap bound fixed at 1e-8 (1 + |P|) refused them
    rng = np.random.default_rng(1)
    for _ in range(draw + 1):
        mu, nu, _ = random_instance(rng)
    out = tmp_path / "run"
    code = main(["solve", "--tol", "1e-6",
                 "--mu", write_measure(tmp_path / "mu.json", mu.atoms,
                                       mu.weights),
                 "--nu", write_measure(tmp_path / "nu.json", nu.atoms,
                                       nu.weights),
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "solve_report.json").read_text())
    assert report["duality_gap"] <= 1e-6 * (1.0 + abs(report["primal_value"]))


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_a_non_finite_tolerance_exits_one(tmp_path, study_files, tol,
                                           capsys):
    # an infinite tolerance once reported convergence after one iteration
    # with a marginal defect of 0.047, and NaN ran on to exit 2
    mu, nu = study_files
    out = tmp_path / "run"
    assert main(["solve", "--tol", tol, "--mu", mu, "--nu", nu,
                 "--out", str(out)]) == 1
    err_lines = [line for line in capsys.readouterr().err.split("\n")
                 if line and "wall-clock" not in line]
    assert len(err_lines) == 1 and "must be finite" in err_lines[0]
    assert not out.exists()


# two mu atoms and four nu atoms within 1e-9 of each other near
# (9967.3, -8289.8): the means differ by about 1e-5 of nu's smaller spread,
# and LAPACK once found a fiber covariance singular that had passed the
# eigenvalue check, so certify died with a numpy traceback
NEAR_POINT_MU = {"dimension": 2,
                 "atoms": [[9967.31668451971, -8289.752380107086],
                           [9967.31668451047, -8289.752380128999]],
                 "weights": [0.5175048092240955, 0.4824951907759046]}
NEAR_POINT_NU = {"dimension": 2,
                 "atoms": [[9967.316683987434, -8289.75238068453],
                           [9967.31668506108, -8289.752379784903],
                           [9967.316684847245, -8289.75237984074],
                           [9967.316684256453, -8289.75238000703]],
                 "weights": [0.302526079016205, 0.3260361427238975,
                             0.1317657118465027, 0.23967206641339484]}


def test_a_near_point_pair_exits_with_a_verdict(tmp_path):
    paths = []
    for name, doc in (("mu", NEAR_POINT_MU), ("nu", NEAR_POINT_NU)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    # the means differ by far more than the stop rule could leave, so the
    # solver refuses the pair before the first fiber solve
    code = main(["certify", "--mu", str(paths[0]), "--nu", str(paths[1]),
                 "--out", str(tmp_path / "run")])
    assert code == 3


def test_malformed_json_exits_one_with_single_diagnostic(tmp_path, capsys):
    bad = tmp_path / "mu.json"
    bad.write_text("{not json", encoding="utf-8")
    nu = write_measure(tmp_path / "nu.json", [[0.0]], [1.0])
    code = main(["solve", "--mu", str(bad), "--nu", nu,
                 "--out", str(tmp_path / "run")])
    assert code == 1
    err_lines = [line for line in capsys.readouterr().err.split("\n")
                 if line and "wall-clock" not in line]
    assert len(err_lines) == 1
    assert "mu.json" in err_lines[0]


NOT_NUMERIC_FLAGS = {
    "sigma0-object": ["gaussian", "--sigma0", '{"a":1}', "--sigma1", "2"],
    "mean0-letters": ["gaussian", "--sigma0", "1", "--sigma1", "2",
                      "--mean0", "a,b"],
    "sigmas-letter": ["filter", "--sigmas", "0.5,x"],
    "delta-string": ["simulate", "--delta", '[[1,"a"]]'],
}
NOT_NUMERIC_FILES = {
    "atoms-string": {"dimension": 1, "atoms": [[0.0], ["a"]],
                     "weights": [0.5, 0.5]},
    "dimension-string": {"dimension": "x", "atoms": [[0.0], [1.0]],
                         "weights": [0.5, 0.5]},
    "weights-string": {"dimension": 1, "atoms": [[0.0], [1.0]],
                       "weights": [0.5, "b"]},
}


@pytest.mark.parametrize("case", [*NOT_NUMERIC_FLAGS, *NOT_NUMERIC_FILES])
def test_non_numeric_input_exits_one_with_single_diagnostic(tmp_path, case,
                                                            capsys):
    if case in NOT_NUMERIC_FLAGS:
        argv = NOT_NUMERIC_FLAGS[case]
    else:
        bad = tmp_path / "mu.json"
        bad.write_text(json.dumps(NOT_NUMERIC_FILES[case]), encoding="utf-8")
        nu = write_measure(tmp_path / "nu.json", [[-1.0], [1.0]], [0.5, 0.5])
        argv = ["solve", "--mu", str(bad), "--nu", nu]
    code = main([*argv, "--out", str(tmp_path / "run")])
    assert code == 1
    err_lines = [line for line in capsys.readouterr().err.split("\n")
                 if line and "wall-clock" not in line]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error:")


def test_certify_runs_no_linear_program(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("certify called linprog")
    monkeypatch.setattr("mbridge.measures.linprog", refuse)
    monkeypatch.setattr("mbridge.solver.linprog", refuse)
    mu, nu, _ = random_instance(np.random.default_rng(7), n=6, m=8, d=2)
    paths = [write_measure(tmp_path / f"{name}.json", m.atoms, m.weights)
             for name, m in (("mu", mu), ("nu", nu))]
    out = tmp_path / "run"
    code = main(["certify", "--mu", paths[0], "--nu", paths[1],
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "certify_report.json").read_text())
    assert report["all_pass"] is True and report["converged"] is True
    assert len(report["base_measure"]["atoms"][0]) == 2


def test_certify_evaluates_the_reference_identity_once(tmp_path,
                                                      monkeypatch,
                                                      study_files):
    calls = []
    check = cli.gaussian_reference_identity_check

    def counting_check(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(cli, "gaussian_reference_identity_check",
                        counting_check)
    mu, nu = study_files
    code = main(["certify", "--mu", mu, "--nu", nu,
                 "--out", str(tmp_path / "run")])
    assert code == 0
    assert len(calls) == 1


def test_unknown_flag_exits_one(study_files, capsys):
    mu, nu = study_files
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--mu", mu, "--nu", nu, "--frobnicate"])
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


def test_the_cached_parser_serves_a_request_after_a_rejected_one(
        tmp_path, study_files):
    mu, nu = study_files
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--mu", mu, "--nu", nu, "--frobnicate"])
    assert exc.value.code == 1
    assert main(["solve", "--mu", mu, "--nu", nu,
                 "--out", str(tmp_path / "run")]) == 0


def test_missing_required_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["threepoint", "--p1", "0.4"])
    assert exc.value.code == 1


def test_gaussian_measure_rejected_by_solve(tmp_path, capsys):
    gau = tmp_path / "mu.json"
    gau.write_text(json.dumps({"gaussian": {"mean": [0.0],
                                            "covariance": [[1.0]]}}),
                   encoding="utf-8")
    nu = write_measure(tmp_path / "nu.json", [[0.0]], [1.0])
    code = main(["solve", "--mu", str(gau), "--nu", nu,
                 "--out", str(tmp_path / "run")])
    assert code == 1
    assert "discrete" in capsys.readouterr().err


NON_FINITE_COVARIANCES = {
    "sigma0-nan": ["gaussian", "--sigma0", "nan", "--sigma1", "2"],
    "delta-nan": ["simulate", "--delta", "nan"],
    "delta-inf": ["simulate", "--delta", "inf"],
}


@pytest.mark.parametrize("case", NON_FINITE_COVARIANCES)
def test_non_finite_covariance_exits_one_without_artifacts(tmp_path, case,
                                                          capsys):
    out = tmp_path / "run"
    assert main([*NON_FINITE_COVARIANCES[case], "--out", str(out)]) == 1
    err_lines = [line for line in capsys.readouterr().err.split("\n")
                 if line and "wall-clock" not in line]
    assert len(err_lines) == 1
    assert "must be finite" in err_lines[0]
    assert not out.exists() or not any(out.iterdir())


def test_gaussian_command_unit_increment(tmp_path):
    out = tmp_path / "run"
    code = main(["gaussian", "--sigma0", "1", "--sigma1", "2",
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "gaussian_report.json").read_text())
    assert abs(report["entropy_value"] - 0.5 * math.log(2.0)) < 1e-15
    assert report["energy_closed_form"] == 0.0
    assert report["max_schedule_discrepancy"] < 1e-12
    lines = (out / "schedules.csv").read_text().strip().split("\n")
    assert lines[0].startswith("t,sigma_00,tau_0")
    assert len(lines) == 102
    # unit increment: constant volatility schedule
    sig = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.max(np.abs(sig - 1.0)) == 0.0


def test_gaussian_command_accepts_a_large_increment(tmp_path):
    # the energy quadrature's tolerance is relative to the value
    code = main(["gaussian", "--sigma0", "1", "--sigma1", "100001",
                 "--out", str(tmp_path / "run")])
    assert code == 0


def test_threepoint_command_artifacts(tmp_path):
    out = tmp_path / "run"
    code = main(["threepoint", "--p1", "0.40", "--q1", "0.46",
                 "--p2", "0.43", "--q2", "0.27", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "threepoint_report.json").read_text())
    gap = report["optimizer_gap"]
    assert abs(gap[0] - (-1.0595712992461648e-3)) < 1e-9
    assert abs(gap[1] - 1.4304212539823224e-3) < 1e-9
    text = (out / "threepoint_matrices.txt").read_text()
    assert "entropy optimizer" in text and "flat-volatility optimizer" in text


def test_simulate_gaussian_fiber(tmp_path):
    out = tmp_path / "run"
    code = main(["simulate", "--delta", "2", "--paths", "4000",
                 "--grid-points", "201", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "simulate_report.json").read_text())
    assert report["all_pass"] is True
    assert report["rel_discrepancy"] < 1e-2
    lines = (out / "ensemble.csv").read_text().strip().split("\n")
    assert lines[0] == "path_id,t,M,X,fiber"
    # 200 stored paths x 5 stored times (default store_every 50)
    assert len(lines) == 1 + 200 * 5


@pytest.mark.parametrize("delta, paths", [("2.0", "300"),
                                          ("[[2.0,0.3],[0.3,1.5]]", "2000")])
def test_simulate_cost_gate_scales_with_paths_and_grid(tmp_path, delta,
                                                        paths):
    # both exited 2 under a fixed 1% gate: on 41 grid points the drift
    # cost's left-endpoint bias alone is -0.0044 for the 2 x 2 delta, and
    # 300 paths leave it a standard error near 0.01
    out = tmp_path / "run"
    assert main(["simulate", "--delta", delta, "--paths", paths,
                 "--grid-points", "41", "--out", str(out)]) == 0
    report = json.loads((out / "simulate_report.json").read_text())
    assert report["all_pass"] is True
    assert (abs(report["cost_drift"] - report["cost_mart"])
            < report["cost_gate"])


def test_simulate_cost_gate_catches_a_wrong_drift(tmp_path, monkeypatch):
    # u = 1.1 A_t (z - x): M keeps its mean, so the law checks still pass,
    # but the drift cost grows by 21% and leaves the gate
    drift = dynamics._gaussian_drift_matrix
    monkeypatch.setattr(dynamics, "_gaussian_drift_matrix",
                        lambda fiber, t: 1.1 * drift(fiber, t))
    out = tmp_path / "run"
    assert main(["simulate", "--delta", "[[2.0,0.3],[0.3,1.5]]",
                 "--paths", "10000", "--grid-points", "201",
                 "--out", str(out)]) == 2
    report = json.loads((out / "simulate_report.json").read_text())
    assert report["all_pass"] is False
    assert report["max_mean_dev_se"] <= 5.0
    assert (abs(report["cost_drift"] - report["cost_mart"])
            > report["cost_gate"])


def test_simulate_discrete_mixture(tmp_path):
    mu = write_measure(tmp_path / "mu.json", [[-1.0], [1.0]], [0.5, 0.5])
    nu = write_measure(tmp_path / "nu.json", [[-2.0], [0.0], [2.0]],
                       [0.3, 0.4, 0.3])
    out = tmp_path / "run"
    code = main(["simulate", "--mu", mu, "--nu", nu, "--paths", "3000",
                 "--grid-points", "201", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "simulate_report.json").read_text())
    assert report["all_pass"] is True
    assert abs(report["terminal_second_moment"]
               - (0.3 * 4 + 0.4 * 0 + 0.3 * 4)) < 0.15


@pytest.mark.parametrize(
    "extra", [[], ["--paths", "60", "--grid-points", "11"]],
    ids=["defaults", "warm-up-size"])
def test_simulate_study_instance_passes_the_law_checks(tmp_path, study_files,
                                                       extra):
    mu, nu = study_files
    out = tmp_path / "run"
    code = main(["simulate", "--mu", mu, "--nu", nu, *extra,
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "simulate_report.json").read_text())
    assert report["all_pass"] is True
    assert report["terminal_binom_min_p"] >= 1e-7
    assert report["max_mean_dev_se"] <= 5.0


def _simulated_pairs():
    mu, nu = study_instance()
    pairs = {
        "study-x1e4": (mu.atoms * 1e4, mu.weights, nu.atoms * 1e4,
                       nu.weights, "1e-10"),
        "study-p1e6": (mu.atoms + 1e6, mu.weights, nu.atoms + 1e6,
                       nu.weights, "1e-10"),
        "peacock-n10-a0.05": (*(a for m in peacock(10, 0.05)
                                for a in (m.atoms, m.weights)), "1e-10"),
    }
    rng = np.random.default_rng(1)
    for k in range(7):
        mu, nu, _ = random_instance(rng)
        if k in (5, 6):
            pairs[f"draw{k}-tol1e-6"] = (mu.atoms, mu.weights, nu.atoms,
                                         nu.weights, "1e-6")
    return pairs


SIMULATED_PAIRS = _simulated_pairs()


@pytest.mark.parametrize("case", SIMULATED_PAIRS)
def test_simulate_runs_every_coupling_the_solve_accepts(tmp_path, case):
    # the solve's coupling is simulated as it is: a conditional entry that
    # underflows to 0 (the peacock), row barycenters held to nu's spread
    # rather than to 1e-10 absolute (the far and the large pairs), and
    # column defects up to the tolerance (the draws at 1e-6) once each
    # exited 1 before any path was drawn
    mu_a, mu_w, nu_a, nu_w, tol = SIMULATED_PAIRS[case]
    out = tmp_path / "run"
    code = main(["simulate", "--tol", tol, "--paths", "2000",
                 "--grid-points", "101",
                 "--mu", write_measure(tmp_path / "mu.json", mu_a, mu_w),
                 "--nu", write_measure(tmp_path / "nu.json", nu_a, nu_w),
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "simulate_report.json").read_text())
    assert report["all_pass"] is True


def fresh_python(code):
    """Run ``code`` in a new interpreter that imports this checkout's
    mbridge; return its stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return done.stdout.strip()


# prints, as JSON on its last line, the exit code of each run given as RUNS
# and then the scipy modules loaded
RUN_AND_LIST_SCIPY = """
import json, sys
from mbridge.cli import main
codes = [main(argv) for argv in RUNS]
print(json.dumps([codes, sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy")]))
"""


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about 0.6 s to import; no command needs it
    assert fresh_python(
        "import sys, mbridge.cli; print('scipy.stats' in sys.modules)") \
        == "False"


def test_cli_import_loads_no_scipy():
    # scipy costs several times numpy's import; it is loaded only by the
    # LPs, which no happy path runs
    assert fresh_python(
        "import sys, mbridge.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])") \
        == "[]"


def test_happy_paths_load_no_scipy(tmp_path, study_files):
    mu, nu = study_files
    mu2, nu2, _ = random_instance(np.random.default_rng(7), n=6, m=8, d=2)
    mu2, nu2 = (write_measure(tmp_path / f"{name}.json", m.atoms, m.weights)
                for name, m in (("mu2", mu2), ("nu2", nu2)))
    out = str(tmp_path / "run")
    runs = [
        ["solve", "--mu", mu, "--nu", nu, "--out", out],
        ["certify", "--mu", mu, "--nu", nu, "--out", out],
        ["certify", "--mu", mu2, "--nu", nu2, "--out", out],
        ["simulate", "--mu", mu, "--nu", nu, "--paths", "60",
         "--grid-points", "11", "--out", out],
        ["simulate", "--delta", "[[2.0,0.3],[0.3,1.5]]", "--paths", "60",
         "--grid-points", "11", "--out", out],
        ["filter", "--paths", "200", "--steps", "20", "--out", out],
        ["threepoint", "--p1", "0.40", "--q1", "0.46", "--p2", "0.43",
         "--q2", "0.27", "--out", out],
        ["gaussian", "--sigma0", "1.0", "--sigma1", "2.0", "--out", out],
    ]
    codes, scipy = json.loads(fresh_python(
        f"RUNS = {runs!r}\n{RUN_AND_LIST_SCIPY}").splitlines()[-1])
    assert codes == [0] * len(runs)
    assert scipy == []


def test_infeasible_d2_certify_exits_three_through_the_lazy_lp(tmp_path):
    # mu atom 0 sits at a vertex of conv(supp nu): a martingale coupling
    # exists, but the atom is not in the relative interior, which only the
    # LP diagnosis can tell in d = 2
    mu = write_measure(tmp_path / "mu.json", [[-1.0, -1.0], [1 / 9, 1 / 9]],
                       [0.1, 0.9])
    nu = write_measure(tmp_path / "nu.json",
                       [[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]],
                       [0.25] * 4)
    runs = [["certify", "--mu", mu, "--nu", nu,
             "--out", str(tmp_path / "run")]]
    codes, scipy = json.loads(fresh_python(
        f"RUNS = {runs!r}\n{RUN_AND_LIST_SCIPY}").splitlines()[-1])
    assert codes == [3]
    assert "scipy.optimize" in scipy


def test_simulate_flag_conflicts(tmp_path, study_files, capsys):
    mu, nu = study_files
    code = main(["simulate", "--delta", "2", "--mu", mu,
                 "--out", str(tmp_path / "run")])
    assert code == 1
    code = main(["simulate", "--mu", mu, "--out", str(tmp_path / "run")])
    assert code == 1


def test_filter_command(tmp_path):
    out = tmp_path / "run"
    code = main(["filter", "--paths", "20000", "--steps", "2000",
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "filter_report.json").read_text())
    assert report["all_pass"] is True
    assert report["sigma_invariance"]["max_ks"] < 0.02
    assert max(report["wonham"]["ks"].values()) < 0.02
    lines = (out / "filter_quantiles.csv").read_text().strip().split("\n")
    assert lines[0] == "q,M_sigma_0.5,M_sigma_1.0,M_sigma_2.0"
    assert len(lines) == 202


@pytest.mark.parametrize("seed", range(1, 7))
def test_filter_gates_scale_with_the_paths(tmp_path, seed):
    # at 4000 paths the KS gate is 2.83 sqrt(2 / 4000) = 0.063 and the
    # frequency gate 2 / sqrt(4000) = 0.032; both shrink to 0.02 and 0.01
    # at 40,000
    out = tmp_path / "run"
    assert main(["filter", "--paths", "4000", "--steps", "400",
                 "--seed", str(seed), "--out", str(out)]) == 0
    report = json.loads((out / "filter_report.json").read_text())
    assert report["all_pass"] is True


def test_filter_gates_catch_a_wrong_euler_coefficient(tmp_path, monkeypatch):
    # dZ = 1.25 Z (1 - Z) dB instead of Z (1 - Z) dB: the Euler law spreads
    # out, and the scaled KS gate still sees it at 4000 paths
    euler = filtering._euler_block
    monkeypatch.setattr(
        filtering, "_euler_block",
        lambda rng, n_paths, n_steps, sqrt_ds, marks:
        euler(rng, n_paths, n_steps, 1.25 * sqrt_ds, marks))
    out = tmp_path / "run"
    assert main(["filter", "--paths", "4000", "--steps", "400",
                 "--seed", "1", "--out", str(out)]) == 2
    report = json.loads((out / "filter_report.json").read_text())
    assert report["all_pass"] is False
    assert max(report["wonham"]["ks"].values()) > 2.83 * math.sqrt(2 / 4000)


NON_FINITE_FLAGS = {
    "filter-s-nan": ["filter", "--s", "nan"],
    "filter-s-inf": ["filter", "--s", "inf"],
    "filter-sigmas-nan": ["filter", "--sigmas", "0.5,nan,2"],
    "filter-sigmas-inf": ["filter", "--sigmas", "inf"],
    "gaussian-mean-nan": ["gaussian", "--sigma0", "1", "--sigma1", "2",
                          "--mean0", "nan", "--mean1", "nan"],
}


@pytest.mark.parametrize("case", NON_FINITE_FLAGS)
def test_non_finite_flag_exits_one_without_artifacts(tmp_path, case, capsys):
    # before any work: a NaN once ran the whole filter and passed it on a
    # zero KS matrix
    out = tmp_path / "run"
    assert main([*NON_FINITE_FLAGS[case], "--out", str(out)]) == 1
    err_lines = [line for line in capsys.readouterr().err.split("\n")
                 if line and "wall-clock" not in line]
    assert len(err_lines) == 1
    assert "must be finite" in err_lines[0]
    assert not out.exists()


UNUSABLE_COUNTS = {
    "filter-paths-zero": ("--paths", ["filter", "--paths", "0"]),
    "filter-paths-negative": ("--paths", ["filter", "--paths", "-5"]),
    "filter-steps-zero": ("--steps", ["filter", "--steps", "0"]),
    "filter-steps-negative": ("--steps", ["filter", "--steps", "-3"]),
    "filter-seed-negative": ("--seed", ["filter", "--seed", "-1"]),
    "filter-seed-too-large": ("--seed", ["filter", "--seed", str(2**64)]),
    "simulate-paths-zero": ("--paths", ["simulate", "--delta", "2",
                                        "--paths", "0"]),
    "simulate-paths-negative": ("--paths", ["simulate", "--delta", "2",
                                            "--paths", "-3"]),
    "simulate-seed-negative": ("--seed", ["simulate", "--delta", "2",
                                          "--seed", "-1"]),
    "simulate-store-every-zero": ("--store-every", [
        "simulate", "--delta", "2", "--store-every", "0"]),
    "simulate-store-every-negative": ("--store-every", [
        "simulate", "--delta", "2", "--store-every", "-5"]),
    "simulate-csv-paths-negative": ("--csv-paths", [
        "simulate", "--delta", "2", "--csv-paths", "-1"]),
    "simulate-grid-points-one": ("--grid-points", [
        "simulate", "--delta", "2", "--grid-points", "1"]),
    "gaussian-grid-points-zero": ("--grid-points", [
        "gaussian", "--sigma0", "1", "--sigma1", "2", "--grid-points", "0"]),
    # one volatility, or a repeated one, leaves no pair of laws to compare
    "filter-sigmas-single": ("--sigmas", ["filter", "--sigmas", "2"]),
    "filter-sigmas-repeated": ("--sigmas", ["filter", "--sigmas", "1,1"]),
}


@pytest.mark.parametrize("case", UNUSABLE_COUNTS)
def test_unusable_count_or_seed_exits_one_naming_the_flag(tmp_path, case,
                                                          capsys):
    flag, argv = UNUSABLE_COUNTS[case]
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 1
    err_lines = [line for line in capsys.readouterr().err.split("\n")
                 if line and "wall-clock" not in line]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error:") and f"'{flag}'" in err_lines[0]
    assert not out.exists()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
