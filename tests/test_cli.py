"""End-to-end command tests: exit codes, artifacts, reproducibility."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mbridge import DegenerateFiber, DiscreteMeasure, cli, measure_to_json
from mbridge.cli import build_parser, main
from conftest import random_instance


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


def test_identical_runs_produce_byte_identical_artifacts(tmp_path, study_files):
    mu, nu = study_files
    runs = {
        "solve": (["solve"], ("solve_report.json", "coupling.csv")),
        # the study mixture: every fiber's paths on the one random stream
        "simulate": (["simulate", "--paths", "300", "--grid-points", "41",
                      "--store-every", "10"],
                     ("simulate_report.json", "ensemble.csv")),
    }
    for cmd, (argv, names) in runs.items():
        out1, out2 = tmp_path / f"{cmd}-a", tmp_path / f"{cmd}-b"
        for out in (out1, out2):
            assert main([*argv, "--mu", mu, "--nu", nu,
                         "--out", str(out)]) == 0
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


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about 0.6 s to import; the law checks use
    # scipy.special only
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, mbridge.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    assert done.stdout.strip() == "False"


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
