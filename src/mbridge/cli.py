"""Command-line entry point.

Subcommands: solve (psi-dual Newton on two discrete measure files), gaussian
(closed forms and volatility schedules), simulate (path ensemble with
energies), filter (observation-time law checks), threepoint (the two
optimizers of the 3x3 family), certify (primal/dual/variational value chain
on one instance). Each run writes a JSON report plus CSV side files to the
output directory; every artifact embeds its run manifest. Artifacts contain
only reproducible fields, so identical invocations give byte-identical
files; wall-clock timing goes to stderr.

Exit codes follow the failure taxonomy of ``errors``: 0 success, 3
``Infeasible`` (proved: not in convex order, an atom on the boundary of
conv(supp nu), an empty three-point polygon), 2 ``NotConverged`` (no answer
found where one may exist: the iteration cap, a degenerate fiber Hessian or
a diverging inner dual once the solver's diagnosis has ruled out
infeasibility) or a failing check, 1 any other ``MbridgeError`` (bad flags,
malformed files).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import SEED_BOUND, FiberModel, \
    _gaussian_drift_energy_increments, law_checks, phi_bijection_check, \
    randomize_over_mu, simulate_follmer_martingale
from .errors import Infeasible, MbridgeError, NotConverged, StructuralError
from .filtering import _volatilities, sigma_invariance_test, \
    wonham_sde_crosscheck
from .gaussian import bass_comparison_gaussian, follmer_volatility_gaussian, \
    gaussian_energy_closed_form, gaussian_msb_closed_form, \
    weighted_energy_quadrature
from .measures import DiscreteMeasure, _float_array, _write_json, \
    barycenter_and_moments, gaussian_reference_identity_check, load_measure, \
    measure_to_json
from .solver import SolverConfig, classical_sinkhorn_sp, extract_base_measure, \
    mcov_bounds, schroedinger_system_residuals, sinkhorn_msb
from .threepoint import ThreePointInstance, bass_minimize, entropy_minimize

SCHEMA = "mbridge/1"


class _Parser(argparse.ArgumentParser):
    """argparse with the structural-error exit convention."""

    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _manifest(args, command, inputs, parameters):
    return {"command": command,
            "inputs": inputs,
            "parameters": parameters,
            "seed": getattr(args, "seed", None),
            "version": __version__}


def _write_csv(outdir, name, header, rows):
    with open(Path(outdir) / name, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_discrete(path, flag):
    measure = load_measure(path)
    if not isinstance(measure, DiscreteMeasure):
        raise StructuralError(
            f"{flag} must be a discrete measure; "
            "Gaussian inputs belong to the gaussian subcommand")
    return measure


def _parse_matrix(text, flag):
    """A number or a JSON matrix of numbers, as a float array."""
    try:
        return np.array([[float(text)]])
    except ValueError:
        pass
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"field '{flag}' is neither a number nor "
                              f"a JSON matrix: {exc}") from exc
    return _float_array(doc, f"field '{flag}'")


def _parse_floats(text, flag):
    """A comma-separated list of finite numbers."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise StructuralError(f"field '{flag}' must be comma-separated "
                              f"numbers: {exc}") from exc
    _check_finite(values, flag)
    return values


def _check_finite(values, flag):
    if not np.all(np.isfinite(values)):
        raise StructuralError(f"field '{flag}' must be finite, got {values}")


def _check_sampling(args, minimums):
    """Refuse counts below their minimum and seeds no simulation can use."""
    for flag, low in minimums.items():
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value < low:
            raise StructuralError(
                f"field '{flag}' must be an integer >= {low}, got {value}")
    if "seed" in vars(args) and not 0 <= args.seed < SEED_BOUND:
        raise StructuralError(f"field '--seed' must lie in [0, 2**64), "
                              f"got {args.seed}")


def _solve(args):
    """Load --mu and --nu and solve them under the solver flags."""
    mu = _load_discrete(args.mu, "--mu")
    nu = _load_discrete(args.nu, "--nu")
    return mu, nu, sinkhorn_msb(mu, nu, SolverConfig(tolerance=args.tol))


def _solve_payload(args, command, report):
    """The report fields that solve and certify share, manifest first."""
    mu, nu = report.coupling.mu, report.coupling.nu
    return {
        "schema": SCHEMA,
        "manifest": _manifest(args, command, {"mu": args.mu, "nu": args.nu},
                              {"tol": args.tol,
                               "iterations": report.iterations}),
        "converged": report.converged,
        "iterations": report.iterations,
        "primal_value": report.primal_value,
        "dual_value": report.dual_value,
        "duality_gap": abs(report.primal_value - report.dual_value),
        "marginal_residual": report.marginal_residual,
        "martingale_residual": report.martingale_residual,
        "identity_residual": gaussian_reference_identity_check(report.coupling),
        "potentials": {"phi": report.potentials.phi,
                       "psi": report.potentials.psi,
                       "h": report.potentials.h},
        "mu": measure_to_json(mu),
        "nu": measure_to_json(nu),
    }


def _solve_work(command, report):
    """The solve's outer iterations, inner Newton steps and backtracks, on
    a second line its worst fiber Hessian condition number (or that no
    inner Newton step ran) and largest fiber dual |z| (nu's frame), on a
    third the rate of its dual ascent and on a fourth the irreducible
    components it found on nu's line, on stderr beside the wall clock: like
    timing, they never enter an artifact."""
    print(f"[{command}] {report.iterations} outer iterations, "
          f"{report.inner_steps} inner Newton steps, "
          f"{report.backtracks} backtracks", file=sys.stderr)
    condition = (f"worst fiber Hessian condition {report.fiber_condition:.3e}"
                 if report.inner_steps else "no inner Newton step ran")
    print(f"[{command}] {condition}, largest fiber dual |z| "
          f"{report.fiber_dual_max:.3e} (nu's frame)", file=sys.stderr)
    print(f"[{command}] dual ascent rate {report.rate:.4g} (ratio of the "
          "last two dual rises above the floating-point floor)",
          file=sys.stderr)
    print(f"[{command}] {report.components} irreducible components "
          "(found on nu's line, 1 elsewhere)", file=sys.stderr)


def cmd_solve(args):
    _, nu, report = _solve(args)
    _solve_work("solve", report)
    out = _outdir(args)

    _write_csv(out, "coupling.csv",
               [f"nu_{j}" for j in range(nu.n)], report.coupling.matrix)
    doc = {**_solve_payload(args, "solve", report),
           "coupling_csv": "coupling.csv"}
    _write_json(out / "solve_report.json", doc)
    print(f"solve: converged={report.converged} "
          f"primal={report.primal_value!r} "
          f"gap={doc['duality_gap']:.3e} iterations={report.iterations}")
    return 0 if report.converged else 2


def cmd_certify(args):
    _, nu, report = _solve(args)
    _solve_work("certify", report)

    base = extract_base_measure(report)
    # a stalled classical re-solve leaves its values null and its checks
    # failing; the rest of the report stands
    sp_value = residuals = vp = gap = None
    try:
        sp_value, _, (phibar, psi) = classical_sinkhorn_sp(
            base, nu, psi0=report.potentials.psi)
    except NotConverged as exc:
        print(f"certify: classical Schroedinger re-solve: {exc}",
              file=sys.stderr)
    else:
        residuals = list(schroedinger_system_residuals(base, nu, phibar, psi))
    payload = _solve_payload(args, "certify", report)

    primal, dual = report.primal_value, report.dual_value
    # MCov(base, mu) lies in [mcov, upper], so |P - SP - MCov| is at most
    # the larger of the two gaps
    mcov, upper = mcov_bounds(report, base)
    if sp_value is not None:
        vp = sp_value + mcov
        gap = max(abs(primal - vp), abs(primal - sp_value - upper))
    checks = {
        "converged": report.converged,
        "variational_gap": gap is not None and gap <= 1e-7,
        "schroedinger_system": (residuals is not None
                                and max(residuals) < 1e-10),
        "reference_identity": payload["identity_residual"] < 1e-10,
    }
    doc = {**payload,
           "base_measure": measure_to_json(base),
           "sp_value": sp_value,
           "mcov_value": mcov,
           "vp_value": vp,
           "variational_gap": gap,
           "schroedinger_residuals": residuals,
           "checks": checks,
           "all_pass": all(checks.values())}
    out = _outdir(args)
    _write_json(out / "certify_report.json", doc)
    print(f"certify: all_pass={doc['all_pass']} "
          f"P={primal!r} D={dual!r} VP={vp!r}")
    return 0 if doc["all_pass"] else 2


def cmd_gaussian(args):
    _check_sampling(args, {"--grid-points": 1})
    s0 = _parse_matrix(args.sigma0, "--sigma0")
    s1 = _parse_matrix(args.sigma1, "--sigma1")
    mean0 = _parse_floats(args.mean0, "--mean0") if args.mean0 else None
    mean1 = _parse_floats(args.mean1, "--mean1") if args.mean1 else None
    sol = gaussian_msb_closed_form(s0, s1, mean0, mean1)

    quad_energy = weighted_energy_quadrature(sol.delta)
    closed_energy = gaussian_energy_closed_form(sol.delta)
    grid = np.linspace(0.0, 1.0, args.grid_points)
    comp = bass_comparison_gaussian(sol.sigma0, sol.sigma1, grid=grid)

    d = sol.dim
    header = (["t"]
              + [f"sigma_{i}{j}" for i in range(d) for j in range(d)]
              + [f"{name}_{k}" for name in ("tau", "bridge", "flat")
                 for k in range(d)])
    sigma = follmer_volatility_gaussian(sol.delta, grid)
    rows = np.column_stack([grid, sigma.reshape(len(grid), d * d),
                            comp.time_change(grid), comp.bridge_schedule,
                            comp.flat_schedule])
    out = _outdir(args)
    _write_csv(out, "schedules.csv", header, rows)

    doc = {"schema": SCHEMA,
           "manifest": _manifest(args, "gaussian",
                                 {"sigma0": args.sigma0, "sigma1": args.sigma1},
                                 {"grid_points": args.grid_points}),
           "dimension": d,
           "entropy_value": sol.entropy_value,
           "energy_quadrature": quad_energy,
           "energy_closed_form": closed_energy,
           "energy_abs_error": abs(quad_energy - closed_energy),
           "delta": sol.delta,
           "base_covariance": sol.base_covariance,
           "joint_covariance": sol.joint_covariance,
           "phibar_quadratic": sol.phibar_quadratic,
           "phibar_constant": sol.phibar_constant,
           "psi_quadratic": sol.psi_quadratic,
           "h_matrix": sol.h_matrix,
           "eigenvalues": comp.eigenvalues,
           "bass_volatility": comp.bass_volatility,
           "max_schedule_discrepancy": comp.max_discrepancy,
           "schedules_csv": "schedules.csv"}
    _write_json(out / "gaussian_report.json", doc)
    print(f"gaussian: entropy={sol.entropy_value!r} "
          f"energy={closed_energy!r} "
          f"schedule_discrepancy={comp.max_discrepancy:.3e}")
    return 0


def _path_step_rate(command, path_steps, start):
    """The path kernel's path-steps and ns per path-step since ``start``,
    on stderr beside the wall clock: timing never enters an artifact."""
    ns = 1e9 * (time.perf_counter() - start) / path_steps
    print(f"[{command}] {path_steps} path-steps, {ns:.1f} ns per path-step",
          file=sys.stderr)


def cmd_simulate(args):
    _check_sampling(args, {"--paths": 1, "--grid-points": 2,
                           "--store-every": 1, "--csv-paths": 0})
    grid = np.linspace(0.0, 1.0, args.grid_points)
    if args.delta is not None:
        if args.mu is not None or args.nu is not None:
            raise StructuralError("--delta excludes --mu/--nu")
        delta = _parse_matrix(args.delta, "--delta")
        model = fiber = FiberModel.gaussian(np.zeros(delta.shape[0]), delta)
        simulate = simulate_follmer_martingale
        inputs = {"delta": args.delta}
    else:
        if args.mu is None or args.nu is None:
            raise StructuralError("simulate needs --delta or both --mu/--nu")
        report = _solve(args)[2]
        if not report.converged:
            raise NotConverged("solver did not converge; no ensemble simulated")
        model, simulate = report.coupling, randomize_over_mu
        inputs = {"mu": args.mu, "nu": args.nu}
    start = time.perf_counter()
    ensemble = simulate(model, grid=grid, n_paths=args.paths, seed=args.seed,
                        method=args.method, store_every=args.store_every)
    _path_step_rate("simulate", args.paths * (args.grid_points - 1), start)

    bij = phi_bijection_check(ensemble)
    law = law_checks(ensemble)
    out = _outdir(args)
    ensemble.to_csv(out / "ensemble.csv", max_paths=args.csv_paths)

    # the two costs agree in the limit only when both are finite; discrete
    # fibers have log-divergent energies near t = 1, so for them the cost
    # comparison is left out and the law checks carry the verdict. A
    # Gaussian run's costs must agree within four standard errors of the
    # drift cost plus that cost's exact left-endpoint bias on the grid
    gate = None
    if args.delta is not None:
        bias = (_gaussian_drift_energy_increments(fiber.delta, grid).sum()
                - bij.cost_mart)
        se = np.std(ensemble.drift_energy) / math.sqrt(ensemble.n_paths)
        gate = float(4.0 * se + abs(bias))
    passing = law.passing and (
        gate is None or abs(bij.cost_drift - bij.cost_mart) < gate)
    term = ensemble.terminal
    doc = {"schema": SCHEMA,
           "manifest": _manifest(args, "simulate", inputs,
                                 {"paths": args.paths,
                                  "grid_points": args.grid_points,
                                  "store_every": args.store_every,
                                  "method": args.method}),
           "n_paths": ensemble.n_paths,
           "method": ensemble.method,
           "cost_drift": bij.cost_drift,
           "cost_mart": bij.cost_mart,
           "rel_discrepancy": bij.rel_discrepancy,
           "cost_gate": gate,
           "terminal_binom_min_p": law.terminal_binom_min_p,
           "max_mean_dev_se": law.max_mean_dev_se,
           "terminal_mean": term.mean(axis=0),
           "terminal_second_moment": float(np.mean(np.sum(term ** 2, axis=1))),
           "all_pass": passing,
           "ensemble_csv": "ensemble.csv"}
    _write_json(out / "simulate_report.json", doc)
    print(f"simulate: paths={ensemble.n_paths} "
          f"cost_drift={bij.cost_drift!r} cost_mart={bij.cost_mart!r} "
          f"rel_discrepancy={bij.rel_discrepancy:.3e}")
    return 0 if passing else 2


def cmd_filter(args):
    _check_sampling(args, {"--paths": 1, "--steps": 1})
    _check_finite(args.s, "--s")
    sigmas = _parse_floats(args.sigmas, "--sigmas")
    try:
        _volatilities(sigmas)
    except StructuralError as exc:
        raise StructuralError(f"field '--sigmas': {exc}") from None
    if args.nu is not None:
        nu = _load_discrete(args.nu, "--nu")
    else:
        nu = DiscreteMeasure([[-1.0], [0.0], [1.0]], [0.3, 0.4, 0.3])
    x, _, _ = barycenter_and_moments(nu)
    fiber = FiberModel.discrete(x, nu)

    inv = sigma_invariance_test(fiber, s=args.s, sigmas=sigmas,
                                n_samples=args.paths, seed=args.seed)
    start = time.perf_counter()
    won = wonham_sde_crosscheck(n_paths=args.paths, n_steps=args.steps,
                                seed=args.seed)
    _path_step_rate("filter", args.paths * args.steps, start)

    qs = np.linspace(0.0, 1.0, 201)
    header = ["q"] + [f"M_sigma_{sig}" for sig in inv.sigmas]
    rows = np.column_stack(
        [qs] + [np.quantile(inv.samples[sig], qs) for sig in inv.sigmas])
    out = _outdir(args)
    _write_csv(out, "filter_quantiles.csv", header, rows)

    # every sample holds n = --paths draws: two samples of one law lie a KS
    # distance 2.83 sqrt((n + n) / (n n)) apart with probability ~2e-7, and
    # a frequency's standard error is at most 0.5 / sqrt(n); at n = 40,000
    # the gates are 0.02 and 0.01
    ks_gate = 2.83 * math.sqrt(2.0 / args.paths)
    freq_gate = 2.0 / math.sqrt(args.paths)
    passing = (inv.max_ks < ks_gate
               and max(won.ks_by_checkpoint.values()) < ks_gate
               and abs(won.terminal_freq_exact - 0.5) < freq_gate
               and abs(won.terminal_freq_euler - 0.5) < freq_gate)
    doc = {"schema": SCHEMA,
           "manifest": _manifest(args, "filter",
                                 {"nu": args.nu},
                                 {"s": args.s, "sigmas": list(inv.sigmas),
                                  "paths": args.paths, "steps": args.steps}),
           "sigma_invariance": {"s": inv.s, "sigmas": list(inv.sigmas),
                                "ks_matrix": inv.ks_matrix,
                                "max_ks": inv.max_ks},
           "wonham": {"checkpoints": list(won.checkpoints),
                      "ks": {repr(k): v
                             for k, v in won.ks_by_checkpoint.items()},
                      "terminal_freq_exact": won.terminal_freq_exact,
                      "terminal_freq_euler": won.terminal_freq_euler,
                      "clamp_violations": won.clamp_violations},
           "all_pass": passing,
           "quantiles_csv": "filter_quantiles.csv"}
    _write_json(out / "filter_report.json", doc)
    print(f"filter: max_ks={inv.max_ks:.4f} "
          f"wonham_ks={max(won.ks_by_checkpoint.values()):.4f} "
          f"all_pass={passing}")
    return 0 if passing else 2


def cmd_threepoint(args):
    instance = ThreePointInstance(args.p1, args.q1, args.p2, args.q2)
    entropy = entropy_minimize(instance)
    bass = bass_minimize(instance)
    gap = (entropy.u - bass.u, entropy.v - bass.v)

    out = _outdir(args)
    lines = []
    for title, sol in (("entropy", entropy), ("flat-volatility", bass)):
        lines.append(f"{title} optimizer")
        lines += ["  " + "  ".join(f"{v:12.8f}" for v in row)
                  for row in sol.matrix]
    lines.append(f"gap (u, v): {gap[0]:14.6e} {gap[1]:14.6e}")
    (out / "threepoint_matrices.txt").write_text("\n".join(lines) + "\n",
                                                 encoding="utf-8")

    doc = {"schema": SCHEMA,
           "manifest": _manifest(args, "threepoint", {},
                                 {"p1": args.p1, "q1": args.q1,
                                  "p2": args.p2, "q2": args.q2}),
           # every field of each solution, in declaration order
           "entropy": vars(entropy),
           "bass": vars(bass),
           "optimizer_gap": list(gap),
           "matrices_txt": "threepoint_matrices.txt"}
    _write_json(out / "threepoint_report.json", doc)
    print(f"threepoint: gap=({gap[0]:.6e}, {gap[1]:.6e})")
    return 0


# built once per process, on first use: the parser keeps no per-request
# state, and building it costs about 2 ms, a fifth of a small request
@functools.cache
def build_parser():
    parser = _Parser(prog="mbridge",
                     description="entropic martingale transport toolkit")
    parser.add_argument("--version", action="version",
                        version=f"mbridge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(p, seed=True):
        p.add_argument("--out", default=".", help="output directory")
        if seed:
            p.add_argument("--seed", type=int, default=42)

    for name, handler, text in (
            ("solve", cmd_solve, "solve one discrete instance"),
            ("certify", cmd_certify, "value chain on one instance")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--mu", required=True)
        p.add_argument("--nu", required=True)
        p.add_argument("--tol", type=float, default=SolverConfig.tolerance)
        common(p, seed=False)
        p.set_defaults(handler=handler)

    p = sub.add_parser("gaussian", help="Gaussian closed forms and schedules")
    p.add_argument("--sigma0", required=True)
    p.add_argument("--sigma1", required=True)
    p.add_argument("--mean0", default=None)
    p.add_argument("--mean1", default=None)
    p.add_argument("--grid-points", type=int, default=101, dest="grid_points")
    common(p, seed=False)
    p.set_defaults(handler=cmd_gaussian)

    p = sub.add_parser("simulate", help="path ensemble with energies")
    p.add_argument("--delta", default=None,
                   help="Gaussian fiber increment covariance")
    p.add_argument("--mu", default=None)
    p.add_argument("--nu", default=None)
    p.add_argument("--paths", type=int, default=10_000)
    p.add_argument("--grid-points", type=int, default=1001,
                   dest="grid_points")
    p.add_argument("--store-every", type=int, default=50, dest="store_every")
    p.add_argument("--method", choices=("bridge", "euler"), default="bridge")
    p.add_argument("--csv-paths", type=int, default=200, dest="csv_paths")
    p.add_argument("--tol", type=float, default=SolverConfig.tolerance)
    common(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("filter", help="observation-time law checks")
    p.add_argument("--nu", default=None,
                   help="terminal law of the invariance test (default "
                   "three symmetric atoms); the Wonham check always runs "
                   "the symmetric two-atom fiber")
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--sigmas", default="0.5,1,2")
    p.add_argument("--paths", type=int, default=40_000)
    p.add_argument("--steps", type=int, default=4000)
    common(p)
    p.set_defaults(handler=cmd_filter)

    p = sub.add_parser("threepoint", help="3x3 family optimizers")
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--q1", type=float, required=True)
    p.add_argument("--p2", type=float, required=True)
    p.add_argument("--q2", type=float, required=True)
    common(p, seed=False)
    p.set_defaults(handler=cmd_threepoint)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.handler(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except NotConverged as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        return 2
    except MbridgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        print(f"[{getattr(args, 'command', '?')}] wall-clock "
              f"{time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code
