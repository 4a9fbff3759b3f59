"""mbridge benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Workloads: ladder, peacock, paths, small-mix (see ``workloads.py``). One
process serves one closed loop: each operation is an in-process
``mbridge.cli.main`` call issued after the previous one returned. A pass runs
every operation of the workload once; passes repeat until the pass boundary
nearest to ``--seconds``, and each operation's output is judged by
``oracle.py``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
untraced pass, then wraps the module-level names listed in ``tracer.py``
and reports the per-layer metrics of the traced passes, including the
tracing overhead; the spans go to ``perfbench/work/trace-<workload>-s<seed>
.jsonl``. The last line of standard output is the JSON result. The exit code
is 1 when an output check breaks and 2 when the checkout holds no mbridge
sources.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402  (first: pins BLAS threads before numpy loads)
import oracle  # noqa: E402
from tracer import (ATTRS, END, NAME, OP, START, Tracer,  # noqa: E402
                    by_name, self_times, write_jsonl)
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 3
SELF_SUM_TOLERANCE = 0.10

# per-layer time metrics: metric name -> span name whose self time it sums
SELF_TIME_METRICS = {
    "measures.check_convex_order_s": "measures.check_convex_order",
    "solver.relative_interior_s": "solver.relative_interior",
    "solver.fiber_newton_s": "solver.fiber_newton",
    "solver.sinkhorn_self_s": "solver.sinkhorn",
    "solver.classical_sp_s": "solver.classical_sp",
    "solver.extract_base_s": "solver.extract_base",
    "measures.mcov_discrete_s": "measures.mcov_discrete",
    "measures.identity_check_s": "measures.identity_check",
    "dynamics.simulate_s": "dynamics.simulate",
    "dynamics.bijection_check_s": "dynamics.bijection_check",
    "dynamics.to_csv_s": "dynamics.to_csv",
    "filtering.wonham_s": "filtering.wonham",
    "filtering.sigma_invariance_s": "filtering.sigma_invariance",
    "stats.ks_distance_s": "stats.ks_distance",
    "stats.norm_s": "stats.norm",
    "threepoint.entropy_minimize_s": "threepoint.entropy_minimize",
    "threepoint.bass_minimize_s": "threepoint.bass_minimize",
    "gaussian.quadrature_s": "gaussian.quadrature",
    "gaussian.bass_comparison_s": "gaussian.bass_comparison",
    "cli.self_s": "cli.main",
}
CALL_METRICS = {
    "measures.check_convex_order_calls": "measures.check_convex_order",
    "solver.relative_interior_calls": "solver.relative_interior",
    "solver.fiber_newton_calls": "solver.fiber_newton",
}
# ROADMAP "Baseline" figures, each good to +-20%
BASELINE = {
    "preflight share of the n=m=200 solve": (0.95, 1.0),
    "outer iterations, peacock n=50 a=0.3": (329, 339),
    "discrete simulator, ns per path-step": (179, 198),
    "Wonham Euler, ns per path-step": (20, 20),
}


def _arguments():
    parser = argparse.ArgumentParser(
        description="Run one mbridge benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _setup_probe(workload, seed, work):
    """One cold set-up in a fresh interpreter; returns its seconds."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "harness.py"), "--workload", workload,
         "--seed", str(seed), "--work", str(work)],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Runner:
    """Runs passes of one workload and collects times, verdicts and counts."""

    def __init__(self, cli, ops, work, tracer=None):
        self.cli, self.ops, self.work = cli, ops, work
        self.tracer = tracer
        self.passes = []
        self.problems = []

    def run_pass(self, traced=False):
        index = len(self.passes)
        record = {"times": [], "verdicts": [], "counts": [], "traced": traced,
                  "span_lo": len(self.tracer.spans) if traced else 0}
        out = self.work / "out"
        for op in self.ops:
            if traced:
                self.tracer.op = f"{index}:{op.name}"
            code, seconds, log = harness.run_op(self.cli, op, self.work, out)
            verdict, message, counts = oracle.judge(op, code, out, self.work)
            record["times"].append(seconds)
            record["verdicts"].append(verdict)
            record["counts"].append(counts)
            if verdict == "wrong":
                self.problems.append(f"{op.name}: {message}\n{log}")
        if traced:
            record["span_hi"] = len(self.tracer.spans)
        record["wall"] = sum(record["times"])
        first = self.passes[0]["counts"] if self.passes else record["counts"]
        if record["counts"] != first:
            self.problems.append(
                f"pass {index}: exact counts differ from pass 0")
        self.passes.append(record)
        return record

    def run_until(self, seconds, start, traced=False):
        """Run passes and stop at the pass boundary nearest to ``seconds``
        after ``start``."""
        while True:
            self.run_pass(traced)
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / len(self.passes) >= seconds:
                return

    def tally(self):
        verdicts = [v for p in self.passes for v in p["verdicts"]]
        return len(verdicts), verdicts.count("failed")


def end_to_end(runner, setup_s):
    passes = runner.passes
    times = [t for p in passes for t in p["times"]]
    geo = [math.exp(statistics.fmean(math.log(t) for t in p["times"]))
           for p in passes]
    # percentiles are printed only where at least ten samples lie beyond
    # them; the bounded metrics below exist on every workload
    print(f"op_p50_ms: {1e3 * statistics.median(times):.6g} ms "
          f"({len(times)} samples)")
    if len(times) >= 200:
        p95 = statistics.quantiles(times, n=20, method="inclusive")[18]
        print(f"op_p95_ms: {1e3 * p95:.6g} ms")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "op_geomean_ms": (1e3 * statistics.median(geo), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def _dense_bytes(a):
    """Computed size of the dense convex-order ``A_eq``: (n+m+nd) x nm."""
    return (a["n"] + a["m"] + a["n"] * a["d"]) * a["n"] * a["m"] * 8


def _layer_metrics(tracer, record):
    """Per-layer numbers of one traced pass."""
    lo, hi = record["span_lo"], record["span_hi"]
    spans = tracer.spans[lo:hi]
    selfs = self_times(tracer.spans, lo, hi)
    named = by_name(tracer.spans, selfs, lo)

    def attrs(name):
        return [s[ATTRS] for s in spans if s[NAME] == name and s[ATTRS]]

    lp = attrs("measures.check_convex_order")
    solves = attrs("solver.sinkhorn")
    sims = attrs("dynamics.simulate")
    wonham = attrs("filtering.wonham")
    sim_self = {"discrete": 0.0, "gaussian": 0.0}
    sim_steps = {"discrete": 0, "gaussian": 0}
    for s, own in zip(spans, selfs):
        if s[NAME] == "dynamics.simulate" and s[ATTRS]:
            sim_self[s[ATTRS]["kind"]] += own
            sim_steps[s[ATTRS]["kind"]] += s[ATTRS]["path_steps"]
    wonham_steps = sum(a["path_steps"] for a in wonham)
    preflight = (named["measures.check_convex_order"]["dur"]
                 + named["solver.relative_interior"]["dur"])
    listed = set(SELF_TIME_METRICS.values())

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    times = {metric: (named[span]["self"], "s")
             for metric, span in SELF_TIME_METRICS.items()}
    times.update({
        "solver.preflight_share": (
            ratio(preflight, named["solver.sinkhorn"]["dur"]), "ratio"),
        "dynamics.ns_per_path_step.discrete": (
            ratio(sim_self["discrete"], sim_steps["discrete"], 1e9), "ns"),
        "dynamics.ns_per_path_step.gaussian": (
            ratio(sim_self["gaussian"], sim_steps["gaussian"], 1e9), "ns"),
        "filtering.wonham_ns_per_path_step": (
            ratio(named["filtering.wonham"]["self"], wonham_steps, 1e9),
            "ns"),
        "bench.traced_wall_s": (record["wall"], "s"),
        "bench.self_sum_ratio": (sum(selfs) / record["wall"], "ratio"),
        "bench.unlisted_self_s": (sum(v["self"] for k, v in named.items()
                                      if k not in listed), "s"),
    })
    counts = {metric: (named[span]["calls"], "count")
              for metric, span in CALL_METRICS.items()}
    counts.update({
        "measures.lp_vars": (sum(a["n"] * a["m"] for a in lp), "count"),
        "measures.lp_dense_bytes": (max(map(_dense_bytes, lp), default=0),
                                    "B"),
        "solver.outer_iters": (sum(a["iterations"] for a in solves), "count"),
        "solver.converged_ratio": (
            ratio(sum(a["converged"] for a in solves), len(solves)), "ratio"),
        "dynamics.path_steps": (sum(a["path_steps"] for a in sims), "count"),
        "cli.bytes_written": (sum(c["bytes_written"]
                                  for c in record["counts"]), "B"),
        "bench.spans": (len(spans), "count"),
    })
    return times, counts


def _op_counts(tracer, record, ops):
    """Exact per-operation counts of one traced pass, from its spans."""
    per_op = {}
    for op, counts in zip(ops, record["counts"]):
        per_op[op.name] = dict(counts, fiber_newton_calls=0, lp_vars=0,
                               lp_dense_bytes=0, relative_interior_calls=0)
    for s in tracer.spans[record["span_lo"]:record["span_hi"]]:
        entry = per_op[s[OP].split(":", 1)[1]]
        a = s[ATTRS]
        if s[NAME] == "solver.fiber_newton":
            entry["fiber_newton_calls"] += 1
        elif s[NAME] == "solver.relative_interior":
            entry["relative_interior_calls"] += 1
        elif s[NAME] == "measures.check_convex_order" and a:
            entry["lp_vars"] += a["n"] * a["m"]
            entry["lp_dense_bytes"] = max(entry["lp_dense_bytes"],
                                          _dense_bytes(a))
    return per_op


def _baseline(tracer, record, per_op):
    """Measured counterparts of the ROADMAP baseline figures, where the
    workload has the matching operation."""
    found = {}
    n200 = [s for s in tracer.spans[record["span_lo"]:record["span_hi"]]
            if s[OP].endswith("ladder:n200-d1")]
    solve = sum(s[END] - s[START] for s in n200
                if s[NAME] == "solver.sinkhorn")
    if solve:
        pre = sum(s[END] - s[START] for s in n200 if s[NAME] in (
            "measures.check_convex_order", "solver.relative_interior"))
        found["preflight share of the n=m=200 solve"] = pre / solve
    if "peacock:n50-a0.3" in per_op:
        found["outer iterations, peacock n=50 a=0.3"] = \
            per_op["peacock:n50-a0.3"].get("iterations")
    return found


def traced_report(args, runner, untraced, digest, host, failed_ops, start):
    """Per-layer metrics of the traced passes; prints the reconciliation
    with the untraced pass and the ROADMAP baseline, writes the spans."""
    tracer, ops = runner.tracer, runner.ops
    traced = [p for p in runner.passes if p["traced"]]
    layers = [_layer_metrics(tracer, p) for p in traced]
    if any(c != layers[0][1] for _, c in layers):
        runner.problems.append("span counts differ between traced passes")
    metrics = {name: (statistics.median(t[name][0] for t, _ in layers), unit)
               for name, (_, unit) in layers[0][0].items()}
    metrics.update(layers[0][1])
    overhead = metrics["bench.traced_wall_s"][0] - untraced["wall"]
    metrics["bench.trace_overhead_s"] = (overhead, "s")
    ratio = metrics["bench.self_sum_ratio"][0]
    print(f"tracing overhead: {overhead:+.4f} s per pass "
          f"(traced {metrics['bench.traced_wall_s'][0]:.4f} s, "
          f"untraced {untraced['wall']:.4f} s)")
    print(f"self times sum to {ratio:.4f} of the traced wall_s")
    if abs(ratio - 1.0) > SELF_SUM_TOLERANCE:
        runner.problems.append(f"self times sum to {ratio:.3f} of wall_s")
    if tracer.absent:
        print("absent spans:", ", ".join(tracer.absent))

    per_op = _op_counts(tracer, traced[0], ops)
    found = _baseline(tracer, traced[0], per_op)
    found["discrete simulator, ns per path-step"] = \
        metrics["dynamics.ns_per_path_step.discrete"][0]
    found["Wonham Euler, ns per path-step"] = \
        metrics["filtering.wonham_ns_per_path_step"][0]
    for label, value in found.items():
        lo, hi = BASELINE[label]
        if value:
            inside = 0.8 * lo <= value <= 1.2 * hi
            print(f"baseline: {label}: measured {value:.4g}, ROADMAP "
                  f"{lo:g}-{hi:g}, within 20%: {'yes' if inside else 'no'}")

    path = Path("perfbench") / "work" / \
        f"trace-{args.workload}-s{args.seed}.jsonl"
    header = {"kind": "run", "workload": args.workload, "seed": args.seed,
              "input_sha256": digest, "host": host, "absent": tracer.absent}
    records = [{"kind": "op", "op": name, "counts": c}
               for name, c in per_op.items()]
    records.append({"kind": "summary", "failed_ops": failed_ops,
                    "metrics": {k: v for k, (v, _) in metrics.items()}})
    write_jsonl(path, header, tracer.spans, records, start)
    print(f"spans: {len(tracer.spans)} written to {path}")
    return metrics


def main():
    args = _arguments()
    os.chdir(ROOT)
    work = Path("perfbench") / "work" / f"{args.workload}-s{args.seed}"
    try:
        cli, ops, digest = harness.prepare(args.workload, args.seed, work)
    except harness.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup = [time.perf_counter() - _T0]
    for k in range(SETUP_SAMPLES - 1):
        setup.append(_setup_probe(args.workload, args.seed,
                                  work.parent / f"{work.name}-probe{k}"))
    host = harness.host_record()
    print("host:", json.dumps(host))
    print(f"inputs: workload={args.workload} seed={args.seed} "
          f"ops/pass={len(ops)} sha256={digest}")
    print("setup samples (s):", ", ".join(f"{s:.4f}" for s in setup))

    tracer = None
    start = time.perf_counter()
    if args.trace:
        tracer = Tracer()
    runner = Runner(cli, ops, work, tracer)
    if args.trace:
        untraced = runner.run_pass()
        tracer.install()
        runner.run_until(args.seconds, start, traced=True)
        tracer.uninstall()
    else:
        runner.run_until(args.seconds, start)

    attempted, failed = runner.tally()
    failed_ops = sorted({op.name for p in runner.passes
                         for op, v in zip(ops, p["verdicts"])
                         if v == "failed"})
    for k, p in enumerate(runner.passes):
        print(f"pass {k}: wall {p['wall']:.4f} s over {len(ops)} ops"
              + (" (traced)" if p["traced"] else ""))
    print(f"fail_frac: {failed / attempted:.4f} ({failed} of {attempted} "
          f"operations)" + (f"; failed: {', '.join(failed_ops)}"
                            if failed_ops else ""))
    steps = sum(c.get("path_steps", 0) for c in runner.passes[0]["counts"])
    if steps:
        walls = statistics.median(p["wall"] for p in runner.passes)
        print(f"path_steps_per_s: {steps / walls:.6g} 1/s "
              f"({steps} path-steps per pass)")

    if args.trace:
        metrics = traced_report(args, runner, untraced, digest, host,
                                failed_ops, start)
    else:
        metrics = end_to_end(runner, statistics.median(setup))
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    shutil.rmtree(work, ignore_errors=True)
    for problem in runner.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not runner.problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
