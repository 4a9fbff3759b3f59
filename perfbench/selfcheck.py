"""Check that two traced runs with the same seed agree on every exact count.

    python3 perfbench/selfcheck.py --workload peacock --seed 1

Runs ``run.py --trace 1`` twice and compares the input hash, the failed and
attempted totals, and each operation's exact counts (exit code, bytes
written, solver iterations, fiber Newton calls, LP variables and dense
``A_eq`` bytes, relative-interior LPs, path-steps). Times are not compared.
Exits 1 on any difference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600,
        check=False)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = BENCH / "work" / f"trace-{workload}-s{seed}.jsonl"
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    ops = {rec["op"]: rec["counts"] for rec in lines if rec["kind"] == "op"}
    return {"input_sha256": lines[0]["input_sha256"],
            "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "ops": ops}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    first = traced_run(args.workload, args.seed)
    second = traced_run(args.workload, args.seed)
    diffs = [key for key in first if first[key] != second[key]]
    diffs += [f"op {name}" for name in first["ops"]
              if first["ops"][name] != second["ops"].get(name)]
    print(f"{args.workload} seed {args.seed}: {len(first['ops'])} ops, "
          f"input sha256 {first['input_sha256'][:16]}..., "
          f"failed {first['failed']} of {first['attempted']}")
    if diffs or not first["correct"]:
        print("MISMATCH: " + ", ".join(diffs or ["run incorrect"]))
        return 1
    print("exact counts repeat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
