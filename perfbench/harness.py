"""Set-up and single-operation execution shared by the benchmark scripts.

Importing this module pins the BLAS thread count before numpy loads. Run
as a script, it performs one cold set-up (import mbridge, write the inputs,
warm every code path) in a fresh interpreter and prints its duration, which
``run.py`` uses as one ``setup_s`` sample:

    python3 perfbench/harness.py --workload ladder --seed 1 --work DIR
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# one BLAS thread: the machine has few cores and single-threaded small
# matrix work is steadier from run to run
BLAS_THREADS = "1"
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = BLAS_THREADS


class MissingProgram(RuntimeError):
    """The checkout does not hold the mbridge sources."""


def import_cli():
    """Import ``mbridge.cli`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "mbridge" / "cli.py").is_file():
        raise MissingProgram(f"no mbridge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mbridge.cli as cli
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise MissingProgram(f"mbridge was imported from {cli.__file__}")
    return cli


def host_record():
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {}).get("name", "unknown")
    return {"cpu": cpu, "nproc": nproc, "blas": blas,
            "blas_threads": int(BLAS_THREADS),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def run_op(cli, op, work, out):
    """Run one operation through ``cli.main``; return (exit, seconds, log).

    The output directory is emptied first so that the oracle sees only
    this run's files. Only the ``cli.main`` call is timed. A crash that
    escapes ``main`` is returned as exit ``None`` with its traceback.
    """
    if out.exists():
        shutil.rmtree(out)
    argv = [a.replace("{work}", str(work)).replace("{out}", str(out))
            for a in op.argv]
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the oracle reports it; the run goes on
            code = None
            log.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return code, seconds, log.getvalue()


def prepare(workload, seed, work):
    """Import mbridge, write the inputs and run one warm-up of each kind.

    Returns (cli module, ops of one pass, sha256 of the inputs).
    """
    cli = import_cli()
    import workloads
    ops = workloads.build_ops(workload, seed)
    warm = workloads.warmup_ops()
    digest = workloads.write_inputs(ops, work)
    workloads.write_inputs(warm, work)
    for op in warm:
        run_op(cli, op, work, work / "warmup")
    shutil.rmtree(work / "warmup", ignore_errors=True)
    return cli, ops, digest


def _main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    work = Path(args.work)
    try:
        prepare(args.workload, args.seed, work)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - _T0
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
