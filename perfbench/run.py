"""Closed-loop request benchmark for dppmap.

    python3 perfbench/run.py                  # every workload, each in its own process
    python3 perfbench/run.py --workload fast-B --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --trace 1        # per-layer numbers from a traced run

Run it from the root of a source checkout: it imports ``dppmap`` from
``src/`` there, never from an installed copy, and writes its scratch files
under ``.perfbench-work/``.  It prints every metric by name with its unit;
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every request matched its reference (and, traced, every count reconciled),
1 when not, and 2 when the program could not be loaded at all.

BLAS runs on one thread (OPENBLAS/OMP/MKL_NUM_THREADS=1, set before numpy
loads): the solvers are single-threaded Python, and a second BLAS thread
would only compete with them on a 2-core host.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK_ROOT = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("lazyfast-L", "fast-B", "random-sparse-run", "double-L")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_OVERHEAD_S = 160  # set-up, warm-up and checks around the timed loop


class LoadError(Exception):
    """The program under test cannot be imported from this checkout."""


def load_program() -> None:
    """Put this checkout's ``src/`` and the benchmark package on the path."""
    pkg = ROOT / "src" / "dppmap"
    if not (pkg / "__init__.py").is_file():
        raise LoadError(f"no dppmap sources at {pkg}")
    if "numpy" not in sys.modules:
        for var in BLAS_THREAD_VARS:
            os.environ[var] = "1"
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    import dppmap

    if Path(dppmap.__file__).resolve().parent != pkg.resolve():
        raise LoadError(f"dppmap imported from {dppmap.__file__}, not from {pkg}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1, help="workload seed: instances and request seeds")
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate traced requests and report per-layer metrics")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long smoke sizes for the self-tests")
    return parser.parse_args(argv)


def run_one(args) -> int:
    from perfbench.runner import run_workload

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          size=args.size, work_root=WORK_ROOT)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so each reports its own peak memory."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=args.seconds + CHILD_OVERHEAD_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"workload {name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return 2
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except (LoadError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
