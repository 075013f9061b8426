"""Command-line harness: instance generation, runs, sweeps, and verification.

Subcommands:
  gen     write a synthetic feature matrix
  ingest  binarize rating triples into a sparse feature matrix
  run     run one algorithm on one instance, write a JSON report
  bench   sweep a grid and append one JSON report line per cell
  verify  run the invariant/differential battery (nonzero exit on failure)
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from . import bench as benchmod
from . import matrixio, verify
from .bench import ALGORITHMS, EPSILON, resolve_adjustment, run_algorithm
from .datagen import SyntheticSpec, binarize_ratings, convert_netflix, gen_synthetic, read_triples, write_idmap
from .kernel import KernelOracle


def _parse_list(text: str, item, what: str) -> list:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")
    return [item(tok) for tok in tokens]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _seconds(text: str) -> float:
    value = float(text)
    if math.isnan(value):  # a deadline of now + NaN is never reached
        raise argparse.ArgumentTypeError(f"expected a number of seconds, got {text!r}")
    return value


def _parse_positive_list(text: str) -> list[int]:
    return _parse_list(text, _positive_int, "integers")


def _parse_seed_list(text: str) -> list[int]:
    return _parse_list(text, _non_negative_int, "integers")


def _algorithm(name: str) -> str:
    if name not in ALGORITHMS:
        raise argparse.ArgumentTypeError(f"unknown algorithm {name!r}; choose from {', '.join(ALGORITHMS)}")
    return name


def _parse_algos(text: str) -> list[str]:
    return _parse_list(text, _algorithm, "algorithm names")


def load_oracle(path: str, input_kind: str, scale: float, shift: float) -> KernelOracle:
    kind, payload = matrixio.load_matrix(path)
    if input_kind == "L":
        if kind != "dense":
            raise ValueError("kernel (L) input requires a dense matrix file")
        return KernelOracle.from_dense_kernel(payload, scale, shift)
    if kind == "dense":
        return KernelOracle.from_dense_features(payload, scale, shift)
    # read_sparse has validated the columns, which from_sparse_features would check again;
    # the constructor still judges the adjusted diagonal, which needs the scale and shift.
    return KernelOracle(scale, shift, sparse=payload)


def cmd_gen(args) -> int:
    try:
        matrix = gen_synthetic(SyntheticSpec(n=args.n, d=args.d, seed=args.seed))
    except ValueError as exc:  # the parser has refused sizes below 1, so the sizes are too large
        print(f"dppmap gen: error: argument --n/--d: {exc}", file=sys.stderr)
        return 2
    matrixio.write_dense(args.out, matrix)
    print(f"wrote {matrix.shape[0]}x{matrix.shape[1]} feature matrix to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    read = convert_netflix if args.format == "netflix" else read_triples
    cols, idmap = binarize_ratings(read(args.input), args.threshold, drop_empty=not args.keep_empty)
    matrixio.write_sparse(args.out, cols)
    write_idmap(f"{args.out}.idmap.json", idmap)
    print(f"wrote {cols.ncols} items x {cols.dim} users ({cols.indices.size} entries) to {args.out}")
    return 0


def cmd_run(args) -> int:
    scale, shift = resolve_adjustment(args.algo, args.scale, args.shift)
    oracle = load_oracle(args.input, args.input_kind, scale, shift)
    deadline = None if args.timeout_s is None else time.perf_counter() + args.timeout_s
    k = args.k if args.k is not None else oracle.n
    report = run_algorithm(args.algo, oracle, k, seed=args.seed,
                           epsilon=args.epsilon, deadline=deadline)
    if args.check:
        benchmod.check_objective(oracle, report)
    if args.out:
        report.write_json(args.out)
        print(f"wrote report to {args.out}")
    else:
        sys.stdout.write(report.to_json())
    return 0


def cmd_bench(args) -> int:
    cells = benchmod.bench_cells(
        args.algos, args.n, args.k, d=args.d, seeds=args.seed,
        epsilon=args.epsilon, input_kind=args.input_kind,
        scale=args.scale, shift=args.shift,
        timeout_s=args.timeout_s)
    reports = []
    with open(args.out, "a") as fh:
        for report in cells:  # each line is written as its cell finishes
            fh.write(report.to_json_line())
            fh.flush()
            reports.append(report)
    for warning in benchmod.soft_speed_warnings(reports):
        print(warning, file=sys.stderr)
    print(f"appended {len(reports)} reports to {args.out}")
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all(quick=args.quick)
    failed = 0
    for res in results:
        print(res.line())
        failed += 0 if res.ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def _add_adjustment(p) -> None:
    p.add_argument("--scale", type=float, default=None,
                   help="kernel scale (default 1.0; 0.9 for double greedy)")
    p.add_argument("--shift", type=float, default=None,
                   help="diagonal shift (default 0.0; 0.1 for double greedy)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dppmap", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic feature matrix")
    p.add_argument("--n", type=_positive_int, required=True, help="number of items")
    p.add_argument("--d", type=_positive_int, default=None, help="feature dimension (default: n)")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("ingest", help="binarize rating triples")
    p.add_argument("--input", required=True,
                   help="CSV of user,item,rating triples, or a per-movie file with --format netflix")
    p.add_argument("--format", choices=("triples", "netflix"), default="triples")
    p.add_argument("--threshold", type=float, default=4.0)
    p.add_argument("--keep-empty", action="store_true",
                   help="keep ids with no qualifying ratings")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("run", help="run one algorithm")
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--input", required=True)
    p.add_argument("--input-kind", choices=("B", "L"), default="B")
    p.add_argument("--k", type=_positive_int, default=None,
                   help="cardinality bound (default: n); the double greedies take none")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--epsilon", type=float, default=EPSILON,
                   help=f"stochastic greedy's epsilon (default {EPSILON}); no other algorithm reads it")
    _add_adjustment(p)
    p.add_argument("--timeout-s", type=_seconds, default=None)
    p.add_argument("--check", action="store_true",
                   help="cross-check the objective against brute force")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("bench", help="sweep a grid, append one JSON report line per cell")
    p.add_argument("--algos", type=_parse_algos, required=True, help="comma-separated algorithm names")
    p.add_argument("--n", type=_parse_positive_list, required=True, help="comma-separated item counts")
    p.add_argument("--d", type=_positive_int, default=None, help="feature dimension (default: n)")
    p.add_argument("--k", type=_parse_positive_list, required=True, help="comma-separated cardinality bounds")
    p.add_argument("--seed", type=_parse_seed_list, default=[1], help="comma-separated seeds (default: 1)")
    p.add_argument("--epsilon", type=float, default=EPSILON,
                   help=f"stochastic greedy's epsilon (default {EPSILON})")
    p.add_argument("--input-kind", choices=("B", "L"), default="B")
    _add_adjustment(p)
    p.add_argument("--timeout-s", type=_seconds, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("verify", help="run the invariant battery")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.k is not None and args.algo.startswith("double"):
        parser.error(f"argument --k: {args.algo} takes no k; a double greedy decides on all n items")
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
