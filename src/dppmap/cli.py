"""Command-line harness: instance generation, runs, sweeps, and verification.

Subcommands:
  gen     write a synthetic feature matrix
  ingest  binarize rating triples into a sparse feature matrix
  run     run one algorithm on one instance, write a JSON report
  bench   sweep a grid and append CSV rows
  verify  run the invariant/differential battery (nonzero exit on failure)
"""

from __future__ import annotations

import argparse
import sys
import time

from . import bench as benchmod
from . import matrixio, verify
from .bench import ALGORITHMS, resolve_adjustment, run_algorithm
from .datagen import (RatingsSpec, SyntheticSpec, binarize_ratings, convert_netflix, gen_synthetic,
                      ingest_ratings, write_idmap)
from .kernel import KernelOracle


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def load_oracle(path: str, input_kind: str, scale: float, shift: float) -> KernelOracle:
    kind, payload = matrixio.load_matrix(path)
    if input_kind == "L":
        if kind != "dense":
            raise ValueError("kernel (L) input requires a dense matrix file")
        return KernelOracle.from_dense_kernel(payload, scale, shift)
    if kind == "dense":
        return KernelOracle.from_dense_features(payload, scale, shift)
    return KernelOracle.from_sparse_features(payload, scale, shift)


def cmd_gen(args) -> int:
    matrix = gen_synthetic(SyntheticSpec(n=args.n, d=args.d, seed=args.seed))
    matrixio.write_dense(args.out, matrix)
    print(f"wrote {matrix.shape[0]}x{matrix.shape[1]} feature matrix to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    spec = RatingsSpec(path=args.input, threshold=args.threshold,
                       drop_empty=not args.keep_empty)
    if args.format == "netflix":
        cols, idmap = binarize_ratings(convert_netflix([args.input]), spec)
    else:
        cols, idmap = ingest_ratings(spec)
    matrixio.write_sparse(args.out, cols)
    write_idmap(f"{args.out}.idmap.json", idmap)
    nnz = sum(idx.size for idx in cols.indices)
    print(f"wrote {cols.ncols} items x {cols.dim} users ({nnz} entries) to {args.out}")
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
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for algo in algos:
        if algo not in ALGORITHMS:
            raise SystemExit(f"unknown algorithm {algo!r}")
    n_values = args.n_grid if args.n_grid else [args.n]
    k_values = args.k_grid if args.k_grid else [args.k]
    if any(v is None for v in n_values) or any(v is None for v in k_values):
        raise SystemExit("bench needs --n/--n-grid and --k/--k-grid")
    seeds = args.seeds if args.seeds else [args.seed if args.seed is not None else 1]
    rows = benchmod.bench_cells(
        algos, n_values, k_values, d=args.d, seeds=seeds,
        epsilon=args.epsilon, input_kind=args.input_kind,
        scale=args.scale, shift=args.shift,
        timeout_s=args.timeout_s)
    benchmod.write_rows(args.out, rows)
    for warning in benchmod.soft_speed_warnings(rows):
        print(warning, file=sys.stderr)
    print(f"appended {len(rows)} rows to {args.out}")
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all(quick=args.quick)
    failed = 0
    for res in results:
        print(res.line())
        failed += 0 if res.ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dppmap", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic feature matrix")
    p.add_argument("--n", type=int, required=True, help="number of items")
    p.add_argument("--d", type=int, default=None, help="feature dimension (default: n)")
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--k", type=int, default=None, help="cardinality bound (default: n)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--scale", type=float, default=None,
                   help="kernel scale (default 1.0; 0.9 for double greedy)")
    p.add_argument("--shift", type=float, default=None,
                   help="diagonal shift (default 0.0; 0.1 for double greedy)")
    p.add_argument("--timeout-s", type=float, default=None)
    p.add_argument("--check", action="store_true",
                   help="cross-check the objective against brute force")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("bench", help="sweep a grid, append CSV rows")
    p.add_argument("--algos", required=True, help="comma-separated algorithm names")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-grid", type=_parse_int_list, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--k-grid", type=_parse_int_list, default=None)
    p.add_argument("--seeds", type=_parse_int_list, default=None)
    p.add_argument("--seed", type=int, default=None, help="single-seed shorthand")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--input-kind", choices=("B", "L"), default="B")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--shift", type=float, default=None)
    p.add_argument("--timeout-s", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("verify", help="run the invariant battery")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
