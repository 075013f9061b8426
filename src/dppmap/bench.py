"""Run dispatch and the benchmark sweep harness."""

from __future__ import annotations

import csv
import time
from pathlib import Path

from . import doublegreedy, naive_variants, reference, variants
from .datagen import SyntheticSpec, gen_synthetic
from .greedy import GreedyConfig, fast_greedy, lazy_fast_greedy, lazy_greedy, naive_greedy
from .kernel import KernelOracle
from .report import RunReport
from .stream import DecisionStream
from .variants import VariantConfig

ALGORITHMS = (
    "naive", "lazy", "fast", "lazyfast",
    "random", "stochastic", "interlace",
    "double-naive", "double-fast",
)

CSV_COLUMNS = [
    "algo", "input_kind", "n", "d", "k", "seed", "epsilon",
    "time_ms", "greedy_ms", "U", "kernel_evals", "logdet", "terminated_early",
]

SOFT_SPEED_FACTOR = 1.2
OBJECTIVE_REL_TOL = 1e-8  # check_objective's bound, relative to max(1, |reference|)


def resolve_adjustment(algo: str, scale: float | None, shift: float | None) -> tuple[float, float]:
    """Per-algorithm affine defaults: double greedy regularizes, the rest don't."""
    if algo.startswith("double"):
        return (0.9 if scale is None else scale, 0.1 if shift is None else shift)
    return (1.0 if scale is None else scale, 0.0 if shift is None else shift)


def run_algorithm(algo: str, oracle: KernelOracle, k: int, seed: int = 0,
                  epsilon: float | None = None, deadline: float | None = None) -> RunReport:
    """Run one solver on an oracle and return its report.

    The oracle must already carry the desired scale/shift adjustment.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
    if algo in ("naive", "lazy", "fast", "lazyfast"):
        cfg = GreedyConfig(k=k)
        fn = {"naive": naive_greedy, "lazy": lazy_greedy,
              "fast": fast_greedy, "lazyfast": lazy_fast_greedy}[algo]
        report = fn(oracle, cfg, deadline=deadline)
        report.seed = seed
        return report
    if algo in ("random", "stochastic", "interlace"):
        cfg = VariantConfig(k=k, epsilon=epsilon)
        if algo == "random":
            return variants.random_greedy_lf(oracle, cfg, DecisionStream(seed), deadline=deadline)
        if algo == "stochastic":
            return variants.stochastic_greedy_lf(oracle, cfg, DecisionStream(seed), deadline=deadline)
        return variants.interlace_greedy_lf(oracle, cfg, deadline=deadline)
    if algo == "double-fast":
        return doublegreedy.fast_double_greedy(oracle, DecisionStream(seed), deadline=deadline)
    # double-naive: the brute force takes the materialized kernel
    evals0, t0 = oracle.eval_count, time.perf_counter()
    matrix = oracle.materialize()
    product_ms = (time.perf_counter() - t0) * 1000.0
    report = doublegreedy.naive_double_greedy(matrix, DecisionStream(seed), deadline=deadline)
    report.d, report.input_kind = oracle.d, oracle.input_kind
    report.kernel_evals = oracle.eval_count - evals0
    report.timings.update(product_ms=product_ms, setup_ms=product_ms,
                          total_ms=product_ms + report.timings["total_ms"])
    return report


def check_objective(oracle: KernelOracle, report: RunReport) -> float:
    """Cross-check the reported objective against a brute-force log-det."""
    expected = reference.log_det(oracle.materialize(), report.selection)
    err = abs(report.final_objective - expected)
    if err > OBJECTIVE_REL_TOL * max(1.0, abs(expected)):
        raise AssertionError(
            f"objective check failed: reported {report.final_objective!r}, "
            f"reference {expected!r}")
    report.extras["objective_check_abs_err"] = err
    return err


def naive_twin_report(algo: str, oracle: KernelOracle, k: int, seed: int,
                      epsilon: float | None = None) -> RunReport:
    """The brute-force twin for a variant, on the coupled randomness."""
    cfg = VariantConfig(k=k, epsilon=epsilon)
    if algo == "random":
        return naive_variants.naive_random_greedy(oracle, cfg, DecisionStream(seed))
    if algo == "stochastic":
        return naive_variants.naive_stochastic_greedy(oracle, cfg, DecisionStream(seed))
    if algo == "interlace":
        return naive_variants.naive_interlace_greedy(oracle, cfg)
    raise ValueError(f"no naive twin for {algo!r}")


def _report_row(report: RunReport) -> dict:
    timings = report.timings
    time_ms = timings.get("total_ms", timings.get("greedy_ms", 0.0))
    return {
        "algo": report.algo,
        "input_kind": report.input_kind,
        "n": report.n,
        "d": report.d,
        "k": report.k,
        "seed": report.seed if report.seed is not None else "",
        "epsilon": report.epsilon if report.epsilon is not None else "",
        "time_ms": f"{time_ms:.3f}",
        "greedy_ms": f"{timings.get('greedy_ms', 0.0):.3f}",
        "U": report.offdiag_count,
        "kernel_evals": report.kernel_evals,
        "logdet": repr(report.final_objective),
        "terminated_early": "timeout" if report.timed_out else str(report.terminated_early).lower(),
    }


def _failed_row(algo, oracle, k, seed, epsilon, reason) -> dict:
    return {
        "algo": algo, "input_kind": oracle.input_kind, "n": oracle.n, "d": oracle.d,
        "k": k, "seed": seed, "epsilon": epsilon if epsilon is not None else "",
        "time_ms": "", "greedy_ms": "", "U": "", "kernel_evals": "",
        "logdet": "", "terminated_early": reason,
    }


def build_synthetic_oracle(n: int, d: int | None, seed: int, input_kind: str,
                           scale: float = 1.0, shift: float = 0.0) -> KernelOracle:
    """Standard-normal features; either wrapped directly (B) or multiplied out (L)."""
    features = gen_synthetic(SyntheticSpec(n=n, d=d, seed=seed))
    bora = KernelOracle.from_dense_features(features, scale, shift)
    if input_kind == "B":
        return bora
    matrix = bora.materialize()
    bora.eval_count = 0
    return KernelOracle.from_dense_kernel(matrix)


def bench_cells(algos, n_values, k_values, d=None, seeds=(1,), epsilon=0.5,
                input_kind="B", scale=None, shift=None, timeout_s=None) -> list[dict]:
    """Sweep a (n x k x seed x algo) grid of synthetic instances, serially.

    Instances are generated per (n, seed); each algorithm gets its own oracle
    so evaluation counters stay honest.  Cells that hit the per-cell timeout
    are recorded with ``terminated_early=timeout``.
    """
    rows: list[dict] = []
    for n in n_values:
        for seed in seeds:
            for algo in algos:
                cell_scale, cell_shift = resolve_adjustment(algo, scale, shift)
                oracle = build_synthetic_oracle(n, d, seed, input_kind, cell_scale, cell_shift)
                for k in k_values:
                    deadline = None if timeout_s is None else time.perf_counter() + timeout_s
                    try:
                        report = run_algorithm(algo, oracle, k, seed=seed,
                                               epsilon=epsilon, deadline=deadline)
                        rows.append(_report_row(report))
                    except Exception as exc:  # noqa: BLE001 - recorded per cell
                        rows.append(_failed_row(algo, oracle, k, seed, epsilon,
                                                f"error:{type(exc).__name__}"))
    return rows


def soft_speed_warnings(rows) -> list[str]:
    """Warn when a lazyfast cell is slower than 1.2x its fast sibling."""
    fast_times: dict[tuple, float] = {}
    for row in rows:
        if row["algo"] == "fast" and row["time_ms"]:
            key = (row["n"], row["d"], row["k"], row["seed"], row["input_kind"])
            fast_times[key] = float(row["time_ms"])
    warnings = []
    for row in rows:
        if row["algo"] != "lazyfast" or not row["time_ms"]:
            continue
        key = (row["n"], row["d"], row["k"], row["seed"], row["input_kind"])
        if key in fast_times:
            lf, fa = float(row["time_ms"]), fast_times[key]
            if lf > SOFT_SPEED_FACTOR * fa:
                warnings.append(
                    f"WARNING: lazyfast {lf:.1f} ms exceeds {SOFT_SPEED_FACTOR} x fast "
                    f"{fa:.1f} ms on n={row['n']} k={row['k']} seed={row['seed']}")
    return warnings


def write_rows(path, rows) -> None:
    """Append rows to a CSV, creating it (with header) if needed."""
    path = Path(path)
    fresh = not path.exists()
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        if fresh:
            writer.writeheader()
        writer.writerows(rows)
