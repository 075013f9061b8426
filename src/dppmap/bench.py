"""Run dispatch and the benchmark sweep harness."""

from __future__ import annotations

import time
from collections.abc import Iterator

from . import doublegreedy, naive_variants, reference, variants
from .datagen import SyntheticSpec, gen_synthetic
from .greedy import GreedyConfig, fast_greedy, lazy_fast_greedy, lazy_greedy, naive_greedy
from .kernel import KernelOracle
from .report import RunReport
from .stream import DecisionStream
from .variants import VariantConfig

SOFT_SPEED_FACTOR = 1.2
OBJECTIVE_REL_TOL = 1e-8  # check_objective's bound, relative to max(1, |reference|)
EPSILON = 0.5  # stochastic greedy's epsilon when the caller names none; no other solver reads it


def resolve_adjustment(algo: str, scale: float | None, shift: float | None) -> tuple[float, float]:
    """Per-algorithm affine defaults: double greedy regularizes, the rest don't."""
    if algo.startswith("double"):
        return (0.9 if scale is None else scale, 0.1 if shift is None else shift)
    return (1.0 if scale is None else scale, 0.0 if shift is None else shift)


def _greedy(solver):
    def run(oracle, k, seed, epsilon, deadline):
        report = solver(oracle, GreedyConfig(k=k), deadline=deadline)
        report.seed = seed  # recorded, not read: these solvers draw nothing
        return report
    return run


def _drawn(solver):
    return lambda oracle, k, seed, epsilon, deadline: solver(
        oracle, VariantConfig(k=k, epsilon=epsilon), DecisionStream(seed), deadline=deadline)


def _double(solver):
    return lambda oracle, k, seed, epsilon, deadline: solver(oracle, DecisionStream(seed), deadline=deadline)


# name -> fn(oracle, k, seed, epsilon, deadline) -> RunReport, for every solver.
# The double greedies ignore k: they decide on all n items.
SOLVERS = {
    "naive": _greedy(naive_greedy),
    "lazy": _greedy(lazy_greedy),
    "fast": _greedy(fast_greedy),
    "lazyfast": _greedy(lazy_fast_greedy),
    "random": _drawn(variants.random_greedy_lf),
    "stochastic": _drawn(variants.stochastic_greedy_lf),
    "interlace": _greedy(variants.interlace_greedy_lf),
    "double-naive": _double(doublegreedy.naive_double_greedy),
    "double-fast": _double(doublegreedy.fast_double_greedy),
    "random-naive": _drawn(naive_variants.naive_random_greedy),
    "stochastic-naive": _drawn(naive_variants.naive_stochastic_greedy),
    "interlace-naive": _greedy(naive_variants.naive_interlace_greedy),
}
TWINS = ("random-naive", "stochastic-naive", "interlace-naive")  # differential references, not run choices
ALGORITHMS = tuple(name for name in SOLVERS if name not in TWINS)


def run_algorithm(algo: str, oracle: KernelOracle, k: int, seed: int = 0,
                  epsilon: float | None = None, deadline: float | None = None) -> RunReport:
    """Run the solver named ``algo`` (any :data:`SOLVERS` name) on an oracle and return its report.

    The oracle must already carry the desired scale/shift adjustment.
    """
    if algo not in SOLVERS:
        raise ValueError(f"unknown algorithm {algo!r}; choose from {tuple(SOLVERS)}")
    return SOLVERS[algo](oracle, k, seed, epsilon, deadline)


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


def build_synthetic_oracle(n: int, d: int | None, seed: int, input_kind: str,
                           scale: float = 1.0, shift: float = 0.0) -> KernelOracle:
    """Standard-normal features; either wrapped directly (B) or multiplied out (L)."""
    features = gen_synthetic(SyntheticSpec(n=n, d=d, seed=seed))
    bora = KernelOracle.from_dense_features(features, scale, shift)
    if input_kind == "B":
        return bora
    return KernelOracle.from_dense_kernel(bora.materialize())


def bench_cells(algos, n_values, k_values, d=None, seeds=(1,), epsilon=EPSILON,
                input_kind="B", scale=None, shift=None, timeout_s=None) -> Iterator[RunReport]:
    """Sweep a (n x k x seed x algo) grid of synthetic instances, serially, yielding one report per cell.

    Each report is yielded as its cell finishes.  A double greedy decides
    on all n items whatever k, so it has one cell per (n, seed), with
    k = n as its report records.  One instance is built per (n, seed,
    adjustment) and shared by every algorithm that takes that adjustment:
    at most two, the default one and the double greedies'.  A
    report's ``kernel_evals`` counts from the oracle's count as its run
    starts, so sharing an oracle leaves the counters as they are.  A cell
    that hits the per-cell timeout is its solver's report with
    ``timed_out`` set.  A cell that raises, building its instance included,
    is a report of the cell's own fields with ``extras["error"]`` naming the
    exception; its counters stay zero and its ``timings`` empty.  A build
    that raises is retried, and fails, for each cell that needs it.  Its
    ``d`` is the oracle's, or the requested one when no oracle was built,
    and it records ``epsilon`` only for the stochastic solvers, as they do.
    """
    for n in n_values:
        for seed in seeds:
            oracles = {}  # adjustment -> the instance built with it
            for algo in algos:
                adjustment = resolve_adjustment(algo, scale, shift)
                for k in (n,) if algo.startswith("double") else k_values:
                    oracle = oracles.get(adjustment)
                    try:
                        if oracle is None:
                            oracle = oracles[adjustment] = build_synthetic_oracle(n, d, seed, input_kind, *adjustment)
                        deadline = None if timeout_s is None else time.perf_counter() + timeout_s
                        report = run_algorithm(algo, oracle, k, seed=seed, epsilon=epsilon, deadline=deadline)
                    except Exception as exc:  # noqa: BLE001 - recorded per cell
                        cell_d = oracle.d if oracle is not None else (n if d is None else d)
                        report = RunReport(algo=algo, n=n, d=cell_d, k=k, input_kind=input_kind, seed=seed,
                                           epsilon=epsilon if algo.startswith("stochastic") else None,
                                           extras={"error": type(exc).__name__})
                    yield report


def soft_speed_warnings(reports) -> list[str]:
    """Warn when a lazyfast cell is slower than 1.2x its fast sibling; failed cells are skipped."""
    def key(report):
        return (report.n, report.d, report.k, report.seed, report.input_kind)

    done = [r for r in reports if "error" not in r.extras]
    fast_times = {key(r): r.timings["total_ms"] for r in done if r.algo == "fast"}
    warnings = []
    for r in done:
        if r.algo == "lazyfast" and key(r) in fast_times:
            lf, fa = r.timings["total_ms"], fast_times[key(r)]
            if lf > SOFT_SPEED_FACTOR * fa:
                warnings.append(
                    f"WARNING: lazyfast {lf:.1f} ms exceeds {SOFT_SPEED_FACTOR} x fast "
                    f"{fa:.1f} ms on n={r.n} k={r.k} seed={r.seed}")
    return warnings
