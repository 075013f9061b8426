import time

import pytest

from dppmap.bench import (
    ALGORITHMS,
    EPSILON,
    SOLVERS,
    bench_cells,
    build_synthetic_oracle,
    check_objective,
    resolve_adjustment,
    run_algorithm,
    soft_speed_warnings,
)
from dppmap.report import RunReport

DOUBLES = ("double-naive", "double-fast")


def test_resolve_adjustment_defaults():
    assert resolve_adjustment("fast", None, None) == (1.0, 0.0)
    assert resolve_adjustment("double-fast", None, None) == (0.9, 0.1)
    assert resolve_adjustment("double-naive", None, None) == (0.9, 0.1)
    assert resolve_adjustment("double-fast", 0.5, None) == (0.5, 0.1)
    assert resolve_adjustment("lazyfast", None, 2.0) == (1.0, 2.0)


def test_run_algorithm_dispatch_smoke():
    for algo in SOLVERS:
        scale, shift = resolve_adjustment(algo, None, None)
        oracle = build_synthetic_oracle(13, 13, 1, "B", scale, shift)
        report = run_algorithm(algo, oracle, k=3, seed=2, epsilon=0.5)
        assert report.n == 13, algo
    with pytest.raises(ValueError, match="unknown"):
        run_algorithm("bogus", oracle, 2)


@pytest.mark.parametrize("algo", SOLVERS)
def test_brute_force_solvers_time_their_materialize_as_setup(algo):
    """Every solver reports the time before its first step as ``setup_ms``: a brute-force
    solver's materialize, a factor's diagonal lookups and queue build."""
    scale, shift = resolve_adjustment(algo, None, None)
    report = run_algorithm(algo, build_synthetic_oracle(40, 40, 1, "B", scale, shift), 5, seed=1, epsilon=0.5)
    timings = report.timings
    assert timings["setup_ms"] > 0.0
    assert timings["greedy_ms"] == timings["total_ms"] - timings["setup_ms"]


@pytest.mark.parametrize("algo", SOLVERS)
def test_deadline_already_passed_times_out(algo):
    scale, shift = resolve_adjustment(algo, None, None)
    oracle = build_synthetic_oracle(30, 30, 1, "B", scale, shift)
    report = run_algorithm(algo, oracle, 5, seed=1, epsilon=0.5, deadline=time.perf_counter() - 1.0)
    assert report.timed_out
    assert report.selection == []
    # interlace reports k attempted steps however its runs end
    assert report.steps_attempted == (5 if algo.startswith("interlace") else 0)


def test_deadline_mid_run_is_partial_but_consistent():
    oracle = build_synthetic_oracle(60, 60, 2, "B")
    report = run_algorithm("fast", oracle, k=20, deadline=time.perf_counter())
    assert report.timed_out
    assert len(report.selection) < 20
    assert len(report.objective_trace) == len(report.selection)


def test_bench_cells_records_a_timeout_as_the_report_flag():
    (report,) = bench_cells(["fast"], [40], [10], seeds=(1,), timeout_s=0.0)
    assert report.timed_out
    assert RunReport.from_json(report.to_json_line()).timed_out


def test_bench_cells_records_a_failed_cell():
    """random greedy needs n >= 2k and stochastic n >= 3k; each cell records the error and zero
    counters, and ``epsilon`` only where the solver reads it."""
    random, stochastic = bench_cells(["random", "stochastic"], [7], [4], seeds=(2,), epsilon=0.25)
    for report, epsilon in ((random, None), (stochastic, 0.25)):
        assert report.extras == {"error": "ValueError"}
        assert (report.n, report.d, report.k, report.input_kind, report.seed, report.epsilon) == (
            7, 7, 4, "B", 2, epsilon), report.algo
        assert (report.offdiag_count, report.kernel_evals, report.pq_ops, report.timings) == (0, 0, 0, {})
        assert RunReport.from_json(report.to_json_line()) == report
    assert (random.algo, stochastic.algo) == ("random", "stochastic")


@pytest.mark.parametrize("input_kind", ["B", "L"])
def test_bench_cells_share_an_instance_without_changing_a_report(input_kind):
    """Every algorithm on a shared instance reports what it reports on a fresh one, timings aside.

    The double greedies decide on all n items whatever k, so each runs once per (n, seed), with k = n.
    """
    grid = dict(n_values=[12, 14], k_values=[2, 3], seeds=(1, 2))
    shared = bench_cells(ALGORITHMS, **grid, input_kind=input_kind)

    def fresh_oracle(n, seed, algo):
        return build_synthetic_oracle(n, None, seed, input_kind, *resolve_adjustment(algo, None, None))

    fresh = (run_algorithm(algo, fresh_oracle(n, seed, algo), k, seed=seed, epsilon=EPSILON)
             for n in grid["n_values"] for seed in grid["seeds"] for algo in ALGORITHMS
             for k in ([n] if algo in DOUBLES else grid["k_values"]))
    pairs = list(zip(shared, fresh, strict=True))
    assert len(pairs) == 2 * 2 * ((len(ALGORITHMS) - len(DOUBLES)) * 2 + len(DOUBLES))
    for got, want in pairs:
        assert "error" not in got.extras, got.algo
        assert got.to_json(include_timings=False) == want.to_json(include_timings=False), (got.algo, got.n, got.k)


def test_a_failed_build_gives_one_error_report_per_cell():
    algos = ["fast", "lazyfast", "double-fast"]
    reports = list(bench_cells(algos, [-3], [2, 3], seeds=(1, 2)))
    assert [(r.algo, r.seed, r.k, r.d, r.extras) for r in reports] == [
        (algo, seed, k, -3, {"error": "ValueError"}) for seed in (1, 2) for algo in algos
        for k in ([-3] if algo == "double-fast" else [2, 3])]


def test_bench_cells_grid_shape():
    reports = list(bench_cells(["fast", "lazyfast"], [15, 20], [3], seeds=(1, 2)))
    assert len(reports) == 2 * 2 * 1 * 2
    assert {r.n for r in reports} == {15, 20}


def test_soft_speed_warning_trigger():
    def cell(algo, total_ms=None):
        report = RunReport(algo=algo, n=10, d=10, k=2, input_kind="B", seed=1)
        if total_ms is None:
            report.extras["error"] = "ValueError"
        else:
            report.timings["total_ms"] = total_ms
        return report

    reports = [cell("fast", 100.0), cell("lazyfast", 150.0), cell("lazyfast")]
    assert soft_speed_warnings(reports) == [
        "WARNING: lazyfast 150.0 ms exceeds 1.2 x fast 100.0 ms on n=10 k=2 seed=1"]
    reports[1].timings["total_ms"] = 90.0
    assert soft_speed_warnings(reports) == []


def test_check_objective_accepts_and_rejects():
    oracle = build_synthetic_oracle(10, 10, 3, "B")
    report = run_algorithm("lazyfast", oracle, k=3)
    check_objective(oracle, report)
    report.final_objective += 1.0
    with pytest.raises(AssertionError):
        check_objective(oracle, report)
