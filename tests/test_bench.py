import time

import pytest

from dppmap.bench import (
    ALGORITHMS,
    bench_cells,
    build_synthetic_oracle,
    check_objective,
    resolve_adjustment,
    run_algorithm,
    soft_speed_warnings,
)
from dppmap.naive_variants import naive_interlace_greedy, naive_random_greedy, naive_stochastic_greedy
from dppmap.stream import DecisionStream
from dppmap.variants import VariantConfig


def test_resolve_adjustment_defaults():
    assert resolve_adjustment("fast", None, None) == (1.0, 0.0)
    assert resolve_adjustment("double-fast", None, None) == (0.9, 0.1)
    assert resolve_adjustment("double-naive", None, None) == (0.9, 0.1)
    assert resolve_adjustment("double-fast", 0.5, None) == (0.5, 0.1)
    assert resolve_adjustment("lazyfast", None, 2.0) == (1.0, 2.0)


def test_run_algorithm_dispatch_smoke():
    for algo in ALGORITHMS:
        scale, shift = resolve_adjustment(algo, None, None)
        oracle = build_synthetic_oracle(13, 13, 1, "B", scale, shift)
        report = run_algorithm(algo, oracle, k=3, seed=2, epsilon=0.5)
        assert report.n == 13, algo
    with pytest.raises(ValueError, match="unknown"):
        run_algorithm("bogus", oracle, 2)


NAIVE_TWINS = {
    "random-naive": lambda oracle, cfg, deadline: naive_random_greedy(
        oracle, cfg, DecisionStream(cfg.seed), deadline=deadline),
    "stochastic-naive": lambda oracle, cfg, deadline: naive_stochastic_greedy(
        oracle, cfg, DecisionStream(cfg.seed), deadline=deadline),
    "interlace-naive": lambda oracle, cfg, deadline: naive_interlace_greedy(oracle, cfg, deadline=deadline),
}


@pytest.mark.parametrize("algo", ALGORITHMS + tuple(NAIVE_TWINS))
def test_deadline_already_passed_times_out(algo):
    scale, shift = resolve_adjustment(algo, None, None)
    oracle = build_synthetic_oracle(30, 30, 1, "B", scale, shift)
    deadline = time.perf_counter() - 1.0
    if algo in NAIVE_TWINS:
        report = NAIVE_TWINS[algo](oracle, VariantConfig(k=5, epsilon=0.5, seed=1), deadline)
    else:
        report = run_algorithm(algo, oracle, 5, seed=1, epsilon=0.5, deadline=deadline)
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


def test_bench_cells_records_timeout_rows():
    rows = bench_cells(["fast"], [40], [10], seeds=(1,), timeout_s=0.0)
    assert len(rows) == 1
    assert rows[0]["terminated_early"] == "timeout"


def test_bench_cells_grid_shape():
    rows = bench_cells(["fast", "lazyfast"], [15, 20], [3], seeds=(1, 2))
    assert len(rows) == 2 * 2 * 1 * 2
    assert {r["n"] for r in rows} == {15, 20}


def test_soft_speed_warning_trigger():
    rows = [
        {"algo": "fast", "n": 10, "d": 10, "k": 2, "seed": 1, "input_kind": "B",
         "time_ms": "100.0"},
        {"algo": "lazyfast", "n": 10, "d": 10, "k": 2, "seed": 1, "input_kind": "B",
         "time_ms": "150.0"},
    ]
    warnings = soft_speed_warnings(rows)
    assert len(warnings) == 1 and "WARNING" in warnings[0]
    rows[1]["time_ms"] = "90.0"
    assert soft_speed_warnings(rows) == []


def test_check_objective_accepts_and_rejects():
    oracle = build_synthetic_oracle(10, 10, 3, "B")
    report = run_algorithm("lazyfast", oracle, k=3)
    check_objective(oracle, report)
    report.final_objective += 1.0
    with pytest.raises(AssertionError):
        check_objective(oracle, report)
