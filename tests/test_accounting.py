"""Per-call work accounting, seen from outside the solvers, against the run report.

The wrappers here count the way a tracer outside the package does: each
``CholeskyState.update_row`` call catches a row up by
``len(selection) - stamps[i]`` columns, and each ``KernelOracle.entry`` call
(or a ``materialize``, as n(n+1)/2 lookups) is one lookup on the oracle it is
called on.  Summed over a run these must equal the report's ``offdiag_count``
and ``kernel_evals``.  Columns a ``CholeskyState.prefetch`` computes count
only when ``update_row`` adopts them.
"""

import itertools
from collections import Counter

import pytest

from dppmap import doublegreedy, report as report_module
from dppmap.bench import build_synthetic_oracle, naive_twin_report, run_algorithm
from dppmap.cholesky import CholeskyState
from dppmap.doublegreedy import fast_double_greedy
from dppmap.greedy import GreedyConfig, fast_greedy, lazy_fast_greedy
from dppmap.kernel import KernelOracle
from dppmap.stream import DecisionStream
from dppmap.variants import VariantConfig, random_greedy_lf


class Ledger:
    def __init__(self):
        self.caught_up = 0
        self.lookups = Counter()  # id(oracle) -> lookups


@pytest.fixture
def ledger(monkeypatch):
    book = Ledger()
    update_row, entry, materialize = CholeskyState.update_row, KernelOracle.entry, KernelOracle.materialize

    def counted_update_row(state, i):
        behind = len(state.selection) - int(state.stamps[i])
        result = update_row(state, i)
        book.caught_up += behind
        return result

    def counted_entry(oracle, i, j):
        book.lookups[id(oracle)] += 1
        return entry(oracle, i, j)

    def counted_materialize(oracle):
        book.lookups[id(oracle)] += oracle.n * (oracle.n + 1) // 2
        return materialize(oracle)

    monkeypatch.setattr(CholeskyState, "update_row", counted_update_row)
    monkeypatch.setattr(KernelOracle, "entry", counted_entry)
    monkeypatch.setattr(KernelOracle, "materialize", counted_materialize)
    return book


SOLVERS = {
    "double-fast": lambda oracle, seed: fast_double_greedy(oracle, DecisionStream(seed)),
    "fast": lambda oracle, seed: fast_greedy(oracle, GreedyConfig(k=8)),
    "lazyfast": lambda oracle, seed: lazy_fast_greedy(oracle, GreedyConfig(k=8)),
    "random": lambda oracle, seed: random_greedy_lf(oracle, VariantConfig(k=8, seed=seed), DecisionStream(seed)),
}


@pytest.mark.parametrize("input_kind", ["B", "L"])
@pytest.mark.parametrize("algo", SOLVERS)
def test_per_call_counts_reconcile_with_the_report(ledger, algo, input_kind):
    for seed in (3, 4):
        oracle = build_synthetic_oracle(40, 40, seed, input_kind, 0.9, 0.1)
        ledger.caught_up = 0
        ledger.lookups.clear()
        report = SOLVERS[algo](oracle, seed)
        assert report.offdiag_count > 0
        assert ledger.caught_up == report.offdiag_count
        assert ledger.lookups[id(oracle)] == report.kernel_evals


def test_truncated_double_greedy_counts_only_adopted_columns(ledger, monkeypatch):
    n, steps = 30, 17
    states = []

    def recorded_state(*args, **kwargs):
        states.append(CholeskyState(*args, **kwargs))
        return states[-1]

    calls = itertools.count()
    monkeypatch.setattr(doublegreedy, "CholeskyState", recorded_state)
    monkeypatch.setattr(report_module, "_deadline_hit", lambda deadline: next(calls) >= steps)
    oracle = build_synthetic_oracle(n, n, 8, "L", 0.9, 0.1)
    report = fast_double_greedy(oracle, DecisionStream(8), deadline=0.0)

    assert report.timed_out and report.steps_attempted == steps
    assert report.offdiag_count == steps * (steps - 1) // 2 == ledger.caught_up
    # rows the cut left unvisited hold prefetched columns that were never adopted
    grow, shrink = states
    for state in states:
        assert not state.stamps[steps:].any()
        assert (state._ready[steps:] == len(state.selection)).all()
    assert len(grow.selection) + len(shrink.selection) == steps
    assert (n - steps) * steps == sum(int(s._ready[steps:].sum()) for s in states)


@pytest.mark.parametrize("input_kind", ["B", "L"])
@pytest.mark.parametrize("algo", ["naive", "lazy", "random-naive", "stochastic-naive",
                                  "interlace-naive", "double-naive"])
def test_brute_force_paths_count_their_materialize(ledger, algo, input_kind):
    n = 24
    oracle = build_synthetic_oracle(n, n, 5, input_kind, 0.9, 0.1)
    if algo.endswith("-naive") and not algo.startswith("double"):
        report = naive_twin_report(algo[:-len("-naive")], oracle, 5, seed=5, epsilon=0.5)
    else:
        report = run_algorithm(algo, oracle, 5, seed=5)
    assert report.kernel_evals == n * (n + 1) // 2 == ledger.lookups[id(oracle)]
