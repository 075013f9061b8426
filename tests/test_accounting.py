"""Per-call work accounting, seen from outside the solvers, against the run report.

The counts come from the benchmark's tracer (``perfbench/tracer.py``), which
wraps the package's callables from outside: each ``CholeskyState.update_row``
call catches a row up by ``len(selection) - stamps[i]`` columns, each
``KernelOracle.entry`` call (or a ``materialize``, as n(n+1)/2 lookups) is
one lookup on the oracle it is called on, and each queue build, push or pop
is a queue operation.  Summed over a run these must equal the report's
``offdiag_count``, ``kernel_evals`` and ``pq_ops``.  Columns a
``CholeskyState.prefetch`` computes count only when ``update_row`` adopts
them.
"""

import itertools
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from dppmap import doublegreedy, report as report_module  # noqa: E402
from dppmap.bench import SOLVERS, build_synthetic_oracle, run_algorithm  # noqa: E402
from dppmap.cholesky import CholeskyState  # noqa: E402
from dppmap.doublegreedy import fast_double_greedy  # noqa: E402
from dppmap.stream import DecisionStream  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


FACTOR_SOLVERS = ("fast", "lazyfast", "random", "stochastic", "interlace", "double-fast")


@pytest.fixture
def tracer():
    tr = Tracer()
    tr.install()
    yield tr
    tr.uninstall()


@pytest.mark.parametrize("input_kind", ["B", "L"])
@pytest.mark.parametrize("algo", SOLVERS)
def test_per_call_counts_reconcile_with_the_report(tracer, algo, input_kind):
    for seed in (3, 4):
        oracle = build_synthetic_oracle(40, 40, seed, input_kind, 0.9, 0.1)
        tracer.reset_counts()
        report = run_algorithm(algo, oracle, 8, seed=seed, epsilon=0.5)
        if algo in FACTOR_SOLVERS:
            assert report.offdiag_count > 0
        assert tracer.offdiag == report.offdiag_count
        assert tracer.evals[id(oracle)] == report.kernel_evals
        assert tracer.pq_ops == report.pq_ops


def test_truncated_double_greedy_counts_only_adopted_columns(tracer, monkeypatch):
    n, steps = 30, 17
    states = []

    def recorded_state(*args, **kwargs):
        states.append(CholeskyState(*args, **kwargs))
        return states[-1]

    calls = itertools.count()
    monkeypatch.setattr(doublegreedy, "CholeskyState", recorded_state)
    monkeypatch.setattr(report_module, "_deadline_hit", lambda deadline: next(calls) >= steps)
    oracle = build_synthetic_oracle(n, n, 8, "L", 0.9, 0.1)
    tracer.reset_counts()
    report = fast_double_greedy(oracle, DecisionStream(8), deadline=0.0)

    assert report.timed_out and report.steps_attempted == steps
    assert report.offdiag_count == steps * (steps - 1) // 2 == tracer.offdiag
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
def test_brute_force_paths_count_their_materialize(tracer, algo, input_kind):
    n = 24
    oracle = build_synthetic_oracle(n, n, 5, input_kind, 0.9, 0.1)
    report = run_algorithm(algo, oracle, 5, seed=5, epsilon=0.5)
    assert report.kernel_evals == n * (n + 1) // 2 == tracer.evals[id(oracle)]
