import json

import numpy as np

from dppmap.report import RunReport


def test_json_roundtrip():
    rep = RunReport(algo="fast", n=10, d=10, k=3, seed=1, selection=[2, 0, 5],
                    gains=[1.5, 1.0, 0.5], objective_trace=[1.5, 2.5, 3.0],
                    final_objective=3.0, offdiag_count=17, kernel_evals=40,
                    timings={"greedy_ms": 1.0})
    back = RunReport.from_json(rep.to_json())
    assert back == rep
    assert RunReport.from_json(rep.to_json_line()) == rep


def test_json_sorted_and_newline_terminated():
    rep = RunReport(algo="x", n=1, d=1, k=1)
    text = rep.to_json()
    assert text.endswith("\n")
    data = json.loads(text)
    assert list(data.keys()) == sorted(data.keys())


def test_timings_excludable():
    rep = RunReport(algo="x", n=1, d=1, k=1, timings={"greedy_ms": 5.0})
    assert "timings" not in json.loads(rep.to_json(include_timings=False))


def test_array_series_give_the_same_json_as_lists():
    gains = [0.5, -0.0, 1e-310, float("nan"), 2.0 / 3.0]
    trace = list(np.cumsum(gains))
    pairs = [[a, -a] for a in gains]
    as_lists = RunReport(algo="double-fast", n=5, d=5, k=5, gains=gains, objective_trace=trace,
                         extras={"ab_gains": pairs}, timings={"greedy_ms": 1.0})
    as_arrays = RunReport(algo="double-fast", n=5, d=5, k=5, gains=np.array(gains),
                          objective_trace=np.array(trace), extras={"ab_gains": np.array(pairs)},
                          timings={"greedy_ms": 1.0})
    assert as_arrays.to_json() == as_lists.to_json()
    assert as_arrays.to_json(include_timings=False) == as_lists.to_json(include_timings=False)
    line = as_arrays.to_json_line()
    assert line == as_lists.to_json_line() and line.count("\n") == 1 and line.endswith("\n")
    assert RunReport.from_json(line).to_json() == as_lists.to_json()
    empty = RunReport(algo="x", n=0, d=0, k=0, gains=np.empty(0), extras={"ab_gains": np.empty((0, 2))})
    assert empty.to_json() == RunReport(algo="x", n=0, d=0, k=0, extras={"ab_gains": []}).to_json()
