"""Run reports, and the one place that runs and finishes them.

:class:`RunReport` is everything a solver run produces besides its side
effects.  Every solver keeps its run bookkeeping in a :class:`SolverRun`,
the one writer of the report's per-step results: :meth:`SolverRun.take`
records each commit, whichever solver family made it, and
:meth:`SolverRun.decline` each step that commits nothing.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class RunReport:
    """One run's outcome.  A solver may store a per-step series (``gains``,
    ``objective_trace``, an ``extras`` entry) as a float64 array instead of
    a list; :meth:`to_json` writes either form as the same JSON text."""

    algo: str
    n: int
    d: int
    k: int
    input_kind: str = "L"  # "B" (feature matrix) or "L" (precomputed kernel)
    seed: int | None = None
    epsilon: float | None = None
    selection: list[int] = field(default_factory=list)
    gains: list[float] = field(default_factory=list)          # per-step marginal gain (log scale)
    objective_trace: list[float] = field(default_factory=list)  # prefix sums of gains
    final_objective: float = 0.0
    offdiag_count: int = 0        # factor off-diagonals computed ("U")
    kernel_evals: int = 0         # oracle entry() lookups
    pq_ops: int = 0               # priority-queue pushes/pops
    steps_attempted: int = 0      # selection attempts, including a terminating one
    terminated_early: bool = False
    timed_out: bool = False
    boundary_gain_steps: list[int] = field(default_factory=list)  # steps whose winner sat exactly on the zero-gain boundary
    timings: dict[str, float] = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, include_timings: bool = True) -> str:
        data = self.to_dict()
        if not include_timings:
            data.pop("timings")
        return json.dumps(data, sort_keys=True, indent=2, default=_array_as_list) + "\n"

    def to_json_line(self) -> str:
        """The whole report on one line, as ``dppmap bench`` appends it; :meth:`from_json` reads it back."""
        return json.dumps(self.to_dict(), sort_keys=True, default=_array_as_list) + "\n"

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        data = json.loads(text)
        data.setdefault("timings", {})
        return cls(**data)


def _array_as_list(value):
    """JSON for the per-step series a solver stores as arrays: the same text as a list."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _deadline_hit(deadline) -> bool:
    return deadline is not None and time.perf_counter() >= deadline


class SolverRun:
    """Bookkeeping shared by every solver: one report, one clock, one lookup baseline.

    Built before the solver's first kernel lookup, so ``kernel_evals`` covers
    everything the run asks of ``oracle`` (a ``materialize`` included).
    ``fields`` are further :class:`RunReport` fields, such as ``seed``.

    Solvers do not write the per-step fields themselves.  Every commit
    reaches the report through :meth:`take` as a ``(gain, item, objective)``
    pick: a brute-force solver hands each pick over as it commits, with the
    objective its gain came from, and a factor-based solver commits to a
    :class:`~dppmap.cholesky.CholeskyState`, whose ``picks`` :meth:`finish`
    hands over.  A step that commits nothing is recorded by :meth:`decline`,
    and a greedy run that no gain can continue ends through :meth:`stop`.
    """

    def __init__(self, algo: str, oracle, k: int, **fields):
        self.oracle = oracle
        self.report = RunReport(algo=algo, n=oracle.n, d=oracle.d, k=k,
                                input_kind=oracle.input_kind, **fields)
        self._evals0 = oracle.eval_count
        self._t0 = time.perf_counter()

    def ms(self) -> float:
        """Milliseconds since the run started."""
        return (time.perf_counter() - self._t0) * 1000.0

    def steps(self, count: int, deadline: float | None):
        """Yield steps ``1..count``, each counted in ``steps_attempted``.

        Stops, setting ``timed_out``, when the deadline has passed before a
        step starts; a step that has started always runs to its end.
        """
        report = self.report
        for step in range(1, count + 1):
            if _deadline_hit(deadline):
                report.timed_out = True
                return
            report.steps_attempted += 1
            yield step

    def take(self, item: int, gain: float, objective: float) -> None:
        """Record one commit: ``item``, its marginal ``gain`` and the ``objective`` it reaches."""
        report = self.report
        report.selection.append(item)
        report.gains.append(gain)
        report.objective_trace.append(objective)
        report.final_objective = objective

    def decline(self, step: int, key: float, boundary: float) -> None:
        """Record that ``step`` commits nothing: its ``key`` did not clear ``boundary``, the zero-gain key.

        A key exactly on the boundary is recorded in ``boundary_gain_steps``.
        """
        if key == boundary:
            self.report.boundary_gain_steps.append(step)

    def stop(self, step: int, key: float, boundary: float) -> None:
        """:meth:`decline` ``step``, and end the run there."""
        self.decline(step, key, boundary)
        self.report.terminated_early = True

    def finish(self, state=None, pq_ops: int = 0, setup_ms: float = 0.0) -> RunReport:
        """Record the final state and counters and return the report.

        A :class:`~dppmap.cholesky.CholeskyState` hands its ``picks`` to
        :meth:`take` and gives ``offdiag_count``; without one, the solver has
        taken its commits itself.  ``greedy_ms`` is the time after the first
        ``setup_ms``.
        """
        report = self.report
        if state is not None:
            for gain, item, objective in state.picks:
                self.take(item, gain, objective)
            report.offdiag_count = state.offdiag_count
        report.kernel_evals = self.oracle.eval_count - self._evals0
        report.pq_ops = pq_ops
        total_ms = self.ms()
        report.timings.update(setup_ms=setup_ms, greedy_ms=total_ms - setup_ms, total_ms=total_ms)
        return report
