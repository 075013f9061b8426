"""Run reports: everything a solver run produces besides its side effects."""

from __future__ import annotations

import json
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
