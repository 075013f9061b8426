"""The four request workloads.

Each workload builds its instance from the workload seed (``setup``), serves
one request on it (``request``, the only timed call), turns the request's
output into a :class:`~dppmap.RunReport` (``report``) and checks that report
(``check``): the first request seed against an independent solver, every
other request seed against a brute-force log-determinant of its selection.
Only generated inputs reach
the program, and the workloads reach it only through the ``dppmap`` exports,
``dppmap.matrixio`` and ``dppmap.cli.main``, looked up at call time so that
the tracer's wrappers see every call.

Why each workload exists (the per-layer numbers are at n, d, k below):

* ``lazyfast-L``  - the ROADMAP baseline instance.  O(1) kernel entries, so
  nearly all time is factor refresh (``CholeskyState.update_row``) behind a
  live queue; a refresh or lazy-scheduling change shows here, a kernel
  lookup change should not.
* ``fast-B``      - eager refresh of every live row by one column per step,
  each new entry an O(d) dense lookup; batched refresh plus a column lookup
  shows here, a queue change cannot (no queue).
* ``random-sparse-run`` - the whole ``dppmap run`` path: file load, sparse
  lookups, decision-stream draws, the heaviest queue traffic per commit and
  report writing; request seeds vary, so latency has a real tail.
* ``double-L``    - the only in-request ``materialize`` + ``reference.inverse``,
  and full-capacity factors where one refresh catches a row up by up to
  n - 1 columns; a refresh change that slows long catch-ups shows here.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dppmap

REL_TOL = 1e-8                          # the tolerance dppmap.bench.check_objective applies
DOUBLE_SCALE, DOUBLE_SHIFT = 0.9, 0.1   # the CLI's default adjustment for double greedy
BINARY_CUTOFF = 1.645                   # P(N(0,1) > 1.645) ~ 5%: binarized features ~5% dense


@dataclass(frozen=True)
class Sizes:
    n: int          # items
    d: int          # feature dimension (users, for the binarized features)
    k: int          # cardinality bound
    pool: int = 1   # distinct request seeds cycled by the closed loop; odd, see runner


def mismatch(report: dppmap.RunReport, selection, objective: float) -> str | None:
    """Why ``report`` disagrees with a reference selection/objective, or None."""
    if selection is not None and report.selection != list(selection):
        return "selection differs from the reference"
    if abs(report.final_objective - objective) > REL_TOL * max(1.0, abs(objective)):
        return f"objective {report.final_objective!r} differs from the reference {objective!r}"
    return None


def triangle(m: int) -> int:
    return m * (m - 1) // 2


class Workload:
    name = ""
    full: Sizes
    tiny: Sizes

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes = sizes
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.request_seeds = [self.seed * 100_003 + s for s in range(sizes.pool)]
        self._reference = None
        self._kernel = None

    def _features(self) -> np.ndarray:
        return dppmap.gen_synthetic(dppmap.SyntheticSpec(n=self.sizes.n, d=self.sizes.d, seed=self.seed))

    def _l_kernel(self) -> np.ndarray:
        return dppmap.KernelOracle.from_dense_features(self._features()).materialize()

    def setup(self) -> None:
        raise NotImplementedError

    def request(self, slot: int, timeout_s: float):
        raise NotImplementedError

    def report(self, slot: int, raw) -> dppmap.RunReport:
        return raw

    def reference(self) -> tuple:
        """``(selection, objective)`` an independent solver gives on the first request seed."""
        raise NotImplementedError

    def kernel(self) -> np.ndarray:
        """The materialized kernel the request's objective is a log-determinant of."""
        raise NotImplementedError

    def check(self, slot: int, report: dppmap.RunReport) -> str | None:
        """The first request seed against the reference; the others against a brute-force objective."""
        if slot == 0:
            if self._reference is None:
                self._reference = self.reference()
            return mismatch(report, *self._reference)
        return mismatch(report, None, self.log_det(report.selection))

    def log_det(self, selection) -> float:
        if self._kernel is None:
            self._kernel = self.kernel()
        return dppmap.log_det(self._kernel, selection)

    def useful_offdiag(self, report: dppmap.RunReport) -> int:
        """Factor off-diagonals held by committed rows: the refresh work that was not wasted."""
        return triangle(len(report.selection))


class LazyFastL(Workload):
    name = "lazyfast-L"
    full = Sizes(n=2000, d=2000, k=100)
    tiny = Sizes(n=60, d=60, k=8)

    def setup(self) -> None:
        self.oracle = dppmap.KernelOracle.from_dense_kernel(self._l_kernel())

    def request(self, slot, timeout_s):
        return dppmap.lazy_fast_greedy(self.oracle, dppmap.GreedyConfig(k=self.sizes.k),
                                       deadline=time.perf_counter() + timeout_s)

    def reference(self):
        ref = dppmap.fast_greedy(self.oracle, dppmap.GreedyConfig(k=self.sizes.k))
        return ref.selection, ref.final_objective


class FastB(Workload):
    name = "fast-B"
    full = Sizes(n=1000, d=500, k=50)
    tiny = Sizes(n=50, d=20, k=6)

    def setup(self) -> None:
        self.oracle = dppmap.KernelOracle.from_dense_features(self._features())

    def request(self, slot, timeout_s):
        return dppmap.fast_greedy(self.oracle, dppmap.GreedyConfig(k=self.sizes.k),
                                  deadline=time.perf_counter() + timeout_s)

    def reference(self):
        ref = dppmap.lazy_fast_greedy(self.oracle, dppmap.GreedyConfig(k=self.sizes.k))
        return ref.selection, ref.final_objective


class RandomSparseRun(Workload):
    name = "random-sparse-run"
    full = Sizes(n=1000, d=2000, k=50, pool=45)
    tiny = Sizes(n=60, d=120, k=6, pool=3)

    def setup(self) -> None:
        self.binary = (self._features() > BINARY_CUTOFF).astype(np.float64)
        self.path = self.workdir / "items.dpps"
        self.out = self.workdir / "report.json"
        dppmap.matrixio.write_sparse(self.path, dppmap.SparseColumns.from_dense(self.binary))

    def request(self, slot, timeout_s):
        argv = ["run", "--algo", "random", "--k", str(self.sizes.k),
                "--seed", str(self.request_seeds[slot]), "--input", str(self.path),
                "--out", str(self.out), "--timeout-s", str(timeout_s)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = dppmap.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"dppmap run exited with {code}")
        return self.out

    def report(self, slot, raw):
        # The file is removed once read, so a request that writes nothing cannot pass.
        report = dppmap.RunReport.from_json(raw.read_text())
        raw.unlink()
        return report

    def kernel(self):
        return dppmap.KernelOracle.from_dense_features(self.binary).materialize()

    def reference(self):
        """The in-memory dense path on the same seed, and a brute-force objective."""
        seed = self.request_seeds[0]
        ref = dppmap.random_greedy_lf(dppmap.KernelOracle.from_dense_features(self.binary),
                                      dppmap.VariantConfig(k=self.sizes.k, seed=seed),
                                      dppmap.DecisionStream(seed))
        return ref.selection, self.log_det(ref.selection)


class DoubleL(Workload):
    name = "double-L"
    full = Sizes(n=300, d=300, k=300, pool=15)
    tiny = Sizes(n=20, d=20, k=20, pool=3)

    def setup(self) -> None:
        self.oracle = dppmap.KernelOracle.from_dense_kernel(self._l_kernel(), DOUBLE_SCALE, DOUBLE_SHIFT)

    def request(self, slot, timeout_s):
        return dppmap.fast_double_greedy(self.oracle, dppmap.DecisionStream(self.request_seeds[slot]),
                                         deadline=time.perf_counter() + timeout_s)

    def kernel(self):
        return self.oracle.materialize()

    def reference(self):
        """Brute-force double greedy (it takes seconds, hence the first request seed only)."""
        ref = dppmap.naive_double_greedy(self.oracle.materialize(), dppmap.DecisionStream(self.request_seeds[0]))
        return ref.selection, ref.final_objective

    def useful_offdiag(self, report):
        grown = len(report.selection)
        return triangle(grown) + triangle(report.steps_attempted - grown)


WORKLOADS = {cls.name: cls for cls in (LazyFastL, FastB, RandomSparseRun, DoubleL)}
