"""Per-layer spans and counts, recorded by wrapping dppmap's public callables.

Nothing inside ``dppmap`` knows about tracing.  :meth:`Tracer.install`
replaces each traced callable where its callers look it up - the class
attribute for methods, the module global for functions that callers reach
through a module (``cli`` reaches ``matrixio.load_matrix`` and
``run_algorithm`` by name, ``doublegreedy`` reaches ``reference.inverse``) -
and :meth:`Tracer.uninstall` puts the originals back.

A request makes up to ~10^5 kernel lookups, so spans are folded into
per-layer totals as they close instead of being kept one by one:

* ``calls``  - spans closed;
* ``busy``   - wall time of the outermost span of the layer (nested spans
  of the same layer are not counted twice);
* ``self``   - span time minus the time of the traced spans nested in it.

The counts kept next to the spans (kernel lookups per oracle, queue
operations, factor columns caught up) are taken from the calls themselves,
not from the program's counters, so :meth:`Tracer.reconcile` can hold them
against the counters the run report carries.
"""

from __future__ import annotations

import os
import time

import dppmap
from dppmap import cli, matrixio, reference
from dppmap.cholesky import CholeskyState
from dppmap.kernel import KernelOracle
from dppmap.pqueue import LazyMaxQueue
from dppmap.report import RunReport
from dppmap.stream import DecisionStream

NS_PER_MS = 1e6

# The solver entry points the workloads call, by their ``dppmap`` export name.
SOLVER_EXPORTS = ("fast_greedy", "lazy_fast_greedy", "fast_double_greedy")
STREAM_DRAWS = ("uniform", "uniform_int", "rank", "sample_sorted", "normals")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # layer -> [calls, busy_ns, self_ns, depth]
        self._stack: list[list[int]] = [[0]]   # child-time accumulator per open span
        self._patches = self._build_patches()
        self._saved: list[tuple[object, str, object]] = []
        self.reset_counts()

    # -- per-request counts ------------------------------------------------

    def reset_counts(self) -> None:
        self.evals: dict[int, int] = {}  # id(oracle) -> lookups, as KernelOracle.eval_count counts them
        self.pq_ops = 0
        self.pops = 0
        self.offdiag = 0
        self.load_bytes = 0
        self.oracle: KernelOracle | None = None  # the oracle handed to the solver entry point

    def reconcile(self, report: RunReport) -> list[str]:
        """Mismatches between the counts traced in one request and its report."""
        errors = []
        if self.oracle is None:
            errors.append("no solver entry point was traced")
            return errors
        evals = self.evals.get(id(self.oracle), 0)
        if evals != report.kernel_evals:
            errors.append(f"kernel lookups traced {evals} != report kernel_evals {report.kernel_evals}")
        if self.pq_ops != report.pq_ops:
            errors.append(f"queue ops traced {self.pq_ops} != report pq_ops {report.pq_ops}")
        if self.offdiag != report.offdiag_count:
            errors.append(f"factor columns traced {self.offdiag} != report offdiag_count {report.offdiag_count}")
        return errors

    # -- layer totals ------------------------------------------------------

    def calls(self, layer: str) -> int:
        return self.stats.get(layer, [0])[0]

    def busy_ms(self, layer: str) -> float:
        return self.stats[layer][1] / NS_PER_MS if layer in self.stats else 0.0

    def self_ms(self, layer: str) -> float:
        return self.stats[layer][2] / NS_PER_MS if layer in self.stats else 0.0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, name, wrapper in self._patches:
            self._saved.append((owner, name, _raw_attr(owner, name)))
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _build_patches(self) -> list[tuple[object, str, object]]:
        patches = [
            (KernelOracle, "entry", self._wrap_entry(KernelOracle.entry)),
            (KernelOracle, "materialize", self._wrap_materialize(KernelOracle.materialize)),
            (CholeskyState, "update_row", self._wrap_update_row(CholeskyState.update_row)),
            (LazyMaxQueue, "build", classmethod(self._wrap_build(LazyMaxQueue.build.__func__))),
            (LazyMaxQueue, "push", self._wrap_queue_op(LazyMaxQueue.push, pops=False)),
            (LazyMaxQueue, "pop_max", self._wrap_queue_op(LazyMaxQueue.pop_max, pops=True)),
            (LazyMaxQueue, "peek_entry", self._span("pqueue", LazyMaxQueue.peek_entry)),
            (reference, "inverse", self._span("reference.inverse", reference.inverse)),
            (matrixio, "load_matrix", self._wrap_load(matrixio.load_matrix)),
            (matrixio, "write_sparse", self._span("matrixio.write", matrixio.write_sparse)),
            (dppmap, "gen_synthetic", self._span("datagen", dppmap.gen_synthetic)),
            (RunReport, "write_json", self._span("report.write", RunReport.write_json)),
            (cli, "main", self._span("cli", cli.main)),
            (cli, "run_algorithm", self._wrap_solver(cli.run_algorithm)),
        ]
        patches += [(dppmap, name, self._wrap_solver(getattr(dppmap, name))) for name in SOLVER_EXPORTS]
        patches += [(DecisionStream, name, self._span("stream", getattr(DecisionStream, name)))
                    for name in STREAM_DRAWS]
        return patches

    # -- wrappers ----------------------------------------------------------

    def _span(self, layer: str, fn):
        st = self.stats.setdefault(layer, [0, 0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapped(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            st[3] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st[3] -= 1
                stack.pop()
                stack[-1][0] += dt
                st[0] += 1
                st[2] += dt - frame[0]
                if not st[3]:
                    st[1] += dt

        return wrapped

    def _wrap_entry(self, fn):
        timed = self._span("kernel.entry", fn)

        def entry(oracle, i, j):
            evals = self.evals
            key = id(oracle)
            evals[key] = evals.get(key, 0) + 1
            return timed(oracle, i, j)

        return entry

    def _wrap_materialize(self, fn):
        timed = self._span("kernel.materialize", fn)

        def materialize(oracle):
            key = id(oracle)
            self.evals[key] = self.evals.get(key, 0) + oracle.n * (oracle.n + 1) // 2
            return timed(oracle)

        return materialize

    def _wrap_update_row(self, fn):
        timed = self._span("cholesky.update_row", fn)

        def update_row(state, i):
            behind = len(state.selection) - int(state.stamps[i])  # columns this call catches up
            result = timed(state, i)
            self.offdiag += behind
            return result

        return update_row

    def _wrap_build(self, fn):
        timed = self._span("pqueue", fn)

        def build(cls, keys):
            keys = list(keys)
            result = timed(cls, keys)
            self.pq_ops += len(keys)
            return result

        return build

    def _wrap_queue_op(self, fn, pops: bool):
        timed = self._span("pqueue", fn)

        def counted(*args):
            result = timed(*args)
            self.pq_ops += 1
            self.pops += pops
            return result

        return counted

    def _wrap_load(self, fn):
        timed = self._span("matrixio.load", fn)

        def load_matrix(path):
            result = timed(path)
            self.load_bytes += os.path.getsize(path)
            return result

        return load_matrix

    def _wrap_solver(self, fn):
        timed = self._span("solver", fn)

        def solver(*args, **kwargs):
            self.oracle = next((a for a in args if isinstance(a, KernelOracle)), None)
            return timed(*args, **kwargs)

        return solver


def _raw_attr(owner, name):
    """The attribute as stored, so a classmethod is restored as a classmethod."""
    return vars(owner)[name]
