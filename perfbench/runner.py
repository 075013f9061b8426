"""One workload in one process: set up, warm up, time requests, verify, report.

The client is a closed loop with no think time: the next request goes out as
soon as the previous one returns.  Requests cycle through the workload's pool
of request seeds.  Verification runs after the timed loop, so neither it nor
the reference solvers count in ``setup_s`` or in any request's latency.

With tracing on, requests alternate untraced / traced inside the same timed
window, so the traced-versus-untraced latency ratio (the tracing overhead)
compares requests that met the same host conditions.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import hostprobe, tracer
from .workloads import WORKLOADS, Workload

SETUP_MIN_REPS = 5     # setup_s is the median of at least this many set-ups ...
SETUP_MIN_S = 1.0      # ... and of as many more as fit in this much time
SETUP_MAX_REPS = 50
REQUEST_TIMEOUT_S = 30.0

# Returned with --trace 0, the figures a later change is held to.  On a shared host whole stretches
# of requests run up to ~1.8x slower while another tenant contends for the core, and how much of a
# run that covers moves p50, p90 and requests_per_s between runs by more than 0.25; the fastest tenth
# of the requests tracks the program's own cost.  The others are printed, failed_share too (it is 0 on
# a correct program, and the result's "failed" carries it).
END_TO_END = ("setup_s", "request_ms.p10", "peak_rss_mb")


@dataclass
class Outcome:
    slot: int
    traced: bool
    ms: float
    report: object = None
    error: str | None = None


def _timed_setups(wl: Workload) -> list[float]:
    times: list[float] = []
    while len(times) < SETUP_MIN_REPS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS):
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def _traced(tr: tracer.Tracer, fn, *args):
    tr.install()
    try:
        return fn(*args)
    finally:
        tr.uninstall()


def _request(wl: Workload, slot: int, tr: tracer.Tracer | None) -> Outcome:
    raw = error = None
    t0 = time.perf_counter()
    try:
        raw = wl.request(slot, REQUEST_TIMEOUT_S) if tr is None else \
            _traced(tr, wl.request, slot, REQUEST_TIMEOUT_S)
    except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    ms = (time.perf_counter() - t0) * 1000.0
    out = Outcome(slot, tr is not None, ms, error=error)
    if error is None:
        try:
            out.report = wl.report(slot, raw)
        except Exception as exc:  # noqa: BLE001 - unreadable output is a failed request
            out.error = f"{type(exc).__name__}: {exc}"
    return out


class LayerTotals:
    """Counts summed over traced requests, next to the tracer's span totals."""

    def __init__(self):
        self.requests = self.offdiag = self.useful = self.pq_ops = 0
        self.pops = self.commits = self.load_bytes = 0
        self.errors: list[str] = []

    def add(self, tr: tracer.Tracer, wl: Workload, out: Outcome) -> None:
        self.requests += 1
        self.offdiag += tr.offdiag
        self.pq_ops += tr.pq_ops
        self.pops += tr.pops
        self.load_bytes += tr.load_bytes
        if out.report is not None:
            self.useful += wl.useful_offdiag(out.report)
            self.commits += len(out.report.selection)
            self.errors += [f"request {self.requests}: {e}" for e in tr.reconcile(out.report)]


def timed_loop(wl: Workload, seconds: float, tr: tracer.Tracer | None, totals: LayerTotals) -> list[Outcome]:
    """Requests back to back for ``seconds``, and at least once per request seed
    (and twice in all when traced, so both kinds are measured).

    With a tracer, every other request is traced; the pool size is odd, so
    over the passes traced and untraced requests take turns on every seed.
    """
    min_requests = wl.sizes.pool if tr is None else max(wl.sizes.pool, 2)
    outcomes: list[Outcome] = []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(outcomes) < min_requests:
        i = len(outcomes)
        traced = tr is not None and i % 2 == 1
        if traced:
            tr.reset_counts()
        out = _request(wl, i % wl.sizes.pool, tr if traced else None)
        if traced:
            totals.add(tr, wl, out)
        outcomes.append(out)
    return outcomes


def verify(wl: Workload, outcomes: list[Outcome]) -> str:
    """Mark failed requests; return the SHA-256 over the per-seed selections."""
    first: dict[int, list[int]] = {}
    for out in outcomes:
        if out.error is None:
            if out.report.timed_out:
                out.error = "timed out"
            else:
                out.error = wl.check(out.slot, out.report)
        if out.error is None:
            if out.report.selection != first.setdefault(out.slot, out.report.selection):
                out.error = "selection differs from an earlier request on the same seed"
    ordered = [first.get(slot) for slot in range(wl.sizes.pool)]
    return hashlib.sha256(json.dumps(ordered).encode()).hexdigest()


def _latency(outcomes: list[Outcome]) -> tuple[list[float], float]:
    """Latencies of the successful requests, and the successes per second of request time."""
    ok = [o.ms for o in outcomes if o.error is None]
    busy_s = sum(o.ms for o in outcomes) / 1000.0
    return ok or [o.ms for o in outcomes], len(ok) / busy_s


def layer_metrics(tr: tracer.Tracer, setup_tr: tracer.Tracer, totals: LayerTotals,
                  overhead: float, traced_p50: float) -> dict[str, tuple[float, str]]:
    r = max(totals.requests, 1)
    update_calls = tr.calls("cholesky.update_row")
    return {
        "kernel.entry.calls": (tr.calls("kernel.entry") / r, "count"),
        "kernel.entry.busy_ms": (tr.busy_ms("kernel.entry") / r, "ms"),
        "kernel.materialize.busy_ms": (tr.busy_ms("kernel.materialize") / r, "ms"),
        "cholesky.update_row.calls": (update_calls / r, "count"),
        "cholesky.update_row.self_ms": (tr.self_ms("cholesky.update_row") / r, "ms"),
        "cholesky.offdiag": (totals.offdiag / r, "count"),
        "cholesky.cols_per_refresh": (totals.offdiag / max(update_calls, 1), "ratio"),
        "cholesky.useful_share": (totals.useful / max(totals.offdiag, 1), "ratio"),
        "pqueue.ops": (totals.pq_ops / r, "count"),
        "pqueue.busy_ms": (tr.busy_ms("pqueue") / r, "ms"),
        "pqueue.pops_per_commit": (totals.pops / max(totals.commits, 1), "ratio"),
        "reference.inverse.busy_ms": (tr.busy_ms("reference.inverse") / r, "ms"),
        "matrixio.load.busy_ms": (tr.busy_ms("matrixio.load") / r, "ms"),
        "matrixio.load.bytes": (totals.load_bytes / r, "bytes"),
        "stream.busy_ms": (tr.busy_ms("stream") / r, "ms"),
        "report.write.busy_ms": (tr.busy_ms("report.write") / r, "ms"),
        "solver.self_ms": (tr.self_ms("solver") / r, "ms"),
        "cli.self_ms": (tr.self_ms("cli") / r, "ms"),
        "setup.datagen.busy_ms": (setup_tr.busy_ms("datagen"), "ms"),
        "setup.kernel.materialize.busy_ms": (setup_tr.busy_ms("kernel.materialize"), "ms"),
        "setup.matrixio.write.busy_ms": (setup_tr.busy_ms("matrixio.write"), "ms"),
        "trace.overhead_share": (overhead, "ratio"),
        "trace.request_ms.p50": (traced_p50, "ms"),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 work_root: Path, emit=print) -> dict:
    """Run one workload and return the result object run.py prints as its last line.

    Scratch files go to a fresh directory under ``work_root``, removed at the
    end.  ``emit`` receives the human-readable lines.  The result's
    ``correct`` is false when any request failed or, traced, when a count did
    not reconcile.
    """
    cls = WORKLOADS[name]
    sizes = getattr(cls, size)
    probe = hostprobe.HostProbe()
    work_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        wl = cls(sizes, seed, workdir)
        setup_times = _timed_setups(wl)
        setup_tr = tr = None
        if trace:
            setup_tr, tr = tracer.Tracer(), tracer.Tracer()
            _traced(setup_tr, wl.setup)
        gc.collect()
        wl.report(0, wl.request(0, REQUEST_TIMEOUT_S))  # warm-up: first-call costs stay out of the timing
        totals = LayerTotals()
        outcomes = timed_loop(wl, seconds, tr, totals)
        digest = verify(wl, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()  # only once no other run is using it
        probe.finish()

    untraced = [o for o in outcomes if not o.traced]
    ok_ms, rate = _latency(untraced)
    p10, p50, p90 = (float(v) for v in np.percentile(ok_ms, [10, 50, 90]))
    failed = sum(o.error is not None for o in outcomes)
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "request_ms.p10": (p10, "ms"),
        "request_ms.p50": (p50, "ms"),
        "request_ms.p90": (p90, "ms"),
        "requests_per_s": (rate, "1/s"),
        "failed_share": (failed / len(outcomes), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }

    emit(f"workload {name}: seed {seed}, {seconds:g} s closed loop, one client, "
         f"sizes n={sizes.n} d={sizes.d} k={sizes.k}, {sizes.pool} request seed(s), trace {int(trace)}")
    emit(f"  setup_s over {len(setup_times)} set-ups; latency over {len(ok_ms)} "
         f"{'untraced ' if trace else ''}requests")
    for key, (value, unit) in e2e.items():
        emit(f"  {key:<34} {_fmt(value):>14} {unit}")
    emit(f"  {'selection_digest':<34} {digest}")
    emit("  " + probe.line())
    metrics = {key: e2e[key] for key in END_TO_END}

    errors = [f"request {i} (seed slot {o.slot}): {o.error}" for i, o in enumerate(outcomes) if o.error]
    if trace:
        traced_ok, _ = _latency([o for o in outcomes if o.traced])
        traced_p50 = float(np.percentile(traced_ok, 50))
        layers = layer_metrics(tr, setup_tr, totals, traced_p50 / p50 - 1.0, traced_p50)
        layers.update(probe.metrics())
        emit(f"  per layer, per traced request ({totals.requests} traced):")
        for key, (value, unit) in layers.items():
            emit(f"  {key:<34} {_fmt(value):>14} {unit}")
        errors += [f"trace reconciliation: {e}" for e in totals.errors]
        metrics = layers
    for line in errors[:20]:
        emit(f"  FAILED {line}")

    return {
        "correct": not errors,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
