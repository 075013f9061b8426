"""Self-tests of the benchmark at tiny sizes: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import run as bench_run  # noqa: E402

bench_run.load_program()

import dppmap  # noqa: E402
from dppmap.pqueue import LazyMaxQueue  # noqa: E402
from perfbench import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run_tiny(capsys, monkeypatch, tmp_path, workload, trace=0, seed=3):
    monkeypatch.setattr(bench_run, "WORK_ROOT", tmp_path)
    code = bench_run.main(["--workload", workload, "--size", "tiny", "--seconds", "0.2",
                           "--seed", str(seed), "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def printed(lines, name):
    """(value, unit) of a metric line ``name value unit``."""
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] == name:
            return float(parts[1]), parts[2]
    raise AssertionError(f"metric {name} not printed")


def test_gated_workloads_are_runnable():
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench_run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench_run.WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric(capsys, monkeypatch, tmp_path, workload, trace):
    code, lines, result = run_tiny(capsys, monkeypatch, tmp_path, workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    shown = {**END_TO_END, "request_ms.p50": "ms", "request_ms.p90": "ms", "requests_per_s": "1/s",
             "failed_share": "ratio", **(PER_LAYER if trace else {})}
    for name, unit in shown.items():
        assert printed(lines, name)[1] == unit
    assert printed(lines, "failed_share")[0] == 0.0
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["cholesky.offdiag"] > 0
        if workload in ("fast-B", "double-L"):
            assert metrics["pqueue.ops"] == 0


def test_selection_digest_repeats(capsys, monkeypatch, tmp_path):
    digests = []
    for _ in range(2):
        _, lines, _ = run_tiny(capsys, monkeypatch, tmp_path, "random-sparse-run", seed=5)
        digests += [line.split()[-1] for line in lines if line.split()[:1] == ["selection_digest"]]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_corrupted_selection_fails_the_run(capsys, monkeypatch, tmp_path):
    real = dppmap.lazy_fast_greedy
    calls = []

    def corrupting(*args, **kwargs):
        report = real(*args, **kwargs)
        calls.append(1)
        if len(calls) % 2 == 0:
            report.selection = report.selection[::-1]
        return report

    monkeypatch.setattr(dppmap, "lazy_fast_greedy", corrupting)
    code, lines, result = run_tiny(capsys, monkeypatch, tmp_path, "lazyfast-L")
    assert code == 1 and not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert printed(lines, "failed_share")[0] > 0
    assert any("selection differs from the reference" in line for line in lines)


class DroppedDiagonalLookups(tracer.Tracer):
    def _wrap_entry(self, fn):
        counted = super()._wrap_entry(fn)

        def entry(oracle, i, j):
            return fn(oracle, i, j) if i == j else counted(oracle, i, j)

        return entry


class ExtraQueueOps(tracer.Tracer):
    def _wrap_queue_op(self, fn, pops):
        counted = super()._wrap_queue_op(fn, pops)

        def wrapped(*args):
            self.pq_ops += 1
            return counted(*args)

        return wrapped


class ExtraFactorColumns(tracer.Tracer):
    def _wrap_update_row(self, fn):
        counted = super()._wrap_update_row(fn)

        def update_row(state, i):
            self.offdiag += 1
            return counted(state, i)

        return update_row


@pytest.mark.parametrize("workload, miscounting, counter", [
    ("fast-B", DroppedDiagonalLookups, "kernel_evals"),
    ("lazyfast-L", ExtraQueueOps, "pq_ops"),
    ("double-L", ExtraFactorColumns, "offdiag_count"),
])
def test_miscounting_wrapper_trips_reconciliation(capsys, monkeypatch, tmp_path, workload, miscounting, counter):
    monkeypatch.setattr(tracer, "Tracer", miscounting)
    code, lines, result = run_tiny(capsys, monkeypatch, tmp_path, workload, trace=1)
    assert code == 1 and not result["correct"]
    assert result["failed"] == 0
    assert any("trace reconciliation" in line and counter in line for line in lines)


def test_uninstall_restores_the_program():
    before = {name: vars(LazyMaxQueue)[name] for name in ("build", "push", "pop_max", "peek_entry")}
    solver = dppmap.fast_greedy
    tr = tracer.Tracer()
    tr.install()
    assert dppmap.fast_greedy is not solver
    tr.uninstall()
    assert dppmap.fast_greedy is solver
    assert {name: vars(LazyMaxQueue)[name] for name in before} == before


def test_one_command_runs_every_workload(tmp_path):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--size", "tiny", "--seconds", "0.2"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    for workload in bench_run.WORKLOAD_NAMES:
        for name in END_TO_END:
            assert f"{workload}.{name}" in result["metrics"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fast-B", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
