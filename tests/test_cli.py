import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dppmap
from dppmap import matrixio, verify
from dppmap.cli import load_oracle, main
from dppmap.errors import AsymmetricKernelError, NonFiniteInputError
from dppmap.kernel import B_BITS, SparseColumns, _int_dot, seq_dot
from dppmap.report import RunReport
from dppmap.stream import DecisionStream

from test_matrixio import NON_TEXT, run_capped
from test_stream import one_shot_normals


def test_gen_writes_feature_matrix(tmp_path, capsys):
    out = tmp_path / "b.dppm1"
    assert main(["gen", "--n", "6", "--d", "4", "--seed", "3", "--out", str(out)]) == 0
    mat = matrixio.read_dense(out)
    assert mat.shape == (4, 6)


def test_gen_deterministic_files(tmp_path):
    a, b = tmp_path / "a.dppm1", tmp_path / "b.dppm1"
    main(["gen", "--n", "5", "--seed", "9", "--out", str(a)])
    main(["gen", "--n", "5", "--seed", "9", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_run_report_contract(tmp_path):
    b = tmp_path / "b.dppm1"
    main(["gen", "--n", "12", "--seed", "1", "--out", str(b)])
    out = tmp_path / "r.json"
    rc = main(["run", "--algo", "lazyfast", "--input", str(b), "--input-kind", "B",
               "--k", "5", "--seed", "1", "--check", "--out", str(out)])
    assert rc == 0
    report = RunReport.from_json(out.read_text())
    assert report.algo == "lazyfast"
    assert (report.n, report.d, report.k) == (12, 12, 5)
    assert len(report.selection) == 5
    assert report.offdiag_count > 0
    assert report.input_kind == "B"
    assert "objective_check_abs_err" in report.extras


def test_run_json_deterministic_modulo_timings(tmp_path):
    b = tmp_path / "b.dppm1"
    main(["gen", "--n", "10", "--seed", "2", "--out", str(b)])
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        main(["run", "--algo", "random", "--input", str(b), "--input-kind", "B",
              "--k", "3", "--seed", "7", "--out", str(out)])
        data = json.loads(out.read_text())
        data.pop("timings")
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]


def test_run_all_algorithms_smoke(tmp_path):
    b = tmp_path / "b.dppm1"
    main(["gen", "--n", "13", "--seed", "4", "--out", str(b)])
    for algo in ("naive", "lazy", "fast", "lazyfast", "random", "stochastic",
                 "interlace", "double-naive", "double-fast"):
        out = tmp_path / f"{algo}.json"
        k = [] if algo.startswith("double") else ["--k", "3"]
        rc = main(["run", "--algo", algo, "--input", str(b), "--input-kind", "B",
                   *k, "--seed", "1", "--epsilon", "0.5", "--out", str(out)])
        assert rc == 0, algo
        report = RunReport.from_json(out.read_text())
        assert report.algo == algo


def test_run_stochastic_without_epsilon_takes_the_bench_default(tmp_path):
    b = tmp_path / "b.dppm1"
    main(["gen", "--n", "13", "--seed", "4", "--out", str(b)])
    reports = []
    for name, flags in (("default.json", []), ("explicit.json", ["--epsilon", "0.5"])):
        out = tmp_path / name
        assert main(["run", "--algo", "stochastic", "--input", str(b), "--k", "3", "--seed", "1",
                     *flags, "--out", str(out)]) == 0
        reports.append(RunReport.from_json(out.read_text()).to_json(include_timings=False))
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["epsilon"] == 0.5


def test_k_past_n_takes_every_item_in_one_order(tmp_path):
    """The greedies with no size bound take all n items, then find no candidate on step n + 1."""
    n = 12
    b = tmp_path / "b.dppm1"
    main(["gen", "--n", str(n), "--seed", "3", "--out", str(b)])
    reports = []
    for algo in ("naive", "lazy", "fast", "lazyfast"):
        out = tmp_path / f"{algo}.json"
        assert main(["run", "--algo", algo, "--input", str(b), "--k", str(n + 3), "--shift", "1.0",
                     "--out", str(out)]) == 0
        reports.append(RunReport.from_json(out.read_text()))
    assert sorted(reports[0].selection) == list(range(n))
    for report in reports:
        assert report.selection == reports[0].selection, report.algo
        assert (report.steps_attempted, report.terminated_early) == (n + 1, True), report.algo


def test_run_l_input(tmp_path):
    feats = np.random.default_rng(0).standard_normal((8, 8))
    l_path = tmp_path / "l.dppm1"
    matrixio.write_dense(l_path, feats.T @ feats)
    out = tmp_path / "r.json"
    rc = main(["run", "--algo", "fast", "--input", str(l_path), "--input-kind", "L",
               "--k", "3", "--out", str(out)])
    assert rc == 0
    assert RunReport.from_json(out.read_text()).input_kind == "L"


def test_run_rejects_an_asymmetric_kernel(tmp_path):
    """One ulp between K[0, 1] and K[1, 0] is enough; the same file symmetrized runs."""
    feats = np.random.default_rng(0).standard_normal((8, 8))
    kernel = feats.T @ feats
    kernel[0, 1] = np.nextafter(kernel[0, 1], np.inf)
    l_path = tmp_path / "l.dppm1"
    matrixio.write_dense(l_path, kernel)
    with pytest.raises(AsymmetricKernelError, match=r"not bitwise symmetric at K\[0, 1\]"):
        main(["run", "--algo", "fast", "--input", str(l_path), "--input-kind", "L", "--k", "3"])
    assert issubclass(AsymmetricKernelError, ValueError)
    kernel[0, 1] = kernel[1, 0]
    matrixio.write_dense(l_path, kernel)
    assert load_oracle(str(l_path), "L", 1.0, 0.0).n == 8


def _bench_lines(path) -> list[RunReport]:
    return [RunReport.from_json(line) for line in path.read_text().splitlines()]


def test_bench_json_lines_and_lazy_leq_fast(tmp_path):
    out = tmp_path / "bench.jsonl"
    rc = main(["bench", "--algos", "fast,lazyfast", "--n", "60", "--k", "8",
               "--seed", "1,2", "--out", str(out)])
    assert rc == 0
    reports = _bench_lines(out)
    assert len(reports) == 4
    by_key = {}
    for report in reports:
        by_key.setdefault((report.n, report.k, report.seed), {})[report.algo] = report
    assert len(by_key) == 2
    for pair in by_key.values():
        assert pair["lazyfast"].offdiag_count <= pair["fast"].offdiag_count


def test_bench_appends(tmp_path):
    out = tmp_path / "bench.jsonl"
    main(["bench", "--algos", "fast", "--n", "20", "--k", "3", "--out", str(out)])
    main(["bench", "--algos", "fast", "--n", "20", "--k", "4", "--out", str(out)])
    reports = _bench_lines(out)
    assert len(reports) == 2
    assert {report.k for report in reports} == {3, 4}


def test_bench_grid_flags(tmp_path):
    out = tmp_path / "grid.jsonl"
    rc = main(["bench", "--algos", "lazyfast", "--n", "20,30", "--k", "3,4", "--seed", "1,2",
               "--input-kind", "L", "--out", str(out)])
    assert rc == 0
    reports = _bench_lines(out)
    assert sorted((r.n, r.seed, r.k) for r in reports) == [
        (n, seed, k) for n in (20, 30) for seed in (1, 2) for k in (3, 4)]
    assert {r.input_kind for r in reports} == {"L"}


@pytest.mark.parametrize("flag", ["--n", "--k", "--seed"])
@pytest.mark.parametrize("value", ["", ",", " , "])
def test_bench_rejects_an_empty_grid(tmp_path, capsys, flag, value):
    out = tmp_path / "bench.jsonl"
    argv = {"--algos": "fast", "--n": "20", "--k": "3", "--out": str(out), flag: value}
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", *[tok for pair in argv.items() for tok in pair]])
    assert exit_info.value.code == 2
    assert "expected comma-separated integers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("algo", ["lazyfast", "random"])
def test_bench_line_equals_the_run_report(tmp_path, algo):
    """A bench cell is the report ``dppmap run`` writes for the same instance, timings aside."""
    b, run_out, bench_out = tmp_path / "b.dppm1", tmp_path / "r.json", tmp_path / "bench.jsonl"
    main(["gen", "--n", "16", "--seed", "3", "--out", str(b)])
    main(["run", "--algo", algo, "--input", str(b), "--k", "4", "--seed", "3", "--out", str(run_out)])
    main(["bench", "--algos", algo, "--n", "16", "--k", "4", "--seed", "3", "--out", str(bench_out)])
    (line,) = bench_out.read_text().splitlines()
    bench_report, run_report = RunReport.from_json(line), RunReport.from_json(run_out.read_text())
    assert bench_report.to_json(include_timings=False) == run_report.to_json(include_timings=False)


def test_ingest_cli_writes_sidecar(tmp_path):
    src = tmp_path / "r.csv"
    src.write_text("u1,m1,5\nu1,m2,3\nu2,m1,4\n")
    out = tmp_path / "r.dpps1"
    rc = main(["ingest", "--input", str(src), "--out", str(out)])
    assert rc == 0
    cols = matrixio.read_sparse(out)
    assert cols.ncols == 1 and cols.dim == 2
    sidecar = json.loads((tmp_path / "r.dpps1.idmap.json").read_text())
    assert sidecar["items"] == {"m1": 0}


@pytest.mark.parametrize("keep", [[], ["--keep-empty"]], ids=["drop-empty", "keep-empty"])
@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_ingest_refuses_a_non_finite_threshold_and_writes_nothing(tmp_path, threshold, keep):
    """Before, ``--keep-empty`` wrote a DPPS1 file with no entries and an id map that was not
    JSON; without it the error was "no items survive ingestion"."""
    src = tmp_path / "r.csv"
    src.write_text("u1,m1,5\nu2,m1,4\n")
    with pytest.raises(NonFiniteInputError, match=f"^rating threshold {threshold} is not finite$"):
        main(["ingest", "--input", str(src), "--threshold", threshold, *keep, "--out", str(tmp_path / "r.dpps1")])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv"]


@pytest.mark.parametrize("command", ["run", "bench"])
def test_a_nan_timeout_is_refused_and_inf_and_zero_keep_their_meaning(tmp_path, capsys, command):
    """Before, ``perf_counter() >= nan`` never held, so ``--timeout-s nan`` ran with no deadline."""
    b, out = tmp_path / "b.dppm1", tmp_path / "out.json"
    main(["gen", "--n", "12", "--seed", "1", "--out", str(b)])
    argv = {"run": ["run", "--algo", "lazyfast", "--input", str(b)],
            "bench": ["bench", "--algos", "lazyfast", "--n", "12"]}[command]
    argv += ["--k", "5", "--out", str(out)]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--timeout-s", "nan"])
    assert exit_info.value.code == 2
    assert "argument --timeout-s: expected a number of seconds, got 'nan'" in capsys.readouterr().err
    assert not out.exists()
    for seconds, timed_out in (("inf", False), ("0", True)):
        assert main([*argv, "--timeout-s", seconds]) == 0
        report = RunReport.from_json(out.read_text()) if command == "run" else _bench_lines(out)[-1]
        assert report.timed_out is timed_out, seconds


def test_netflix_ingest_writes_no_side_file(tmp_path):
    # named like the converted-triples file an ingest to items.dpps1 once left behind
    src = tmp_path / "items.triples.csv"
    src.write_text("12:\n101,5,2005-01-01\n102,3,2005-01-02\n34:\n101,4,2005-02-01\n103,5,2005-02-02\n")
    before = src.read_bytes()
    out = tmp_path / "items.dpps1"
    assert main(["ingest", "--format", "netflix", "--input", str(src), "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "items.dpps1", "items.dpps1.idmap.json", "items.triples.csv"]
    assert src.read_bytes() == before

    ref_dir = tmp_path / "ref"
    ref_dir.mkdir()
    triples = ref_dir / "r.csv"
    triples.write_text("101,12,5\n102,12,3\n101,34,4\n103,34,5\n")
    ref = ref_dir / "r.dpps1"
    assert main(["ingest", "--input", str(triples), "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()
    assert (tmp_path / "items.dpps1.idmap.json").read_text() == (ref_dir / "r.dpps1.idmap.json").read_text()


@pytest.mark.parametrize("argv", [["run", "--algo", "fast", "--k", "1"], ["ingest"], ["ingest", "--format", "netflix"]],
                         ids=["run", "ingest", "ingest-netflix"])
@pytest.mark.parametrize("raw", NON_TEXT.values(), ids=NON_TEXT)
def test_a_binary_file_that_is_no_matrix_is_refused_naming_its_path(tmp_path, argv, raw):
    """``run`` hands a file with neither magic to the CSV reader, and ``ingest`` reads text only."""
    path = tmp_path / "in.bin"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as err:
        main([*argv, "--input", str(path), "--out", str(tmp_path / "out")])
    assert type(err.value) is ValueError and str(err.value) == f"{path}: not a UTF-8 text file"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.bin"]


def test_ingested_matrix_runs(tmp_path):
    src = tmp_path / "r.csv"
    lines = []
    rng = np.random.default_rng(5)
    for user in range(12):
        for item in rng.permutation(8)[:4]:
            lines.append(f"u{user},m{item},{rng.integers(1, 6)}")
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "r.dpps1"
    main(["ingest", "--input", str(src), "--out", str(out)])
    rep_path = tmp_path / "run.json"
    rc = main(["run", "--algo", "lazyfast", "--input", str(out), "--input-kind", "B",
               "--k", "2", "--check", "--out", str(rep_path)])
    assert rc == 0


@pytest.mark.parametrize("algo", ["fast", "lazyfast", "random", "stochastic", "interlace"])
def test_sparse_file_and_dense_twin_give_identical_reports(tmp_path, algo):
    rng = np.random.default_rng(6)
    features = rng.standard_normal((30, 24))
    features[rng.random(features.shape) < 0.6] = 0.0
    sparse_path, dense_path = tmp_path / "f.dpps1", tmp_path / "f.dppm1"
    matrixio.write_sparse(sparse_path, SparseColumns.from_dense(features))
    matrixio.write_dense(dense_path, features)
    reports = []
    for path in (sparse_path, dense_path):
        out = tmp_path / f"{path.suffix}.json"
        assert main(["run", "--algo", algo, "--input", str(path), "--k", "5",
                     "--seed", "3", "--epsilon", "0.5", "--out", str(out)]) == 0
        reports.append(RunReport.from_json(out.read_text()).to_json(include_timings=False))
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["selection"]


def test_verify_quick_exits_zero(capsys):
    assert main(["verify", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_fails_a_raising_check_and_runs_the_rest(monkeypatch, capsys):
    def check_raises():
        raise ZeroDivisionError("planted")

    def check_after():
        return verify.CheckResult("after", True, "ran")

    monkeypatch.setattr(verify, "_BATTERY", ((check_raises, {}), (check_after, {})))
    assert main(["verify", "--quick"]) == 1
    assert capsys.readouterr().out.splitlines() == ["FAIL  check_raises: raised ZeroDivisionError: planted",
                                                    "PASS  after: ran", "1/2 checks passed"]


def test_unknown_algo_rejected(tmp_path):
    b = tmp_path / "b.dppm1"
    main(["gen", "--n", "6", "--out", str(b)])
    with pytest.raises(SystemExit):
        main(["run", "--algo", "bogus", "--input", str(b)])


def test_binarized_sparse_files_load_onto_the_exact_dot(tmp_path):
    """A 0/1 DPPS1 file shaped like the benchmark's sparse workload (d = 2000, n = 1000,
    about 5% dense) takes the popcount bitsets.  A 0/1 file below density 1/64, one with a
    single 2.0 and a signed-integer one sum with the exact ``np.dot``; Gaussian features
    stay on the fold."""
    gauss = np.random.default_rng(3).standard_normal((2000, 1000))
    strong = np.abs(gauss) > 1.645

    def load(name, dense, scale=1.0, shift=0.0):
        path = tmp_path / f"{name}.dpps1"
        matrixio.write_sparse(path, SparseColumns.from_dense(dense))
        return load_oracle(str(path), "B", scale, shift)

    binary = (gauss > 1.645).astype(np.float64)
    assert load("binary", binary).kind == B_BITS
    assert load("binary", binary, 0.9, 0.1).kind == B_BITS
    assert load("thin", (gauss > 2.6).astype(np.float64))._dot is _int_dot  # about 0.5% dense
    binary[np.flatnonzero(binary[:, 7])[0], 7] = 2.0
    assert load("one-two", binary)._dot is _int_dot
    assert load("signed", np.sign(gauss) * strong)._dot is _int_dot
    assert load("gauss", gauss * strong)._dot is seq_dot


@pytest.mark.parametrize("k", ["0", "-2"])
def test_run_rejects_a_non_positive_k(tmp_path, capsys, k):
    b, out = tmp_path / "b.dppm1", tmp_path / "r.json"
    main(["gen", "--n", "6", "--out", str(b)])
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--algo", "fast", "--input", str(b), "--k", k, "--out", str(out)])
    assert exit_info.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "4", "--d", "3", "--seed", "-1"],
    ["run", "--algo", "fast", "--k", "2", "--seed", "-1"],
    ["bench", "--algos", "fast,random", "--n", "8", "--k", "2", "--seed", "-1"],
    ["bench", "--algos", "fast,random", "--n", "8", "--k", "2", "--seed", "1,-2"],
], ids=["gen", "run", "bench", "bench-list"])
def test_a_negative_seed_is_refused_at_parse_time(tmp_path, capsys, argv):
    b, out = tmp_path / "b.dppm1", tmp_path / "out"
    main(["gen", "--n", "6", "--out", str(b)])
    capsys.readouterr()
    inputs = ["--input", str(b)] if argv[0] == "run" else []
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, *inputs, "--out", str(out)])
    assert exit_info.value.code == 2
    assert "argument --seed: expected a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["gen", "--n", "0"], "--n"),
    (["gen", "--n", "4", "--d", "-2"], "--d"),
    (["bench", "--algos", "fast", "--k", "2", "--n", "0"], "--n"),
    (["bench", "--algos", "fast", "--k", "2", "--n", "20,-3"], "--n"),
    (["bench", "--algos", "fast", "--k", "2", "--n", "8", "--d", "0"], "--d"),
], ids=["gen-n", "gen-d", "bench-n", "bench-n-list", "bench-d"])
def test_a_non_positive_size_is_refused_at_parse_time(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--out", str(out)])
    assert exit_info.value.code == 2
    assert f"argument {flag}: expected a positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sizes", [["--n", "4294967296"], ["--n", "2147483648", "--d", "2147483648"]],
                         ids=["n", "n-and-d"])
def test_gen_refuses_a_matrix_past_numpys_largest_array(tmp_path, capsys, sizes):
    out = tmp_path / "out"
    assert main(["gen", *sizes, "--out", str(out)]) == 2
    assert "dppmap gen: error: argument --n/--d: n = " in capsys.readouterr().err
    assert not out.exists()


def test_gen_past_memory_but_within_numpys_bound_is_a_memory_error(tmp_path):
    """2**20 items of 2**20 features (8 TiB) fit numpy's index range, not the address-space cap."""
    out = tmp_path / "out"
    proc = run_capped(f"from dppmap import cli; cli.main(['gen', '--n', '1048576', '--out', {str(out)!r}])")
    assert proc.returncode == 1 and "MemoryError: Unable to allocate 8.00 TiB" in proc.stderr, proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("algo", ["double-fast", "double-naive"])
def test_run_refuses_k_for_the_double_greedies(tmp_path, capsys, algo):
    b, out = tmp_path / "b.dppm1", tmp_path / "r.json"
    main(["gen", "--n", "10", "--d", "12", "--seed", "3", "--out", str(b)])
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--algo", algo, "--input", str(b), "--k", "2", "--out", str(out)])
    assert exit_info.value.code == 2
    assert f"{algo} takes no k" in capsys.readouterr().err
    assert not out.exists()
    assert main(["run", "--algo", algo, "--input", str(b), "--seed", "1", "--out", str(out)]) == 0
    report = RunReport.from_json(out.read_text())
    assert (report.algo, report.n, report.k) == (algo, 10, 10)
    assert main(["run", "--algo", "fast", "--input", str(b), "--k", "2", "--out", str(out)]) == 0
    assert len(RunReport.from_json(out.read_text()).selection) == 2


def test_run_help_says_the_double_greedies_take_no_k(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    assert "the double greedies take none" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", ["run", "bench"])
def test_help_states_the_adjustment_defaults(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "kernel scale (default 1.0; 0.9 for double greedy)" in text
    assert "diagonal shift (default 0.0; 0.1 for double greedy)" in text


@pytest.mark.parametrize("flag, value, message", [
    ("--k", "0,-2", "expected a positive integer"),
    ("--k", "3,0", "expected a positive integer"),
    ("--algos", ",", "expected comma-separated algorithm names"),
    ("--algos", "fast,bogus", "unknown algorithm 'bogus'"),
])
def test_bench_rejects_a_bad_k_or_algorithm_list(tmp_path, capsys, flag, value, message):
    out = tmp_path / "bench.jsonl"
    argv = {"--algos": "fast", "--n": "20", "--k": "3", "--out": str(out), flag: value}
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", *[tok for pair in argv.items() for tok in pair]])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bench_records_a_grid_value_that_cannot_build_an_instance(tmp_path):
    """n = 2**32 passes the parser, but its n-by-n features exceed numpy's largest array."""
    out, huge = tmp_path / "bench.jsonl", 2 ** 32
    assert main(["bench", "--algos", "fast", "--n", f"20,{huge}", "--k", "3,4", "--out", str(out)]) == 0
    reports = _bench_lines(out)
    assert [(r.n, r.k, r.extras) for r in reports] == [
        (20, 3, {}), (20, 4, {}), (huge, 3, {"error": "ValueError"}), (huge, 4, {"error": "ValueError"})]
    assert [len(r.selection) for r in reports] == [3, 4, 0, 0]


def test_bench_keeps_the_finished_cells_when_a_sweep_is_interrupted(tmp_path, monkeypatch):
    from dppmap import bench

    real, calls = bench.run_algorithm, []

    def interrupted(*args, **kwargs):
        calls.append(args[0])
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(bench, "run_algorithm", interrupted)
    out = tmp_path / "bench.jsonl"
    with pytest.raises(KeyboardInterrupt):
        main(["bench", "--algos", "fast,lazyfast", "--n", "20", "--k", "3", "--out", str(out)])
    (report,) = _bench_lines(out)
    assert (report.algo, report.k, len(report.selection)) == ("fast", 3, 3)


def test_a_gen_file_is_the_header_and_the_one_shot_features(tmp_path):
    """``gen`` writes the header, then the item-major one-shot Box-Muller draw
    transposed to d-by-n in row-major order, byte for byte."""
    out = tmp_path / "g.dppm1"
    main(["gen", "--n", "33", "--d", "17", "--seed", "5", "--out", str(out)])
    want = one_shot_normals(DecisionStream(5), 33 * 17).reshape(33, 17).T.copy()
    assert out.read_bytes() == b"DPPM1" + struct.pack("<II", 17, 33) + want.astype("<f8").tobytes()


def test_a_sparse_run_validates_its_columns_once(tmp_path, monkeypatch):
    path = tmp_path / "s.dpps1"
    matrixio.write_sparse(path, SparseColumns.from_dense(np.eye(6)[:, [0, 1, 2, 3, 4, 5, 0]]))
    calls = []
    original = SparseColumns.validate
    monkeypatch.setattr(SparseColumns, "validate", lambda cols: calls.append(cols) or original(cols))
    assert main(["run", "--algo", "random", "--input", str(path), "--k", "3",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 1


SCIPY_GUARD = """
import json, sys
import dppmap
from dppmap import matrixio
from dppmap.cli import main
from dppmap.kernel import SparseColumns
import numpy as np

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

work = sys.argv[1]
loaded = {"import": scipy_modules()}
features = (np.arange(60.0).reshape(6, 10) % 7 == 0).astype(np.float64)
matrixio.write_sparse(f"{work}/s.dpps1", SparseColumns.from_dense(features))
main(["run", "--algo", "random", "--input", f"{work}/s.dpps1", "--k", "3", "--out", f"{work}/r.json"])
loaded["random"] = scipy_modules()
gram = np.random.default_rng(0).standard_normal((8, 8))
matrixio.write_dense(f"{work}/l.dppm1", gram.T @ gram)
main(["run", "--algo", "lazyfast", "--input", f"{work}/l.dppm1", "--input-kind", "L", "--k", "3",
      "--out", f"{work}/r.json"])
loaded["lazyfast"] = scipy_modules()
main(["run", "--algo", "double-fast", "--input", f"{work}/l.dppm1", "--input-kind", "L",
      "--out", f"{work}/r.json"])
loaded["double-fast"] = scipy_modules()
print(json.dumps(loaded))
"""


def test_only_double_greedy_loads_scipy(tmp_path):
    """A process that imports dppmap and runs the greedy solvers never imports scipy;
    double greedy loads only scipy's compiled BLAS wrappers for its dot cache and its
    LAPACK wrappers for its kernel inverse, never ``scipy.linalg`` or the ``scipy``
    package, and still runs."""
    src = str(Path(dppmap.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCIPY_GUARD, str(tmp_path)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "import": [], "random": [], "lazyfast": [], "double-fast": ["scipy.linalg._fblas", "scipy.linalg._flapack"]}
    assert RunReport.from_json((tmp_path / "r.json").read_text()).algo == "double-fast"
