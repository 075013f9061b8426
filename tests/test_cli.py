import csv
import json

import numpy as np
import pytest

from dppmap import matrixio
from dppmap.bench import CSV_COLUMNS
from dppmap.cli import main
from dppmap.kernel import SparseColumns
from dppmap.report import RunReport


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
        rc = main(["run", "--algo", algo, "--input", str(b), "--input-kind", "B",
                   "--k", "3", "--seed", "1", "--epsilon", "0.5", "--out", str(out)])
        assert rc == 0, algo
        report = RunReport.from_json(out.read_text())
        assert report.algo in (algo, algo.replace("double-", "double-"))


def test_run_l_input(tmp_path):
    feats = np.random.default_rng(0).standard_normal((8, 8))
    l_path = tmp_path / "l.dppm1"
    matrixio.write_dense(l_path, feats.T @ feats)
    out = tmp_path / "r.json"
    rc = main(["run", "--algo", "fast", "--input", str(l_path), "--input-kind", "L",
               "--k", "3", "--out", str(out)])
    assert rc == 0
    assert RunReport.from_json(out.read_text()).input_kind == "L"


def test_bench_csv_columns_and_lazy_leq_fast(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--algos", "fast,lazyfast", "--n", "60", "--k", "8",
               "--seeds", "1,2", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == CSV_COLUMNS
    by_key = {}
    for row in rows:
        by_key.setdefault((row["n"], row["k"], row["seed"]), {})[row["algo"]] = row
    assert len(by_key) == 2
    for pair in by_key.values():
        assert int(pair["lazyfast"]["U"]) <= int(pair["fast"]["U"])


def test_bench_appends(tmp_path):
    out = tmp_path / "bench.csv"
    main(["bench", "--algos", "fast", "--n", "20", "--k", "3", "--out", str(out)])
    main(["bench", "--algos", "fast", "--n", "20", "--k", "4", "--out", str(out)])
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {row["k"] for row in rows} == {"3", "4"}


def test_bench_grid_flags(tmp_path):
    out = tmp_path / "grid.csv"
    rc = main(["bench", "--algos", "lazyfast", "--n-grid", "20,30", "--k", "4",
               "--input-kind", "L", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert {row["n"] for row in rows} == {"20", "30"}
    assert {row["input_kind"] for row in rows} == {"L"}


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


def test_unknown_algo_rejected(tmp_path):
    b = tmp_path / "b.dppm1"
    main(["gen", "--n", "6", "--out", str(b)])
    with pytest.raises(SystemExit):
        main(["run", "--algo", "bogus", "--input", str(b)])
