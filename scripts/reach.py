#!/usr/bin/env python3
"""List the lines of ``src/dppmap`` that no production command reaches.

Run from anywhere, with the package's dependencies installed::

    python3 scripts/reach.py

In one process, under ``sys.settrace`` (standard library only), it drives a
small mix of the commands the package ships: ``gen``; ``ingest`` of a
triples CSV and of a netflix file; ``run`` of every algorithm on dense B
features, their L kernel, an identity kernel, a dense CSV, 0/1 DPPS1 files
at 5% and 0.4% density, integer and float sparse files and two ingested
files, plus a few runs that reach full rank, ask for more items than there
are (``--k n + 1``), ``--check``, ``--timeout-s`` and a second dot-cache
window; and a ``bench`` sweep on B and on L input.
It then prints, function by function, the executable lines none of them
reached.

A ``raise`` statement and the body of an ``except`` clause are error
branches, and may stay unreached.  So may what ``ALLOWED`` names, each with
its reason.  The script exits 1 if any other line is unreached, and 0
otherwise; an ``ALLOWED`` entry with nothing unreached is noted, since
threads and timing differ between hosts.  It takes about 5 s, and
``tests/test_reach.py`` runs it in the test suite.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import threading
import types
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dppmap"

# Unreached code kept on purpose, with its reason: a module file, or "file:qualified name" of a
# function, which covers the functions defined inside it too.
ALLOWED = {
    # run by `dppmap verify` and the tests only
    "verify.py": "the invariant battery",
    "naive_variants.py": "the brute-force twins of random, stochastic and interlace, differential references",
    "cli.py:cmd_verify": "the verify command",
    "doublegreedy.py:jacobi_gain_check": "brute-force check of the complementary-minor identity",
    "reference.py:exhaustive_map": "the brute-force optimum the approximation bands are checked against",
    "variants.py:triangle": "work-count band",
    "variants.py:sweep_total": "work-count band",
    "variants.py:greedy_band": "work-count band",
    "variants.py:stochastic_upper_bound": "work-count band",
    "variants.py:interlace_band": "work-count band",
    "kernel.py:KernelOracle.from_sparse_features": "builds a checked oracle from columns no file reader validated",
    # kept for the tests, each with a live test user
    "doublegreedy.py:naive_double_greedy": "its matrix form, kept until ROADMAP item 8 lands",
    "report.py:RunReport.to_json": "include_timings=False, the byte-identity form",
    "report.py:RunReport.from_json": "reads a report back; perfbench and the tests use it",
    # error paths that are not a raise statement, or name the fault before one
    "cli.py:main": "parser.error refuses --k for a double greedy",
    "kernel.py:SparseColumns.validate": "finds the first faulty column",
    "kernel.py:_judge_diagonal": "finds the first faulty diagonal entry",
    "kernel.py:KernelOracle.from_dense_kernel": "finds the first asymmetric entry",
    # guards no production input reaches
    "cholesky.py:CholeskyState.marginal_gain": "a zero pivot: the inverse gate refuses every kernel that "
                                               "gives one to fast double greedy, the only production caller",
    "reference.py:inverse": "an empty matrix: every oracle holds at least one item",
    "reference.py:_linalg_extension": "scipy without its compiled wrapper files where it keeps them",
    # decided by the host, not by the input
    "bench.py:soft_speed_warnings": "fires only when lazyfast runs slower than its bound against fast",
    "cli.py:cmd_bench": "prints those warnings",
    "stream.py:DecisionStream.normals": "helper threads start only with more than one CPU available",
}


def drive(work: Path) -> None:
    """Run the command mix, with every input written to ``work``."""
    import numpy as np

    from dppmap import cli, matrixio
    from dppmap.bench import ALGORITHMS
    from dppmap.kernel import KernelOracle, SparseColumns

    def main(*argv) -> None:
        if cli.main([str(a) for a in argv]) != 0:
            raise SystemExit(f"reach: dppmap {' '.join(map(str, argv))} failed")

    rng = np.random.default_rng(7)
    n = 40
    feats = work / "feats.dppm"
    main("gen", "--n", n, "--d", 8, "--seed", 1, "--out", feats)  # rank 8: greedy runs stop early
    main("gen", "--n", 150, "--seed", 2, "--out", work / "large.dppm")  # two blocks of normals; the dot cache rolls
    dense = matrixio.read_dense(feats)
    matrixio.write_dense(work / "kernel.dppm", KernelOracle.from_dense_features(dense).materialize())
    matrixio.write_dense(work / "identity.dppm", np.eye(n))  # every gain exactly zero
    (work / "dense.csv").write_text("".join(",".join(map(repr, row)) + "\n" for row in dense.tolist()))
    sparse = {"ones-5": (rng.random((400, n)) < 0.05) * 1.0,
              "ones-0.4": (rng.random((4000, n)) < 0.004) * 1.0,
              "integer": (rng.random((60, n)) < 0.2) * rng.integers(-3, 4, (60, n)),
              "float": (rng.random((60, n)) < 0.2) * rng.standard_normal((60, n))}
    sparse["integer"][:, 3] = sparse["float"][:, 3] = 0.0  # an item with no features
    for name, values in sparse.items():
        matrixio.write_sparse(work / f"{name}.dpps1", SparseColumns.from_dense(values))

    triples = ["user,item,rating"] + [f"u{u},i{i},{int(rng.integers(1, 6))}"
                                      for u in range(50) for i in range(n) if rng.random() < 0.4]
    (work / "ratings.csv").write_text("\n".join(triples + ["u0,i0,11"]) + "\n")  # one rating out of range
    movies = "".join(f"{i}:\n" + "".join(f"{u},{int(rng.integers(1, 6))},2005-01-01\n"
                                         for u in range(50) if rng.random() < 0.4) for i in range(n))
    (work / "netflix.txt").write_text(movies)
    main("ingest", "--input", work / "ratings.csv", "--out", work / "ingested.dpps1")
    main("ingest", "--input", work / "netflix.txt", "--format", "netflix", "--keep-empty",
         "--out", work / "netflix.dpps1")

    largest_k = {"random": n // 2, "stochastic": n // 3, "interlace": n // 4}  # the most each algorithm takes
    inputs = [(feats, "B"), (work / "kernel.dppm", "L"), (work / "identity.dppm", "L"),
              (work / "dense.csv", "B"), (work / "ingested.dpps1", "B"), (work / "netflix.dpps1", "B")]
    inputs += [(work / f"{name}.dpps1", "B") for name in sparse]
    for path, kind in inputs:
        for algo in ALGORITHMS:
            k = [] if algo.startswith("double") else ["--k", largest_k.get(algo, n)]
            main("run", "--algo", algo, "--input", path, "--input-kind", kind, *k, "--seed", 1,
                 "--out", work / "report.json")
            if path == feats:  # full rank: every greedy run takes all k items
                main("run", "--algo", algo, "--input", path, *k, "--shift", 1.0, "--out", work / "report.json")
    for algo in ("naive", "lazy", "fast", "lazyfast"):  # no size bound: k past n empties the queue
        main("run", "--algo", algo, "--input", feats, "--k", n + 1, "--shift", 1.0, "--out", work / "report.json")
    main("run", "--algo", "double-fast", "--input", work / "large.dppm", "--out", work / "report.json")
    main("run", "--algo", "lazyfast", "--input", work / "identity.dppm", "--input-kind", "L", "--k", 5,
         "--check")  # an empty selection, its report to stdout
    main("run", "--algo", "stochastic", "--input", feats, "--k", 5, "--epsilon", 1e-6,
         "--out", work / "report.json")  # a sample as large as the pool
    main("run", "--algo", "fast", "--input", feats, "--k", 5, "--timeout-s", 0, "--out", work / "cut.json")
    for kind in ("B", "L"):
        main("bench", "--algos", ",".join(ALGORITHMS), "--n", "20,30", "--k", 4, "--seed", "1,2",
             "--input-kind", kind, "--out", work / "bench.jsonl")


def trace(run) -> set[tuple[str, int]]:
    """``(file, line)`` for every line of the package ``run()`` executes, on any thread."""
    reached = set()
    prefix = str(PACKAGE) + os.sep

    def lines(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        reached.add((code.co_filename, code.co_firstlineno))  # a def line sees a call, not a line event
        return lines

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return reached


def executable(path: Path) -> dict[int, str]:
    """Each line with code in the module at ``path``, with the qualified name of its innermost function."""
    owner: dict[int, tuple[int, str]] = {}

    def walk(code: types.CodeType, depth: int) -> None:
        for _, _, line in code.co_lines():
            if line and depth >= owner.get(line, (-1, ""))[0]:  # a module's RESUME sits on line 0
                owner[line] = (depth, "<module>" if depth == 0 else code.co_qualname)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, depth + 1)

    walk(compile(path.read_text(), str(path), "exec"), 0)
    return {line: name for line, (_, name) in owner.items()}


def error_branches(path: Path) -> set[int]:
    """The lines of every ``raise`` statement and every ``except`` clause in the module at ``path``."""
    spans = [node for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.Raise, ast.ExceptHandler))]
    return {line for node in spans for line in range(node.lineno, node.end_lineno + 1)}


def spans(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``"3-5, 9"``."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        reached = trace(lambda: drive(Path(work)))
    total = faults = 0
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable(path)
        total += len(lines)
        errors = error_branches(path)
        missed: dict[str, list[int]] = {}
        for line, name in sorted(lines.items()):
            if (str(path), line) in reached or line in errors:
                continue
            keys = [path.name] + [f"{path.name}:{name[:end]}" for end in range(len(name) + 1)
                                  if end == len(name) or name[end] == "."]
            allowed = [key for key in keys if key in ALLOWED]
            used.update(allowed)
            if not allowed:
                missed.setdefault(name, []).append(line)
        for name, unreached in missed.items():
            print(f"{path.relative_to(PACKAGE.parents[1])}: {name}: {spans(unreached)}")
            faults += len(unreached)
    for key in sorted(set(ALLOWED) - used):  # not a failure: threads and timing differ between hosts
        print(f"note: ALLOWED names nothing unreached on this run: {key}")
    print(f"{faults} unreached lines outside error branches and ALLOWED, of {total} executable")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
