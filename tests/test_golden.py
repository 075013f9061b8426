"""One pinned digest over the timing-stripped reports of every solver.

Every ``ALGORITHMS`` entry through ``run_algorithm``, the three brute-force
variant twins and a direct ``naive_double_greedy`` run on B, L and 0/1-sparse
input (n = 24, k = 5, seeds 1-3), plus three inputs that make the stop paths
run: rank-4 B features (the greedy stops after four commits), ``I`` (every
gain is exactly zero, the boundary stop) and ``I / 2`` (every gain is
negative).  A run that raises contributes its exception's type name.  A
refactor of how solvers record their steps must leave this digest as it is;
a change that means to alter reports must say why it moves it.
"""

import hashlib

import numpy as np

from dppmap.bench import ALGORITHMS, naive_twin_report, resolve_adjustment, run_algorithm
from dppmap.datagen import SyntheticSpec, gen_synthetic
from dppmap.doublegreedy import naive_double_greedy
from dppmap.kernel import KernelOracle, SparseColumns
from dppmap.stream import DecisionStream

N, K, SEEDS, EPSILON = 24, 5, (1, 2, 3), 0.5
GOLDEN = "d72d68a70ff211644e9d337bdbce65d852417f14402fff843af9f059178fc882"


def _oracle(kind: str, seed: int, scale: float, shift: float) -> KernelOracle:
    if kind == "identity":
        return KernelOracle.from_dense_kernel(np.eye(N), scale, shift)
    if kind == "half-identity":
        return KernelOracle.from_dense_kernel(0.5 * np.eye(N), scale, shift)
    features = gen_synthetic(SyntheticSpec(n=N, d=4 if kind == "rank4" else N, seed=seed))
    if kind in ("B", "rank4"):
        return KernelOracle.from_dense_features(features, scale, shift)
    if kind == "L":
        return KernelOracle.from_dense_kernel(KernelOracle.from_dense_features(features).materialize(),
                                              scale, shift)
    binary = (features > 0.5).astype(np.float64)
    return KernelOracle.from_sparse_features(SparseColumns.from_dense(binary), scale, shift)


def _text(make) -> str:
    try:
        return make().to_json(include_timings=False)
    except Exception as exc:  # noqa: BLE001 - the error type is part of the record
        return f"error {type(exc).__name__}\n"


def golden_reports():
    """(label, timing-stripped report JSON or error) for every pinned run, in a fixed order."""
    for kind in ("B", "L", "sparse01", "rank4", "identity", "half-identity"):
        for seed in SEEDS:
            for algo in ALGORITHMS:
                scale, shift = resolve_adjustment(algo, None, None)
                oracle = _oracle(kind, seed, scale, shift)
                yield f"{kind} {seed} {algo}", _text(
                    lambda: run_algorithm(algo, oracle, K, seed=seed, epsilon=EPSILON))
            for twin in ("random", "stochastic", "interlace"):
                oracle = _oracle(kind, seed, 1.0, 0.0)
                yield f"{kind} {seed} {twin}-naive", _text(
                    lambda: naive_twin_report(twin, oracle, K, seed, epsilon=EPSILON))
            matrix = _oracle(kind, seed, *resolve_adjustment("double", None, None)).materialize()
            yield f"{kind} {seed} naive_double_greedy", _text(
                lambda: naive_double_greedy(matrix, DecisionStream(seed)))


def golden_digest() -> str:
    sha = hashlib.sha256()
    for label, text in golden_reports():
        sha.update(f"{label}\n{text}".encode())
    return sha.hexdigest()


def test_timing_stripped_reports_match_the_pinned_digest():
    assert golden_digest() == GOLDEN
