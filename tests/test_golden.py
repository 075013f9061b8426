"""One pinned digest over the timing-stripped reports of every solver.

Every ``SOLVERS`` entry (the nine ``ALGORITHMS`` and the three brute-force
variant twins) through ``run_algorithm`` and a direct ``naive_double_greedy``
run on an adjusted matrix, on B, L and 0/1-sparse input (n = 24, k = 5,
seeds 1-3), plus three inputs that make the stop paths run: rank-4 B
features (the greedy stops after four commits), ``I`` (every gain is exactly
zero, the boundary stop) and ``I / 2`` (every gain is negative), and the
three double greedy records on B and L input under ``MIXED``, where both
moves win and the shrink factor commits too.  A run that raises contributes
its exception's type name.  A refactor of how solvers record their steps
must leave this digest as it is; a change that means to alter reports must
say why it moves it.
"""

import ctypes
import hashlib
import importlib.util
from pathlib import Path

import numpy as np

from dppmap.bench import SOLVERS, resolve_adjustment, run_algorithm
from dppmap.datagen import SyntheticSpec, gen_synthetic
from dppmap.doublegreedy import naive_double_greedy
from dppmap.kernel import KernelOracle, SparseColumns
from dppmap.stream import DecisionStream

N, K, SEEDS, EPSILON = 24, 5, (1, 2, 3), 0.5
MIXED = (1.5 / N, 0.1)  # a double greedy adjustment whose kernel eigenvalues straddle 1
GOLDEN = "c4e28fc46f0fe8c606a989f4258e4cca7dd4431d18549d5dfc20ee4b3c5a016e"


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
            for algo in SOLVERS:
                scale, shift = resolve_adjustment(algo, None, None)
                oracle = _oracle(kind, seed, scale, shift)
                yield f"{kind} {seed} {algo}", _text(
                    lambda: run_algorithm(algo, oracle, K, seed=seed, epsilon=EPSILON))
            matrix = _oracle(kind, seed, *resolve_adjustment("double", None, None)).materialize()
            yield f"{kind} {seed} naive_double_greedy", _text(
                lambda: naive_double_greedy(matrix, DecisionStream(seed)))
    for kind in ("B", "L"):  # double greedy with both moves winning: 12 to 15 of the 24 items go to the shrink side
        for seed in SEEDS:
            for algo in ("double-fast", "double-naive"):
                oracle = _oracle(kind, seed, *MIXED)
                yield f"{kind} {seed} {algo} mixed", _text(lambda: run_algorithm(algo, oracle, K, seed=seed))
            matrix = _oracle(kind, seed, *MIXED).materialize()
            yield f"{kind} {seed} naive_double_greedy mixed", _text(
                lambda: naive_double_greedy(matrix, DecisionStream(seed)))


def golden_digest() -> str:
    sha = hashlib.sha256()
    for label, text in golden_reports():
        sha.update(f"{label}\n{text}".encode())
    return sha.hexdigest()


def openblas_query(package: str, symbol: str, restype=ctypes.c_char_p):
    """What ``symbol`` of the OpenBLAS bundled in ``package.libs`` returns, read through ``ctypes``, or ``unknown``."""
    libs = Path(importlib.util.find_spec(package).origin).parent.parent / f"{package}.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            query = getattr(ctypes.CDLL(str(path)), symbol)
        except (OSError, AttributeError):
            continue
        query.argtypes, query.restype = [], restype
        value = query()
        return value.decode() if isinstance(value, bytes) else value
    return "unknown"


def test_timing_stripped_reports_match_the_pinned_digest():
    """55 of the 252 reports take bits from LAPACK/BLAS, which differ between OpenBLAS cores, and
    at larger n than these between thread counts too."""
    cores = (f"numpy's OpenBLAS core {openblas_query('numpy', 'scipy_openblas_get_corename64_')}, "
             f"scipy's {openblas_query('scipy', 'scipy_openblas_get_corename')} with "
             f"{openblas_query('scipy', 'scipy_openblas_get_num_threads', ctypes.c_int)} thread(s)")
    assert golden_digest() == GOLDEN, f"digest pinned on the SkylakeX core; this run has {cores}"


def integer_det(matrix) -> int:
    """The determinant of a square integer matrix, by fraction-free (Bareiss) elimination in Python ints."""
    m = [list(row) for row in matrix]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if m else 1


def test_interlace_twins_part_only_on_exact_ties():
    """``interlace`` and ``interlace-naive`` may part only where two picks have exactly equal gains.

    A pick's gain is ``det K[S + i] / det K[S]`` with ``S`` the run's shared
    prefix, so two picks tie exactly when their integer numerators are equal.
    The 0/1 golden inputs have integer kernels, where such ties occur: on
    ``sparse01 2`` run A parts at its second pick, 18 against 0, and with
    ``S = {22}`` both numerators are 104.  The float gains of a tie may round
    apart (Cholesky pivots against LAPACK log-determinants), so the
    smaller-index tie-break need not decide it.  The check is exact integer
    arithmetic; it also holds once the twins agree on every tie.
    """
    assert resolve_adjustment("interlace", None, None) == (1.0, 0.0)  # the kernel is the Gram matrix itself
    for seed in SEEDS:
        binary = gen_synthetic(SyntheticSpec(n=N, d=N, seed=seed)) > 0.5
        items = [[int(v) for v in binary[:, i]] for i in range(N)]
        gram = [[sum(x * y for x, y in zip(a, b)) for b in items] for a in items]
        oracle = _oracle("sparse01", seed, 1.0, 0.0)
        fast, naive = (run_algorithm(algo, oracle, K).extras["sequences"] for algo in ("interlace", "interlace-naive"))
        # each phase's two runs pick alternately and exclude each other's picks, so compare them in pick order
        phases = [("A", "B")] + ([("C", "D")] if fast["A"][:1] == naive["A"][:1] else [])
        for phase in phases:
            picks = [(label, t) for t in range(K) for label in phase]
            parting = next(((label, t) for label, t in picks if fast[label][t:t + 1] != naive[label][t:t + 1]), None)
            if parting is None:
                continue
            label, t = parting
            assert t < min(len(fast[label]), len(naive[label])), (seed, label, fast[label], naive[label])
            prefix = fast[label][:t]
            dets = [integer_det([[gram[r][c] for c in prefix + [pick]] for r in prefix + [pick]])
                    for pick in (fast[label][t], naive[label][t])]
            assert dets[0] == dets[1], (seed, label, t, fast[label], naive[label], dets)


if __name__ == "__main__":  # one "label sha256" line per pinned report, to diff two checkouts label by label
    for label, text in golden_reports():
        print(label, hashlib.sha256(text.encode()).hexdigest())
