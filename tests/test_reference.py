import importlib.machinery
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dppmap
from dppmap import reference
from dppmap.bench import build_synthetic_oracle, run_algorithm
from dppmap.errors import EnumerationLimitError, NonFiniteInputError, SingularKernelError

L22 = np.array([[4.0, 2.0], [2.0, 4.0]])


def det_cofactor(matrix: np.ndarray) -> float:
    """Determinant by cofactor expansion along the first row (small m only)."""
    m = matrix.shape[0]
    if m == 0:
        return 1.0
    if m == 1:
        return float(matrix[0, 0])
    total = 0.0
    for j in range(m):
        minor = np.delete(np.delete(matrix, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * float(matrix[0, j]) * det_cofactor(minor)
    return total


def test_log_det_empty_set():
    assert reference.log_det(L22, []) == 0.0


def test_log_det_2x2():
    assert reference.log_det(L22, [0, 1]) == pytest.approx(math.log(12.0), rel=1e-12)


def test_log_det_identity():
    eye = np.eye(5)
    for subset in ([0], [1, 3], [0, 1, 2, 3, 4]):
        assert reference.log_det(eye, subset) == 0.0


def test_log_det_singular_is_minus_inf():
    ones = np.ones((3, 3))
    assert reference.log_det(ones, [0, 1]) == -math.inf


def test_log_det_rejects_asymmetry():
    bad = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        reference.log_det(bad, [0, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_log_det_refuses_a_non_finite_submatrix(bad):
    """A NaN made the symmetry test ``max|sub - sub.T| > 1e-10`` read False and pass."""
    mat = np.eye(3)
    mat[1, 1] = bad
    with pytest.raises(NonFiniteInputError, match="submatrix contains NaN or infinite values"):
        reference.log_det(mat, [0, 1])
    assert reference.log_det(mat, [0, 2]) == 0.0  # only the extracted submatrix is read


def test_log_det_agrees_with_cofactor_expansion():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        root = rng.standard_normal((m + 2, m))
        sub = root.T @ root
        want = math.log(det_cofactor(sub))
        full = np.zeros((m + 1, m + 1))
        full[:m, :m] = sub
        full[m, m] = 1.0
        got = reference.log_det(full, list(range(m)))
        assert got == pytest.approx(want, rel=1e-10)


def test_exhaustive_map_tie_goes_lexicographic():
    best_set, best_val = reference.exhaustive_map(L22, k=1)
    assert best_set == (0,)
    assert best_val == pytest.approx(math.log(4.0))


def test_exhaustive_map_unconstrained_diag():
    best_set, best_val = reference.exhaustive_map(2.0 * np.eye(3), k=None)
    assert best_set == (0, 1, 2)
    assert best_val == pytest.approx(3 * math.log(2.0))


def test_exhaustive_map_shrinking_item():
    best_set, best_val = reference.exhaustive_map(np.diag([2.0, 0.5]), k=None)
    assert best_set == (0,)
    assert best_val == pytest.approx(math.log(2.0))


def test_exhaustive_map_guard():
    with pytest.raises(EnumerationLimitError):
        reference.exhaustive_map(np.eye(21))


def test_inverse_hand_example():
    mat = np.array([[2.0, 1.0], [1.0, 2.0]])
    inv = reference.inverse(mat)
    want = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
    assert np.max(np.abs(inv - want)) < 1e-12
    assert np.max(np.abs(mat @ inv - np.eye(2))) <= 1e-12


def test_inverse_random_conditioning():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        root = rng.standard_normal((n, n))
        mat = root.T @ root + 0.1 * np.eye(n)
        inv = reference.inverse(mat)
        residual = np.max(np.sum(np.abs(mat @ inv - np.eye(n)), axis=1))
        assert residual <= 1e-8


def test_inverse_rejects_indefinite():
    with pytest.raises(SingularKernelError) as err:
        reference.inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert str(err.value) == ("matrix is not positive definite: "
                              "2-th leading minor of the array is not positive definite")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_inverse_rejects_non_finite_entries(bad):
    mat = np.eye(3)
    mat[0, 2] = mat[2, 0] = bad
    with pytest.raises(NonFiniteInputError, match="matrix contains NaN or infinite values"):
        reference.inverse(mat)


@pytest.mark.parametrize("shape", [(2, 3), (4,), (1, 2, 2)])
def test_inverse_rejects_a_matrix_that_is_not_square(shape):
    with pytest.raises(ValueError, match="matrix must be square"):
        reference.inverse(np.ones(shape))


def test_inverse_of_an_empty_matrix_is_empty():
    assert reference.inverse(np.zeros((0, 0))).shape == (0, 0)


class _IllegalArgument:
    """LAPACK wrappers that report an illegal argument (``info < 0``), which valid calls never do."""

    def __init__(self, potrf_info, potrs_info):
        self.potrf_info, self.potrs_info = potrf_info, potrs_info

    def dpotrf(self, a, lower, clean):
        return a, self.potrf_info

    def dpotrs(self, c, b, lower, overwrite_b):
        return b, self.potrs_info


def test_inverse_raises_on_an_illegal_lapack_argument(monkeypatch):
    monkeypatch.setattr(reference, "_lapack", lambda: _IllegalArgument(-2, 0))
    with pytest.raises(ValueError, match=r'illegal value in 2-th argument on entry to "POTRF"'):
        reference.inverse(np.eye(2))
    monkeypatch.setattr(reference, "_lapack", lambda: _IllegalArgument(0, -3))
    with pytest.raises(ValueError, match="illegal value in 3th argument of internal potrs"):
        reference.inverse(np.eye(2))


def test_lapack_falls_back_to_scipy_linalg_without_the_extension_file(monkeypatch):
    """Where no ``_flapack`` or ``_fblas`` file is found, the wrappers come from
    ``scipy.linalg.lapack`` or ``scipy.linalg.blas``."""
    lean_lapack, lean_blas = reference._lapack(), reference._blas()
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".absent"])
    fallback = reference._lapack.__wrapped__()
    assert fallback.__name__ == "scipy.linalg.lapack"
    assert fallback.dpotrf is lean_lapack.dpotrf and fallback.dpotrs is lean_lapack.dpotrs
    fallback = reference._blas.__wrapped__()
    assert fallback.__name__ == "scipy.linalg.blas"
    assert fallback.dgemm is lean_blas.dgemm


LEAN_INVERSE = """
import json, sys
import numpy as np
from dppmap import reference

rng = np.random.default_rng(11)
kernels = []
for n in (1, 2, 5, 17, 64, 150):
    root = rng.standard_normal((n + 2, n))
    kernels += [root.T @ root, 0.9 * (root.T @ root) + 0.1 * np.eye(n)]
kernels.append(np.diag([2.0, 3.0, 5.0]))
inverses = [reference.inverse(k) for k in kernels]
lean = "scipy.linalg" not in sys.modules
from scipy.linalg import cho_factor, cho_solve
same = [inv.tobytes() == cho_solve(cho_factor(k, lower=True), np.eye(len(k))).tobytes()
        for k, inv in zip(kernels, inverses)]
print(json.dumps({"lean": lean, "same": same}))
"""


def test_inverse_is_bitwise_scipys_cho_factor_and_cho_solve(tmp_path):
    """The lean inverse, computed before ``scipy.linalg`` is imported, has the bits of
    scipy's public ``cho_solve(cho_factor(K, lower=True), I)`` on every kernel."""
    src = str(Path(dppmap.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", LEAN_INVERSE], capture_output=True, text=True,
                          timeout=120, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"lean": True, "same": [True] * 13}


def test_exhaustive_dominates_greedy():
    from dppmap import GreedyConfig, KernelOracle, lazy_fast_greedy
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        root = rng.standard_normal((n, n))
        mat = root.T @ root
        k = int(rng.integers(1, n + 1))
        rep = lazy_fast_greedy(KernelOracle.from_dense_kernel(mat), GreedyConfig(k=k))
        _, best = reference.exhaustive_map(mat, k)
        assert best >= rep.final_objective - 1e-9


def _expected_ln_dets(report, n: int) -> int:
    """ln det calls for a brute-force run that takes each one once, read off its report."""
    if report.algo == "lazy":
        return report.extras["gain_evals"]
    if report.algo == "double-naive":  # add and drop objectives per step, plus the full set once
        return 2 * report.steps_attempted + 1
    if report.algo == "interlace-naive":  # every candidate left, at each of the four runs' picks
        assert [len(seq) for seq in report.extras["sequences"].values()] == [report.k] * 4
        total = 0
        for steps, taken in ((report.k, 0), (report.k - 1, 1)):
            for _ in range(2 * steps):
                total += n - taken
                taken += 1
        return total
    # one per remaining item (stochastic: per sampled item) at each attempted step
    idle = set(report.extras.get("dummy_steps", report.extras.get("skipped_steps", [])))
    total = commits = 0
    for step in range(1, report.steps_attempted + 1):
        total += min(n - commits, report.extras.get("sample_size", n))
        commits += step not in idle
    return total


@pytest.mark.parametrize("algo", ["naive", "lazy", "random-naive", "stochastic-naive",
                                  "interlace-naive", "double-naive"])
def test_brute_force_solvers_take_each_ln_det_once(monkeypatch, algo):
    """A commit records the ln det its gain came from, and double greedy carries the survivors' one."""
    n = 24
    mixed = {"scale": 1.5 / n, "shift": 0.1} if algo == "double-naive" else {}  # both moves win now and then
    oracle = build_synthetic_oracle(n, n, 1, "B", **mixed)
    calls = []
    real = reference.log_det
    monkeypatch.setattr(reference, "log_det", lambda matrix, subset: calls.append(1) or real(matrix, subset))
    report = run_algorithm(algo, oracle, 4, seed=3, epsilon=0.5)
    assert report.selection
    assert len(calls) == _expected_ln_dets(report, n)


def test_an_item_decoupled_from_the_selection_gains_exactly_its_own_ln_det():
    """Unit items with no kernel entry on anything else gain exactly 0 against every selection,
    wherever they sit in index order among the selected items."""
    rng = np.random.default_rng(7)
    d, n = 6, 14
    features = np.zeros((d + 5, n))
    features[:d, 5:] = rng.standard_normal((d, n - 5)) / math.sqrt(d)
    features[d + np.arange(5), np.arange(5)] = 1.0
    matrix = dppmap.KernelOracle.from_dense_features(features[:, rng.permutation(n)]).materialize()
    units = [i for i in range(n) if matrix[i, i] == 1.0 and np.count_nonzero(matrix[i]) == 1]
    assert len(units) == 5
    for _ in range(300):
        selection = sorted(rng.permutation(n)[: int(rng.integers(1, 7))].tolist())
        base = reference.log_det(matrix, selection)
        rows = reference.gains(matrix, selection, base, [u for u in units if u not in selection])
        assert all(gain == 0.0 and objective == base for gain, _, objective in rows), (selection, rows)
