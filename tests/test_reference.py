import math

import numpy as np
import pytest

from dppmap import reference
from dppmap.errors import EnumerationLimitError, SingularKernelError

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
    with pytest.raises(SingularKernelError):
        reference.inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))


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
