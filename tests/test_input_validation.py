"""Non-finite input, negative kernel diagonals and k < 1 fail fast with typed errors, whatever the solver or storage."""

import numpy as np
import pytest

from dppmap import matrixio
from dppmap.bench import ALGORITHMS, naive_twin_report, run_algorithm
from dppmap.cli import main
from dppmap.doublegreedy import naive_double_greedy
from dppmap.errors import NegativeDiagonalError, NonFiniteInputError, NonPositiveKError, SingularKernelError
from dppmap.greedy import GreedyConfig
from dppmap.variants import VariantConfig
from dppmap.kernel import KernelOracle, SparseColumns


def _nan_features():
    """The seed-0 5 x 8 feature matrix with item 4's first feature NaN.

    Unvalidated, ``fast`` (k = 4) selected [4, 0, 1, 2] with objective nan on
    it while ``lazyfast`` selected [6, 5, 0].
    """
    features = np.random.default_rng(0).standard_normal((5, 8))
    features[0, 4] = np.nan
    return features


def test_non_finite_input_error_is_a_value_error():
    assert issubclass(NonFiniteInputError, ValueError)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_every_solver_raises_the_same_error_on_nan_features(algo):
    with pytest.raises(NonFiniteInputError, match="feature matrix contains NaN or infinite values"):
        run_algorithm(algo, KernelOracle.from_dense_features(_nan_features()), 4, seed=1)


@pytest.mark.parametrize("algo", ["fast", "lazyfast", "random", "stochastic", "interlace",
                                  "naive", "lazy", "random-naive", "stochastic-naive", "interlace-naive"])
def test_factor_based_solvers_raise_the_typed_negative_diagonal_error(algo):
    """A factor starts each row from ``sqrt`` of its diagonal entry and refuses a negative one.

    The brute-force solvers and twins refuse it too, with the same error and
    message, before their first gain.
    """
    kernel = KernelOracle.from_dense_kernel(np.diag([2.0, -0.5, -1.0, -3.0, -2.0, -1.0, -4.0, -5.0]))
    with pytest.raises(NegativeDiagonalError, match="negative kernel diagonal at [1-7]: -"):
        if algo.endswith("-naive"):
            naive_twin_report(algo.removesuffix("-naive"), kernel, 1, seed=1, epsilon=0.5)
        else:
            run_algorithm(algo, kernel, 1, seed=1, epsilon=0.5)


def test_brute_force_solvers_name_the_first_negative_diagonal():
    kernel = KernelOracle.from_dense_kernel(np.diag([2.0, -0.5, -1.0, -3.0, -2.0, -1.0, -4.0, -5.0]))
    for algo in ("naive", "lazy"):
        with pytest.raises(NegativeDiagonalError) as err:
            run_algorithm(algo, kernel, 1)
        assert str(err.value) == "negative kernel diagonal at 1: -0.5"


def test_double_naive_refuses_a_negative_diagonal_as_singular():
    kernel = KernelOracle.from_dense_kernel(np.diag([2.0, -0.5, 1.0]))
    with pytest.raises(SingularKernelError):
        run_algorithm("double-naive", kernel, 3, seed=1)


def test_double_fast_refuses_a_negative_diagonal_at_its_inverse_gate():
    """``double-fast`` inverts the kernel by Cholesky before it builds a factor, so it raises the gate's error."""
    kernel = KernelOracle.from_dense_kernel(np.diag([2.0, -0.5, 1.0]))
    with pytest.raises(SingularKernelError, match="not positive definite"):
        run_algorithm("double-fast", kernel, 3, seed=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dense_constructors_reject_non_finite(bad):
    features = np.random.default_rng(1).standard_normal((3, 4))
    kernel = features.T @ features
    features[2, 1] = bad
    kernel[1, 3] = bad
    with pytest.raises(NonFiniteInputError, match="feature matrix"):
        KernelOracle.from_dense_features(features)
    with pytest.raises(NonFiniteInputError, match="kernel matrix"):
        KernelOracle.from_dense_kernel(kernel)
    with pytest.raises(NonFiniteInputError, match="kernel matrix"):
        naive_double_greedy(kernel, None)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sparse_validation_names_the_non_finite_column(bad):
    cols = SparseColumns(dim=4, indices=[np.array([0, 2], dtype=np.uint32), np.array([1, 3], dtype=np.uint32)],
                         values=[np.array([1.0, -2.0]), np.array([0.5, bad])])
    assert not cols._all_columns_valid()
    with pytest.raises(NonFiniteInputError) as err:
        cols.validate()
    assert str(err.value) == "column 1: non-finite value stored"
    with pytest.raises(NonFiniteInputError):
        KernelOracle.from_sparse_features(cols)


def test_structural_faults_are_named_before_non_finite_values():
    cols = SparseColumns(dim=4, indices=[np.array([3, 1], dtype=np.uint32)], values=[np.array([np.nan, 1.0])])
    with pytest.raises(ValueError) as err:
        cols.validate()
    assert type(err.value) is ValueError
    assert str(err.value) == "column 0: indices not strictly increasing"


def test_files_with_non_finite_values_fail_in_dppmap_run(tmp_path):
    dense = tmp_path / "nan.dppm1"
    matrixio.write_dense(dense, _nan_features())
    with pytest.raises(NonFiniteInputError):
        main(["run", "--algo", "lazyfast", "--k", "4", "--input", str(dense)])

    sparse = tmp_path / "nan.dpps1"
    features = _nan_features()
    features[0, 4] = 7.0  # a marker value, replaced by NaN in the file's bytes
    matrixio.write_sparse(sparse, SparseColumns.from_dense(features))
    data = sparse.read_bytes()
    marker = np.float64(7.0).astype("<f8").tobytes()
    assert data.count(marker) == 1
    sparse.write_bytes(data.replace(marker, np.float64(np.nan).astype("<f8").tobytes()))
    with pytest.raises(NonFiniteInputError, match="column 4"):
        matrixio.read_sparse(sparse)
    with pytest.raises(NonFiniteInputError):
        main(["run", "--algo", "random", "--k", "4", "--input", str(sparse)])


@pytest.mark.parametrize("adjustment", [{"scale": np.nan}, {"scale": np.inf}, {"scale": -np.inf},
                                        {"shift": np.nan}, {"shift": np.inf}])
def test_non_finite_scale_or_shift_fails_fast(tmp_path, adjustment):
    """Unvalidated, ``scale=nan`` on this seed-0 8 x 10 matrix (k = 3) gave ``fast`` [0, 1, 2],
    ``lazyfast`` [6, 2, 0] and ``naive`` [] with three different objectives."""
    features = np.random.default_rng(0).standard_normal((8, 10))
    constructors = [lambda: KernelOracle.from_dense_features(features, **adjustment),
                    lambda: KernelOracle.from_sparse_features(SparseColumns.from_dense(features), **adjustment),
                    lambda: KernelOracle.from_dense_kernel(features.T @ features, **adjustment)]
    for build in constructors:
        with pytest.raises(NonFiniteInputError, match="must be finite"):
            build()
    path = tmp_path / "b.dppm1"
    matrixio.write_dense(path, features)
    flags = [f"--{name}={value}" for name, value in adjustment.items()]
    with pytest.raises(NonFiniteInputError, match="must be finite"):
        main(["run", "--algo", "fast", "--k", "3", "--input", str(path), *flags])


@pytest.mark.parametrize("k", [0, -2])
def test_non_positive_k_fails_fast_in_both_solver_families(k):
    """Before, ``fast`` with k = -2 returned a successful report with an empty selection."""
    assert issubclass(NonPositiveKError, ValueError)
    for config in (GreedyConfig, VariantConfig):
        with pytest.raises(NonPositiveKError, match=f"k must be at least 1, got {k}"):
            config(k=k)
    oracle = KernelOracle.from_dense_features(np.random.default_rng(0).standard_normal((5, 8)))
    for algo in ("naive", "lazy", "fast", "lazyfast", "random", "stochastic", "interlace"):
        with pytest.raises(NonPositiveKError):
            run_algorithm(algo, oracle, k, epsilon=0.5)
    for algo in ("random", "stochastic", "interlace"):
        with pytest.raises(NonPositiveKError):
            naive_twin_report(algo, oracle, k, 0, epsilon=0.5)
    assert oracle.eval_count == 0
