"""Invalid kernels and k < 1 fail fast with one typed error, whatever the solver or storage.

A kernel is judged valid only as a :class:`KernelOracle` is built: every
constructor, the bare one included, judges ``scale``, ``shift``, the item
count and the adjusted diagonal by one rule in ``__init__``, and the checked
``from_*`` constructors (and ``dppmap run`` as it reads a file) also judge
the payload.  So every solver refuses the same inputs with the same error.
"""

import ast
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import dppmap
from dppmap import matrixio
from dppmap.bench import ALGORITHMS, SOLVERS, run_algorithm
from dppmap.cli import main
from dppmap.doublegreedy import fast_double_greedy, naive_double_greedy
from dppmap.errors import (AsymmetricKernelError, NegativeDiagonalError, NonFiniteInputError, NonPositiveKError,
                           SingularKernelError)
from dppmap.greedy import GreedyConfig
from dppmap.stream import DecisionStream
from dppmap.variants import VariantConfig
from dppmap.kernel import B_BITS, KernelOracle, SparseColumns


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


@pytest.mark.parametrize("algo", SOLVERS)
def test_every_solver_raises_the_same_error_on_nan_features(algo):
    with pytest.raises(NonFiniteInputError, match="feature matrix contains NaN or infinite values"):
        run_algorithm(algo, KernelOracle.from_dense_features(_nan_features()), 4, seed=1)


@pytest.mark.parametrize("algo", SOLVERS)
def test_factor_based_solvers_raise_the_typed_negative_diagonal_error(algo):
    """No solver or twin is handed a kernel with a negative diagonal: the
    constructor refuses it with the typed error, naming the first entry."""
    with pytest.raises(NegativeDiagonalError, match="^negative kernel diagonal at 1: -0.5$"):
        kernel = KernelOracle.from_dense_kernel(np.diag([2.0, -0.5, -1.0, -3.0, -2.0, -1.0, -4.0, -5.0]))
        run_algorithm(algo, kernel, 1, seed=1, epsilon=0.5)


def test_double_naive_refuses_a_negative_diagonal_as_singular():
    """A negative diagonal is refused with the typed error, also when the matrix is
    handed to ``naive_double_greedy`` bare; a kernel the shift lifts past that check
    to a zero diagonal entry is still refused as singular under brute-force gains."""
    kernel = np.diag([2.0, -0.5, 1.0])
    with pytest.raises(NegativeDiagonalError, match="negative kernel diagonal at 1: -0.5"):
        run_algorithm("double-naive", KernelOracle.from_dense_kernel(kernel), 3, seed=1)
    with pytest.raises(NegativeDiagonalError, match="negative kernel diagonal at 1: -0.5"):
        naive_double_greedy(kernel, DecisionStream(1))
    with pytest.raises(SingularKernelError, match="singular under brute-force gains"):
        run_algorithm("double-naive", KernelOracle.from_dense_kernel(kernel, shift=0.5), 3, seed=1)


def test_double_fast_refuses_a_negative_diagonal_at_its_inverse_gate():
    """The constructor refuses a negative diagonal before ``double-fast`` inverts the
    kernel; a zero diagonal entry passes it and is refused by the Cholesky inverse."""
    kernel = np.diag([2.0, -0.5, 1.0])
    with pytest.raises(NegativeDiagonalError, match="negative kernel diagonal at 1: -0.5"):
        run_algorithm("double-fast", KernelOracle.from_dense_kernel(kernel), 3, seed=1)
    with pytest.raises(SingularKernelError, match="not positive definite"):
        run_algorithm("double-fast", KernelOracle.from_dense_kernel(kernel, shift=0.5), 3, seed=1)


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
    cols = SparseColumns(4, np.array([0, 2, 4]), np.array([0, 2, 1, 3], dtype=np.uint32),
                         np.array([1.0, -2.0, 0.5, bad]))
    with pytest.raises(NonFiniteInputError) as err:
        cols.validate()
    assert str(err.value) == "column 1: non-finite value stored"
    with pytest.raises(NonFiniteInputError):
        KernelOracle.from_sparse_features(cols)


def test_structural_faults_are_named_before_non_finite_values():
    cols = SparseColumns(4, np.array([0, 2]), np.array([3, 1], dtype=np.uint32), np.array([np.nan, 1.0]))
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
    for algo in SOLVERS:
        if algo.startswith("double"):  # the double greedies take no k
            continue
        with pytest.raises(NonPositiveKError):
            run_algorithm(algo, oracle, k, epsilon=0.5)
    assert oracle.eval_count == 0


def _with(array, index, value):
    out = array.copy()
    out[index] = value
    return out


_FEATURES = np.random.default_rng(0).standard_normal((10, 8))  # d = 10 > n = 8: the kernel is positive definite
_KERNEL = _FEATURES.T @ _FEATURES
_VALID = {"B": _FEATURES, "S": SparseColumns.from_dense(_FEATURES), "L": _KERNEL}
_BINARY = SparseColumns.from_dense((_FEATURES > 0).astype(np.float64))  # dense enough for bitsets
_ONE_HOT = SparseColumns.from_dense(np.eye(10)[:, :8])  # just dense enough for bitsets

# fault -> (error, message pattern, input by kind: B dense features / S sparse features / L kernel, scale and shift)
FAULTS = {
    "nan-features": (NonFiniteInputError, "feature matrix contains NaN or infinite values",
                     {"B": _with(_FEATURES, (0, 4), np.nan)}, {}),
    "nan-kernel": (NonFiniteInputError, "kernel matrix contains NaN or infinite values",
                   {"L": _with(_KERNEL, (2, 5), np.nan)}, {}),
    "nan-sparse-value": (NonFiniteInputError, "column 4: non-finite value stored",
                         {"S": SparseColumns.from_dense(_with(_FEATURES, (0, 4), np.nan))}, {}),
    "nan-scale": (NonFiniteInputError, "must be finite", _VALID, {"scale": np.nan}),
    "inf-shift": (NonFiniteInputError, "must be finite", _VALID, {"shift": np.inf}),
    "negative-scale": (ValueError, "scale must be nonnegative", _VALID, {"scale": -0.5}),
    "negative-shift": (ValueError, "shift must be nonnegative", _VALID, {"shift": -0.1}),
    "asymmetric-kernel": (AsymmetricKernelError, r"not bitwise symmetric at K\[1, 2\]",
                          {"L": _with(_KERNEL, (1, 2), 0.5)}, {}),
    "negative-diagonal": (NegativeDiagonalError, "negative kernel diagonal at 3: -",
                          {"L": _with(_KERNEL, (3, 3), -1.0)}, {}),
    "overflowing-diagonal": (NonFiniteInputError, r"^kernel diagonal at \d+ is not finite: inf$",
                             {"B": _FEATURES * 1e160, "S": SparseColumns.from_dense(_FEATURES * 1e160),
                              "L": _with(_KERNEL, (3, 3), 1e308)}, {"scale": 2.0}),
    "overflowing-bitset-diagonal": (NonFiniteInputError, r"^kernel diagonal at \d+ is not finite: inf$",
                                    {"S": _BINARY}, {"scale": 1e308}),
    "no-items": (ValueError, "a kernel needs at least one item",
                 {"B": np.zeros((10, 0)), "S": SparseColumns(dim=10), "L": np.zeros((0, 0))}, {}),
}


def _write_input(path, kind, data):
    """Write ``data`` as ``dppmap run`` reads it, NaN values in a DPPS1 file included."""
    if kind != "S":
        matrixio.write_dense(path, data)
        return
    marker = np.float64(7.0)  # stands in for NaN in write_sparse, which refuses it
    nans = int(np.isnan(data.values).sum())
    matrixio.write_sparse(path, SparseColumns(data.dim, data.indptr, data.indices,
                                              np.where(np.isnan(data.values), marker, data.values)))
    raw = path.read_bytes()
    assert raw.count(marker.astype("<f8").tobytes()) == nans
    path.write_bytes(raw.replace(marker.astype("<f8").tobytes(), np.float64(np.nan).astype("<f8").tobytes()))


def _solve(algo, build):
    return run_algorithm(algo, build(), 1, seed=1, epsilon=0.5)


def _entry_points(inputs, adjustment, tmp_path):
    """(label, call) for every way in to a solver: the constructor of each input, every
    :data:`SOLVERS` name on the oracle it builds, ``naive_double_greedy`` on a bare kernel,
    and ``dppmap run`` of every algorithm on each input's file."""
    build = {"B": KernelOracle.from_dense_features, "S": KernelOracle.from_sparse_features,
             "L": KernelOracle.from_dense_kernel}
    calls = []
    for kind, data in inputs.items():
        oracle = partial(build[kind], data, **adjustment)
        calls.append((build[kind].__name__, oracle))
        calls += [(f"run_algorithm {algo} on {kind}", partial(_solve, algo, oracle)) for algo in SOLVERS]
        if kind == "L" and not adjustment:
            calls.append(("naive_double_greedy", partial(naive_double_greedy, data, DecisionStream(1))))
        path = tmp_path / f"{kind}.bin"
        _write_input(path, kind, data)
        flags = ["--input", str(path), "--input-kind", "L" if kind == "L" else "B",
                 "--epsilon", "0.5", *(f"--{name}={value}" for name, value in adjustment.items())]
        calls += [(f"dppmap run --algo {algo} on {kind}",
                   partial(main, ["run", "--algo", algo, *flags, *([] if algo.startswith("double") else ["--k", "1"])]))
                  for algo in ALGORITHMS]
    return calls


@pytest.mark.parametrize("fault", FAULTS)
def test_one_typed_error_per_fault(fault, tmp_path):
    """Each way in raises exactly this error: no solver accepts the input, and none raises another type."""
    error, message, inputs, adjustment = FAULTS[fault]
    for label, call in _entry_points(inputs, adjustment, tmp_path):
        try:
            call()
            got = None
        except ValueError as exc:  # every refusal is a ValueError; the test is its exact type
            got = exc
        assert type(got) is error and re.search(message, str(got)), (label, got)


def test_the_valid_table_input_passes_every_entry_point(tmp_path, capsys):
    """The faults differ from this input only in the fault."""
    for label, call in _entry_points(_VALID, {}, tmp_path):
        call()
    assert capsys.readouterr().out.count('"selection"') == len(_VALID) * len(ALGORITHMS)


def test_bitsets_under_an_overflowing_bound_pass_every_entry_point(tmp_path, capsys):
    """A bitset diagonal is judged item by item: ``scale * d + shift`` overflows here, but no
    popcount times the scale does."""
    for label, call in _entry_points({"S": _ONE_HOT}, {"scale": 1e308}, tmp_path):
        call()
    assert capsys.readouterr().out.count('"selection"') == len(ALGORITHMS)


# fault -> (error, message, payload of the bare constructor)
BARE_FAULTS = {
    "nan-diagonal": (NonFiniteInputError, "kernel diagonal at 3 is not finite: nan",
                     {"matrix": _with(_KERNEL, (3, 3), np.nan)}),
    "inf-diagonal": (NonFiniteInputError, "kernel diagonal at 3 is not finite: inf",
                     {"matrix": _with(_KERNEL, (3, 3), np.inf)}),
    "negative-diagonal": (NegativeDiagonalError, "negative kernel diagonal at 3: -1.0",
                          {"matrix": _with(_KERNEL, (3, 3), -1.0)}),
    "nan-features": (NonFiniteInputError, "kernel diagonal at 4 is not finite: nan",
                     {"feats": np.ascontiguousarray(_with(_FEATURES, (0, 4), np.nan).T)}),
}


@pytest.mark.parametrize("fault", BARE_FAULTS)
def test_the_bare_constructor_judges_the_adjusted_diagonal(fault):
    """Unjudged, ``lazyfast`` selected [1, 0] with NaN gains on a bare ``diag(2, nan)`` and
    [6, 2] at k = 2 on the NaN features here, and a negative diagonal failed in ``math.sqrt``."""
    error, message, payload = BARE_FAULTS[fault]
    with pytest.raises(ValueError) as err:
        KernelOracle(**payload)
    assert type(err.value) is error and str(err.value) == message


def test_the_binary_table_inputs_are_bitsets():
    assert KernelOracle.from_sparse_features(_BINARY).kind == KernelOracle.from_sparse_features(_ONE_HOT).kind == B_BITS


@pytest.mark.parametrize("k", [0, -2])
def test_dppmap_run_refuses_k_below_1_for_every_algorithm(k, tmp_path, capsys):
    path = tmp_path / "b.bin"
    matrixio.write_dense(path, _FEATURES)
    for algo in ALGORITHMS:
        with pytest.raises(SystemExit):
            main(["run", "--algo", algo, "--input", str(path), f"--k={k}"])
        assert f"expected a positive integer, got '{k}'" in capsys.readouterr().err, algo


def test_stochastic_and_its_twin_refuse_a_negative_diagonal_it_never_samples():
    """Before the check moved into the constructor, ``stochastic`` (which starts only
    the rows it samples) returned [7, 25] here while its naive twin raised."""
    features = np.random.default_rng(0).standard_normal((40, 40))
    kernel = _with(features.T @ features, (37, 37), -1.0)
    with pytest.raises(NegativeDiagonalError, match="negative kernel diagonal at 37: -1.0"):
        run_algorithm("stochastic", KernelOracle.from_dense_kernel(kernel), 2, seed=1, epsilon=0.9)
    with pytest.raises(NegativeDiagonalError, match="negative kernel diagonal at 37: -1.0"):
        run_algorithm("stochastic-naive", KernelOracle.from_dense_kernel(kernel), 2, seed=1, epsilon=0.9)


def test_the_first_negative_adjusted_diagonal_is_named():
    """The check reads ``scale * K[i, i] + shift``, the value ``entry(i, i)`` returns."""
    kernel = np.diag([2.0, -0.05, -1.0, 0.0])
    with pytest.raises(NegativeDiagonalError) as err:
        KernelOracle.from_dense_kernel(kernel)
    assert str(err.value) == "negative kernel diagonal at 1: -0.05"
    with pytest.raises(NegativeDiagonalError) as err:
        KernelOracle.from_dense_kernel(kernel, 0.5, 0.1)
    assert str(err.value) == f"negative kernel diagonal at 2: {0.5 * -1.0 + 0.1}"
    KernelOracle.from_dense_kernel(kernel, 0.5, 0.5)  # every adjusted entry nonnegative


def test_only_the_kernel_module_raises_kernel_validity_errors():
    """The one-boundary design: no solver, CLI or reference module judges a kernel itself."""
    names = {"NegativeDiagonalError", "AsymmetricKernelError"}
    raisers = set()
    for path in Path(dppmap.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                if name in names:
                    raisers.add(path.name)
    assert raisers == {"kernel.py"}


def test_one_helper_judges_the_diagonal_and_only_init_calls_it():
    """The diagonal rule is written once, and every constructor reaches it through ``__init__``."""
    raisers, users = set(), set()

    def name_of(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                if name_of(child.exc.func if isinstance(child.exc, ast.Call) else child.exc) == "NegativeDiagonalError":
                    raisers.add(".".join(scope))
            if "_judge_diagonal" in (name_of(child), getattr(child, "name", None)):  # a use, or an import
                users.add(".".join(scope))
            visit(child, scope)

    for path in Path(dppmap.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(), filename=str(path)), (path.stem,))
    assert raisers == {"kernel._judge_diagonal"}
    assert users == {"kernel.KernelOracle.__init__"}


def test_a_nan_inverse_gate_is_refused_as_singular(tmp_path):
    """On ``K = diag(1, 1e-320)`` the inverse holds ``inf`` and ``K @ Kinv`` a ``0 * inf = nan``.
    A gate that let NaN through made ``double-fast`` select [0] with remove gains [0, inf]
    and ``dppmap run`` write ``Infinity``, while the naive twin raised."""
    kernel = np.diag([1.0, 1e-320])
    path = tmp_path / "k.bin"
    matrixio.write_dense(path, kernel)
    calls = [partial(fast_double_greedy, KernelOracle.from_dense_kernel(kernel), DecisionStream(1)),
             partial(run_algorithm, "double-fast", KernelOracle.from_dense_kernel(kernel), 2, seed=1),
             partial(main, ["run", "--algo", "double-fast", "--input", str(path), "--input-kind", "L",
                            "--scale", "1", "--shift", "0"]),
             partial(naive_double_greedy, kernel, DecisionStream(1))]
    for call in calls:
        with pytest.raises(SingularKernelError):
            call()
