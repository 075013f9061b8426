"""Greedy MAP inference for determinantal point processes.

Exact greedy solvers for log-determinant subset selection - eager and lazy,
brute-force and incremental-Cholesky - plus randomized/interlaced variants,
an unconstrained double greedy, reference oracles, instance generation, and
a benchmark harness.
"""

from .cholesky import CholeskyState
from .datagen import SyntheticSpec, gen_synthetic
from .doublegreedy import fast_double_greedy, jacobi_gain_check, naive_double_greedy
from .greedy import GreedyConfig, fast_greedy, lazy_fast_greedy, lazy_greedy, naive_greedy
from .kernel import KernelOracle, SparseColumns, seq_dot
from .naive_variants import naive_interlace_greedy, naive_random_greedy, naive_stochastic_greedy
from .pqueue import LazyMaxQueue
from .reference import exhaustive_map, inverse, log_det
from .report import RunReport
from .stream import DecisionStream
from .variants import (
    VariantConfig,
    interlace_greedy_lf,
    random_greedy_lf,
    stochastic_greedy_lf,
)

__version__ = "0.1.0"

__all__ = [
    "CholeskyState",
    "DecisionStream",
    "GreedyConfig",
    "KernelOracle",
    "LazyMaxQueue",
    "RunReport",
    "SparseColumns",
    "SyntheticSpec",
    "VariantConfig",
    "exhaustive_map",
    "fast_double_greedy",
    "fast_greedy",
    "gen_synthetic",
    "interlace_greedy_lf",
    "inverse",
    "jacobi_gain_check",
    "lazy_fast_greedy",
    "lazy_greedy",
    "log_det",
    "naive_double_greedy",
    "naive_greedy",
    "naive_interlace_greedy",
    "naive_random_greedy",
    "naive_stochastic_greedy",
    "random_greedy_lf",
    "seq_dot",
    "stochastic_greedy_lf",
]
