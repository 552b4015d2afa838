"""Batchwise monotone dictionary learning.

Learns a dictionary and sparse coefficients under a single nonzero budget
shared across the whole sample batch, using support-switching procedures
whose objective never increases, plus OMP-based coding, a block OMP warm
start, and a K-SVD baseline for equal-budget comparisons.
"""
from .bench import RunResult, extract_patches, report_stats, report_to_dict, run_benchmark
from .coding import (
    LearnConfig,
    SparseCoeff,
    block_omp,
    dict_approx_init,
    initial_dictionary,
    omp,
    reseed_dead_atoms,
)
from .io import (
    ParseError,
    load_matrix,
    load_pgm,
    load_sparse,
    save_matrix,
    save_pgm,
    save_sparse,
    write_report_json,
)
from .linalg import (
    NumericalError,
    objective,
    rank1_svd,
)
from .solver import (
    BudgetError,
    ObjectiveTrace,
    amplitude_adjust,
    batch_svd,
    inner_row_switch,
    inter_row_switch,
    ksvd,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "LearnConfig",
    "NumericalError",
    "ObjectiveTrace",
    "ParseError",
    "RunResult",
    "SparseCoeff",
    "amplitude_adjust",
    "batch_svd",
    "block_omp",
    "dict_approx_init",
    "extract_patches",
    "initial_dictionary",
    "inner_row_switch",
    "inter_row_switch",
    "ksvd",
    "load_matrix",
    "load_pgm",
    "load_sparse",
    "objective",
    "omp",
    "rank1_svd",
    "report_stats",
    "report_to_dict",
    "reseed_dead_atoms",
    "run_benchmark",
    "save_matrix",
    "save_pgm",
    "save_sparse",
    "write_report_json",
]
