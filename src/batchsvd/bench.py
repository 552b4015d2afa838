"""Experiment orchestration: patch sampling, equal-budget runs, reports.

The harness runs the batchwise solver, the K-SVD baseline, and a
random-dictionary OMP baseline on the same data with the same seed-derived
starting dictionary, and reports per-sample L2 reconstruction errors the way
the evaluation protocol expects: mean, population standard deviation, and a
truthful nonzero accounting.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .coding import (
    LearnConfig,
    SparseCoeff,
    _code_per_sample,
    _count,
    _normalize_atoms,
    dict_approx_init,
    initial_dictionary,
)
from .linalg import _col_norms, _factors, _residual, _sq_norm, as_matrix
from .solver import ObjectiveTrace, batch_svd, ksvd

ALGO_LABELS = ("batch", "ksvd", "rnd-omp")


def extract_patches(image, size: int, count: int, seed: int = 0,
                    maxval: int = 255) -> np.ndarray:
    """Sample ``count`` overlapping ``size`` x ``size`` patches, one per column.

    Top-left corners are drawn uniformly (seeded, with replacement) over all
    valid placements; each patch is flattened column-major and scaled to
    [0, 1] by ``maxval``, which must be finite and positive. Deterministic
    given (image, size, count, seed).
    """
    _count(size, "patch_size")
    _count(count, "patch_count")
    _count(seed, "seed", 0)
    image = as_matrix(image, "image")
    if not 0 < maxval < np.inf:  # NaN fails both comparisons
        raise ValueError(f"maxval must be a finite positive number, got {maxval!r}")
    height, width = image.shape
    if height < size or width < size:
        raise ValueError(f"image {height}x{width} smaller than patch size {size}")
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, height - size + 1, size=count)
    cols = rng.integers(0, width - size + 1, size=count)
    windows = np.lib.stride_tricks.sliding_window_view(image, (size, size))
    # (count, row, col) gathered, then column-major within a patch, one patch per column
    out = windows[rows, cols].transpose(2, 1, 0).reshape(size * size, count)
    out /= maxval
    return out


def report_stats(per_sample_errors):
    """Mean and population standard deviation of per-sample errors."""
    errors = np.asarray(per_sample_errors, dtype=np.float64)
    if errors.ndim != 1 or errors.size == 0:
        raise ValueError("per-sample errors must be a nonempty 1-D sequence")
    mean = float(np.mean(errors))
    std = float(np.sqrt(np.mean((errors - mean) ** 2)))
    return mean, std


@dataclass
class RunResult:
    """One run's factors, objective trace and per-sample L2 reconstruction errors."""

    label: str
    seed: int
    dictionary: np.ndarray
    coefficients: SparseCoeff
    budget: int
    trace: ObjectiveTrace
    errors: np.ndarray
    mean: float
    std: float

    @classmethod
    def from_factors(cls, Y, A, X: SparseCoeff, label: str, seed: int, budget: int,
                     trace: ObjectiveTrace | None = None) -> "RunResult":
        """Check shapes and score the factors from one residual ``Y - A X``.

        Residual by :func:`linalg._residual` (no n x p array), norms by :func:`linalg._col_norms`.
        Without a solver trace, the final objective is recorded as the one entry.
        """
        Y, A = _factors(Y, A, (X.n, X.p))
        R = _residual(Y, A, X)
        if trace is None:
            trace = ObjectiveTrace()
            trace.append("outer", _sq_norm(R))
        errors = _col_norms(R)
        mean, std = report_stats(errors)
        return cls(label, seed, A, X, budget, trace, errors, mean, std)


def report_to_dict(result: RunResult, cfg: LearnConfig | None) -> dict:
    """Flatten a run result into the JSON report schema.

    ``cfg`` may be None for runs that had no solver configuration (encode
    and eval); the config echo is null in that case.
    """
    return {
        "algo": result.label,
        "seed": result.seed,
        "m": int(result.dictionary.shape[0]),
        "n": int(result.dictionary.shape[1]),
        "p": int(result.coefficients.p),
        "K": int(result.budget),
        "mean_error": result.mean,
        "std_error": result.std,
        "total_nnz": result.coefficients.nnz,
        "avg_nnz_per_sample": result.coefficients.nnz / result.coefficients.p,
        "objective_trace": result.trace.entries(),
        "config": asdict(cfg) if cfg is not None else None,
    }


def run_benchmark(
    Y,
    cfg: LearnConfig,
    algos,
    n_atoms: int,
    ksvd_iters: int | None = None,
    holdout=None,
) -> list:
    """Equal-budget comparison runs over the requested algorithms.

    Every algorithm that needs a starting dictionary gets the same
    seed-derived one. ``batch`` consumes the full budget ``cfg.budget``;
    ``ksvd`` and ``rnd-omp`` get the per-sample budget ``cfg.budget // p``
    (capped at min(m, n)) so their total never exceeds the batch budget.
    With ``holdout`` set, each learned dictionary additionally encodes the
    held-out samples by per-sample OMP at the same average budget, reported
    under the label ``<algo>-open``.
    """
    Y = as_matrix(Y, "Y")
    m, p = Y.shape
    _count(n_atoms, "n_atoms")
    algos = list(algos)
    if not algos:
        raise ValueError("algos must name at least one algorithm")
    unknown = [a for a in algos if a not in ALGO_LABELS]
    if unknown:
        raise ValueError(f"unknown algorithms: {unknown}")
    if cfg.budget > n_atoms * p:
        raise ValueError(
            f"budget {cfg.budget} infeasible: exceeds n*p = {n_atoms * p}"
        )
    if holdout is not None:
        holdout = as_matrix(holdout, "holdout")
        if holdout.shape[0] != m:
            raise ValueError("holdout sample dimension does not match Y")
    if ksvd_iters is None:
        ksvd_iters = cfg.max_outer

    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    rng_init = np.random.default_rng(seeds[0])
    rng_rnd = np.random.default_rng(seeds[1])

    per_sample_k = min(cfg.budget // p, m, n_atoms)
    if per_sample_k < 1 and any(a in ("ksvd", "rnd-omp") for a in algos):
        raise ValueError(
            f"budget {cfg.budget} gives a zero per-sample budget for the baselines"
        )

    A0 = initial_dictionary(Y, n_atoms, rng_init)
    results: list[RunResult] = []
    for algo in ALGO_LABELS:  # canonical order, independent of input order
        if algo not in algos:
            continue
        if algo == "batch":
            A_init, X_init = dict_approx_init(Y, A0, cfg.budget, cfg.init_iters)
            A, X, trace = batch_svd(Y, A_init, X_init, cfg)
        elif algo == "ksvd":
            A, X, trace = ksvd(Y, A0, per_sample_k, ksvd_iters)
        else:  # rnd-omp
            A = rng_rnd.standard_normal((m, n_atoms))
            _normalize_atoms(A)
            X, trace = _code_per_sample(Y, A, per_sample_k), None
        budget = cfg.budget if algo == "batch" else per_sample_k * p
        result = RunResult.from_factors(Y, A, X, algo, cfg.seed, budget, trace)
        results.append(result)

        if holdout is not None:
            avg = max(1, int(round(result.coefficients.nnz / p)))
            k_open = min(avg, m, n_atoms)
            X_open = _code_per_sample(holdout, A, k_open)
            results.append(RunResult.from_factors(
                holdout, A, X_open, f"{algo}-open", cfg.seed, k_open * holdout.shape[1]
            ))
    return results
