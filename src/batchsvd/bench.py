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
    dict_approx_init,
    initial_dictionary,
)
from .linalg import _sq_norm, as_matrix
from .solver import ObjectiveTrace, batch_svd, ksvd

ALGO_LABELS = ("batch", "ksvd", "rnd-omp")


@dataclass(frozen=True)
class PatchSpec:
    """How to sample square patches from a grayscale image."""

    patch_size: int
    patch_count: int
    seed: int = 0

    def __post_init__(self):
        if self.patch_size < 1:
            raise ValueError("patch_size must be at least 1")
        if self.patch_count < 1:
            raise ValueError("patch_count must be at least 1")


def extract_patches(image, spec: PatchSpec, maxval: int = 255) -> np.ndarray:
    """Sample overlapping square patches, one vectorized patch per column.

    Top-left corners are drawn uniformly (seeded, with replacement) over all
    valid placements; each patch is flattened column-major and scaled to
    [0, 1] by ``maxval``. Deterministic given (image, spec).
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("image must be a 2-D grayscale raster")
    s = spec.patch_size
    height, width = image.shape
    if height < s or width < s:
        raise ValueError(f"image {height}x{width} smaller than patch size {s}")
    rng = np.random.default_rng(spec.seed)
    rows = rng.integers(0, height - s + 1, size=spec.patch_count)
    cols = rng.integers(0, width - s + 1, size=spec.patch_count)
    out = np.empty((s * s, spec.patch_count))
    for t in range(spec.patch_count):
        patch = image[rows[t] : rows[t] + s, cols[t] : cols[t] + s]
        out[:, t] = patch.flatten(order="F") / maxval
    return out


def report_stats(per_sample_errors):
    """Mean and population standard deviation of per-sample errors."""
    errors = np.asarray(per_sample_errors, dtype=np.float64)
    if errors.ndim != 1 or errors.size == 0:
        raise ValueError("per-sample errors must be a nonempty 1-D sequence")
    mean = float(np.mean(errors))
    std = float(np.sqrt(np.mean((errors - mean) ** 2)))
    return mean, std


@dataclass(frozen=True)
class ErrorReport:
    """Per-sample L2 reconstruction errors plus their summary statistics."""

    algo_label: str
    seed: int
    per_sample_errors: tuple
    mean: float
    std: float
    total_nonzeros: int
    avg_nonzeros_per_sample: float

    @classmethod
    def from_factors(cls, Y, A, X: SparseCoeff, label: str, seed: int) -> "ErrorReport":
        Y = as_matrix(Y, "Y")
        errors = np.linalg.norm(Y - A @ X.to_dense(), axis=0)
        mean, std = report_stats(errors)
        return cls(
            algo_label=label,
            seed=seed,
            per_sample_errors=tuple(float(e) for e in errors),
            mean=mean,
            std=std,
            total_nonzeros=X.nnz,
            avg_nonzeros_per_sample=X.nnz / X.p,
        )


@dataclass
class RunResult:
    """One algorithm's learned factors, trace, and error report."""

    report: ErrorReport
    trace: ObjectiveTrace
    dictionary: np.ndarray
    coefficients: SparseCoeff
    budget: int

    @classmethod
    def from_factors(cls, Y, A, X: SparseCoeff, label: str, seed: int, budget: int,
                     trace: ObjectiveTrace | None = None) -> "RunResult":
        """Score factors; without a solver trace, record the final objective once."""
        if trace is None:
            trace = ObjectiveTrace()
            trace.append("outer", _sq_norm(Y - A @ X.to_dense()))
        return cls(ErrorReport.from_factors(Y, A, X, label, seed), trace, A, X, budget)


def report_to_dict(result: RunResult, cfg: LearnConfig | None) -> dict:
    """Flatten a run result into the JSON report schema.

    ``cfg`` may be None for runs that had no solver configuration (encode
    and eval); the config echo is null in that case.
    """
    rep = result.report
    return {
        "algo": rep.algo_label,
        "seed": rep.seed,
        "m": int(result.dictionary.shape[0]),
        "n": int(result.dictionary.shape[1]),
        "p": int(result.coefficients.p),
        "K": int(result.budget),
        "mean_error": rep.mean,
        "std_error": rep.std,
        "total_nnz": rep.total_nonzeros,
        "avg_nnz_per_sample": rep.avg_nonzeros_per_sample,
        "objective_trace": result.trace.to_list(),
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
    if n_atoms < 1:
        raise ValueError("n_atoms must be at least 1")
    algos = list(algos)
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

    per_sample_k = cfg.budget // p
    if per_sample_k < 1 and any(a in ("ksvd", "rnd-omp") for a in algos):
        raise ValueError(
            f"budget {cfg.budget} gives a zero per-sample budget for the baselines"
        )
    per_sample_k = min(per_sample_k, m, n_atoms) if per_sample_k >= 1 else per_sample_k

    A0 = initial_dictionary(Y, n_atoms, rng_init)
    results: list[RunResult] = []
    for algo in ALGO_LABELS:  # canonical order, independent of input order
        if algo not in algos:
            continue
        if algo == "batch":
            A_init, X_init, _ = dict_approx_init(Y, A0, cfg.budget, cfg.init_iters)
            A, X, trace = batch_svd(Y, A_init, X_init, cfg)
        elif algo == "ksvd":
            A, X, trace = ksvd(Y, A0, per_sample_k, ksvd_iters)
        else:  # rnd-omp
            A = rng_rnd.standard_normal((m, n_atoms))
            A /= np.linalg.norm(A, axis=0)
            X, trace = _code_per_sample(Y, A, per_sample_k), None
        budget = cfg.budget if algo == "batch" else per_sample_k * p
        result = RunResult.from_factors(Y, A, X, algo, cfg.seed, budget, trace)
        results.append(result)

        if holdout is not None:
            avg = max(1, int(round(result.report.avg_nonzeros_per_sample)))
            k_open = min(avg, m, n_atoms)
            X_open = _code_per_sample(holdout, A, k_open)
            results.append(RunResult.from_factors(
                holdout, A, X_open, f"{algo}-open", cfg.seed, k_open * holdout.shape[1]
            ))
    return results
