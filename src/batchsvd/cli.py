"""Command-line benchmark driver.

Verbs: ``patches`` (sample training columns from a PGM image), ``learn``
(run one algorithm), ``encode`` (sparse-code samples against a fixed
dictionary), ``eval`` (score an existing factorization), and ``compare``
(equal-budget multi-algorithm runs). All randomness comes from ``--seed``;
identical inputs and seeds give byte-identical outputs at a fixed BLAS thread
count; another count may move values in the last bits.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import sys

import numpy as np

from .bench import RunResult, extract_patches, report_to_dict, run_benchmark
from .coding import LearnConfig, _code_per_sample, _normalize_atoms, _require_unit_atoms, block_omp
from .io import (
    ParseError,
    load_matrix,
    load_pgm,
    load_sparse,
    save_matrix,
    save_sparse,
    write_report_json,
)
from .linalg import NumericalError, _sq_norm


def _add_solver_flags(sub, iters_default=None):
    sub.add_argument("--budget", type=int, required=True, help="total nonzero budget")
    sub.add_argument("--iters", type=int, default=iters_default,
                     help="outer iterations (batch) or passes (ksvd)")
    sub.add_argument("--init-iters", type=int, default=80,
                     help="warm-start alternations before the batch solver")
    sub.add_argument("--n1", type=int, default=3, help="inner-row refinement depth")
    sub.add_argument("--n2", type=int, default=10, help="amplitude alternations per round")
    sub.add_argument("--epsilon", type=float, default=0.0, help="outer stopping decrement")
    sub.add_argument("--trigger", type=float, default=0.05,
                     help="run pairwise switching when the inner phase improves less than this")
    sub.add_argument("--pair-fraction", type=float, default=None,
                     help="fraction of row pairs visited by the pairwise phase")


def _config_from_args(args) -> LearnConfig:
    return LearnConfig(
        budget=args.budget,
        init_iters=args.init_iters,
        inner_sweeps=args.n1,
        amplitude_iters=args.n2,
        epsilon=args.epsilon,
        trigger=args.trigger,
        pair_fraction=args.pair_fraction,
        seed=args.seed,
        max_outer=args.iters,
    )


def _load_samples(path, normalize: bool = False) -> np.ndarray:
    Y = load_matrix(path)
    if not math.isfinite(_sq_norm(Y)):
        raise ValueError(f"{path}: the samples' squared norm overflows float64")
    if normalize:
        _normalize_atoms(Y)
    return Y


def _emit_result(args, result: RunResult, cfg):
    if getattr(args, "dict_out", None):
        save_matrix(args.dict_out, result.dictionary)
    if getattr(args, "coef_out", None):
        save_sparse(args.coef_out, result.coefficients)
    if getattr(args, "report_out", None):
        write_report_json(args.report_out, report_to_dict(result, cfg))
    _print_summary(result)


def _print_summary(result: RunResult):
    print(
        f"{result.label}: mean_error={result.mean:.6g} std={result.std:.6g} "
        f"nnz={result.coefficients.nnz}"
    )


def cmd_patches(args) -> int:
    image, maxval = load_pgm(getattr(args, "in"))
    save_matrix(args.out, extract_patches(image, args.size, args.count, args.seed, maxval))
    print(f"wrote {args.count} patches of size {args.size}x{args.size} to {args.out}")
    return 0


def cmd_learn(args) -> int:
    Y = _load_samples(getattr(args, "in"), args.normalize)
    if args.iters is None:
        args.iters = 20 if args.algo == "batch" else 100
    cfg = _config_from_args(args)
    results = run_benchmark(Y, cfg, [args.algo], args.atoms)
    _emit_result(args, results[0], cfg)
    return 0


def cmd_encode(args) -> int:
    Y = _load_samples(getattr(args, "in"), args.normalize)
    A = load_matrix(args.dict)
    if (args.per_sample is None) == (args.budget is None):
        raise ValueError("encode needs exactly one of --per-sample or --budget")
    _require_unit_atoms(A, "dictionary")  # both modes code against unit atoms
    if args.per_sample is not None:
        X, R = _code_per_sample(Y, A, args.per_sample)
        label, budget = "encode-omp", args.per_sample * Y.shape[1]
    else:
        X, R = block_omp(Y, A, args.budget), None
        label, budget = "encode-block", args.budget
    _emit_result(args, RunResult.from_factors(Y, A, X, label, args.seed, budget, R=R), None)
    return 0


def cmd_eval(args) -> int:
    Y = _load_samples(getattr(args, "in"), args.normalize)
    A = load_matrix(args.dict)
    X = load_sparse(args.coef)
    _emit_result(args, RunResult.from_factors(Y, A, X, "eval", args.seed, X.nnz), None)
    return 0


def cmd_compare(args) -> int:
    Y = _load_samples(getattr(args, "in"), args.normalize)
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    cfg = _config_from_args(args)
    holdout = _load_samples(args.holdout, args.normalize) if args.holdout else None
    results = run_benchmark(
        Y, cfg, algos, args.atoms, ksvd_iters=args.ksvd_iters, holdout=holdout
    )
    payload = [report_to_dict(r, cfg) for r in results]
    if args.report_out:
        write_report_json(args.report_out, payload)
    for r in results:
        _print_summary(r)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batchsvd",
        description="Batchwise monotone dictionary learning benchmark",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log ridge fallbacks, re-seeded atoms and other "
                             "diagnostics to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    samples = argparse.ArgumentParser(add_help=False)  # flags of the verbs that read samples
    samples.add_argument("--in", required=True, help="input sample matrix")
    samples.add_argument("--seed", type=int, default=0)
    samples.add_argument("--normalize", action="store_true", help="scale columns to unit norm first")
    samples.add_argument("--report-out", help="write the JSON report here")

    p = sub.add_parser("patches", help="sample training patches from a PGM image")
    p.add_argument("--in", required=True, help="input PGM image (P2 or P5)")
    p.add_argument("--size", type=int, default=8, help="square patch side in pixels")
    p.add_argument("--count", type=int, default=3000, help="number of patches")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output matrix file")
    p.set_defaults(func=cmd_patches)

    p = sub.add_parser("learn", parents=[samples], help="learn a dictionary with one algorithm")
    p.add_argument("--algo", choices=("batch", "ksvd", "rnd-omp"), default="batch")
    p.add_argument("--atoms", type=int, required=True, help="dictionary size n")
    _add_solver_flags(p)
    p.add_argument("--dict-out", help="write the learned dictionary here")
    p.add_argument("--coef-out", help="write the sparse coefficients here")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("encode", parents=[samples],
                       help="sparse-code samples against a fixed dictionary")
    p.add_argument("--dict", required=True, help="dictionary matrix file")
    p.add_argument("--per-sample", type=int, default=None, help="atoms per sample")
    p.add_argument("--budget", type=int, default=None, help="total batch budget")
    p.add_argument("--coef-out", help="write the sparse coefficients here")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("eval", parents=[samples], help="score an existing factorization")
    p.add_argument("--dict", required=True, help="dictionary matrix file")
    p.add_argument("--coef", required=True, help="sparse coefficient file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", parents=[samples], help="equal-budget multi-algorithm comparison")
    p.add_argument("--atoms", type=int, required=True, help="dictionary size n")
    p.add_argument("--algos", default="batch,ksvd,rnd-omp",
                   help="comma-separated subset of batch,ksvd,rnd-omp")
    p.add_argument("--ksvd-iters", type=int, default=100)
    p.add_argument("--holdout", help="held-out sample matrix for open-set encoding")
    _add_solver_flags(p, iters_default=20)
    p.set_defaults(func=cmd_compare)
    return parser


@contextlib.contextmanager
def _log_to_stderr(enabled: bool):
    """While enabled, send the package's debug and info log lines to stderr."""
    if not enabled:
        yield
        return
    logger = logging.getLogger("batchsvd")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # numpy's floating-point warnings would break the one-line JSON error on stderr
        with _log_to_stderr(args.verbose), np.errstate(all="ignore"):
            return args.func(args)
    except (ValueError, NumericalError, ParseError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
