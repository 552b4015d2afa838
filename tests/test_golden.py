"""Golden regression on a tiny seeded instance.

The expected supports, mean errors and final objectives below were frozen
from the implementation that kept both a row and a column view of the
coefficients. Refactors of the coefficient store and the shared helpers
must reproduce the supports exactly and the numbers within rtol 1e-9. The
batch run uses ``trigger=inf`` so inter-row switching runs every round.

Supports are encoded column by column: ``;`` separates columns and ``,``
separates the row indices of one column.
"""
import numpy as np
import pytest

from batchsvd import LearnConfig, block_omp, dict_approx_init, initial_dictionary, run_benchmark

from oracles import make_planted

RTOL = 1e-9

EXPECTED = {
    'block_omp': (
        '5,6,9;0;5,6,8,9;3,5;1,7,9;2,3;2;2;1,4,5,9;0,2,3,5,6;1,4,9;9;;6,8;5,8,9;7;4;3;1,4,9;5,6,8;8;1;6;5',
        0.13159372836226824,
        0.8773524150083647,
    ),
    'dict_approx_init': (
        '5,9;0;5,6,8,9;3,5;1,7,9;2,3;2;2;1,4,5,9;0,2,5,6,8;1,4,9;9;;0,6,8;5,8,9;7;4;3;1,4,9;5,6,8;8;1;6;5',
        0.11120313551455152,
        0.4841409117884284,
    ),
    'batch': (
        '6;5;1,2,3,6;;0,5;2,3,8;;1,2,3,4;3,6;7;0,2,3,5;0,1,2,4,7;;1;0;;4,5,7;9;0,1,2,3,4;1,4;0,2,5,8;;0,1,6;4',
        0.1345590445542434,
        0.6055263846049712,
    ),
    'batch-open': (
        '6,7;0,3;0,7;6,9;1,5;0,7;5,8;1,8;1,5;3,6;0,7;5,7',
        0.6756022095179114,
        6.164934787337166,
    ),
    'ksvd': (
        '1,2;7,9;1,2;4;3,9;3,6;6,8;1,5;1,2;0,9;5,8;3,5;1,7;5,8;0,3;3,9;0,7;8,9;1,5;5,7;6,8;6,9;2,5;4,7',
        0.197380127270974,
        1.553752724879332,
    ),
    'ksvd-open': (
        '4,8;3,9;6,7;1,4;5,9;0,3;6,9;5,6;5,9;4,8;0,8;0,9',
        0.721594327487506,
        6.672774502634498,
    ),
    'rnd-omp': (
        '1,5;8,9;4,5;5,7;0,8;2,5;2,9;7,8;4,5;4,6;1,5;5,6;0,4;7,9;5,6;6,8;1,9;4,6;0,7;1,8;1,6;1,8;5,9;1,9',
        0.5463193451164537,
        11.753376062228433,
    ),
    'rnd-omp-open': (
        '3,7;4,8;0,6;2,6;8,9;0,2;3,8;3,7;8,9;3,7;0,6;0,8',
        0.5633274126684467,
        4.964896604741453,
    ),
}


def _supports(X):
    return ";".join(",".join(str(i) for i in X.col_support(j)) for j in range(X.p))


def _check(label, X, mean_error, objective):
    supp, mean_ref, obj_ref = EXPECTED[label]
    assert _supports(X) == supp, label
    assert mean_error == pytest.approx(mean_ref, rel=RTOL, abs=0), label
    assert objective == pytest.approx(obj_ref, rel=RTOL, abs=0), label


@pytest.fixture(scope="module")
def instance():
    rng = np.random.default_rng(20)
    Y, _, _ = make_planted(6, 10, 24, [1, 2, 3] * 8, rng, snr_db=20)
    H, _, _ = make_planted(6, 10, 12, [2] * 12, rng, snr_db=20)
    A0 = initial_dictionary(Y, 10, np.random.default_rng(1))
    return Y, H, A0


def test_block_omp_golden(instance):
    Y, _, A0 = instance
    X = block_omp(Y, A0, 48)
    R = Y - A0 @ X.to_dense()
    _check("block_omp", X, float(np.linalg.norm(R, axis=0).mean()), float(np.sum(R * R)))


def test_dict_approx_init_golden(instance):
    Y, _, A0 = instance
    A, X, trace = dict_approx_init(Y, A0, 48, 4)
    R = Y - A @ X.to_dense()
    _check("dict_approx_init", X, float(np.linalg.norm(R, axis=0).mean()), trace[-1])


def test_run_benchmark_golden(instance):
    Y, H, _ = instance
    cfg = LearnConfig(budget=48, init_iters=3, inner_sweeps=2, amplitude_iters=2,
                      max_outer=3, trigger=float("inf"), seed=3)
    results = run_benchmark(Y, cfg, ["batch", "ksvd", "rnd-omp"], 10, ksvd_iters=3,
                            holdout=H)
    assert [r.report.algo_label for r in results] == list(EXPECTED)[2:]
    assert results[0].trace.values("inter")  # inter-row switching ran
    for r in results:
        _check(r.report.algo_label, r.coefficients, r.report.mean, r.trace.values()[-1])
