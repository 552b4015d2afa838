import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchsvd import NumericalError, SparseCoeff, amplitude_adjust, objective
from batchsvd.linalg import _BLOCK, solve_gram

from oracles import qr_solve


def _random_instance(rng, m, n, p, ensure_used_rows=True):
    Y = rng.standard_normal((m, p))
    A = rng.standard_normal((m, n))
    A /= np.linalg.norm(A, axis=0)
    rows, cols, vals = [], [], []
    for j in range(p):
        col_rows = rng.choice(n, size=int(rng.integers(1, min(n, m) + 1)), replace=False)
        rows += col_rows.tolist()
        cols += [j] * col_rows.size
        vals += rng.standard_normal(col_rows.size).tolist()
    if ensure_used_rows:
        # give every row at least one entry so the dictionary update is full
        for i in sorted(set(range(n)) - set(rows)):
            rows.append(i)
            cols.append(int(rng.integers(p)))
            vals.append(float(rng.standard_normal()))
    return Y, A, SparseCoeff.from_triplets(n, p, rows, cols, vals)


def _col_rows(X):
    """Each column's sorted row indices."""
    rows, cols, _ = X.entries()
    return np.split(rows, np.cumsum(np.bincount(cols, minlength=X.p))[:-1])


def _same_support(X, X2):
    return all(map(np.array_equal, X.entries()[:2], X2.entries()[:2]))


def test_exact_factorization_is_fixed_point():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 5))
    A /= np.linalg.norm(A, axis=0)
    Xd = rng.standard_normal((5, 8))
    Xd[np.abs(Xd) < 0.5] = 0.0
    X = SparseCoeff.from_dense(Xd)
    Y = A @ Xd
    A2, X2, _ = amplitude_adjust(Y, A, X, 3)
    assert objective(Y, A2, X2) < 1e-18
    assert np.allclose(A2 @ X2.to_dense(), Y, atol=1e-9)


def test_dictionary_halfstep_normal_equations():
    # after one round, the dictionary update was optimal for the INPUT X:
    # (Y - A' X0) X0^T must vanish
    rng = np.random.default_rng(1)
    Y, A, X = _random_instance(rng, 5, 6, 25)
    A2, _, _ = amplitude_adjust(Y, A, X, 1)
    X0 = X.to_dense()
    resid = (Y - A2 @ X0) @ X0.T
    scale = np.linalg.norm(Y) * max(np.linalg.norm(X0, axis=1).max(), 1.0)
    assert np.max(np.abs(resid)) <= 1e-8 * scale


def test_column_halfstep_normal_equations():
    rng = np.random.default_rng(2)
    Y, A, X = _random_instance(rng, 5, 6, 25)
    A2, X2, _ = amplitude_adjust(Y, A, X, 1)
    X2d = X2.to_dense()
    for j, rows in enumerate(_col_rows(X2)):
        if not rows.size:
            continue
        sub = A2[:, rows]
        r = Y[:, j] - sub @ X2d[rows, j]
        bound = 1e-8 * np.linalg.norm(Y[:, j]) * np.linalg.norm(sub, axis=0)
        assert np.all(np.abs(sub.T @ r) <= bound + 1e-12)


def test_support_immutable():
    rng = np.random.default_rng(3)
    for _ in range(50):
        Y, A, X = _random_instance(rng, 4, 5, 12)
        _, X2, _ = amplitude_adjust(Y, A, X, int(rng.integers(1, 4)))
        assert _same_support(X, X2)


def test_objective_non_increasing_per_halfstep():
    rng = np.random.default_rng(4)
    Y, A, X = _random_instance(rng, 5, 8, 30)
    obj = objective(Y, A, X)
    for _ in range(10):
        # chaining single rounds observes every half-step boundary
        A, X, _ = amplitude_adjust(Y, A, X, 1)
        nxt = objective(Y, A, X)
        assert nxt - obj <= 1e-9 * max(abs(obj), abs(nxt))
        obj = nxt


def test_objectives_match_chained_single_rounds():
    # one n-round call equals n chained one-round calls bit for bit, and each
    # returned objective is the objective of the factors after that round
    rng = np.random.default_rng(7)
    Y, A, X = _random_instance(rng, 5, 8, 30)
    A_n, X_n, objs = amplitude_adjust(Y, A, X, 4)
    chained = []
    for _ in range(4):
        A, X, (obj,) = amplitude_adjust(Y, A, X, 1)
        assert obj == objective(Y, A, X)
        chained.append(obj)
    assert objs == chained
    assert np.array_equal(A_n, A) and X_n == X


def test_local_optimality_against_perturbations():
    rng = np.random.default_rng(5)
    Y, A, X = _random_instance(rng, 5, 8, 30)
    A2, X2, _ = amplitude_adjust(Y, A, X, 10)
    base = objective(Y, A2, X2)
    X2d = X2.to_dense()
    mask = X2d != 0.0
    for _ in range(20):
        A_pert = A2 + 0.01 * rng.standard_normal(A2.shape)
        X_pert = X2d + 0.01 * rng.standard_normal(X2d.shape) * mask
        assert objective(Y, A_pert, X_pert) >= base - 1e-12


def test_empty_rows_left_alone():
    rng = np.random.default_rng(6)
    Y = rng.standard_normal((4, 10))
    A = rng.standard_normal((4, 5))
    A /= np.linalg.norm(A, axis=0)
    vals = [float(rng.standard_normal()) for _ in range(10)]
    # rows 3 and 4 stay empty
    X = SparseCoeff.from_triplets(5, 10, np.arange(10) % 3, np.arange(10), vals)
    dead_atoms = A[:, 3:].copy()
    A2, X2, _ = amplitude_adjust(Y, A, X, 2)
    assert np.array_equal(A2[:, 3:], dead_atoms)
    assert not np.isin(X2.entries()[0], [3, 4]).any()


def test_bad_iteration_count():
    with pytest.raises(ValueError):
        amplitude_adjust(np.eye(2), np.eye(2), SparseCoeff.from_dense(np.eye(2)), 0)
    with pytest.raises(ValueError, match="n_iters must be an integer, got 1.5"):
        amplitude_adjust(np.eye(2), np.eye(2), SparseCoeff.from_dense(np.eye(2)), 1.5)


def test_memory_is_bounded_by_the_samples():
    # no copy of Y's columns is kept and no atom block is gathered beyond one column block
    rng = np.random.default_rng(8)
    m, n, p = 64, 256, 3000
    Y = rng.standard_normal((m, p))
    A = rng.standard_normal((m, n))
    A /= np.linalg.norm(A, axis=0)
    rows = np.concatenate([rng.choice(n, size=2, replace=False) for _ in range(p)])
    cols = np.repeat(np.arange(p), 2)
    X = SparseCoeff.from_triplets(n, p, rows, cols, rng.standard_normal(2 * p))
    amplitude_adjust(Y, A, X, 1)  # numpy's first np.unique call imports about 1 MiB
    tracemalloc.start()
    try:
        amplitude_adjust(Y, A, X, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * Y.nbytes


def test_coefficient_halfstep_matches_per_column_least_squares(caplog):
    # support sizes 1..m, an empty last row, and rows 0 and 1 holding the
    # same atom and the same coefficient row, so column 0's system is ridged
    rng = np.random.default_rng(0)
    m, n, p = 5, 8, 24
    Y = rng.standard_normal((m, p))
    A = rng.standard_normal((m, n))
    A[:, 1] = A[:, 0]
    A /= np.linalg.norm(A, axis=0)
    rows, cols, vals = [0, 1], [0, 0], [0.5, 0.5]
    for j in range(1, p):
        k = 1 + j % m
        rows += (2 + rng.choice(n - 3, size=k, replace=False)).tolist()
        cols += [j] * k
        vals += rng.standard_normal(k).tolist()
    X = SparseCoeff.from_triplets(n, p, rows, cols, vals)
    assert n - 1 not in X.entries()[0]
    assert {r.size for r in _col_rows(X)} >= set(range(1, m + 1))

    with caplog.at_level(logging.DEBUG, logger="batchsvd.linalg"):
        A2, X2, _ = amplitude_adjust(Y, A, X, 1)
    assert any(r.getMessage().startswith("gram solve") for r in caplog.records)
    assert _same_support(X, X2)
    X2d = X2.to_dense()
    col_rows = _col_rows(X)
    for j in range(1, p):
        rows = col_rows[j]
        oracle = qr_solve(A2[:, rows], Y[:, j])
        np.testing.assert_allclose(X2d[rows, j], oracle, rtol=1e-9, atol=0)
    # the ridged system keeps a condition number near 1e10, so its split
    # between the two near-identical atoms is fixed only to about 1e-6 (the
    # summation order of the Gram entries decides the rest); its fit is not
    S = A2[:, [0, 1]]
    oracle = solve_gram(S.T @ S, S.T @ Y[:, 0])
    np.testing.assert_allclose(S @ X2d[[0, 1], 0], S @ oracle, rtol=1e-9, atol=0)
    np.testing.assert_allclose(X2d[[0, 1], 0], oracle, rtol=1e-4, atol=0)

    _, X3, objs = amplitude_adjust(Y, A, X, 6)
    assert _same_support(X, X3)
    trace = [objective(Y, A, X)] + objs
    for a, b in zip(trace, trace[1:]):
        assert b - a <= 1e-9 * max(abs(a), abs(b))


@st.composite
def sparse_problems(draw):
    """Small problems with empty columns, up to K = n*p entries, zero samples and duplicate atoms.

    A wide problem has tiny m and n and p beyond two column blocks, so that runs of
    columns with equal entry counts split at ``_BLOCK``.
    """
    wide = draw(st.booleans())
    m, n = draw(st.integers(1, 2 if wide else 5)), draw(st.integers(1, 3 if wide else 7))
    p = draw(st.integers(2 * _BLOCK + 1, 2 * _BLOCK + 8) if wide else st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((m, n))
    A[:, rng.integers(n, size=draw(st.integers(0, n - 1)))] = A[:, :1]  # copies of atom 0
    A /= np.linalg.norm(A, axis=0)
    Y = rng.standard_normal((m, p))
    Y[:, rng.random(p) < 0.3] = 0.0
    K = draw(st.integers(0, n * p) | st.just(n * p))
    flat = rng.choice(n * p, size=K, replace=False)
    return Y, A, SparseCoeff.from_triplets(n, p, flat // p, flat % p, rng.standard_normal(K))


@settings(max_examples=150, deadline=None)
@given(sparse_problems())
def test_sparse_objective_matches_dense_and_amplitude(problem):
    Y, A, X = problem
    Xd = X.to_dense()
    dense = float(np.sum((Y - A @ Xd) ** 2))
    # rounding of the residual entries, relative to the size of their terms
    scale = float(np.sum((np.abs(Y) + np.abs(A) @ np.abs(Xd)) ** 2))
    assert abs(objective(Y, A, X) - dense) <= 1e-12 * scale
    try:
        A2, X2, objs = amplitude_adjust(Y, A, X, 2)
    except NumericalError:
        return  # an atom refit to zero left a one-atom column beyond ridge rescue
    assert objs[-1] == objective(Y, A2, X2)
