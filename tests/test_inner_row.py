import numpy as np
import pytest

from batchsvd import RowWorkspace, inner_row_switch

from oracles import best_fixed_atom_support


def _unit(rng, m):
    a = rng.standard_normal(m)
    return a / np.linalg.norm(a)


def _local_objective(residual, atom, support, values):
    x = np.zeros(residual.shape[1])
    x[support] = values
    return float(np.sum((residual - np.outer(atom, x)) ** 2))


def test_planted_rank_one_is_fixed_point():
    rng = np.random.default_rng(0)
    m, p, k = 4, 7, 3
    a = _unit(rng, m)
    x = np.zeros(p)
    cols = np.array([1, 3, 5])
    x[cols] = rng.standard_normal(k) + np.sign(rng.standard_normal(k))
    residual = np.outer(a, x)
    ws = RowWorkspace(a.copy(), cols, x[cols])
    out, locals_ = inner_row_switch(residual, ws, 2)
    assert set(out.support) == set(cols)
    assert locals_[-1] < 1e-18
    assert _local_objective(residual, out.atom, out.support, out.values) < 1e-18


def test_full_support_equals_rank_one_identity():
    # with k = p the support cannot move, so one round leaves the best
    # rank-1 error: ||Yt||_F^2 - sigma_1^2
    rng = np.random.default_rng(1)
    Yt = rng.standard_normal((4, 6))
    sigma1 = np.linalg.svd(Yt, compute_uv=False)[0]
    ws = RowWorkspace(_unit(rng, 4), np.arange(6), np.zeros(6))
    out, locals_ = inner_row_switch(Yt, ws, 1)
    expected = np.sum(Yt**2) - sigma1**2
    assert np.isclose(locals_[-1], expected, rtol=1e-10)
    assert np.isclose(
        _local_objective(Yt, out.atom, out.support, out.values), expected, rtol=1e-10
    )


def test_support_selection_attains_exhaustive_minimum():
    # plant an exact rank-1 block on the starting support so the refit
    # returns the atom unchanged, then check the re-selected support against
    # the exhaustive fixed-atom oracle
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = int(rng.integers(2, 5))
        p = int(rng.integers(3, 7))
        k = int(rng.integers(1, min(3, p) + 1))
        a = _unit(rng, m)
        Yt = rng.standard_normal((m, p))
        cols = np.sort(rng.choice(p, size=k, replace=False))
        z = rng.standard_normal(k) + np.sign(rng.standard_normal(k))
        Yt[:, cols] = np.outer(a, z)
        ws = RowWorkspace(a.copy(), cols, z)
        out, locals_ = inner_row_switch(Yt, ws, 1)
        achieved = _local_objective(Yt, out.atom, out.support, out.values)
        assert np.isclose(achieved, best_fixed_atom_support(Yt, a, k), atol=1e-10)


def test_halfstep_sequence_non_increasing():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        p = int(rng.integers(2, 9))
        k = int(rng.integers(1, p + 1))
        Yt = rng.standard_normal((m, p))
        cols = np.sort(rng.choice(p, size=k, replace=False))
        ws = RowWorkspace(_unit(rng, m), cols, rng.standard_normal(k))
        out, locals_ = inner_row_switch(Yt, ws, int(rng.integers(1, 4)))
        for a, b in zip(locals_, locals_[1:]):
            assert b - a <= 1e-9 * max(abs(a), abs(b))
        assert out.support.size == k
        # the trace end matches the recomputed local objective
        direct = _local_objective(Yt, out.atom, out.support, out.values)
        assert np.isclose(direct, locals_[-1], rtol=1e-9, atol=1e-12)


def test_support_size_preserved():
    rng = np.random.default_rng(4)
    Yt = rng.standard_normal((3, 10))
    ws = RowWorkspace(_unit(rng, 3), np.array([0, 4]), np.array([1.0, 2.0]))
    out, _ = inner_row_switch(Yt, ws, 5)
    assert out.support.size == 2
    assert abs(np.linalg.norm(out.atom) - 1.0) < 1e-12


def test_degenerate_zero_block():
    Yt = np.zeros((3, 4))
    Yt[:, 2] = [1.0, 2.0, 3.0]  # support excludes the only nonzero column
    atom = np.array([1.0, 0.0, 0.0])
    ws = RowWorkspace(atom, np.array([0, 1]), np.array([1.0, 1.0]))
    out, locals_ = inner_row_switch(Yt, ws, 3)
    assert out.degenerate
    assert np.array_equal(out.support, [0, 1])
    assert np.all(out.values == 0.0)
    assert np.array_equal(out.atom, atom)
    assert locals_[-1] <= locals_[0] + 1e-12


def test_empty_support_rejected():
    with pytest.raises(ValueError, match="support"):
        ws = RowWorkspace(np.array([1.0, 0, 0]), np.array([], dtype=int), np.array([]))
        inner_row_switch(np.eye(3), ws, 1)


def test_missing_residual_rejected():
    ws = RowWorkspace(np.ones(2), np.array([0]), np.array([1.0]))
    with pytest.raises(ValueError, match="residual"):
        inner_row_switch(None, ws, 1)
