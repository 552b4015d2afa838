import numpy as np
import pytest

from batchsvd import RowWorkspace, inter_row_switch

from oracles import best_pair_assignment


def _unit(rng, m):
    a = rng.standard_normal(m)
    return a / np.linalg.norm(a)


def _random_pair(rng, m, p, max_row_nnz=4):
    Yt = rng.standard_normal((m, p))
    a_i, a_j = _unit(rng, m), _unit(rng, m)
    cap = min(max_row_nnz, p)
    si = np.sort(rng.choice(p, size=int(rng.integers(1, cap + 1)), replace=False))
    sj = np.sort(rng.choice(p, size=int(rng.integers(1, cap + 1)), replace=False))
    wi = RowWorkspace(a_i, si, rng.standard_normal(si.size))
    wj = RowWorkspace(a_j, sj, rng.standard_normal(sj.size))
    return Yt, wi, wj


def _joint_objective(Yt, wi, wj):
    p = Yt.shape[1]
    xi = np.zeros(p)
    xi[wi.support] = wi.values
    xj = np.zeros(p)
    xj[wj.support] = wj.values
    return float(np.sum((Yt - np.outer(wi.atom, xi) - np.outer(wj.atom, xj)) ** 2))


def test_identical_supports_noop():
    rng = np.random.default_rng(0)
    Yt = rng.standard_normal((3, 5))
    supp = np.array([1, 3])
    wi = RowWorkspace(_unit(rng, 3), supp, np.array([1.0, 2.0]))
    wj = RowWorkspace(_unit(rng, 3), supp.copy(), np.array([-1.0, 0.5]))
    oi, oj = inter_row_switch(Yt, wi, wj)
    assert np.array_equal(oi.support, supp) and np.array_equal(oj.support, supp)
    assert np.array_equal(oi.values, wi.values) and np.array_equal(oj.values, wj.values)


def test_forced_migration_to_better_row():
    # column 0 is 5*a_i but currently supported by row j; column 1 is zero
    a_i = np.array([1.0, 0.0])
    a_j = np.array([0.0, 1.0])
    Yt = np.zeros((2, 2))
    Yt[:, 0] = 5.0 * a_i
    wi = RowWorkspace(a_i, np.array([1]), np.array([0.3]))
    wj = RowWorkspace(a_j, np.array([0]), np.array([0.2]))
    oi, oj = inter_row_switch(Yt, wi, wj)
    assert 0 in oi.support
    assert np.isclose(oi.values[list(oi.support).index(0)], 5.0)
    assert oi.support.size + oj.support.size == 2


def test_attains_exhaustive_assignment_optimum():
    rng = np.random.default_rng(1)
    for _ in range(60):
        m = int(rng.integers(2, 5))
        p = int(rng.integers(3, 7))
        Yt, wi, wj = _random_pair(rng, m, p, max_row_nnz=3)
        shared = set(map(int, wi.support)) & set(map(int, wj.support))
        size = len(set(map(int, wi.support)) ^ set(map(int, wj.support)))
        if size == 0:
            continue
        oi, oj = inter_row_switch(Yt, wi, wj)
        achieved = 0.0
        for ws in (oi, oj):
            for c, v in zip(ws.support, ws.values):
                if int(c) not in shared:
                    achieved += v**2
        best = best_pair_assignment(Yt, wi.atom, wj.atom, shared, size)
        assert np.isclose(achieved, best, atol=1e-10)


def test_conservation_and_descent():
    rng = np.random.default_rng(2)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        p = int(rng.integers(2, 9))
        Yt, wi, wj = _random_pair(rng, m, p)
        before_count = wi.support.size + wj.support.size
        before_obj = _joint_objective(Yt, wi, wj)
        oi, oj = inter_row_switch(Yt, wi, wj)
        assert oi.support.size + oj.support.size == before_count
        assert len(set(map(int, oi.support)) & set(map(int, oj.support))) == len(
            set(map(int, wi.support)) & set(map(int, wj.support))
        )
        after_obj = _joint_objective(Yt, oi, oj)
        assert after_obj - before_obj <= 1e-9 * max(abs(before_obj), abs(after_obj))


def test_shared_columns_keep_old_values():
    rng = np.random.default_rng(3)
    Yt = rng.standard_normal((3, 6))
    a_i, a_j = _unit(rng, 3), _unit(rng, 3)
    wi = RowWorkspace(a_i, np.array([0, 2, 4]), np.array([1.0, 2.0, 3.0]))
    wj = RowWorkspace(a_j, np.array([2, 5]), np.array([-1.0, 4.0]))
    oi, oj = inter_row_switch(Yt, wi, wj)
    assert oi.values[list(oi.support).index(2)] == 2.0
    assert oj.values[list(oj.support).index(2)] == -1.0


def test_non_unit_atom_rejected():
    Yt = np.eye(3)
    wi = RowWorkspace(np.array([2.0, 0, 0]), np.array([0]), np.array([1.0]))
    wj = RowWorkspace(np.array([0.0, 1, 0]), np.array([1]), np.array([1.0]))
    with pytest.raises(ValueError, match="unit"):
        inter_row_switch(Yt, wi, wj)


def test_out_of_range_support_rejected():
    Yt = np.eye(3)
    wi = RowWorkspace(np.array([1.0, 0, 0]), np.array([5]), np.array([1.0]))
    wj = RowWorkspace(np.array([0.0, 1, 0]), np.array([1]), np.array([1.0]))
    with pytest.raises(ValueError, match="column"):
        inter_row_switch(Yt, wi, wj)
