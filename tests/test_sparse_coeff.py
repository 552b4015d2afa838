import numpy as np
import pytest

from batchsvd import LearnConfig, SparseCoeff


def test_set_get_unset():
    X = SparseCoeff(3, 4)
    X.set(1, 2, 5.0)
    assert X.has(1, 2)
    assert X.get(1, 2) == 5.0
    assert X.get(0, 0) == 0.0
    assert X.nnz == 1
    X.unset(1, 2)
    assert X.nnz == 0
    with pytest.raises(ValueError):
        X.unset(1, 2)


def test_structural_zero_counts():
    X = SparseCoeff(2, 2)
    X.set(0, 1, 0.0)
    assert X.nnz == 1
    assert X.has(0, 1)


def test_views_stay_consistent_under_mutation():
    rng = np.random.default_rng(0)
    X = SparseCoeff(6, 9)
    for _ in range(200):
        i = int(rng.integers(6))
        j = int(rng.integers(9))
        action = rng.integers(3)
        if action == 0:
            X.set(i, j, float(rng.standard_normal()))
        elif action == 1 and X.has(i, j):
            X.unset(i, j)
        else:
            cols = rng.choice(9, size=int(rng.integers(0, 4)), replace=False)
            X.set_row(i, cols, rng.standard_normal(len(cols)))
    # transpose views agree entry by entry
    for i in range(6):
        for j in X.row_support(i):
            assert i in X.col_support(j)


def test_set_row_and_col():
    X = SparseCoeff(4, 5)
    X.set_row(2, [0, 3], [1.0, -2.0])
    assert X.row_support(2) == [0, 3]
    # set_col replaces the whole column support, dropping the (2, 3) entry
    X.set_col(3, [0, 1], [7.0, 8.0])
    assert X.col_support(3) == [0, 1]
    assert X.row_support(2) == [0]
    assert X.get(0, 3) == 7.0
    X.set_row(2, [], [])
    assert X.row_size(2) == 0


@pytest.mark.parametrize("row", [-1, 3])
def test_row_index_checked(row):
    # both ends: -1 must not wrap to the last row, n must not raise IndexError
    X = SparseCoeff(3, 4)
    X.set(2, 1, 1.0)
    calls = [
        lambda: X.set_row(row, [0], [1.0]),
        lambda: X.row_size(row),
        lambda: X.row_support(row),
        lambda: X.row_entries(row),
        lambda: X.scale_row(row, 2.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"row index {row} out of range"):
            call()
    assert X.row_entries(2)[1].tolist() == [1.0]  # last row untouched


def test_duplicate_rejected():
    X = SparseCoeff(3, 3)
    with pytest.raises(ValueError, match="duplicate"):
        X.set_row(0, [1, 1], [1.0, 2.0])


def test_dense_round_trip():
    rng = np.random.default_rng(3)
    D = rng.standard_normal((5, 7))
    D[np.abs(D) < 0.8] = 0.0
    X = SparseCoeff.from_dense(D)
    assert np.array_equal(X.to_dense(), D)
    assert X.nnz == np.count_nonzero(D)


def test_permute_rows():
    X = SparseCoeff(3, 4)
    X.set(0, 1, 1.0)
    X.set(2, 3, 2.0)
    X.permute_rows([2, 0, 1])
    assert X.get(0, 3) == 2.0
    assert X.get(1, 1) == 1.0


def test_entries_sorted_by_col_then_row():
    X = SparseCoeff(3, 3)
    X.set(2, 0, 1.0)
    X.set(0, 2, 2.0)
    X.set(1, 0, 3.0)
    assert [(i, j) for i, j, _ in X.entries()] == [(1, 0), (2, 0), (0, 2)]


def test_copy_is_deep():
    X = SparseCoeff(2, 2)
    X.set(0, 0, 1.0)
    Y = X.copy()
    Y.set(1, 1, 2.0)
    assert X.nnz == 1 and Y.nnz == 2


def test_bad_dimensions():
    with pytest.raises(ValueError):
        SparseCoeff(0, 5)


class TestLearnConfig:
    def test_defaults_echo_protocol_constants(self):
        cfg = LearnConfig(budget=100)
        assert cfg.max_outer == 20
        assert cfg.inner_sweeps == 3
        assert cfg.amplitude_iters == 10
        assert cfg.trigger == 0.05
        assert cfg.init_iters == 80

    def test_validation(self):
        with pytest.raises(ValueError):
            LearnConfig(budget=0)
        with pytest.raises(ValueError):
            LearnConfig(budget=5, epsilon=-1.0)
        with pytest.raises(ValueError):
            LearnConfig(budget=5, pair_fraction=0.0)
        with pytest.raises(ValueError):
            LearnConfig(budget=5, inner_sweeps=0)

    def test_pair_fraction_rule(self):
        cfg = LearnConfig(budget=5)
        assert cfg.effective_pair_fraction(64) == 1.0
        n = 100
        frac = cfg.effective_pair_fraction(n)
        assert np.isclose(frac * n * (n - 1) / 2, n)
        assert LearnConfig(budget=5, pair_fraction=0.25).effective_pair_fraction(10) == 0.25
