import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchsvd import LearnConfig, SparseCoeff, load_sparse, save_sparse
from batchsvd.coding import _join_rows, _split_rows


def _sc(n, p, *triplets):
    """Store holding the given (row, col, value) triplets."""
    rows, cols, vals = zip(*triplets) if triplets else ((), (), ())
    return SparseCoeff(n, p, rows, cols, vals)


def _triplets(X):
    rows, cols, vals = X.entries()
    return list(zip(rows.tolist(), cols.tolist(), vals.tolist()))


def test_structural_zero_counts():
    X = _sc(2, 2, (0, 1, 0.0))
    assert X.nnz == 1
    assert _triplets(X) == [(0, 1, 0.0)]


@pytest.mark.parametrize("row, col, kind, bad", [
    (-1, 0, "row", -1), (3, 0, "row", 3), (0, -1, "column", -1), (0, 4, "column", 4),
])
def test_from_triplets_index_checked(row, col, kind, bad):
    # both ends: -1 must not wrap around, n or p must not break to_dense later
    with pytest.raises(ValueError, match=f"{kind} index {bad} out of range for 3x4"):
        _sc(3, 4, (1, 1, 1.0), (row, col, 2.0))


@pytest.mark.parametrize("bad", [1.5, float("nan"), float("inf"), True])
def test_from_triplets_rejects_non_integer_rows(bad):
    # a float or bool index used to be truncated: 1.5 and True both landed in row 1
    with pytest.raises(ValueError, match="row indices must be integers"):
        SparseCoeff(3, 3, [bad], [0], [1.0])


@pytest.mark.parametrize("bad", [1.5, float("nan"), float("inf"), True])
def test_from_triplets_rejects_non_integer_columns(bad):
    with pytest.raises(ValueError, match="column indices must be integers"):
        SparseCoeff(3, 3, [0], [bad], [1.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_from_triplets_rejects_non_finite_values(bad):
    # a NaN value used to be stored, and objective() then returned nan;
    # from_dense and load_sparse refuse such values too
    with pytest.raises(ValueError, match="coefficient values must be finite"):
        SparseCoeff(2, 2, [0, 1], [0, 1], [1.0, bad])


def test_from_triplets_builds_empty_store_from_empty_lists():
    X = SparseCoeff(3, 3, [], [], [])
    assert X == SparseCoeff(3, 3) and X.nnz == 0


def test_from_triplets_rejects_duplicates_and_ragged_input():
    with pytest.raises(ValueError, match=r"duplicate entry \(2, 1\)"):
        _sc(3, 4, (0, 0, 1.0), (2, 1, 2.0), (1, 3, 3.0), (2, 1, 4.0), (0, 0, 5.0))
    with pytest.raises(ValueError, match="differ in length"):
        SparseCoeff(3, 4, [0, 1], [0, 1], [1.0])


def test_emptied_rows_compare_equal_to_never_used_rows():
    supports, values = _split_rows(_sc(3, 4, (1, 0, 1.0), (1, 2, 2.0), (0, 3, 4.0)))
    for i in (0, 1):
        supports[i], values[i] = supports[i][:0], values[i][:0]
    X = _join_rows(3, 4, supports, values)
    assert X == SparseCoeff(3, 4)
    assert _triplets(X) == [] and not X.to_dense().any()


def test_duplicate_rejected():
    # a row edit that repeats a column is caught when the rows are joined back
    supports = [np.array([1, 1]), np.array([], dtype=np.intp), np.array([], dtype=np.intp)]
    values = [np.array([1.0, 2.0]), np.array([]), np.array([])]
    with pytest.raises(ValueError, match=r"duplicate entry \(0, 1\)"):
        _join_rows(3, 3, supports, values)


def test_dense_round_trip():
    rng = np.random.default_rng(3)
    D = rng.standard_normal((5, 7))
    D[np.abs(D) < 0.8] = 0.0
    X = SparseCoeff.from_dense(D)
    assert np.array_equal(X.to_dense(), D)
    assert X.nnz == np.count_nonzero(D)


def test_entries_sorted_by_col_then_row():
    X = _sc(3, 3, (2, 0, 1.0), (0, 2, 2.0), (1, 0, 3.0))
    rows, cols, vals = X.entries()
    assert (rows.dtype, cols.dtype, vals.dtype) == (np.intp, np.intp, np.float64)
    assert list(zip(rows.tolist(), cols.tolist())) == [(1, 0), (2, 0), (0, 2)]
    assert vals.tolist() == [3.0, 1.0, 2.0]


def test_bad_dimensions():
    with pytest.raises(ValueError):
        SparseCoeff(0, 5)


@st.composite
def _stores(draw):
    """(n, p, entries): distinct (row, col) positions with values, zeros included."""
    n = draw(st.integers(1, 6))
    p = draw(st.integers(1, 6))
    cells = draw(st.one_of(
        st.just([]),
        st.just([(i, j) for i in range(n) for j in range(p)]),  # K = n*p
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, p - 1)), unique=True),
    ))
    cells = draw(st.permutations(cells))
    vals = draw(st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.25]) | st.floats(-1e6, 1e6),
                         min_size=len(cells), max_size=len(cells)))
    return n, p, [(i, j, v) for (i, j), v in zip(cells, vals)]


@settings(max_examples=150, deadline=None)
@given(_stores())
def test_triplet_round_trips(tmp_path_factory, store):
    n, p, entries = store
    X = _sc(n, p, *entries)
    assert X.nnz == len(entries)
    assert _triplets(X) == sorted(entries, key=lambda t: (t[1], t[0]))
    D = np.zeros((n, p))
    for i, j, v in entries:
        D[i, j] = v
    assert np.array_equal(X.to_dense(), D)
    for a in X.entries():  # the store is immutable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    supports, values = _split_rows(X)
    assert len(supports) == len(values) == n
    for i, (supp, vals) in enumerate(zip(supports, values)):
        assert (supp.dtype, vals.dtype) == (np.intp, np.float64)
        row = sorted((j, v) for r, j, v in entries if r == i)  # empty rows included
        assert list(zip(supp.tolist(), vals.tolist())) == row
    joined = _join_rows(n, p, supports, values)
    assert joined == X
    assert joined.entries()[2].tobytes() == X.entries()[2].tobytes()  # -0.0 keeps its sign
    path = tmp_path_factory.mktemp("store") / "x.coef"
    save_sparse(path, X)
    assert load_sparse(path) == X
    for bad in ((n, 0, 1.0), (0, p, 1.0), (-1, 0, 1.0), (0, -1, 1.0)):
        with pytest.raises(ValueError, match="out of range"):
            _sc(n, p, *entries, bad)
    if entries:
        i, j, _ = entries[-1]
        with pytest.raises(ValueError, match=rf"duplicate entry \({i}, {j}\)"):
            _sc(n, p, *entries, (i, j, 1.0))


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
        for name in ("epsilon", "trigger"):
            with pytest.raises(ValueError, match=f"{name} must be a nonnegative number"):
                LearnConfig(budget=5, **{name: float("nan")})
            inf = LearnConfig(budget=5, **{name: float("inf")})  # inf stays valid
            assert getattr(inf, name) == float("inf")
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
