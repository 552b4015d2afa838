import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from batchsvd import inter_row_switch
from batchsvd.linalg import _sq_norm
from batchsvd.solver import _add_row

from oracles import best_pair_assignment, reference_inter_row_switch


def _unit(rng, m):
    a = rng.standard_normal(m)
    return a / np.linalg.norm(a)


def _random_pair(rng, m, p, max_row_nnz=4):
    Yt = rng.standard_normal((m, p))
    a_i, a_j = _unit(rng, m), _unit(rng, m)
    cap = min(max_row_nnz, p)
    si = np.sort(rng.choice(p, size=int(rng.integers(1, cap + 1)), replace=False))
    sj = np.sort(rng.choice(p, size=int(rng.integers(1, cap + 1)), replace=False))
    wi = (a_i, si, rng.standard_normal(si.size))
    wj = (a_j, sj, rng.standard_normal(sj.size))
    return Yt, wi, wj


def _joint_objective(Yt, wi, wj):
    """||Yt - a_i x_i^T - a_j x_j^T||^2 for rows given as (atom, support, values)."""
    p = Yt.shape[1]
    (a_i, s_i, v_i), (a_j, s_j, v_j) = wi, wj
    xi = np.zeros(p)
    xi[s_i] = v_i
    xj = np.zeros(p)
    xj[s_j] = v_j
    return float(np.sum((Yt - np.outer(a_i, xi) - np.outer(a_j, xj)) ** 2))


def test_identical_supports_noop():
    rng = np.random.default_rng(0)
    Yt = rng.standard_normal((3, 5))
    supp = np.array([1, 3])
    wi = (_unit(rng, 3), supp, np.array([1.0, 2.0]))
    wj = (_unit(rng, 3), supp.copy(), np.array([-1.0, 0.5]))
    (si, vi), (sj, vj) = inter_row_switch(Yt, *wi, *wj)
    assert np.array_equal(si, supp) and np.array_equal(sj, supp)
    assert np.array_equal(vi, wi[2]) and np.array_equal(vj, wj[2])


def test_forced_migration_to_better_row():
    # column 0 is 5*a_i but currently supported by row j; column 1 is zero
    a_i = np.array([1.0, 0.0])
    a_j = np.array([0.0, 1.0])
    Yt = np.zeros((2, 2))
    Yt[:, 0] = 5.0 * a_i
    (si, vi), (sj, vj) = inter_row_switch(Yt, a_i, np.array([1]), np.array([0.3]),
                                          a_j, np.array([0]), np.array([0.2]))
    assert 0 in si
    assert np.isclose(vi[list(si).index(0)], 5.0)
    assert si.size + sj.size == 2


def test_attains_exhaustive_assignment_optimum():
    rng = np.random.default_rng(1)
    for _ in range(60):
        m = int(rng.integers(2, 5))
        p = int(rng.integers(3, 7))
        Yt, wi, wj = _random_pair(rng, m, p, max_row_nnz=3)
        shared = set(map(int, wi[1])) & set(map(int, wj[1]))
        size = len(set(map(int, wi[1])) ^ set(map(int, wj[1])))
        if size == 0:
            continue
        achieved = 0.0
        for supp, vals in inter_row_switch(Yt, *wi, *wj):
            for c, v in zip(supp, vals):
                if int(c) not in shared:
                    achieved += v**2
        best = best_pair_assignment(Yt, wi[0], wj[0], shared, size)
        assert np.isclose(achieved, best, atol=1e-10)


def test_conservation_and_descent():
    rng = np.random.default_rng(2)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        p = int(rng.integers(2, 9))
        Yt, wi, wj = _random_pair(rng, m, p)
        before_count = wi[1].size + wj[1].size
        before_obj = _joint_objective(Yt, wi, wj)
        oi, oj = inter_row_switch(Yt, *wi, *wj)
        assert oi[0].size + oj[0].size == before_count
        assert len(set(map(int, oi[0])) & set(map(int, oj[0]))) == len(
            set(map(int, wi[1])) & set(map(int, wj[1]))
        )
        after_obj = _joint_objective(Yt, (wi[0], *oi), (wj[0], *oj))
        assert after_obj - before_obj <= 1e-9 * max(abs(before_obj), abs(after_obj))


def test_shared_columns_keep_old_values():
    rng = np.random.default_rng(3)
    Yt = rng.standard_normal((3, 6))
    a_i, a_j = _unit(rng, 3), _unit(rng, 3)
    (si, vi), (sj, vj) = inter_row_switch(Yt, a_i, np.array([0, 2, 4]), np.array([1.0, 2.0, 3.0]),
                                          a_j, np.array([2, 5]), np.array([-1.0, 4.0]))
    assert vi[list(si).index(2)] == 2.0
    assert vj[list(sj).index(2)] == -1.0


def test_non_unit_atom_rejected():
    Yt = np.eye(3)
    with pytest.raises(ValueError, match="unit"):
        inter_row_switch(Yt, np.array([2.0, 0, 0]), np.array([0]), np.array([1.0]),
                         np.array([0.0, 1, 0]), np.array([1]), np.array([1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["atom", "values"])
def test_non_finite_atom_or_values_rejected(bad, where):
    # NaN fails no `norm - 1 > tol` test, so a NaN atom used to pass the unit check
    Yt = np.random.default_rng(0).standard_normal((3, 6))
    a_j, v_j = np.array([0.0, 1, 0]), np.array([1.0, 2.0])
    (a_j if where == "atom" else v_j)[0] = bad
    match = "atom" if where == "atom" else "values must be finite"
    with pytest.raises(ValueError, match=match):
        inter_row_switch(Yt, np.array([1.0, 0, 0]), np.array([0]), np.array([1.0]),
                         a_j, np.array([1, 3]), v_j)


def test_atom_length_mismatch_rejected():
    Yt = np.eye(3)
    with pytest.raises(ValueError, match="atom length"):
        inter_row_switch(Yt, np.array([1.0, 0, 0]), np.array([0]), np.array([1.0]),
                         np.array([0.0, 1]), np.array([1]), np.array([1.0]))


def test_out_of_range_support_rejected():
    Yt = np.eye(3)
    with pytest.raises(ValueError, match="column"):
        inter_row_switch(Yt, np.array([1.0, 0, 0]), np.array([5]), np.array([1.0]),
                         np.array([0.0, 1, 0]), np.array([1]), np.array([1.0]))


@pytest.mark.parametrize("support, values, match", [
    ([0, 1, 2], [1.0], "length mismatch"),  # used to drop two entries silently
    ([0, 0], [1.0, 2.0], "duplicate"),  # used to return 2 entries for the 3 given
])
def test_malformed_row_rejected(support, values, match):
    Yt = np.arange(12.0).reshape(3, 4)
    with pytest.raises(ValueError, match=match):
        inter_row_switch(Yt, np.array([1.0, 0, 0]), np.array(support), np.array(values),
                         np.array([0.0, 1, 0]), np.array([1]), np.array([1.0]))


@st.composite
def row_pairs(draw):
    """Row pairs with identical, nested, disjoint or random supports, up to k = p.

    ``exact`` problems have integer residuals with repeated columns and
    canonical or dyadic atoms, one possibly equal to the other, so every
    projection is exact and ties between columns and between rows decide
    the picks. Others are Gaussian.
    """
    exact = draw(st.booleans())
    m = draw(st.integers(1, 4))
    p = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if exact:
        base = rng.integers(-2, 3, size=(m, draw(st.integers(1, p))))
        Yt = base[:, rng.integers(base.shape[1], size=p)].astype(np.float64)
        dyadic = np.full(4, 0.5) * rng.choice([-1.0, 1.0], size=4) if m == 4 else None
        pool = [np.eye(m)[c] for c in range(m)] + ([dyadic] if m == 4 else [])
        a_i = pool[draw(st.integers(0, len(pool) - 1))]
        a_j = pool[draw(st.integers(0, len(pool) - 1))]
    else:
        Yt = rng.standard_normal((m, p))
        a_i, a_j = _unit(rng, m), _unit(rng, m)
    relation = draw(st.sampled_from(["identical", "nested", "disjoint", "random"]))
    si = np.sort(rng.choice(p, size=draw(st.integers(0, p) | st.just(p)), replace=False))
    if relation == "identical":
        sj = si.copy()
    elif relation == "nested":
        sj = np.sort(rng.choice(si, size=draw(st.integers(0, si.size)), replace=False))
    elif relation == "disjoint":
        rest = np.setdiff1d(np.arange(p), si)
        sj = np.sort(rng.choice(rest, size=draw(st.integers(0, rest.size)), replace=False))
    else:
        sj = np.sort(rng.choice(p, size=draw(st.integers(0, p)), replace=False))
    if draw(st.booleans()):
        si, sj = sj, si
    wi = (a_i, si, rng.integers(-3, 4, size=si.size) * 0.75)
    wj = (a_j, sj, rng.standard_normal(sj.size))
    return exact, Yt, wi, wj


@given(row_pairs())
def test_matches_set_based_oracle(problem):
    exact, Yt, wi, wj = problem
    out = inter_row_switch(Yt, *wi, *wj)
    ref = reference_inter_row_switch(Yt, *wi, *wj)
    shared = np.intersect1d(wi[1], wj[1])
    for (_, supp, values), (got_s, got_v), (cols, vals) in zip((wi, wj), out, ref):
        assert np.array_equal(got_s, cols)
        if exact:
            assert np.array_equal(got_v, vals)
        else:
            # the oracle correlates only the candidate columns, which may
            # round the same products differently in the last bits
            assert np.allclose(got_v, vals, rtol=1e-12, atol=1e-12 * np.abs(Yt).max())
        # shared columns keep their old values bit for bit
        kept = np.isin(got_s, shared)
        assert np.array_equal(got_v[kept], values[np.isin(supp, shared)])
    # as batch_svd edits its residual: the old rows added back into R and the
    # switched rows taken out, each by _add_row; the objective change it keeps
    # is the joint objective's direct difference
    R = Yt.copy()
    for a, supp, values in (wi, wj):
        R[:, supp] -= np.outer(a, values)
    start = sq = _sq_norm(R)
    for a, supp, values in (wi, wj):
        sq = _add_row(R, a, supp, values, sq)
    for a, (supp, values) in zip((wi[0], wj[0]), out):
        sq = _add_row(R, a, supp, -values, sq)
    direct = _joint_objective(Yt, (wi[0], *out[0]), (wj[0], *out[1])) - _joint_objective(Yt, wi, wj)
    scale = np.sum(Yt**2) + sum(float(v @ v) for v in (wi[2], wj[2], out[0][1], out[1][1]))
    assert abs((sq - start) - direct) <= 1e-12 * scale
