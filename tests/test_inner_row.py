import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from batchsvd import inner_row_switch, rank1_svd, solver
from batchsvd.solver import _top_k

from oracles import all_rounds_inner_row, best_fixed_atom_support, stable_top_k


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
    atom, supp, vals, locals_ = inner_row_switch(residual, a.copy(), cols, x[cols], 2)
    assert set(supp) == set(cols)
    assert locals_[-1] < 1e-18
    assert _local_objective(residual, atom, supp, vals) < 1e-18


def test_full_support_equals_rank_one_identity():
    # with k = p the support cannot move, so one round leaves the best
    # rank-1 error: ||Yt||_F^2 - sigma_1^2
    rng = np.random.default_rng(1)
    Yt = rng.standard_normal((4, 6))
    sigma1 = np.linalg.svd(Yt, compute_uv=False)[0]
    atom, supp, vals, locals_ = inner_row_switch(Yt, _unit(rng, 4), np.arange(6), np.zeros(6), 1)
    expected = np.sum(Yt**2) - sigma1**2
    assert np.isclose(locals_[-1], expected, rtol=1e-10)
    assert np.isclose(_local_objective(Yt, atom, supp, vals), expected, rtol=1e-10)


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
        atom, supp, vals, locals_ = inner_row_switch(Yt, a.copy(), cols, z, 1)
        achieved = _local_objective(Yt, atom, supp, vals)
        assert np.isclose(achieved, best_fixed_atom_support(Yt, a, k), atol=1e-10)


def test_halfstep_sequence_non_increasing():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        p = int(rng.integers(2, 9))
        k = int(rng.integers(1, p + 1))
        Yt = rng.standard_normal((m, p))
        cols = np.sort(rng.choice(p, size=k, replace=False))
        atom, supp, vals, locals_ = inner_row_switch(
            Yt, _unit(rng, m), cols, rng.standard_normal(k), int(rng.integers(1, 4))
        )
        for a, b in zip(locals_, locals_[1:]):
            assert b - a <= 1e-9 * max(abs(a), abs(b))
        assert supp.size == k
        # the trace end matches the recomputed local objective
        direct = _local_objective(Yt, atom, supp, vals)
        assert np.isclose(direct, locals_[-1], rtol=1e-9, atol=1e-12)


def test_fixed_point_exit_matches_all_rounds_oracle():
    # stopping once a converged round re-selects its own support skips only
    # rounds that refit the same block from their own output: the support,
    # values and objective of running every round must come out the same
    rng = np.random.default_rng(8)
    early = 0
    for _ in range(300):
        m, p = int(rng.integers(2, 9)), int(rng.integers(2, 41))
        k = int(rng.integers(1, p + 1))
        R = rng.standard_normal((m, p))
        cols = np.sort(rng.choice(p, size=k, replace=False))
        atom, n_iters = _unit(rng, m), int(rng.integers(1, 5))
        _, supp, vals, locals_ = inner_row_switch(R, atom, cols, rng.standard_normal(k), n_iters)
        _, ref_supp, ref_vals, ref_obj = all_rounds_inner_row(R, atom, cols, n_iters, rank1_svd)
        assert np.array_equal(supp, ref_supp)
        assert np.linalg.norm(vals - ref_vals) <= 1e-9 * np.linalg.norm(ref_vals)
        assert abs(locals_[-1] - ref_obj) <= 1e-12 * np.sum(R**2)
        early += len(locals_) < 2 * n_iters + 1
    assert early >= 100  # the exit fires on a third of the rows or more


def test_unconverged_fit_never_ends_the_rounds(monkeypatch):
    # a planted rank-1 row is a fixed point from the first round on; only a
    # converged fit may end the rounds there
    rng = np.random.default_rng(9)
    a = _unit(rng, 5)
    x = np.zeros(12)
    cols = np.array([2, 5, 7])
    x[cols] = rng.standard_normal(3) + np.sign(rng.standard_normal(3))
    residual = np.outer(a, x) + 1e-3 * rng.standard_normal((5, 12))
    assert len(inner_row_switch(residual, a, cols, x[cols], 4)[3]) == 3
    real = solver._rank1
    monkeypatch.setattr(solver, "_rank1",
                        lambda *args: dataclasses.replace(real(*args), converged=False))
    _, supp, _, locals_ = inner_row_switch(residual, a, cols, x[cols], 4)
    assert len(locals_) == 2 * 4 + 1
    assert np.array_equal(supp, cols)


def test_support_size_preserved():
    rng = np.random.default_rng(4)
    Yt = rng.standard_normal((3, 10))
    atom, supp, _, _ = inner_row_switch(Yt, _unit(rng, 3), np.array([0, 4]), np.array([1.0, 2.0]),
                                        5)
    assert supp.size == 2
    assert abs(np.linalg.norm(atom) - 1.0) < 1e-12


def test_degenerate_zero_block():
    Yt = np.zeros((3, 4))
    Yt[:, 2] = [1.0, 2.0, 3.0]  # support excludes the only nonzero column
    atom = np.array([1.0, 0.0, 0.0])
    out_atom, supp, vals, locals_ = inner_row_switch(Yt, atom, np.array([0, 1]),
                                                     np.array([1.0, 1.0]), 3)
    assert len(locals_) < 2 * 3 + 1  # the zero block ended the rounds early
    assert np.array_equal(supp, [0, 1])
    assert np.all(vals == 0.0)
    assert np.array_equal(out_atom, atom)
    assert locals_[-1] <= locals_[0] + 1e-12


def test_empty_support_rejected():
    with pytest.raises(ValueError, match="support"):
        inner_row_switch(np.eye(3), np.array([1.0, 0, 0]), np.array([], dtype=int), np.array([]), 1)


def test_missing_residual_rejected():
    with pytest.raises(ValueError, match="residual"):
        inner_row_switch(None, np.ones(2), np.array([0]), np.array([1.0]), 1)


def test_non_finite_residual_rejected():
    # a NaN used to give _top_k a NaN threshold: an empty support and NaN objectives
    rng = np.random.default_rng(6)
    R = rng.standard_normal((3, 6))
    R[0, 5] = np.nan
    with pytest.raises(ValueError, match="residual"):
        inner_row_switch(R, _unit(rng, 3), np.array([0, 1]), np.array([1.0, 2.0]), 1)


def test_non_integer_rounds_rejected():
    with pytest.raises(ValueError, match="n_iters must be an integer, got 1.5"):
        inner_row_switch(np.eye(3), np.array([1.0, 0, 0]), np.array([0]), np.array([1.0]), 1.5)


def test_atom_length_mismatch_rejected():
    # used to surface as numpy's matmul error
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError, match="atom length"):
        inner_row_switch(rng.standard_normal((3, 6)), _unit(rng, 4), np.array([0, 1]),
                         np.array([1.0, 2.0]), 1)


@pytest.mark.parametrize("support", [[2, 2], [-1, 2], [1, 9]])
def test_malformed_support_rejected(support):
    # a repeated column used to drop an entry and raise the local trace, a
    # negative one wrapped to the last column, and one past p gave IndexError
    rng = np.random.default_rng(5)
    atom = _unit(rng, 3)
    with pytest.raises(ValueError, match="support column"):
        inner_row_switch(rng.standard_normal((3, 6)), atom, np.array(support),
                         np.array([1.0, 2.0]), 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["atom", "values"])
def test_non_finite_atom_or_values_rejected(bad, where):
    # a NaN atom used to return an empty support and NaN objectives
    R = np.random.default_rng(0).standard_normal((3, 6))
    atom, values = np.array([1.0, 0, 0]), np.array([1.0, 2.0])
    (atom if where == "atom" else values)[0] = bad
    match = "atom" if where == "atom" else "values must be finite"
    with pytest.raises(ValueError, match=match):
        inner_row_switch(R, atom, np.array([0, 1]), values, 2)


def test_values_length_mismatch_rejected():
    with pytest.raises(ValueError, match="length mismatch"):
        inner_row_switch(np.eye(3), np.array([1.0, 0, 0]), np.array([0, 1]), np.array([1.0]), 1)


@given(st.lists(st.integers(0, 3) | st.floats(0, 4), min_size=1, max_size=40), st.data())
def test_top_k_matches_stable_sort(mags, data):
    # small integers make exact ties at the selection boundary the common case
    mag = np.asarray(mags, dtype=np.float64)
    k = data.draw(st.integers(1, mag.size) | st.sampled_from([1, mag.size]))
    assert np.array_equal(_top_k(mag, k), stable_top_k(mag, k))


@st.composite
def tied_rows(draw):
    """Integer residuals with repeated columns and canonical or dyadic atoms: exact ties."""
    m = draw(st.integers(1, 4))
    p = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.integers(-2, 3, size=(m, draw(st.integers(1, p))))
    residual = base[:, rng.integers(base.shape[1], size=p)].astype(np.float64)
    if draw(st.booleans()) and m == 4:
        atom = np.full(4, 0.5) * rng.choice([-1.0, 1.0], size=4)  # unit, exact products
    else:
        atom = np.eye(m)[draw(st.integers(0, m - 1))]
    k = draw(st.integers(1, p) | st.sampled_from([1, p]))
    supp = np.sort(rng.choice(p, size=k, replace=False))
    return residual, atom, supp, rng.integers(-2, 3, size=k).astype(np.float64)


@given(tied_rows(), st.integers(1, 3))
def test_selection_is_stable_top_k_of_final_projection(problem, n_iters):
    residual, atom, support, values = problem
    out_atom, supp, vals, locals_ = inner_row_switch(residual, atom, support, values, n_iters)
    # every round ends on a re-selection (an odd trace), whether all ran or a
    # fixed point ended them; a zero block ends them after an even count
    if len(locals_) % 2 == 0:
        assert len(locals_) < 2 * n_iters + 1
        assert np.array_equal(supp, support)
        assert np.all(vals == 0.0)
        return
    proj = residual.T @ out_atom
    assert np.array_equal(supp, stable_top_k(np.abs(proj), support.size))
    assert np.array_equal(vals, proj[supp])
