import logging

import numpy as np
import pytest

from batchsvd import (block_omp, dict_approx_init, initial_dictionary, objective, omp,
                      reseed_dead_atoms)
from batchsvd.coding import SparseCoeff, _atom_fitter
from batchsvd.linalg import solve_gram

from oracles import kron_omp, reference_omp


def _unit_cols(rng, m, n):
    A = rng.standard_normal((m, n))
    return A / np.linalg.norm(A, axis=0)


class TestOmp:
    def test_canonical_basis(self):
        supp, coef = omp(np.array([0.0, 5.0, 0.0]), np.eye(3), 1)
        assert list(supp) == [1]
        assert np.allclose(coef, [5.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch: A is 3x3, Y is 4x1"):
            omp(np.ones(4), np.eye(3), 1)

    def test_non_integer_k_rejected(self):
        with pytest.raises(ValueError, match="k must be an integer, got 1.5"):
            omp(np.array([0.0, 5.0, 0.0]), np.eye(3), 1.5)
        assert list(omp(np.array([0.0, 5.0, 0.0]), np.eye(3), np.int32(1))[0]) == [1]

    def test_orthonormal_exact_recovery(self):
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        y = 2 * Q[:, 0] + 3 * Q[:, 1]
        supp, coef = omp(y, Q, 2)
        assert sorted(supp) == [0, 1]
        recon = Q[:, supp] @ coef
        assert np.allclose(recon, y, atol=1e-12)

    def test_matches_reference_on_coherent_dictionary(self):
        rng = np.random.default_rng(8)
        base = _unit_cols(rng, 4, 3)
        # coherent: near-duplicate atoms
        A = np.column_stack([base, base + 0.05 * rng.standard_normal((4, 3))])
        A /= np.linalg.norm(A, axis=0)
        for seed in range(20):
            y = np.random.default_rng(seed).standard_normal(4)
            supp, coef = omp(y, A, 2)
            ref_supp, ref_coef = reference_omp(y, A, 2)
            assert list(supp) == ref_supp
            assert np.allclose(coef, ref_coef, atol=1e-10)

    def test_residual_monotone_across_steps(self):
        rng = np.random.default_rng(5)
        A = _unit_cols(rng, 6, 10)
        y = rng.standard_normal(6)
        norms = []
        for k in range(1, 6):
            supp, coef = omp(y, A, k)
            norms.append(np.linalg.norm(y - A[:, supp] @ coef))
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_early_return_when_residual_zero(self):
        A = np.eye(3)
        supp, coef = omp(np.array([0.0, 2.0, 0.0]), A, 3)
        assert len(supp) == 1  # flagged by the smaller support

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            omp(np.ones(3), np.eye(3), 0)
        with pytest.raises(ValueError):
            omp(np.ones(3), np.eye(3), 4)

    def test_zero_column_rejected(self):
        A = np.eye(3)
        A[:, 1] = 0.0
        with pytest.raises(ValueError, match="zero column"):
            omp(np.ones(3), A, 1)


class TestBlockOmp:
    def test_single_entry_argmax(self):
        X = block_omp(np.array([[1.0, 0.0], [0.0, 2.0]]), np.eye(2), 1)
        assert X.nnz == 1
        assert [a.tolist() for a in X.entries()] == [[1], [1], [2.0]]

    def test_orthonormal_full_budget(self):
        rng = np.random.default_rng(1)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        Y = rng.standard_normal((4, 5))
        X = block_omp(Y, Q, 20)
        assert np.allclose(X.to_dense(), Q.T @ Y, atol=1e-10)
        assert objective(Y, Q, X) < 1e-20

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 6))
            p = int(rng.integers(2, 6))
            if n * p > 60:
                continue
            A = _unit_cols(rng, m, n)
            Y = rng.standard_normal((m, p))
            budget = int(rng.integers(1, min(n * p, 12) + 1))
            X = block_omp(Y, A, budget)
            ref = kron_omp(Y, A, budget)
            rows, cols, vals = X.entries()
            got = dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist()))
            assert got.keys() == ref.keys()
            for key, val in ref.items():
                assert np.isclose(got[key], val, atol=1e-10)

    def test_budget_law(self):
        rng = np.random.default_rng(3)
        A = _unit_cols(rng, 4, 6)
        Y = rng.standard_normal((4, 7))
        for budget in (1, 5, 12):
            X = block_omp(Y, A, budget)
            assert X.nnz == budget  # residual never vanishes on random data

    def test_budget_out_of_range(self):
        with pytest.raises(ValueError, match="budget"):
            block_omp(np.eye(2), np.eye(2), 5)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch: A is 3x3, Y is 2x5"):
            block_omp(np.ones((2, 5)), np.eye(3), 2)

    def test_requires_unit_columns(self):
        with pytest.raises(ValueError, match="unit"):
            block_omp(np.eye(2), 2 * np.eye(2), 1)

    def test_non_integer_budget_rejected(self):
        # used to reach np.partition and raise TypeError
        with pytest.raises(ValueError, match="budget must be an integer, got 1.5"):
            block_omp(np.eye(2), np.eye(2), 1.5)
        assert block_omp(np.eye(2), np.eye(2), np.int64(2)).nnz == 2


class TestDictApproxInit:
    def test_planted_exact_model_single_round(self):
        rng = np.random.default_rng(4)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        Xs = np.zeros((6, 10))
        for j in range(10):
            rows = rng.choice(6, size=2, replace=False)
            Xs[rows, j] = rng.standard_normal(2)
        Y = Q @ Xs
        A, X = dict_approx_init(Y, Q, budget=20, iters=1)
        assert objective(Y, A, X) < 1e-18

    def test_more_rounds_usually_improve(self):
        # oracle is the same start run for a single round
        wins = 0
        runs = 50
        for seed in range(runs):
            rng = np.random.default_rng(seed)
            Y = rng.standard_normal((8, 50))
            A0 = initial_dictionary(Y, 12, rng)
            after_one = objective(Y, *dict_approx_init(Y, A0, budget=100, iters=1))
            after_ten = objective(Y, *dict_approx_init(Y, A0, budget=100, iters=10))
            if after_ten <= after_one + 1e-12:
                wins += 1
        assert wins >= 0.9 * runs

    def test_zero_rounds_rejected(self):
        with pytest.raises(ValueError):
            dict_approx_init(np.eye(3), np.eye(3), budget=3, iters=0)

    @pytest.mark.parametrize("budget, iters, match", [
        (10.5, 1, "budget must be an integer, got 10.5"),
        (3, 1.5, "iters must be an integer, got 1.5"),
        (3, True, "iters must be an integer, got True"),
    ])
    def test_non_integer_counts_rejected(self, budget, iters, match):
        with pytest.raises(ValueError, match=match):
            dict_approx_init(np.eye(3), np.eye(3), budget=budget, iters=iters)

    def test_atoms_unit_norm_on_exit(self):
        rng = np.random.default_rng(10)
        Y = rng.standard_normal((5, 30))
        A0 = initial_dictionary(Y, 8, rng)
        A, X = dict_approx_init(Y, A0, budget=60, iters=3)
        assert np.allclose(np.linalg.norm(A, axis=0), 1.0, atol=1e-12)


class TestInitialDictionary:
    def test_unit_norm_and_shape(self):
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((5, 20))
        A = initial_dictionary(Y, 7, rng)
        assert A.shape == (5, 7)
        assert np.allclose(np.linalg.norm(A, axis=0), 1.0)

    def test_gaussian_fill_when_few_samples(self):
        rng = np.random.default_rng(1)
        Y = rng.standard_normal((4, 2))
        A = initial_dictionary(Y, 6, rng)
        assert A.shape == (4, 6)
        assert np.allclose(np.linalg.norm(A, axis=0), 1.0)

    def test_zero_columns_skipped(self):
        Y = np.zeros((3, 4))
        Y[:, 2] = [1.0, 0.0, 0.0]
        A = initial_dictionary(Y, 3, np.random.default_rng(2))
        assert np.allclose(np.linalg.norm(A, axis=0), 1.0)


    @pytest.mark.parametrize("n_atoms, message", [
        (2.5, "n_atoms must be an integer, got 2.5"),
        (np.float64(3.0), "n_atoms must be an integer, got np.float64"),
        (0, "n_atoms must be at least 1, got 0"),
    ])
    def test_atom_count_checked(self, n_atoms, message):
        # a float used to fail inside numpy with a TypeError
        with pytest.raises(ValueError, match=message):
            initial_dictionary(np.eye(3), n_atoms, np.random.default_rng(0))
        assert initial_dictionary(np.eye(3), np.int64(2), np.random.default_rng(0)).shape == (3, 2)

    def test_samples_in_permutation_order_then_gaussian_fill(self):
        # p < n_atoms: the nonzero samples come first, in the seeded
        # permutation's order, then unit Gaussian atoms drawn from the same rng
        Y = np.zeros((3, 5))
        Y[:, [0, 2, 4]] = [[3.0, 0.0, 1.0], [4.0, 2.0, 1.0], [0.0, 0.0, 1.0]]
        A = initial_dictionary(Y, 6, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        nonzero = [j for j in rng.permutation(5) if Y[:, j].any()]
        expected = [Y[:, j] / np.linalg.norm(Y[:, j]) for j in nonzero]
        assert np.array_equal(A[:, :3], np.column_stack(expected))
        g = rng.standard_normal(3)
        assert np.array_equal(A[:, 3], g / np.linalg.norm(g))
        assert np.allclose(np.linalg.norm(A, axis=0), 1.0)


class TestReseedDeadAtoms:
    @staticmethod
    def _problem():
        # sample j is 10 j e_(j mod 3); the residual ranks the samples 3, 0, 4, 1, 2
        Y = np.zeros((3, 5))
        Y[np.arange(5) % 3, np.arange(5)] = 10.0 * np.arange(5)
        residual = np.zeros((3, 5))
        residual[0] = [5.0, 2.0, 1.0, 9.0, 3.0]
        return np.eye(3), Y, residual

    def test_residual_order_zero_samples_skipped_and_distinct(self):
        # sample 0 is zero although its residual ranks second: atoms 0 and 2,
        # ascending, take samples 3 and 4, one each
        A, Y, residual = self._problem()
        assert reseed_dead_atoms(A, [2, 0], Y, residual) == 2
        assert np.array_equal(A, [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])

    def test_basis_fallback_when_samples_run_out(self):
        # one usable sample for three atoms: the others get e_(i mod m)
        A, Y, residual = self._problem()
        Y[:, 1:] = 0.0
        Y[2, 0] = 2.0
        assert reseed_dead_atoms(A, np.array([0, 1, 2]), Y, residual) == 3
        assert np.array_equal(A, [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])

    @pytest.mark.parametrize("dead", [[], np.array([], dtype=np.intp)])
    def test_no_dead_atom_is_a_no_op(self, dead):
        A, Y, residual = self._problem()
        assert reseed_dead_atoms(A, dead, Y, residual) == 0
        assert np.array_equal(A, np.eye(3))

    @pytest.mark.parametrize("dead, match", [
        ([-1], "distinct and in range for 3 atoms"),  # used to re-seed atom 2
        ([3], "distinct and in range for 3 atoms"),  # used to raise a bare IndexError
        ([0, 0], "distinct and in range for 3 atoms"),  # used to re-seed atom 0 twice
        ([0.5], "dead atom indices must be integers"),  # used to be truncated to atom 0
    ])
    def test_bad_indices_refused(self, dead, match):
        A, Y, residual = self._problem()
        with pytest.raises(ValueError, match=match):
            reseed_dead_atoms(A, dead, Y, residual)
        assert np.array_equal(A, np.eye(3))

    @pytest.mark.parametrize("y_shape, r_shape", [
        ((3, 5), (3, 4)), ((3, 5), (3, 6)), ((3, 5), (2, 5)), ((2, 5), (2, 5)), ((15,), (15,)),
    ])
    def test_mismatched_shapes_refused(self, y_shape, r_shape):
        # a residual with fewer or more columns than Y used to be accepted
        with pytest.raises(ValueError, match="shape mismatch"):
            reseed_dead_atoms(np.eye(3), [0], np.ones(y_shape), np.ones(r_shape))


class TestFitAtoms:
    @staticmethod
    def _problem(rng, m=5, n=7, p=30, nnz=60):
        Y = rng.standard_normal((m, p))
        A = _unit_cols(rng, m, n)
        flat = rng.choice((n - 2) * p, size=nnz, replace=False)  # atoms n-2, n-1 unused
        rows, cols = flat // p, flat % p
        return Y, A, rows, cols, rng.standard_normal(nnz)

    def test_matches_dense_normal_equations(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            Y, A, rows, cols, vals = self._problem(rng)
            Xd = np.zeros((A.shape[1], Y.shape[1]))
            Xd[rows, cols] = vals
            used = np.unique(rows)
            expected = solve_gram(Xd[used] @ Xd[used].T, Xd[used] @ Y.T).T
            got = A.copy()
            X = SparseCoeff(*Xd.shape, rows, cols, vals)
            _atom_fitter(X)[2](Y, got, X.entries()[2])
            assert np.allclose(got[:, used], expected, rtol=0, atol=1e-12 * np.abs(expected).max())
            unused = np.setdiff1d(np.arange(A.shape[1]), used)
            assert np.array_equal(got[:, unused], A[:, unused])

    def test_triplet_order_irrelevant(self):
        rng = np.random.default_rng(12)
        Y, A, rows, cols, vals = self._problem(rng)
        first, second = A.copy(), A.copy()
        n, p = A.shape[1], Y.shape[1]
        X = SparseCoeff(n, p, rows, cols, vals)
        _atom_fitter(X)[2](Y, first, X.entries()[2])
        perm = rng.permutation(rows.size)
        X = SparseCoeff(n, p, rows[perm], cols[perm], vals[perm])
        _atom_fitter(X)[2](Y, second, X.entries()[2])
        assert np.allclose(first, second, rtol=0, atol=1e-12)

    def test_empty_triplets_noop(self):
        rng = np.random.default_rng(13)
        Y, A, *_ = self._problem(rng)
        out = A.copy()
        _atom_fitter(SparseCoeff(A.shape[1], Y.shape[1]))[2](Y, out, np.array([]))
        assert np.array_equal(out, A)

    def test_duplicate_rows_ridged_and_logged(self, caplog):
        # atoms 0 and 1 have identical coefficient rows: X_u X_u^T is singular
        rng = np.random.default_rng(14)
        Y = rng.standard_normal((4, 6))
        x = rng.standard_normal(6)
        rows, cols, vals = np.repeat([0, 1], 6), np.tile(np.arange(6), 2), np.tile(x, 2)
        Xu = np.vstack((x, x))
        with caplog.at_level(logging.DEBUG, logger="batchsvd.linalg"):
            solve_gram(Xu @ Xu.T, Xu @ Y.T)
            dense_lines = [r.getMessage() for r in caplog.records]
            caplog.clear()
            A = _unit_cols(rng, 4, 3)
            X = SparseCoeff(3, 6, rows, cols, vals)
            _atom_fitter(X)[2](Y, A, X.entries()[2])
            lines = [r.getMessage() for r in caplog.records]
        assert len(dense_lines) == 1 and dense_lines[0].startswith("gram solve: cond=")
        assert lines == dense_lines
        assert np.all(np.isfinite(A))
        assert np.allclose(A[:, 0], A[:, 1])  # the ridge splits the fit evenly
