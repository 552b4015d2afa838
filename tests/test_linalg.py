import logging
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from batchsvd import (
    NumericalError,
    SparseCoeff,
    block_omp,
    objective,
    rank1_svd,
)
from batchsvd.linalg import (_BLOCK, COND_LIMIT, RIDGE_SCALE, _col_norms, _rank1, _residual,
                             solve_gram)

from oracles import align_sign, eigvalsh_ridges, jacobi_svd, qr_solve, reference_ridge


def _normal_solve(A, y):
    """Least squares ``min ||y - A x||`` posed to solve_gram as normal equations."""
    return solve_gram(A.T @ A, A.T @ y)


class TestLeastSquares:
    """Least-squares problems solved through :func:`solve_gram` on ``AᵀA x = Aᵀy``."""

    def test_identity(self):
        x = _normal_solve(np.eye(2), np.array([3.0, -1.0]))
        assert np.allclose(x, [3.0, -1.0])

    def test_single_column_projection(self):
        x = _normal_solve(np.array([[2.0], [0.0]]), np.array([4.0, 0.0]))
        assert np.allclose(x, [2.0])

    def test_well_conditioned_matches_qr_oracle(self):
        # frozen from the QR oracle on this exact seeded instance
        rng = np.random.default_rng(42)
        A = rng.standard_normal((6, 3)) + np.vstack([np.eye(3), np.eye(3)]) * 2
        y = rng.standard_normal(6)
        x = _normal_solve(A, y)
        frozen = [0.20973776719822795, 0.22270391860326474, -0.02000880591883284]
        assert np.allclose(x, frozen, atol=1e-10)
        assert np.allclose(x, qr_solve(A, y), atol=1e-10)

    def test_residual_orthogonality_property(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = int(rng.integers(3, 10))
            k = int(rng.integers(1, m + 1))
            A = rng.standard_normal((m, k)) + np.eye(m, k)
            y = rng.standard_normal(m)
            x = _normal_solve(A, y)
            r = y - A @ x
            bound = 1e-8 * np.linalg.norm(y) * np.linalg.norm(A, axis=0)
            assert np.all(np.abs(A.T @ r) <= bound + 1e-14)

    def test_rank_deficient_beyond_rescue(self):
        with pytest.raises(NumericalError, match="cond"):
            _normal_solve(np.zeros((4, 2)), np.ones(4))

    def test_duplicate_columns_rescued_by_ridge(self):
        a = np.array([1.0, 2.0, 3.0])
        A = np.column_stack([a, a])
        x = _normal_solve(A, 2 * a)
        assert np.allclose(A @ x, 2 * a, atol=1e-6)


def _ridge_lines(caplog):
    return [r for r in caplog.records if r.getMessage().startswith("gram solve")]


@st.composite
def gram_stacks(draw):
    """Stacks of k x k Grams of unit atoms in R^m, with adversarial members.

    An atom is Gaussian, a duplicate of an earlier atom, zero, a unit
    combination of two earlier atoms (a collinear triple), or a near copy of
    an earlier atom whose pair has condition 1e6-1e18. A member may instead
    be a diagonal with zero and negative entries.
    """
    k = draw(st.integers(1, 4))
    m = draw(st.integers(k, k + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Gs = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 7)) == 0:
            diag = st.sampled_from([2.0, 1.0, 1e-13, 0.0, -1e-11, -1e-3, -1.0])
            Gs.append(np.diag(draw(st.lists(diag, min_size=k, max_size=k))))
            continue
        A = rng.standard_normal((m, k))
        for j in range(k):
            kind = draw(st.sampled_from(["gaussian", "duplicate", "zero", "collinear", "near"]))
            i = draw(st.integers(0, j - 1)) if j else None
            if kind == "duplicate" and j:
                A[:, j] = A[:, i]
            elif kind == "collinear" and j >= 2:
                x, y = rng.standard_normal(2)
                A[:, j] = x * A[:, i] + y * A[:, (i + 1) % j]
            elif kind == "near" and j:
                u = rng.standard_normal(m)
                u -= (u @ A[:, i]) * A[:, i]
                delta = 2.0 / np.sqrt(10.0 ** draw(st.floats(6.0, 18.0)))  # pair cond ~ 4 / delta^2
                A[:, j] = A[:, i] + delta * u / np.linalg.norm(u)
            elif kind == "zero":
                A[:, j] = 0.0
            norm = np.linalg.norm(A[:, j])
            if norm > 0:
                A[:, j] /= norm
        Gs.append(A.T @ A)
    return np.stack(Gs)


class TestSolveGram:
    def _stack(self, rng):
        """Five 3x3 Grams: three well-conditioned, one singular, one indefinite."""
        Gs = []
        for _ in range(3):
            M = rng.standard_normal((6, 3))
            Gs.append(M.T @ M)
        a, b = rng.standard_normal(6), rng.standard_normal(6)
        M = np.column_stack([a, a, b])
        Gs.append(M.T @ M)  # duplicate atom: cond above COND_LIMIT
        Gs.append(np.diag([1.0, -1e-11, 2.0]))  # indefinite, cond below COND_LIMIT
        return np.stack(Gs)

    def test_cholesky_failure_below_cond_limit_is_ridged_and_logged(self, caplog):
        G = np.diag([1.0, -1e-11])
        assert np.linalg.cond(G) < COND_LIMIT
        b = np.array([1.0, 1e-12])
        with caplog.at_level(logging.DEBUG, logger="batchsvd.linalg"):
            z = solve_gram(G, b)
        lam = RIDGE_SCALE * np.trace(G) / 2
        np.testing.assert_allclose(z, b / (np.diag(G) + lam), rtol=1e-12)
        assert len(_ridge_lines(caplog)) == 1

    def test_indefinite_gram_beyond_rescue_is_logged_then_raises(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="batchsvd.linalg"):
            with pytest.raises(NumericalError, match="cond"):
                solve_gram(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))
        assert len(_ridge_lines(caplog)) == 1

    # four members: three unridged and one singular; five adds an indefinite
    # member below COND_LIMIT, which is ridged too
    @pytest.mark.parametrize("members", [4, 5])
    @pytest.mark.parametrize("rhs_cols", [None, 2])
    def test_stack_matches_loop_of_single_solves(self, members, rhs_cols, caplog):
        rng = np.random.default_rng(11)
        G = self._stack(rng)[:members]
        shape = (members, 3) if rhs_cols is None else (members, 3, rhs_cols)
        B = rng.standard_normal(shape)
        with caplog.at_level(logging.DEBUG, logger="batchsvd.linalg"):
            looped = np.stack([solve_gram(g, b) for g, b in zip(G, B)])
            single_lines = len(_ridge_lines(caplog))
            stacked = solve_gram(G, B)
        assert single_lines == members - 3
        assert len(_ridge_lines(caplog)) == 2 * single_lines  # each ridged member once
        assert stacked.shape == B.shape
        np.testing.assert_allclose(stacked, looped, rtol=1e-12, atol=1e-12)
        # leading axes beyond one are flattened the same way
        np.testing.assert_allclose(
            solve_gram(G[:4].reshape(2, 2, 3, 3), B[:4].reshape(2, 2, *shape[1:])),
            looped[:4].reshape(2, 2, *shape[1:]), rtol=1e-12, atol=1e-12,
        )

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(G=gram_stacks(), single=st.booleans())
    def test_ridge_rule_matches_cond_and_cholesky_oracle(self, G, single, caplog):
        # members within 1% of COND_LIMIT are left out: there the eigenvalue
        # and SVD estimates differ by rounding of about eps * cond
        decisions = [reference_ridge(g, COND_LIMIT, RIDGE_SCALE) for g in G]
        keep = [abs(np.log(cond / COND_LIMIT)) > np.log(1.01) for cond, _, _ in decisions]
        G = G[keep]
        decisions = [d for d, kept in zip(decisions, keep) if kept]
        raising = [t for t, (_, _, raises) in enumerate(decisions) if raises]
        logged = decisions[: raising[0] + 1] if raising else decisions
        B = np.random.default_rng(len(G)).standard_normal(G.shape[:2])
        args = (G[0], B[0]) if single and len(G) == 1 else (G, B)  # a single Gram, 2-D
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="batchsvd.linalg"):
            if raising:
                with pytest.raises(NumericalError, match="cond estimate"):
                    solve_gram(*args)
            else:
                Z = solve_gram(*args).reshape(B.shape)
        assert len(_ridge_lines(caplog)) == sum(ridged for _, ridged, _ in logged)
        if raising:
            return
        for g, b, z, (_, ridged, _) in zip(G, B, Z, decisions):
            if not ridged:
                assert np.linalg.norm(g @ z - b) <= 1e-9 * np.linalg.norm(g, 2) * np.linalg.norm(z)
    def test_empty_stacks(self):
        assert solve_gram(np.zeros((4, 0, 0)), np.zeros((4, 0))).shape == (4, 0)
        assert solve_gram(np.zeros((0, 3, 3)), np.zeros((0, 3))).shape == (0, 3)

    def test_stack_member_beyond_rescue_raises(self):
        G = self._stack(np.random.default_rng(12))
        G[1] = 0.0
        with pytest.raises(NumericalError, match="cond"):
            solve_gram(G, np.ones((len(G), 3)))


class TestOneByOneGrams:
    """A stack of positive finite 1x1 Grams with one right-hand side each is a division."""

    def test_division_is_bit_identical_to_lapack(self, monkeypatch):
        rng = np.random.default_rng(31)
        g = 10.0 ** rng.uniform(-320, 308, 200_000)  # subnormal to huge; overflows give inf
        b = rng.standard_normal(g.size) * 10.0 ** rng.uniform(-300, 300, g.size)
        lapack = np.linalg.solve(g[:, None, None], b[:, None, None])[..., 0]

        def refuse(*args, **kwargs):
            raise AssertionError("a positive 1x1 stack went to LAPACK")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        assert np.array_equal(solve_gram(g[:, None, None], b[:, None]), lapack)
        assert np.array_equal(solve_gram(g[:1, None], b[:1]), lapack[0])  # one 1x1 Gram, 2-D

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1e-3, np.nan, np.inf])
    def test_other_members_keep_the_eigenvalue_rule(self, bad, caplog):
        G = np.array([2.0, bad, 3.0]).reshape(3, 1, 1)
        B = np.array([[1.0], [2.0], [3.0]])
        rule = eigvalsh_ridges(G, COND_LIMIT, RIDGE_SCALE)
        with caplog.at_level(logging.DEBUG, logger="batchsvd.linalg"):
            if bad <= 0:  # no ridge rescues a zero or negative Gram
                with pytest.raises(NumericalError, match="cond estimate"):
                    solve_gram(G, B)
            else:
                lam = np.array([lam for lam, _ in rule])[:, None, None]
                ridged = np.linalg.solve(G + lam, B[..., None])[..., 0]
                assert np.array_equal(solve_gram(G, B), ridged, equal_nan=True)
        assert [r.getMessage() for r in _ridge_lines(caplog)] == [s for _, s in rule if s]

    def test_several_right_hand_sides_take_the_lapack_path(self):
        G, B = np.full((1, 1), 4.0), np.array([[1.0, 2.0, 3.0]])
        assert np.array_equal(solve_gram(G, B), np.linalg.solve(G, B))


def _with_spectrum(eigs, seed):
    """A symmetric Gram with eigenvalues ``eigs`` in a seeded orthonormal basis."""
    Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(eigs), len(eigs))))[0]
    G = (Q * np.asarray(eigs, dtype=np.float64)) @ Q.T
    return (G + G.T) / 2


def _duplicate_atom_gram(seed):
    a, b = np.random.default_rng(seed).standard_normal((2, 5))
    M = np.column_stack([a, a, b]) / np.linalg.norm(np.column_stack([a, a, b]), axis=0)
    return M.T @ M


# name -> (stack, whether the Cholesky certificate alone decides it). The
# certificate passes when cond < COND_LIMIT/(2k) and may pass up to about
# COND_LIMIT/2 (for one dominant eigenvalue); beyond that eigvalsh decides.
BOUNDARY_STACKS = {
    "one-by-one": (np.array([[[2.5]]]), True),
    "zero-trace": (np.zeros((1, 2, 2)), False),
    "singular": (_duplicate_atom_gram(1)[None], False),
    "just-below-limit-over-2k": (
        _with_spectrum([1.0, 1.0, 2 * 3 / (0.99 * COND_LIMIT)], 2)[None], True),
    "between-certified": (_with_spectrum([1.0, 1.0 / (0.3 * COND_LIMIT)], 3)[None], True),
    "between-eigvalsh": (_with_spectrum([1.0, 1.0 / (0.7 * COND_LIMIT)], 4)[None], False),
    "one-member-fails-cholesky": (np.stack(
        [_with_spectrum([1.0, 2.0, 3.0], 5), _duplicate_atom_gram(6),
         _with_spectrum([0.5, 1.0, 4.0], 7)]), False),
}


class TestCholeskyCertificate:
    @staticmethod
    def _counting_eigvalsh(monkeypatch):
        calls, real = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, *args, **kw: calls.append(len(a)) or real(a, *args, **kw))
        return calls

    @pytest.mark.parametrize("name", list(BOUNDARY_STACKS))
    def test_boundary_stacks_keep_the_eigenvalue_rule(self, name, monkeypatch, caplog):
        G, certified = BOUNDARY_STACKS[name]
        k = G.shape[-1]
        rule = eigvalsh_ridges(G, COND_LIMIT, RIDGE_SCALE)
        B = np.random.default_rng(8).standard_normal(G.shape[:2])
        lam = np.array([r for r, _ in rule])
        calls = self._counting_eigvalsh(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="batchsvd.linalg"):
            if name == "zero-trace":  # ridge of zero: beyond rescue, as before
                with pytest.raises(NumericalError, match="cond estimate inf"):
                    solve_gram(G, B)
            else:
                Z = solve_gram(G, B)
                expected = np.linalg.solve(G + lam[:, None, None] * np.eye(k), B[..., None])
                assert np.array_equal(Z, expected[..., 0])
        assert [r.getMessage() for r in _ridge_lines(caplog)] == [m for _, m in rule if m]
        assert calls == ([] if certified else [len(G)])

    def test_well_conditioned_work_never_calls_eigvalsh(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        rng = np.random.default_rng(9)
        M = rng.standard_normal((40, 7, 4))
        G = np.swapaxes(M, 1, 2) @ M
        B = rng.standard_normal((40, 4, 3))
        np.testing.assert_allclose(G @ solve_gram(G, B), B, rtol=0, atol=1e-9)
        assert solve_gram(G[0], B[0, :, 0]).shape == (4,)
        Y = rng.standard_normal((16, 200))
        A = rng.standard_normal((16, 32))
        A /= np.linalg.norm(A, axis=0)
        assert block_omp(Y, A, 400).nnz == 400


class TestRank1Svd:
    def test_exact_rank_one(self):
        M = np.outer([1.0, 0.0], [2.0, 1.0])
        t = rank1_svd(M)
        assert t.converged
        assert np.isclose(t.sigma, np.sqrt(5.0))
        assert np.allclose(t.u, [1.0, 0.0], atol=1e-12)
        assert np.allclose(t.v, np.array([2.0, 1.0]) / np.sqrt(5.0), atol=1e-12)

    def test_diagonal(self):
        t = rank1_svd(np.diag([3.0, 1.0]))
        assert np.isclose(t.sigma, 3.0)
        assert np.allclose(t.u, [1.0, 0.0], atol=1e-10)
        assert np.allclose(t.v, [1.0, 0.0], atol=1e-10)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((5, 7))
        t = rank1_svd(M)
        U, s, Vt = jacobi_svd(M)
        u_ref, v_ref = align_sign(U[:, 0], Vt[0, :])
        assert np.isclose(t.sigma, s[0], atol=1e-8)
        assert np.allclose(t.u, u_ref, atol=1e-8)
        assert np.allclose(t.v, v_ref, atol=1e-8)

    def test_sign_convention(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            M = rng.standard_normal((4, 4))
            t = rank1_svd(M)
            assert t.u[np.argmax(np.abs(t.u))] > 0

    def test_best_rank_one_property(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            M = rng.standard_normal((int(rng.integers(2, 9)), int(rng.integers(2, 9))))
            t = rank1_svd(M)
            U, s, Vt = jacobi_svd(M)
            best = M - s[0] * np.outer(U[:, 0], Vt[0, :])
            mine = M - t.sigma * np.outer(t.u, t.v)
            assert np.sum(mine**2) <= np.sum(best**2) + 1e-8

    def test_unit_norms(self):
        t = rank1_svd(np.random.default_rng(1).standard_normal((6, 3)))
        assert abs(np.linalg.norm(t.u) - 1) < 1e-12
        assert abs(np.linalg.norm(t.v) - 1) < 1e-12

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            rank1_svd(np.zeros((3, 3)))

    def test_ones_start_orthogonal_to_row_space(self):
        # M^T annihilates the all-ones start; the basis fallback must recover
        M = np.outer(np.array([1.0, -1.0]) / np.sqrt(2), [1.0, 0.0, 0.0])
        t = rank1_svd(M)
        assert np.isclose(t.sigma, 1.0, atol=1e-10)
        assert np.allclose(np.abs(t.u), [1 / np.sqrt(2)] * 2, atol=1e-10)


    @staticmethod
    def _gapped(rng, m, q):
        """An m x q matrix with singular values 3, 1, 0.5, ...: a clear leading gap."""
        U, _ = np.linalg.qr(rng.standard_normal((m, m)))
        V, _ = np.linalg.qr(rng.standard_normal((q, q)))
        s = np.r_[3.0, 1.0, np.full(min(m, q) - 2, 0.5)]
        return (U[:, : s.size] * s) @ V[:, : s.size].T

    def test_start_matches_cold_start_within_tol(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            m, q = (int(x) for x in rng.integers(2, 9, size=2))
            M = self._gapped(rng, m, q)
            cold = rank1_svd(M)
            for start in (rng.standard_normal(m), -cold.u, cold.u + 1e-3 * rng.standard_normal(m)):
                warm = rank1_svd(M, start=start)
                assert warm.converged
                assert abs(warm.sigma - cold.sigma) <= 1e-10 * np.linalg.norm(M)
                assert np.linalg.norm(warm.u - cold.u) <= 1e-9
                assert np.linalg.norm(warm.v - cold.v) <= 1e-9

    @pytest.mark.parametrize("start", [[0.0, 0.0, 1.0], [0.0, 0.0, -2.0], [0.0, 0.0, 0.0]])
    def test_start_orthogonal_to_the_column_space_falls_back(self, start):
        # M's columns span e1 and e2; a start along e3 (or zero) is annihilated
        # by M^T, and the iteration reruns from the default start, bit for bit
        M = np.array([[2.0, 1.0, 0.5, 0.0], [0.0, 1.0, -1.0, 3.0], [0.0, 0.0, 0.0, 0.0]])
        cold, warm = rank1_svd(M), rank1_svd(M, start=np.array(start))
        assert warm.converged and warm.sigma == cold.sigma
        assert np.array_equal(warm.u, cold.u) and np.array_equal(warm.v, cold.v)

    def test_start_and_default_both_orthogonal_reach_the_basis_restart(self):
        M = np.outer(np.array([1.0, -1.0]) / np.sqrt(2), [1.0, 0.0, 0.0])
        cold, warm = rank1_svd(M), rank1_svd(M, start=np.array([3.0, 3.0]))
        assert np.isclose(warm.sigma, 1.0, atol=1e-10)
        assert np.array_equal(warm.u, cold.u)

    def test_start_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="start"):
            rank1_svd(np.eye(3), start=np.ones(2))

    def test_kernel_is_bit_identical_to_the_checked_entry(self):
        # the solvers call _rank1 directly; rank1_svd only checks, then calls it
        rng = np.random.default_rng(23)
        cases = []
        for _ in range(30):
            m, q = (int(x) for x in rng.integers(2, 9, size=2))
            M = self._gapped(rng, m, q)
            cases += [(M, None), (M, rng.standard_normal(m))]
            cases += [(rng.standard_normal((m, q)), rng.standard_normal(m))]
        M = np.array([[2.0, 1.0, 0.5, 0.0], [0.0, 1.0, -1.0, 3.0], [0.0, 0.0, 0.0, 0.0]])
        cases += [(M, np.array(start)) for start in ([0.0, 0.0, 1.0], [0.0, 0.0, 0.0])]
        basis = np.outer(np.array([1.0, -1.0]) / np.sqrt(2), [1.0, 0.0, 0.0])
        cases += [(basis, None), (basis, np.array([3.0, 3.0]))]
        # a leading gap of 1e-7 leaves the iteration unconverged at RANK1_MAX_ITER
        close = np.diag([1.0, 1.0 - 1e-7, 0.5])
        cases += [(close, None), (close, np.array([1.0, 2.0, 3.0]))]
        converged = set()
        for M, start in cases:
            checked, kernel = rank1_svd(M, start=start), _rank1(M, start)
            assert checked.sigma == kernel.sigma and checked.converged == kernel.converged
            assert np.array_equal(checked.u, kernel.u) and np.array_equal(checked.v, kernel.v)
            converged.add(kernel.converged)
        assert converged == {True, False}

    @pytest.mark.parametrize("M, kwargs, match", [
        (np.zeros((3, 3)), {}, "zero"),
        (np.ones(3), {}, "2-D"),
        (np.ones((2, 2, 2)), {}, "2-D"),
        (np.ones((0, 3)), {}, "at least one row"),
        (np.array([[1.0, np.nan]]), {}, "non-finite"),
        (np.array([[1.0, np.inf]]), {}, "non-finite"),
        (None, {}, "2-D"),
        (np.ones((3, 0)), {}, "at least one row and column"),
        (np.eye(2), {"start": 1.0}, "start must be 1-D"),
        (np.eye(2), {"start": np.array([np.inf, 1.0])}, "start contains non-finite"),
        (np.eye(2), {"start": np.ones(3)}, "start has length 3"),
        (np.eye(2), {"start": np.ones((2, 1))}, "start must be 1-D"),
        (np.eye(2), {"start": np.array([1.0, np.nan])}, "start contains non-finite"),
    ])
    def test_every_bad_input_still_rejected(self, M, kwargs, match):
        with pytest.raises(ValueError, match=match):
            rank1_svd(M, **kwargs)


class TestObjective:
    def test_exact_factorization(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 5))
        X = rng.standard_normal((5, 8))
        assert objective(A @ X, A, SparseCoeff.from_dense(X)) < 1e-20

    def test_identity_frobenius(self):
        assert objective(np.eye(2), np.eye(2), SparseCoeff(2, 2)) == 2.0

    def test_dense_x_refused(self):
        with pytest.raises(TypeError, match="SparseCoeff"):
            objective(np.eye(2), np.eye(2), np.eye(2))

    def test_matches_bruteforce_frozen(self):
        rng = np.random.default_rng(7)
        Y = rng.standard_normal((4, 10))
        A = rng.standard_normal((4, 6))
        Xd = rng.standard_normal((6, 10))
        Xd[np.abs(Xd) < 0.9] = 0.0
        # frozen from the entrywise double-loop oracle on this instance
        assert np.isclose(
            objective(Y, A, SparseCoeff.from_dense(Xd)), 216.09005341241394, atol=1e-10
        )

    def test_residual_reformulation(self):
        rng = np.random.default_rng(4)
        Y = rng.standard_normal((3, 6))
        A = rng.standard_normal((3, 4))
        Xd = rng.standard_normal((4, 6))
        direct = objective(Y, A, SparseCoeff.from_dense(Xd))
        shifted = objective(Y - A @ Xd, np.zeros((3, 4)), SparseCoeff(4, 6))
        assert np.isclose(direct, shifted, rtol=1e-12)

    def test_column_block_additivity(self):
        rng = np.random.default_rng(6)
        Y = rng.standard_normal((3, 8))
        A = rng.standard_normal((3, 4))
        Xd = rng.standard_normal((4, 8))
        total = objective(Y, A, SparseCoeff.from_dense(Xd))
        parts = sum(objective(Y[:, js], A, SparseCoeff.from_dense(Xd[:, js]))
                    for js in (slice(None, 3), slice(3, None)))
        assert np.isclose(total, parts, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            objective(np.eye(3), np.eye(2), SparseCoeff.from_dense(np.eye(2)))


class TestResidual:
    """``_residual`` against the dense ``Y - A @ X.to_dense()`` it replaces."""

    @staticmethod
    def _check(Y, A, X):
        R = _residual(Y, A, X)
        assert R.shape == Y.shape
        assert np.abs(R - (Y - A @ X.to_dense())).max() <= 1e-12 * np.linalg.norm(Y)
        return R

    @pytest.mark.parametrize("seed, m, n, p, density", [
        (0, 5, 7, 9, 0.3),
        (1, 8, 12, 40, 0.2),
        (2, 4, 6, 1, 0.5),  # one column
        (3, 3, 3, 4, 1.0),  # K = n * p
        (4, 6, 10, 3, 0.4),  # p < n
    ])
    def test_matches_dense_product(self, seed, m, n, p, density):
        rng = np.random.default_rng(seed)
        Y, A = rng.standard_normal((m, p)), rng.standard_normal((m, n))
        Xd = rng.standard_normal((n, p)) * (rng.random((n, p)) < density)
        X = SparseCoeff.from_dense(Xd)
        assert X.nnz == np.count_nonzero(Xd) and (density < 1 or X.nnz == n * p)
        self._check(Y, A, X)

    def test_empty_coefficients_give_y(self):
        rng = np.random.default_rng(5)
        Y, A = rng.standard_normal((4, 6)), rng.standard_normal((4, 3))
        R = self._check(Y, A, SparseCoeff(3, 6))
        assert R.tobytes() == Y.tobytes() and R is not Y

    def test_more_than_one_run(self):
        # two full runs of _BLOCK columns and a partial one
        rng = np.random.default_rng(6)
        m, n, p = 5, 9, 2 * _BLOCK + 3
        rows = np.column_stack((rng.integers(0, 4, p), rng.integers(4, n, p))).ravel()
        X = SparseCoeff(n, p, rows, np.repeat(np.arange(p), 2),
                        rng.standard_normal(2 * p))
        self._check(rng.standard_normal((m, p)), rng.standard_normal((m, n)), X)

    def test_large_supports(self):
        # 50 entries in every column, and runs narrowed to 8 columns by n * c <= m * p
        rng = np.random.default_rng(8)
        m, n, p, k = 4, 100, 200, 50
        rows = np.concatenate([rng.choice(n, k, replace=False) for _ in range(p)])
        X = SparseCoeff(n, p, rows, np.repeat(np.arange(p), k),
                        rng.standard_normal(k * p))
        self._check(rng.standard_normal((m, p)), rng.standard_normal((m, n)), X)

    @pytest.mark.parametrize("largest", [4, 50])
    def test_memory_follows_samples_not_atoms(self, largest):
        # the dense product would build a 2000 x 1000 coefficient array: 16 MB
        rng = np.random.default_rng(7)
        m, n, p = 8, 2000, 1000
        sizes = 1 + np.arange(p) % largest  # support sizes 1 to largest
        K = sizes.sum()
        X = SparseCoeff(n, p, (np.arange(K) * 7) % n,
                        np.repeat(np.arange(p), sizes), rng.standard_normal(K))
        Y, A = rng.standard_normal((m, p)), rng.standard_normal((m, n))
        _residual(Y, A, X)  # the first call also sets up numpy's own state
        tracemalloc.start()
        try:
            _residual(Y, A, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * Y.nbytes


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("p", [1, 2, _BLOCK, _BLOCK + 1, _BLOCK + 2, 3000])
def test_col_norms_match_numpy_bit_for_bit(layout, p):
    # the report's per-sample errors, the OMP zero bound and the re-seed order
    # all read these norms. Columns cycle through plain, zero-riddled, tiny
    # (squares near underflow) and huge Gaussians, so every column's sum
    # rounds by its order; at p = _BLOCK + 1 a lone last column would be
    # summed pairwise, not row by row
    rng = np.random.default_rng(p)
    m = 64
    base = rng.standard_normal((2 * m, 3 * p))
    kind = np.arange(base.shape[1]) % 4
    base[:, kind == 1] *= rng.random((2 * m, np.count_nonzero(kind == 1))) < 0.7
    base[:, kind == 2] *= 1e-150
    base[:, kind == 3] *= 1e100
    M = {"C": np.ascontiguousarray(base[:m, :p]), "F": np.asfortranarray(base[:m, :p]),
         "strided": base[::2, ::3]}[layout]
    assert np.array_equal(_col_norms(M), np.linalg.norm(M, axis=0))


def test_import_does_not_load_scipy():
    # numpy is the only dependency; scipy.linalg added ~0.19 s and ~27 MiB to the import
    code = "import batchsvd, sys; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_adds_only_numpy_and_the_standard_library():
    # README: "Dependencies: numpy only". Every CLI call pays for what the
    # import loads; modules the interpreter loaded at start-up do not count
    code = ("import sys; before = set(sys.modules); import batchsvd; "
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert {"numpy", "batchsvd"} <= added
    assert added - {"numpy", "batchsvd"} - sys.stdlib_module_names == set()
