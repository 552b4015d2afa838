import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchsvd import (
    BudgetError,
    LearnConfig,
    ObjectiveTrace,
    SparseCoeff,
    batch_svd,
    block_omp,
    initial_dictionary,
    ksvd,
    objective,
    save_matrix,
)
from batchsvd import solver
from batchsvd.cli import main
from batchsvd.coding import _code_per_sample
from batchsvd.linalg import NumericalError, _sq_norm, rank1_svd

from oracles import make_planted, reference_ksvd


def _prepared_instance(seed, m=6, n=10, p=40, budget=80):
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((m, p))
    A0 = initial_dictionary(Y, n, rng)
    X0 = block_omp(Y, A0, budget)
    return Y, A0, X0


class TestObjectiveTrace:
    def test_append_and_filter(self):
        tr = ObjectiveTrace()
        tr.append("inner", 5.0)
        tr.append("inner", 4.0)
        tr.append("outer", 4.0)
        assert tr.values("inner") == [5.0, 4.0]
        assert tr.entries() == [("inner", 5.0), ("inner", 4.0), ("outer", 4.0)]

    def test_phase_violation_detection(self):
        tr = ObjectiveTrace()
        tr.append("inner", 1.0)
        tr.append("inner", 2.0)
        assert tr.phase_violations() == [("inner", 1.0, 2.0)]

    def test_outer_not_a_monotone_phase(self):
        tr = ObjectiveTrace()
        tr.append("outer", 1.0)
        tr.append("outer", 2.0)
        assert tr.phase_violations() == []
        assert tr.outer_violations() == [(1.0, 2.0)]

    def test_unknown_phase(self):
        with pytest.raises(ValueError):
            ObjectiveTrace().append("warmup", 1.0)

    def test_non_finite_objective_rejected(self):
        with pytest.raises(NumericalError):
            ObjectiveTrace().append("inner", float("nan"))


class TestBatchSvd:
    def test_exact_factorization_terminates_immediately(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 6))
        A /= np.linalg.norm(A, axis=0)
        Xd = rng.standard_normal((6, 10))
        Xd[np.abs(Xd) < 0.8] = 0.0
        X = SparseCoeff.from_dense(Xd)
        Y = A @ Xd
        cfg = LearnConfig(budget=max(X.nnz, 1), max_outer=7, epsilon=1e-12)
        A2, X2, trace = batch_svd(Y, A, X, cfg)
        assert trace.values("outer")[-1] < 1e-18
        # one outer round suffices: the decrement is 0 <= epsilon
        assert len(trace.values("outer")) == 2

    def test_budget_conserved_and_trace_monotone(self):
        for seed in range(5):
            Y, A0, X0 = _prepared_instance(seed)
            nnz = X0.nnz
            cfg = LearnConfig(
                budget=nnz, inner_sweeps=2, amplitude_iters=3, max_outer=4,
                trigger=1e9, epsilon=0.0, seed=seed,
            )
            A, X, trace = batch_svd(Y, A0, X0, cfg)
            assert X.nnz == nnz
            assert trace.phase_violations() == []
            assert trace.outer_violations() == []
            outer = trace.values("outer")
            assert outer[-1] <= outer[0]

    def test_final_objective_matches_factors(self):
        Y, A0, X0 = _prepared_instance(11)
        cfg = LearnConfig(budget=X0.nnz, max_outer=3, inner_sweeps=1,
                          amplitude_iters=2, seed=1)
        A, X, trace = batch_svd(Y, A0, X0, cfg)
        assert np.isclose(objective(Y, A, X), trace.values()[-1], rtol=1e-9, atol=1e-12)
        assert np.allclose(np.linalg.norm(A, axis=0), 1.0, atol=1e-12)

    def test_stop_rule_fires(self):
        Y, A0, X0 = _prepared_instance(3)
        cfg = LearnConfig(budget=X0.nnz, epsilon=1e9, max_outer=50, seed=0)
        _, _, trace = batch_svd(Y, A0, X0, cfg)
        # a huge epsilon stops after the first outer round
        assert len(trace.values("outer")) == 2

    def test_stop_rule_fires_before_iteration_cap(self):
        # decrements shrink toward zero, so any positive epsilon fires finitely
        Y, A0, X0 = _prepared_instance(5)
        cfg = LearnConfig(budget=X0.nnz, epsilon=1e-4, max_outer=200,
                          inner_sweeps=1, amplitude_iters=2, seed=0)
        _, _, trace = batch_svd(Y, A0, X0, cfg)
        outer = trace.values("outer")
        assert len(outer) < 201
        assert outer[-2] - outer[-1] <= 1e-4

    def test_deterministic_given_seed(self):
        Y, A0, X0 = _prepared_instance(7)
        cfg = LearnConfig(budget=X0.nnz, max_outer=3, trigger=1e9, seed=21)
        A1, X1, t1 = batch_svd(Y, A0, X0, cfg)
        A2, X2, t2 = batch_svd(Y, A0, X0, cfg)
        assert np.array_equal(A1, A2)
        assert X1 == X2
        assert t1.entries() == t2.entries()

    def test_trigger_gates_inter_phase(self):
        Y, A0, X0 = _prepared_instance(9)
        cfg_off = LearnConfig(budget=X0.nnz, max_outer=2, trigger=0.0, seed=0)
        _, _, trace_off = batch_svd(Y, A0, X0, cfg_off)
        assert trace_off.values("inter") == []
        cfg_on = LearnConfig(budget=X0.nnz, max_outer=2, trigger=1e9, seed=0)
        _, _, trace_on = batch_svd(Y, A0, X0, cfg_on)
        assert len(trace_on.values("inter")) > 0

    def test_pair_fraction_limits_inter_work(self):
        Y, A0, X0 = _prepared_instance(13, n=8)
        full = LearnConfig(budget=X0.nnz, max_outer=1, trigger=1e9,
                           pair_fraction=1.0, seed=5)
        _, _, t_full = batch_svd(Y, A0, X0, full)
        # skipped pairs (identical supports) can shrink the count; bound above
        assert len(t_full.values("inter")) <= 8 * 7 // 2
        frac = LearnConfig(budget=X0.nnz, max_outer=1, trigger=1e9,
                           pair_fraction=0.2, seed=5)
        _, _, t_frac = batch_svd(Y, A0, X0, frac)
        assert len(t_frac.values("inter")) <= int(np.ceil(0.2 * 28))

    def test_shape_mismatch_rejected(self):
        X = SparseCoeff.from_dense(np.eye(3))
        with pytest.raises(ValueError, match="shape"):
            batch_svd(np.eye(4), np.eye(4, 3), X, LearnConfig(budget=3))

    @pytest.mark.parametrize("field", [
        "budget", "init_iters", "inner_sweeps", "amplitude_iters", "max_outer",
    ])
    def test_config_non_integer_counts_rejected(self, field):
        # 2.5 used to pass the >= 1 check and reach range() or np.partition
        with pytest.raises(ValueError, match=f"{field} must be an integer, got 2.5"):
            LearnConfig(**{"budget": 10, field: 2.5})
        assert getattr(LearnConfig(**{"budget": 10, field: np.int64(2)}), field) == 2

    @pytest.mark.parametrize("seed, message", [
        (2.5, "seed must be an integer, got 2.5"),
        (True, "seed must be an integer, got True"),
        (None, "seed must be an integer, got None"),
        (-1, "seed must be at least 0, got -1"),
    ])
    def test_config_bad_seed_rejected(self, seed, message):
        # 2.5 and -1 used to be accepted and fail inside numpy's generator
        with pytest.raises(ValueError, match=message):
            LearnConfig(budget=10, seed=seed)
        assert LearnConfig(budget=10, seed=np.uint32(7)).seed == 7
        assert LearnConfig(budget=10, seed=0).seed == 0

    def test_config_constants_accepted(self):
        # the evaluation protocol's constants round-trip through the config
        cfg = LearnConfig(budget=50, max_outer=20, inner_sweeps=3,
                          amplitude_iters=10, trigger=0.05)
        assert (cfg.max_outer, cfg.inner_sweeps, cfg.amplitude_iters, cfg.trigger) == (
            20, 3, 10, 0.05,
        )


def _sample_pairs_by_enumeration(n, fraction, rng):
    """The pair sampler's rule, stated on the materialized list of all pairs."""
    pairs = list(itertools.combinations(range(n), 2))
    if not pairs:
        return []
    count = min(len(pairs), int(np.ceil(fraction * len(pairs))))
    if count >= len(pairs):
        return pairs
    chosen = rng.choice(len(pairs), size=count, replace=False)
    return [pairs[t] for t in sorted(chosen)]


@pytest.mark.parametrize("fraction", [0.01, 0.1, 2.0 / 69, 0.5, 0.999, 1.0])
def test_sample_pairs_matches_enumeration(fraction):
    for n in range(1, 71):
        for seed in (0, 1, 17):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = solver._sample_pairs(n, fraction, rng)
            assert got == _sample_pairs_by_enumeration(n, fraction, ref_rng), (n, fraction, seed)
            assert all(type(i) is int and type(j) is int for i, j in got)
            assert rng.random() == ref_rng.random()  # later rounds draw the same


def _in_visiting_order(seed, m=8, n=12, p=60, budget=150):
    """A block_omp start whose rows are in batch_svd's visiting order: its row i is row i here."""
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((m, p))
    A0 = initial_dictionary(Y, n, rng)
    rows, cols, vals = block_omp(Y, A0, budget).entries()
    order = np.argsort(-np.bincount(rows, minlength=n), kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    return Y, A0[:, order], SparseCoeff(n, p, rank[rows], cols, vals)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_inner_objective_tracks_the_factorization_row_by_row(seed, monkeypatch):
    # batch_svd adds each row back and takes it out again by _add_row, which
    # keeps the running objective; after every row of the first round, the
    # recorded inner objective is the take-out's value and must still be
    # ||Y - A X||^2 of the factors at that point
    budget = 150
    Y, A0, X0 = _in_visiting_order(seed, budget=budget)
    n = X0.n
    fits, edits = [], []
    real, real_add = solver._inner_row, solver._add_row

    def recording(*args):
        atom, supp, vals, halfsteps = real(*args)
        fits.append((atom.copy(), supp, vals))  # the atom may be a view of A
        return atom, supp, vals, halfsteps

    def recording_add(*args):
        sq = real_add(*args)
        edits.append(sq)
        return sq

    monkeypatch.setattr(solver, "_inner_row", recording)
    monkeypatch.setattr(solver, "_add_row", recording_add)
    trace = batch_svd(Y, A0, X0, LearnConfig(budget=budget, max_outer=1, seed=0))[2]
    A, Xd = A0.copy(), X0.to_dense()
    visited = np.flatnonzero(np.bincount(X0.entries()[0], minlength=n))
    assert len(fits) == visited.size == len(trace.values("inner"))
    assert len(edits) >= 2 * visited.size  # an add-back and a take-out per row
    taken_out = edits[1 : 2 * visited.size : 2]
    for i, (atom, supp, row_vals), obj, recorded in zip(visited, fits, taken_out,
                                                       trace.values("inner")):
        A[:, i], Xd[i] = atom, 0.0
        Xd[i, supp] = row_vals
        assert recorded == obj
        assert abs(obj - np.sum((Y - A @ Xd) ** 2)) <= 1e-12 * np.sum(Y**2)


def test_inner_rounds_stop_at_their_fixed_point(monkeypatch):
    # a row whose converged fit re-selects its own support takes no further
    # round, so the phase runs fewer fits than rows times inner_sweeps
    Y, A0, X0 = _in_visiting_order(5)
    real, fits = solver._rank1, []

    def counting(*args):
        fits.append(args[0].shape)
        return real(*args)

    monkeypatch.setattr(solver, "_rank1", counting)
    batch_svd(Y, A0, X0, LearnConfig(budget=150, max_outer=1, inner_sweeps=3, seed=0))
    rows = np.unique(X0.entries()[0]).size
    assert rows <= len(fits) <= 2 * rows


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_inter_objective_tracks_the_factorization_pair_by_pair(seed, monkeypatch):
    # batch_svd keeps its running objective through each pair's add-back and
    # take-out; after every inter pair of the first round, the recorded value
    # must still be ||Y - A X||^2 of the factors at that point
    budget = 150
    Y, A0, X0 = _in_visiting_order(seed, budget=budget)
    n = X0.n
    inner, pairs, switched = [], [], []
    real_inner, real_pairs, real_inter = solver._inner_row, solver._sample_pairs, solver._inter_row

    def recording_inner(*args):
        atom, supp, vals, halfsteps = real_inner(*args)
        inner.append((atom.copy(), supp, vals))
        return atom, supp, vals, halfsteps

    def recording_pairs(*args):
        got = real_pairs(*args)
        pairs.extend(got)
        return got

    def recording_inter(R, a_i, a_j, *rows):
        row_i, row_j = real_inter(R, a_i, a_j, *rows)
        switched.append((a_i.copy(), a_j.copy(), row_i, row_j))
        return row_i, row_j

    monkeypatch.setattr(solver, "_inner_row", recording_inner)
    monkeypatch.setattr(solver, "_sample_pairs", recording_pairs)
    monkeypatch.setattr(solver, "_inter_row", recording_inter)
    cfg = LearnConfig(budget=budget, max_outer=1, trigger=np.inf, seed=seed)
    trace = batch_svd(Y, A0, X0, cfg)[2]
    # the factors after the inner phase; the atom rescaling before the inter phase keeps A X
    A, Xd = A0.copy(), X0.to_dense()
    supports = [np.empty(0, dtype=np.intp)] * n
    visited = np.flatnonzero(np.bincount(X0.entries()[0], minlength=n))
    for i, (atom, supp, vals) in zip(visited, inner):
        A[:, i], Xd[i], supports[i] = atom, 0.0, supp
        Xd[i, supp] = vals
    calls = iter(switched)
    recorded = trace.values("inter")
    assert pairs and len(switched) == len(recorded) > 0
    for i, j in pairs:
        if np.array_equal(supports[i], supports[j]):
            continue  # skipped by the solver, without a trace entry
        a_i, a_j, (s_i, v_i), (s_j, v_j) = next(calls)
        A[:, i], A[:, j], Xd[i], Xd[j] = a_i, a_j, 0.0, 0.0
        Xd[i, s_i], Xd[j, s_j] = v_i, v_j
        supports[i], supports[j] = s_i, s_j
        assert abs(recorded.pop(0) - np.sum((Y - A @ Xd) ** 2)) <= 1e-12 * np.sum(Y**2)
    assert not recorded


def test_inter_phase_skips_a_pair_with_equal_supports(monkeypatch):
    # with K = n p both rows hold every column, so they leave the inner phase
    # with equal supports: their pair runs no kernel and no residual edit,
    # appends no inter entry and leaves the factors as a run without the
    # inter phase leaves them
    rng = np.random.default_rng(3)
    n, p = 2, 7
    Y = rng.standard_normal((4, p))
    A0 = initial_dictionary(Y, n, rng)
    X0 = SparseCoeff(n, p, np.repeat(np.arange(n), p), np.tile(np.arange(p), n),
                     rng.standard_normal(n * p))
    pairs, edits = [], []
    real_pairs, real_add = solver._sample_pairs, solver._add_row

    def recording_pairs(*args):
        got = real_pairs(*args)
        pairs.extend(got)
        return got

    def counting_add(*args):
        edits.append(args[2])
        return real_add(*args)

    def no_inter(*args):
        raise AssertionError("a pair with equal supports reached the inter kernel")

    monkeypatch.setattr(solver, "_sample_pairs", recording_pairs)
    monkeypatch.setattr(solver, "_add_row", counting_add)
    monkeypatch.setattr(solver, "_inter_row", no_inter)
    runs = [batch_svd(Y, A0, X0, LearnConfig(budget=n * p, max_outer=1, trigger=trigger, seed=0))
            for trigger in (0.0, np.inf)]
    assert pairs == [(0, 1)]  # only the second run sampled the pair
    assert len(edits) == 2 * 2 * n  # each run's inner add-backs and take-outs only
    assert not runs[1][2].values("inter")
    assert np.array_equal(runs[1][0], runs[0][0]) and runs[1][1] == runs[0][1]


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 8), st.integers(1, 12))
def test_add_row_keeps_the_squared_norm_current(seed, m, p, steps):
    # random add-backs and take-outs: R matches a dense reference edited by
    # np.outer bit for bit, and the running value tracks ||R||^2 to within
    # rounding of the touched norms
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((m, p)) * 10.0 ** rng.integers(-3, 4)
    ref = R.copy()
    sq = touched = _sq_norm(R)
    for _ in range(steps):
        supp = np.sort(rng.choice(p, size=int(rng.integers(0, p + 1)), replace=False))
        a = rng.standard_normal(m) * 10.0 ** rng.integers(-3, 4)
        vals = rng.standard_normal(supp.size)
        before = _sq_norm(R[:, supp])
        if rng.random() < 0.5:
            sq_new = solver._add_row(R, a, supp, vals, sq)
            ref[:, supp] += np.outer(a, vals)
        else:
            sq_new = solver._add_row(R, a, supp, -vals, sq)
            ref[:, supp] -= np.outer(a, vals)
        assert np.array_equal(R, ref)
        touched += abs(sq) + before + _sq_norm(R[:, supp])
        sq = sq_new
        assert abs(sq - _sq_norm(R)) <= (m * p + 2) * np.finfo(float).eps * touched


class TestBudgetCheck:
    """A broken switching step that loses a nonzero must fail loudly."""

    @pytest.fixture
    def leaky_inner(self, monkeypatch):
        real = solver._inner_row
        dropped = []

        def leaky(R, atom, supp, n_iters, fnorm_sq):
            atom, supp, vals, halfsteps = real(R, atom, supp, n_iters, fnorm_sq)
            if not dropped and supp.size > 1:  # lose exactly one entry
                dropped.append(supp)
                supp, vals = supp[:-1], vals[:-1]
            return atom, supp, vals, halfsteps

        monkeypatch.setattr(solver, "_inner_row", leaky)

    def test_library_raises_typed_error(self, leaky_inner):
        Y, A0, X0 = _prepared_instance(2)
        cfg = LearnConfig(budget=X0.nnz, max_outer=2, seed=0)
        with pytest.raises(BudgetError, match="budget"):
            batch_svd(Y, A0, X0, cfg)
        assert issubclass(BudgetError, NumericalError)

    def test_cli_reports_json_error(self, leaky_inner, tmp_path, capsys):
        Y, _, _ = _prepared_instance(2)
        path = tmp_path / "Y.mat"
        save_matrix(path, Y)
        rc = main(["learn", "--in", str(path), "--algo", "batch", "--atoms", "10",
                   "--budget", "80", "--iters", "2", "--init-iters", "2"])
        assert rc == 1
        assert "budget" in json.loads(capsys.readouterr().err.strip())["error"]


class TestKsvd:
    def test_exact_recovery_orthonormal(self):
        rng = np.random.default_rng(1)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        Xd = np.zeros((6, 15))
        for j in range(15):
            rows = rng.choice(6, size=2, replace=False)
            Xd[rows, j] = rng.standard_normal(2) + np.sign(rng.standard_normal(2))
        Y = Q @ Xd
        A, X, trace = ksvd(Y, Q, k=2, iters=1)
        assert trace.values("outer")[0] < 1e-18
        assert objective(Y, A, X) < 1e-16

    def test_complete_basis_zero_error(self):
        rng = np.random.default_rng(2)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        Y = rng.standard_normal((5, 9))
        A, X, _ = ksvd(Y, Q, k=5, iters=1)
        assert objective(Y, A, X) < 1e-16

    def test_per_sample_budget_respected(self):
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((5, 20))
        A0 = initial_dictionary(Y, 8, rng)
        A, X, trace = ksvd(Y, A0, k=2, iters=4)
        assert X.nnz <= 2 * 20
        assert np.bincount(X.entries()[1], minlength=20).max() <= 2
        assert len(trace.values("outer")) == 8  # two samples per pass

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            ksvd(np.eye(4), np.eye(4), k=5, iters=1)

    @pytest.mark.parametrize("k, iters, match", [
        (2, 1.5, "iters must be an integer, got 1.5"),
        (1.5, 1, "k must be an integer, got 1.5"),
    ])
    def test_non_integer_counts_rejected(self, k, iters, match):
        # both used to raise TypeError from inside numpy or range()
        with pytest.raises(ValueError, match=match):
            ksvd(np.eye(4), np.eye(4), k, iters)

    def test_objective_tracks_improvement(self):
        rng = np.random.default_rng(4)
        Y, _, _ = make_planted(5, 8, 30, [2] * 30, rng, snr_db=25)
        A0 = initial_dictionary(Y, 8, np.random.default_rng(0))
        _, _, trace = ksvd(Y, A0, k=2, iters=8)
        vals = trace.values("outer")
        assert vals[-1] < vals[0]  # improves overall, monotonicity not required

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        Y = rng.standard_normal((8, 60))
        A0 = initial_dictionary(Y, 12, rng)
        k = 2 + seed % 2

        def no_dead_atoms(*args):
            raise AssertionError("instance has a dead atom")

        def code(Y, A, k):
            return _code_per_sample(Y, A, k)[0].entries()

        A_ref, (rows, cols, vals), outer_ref = reference_ksvd(
            Y, A0, k, 3, code, rank1_svd, no_dead_atoms)
        A, X, trace = ksvd(Y, A0, k, 3)
        got_rows, got_cols, got_vals = X.entries()
        assert np.array_equal(got_rows, rows) and np.array_equal(got_cols, cols)
        np.testing.assert_allclose(got_vals, vals, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(A, A_ref, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(trace.values("outer"), outer_ref, rtol=1e-9)
        assert np.isclose(trace.values("outer")[-1], objective(Y, A, X), rtol=1e-9, atol=0)

    def test_memory_is_one_residual_at_a_time(self):
        # each pass releases its residual before the next one codes, and the
        # OMP zero bound squares the samples a block of columns at a time
        rng = np.random.default_rng(4)
        Y = rng.standard_normal((64, 3000))
        A0 = initial_dictionary(Y, 256, rng)
        ksvd(Y, A0, 2, 1)  # the first call also sets up numpy's own state
        tracemalloc.start()
        try:
            ksvd(Y, A0, 2, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * Y.nbytes  # 1.96 measured; 3.14 with two residuals and whole norms

    def test_post_update_objective_is_the_exact_residual_norm(self, monkeypatch):
        # the entry after each pass's updates is ||R||^2 of the residual the
        # pass edited, recomputed, not a running sum of block changes
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((8, 60))
        A0 = initial_dictionary(Y, 12, rng)
        norms, real = [], solver.reseed_dead_atoms

        def recording(A, dead, Y, R):
            norms.append(_sq_norm(R))
            return real(A, dead, Y, R)

        monkeypatch.setattr(solver, "reseed_dead_atoms", recording)
        trace = ksvd(Y, A0, 2, 3)[2]
        assert trace.values("outer")[1::2] == norms

    def test_dead_atoms_reseeded_with_distinct_samples(self):
        # only atoms 0 and 1 can code these samples, so atoms 2-5 die together
        Y = np.zeros((6, 40))
        Y[:2] = np.random.default_rng(0).standard_normal((2, 40))
        A, X, trace = ksvd(Y, np.eye(6), 1, 1)
        assert set(X.entries()[0].tolist()) <= {0, 1}
        gram = np.abs(A.T @ A)
        close = np.argwhere(np.triu(gram, k=1) > 1 - 1e-12)
        assert close.size == 0, f"atom pairs point the same way: {close.tolist()}"
        assert np.isclose(trace.values("outer")[-1], objective(Y, A, X), rtol=1e-9, atol=0)
