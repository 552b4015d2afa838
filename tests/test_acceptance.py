"""Acceptance gate: one test per release criterion, each prints a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here, not calibrated.
"""
import json
import subprocess
import sys

import numpy as np

from batchsvd import (
    LearnConfig,
    amplitude_adjust,
    batch_svd,
    block_omp,
    initial_dictionary,
    inner_row_switch,
    inter_row_switch,
    rank1_svd,
    run_benchmark,
    save_matrix,
)

from oracles import (
    align_sign,
    best_fixed_atom_support,
    best_pair_assignment,
    jacobi_svd,
    kron_omp,
    make_planted,
)


def _passed(name):
    print(f"[ACCEPTANCE] {name}: PASS")


def _unit(rng, m):
    a = rng.standard_normal(m)
    return a / np.linalg.norm(a)


def test_monotone_trace_suite():
    """50 seeded runs at m=8, n=16, p=100, K=300: phase-wise monotone traces."""
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        Y = rng.standard_normal((8, 100))
        A0 = initial_dictionary(Y, 16, rng)
        X0 = block_omp(Y, A0, 300)
        cfg = LearnConfig(
            budget=300, init_iters=1, inner_sweeps=2, amplitude_iters=3,
            max_outer=4, epsilon=0.0, trigger=1e9, seed=seed,
        )
        A, X, trace = batch_svd(Y, A0, X0, cfg)
        assert trace.phase_violations() == [], f"seed {seed}"
        assert trace.outer_violations() == [], f"seed {seed}"
        values = trace.values()
        assert values[-1] <= values[0], f"seed {seed}: final above initial"
        assert X.nnz == 300, f"seed {seed}: budget broken"
    _passed("monotone-trace suite (50 seeds)")


def test_inner_row_oracle():
    """200 instances, p <= 8, k <= 3: selection matches exhaustive optimum."""
    rng = np.random.default_rng(2)
    for trial in range(200):
        m = int(rng.integers(2, 6))
        p = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(3, p) + 1))
        a = _unit(rng, m)
        Yt = rng.standard_normal((m, p))
        # plant an exact rank-1 block on the starting support so the SVD
        # half-step returns the given atom and the selection step sees it
        cols = np.sort(rng.choice(p, size=k, replace=False))
        z = rng.standard_normal(k) + np.sign(rng.standard_normal(k))
        Yt[:, cols] = np.outer(a, z)
        atom, supp, vals, locals_ = inner_row_switch(Yt, a.copy(), cols, z, 1)
        x = np.zeros(p)
        x[supp] = vals
        achieved = float(np.sum((Yt - np.outer(atom, x)) ** 2))
        best = best_fixed_atom_support(Yt, a, k)
        assert abs(achieved - best) <= 1e-10, f"trial {trial}: {achieved} vs {best}"
        assert supp.size == k
    _passed("inner-row exhaustive oracle (200 instances)")


def test_inter_row_oracle():
    """200 instances, |sym diff| <= 6: optimal assignment, count preserved."""
    rng = np.random.default_rng(3)
    checked = 0
    trial = 0
    while checked < 200:
        trial += 1
        m = int(rng.integers(2, 6))
        p = int(rng.integers(3, 9))
        cap = min(4, p)
        Yt = rng.standard_normal((m, p))
        si = np.sort(rng.choice(p, size=int(rng.integers(1, cap + 1)), replace=False))
        sj = np.sort(rng.choice(p, size=int(rng.integers(1, cap + 1)), replace=False))
        shared = set(map(int, si)) & set(map(int, sj))
        size = len(set(map(int, si)) ^ set(map(int, sj)))
        if size == 0 or size > 6:
            continue
        a_i, vi = _unit(rng, m), rng.standard_normal(si.size)
        a_j, vj = _unit(rng, m), rng.standard_normal(sj.size)
        oi, oj = inter_row_switch(Yt, a_i, si, vi, a_j, sj, vj)
        assert oi[0].size + oj[0].size == si.size + sj.size, (
            f"trial {trial}: nonzero count not preserved"
        )
        achieved = 0.0
        for supp, vals in (oi, oj):
            for c, v in zip(supp, vals):
                if int(c) not in shared:
                    achieved += v**2
        best = best_pair_assignment(Yt, a_i, a_j, shared, size)
        assert abs(achieved - best) <= 1e-10, f"trial {trial}: {achieved} vs {best}"
        checked += 1
    _passed("inter-row exhaustive oracle (200 instances)")


def test_block_omp_kronecker_equivalence():
    """100 instances with n*p <= 60: identical to the materialized pursuit."""
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 100:
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        p = int(rng.integers(2, 7))
        if n * p > 60:
            continue
        A = rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=0)
        Y = rng.standard_normal((m, p))
        budget = int(rng.integers(1, min(n * p, 14) + 1))
        X = block_omp(Y, A, budget)
        ref = kron_omp(Y, A, budget)
        rows, cols, vals = X.entries()
        got = dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist()))
        assert got.keys() == ref.keys(), f"instance {checked}: supports differ"
        for key, val in ref.items():
            assert abs(got[key] - val) <= 1e-10, f"instance {checked}: coeff differs"
        checked += 1
    _passed("block-OMP Kronecker equivalence (100 instances)")


def _halfstep_defect_ok(sub, target, coeffs, defect, tol=1e-8):
    """Check a normal-equations defect at 1e-8 backward-error scale.

    ``defect`` is ``sub^T (target - sub @ coeffs)`` (or its matrix analogue).
    Grams conditioned beyond the solver's 1e12 limit take the documented
    ridge fallback, where the exact identity is ``defect = lambda * coeffs``
    with ``lambda = 1e-10 * trace(G) / k``; the check verifies that identity
    instead on those columns.
    """
    from batchsvd.linalg import COND_LIMIT, RIDGE_SCALE

    G = sub.T @ sub
    k = G.shape[0]
    cond = np.linalg.cond(G)
    if np.isfinite(cond) and cond <= COND_LIMIT:
        expected = np.zeros_like(defect)
    else:
        lam = RIDGE_SCALE * np.trace(G) / k
        expected = lam * coeffs
    mass = np.linalg.norm(target) + np.linalg.norm(sub) * np.linalg.norm(coeffs)
    bound = tol * mass * np.linalg.norm(sub, axis=0)
    gap = np.abs(defect - expected)
    gap = gap if gap.ndim == 1 else gap.max(axis=1)
    return bool(np.all(gap <= bound + 1e-12))


def test_amplitude_adjust_contracts():
    """200 runs: support immutable; half-step normal equations within 1e-8."""
    rng = np.random.default_rng(5)
    for trial in range(200):
        m = int(rng.integers(3, 7))
        n = int(rng.integers(2, 9))
        p = int(rng.integers(n, 4 * n + 1))
        Y = rng.standard_normal((m, p))
        A = rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=0)
        from batchsvd import SparseCoeff

        rows, cols, vals = [], [], []
        for j in range(p):
            col_rows = rng.choice(n, size=int(rng.integers(1, min(n, m) + 1)), replace=False)
            rows += col_rows.tolist()
            cols += [j] * col_rows.size
            vals += rng.standard_normal(col_rows.size).tolist()
        for i in sorted(set(range(n)) - set(rows)):  # every row gets an entry
            rows.append(i)
            cols.append(int(rng.integers(p)))
            vals.append(float(rng.standard_normal()))
        X = SparseCoeff(n, p, rows, cols, vals)
        A2, X2, _ = amplitude_adjust(Y, A, X, 1)
        support, support2 = X.entries()[:2], X2.entries()[:2]
        assert all(map(np.array_equal, support, support2)), f"trial {trial}: support changed"
        # dictionary half-step was optimal for the input coefficients:
        # defect columns are X0^T (Y - A2 X0)^T per used atom
        X0 = X.to_dense()
        defect = X0 @ (Y - A2 @ X0).T
        assert _halfstep_defect_ok(X0.T, Y.T, A2.T, defect), (
            f"trial {trial}: dict half-step"
        )
        X2d = X2.to_dense()
        for j in range(p):
            rows = support2[0][support2[1] == j]
            sub = A2[:, rows]
            x_j = X2d[rows, j]
            defect_j = sub.T @ (Y[:, j] - sub @ x_j)
            assert _halfstep_defect_ok(sub, Y[:, j], x_j, defect_j), (
                f"trial {trial}: column half-step"
            )
    _passed("amplitude-adjust contracts (200 runs)")


def test_directional_benchmark():
    """Planted heterogeneous sparsity at 20 dB SNR: batch wins >= 70% of 20 seeds."""
    margins = []
    wins = 0
    n_seeds = 20
    for seed in range(n_seeds):
        rng = np.random.default_rng(9000 + seed)
        sparsities = [1] * 100 + [3] * 100
        Y, _, _ = make_planted(8, 16, 200, sparsities, rng, snr_db=20)
        budget = sum(sparsities)  # 400 -> per-sample k = 2 for the baseline
        cfg = LearnConfig(
            budget=budget, init_iters=10, inner_sweeps=2, amplitude_iters=5,
            max_outer=10, trigger=0.05, epsilon=0.0, seed=seed,
        )
        results = run_benchmark(Y, cfg, ["batch", "ksvd"], n_atoms=16, ksvd_iters=15)
        by_label = {r.label: r for r in results}
        batch_err = by_label["batch"].mean
        ksvd_err = by_label["ksvd"].mean
        assert by_label["batch"].coefficients.nnz <= budget
        assert by_label["ksvd"].coefficients.nnz <= budget
        if batch_err <= ksvd_err:
            wins += 1
        margins.append((ksvd_err - batch_err) / ksvd_err)
    assert wins >= 0.7 * n_seeds, f"batch won only {wins}/{n_seeds}"
    assert np.median(margins) > 0, f"median relative improvement {np.median(margins)}"
    _passed(
        f"directional benchmark (batch <= ksvd in {wins}/{n_seeds} seeds, "
        f"median improvement {np.median(margins):.1%})"
    )


def test_rank1_svd_oracle():
    """500 random matrices up to 8x8 vs the Jacobi SVD within 1e-8."""
    rng = np.random.default_rng(6)
    for trial in range(500):
        m = int(rng.integers(1, 9))
        q = int(rng.integers(1, 9))
        M = rng.standard_normal((m, q))
        t = rank1_svd(M)
        U, s, Vt = jacobi_svd(M)
        u_ref, v_ref = align_sign(U[:, 0], Vt[0, :])
        assert abs(t.sigma - s[0]) <= 1e-8, f"trial {trial}: sigma"
        assert np.max(np.abs(t.u - u_ref)) <= 1e-8, f"trial {trial}: u"
        assert np.max(np.abs(t.v - v_ref)) <= 1e-8, f"trial {trial}: v"
    _passed("rank-1 SVD Jacobi oracle (500 matrices)")


def test_compare_determinism(tmp_path):
    """Two identically seeded compare runs produce byte-identical reports."""
    rng = np.random.default_rng(12)
    Y, _, _ = make_planted(6, 10, 30, [2] * 30, rng, snr_db=25)
    sample = tmp_path / "Y.mat"
    save_matrix(sample, Y)
    args = ["compare", "--in", str(sample), "--atoms", "10", "--budget", "60",
            "--iters", "2", "--init-iters", "2", "--n1", "1", "--n2", "2",
            "--ksvd-iters", "2", "--seed", "5"]
    payloads = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "batchsvd", *args, "--report-out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]
    json.loads(payloads[0])  # well-formed
    _passed("byte-identical compare reports")
