import tracemalloc

import numpy as np
import pytest

from batchsvd import (
    LearnConfig,
    RunResult,
    extract_patches,
    report_stats,
    report_to_dict,
    run_benchmark,
)

from oracles import make_planted, patches_loop, two_pass_stats


class TestReportStats:
    def test_constant(self):
        assert report_stats([2.0, 2.0, 2.0]) == (2.0, 0.0)

    def test_two_point(self):
        assert report_stats([0.0, 2.0]) == (1.0, 1.0)

    def test_matches_two_pass_oracle_frozen(self):
        rng = np.random.default_rng(11)
        errors = np.abs(rng.standard_normal(100))
        mean, std = report_stats(errors)
        # frozen from the two-pass oracle on this seeded vector
        assert abs(mean - 0.7578478326536582) < 1e-12
        assert abs(std - 0.5156775221483226) < 1e-12
        ref_mean, ref_std = two_pass_stats(errors)
        assert abs(mean - ref_mean) < 1e-12
        assert abs(std - ref_std) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            report_stats([])


class TestPatchExtraction:
    def test_constant_image(self):
        image = np.full((16, 16), 128, dtype=np.uint8)
        P = extract_patches(image, 4, 10, seed=3)
        assert P.shape == (16, 10)
        assert np.all(P == 128 / 255)

    def test_single_placement(self):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, size=(8, 8)).astype(np.uint8)
        P = extract_patches(image, 8, 3, seed=0)
        expected = image.flatten(order="F") / 255
        for t in range(3):
            assert np.array_equal(P[:, t], expected)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        image = rng.integers(0, 256, size=(32, 32)).astype(np.uint8)
        assert np.array_equal(extract_patches(image, 8, 50, seed=9),
                              extract_patches(image, 8, 50, seed=9))

    @pytest.mark.parametrize("size, count, message", [
        (0, 1, "patch_size must be at least 1"),
        (2, 0, "patch_count must be at least 1"),
        # floats used to reach numpy and fail there with a TypeError
        (2.5, 3, "patch_size must be an integer, got 2.5"),
        (2, 3.5, "patch_count must be an integer, got 3.5"),
        (True, 3, "patch_size must be an integer, got True"),
    ])
    def test_size_and_count_checked(self, size, count, message):
        with pytest.raises(ValueError, match=message):
            extract_patches(np.zeros((4, 4)), size, count)

    def test_image_too_small(self):
        with pytest.raises(ValueError, match="smaller"):
            extract_patches(np.zeros((4, 4)), 8, 1)

    @pytest.mark.parametrize("maxval", [0, -1, np.nan, np.inf])
    def test_maxval_must_be_finite_and_positive(self, maxval):
        # 0 divided by zero into inf patches, -1 returned negative patches and
        # NaN returned NaN patches
        with pytest.raises(ValueError, match="maxval must be a finite positive number"):
            extract_patches(np.ones((10, 10)), 4, 3, maxval=maxval)

    @pytest.mark.parametrize("image, message", [
        (np.where(np.eye(10) > 0, np.nan, 1.0), "image contains non-finite entries"),
        (np.ones((2, 10, 10)), "image must be 2-D"),
    ])
    def test_image_checked(self, image, message):
        with pytest.raises(ValueError, match=message):
            extract_patches(image, 4, 3)

    @pytest.mark.parametrize("seed, message", [
        (1.5, "seed must be an integer, got 1.5"),  # used to raise numpy's TypeError
        (-1, "seed must be at least 0, got -1"),
    ])
    def test_seed_checked(self, seed, message):
        with pytest.raises(ValueError, match=message):
            extract_patches(np.ones((10, 10)), 4, 3, seed=seed)

    @pytest.mark.parametrize("height, width, size", [
        (13, 29, 5), (29, 13, 5), (7, 20, 7), (20, 7, 7), (6, 6, 6), (9, 4, 1), (16, 16, 8),
    ])
    def test_matches_the_per_patch_loop(self, height, width, size):
        # bit-identical to the loop, a side equal to ``size`` included
        rng = np.random.default_rng(height * width + size)
        image = rng.integers(0, 256, size=(height, width)).astype(np.uint8)
        for seed, maxval in ((0, 255), (7, 200), (11, 1.5)):
            got = extract_patches(image, size, 40, seed=seed, maxval=maxval)
            assert got.tobytes() == patches_loop(image, size, 40, seed, maxval).tobytes()

    def test_memory_is_at_most_twice_the_output(self):
        image = np.random.default_rng(2).integers(0, 256, size=(300, 200)).astype(np.float64)
        extract_patches(image, 8, 3000, seed=1)  # the first call also sets up numpy's own state
        tracemalloc.start()
        try:
            P = extract_patches(image, 8, 3000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the gather and its column-major copy; the drawn corners add 1/32 of the output
        assert peak < 2.1 * P.nbytes

    def test_column_major_within_patch(self):
        image = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        P = extract_patches(image, 2, 1, seed=0, maxval=255)
        assert np.allclose(P[:, 0] * 255, [1, 3, 2, 4])


class TestRunResult:
    def test_from_factors(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 4))
        A /= np.linalg.norm(A, axis=0)
        from batchsvd import SparseCoeff

        Xd = rng.standard_normal((4, 6))
        Xd[np.abs(Xd) < 0.7] = 0.0
        X = SparseCoeff.from_dense(Xd)
        Y = A @ Xd + 0.1
        rep = RunResult.from_factors(Y, A, X, "demo", seed=4, budget=X.nnz)
        expect = np.linalg.norm(Y - A @ Xd, axis=0)
        # the residual is summed per support, not by a dense product: the
        # errors match to rounding, and the report states exactly their stats
        np.testing.assert_allclose(rep.errors, expect, rtol=1e-12, atol=0)
        assert (rep.mean, rep.std) == report_stats(rep.errors)
        d = report_to_dict(rep, None)
        assert d["total_nnz"] == X.nnz
        assert d["avg_nnz_per_sample"] == X.nnz / 6
        assert rep.trace.entries() == [("outer", pytest.approx(float(np.sum(expect**2))))]

    @pytest.mark.parametrize("shape", [(5, 6), (4, 7)])
    def test_coefficient_shape_mismatch_rejected(self, shape):
        rng = np.random.default_rng(1)
        from batchsvd import SparseCoeff

        X = SparseCoeff(*shape, [0], [0], [1.0])
        with pytest.raises(ValueError, match="shape mismatch"):
            RunResult.from_factors(rng.standard_normal((3, 6)), rng.standard_normal((3, 4)),
                                   X, "demo", seed=0, budget=1)


    def test_memory_is_the_residual_plus_column_blocks(self):
        # one 64 x 3000 residual, scored by column norms that square at most a
        # block of columns at a time: whole-matrix norms would square all of it
        from batchsvd import SparseCoeff

        rng = np.random.default_rng(4)
        m, n, p = 64, 256, 3000
        Y, A = rng.standard_normal((m, p)), rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=0)
        rows = np.concatenate([rng.choice(n, size=2, replace=False) for _ in range(p)])
        X = SparseCoeff(n, p, rows, np.repeat(np.arange(p), 2), rng.standard_normal(2 * p))
        RunResult.from_factors(Y, A, X, "demo", seed=0, budget=X.nnz)  # sets up numpy's state
        tracemalloc.start()
        try:
            RunResult.from_factors(Y, A, X, "demo", seed=0, budget=X.nnz)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * Y.nbytes  # 1.52 measured; 2.03 with whole-matrix norms


class TestRunBenchmark:
    def _run(self, seed=0, algos=("batch", "ksvd", "rnd-omp"), holdout=None):
        rng = np.random.default_rng(seed)
        Y, _, _ = make_planted(6, 10, 40, [2] * 40, rng, snr_db=25)
        cfg = LearnConfig(
            budget=80, init_iters=3, inner_sweeps=2, amplitude_iters=3,
            max_outer=3, seed=seed,
        )
        return Y, cfg, run_benchmark(Y, cfg, list(algos), n_atoms=10, ksvd_iters=3,
                                     holdout=holdout)

    def test_reports_well_formed(self):
        Y, cfg, results = self._run()
        assert [r.label for r in results] == ["batch", "ksvd", "rnd-omp"]
        batch = results[0]
        assert batch.coefficients.nnz == 80
        for r in results:
            d = report_to_dict(r, cfg)
            assert d["m"] == 6 and d["n"] == 10 and d["p"] == 40
            assert d["total_nnz"] == r.coefficients.nnz
            assert d["avg_nnz_per_sample"] == r.coefficients.nnz / 40
            assert d["config"]["max_outer"] == 3
        assert results[1].coefficients.nnz <= (80 // 40) * 40  # k*p <= K

    def test_budget_infeasible_rejected_before_compute(self):
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((4, 5))
        cfg = LearnConfig(budget=100, seed=0)
        with pytest.raises(ValueError, match="infeasible"):
            run_benchmark(Y, cfg, ["batch"], n_atoms=6)

    def test_zero_per_sample_budget_rejected(self):
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((4, 50))
        cfg = LearnConfig(budget=20, seed=0)  # 20 // 50 == 0
        with pytest.raises(ValueError, match="per-sample"):
            run_benchmark(Y, cfg, ["ksvd"], n_atoms=6)

    @pytest.mark.parametrize("n_atoms, message", [
        (2.5, "n_atoms must be an integer, got 2.5"),
        (0, "n_atoms must be at least 1, got 0"),
    ])
    def test_atom_count_checked(self, n_atoms, message):
        # 2.5 used to fail inside numpy with a TypeError
        with pytest.raises(ValueError, match=message):
            run_benchmark(np.eye(3), LearnConfig(budget=2), ["batch"], n_atoms=n_atoms)

    def test_empty_algo_list_rejected(self):
        with pytest.raises(ValueError, match="at least one algorithm"):
            run_benchmark(np.eye(3), LearnConfig(budget=2), [], n_atoms=3)

    def test_unknown_algo_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            run_benchmark(np.eye(3), LearnConfig(budget=2), ["lasso"], n_atoms=3)

    def test_holdout_adds_open_reports(self):
        rng = np.random.default_rng(2)
        holdout, _, _ = make_planted(6, 10, 15, [2] * 15, rng, snr_db=25)
        _, _, results = self._run(seed=2, algos=("ksvd",), holdout=holdout)
        labels = [r.label for r in results]
        assert labels == ["ksvd", "ksvd-open"]
        assert results[1].coefficients.p == 15

    def test_holdout_rows_must_match(self):
        with pytest.raises(ValueError, match="holdout sample dimension does not match Y"):
            run_benchmark(np.eye(3), LearnConfig(budget=2), ["batch"], n_atoms=3,
                          holdout=np.ones((4, 2)))

    def test_protocol_defaults_echoed_in_report(self):
        rng = np.random.default_rng(4)
        Y, _, _ = make_planted(4, 6, 12, [1] * 12, rng, snr_db=25)
        cfg = LearnConfig(budget=12, init_iters=2, seed=0)  # protocol defaults otherwise
        results = run_benchmark(Y, cfg, ["batch"], n_atoms=6)
        echoed = report_to_dict(results[0], cfg)["config"]
        assert echoed["max_outer"] == 20
        assert echoed["inner_sweeps"] == 3
        assert echoed["amplitude_iters"] == 10
        assert echoed["trigger"] == 0.05

    def test_rnd_omp_full_budget_square_dictionary_zero_error(self):
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((4, 6))
        cfg = LearnConfig(budget=4 * 6, init_iters=1, seed=3)
        results = run_benchmark(Y, cfg, ["rnd-omp"], n_atoms=4)
        assert results[0].mean < 1e-9  # complete budget spans every sample exactly

    def test_planted_heterogeneous_batch_beats_ksvd_majority(self):
        # direction predicted by the batchwise budget argument; small-scale
        wins = 0
        seeds = range(6)
        for seed in seeds:
            rng = np.random.default_rng(seed)
            sparsities = [1] * 20 + [3] * 20
            Y, _, _ = make_planted(8, 16, 40, sparsities, rng, snr_db=None)
            cfg = LearnConfig(
                budget=sum(sparsities), init_iters=8, inner_sweeps=2,
                amplitude_iters=4, max_outer=8, trigger=0.05, seed=seed,
            )
            results = run_benchmark(Y, cfg, ["batch", "ksvd"], n_atoms=16,
                                    ksvd_iters=10)
            by_label = {r.label: r for r in results}
            if by_label["batch"].mean <= by_label["ksvd"].mean:
                wins += 1
        assert wins > len(list(seeds)) / 2
