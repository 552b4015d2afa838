import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from batchsvd import load_matrix, load_sparse, save_matrix, save_pgm
from batchsvd.cli import main

from oracles import make_planted


@pytest.fixture
def sample_matrix(tmp_path):
    rng = np.random.default_rng(0)
    Y, _, _ = make_planted(6, 10, 30, [2] * 30, rng, snr_db=25)
    path = tmp_path / "Y.mat"
    save_matrix(path, Y)
    return path


def _learn_args(sample_matrix, tmp_path, algo="batch", extra=()):
    return [
        "learn", "--in", str(sample_matrix), "--algo", algo,
        "--atoms", "10", "--budget", "60", "--iters", "3",
        "--init-iters", "3", "--n1", "2", "--n2", "3", "--seed", "1",
        "--dict-out", str(tmp_path / "D.mat"),
        "--coef-out", str(tmp_path / "X.txt"),
        "--report-out", str(tmp_path / "r.json"),
        *extra,
    ]


def test_patches_pipeline(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(24, 24)).astype(np.uint8)
    pgm = tmp_path / "img.pgm"
    save_pgm(pgm, img)
    out = tmp_path / "patches.mat"
    rc = main(["patches", "--in", str(pgm), "--size", "4", "--count", "12",
               "--seed", "2", "--out", str(out)])
    assert rc == 0
    P = load_matrix(out)
    assert P.shape == (16, 12)
    assert P.min() >= 0.0 and P.max() <= 1.0


def test_learn_writes_artifacts(sample_matrix, tmp_path):
    rc = main(_learn_args(sample_matrix, tmp_path))
    assert rc == 0
    D = load_matrix(tmp_path / "D.mat")
    X = load_sparse(tmp_path / "X.txt")
    assert D.shape == (6, 10)
    assert X.nnz == 60
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["algo"] == "batch"
    assert report["K"] == 60
    assert report["total_nnz"] == 60
    assert report["config"]["inner_sweeps"] == 2
    # budget accounting: the serialized file recounts to the reported nnz
    lines = (tmp_path / "X.txt").read_text().strip().split("\n")
    assert len(lines) - 1 == report["total_nnz"]


def test_learn_normalize_matches_a_prenormalized_file(sample_matrix, tmp_path):
    # --normalize divides each nonzero column by its norm and leaves a zero
    # column zero: the outputs are those of a file normalized the same way
    Y = load_matrix(sample_matrix)
    Y[:, 4] = 0.0
    raw = tmp_path / "raw.mat"
    save_matrix(raw, Y)
    norms = np.linalg.norm(Y, axis=0)
    Yn = Y.copy()
    Yn[:, norms > 0] /= norms[norms > 0]
    assert not Yn[:, 4].any() and np.all(np.isfinite(Yn))
    pre = tmp_path / "pre.mat"
    save_matrix(pre, Yn)
    outputs = []
    for path, flags in ((raw, ["--normalize"]), (pre, [])):
        out = tmp_path / f"run{len(outputs)}"
        out.mkdir()
        assert main(_learn_args(path, out, extra=flags)) == 0
        outputs.append([(out / name).read_bytes() for name in ("D.mat", "X.txt", "r.json")])
    assert outputs[0] == outputs[1]


def test_learn_ksvd_truthful_nnz(sample_matrix, tmp_path):
    rc = main(_learn_args(sample_matrix, tmp_path, algo="ksvd"))
    assert rc == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["algo"] == "ksvd"
    assert report["total_nnz"] <= (60 // 30) * 30


def test_encode_and_eval_round_trip(sample_matrix, tmp_path):
    assert main(_learn_args(sample_matrix, tmp_path)) == 0
    coef2 = tmp_path / "X2.txt"
    rep2 = tmp_path / "r2.json"
    rc = main(["encode", "--in", str(sample_matrix), "--dict", str(tmp_path / "D.mat"),
               "--per-sample", "2", "--coef-out", str(coef2),
               "--report-out", str(rep2)])
    assert rc == 0
    enc = json.loads(rep2.read_text())
    assert enc["algo"] == "encode-omp"
    assert enc["total_nnz"] <= 2 * 30

    rep3 = tmp_path / "r3.json"
    rc = main(["eval", "--in", str(sample_matrix), "--dict", str(tmp_path / "D.mat"),
               "--coef", str(coef2), "--report-out", str(rep3)])
    assert rc == 0
    ev = json.loads(rep3.read_text())
    assert ev["algo"] == "eval"
    assert np.isclose(ev["mean_error"], enc["mean_error"], rtol=1e-12)


def test_encode_block_budget(sample_matrix, tmp_path):
    assert main(_learn_args(sample_matrix, tmp_path)) == 0
    rep = tmp_path / "enc.json"
    rc = main(["encode", "--in", str(sample_matrix), "--dict", str(tmp_path / "D.mat"),
               "--budget", "45", "--report-out", str(rep)])
    assert rc == 0
    enc = json.loads(rep.read_text())
    assert enc["algo"] == "encode-block"
    assert enc["total_nnz"] == 45


def test_encode_needs_exactly_one_mode(sample_matrix, tmp_path, capsys):
    rc = main(["encode", "--in", str(sample_matrix), "--dict", str(sample_matrix)])
    assert rc == 1
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"]


@pytest.mark.parametrize("mode", [["--per-sample", "2"], ["--budget", "20"]])
def test_encode_modes_refuse_a_non_unit_dictionary_alike(mode, tmp_path, capsys):
    rng = np.random.default_rng(0)
    samples, dictionary = tmp_path / "Y.mat", tmp_path / "D.mat"
    save_matrix(samples, rng.standard_normal((4, 10)))
    save_matrix(dictionary, 3.0 * rng.standard_normal((4, 6)))
    assert main(["encode", "--in", str(samples), "--dict", str(dictionary), *mode]) == 1
    assert _one_line_error(capsys) == "dictionary columns must be unit-normalized"


def test_compare_normalizes_the_holdout_too(sample_matrix, tmp_path):
    # with --normalize, the training file as its own holdout codes the same
    # samples against the same dictionary, so the two entries score alike
    out = tmp_path / "cmp.json"
    rc = main(["compare", "--in", str(sample_matrix), "--holdout", str(sample_matrix),
               "--algos", "rnd-omp", "--atoms", "10", "--budget", "60", "--normalize",
               "--report-out", str(out)])
    assert rc == 0
    entries = {r["algo"]: r for r in json.loads(out.read_text())}
    assert entries["rnd-omp-open"]["mean_error"] == entries["rnd-omp"]["mean_error"]


def test_compare_writes_report_array(sample_matrix, tmp_path):
    out = tmp_path / "cmp.json"
    rc = main(["compare", "--in", str(sample_matrix), "--atoms", "10",
               "--budget", "60", "--iters", "2", "--init-iters", "2",
               "--n1", "1", "--n2", "2", "--ksvd-iters", "2",
               "--seed", "3", "--report-out", str(out)])
    assert rc == 0
    reports = json.loads(out.read_text())
    assert [r["algo"] for r in reports] == ["batch", "ksvd", "rnd-omp"]
    assert all(r["seed"] == 3 for r in reports)


def test_compare_rejects_zero_iters(sample_matrix, tmp_path, capsys):
    rc = main(["compare", "--in", str(sample_matrix), "--atoms", "10",
               "--budget", "60", "--iters", "0", "--report-out", str(tmp_path / "c.json")])
    assert rc == 1
    assert "max_outer must be at least 1" in json.loads(capsys.readouterr().err.strip())["error"]
    assert not (tmp_path / "c.json").exists()


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return json.loads(err)["error"]


@pytest.mark.parametrize("flag", ["--trigger", "--epsilon"])
def test_nan_threshold_rejected(flag, sample_matrix, tmp_path, capsys):
    rc = main(_learn_args(sample_matrix, tmp_path, extra=(flag, "nan")))
    assert rc == 1
    assert f"{flag[2:]} must be a nonnegative number" in _one_line_error(capsys)
    assert not (tmp_path / "r.json").exists()


def test_compare_rejects_empty_algo_list(sample_matrix, tmp_path, capsys):
    rc = main(["compare", "--in", str(sample_matrix), "--atoms", "10", "--budget", "60",
               "--algos", ",", "--report-out", str(tmp_path / "c.json")])
    assert rc == 1
    assert "at least one algorithm" in _one_line_error(capsys)
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("header", ["4 30 1", "10 31 1"])
def test_eval_coefficient_shape_mismatch(header, sample_matrix, tmp_path, capsys):
    # 6x30 samples and a 6x10 dictionary need 10x30 coefficients
    D = tmp_path / "D.mat"
    save_matrix(D, np.eye(6, 10))
    coef = tmp_path / "X.txt"
    coef.write_text(f"{header}\n1 1 1.0\n")
    rc = main(["eval", "--in", str(sample_matrix), "--dict", str(D), "--coef", str(coef)])
    assert rc == 1
    assert "shape mismatch" in _one_line_error(capsys)


def test_default_reports_are_strict_json(sample_matrix, tmp_path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    learn, cmp = tmp_path / "learn.json", tmp_path / "cmp.json"
    common = ["--in", str(sample_matrix), "--atoms", "10", "--budget", "60"]
    assert main(["learn", *common, "--report-out", str(learn)]) == 0
    assert main(["compare", *common, "--report-out", str(cmp)]) == 0
    assert json.loads(learn.read_text(), parse_constant=reject)["config"]["trigger"] == 0.05
    reports = json.loads(cmp.read_text(), parse_constant=reject)
    assert [r["algo"] for r in reports] == ["batch", "ksvd", "rnd-omp"]


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("2 2\n1 2\n")
    rc = main(["learn", "--in", str(bad), "--algo", "batch", "--atoms", "4",
               "--budget", "4"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error" in json.loads(err.strip())


def test_non_ascii_input_is_a_one_line_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_bytes(b"1 3\n8\xff 1 2\n")
    rc = main(["eval", "--in", str(bad), "--dict", str(bad), "--coef", str(bad)])
    assert rc == 1
    assert _one_line_error(capsys) == f"{bad}: line 2: non-ASCII byte"


@pytest.mark.parametrize("verb", ["learn", "eval"])
def test_oversized_header_is_a_parse_error(verb, tmp_path, capsys):
    # the header claims 74.5 GiB; the reader must fail on the line count
    huge = tmp_path / "huge.mat"
    huge.write_text("100000 100000\n1 2\n")
    if verb == "learn":
        argv = ["learn", "--in", str(huge), "--atoms", "4", "--budget", "4"]
    else:
        coef = tmp_path / "X.txt"
        coef.write_text("2 1 1\n1 1 1.0\n")
        argv = ["eval", "--in", str(huge), "--dict", str(huge), "--coef", str(coef)]
    rc = main(argv)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "expected 100000 data rows" in json.loads(err)["error"]


@pytest.mark.parametrize("algo", ["batch", "ksvd", "rnd-omp"])
def test_overflowing_samples_are_a_one_line_error(algo, tmp_path):
    # a separate interpreter, so numpy's RuntimeWarnings would reach its stderr
    Y = np.random.default_rng(0).standard_normal((4, 6))
    for scale, rc in ((1e155, 1), (1e150, 0)):  # ||Y||^2 overflows only at the first
        path = tmp_path / f"Y{scale:.0e}.mat"
        save_matrix(path, Y * scale)
        proc = subprocess.run(
            [sys.executable, "-m", "batchsvd", "learn", "--in", str(path), "--algo", algo,
             "--atoms", "3", "--budget", "12", "--iters", "2", "--init-iters", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == rc, proc.stderr
        if rc:
            assert proc.stderr.count("\n") == 1
            assert json.loads(proc.stderr) == {
                "error": f"{path}: the samples' squared norm overflows float64"}


def test_overflowing_holdout_is_refused_before_training(tmp_path):
    # the holdout gets the --in refusal, naming its file, before any algorithm runs
    Y = np.random.default_rng(0).standard_normal((4, 6))
    train, holdout = tmp_path / "Y.mat", tmp_path / "H.mat"
    save_matrix(train, Y)
    save_matrix(holdout, Y * 1e155)
    proc = subprocess.run(
        [sys.executable, "-m", "batchsvd", "compare", "--in", str(train), "--holdout",
         str(holdout), "--algos", "ksvd,rnd-omp", "--atoms", "3", "--budget", "12",
         "--ksvd-iters", "2", "--report-out", str(tmp_path / "r.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == "" and not (tmp_path / "r.json").exists()
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr) == {
        "error": f"{holdout}: the samples' squared norm overflows float64"}


def test_reports_agree_across_blas_thread_counts(tmp_path):
    # byte-identical reports are promised at a fixed BLAS thread count only: a
    # threaded product may sum in another order, which moves the last bits but
    # must leave the supports alone
    rng = np.random.default_rng(3)
    Y, _, _ = make_planted(32, 64, 600, [1 + j % 4 for j in range(600)], rng, snr_db=25)
    path = tmp_path / "Y.mat"
    save_matrix(path, Y)
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "batchsvd", "learn", "--in", str(path), "--atoms", "64",
             "--budget", "1500", "--iters", "2", "--init-iters", "2", "--seed", "1",
             "--dict-out", str(out / "D.mat"), "--coef-out", str(out / "X.txt"),
             "--report-out", str(out / "r.json")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "r.json").read_text())
        runs.append((load_matrix(out / "D.mat"), load_sparse(out / "X.txt").entries(), report))
    (D1, (r1, c1, v1), rep1), (D2, (r2, c2, v2), rep2) = runs
    assert np.array_equal(r1, r2) and np.array_equal(c1, c2)
    for a, b in ((D1, D2), (v1, v2)):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))
    assert [ph for ph, _ in rep1["objective_trace"]] == [ph for ph, _ in rep2["objective_trace"]]
    np.testing.assert_allclose([v for _, v in rep2["objective_trace"]],
                               [v for _, v in rep1["objective_trace"]], rtol=1e-12, atol=0)
    for key in ("mean_error", "std_error"):
        assert rep2[key] == pytest.approx(rep1[key], rel=1e-12, abs=0)


def test_compare_deterministic_bytes(sample_matrix, tmp_path):
    # full-fidelity determinism check through separate interpreter runs
    args = ["compare", "--in", str(sample_matrix), "--atoms", "10",
            "--budget", "60", "--iters", "2", "--init-iters", "2",
            "--n1", "1", "--n2", "2", "--ksvd-iters", "2", "--seed", "7"]
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "batchsvd", *args, "--report-out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verbose_logs_to_stderr_and_leaves_outputs_alone(sample_matrix, tmp_path, capsys):
    # 20 atoms for a budget of 30 leaves atoms unused, so re-seeding is logged
    outputs = []
    for flags in ([], ["-v"], ["--verbose"]):
        out = tmp_path / f"run{len(outputs)}"
        out.mkdir()
        argv = [*flags, *_learn_args(sample_matrix, out)]
        argv[argv.index("--atoms") + 1] = "20"
        argv[argv.index("--budget") + 1] = "30"
        assert main(argv) == 0
        captured = capsys.readouterr()
        files = [(out / name).read_bytes() for name in ("D.mat", "X.txt", "r.json")]
        outputs.append((captured.out, files, captured.err))
    quiet, loud, long_flag = outputs
    assert loud[:2] == quiet[:2] and long_flag[:2] == quiet[:2]
    assert quiet[2] == ""
    assert "batchsvd.coding: re-seeded dead atom" in loud[2]
    assert long_flag[2] == loud[2]
    assert not logging.getLogger("batchsvd").handlers  # the handler is removed again
