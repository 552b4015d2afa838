import contextlib
import os
import re
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchsvd import (
    ParseError,
    SparseCoeff,
    load_matrix,
    load_pgm,
    load_sparse,
    save_matrix,
    save_pgm,
    save_sparse,
    write_report_json,
)
from batchsvd import io as bio
from batchsvd.io import _pgm_tokens

from oracles import pgm_tokens_bytewise


def _traced_peaks(path, M):
    """Traced peak memory of ``load_matrix`` and of ``save_matrix`` on ``M``, beyond their input."""
    save_matrix(path, M)
    load_matrix(path)  # the first call also sets up numpy's own state
    tracemalloc.start()
    try:
        got = load_matrix(path)
        load_peak = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        save_matrix(path, M)
        save_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, M)
    return load_peak, save_peak


class TestMatrixFormat:
    def test_identity_literal(self, tmp_path):
        path = tmp_path / "eye.mat"
        path.write_text("2 2\n1 0\n0 1\n")
        assert np.array_equal(load_matrix(path), np.eye(2))

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((7, 13))
        path = tmp_path / "m.mat"
        save_matrix(path, M)
        M2 = load_matrix(path)
        assert np.array_equal(M, M2)  # exact, not approximate
        save_matrix(tmp_path / "m2.mat", M2)
        assert (tmp_path / "m.mat").read_bytes() == (tmp_path / "m2.mat").read_bytes()

    def test_written_text_pinned(self, tmp_path):
        # shortest round-trip repr per value: signed zero, subnormal, exponent form
        path = tmp_path / "pin.mat"
        save_matrix(path, [[0.1, -0.0, 5e-324], [1e16, 1.0, -2.5]])
        assert path.read_bytes() == b"2 3\n0.1 -0.0 5e-324\n1e+16 1.0 -2.5\n"

    @pytest.mark.parametrize("M", [np.ones(3), np.ones((2, 2, 2))])
    def test_save_refuses_non_matrix(self, tmp_path, M):
        with pytest.raises(ValueError, match="matrix must be 2-D"):
            save_matrix(tmp_path / "m.mat", M)
        assert not (tmp_path / "m.mat").exists()

    def test_missing_rows_names_line(self, tmp_path):
        path = tmp_path / "short.mat"
        path.write_text("3 2\n1 2\n3 4\n")
        with pytest.raises(ParseError, match="3"):
            load_matrix(path)

    def test_header_larger_than_file_rejected_before_allocating(self, tmp_path):
        # a 100000 x 100000 float64 matrix would need 74.5 GiB
        path = tmp_path / "huge.mat"
        path.write_text("100000 100000\n1 2\n")
        with pytest.raises(ParseError, match="expected 100000 data rows"):
            load_matrix(path)
        path.write_text("1 100000000000\n1 2\n")  # declared width beyond the row
        with pytest.raises(ParseError, match="line 2: expected 100000000000 entries"):
            load_matrix(path)
        path.write_text(f"{10**12} 2\n1 2\n3 4\n")  # rows are allocated as lines arrive
        with pytest.raises(ParseError, match=f"{10**12} data rows, file ends after line 3"):
            load_matrix(path)

    def test_wrong_entry_count_names_line(self, tmp_path):
        path = tmp_path / "ragged.mat"
        path.write_text("2 3\n1 2 3\n4 5\n")
        with pytest.raises(ParseError, match="line 3"):
            load_matrix(path)

    def test_non_finite_token_rejected(self, tmp_path):
        path = tmp_path / "inf.mat"
        path.write_text("1 2\n1 inf\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_matrix(path)

    @pytest.mark.parametrize("row, message", [
        ("1 x nan", "line 3: bad numeric token 'x'"),
        ("1 -inf x", "line 3: non-finite token '-inf'"),
        ("1 1e 2", "line 3: bad numeric token '1e'"),
    ])
    def test_bad_token_message_names_line_and_first_token(self, tmp_path, row, message):
        path = tmp_path / "bad.mat"
        path.write_text(f"2 3\n1 2 3\n{row}\n")
        with pytest.raises(ParseError) as err:
            load_matrix(path)
        assert str(err.value) == f"{path}: {message}"

    def test_tokens_parse_exactly_as_float(self, tmp_path):
        tokens = ["2.2250738585072011e-308", "1e23", "1_0", "-0", ".5", "4.9e-325",
                  "0.1000000000000000055511151231257827", "+7E-3"]
        path = tmp_path / "hard.mat"
        path.write_text(f"1 {len(tokens)}\n{' '.join(tokens)}\n")
        got = load_matrix(path)[0]
        want = np.array([float(t) for t in tokens])
        assert got.tobytes() == want.tobytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("2\n1\n0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_matrix(path)

    def test_non_ascii_byte_names_line(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_bytes(b"1 3\r\n8\xff 1 2\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: non-ASCII byte$"):
            load_matrix(path)

    def test_memory_is_the_result_plus_one_line(self, tmp_path):
        # the file is 3.5 MB of text; the whole text and its list of lines are never held
        M = np.random.default_rng(3).standard_normal((64, 3000))
        load_peak, save_peak = _traced_peaks(tmp_path / "patches.mat", M)
        assert load_peak < 2 * M.nbytes
        assert save_peak < M.nbytes  # one row of Python objects at a time

    def test_memo_memory_is_bounded_by_a_line(self, tmp_path):
        # each line repeats each of its values once, so the memo never holds more than half
        # of the values seen; it stops once it holds more than one line's worth
        M = np.random.default_rng(3).standard_normal((64, 1500))
        M = np.hstack([M, M])
        load_peak, save_peak = _traced_peaks(tmp_path / "halves.mat", M)
        assert load_peak < 2 * M.nbytes
        assert save_peak < M.nbytes

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_save_refuses_non_finite(self, tmp_path, bad):
        # load_matrix refuses 'nan' and 'inf', so writing them would break the round trip
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            save_matrix(tmp_path / "m.mat", [[0.5, 0.5], [bad, 0.5]])
        assert not (tmp_path / "m.mat").exists()

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_save_refuses_empty_dimension(self, tmp_path, shape):
        # load_matrix refuses a zero dimension, so the file would not read back
        with pytest.raises(ValueError, match="at least one row and column"):
            save_matrix(tmp_path / "m.mat", np.zeros(shape))
        assert not (tmp_path / "m.mat").exists()

    def test_trailing_rows_rejected(self, tmp_path):
        path = tmp_path / "long.mat"
        path.write_text("1 2\n1 2\n3 4\n")
        with pytest.raises(ParseError, match="line 3"):
            load_matrix(path)
        path.write_text("1 2\n1 2\n\n  \n")  # trailing blank lines are fine
        assert np.array_equal(load_matrix(path), [[1.0, 2.0]])


def _per_value_text(M) -> bytes:
    """The matrix file as one ``repr`` per value: what ``save_matrix`` must write."""
    rows = [" ".join(repr(float(v)) for v in row) for row in np.asarray(M, dtype=np.float64)]
    return "\n".join([f"{len(rows)} {len(M[0])}", *rows, ""]).encode("ascii")


class TestRepeatedValues:
    """``load_matrix`` and ``save_matrix`` parse and format each distinct value once."""

    def test_signed_zeros_kept_apart_when_written(self, tmp_path):
        M = np.array([[0.0, -0.0, 0.5, 0.0], [-0.0, 0.0, -0.0, 0.5]] * 3)
        path = tmp_path / "z.mat"
        save_matrix(path, M)
        assert path.read_bytes() == _per_value_text(M)
        assert load_matrix(path).tobytes() == M.tobytes()

    @pytest.mark.parametrize("row, message", [
        ("0.5 nan x nan", "line 5: non-finite token 'nan'"),
        ("0.5 x nan nan", "line 5: bad numeric token 'x'"),
        ("nan 0.25 nan 0.5", "line 5: non-finite token 'nan'"),
    ])
    def test_bad_token_named_on_a_memo_line(self, tmp_path, row, message):
        # three lines of two distinct values keep the memo on; line 5 mixes hits and misses
        path = tmp_path / "bad.mat"
        path.write_text("4 4\n" + "0.5 0.25 0.5 0.25\n" * 3 + row + "\n")
        with pytest.raises(ParseError) as err:
            load_matrix(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("head, memo_lines", [
        # distinct values after each line of 4, and the line after which the memo stops:
        ([], 1),  # 4/4 > 1/2 on line 1
        ([[1.0, 2.0, 1.0, 2.0]], 2),  # 2/4, then 6/8 > 1/2 on line 2, the middle of the file
        ([[1.0, 2.0, 1.0, 2.0]] * 3, 4),  # 2/4, 2/8, 2/12, then 6 > 4, one line's worth
    ])
    def test_memo_stops(self, tmp_path, monkeypatch, head, memo_lines):
        # every line after ``head`` holds four new values
        M = np.vstack(head + [np.random.default_rng(4).standard_normal((7, 4))])
        calls = []

        def counted(*args):
            calls.append(1)
            return memo_map(*args)

        memo_map = bio._memo_map
        monkeypatch.setattr(bio, "_memo_map", counted)
        path = tmp_path / "m.mat"
        save_matrix(path, M)
        assert len(calls) == memo_lines
        assert path.read_bytes() == _per_value_text(M)
        calls.clear()
        assert load_matrix(path).tobytes() == M.tobytes()
        assert len(calls) == memo_lines

    def test_one_value_in_several_spellings(self, tmp_path):
        tokens = "0.5 .5 5e-1 0.50 +0.5 -0 0 0.0"
        path = tmp_path / "m.mat"
        path.write_text("3 8\n" + f"{tokens}\n" * 3)
        want = np.array([[float(t) for t in tokens.split()]] * 3)
        got = load_matrix(path)
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got[:, 5]).all() and not np.signbit(got[:, 6:]).any()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda p: st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 0.1, -2.5, 5e-324, 1e16, 1 / 3, 255 / 255]),
                 min_size=p, max_size=p), min_size=1, max_size=8)))
    def test_round_trip_over_a_small_pool_is_bit_identical(self, rows):
        M = np.array(rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.mat")
            save_matrix(path, M)
            with open(path, "rb") as fh:
                assert fh.read() == _per_value_text(M)
            assert load_matrix(path).tobytes() == M.tobytes()


@pytest.mark.parametrize("reader, data, message", [
    # a non-ASCII byte anywhere comes before a bad header
    (load_matrix, b"2 x\n1 2\n3 \xff\n", "line 3: non-ASCII byte"),
    (load_sparse, b"2 2\n1 1 5.0\n\xe9\n", "line 3: non-ASCII byte"),
    # the layout comes before any data line is parsed
    (load_matrix, b"3 2\n1 x\n3 4\n", "expected 3 data rows, file ends after line 3"),
    (load_sparse, b"2 2 2\n1 x 5.0\n", "expected 2 entries, file ends after line 2"),
    (load_matrix, b"1 2\n1 x\n3 4\n", "line 3: unexpected data after 1 data rows"),
    (load_sparse, b"2 2 1\n1 x 5.0\n2 2 6.0\n", "line 3: unexpected data after 1 entries"),
])
def test_error_precedence(tmp_path, reader, data, message):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        reader(path)


def _through_pipe(tmp_path, reader, data: bytes):
    """``reader`` on a FIFO fed ``data`` once: opened again, it reads as empty, not a hang."""
    fifo, done = tmp_path / "pipe", threading.Event()
    os.mkfifo(fifo)

    def feed():
        fifo.write_bytes(data)
        while not done.wait(0.1):
            with contextlib.suppress(OSError):  # ENXIO: no reader has it open
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return reader(fifo)
    finally:
        done.set()
        writer.join(timeout=10)
        assert not writer.is_alive()


class TestPipe:
    """Each reader makes one pass, so a pipe works, and its layout is still checked."""

    def test_matrix(self, tmp_path):
        M = _through_pipe(tmp_path, load_matrix, b"2 2\n1 2\n3 4.5\n")
        assert np.array_equal(M, [[1.0, 2.0], [3.0, 4.5]])

    def test_sparse(self, tmp_path):
        X = _through_pipe(tmp_path, load_sparse, b"2 3 2\n1 1 5.0\n2 3 -1.5\n")
        assert X == SparseCoeff.from_triplets(2, 3, [0, 1], [0, 2], [5.0, -1.5])

    @pytest.mark.parametrize("reader, data, message", [
        (load_matrix, b"3 2\n1 2\n3 4\n", "expected 3 data rows, file ends after line 3"),
        (load_sparse, b"2 2 3\n1 1 5.0\n", "expected 3 entries, file ends after line 2"),
    ])
    def test_short_pipe(self, tmp_path, reader, data, message):
        with pytest.raises(ParseError, match=f"{re.escape(message)}$"):
            _through_pipe(tmp_path, reader, data)


class TestSparseFormat:
    def test_round_trip(self, tmp_path):
        # (3, 3) is a structural zero, which survives serialization
        X = SparseCoeff.from_triplets(4, 6, [2, 0, 3], [0, 3, 3], [1.5, -2.25, 0.0])
        path = tmp_path / "x.txt"
        save_sparse(path, X)
        X2 = load_sparse(path)
        assert X2 == X
        rows, cols, _ = X2.entries()
        assert X2.nnz == 3 and cols[rows == 3].tolist() == [3]

    def test_sorted_by_col_then_row(self, tmp_path):
        X = SparseCoeff.from_triplets(3, 3, [2, 0, 1], [1, 1, 0], [1.0, 2.0, 3.0])
        path = tmp_path / "x.txt"
        save_sparse(path, X)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "3 3 3"
        assert [ln.split()[:2] for ln in lines[1:]] == [
            ["2", "1"], ["1", "2"], ["3", "2"],
        ]

    def test_nnz_recount_matches_header(self, tmp_path):
        rng = np.random.default_rng(1)
        D = rng.standard_normal((5, 8))
        D[np.abs(D) < 1.0] = 0.0
        X = SparseCoeff.from_dense(D)
        path = tmp_path / "x.txt"
        save_sparse(path, X)
        lines = path.read_text().strip().split("\n")
        declared = int(lines[0].split()[2])
        assert declared == len(lines) - 1 == X.nnz

    def test_duplicate_entry_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("2 2 2\n1 1 5.0\n1 1 6.0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_sparse(path)

    def test_first_repeated_line_named(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("3 3 5\n1 1 5.0\n2 2 1.0\n2 2 6.0\n1 1 7.0\n3 3 1.0\n")
        with pytest.raises(ParseError, match=r": line 4: duplicate entry \(2, 2\)$"):
            load_sparse(path)

    @pytest.mark.parametrize("data, lineno", [
        (b"2 2 1\n1 1 5.0\xe9\n", 2), (b"2\x80 2 1\n1 1 5.0\n", 1), (b"2 2 0\n\n\xff\n", 3),
    ])
    def test_non_ascii_byte_names_line(self, tmp_path, data, lineno):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=f": line {lineno}: non-ASCII byte$"):
            load_sparse(path)

    def test_truncated_entries(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("2 2 3\n1 1 5.0\n")
        with pytest.raises(ParseError, match="2"):
            load_sparse(path)

    def test_header_larger_than_file_rejected(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("100000 100000 1000000000\n1 1 5.0\n")
        with pytest.raises(ParseError, match="expected 1000000000 entries"):
            load_sparse(path)

    def test_dimension_beyond_index_range_rejected(self, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text(f"{10**30} 2 1\n{10**24} 1 1.0\n")
        with pytest.raises(ParseError, match="line 1: bad dimensions"):
            load_sparse(path)

    def test_memory_follows_entries_not_rows(self, tmp_path):
        # a 12-byte file declaring 3,000,000 empty rows
        path = tmp_path / "tall.txt"
        path.write_text("3000000 1 0\n")
        tracemalloc.start()
        try:
            X = load_sparse(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (X.n, X.p, X.nnz) == (3000000, 1, 0)
        assert peak < 1 << 20

    def test_memory_is_a_small_multiple_of_the_result(self, tmp_path):
        # 6000 entries, two a column: the entries are kept in flat arrays, not Python objects
        rng = np.random.default_rng(3)
        n, p = 256, 3000
        rows = np.concatenate([rng.choice(n, 2, replace=False) for _ in range(p)])
        X = SparseCoeff.from_triplets(n, p, rows, np.repeat(np.arange(p), 2),
                                      rng.standard_normal(2 * p))
        path = tmp_path / "x.txt"
        save_sparse(path, X)
        load_sparse(path)  # the first call also sets up numpy's own state
        tracemalloc.start()
        try:
            got = load_sparse(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == X
        assert peak < 3 * sum(a.nbytes for a in X.entries())

    def test_trailing_entries_rejected(self, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("2 2 1\n1 1 5.0\n2 2 6.0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_sparse(path)
        path.write_text("2 2 1\n1 1 5.0\n\n")  # trailing blank lines are fine
        assert load_sparse(path).nnz == 1

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "oob.txt"
        path.write_text("2 2 1\n3 1 5.0\n")
        with pytest.raises(ParseError, match="range"):
            load_sparse(path)

    @pytest.mark.parametrize("line, message", [
        ("1 1", "line 2: expected 'row col value'"),
        ("1 1 5.0 7", "line 2: expected 'row col value'"),
        ("1.5 1 5.0", "line 2: bad entry tokens"),
        ("1 x 5.0", "line 2: bad entry tokens"),
        ("1 1 nan", "line 2: non-finite value"),
        ("1 1 -inf", "line 2: non-finite value"),
    ])
    def test_bad_entry_line_named(self, tmp_path, line, message):
        path = tmp_path / "bad.txt"
        path.write_text(f"2 2 1\n{line}\n")
        with pytest.raises(ParseError, match=message):
            load_sparse(path)


class TestPgm:
    def test_p2_round_trip(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "a.pgm"
        save_pgm(path, img, binary=False)
        loaded, maxval = load_pgm(path)
        assert np.array_equal(loaded, img)
        assert maxval == 255

    def test_p5_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(5, 7)).astype(np.uint8)
        path = tmp_path / "b.pgm"
        save_pgm(path, img, binary=True)
        loaded, maxval = load_pgm(path)
        assert np.array_equal(loaded, img)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P2\n# a comment\n2 2\n# another\n255\n0 1\n2 3\n")
        loaded, _ = load_pgm(path)
        assert np.array_equal(loaded, [[0, 1], [2, 3]])

    def test_16bit_rejected(self, tmp_path):
        path = tmp_path / "d.pgm"
        path.write_bytes(b"P2\n1 1\n65535\n1000\n")
        with pytest.raises(ParseError, match="8-bit"):
            load_pgm(path)

    @pytest.mark.parametrize("data", [
        b"P5 2 1 100\n" + bytes([200, 7]),
        b"P2 2 1 100\n200 7\n",
    ])
    def test_pixel_above_maxval_rejected(self, tmp_path, data):
        # P5 used to load the raw byte 200 although maxval is 100
        path = tmp_path / "g.pgm"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=r"pixel value outside \[0, 100\]"):
            load_pgm(path)

    def test_p2_pixel_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P2 1 1 255\n" + b"9" * 30 + b"\n")
        with pytest.raises(ParseError, match="bad P2 pixel token"):
            load_pgm(path)

    @pytest.mark.parametrize("data", [
        b"P5 x 2 255\n\x00\x01",  # non-integer width
        b"P2\n2 2\n",  # no maxval
        b"P2 1 1 2.5\n1\n",  # non-integer maxval
    ])
    def test_malformed_header_rejected(self, tmp_path, data):
        path = tmp_path / "h.pgm"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="malformed PGM header"):
            load_pgm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "e.pgm"
        path.write_bytes(b"P5 2 2 255\n\x00\x01")
        with pytest.raises(ParseError, match="truncated"):
            load_pgm(path)

    @pytest.mark.parametrize("pixels, maxval, message", [
        (np.zeros(4), 255, "PGM pixels must be a 2-D array"),
        (np.array([[0, 300]]), 255, r"pixel values must lie in \[0, 255\]"),
        (np.array([[0, -1]]), 255, r"pixel values must lie in \[0, 255\]"),
        (np.zeros((1, 2)), 0, "only 8-bit PGM supported"),
        (np.array([[0, 1]]), 256, "only 8-bit PGM supported"),
    ])
    def test_save_refusals(self, tmp_path, pixels, maxval, message):
        with pytest.raises(ValueError, match=message):
            save_pgm(tmp_path / "s.pgm", pixels, maxval)
        assert not (tmp_path / "s.pgm").exists()

    def test_not_pgm(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P6 1 1 255\n\x00\x00\x00")
        with pytest.raises(ParseError, match="magic"):
            load_pgm(path)

    # every byte that bytes.isspace or a regex class could disagree on, and
    # the comment marker, digits and high bytes
    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.sampled_from([
        b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1f", b"\x85", b"\xa0",
        b"#", b"0", b"7", b"P5", b"\x00", b"\x80", b"\xff",
    ]) | st.binary(max_size=3), max_size=30).map(b"".join))
    def test_header_tokens_match_the_bytewise_tokenizer(self, data):
        assert list(_pgm_tokens(data)) == list(pgm_tokens_bytewise(data))


def test_report_json_stable_bytes(tmp_path):
    payload = {"b": 1.5, "a": [1, 2], "nested": {"z": 0.1, "y": None}}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    write_report_json(p1, payload)
    write_report_json(p2, dict(reversed(payload.items())))
    assert p1.read_bytes() == p2.read_bytes()
