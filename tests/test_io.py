import re
import tracemalloc

import numpy as np
import pytest

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

    def test_trailing_rows_rejected(self, tmp_path):
        path = tmp_path / "long.mat"
        path.write_text("1 2\n1 2\n3 4\n")
        with pytest.raises(ParseError, match="line 3"):
            load_matrix(path)
        path.write_text("1 2\n1 2\n\n  \n")  # trailing blank lines are fine
        assert np.array_equal(load_matrix(path), [[1.0, 2.0]])


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

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "e.pgm"
        path.write_bytes(b"P5 2 2 255\n\x00\x01")
        with pytest.raises(ParseError, match="truncated"):
            load_pgm(path)

    def test_not_pgm(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P6 1 1 255\n\x00\x00\x00")
        with pytest.raises(ParseError, match="magic"):
            load_pgm(path)


def test_report_json_stable_bytes(tmp_path):
    payload = {"b": 1.5, "a": [1, 2], "nested": {"z": 0.1, "y": None}}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    write_report_json(p1, payload)
    write_report_json(p2, dict(reversed(payload.items())))
    assert p1.read_bytes() == p2.read_bytes()
