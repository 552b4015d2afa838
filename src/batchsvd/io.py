"""File formats for the benchmark pipeline.

Plain-text matrices ("m p" header then one row per line), plain-text sparse
coefficients ("n p nnz" header then 1-based "row col value" lines sorted by
column then row), 8-bit PGM images (P2 and P5), and deterministic JSON
reports. Floats are written with shortest round-trip formatting so a
save/load cycle is bit-identical.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .coding import SparseCoeff, _canonical_order


class ParseError(ValueError):
    """Malformed input file; the message names the offending line."""


def _read_table(path, fields: str):
    """Return a text file's lines and its integer header, named by ``fields``."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        text = fh.read()
    lines = text.split("\n")
    if not text.isascii():  # each non-ASCII byte was decoded to a lone surrogate
        lineno = next(k for k, line in enumerate(lines, 1) if not line.isascii())
        raise ParseError(f"{path}: line {lineno}: non-ASCII byte")
    header = lines[0].split()
    if len(header) != len(fields.split()):
        raise ParseError(f"{path}: line 1: expected header '{fields}'")
    try:
        return lines, [int(t) for t in header]
    except ValueError:
        raise ParseError(f"{path}: line 1: non-integer header") from None


def _data_lines(path, lines, count: int, what: str):
    """Check the layout, then iterate (line number, tokens) over the ``count`` data lines.

    A missing or blank data line and any non-blank line after the last one
    raise ParseError before any line is parsed; trailing blank lines are allowed.
    """
    for lineno in range(2, count + 2):
        if lineno > len(lines) or not lines[lineno - 1].strip():
            raise ParseError(
                f"{path}: expected {count} {what}, file ends after line {lineno - 1}"
            )
    for idx in range(count + 1, len(lines)):
        if lines[idx].strip():
            raise ParseError(f"{path}: line {idx + 1}: unexpected data after {count} {what}")
    return ((lineno, lines[lineno - 1].split()) for lineno in range(2, count + 2))


def load_matrix(path) -> np.ndarray:
    """Read a dense matrix from the plain-text format."""
    lines, (m, p) = _read_table(path, "rows cols")
    if m < 1 or p < 1:
        raise ParseError(f"{path}: line 1: dimensions must be positive")
    out = None
    for i, (lineno, tokens) in enumerate(_data_lines(path, lines, m, "data rows")):
        if len(tokens) != p:
            raise ParseError(
                f"{path}: line {lineno}: expected {p} entries, found {len(tokens)}"
            )
        if out is None:  # allocate only once the file has shown m lines of p entries
            out = np.empty((m, p))
        try:
            out[i] = tokens  # numpy parses each string exactly as float() does
            ok = np.isfinite(out[i]).all()
        except ValueError:
            ok = False
        if not ok:
            raise _token_error(path, lineno, tokens)
    return out


def _token_error(path, lineno: int, tokens) -> ParseError:
    """The ParseError naming the first token of a data line that is not a finite float."""
    for tok in tokens:
        try:
            val = float(tok)
        except ValueError:
            return ParseError(f"{path}: line {lineno}: bad numeric token {tok!r}")
        if not math.isfinite(val):
            return ParseError(f"{path}: line {lineno}: non-finite token {tok!r}")
    return ParseError(f"{path}: line {lineno}: bad numeric data")


def save_matrix(path, M):
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {M.shape}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        for row in M.tolist():
            fh.write(" ".join(map(repr, row)))
            fh.write("\n")


def load_sparse(path) -> SparseCoeff:
    """Read a sparse coefficient matrix from the triplet format."""
    lines, (n, p, nnz) = _read_table(path, "rows cols nnz")
    if n < 1 or p < 1 or nnz < 0 or max(n, p) > np.iinfo(np.intp).max:
        raise ParseError(f"{path}: line 1: bad dimensions")
    rows, cols, vals = [], [], []
    for lineno, tokens in _data_lines(path, lines, nnz, "entries"):
        if len(tokens) != 3:
            raise ParseError(f"{path}: line {lineno}: expected 'row col value'")
        try:
            i, j = int(tokens[0]) - 1, int(tokens[1]) - 1
            val = float(tokens[2])
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: bad entry tokens") from None
        if not math.isfinite(val):
            raise ParseError(f"{path}: line {lineno}: non-finite value")
        if not (0 <= i < n and 0 <= j < p):
            raise ParseError(f"{path}: line {lineno}: index out of range")
        rows.append(i)
        cols.append(j)
        vals.append(val)
    t = _canonical_order(rows, cols)[1]
    if t is not None:
        raise ParseError(f"{path}: line {t + 2}: duplicate entry ({rows[t] + 1}, {cols[t] + 1})")
    return SparseCoeff.from_triplets(n, p, rows, cols, vals)


def save_sparse(path, X: SparseCoeff):
    rows, cols, vals = X.entries()  # sorted by (col, row)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{X.n} {X.p} {rows.size}\n")
        for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            fh.write(f"{i + 1} {j + 1} {v!r}\n")


def _pgm_tokens(data: bytes):
    """Yield header tokens, honoring '#' comments; report the byte offset."""
    pos = 0
    while pos < len(data):
        ch = data[pos : pos + 1]
        if ch.isspace():
            pos += 1
            continue
        if ch == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        yield data[start:pos].decode("ascii", errors="replace"), pos
        pos += 1  # single whitespace after the token


def load_pgm(path):
    """Read an 8-bit PGM (P2 ascii or P5 binary). Returns (pixels, maxval)."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = _pgm_tokens(data)
    try:
        magic, _ = next(tokens)
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    if magic not in ("P2", "P5"):
        raise ParseError(f"{path}: not a PGM file (magic {magic!r})")
    try:
        width = int(next(tokens)[0])
        height = int(next(tokens)[0])
        maxval_tok, offset = next(tokens)
        maxval = int(maxval_tok)
    except (StopIteration, ValueError):
        raise ParseError(f"{path}: malformed PGM header") from None
    if width < 1 or height < 1:
        raise ParseError(f"{path}: bad PGM dimensions {width}x{height}")
    if not (0 < maxval <= 255):
        raise ParseError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    count = width * height
    if magic == "P5":
        raster = data[offset + 1 : offset + 1 + count]
        if len(raster) < count:
            raise ParseError(f"{path}: truncated P5 raster")
        img = np.frombuffer(raster, dtype=np.uint8, count=count)
    else:
        values = []
        for tok, _ in tokens:
            values.append(tok)
            if len(values) == count:
                break
        if len(values) < count:
            raise ParseError(f"{path}: truncated P2 raster")
        try:
            img = np.asarray([int(t) for t in values], dtype=np.int64)
        except (ValueError, OverflowError):  # OverflowError: beyond int64
            raise ParseError(f"{path}: bad P2 pixel token") from None
    if img.min() < 0 or img.max() > maxval:
        raise ParseError(f"{path}: pixel value outside [0, {maxval}]")
    return img.astype(np.uint8).reshape(height, width), maxval


def save_pgm(path, pixels, maxval: int = 255, binary: bool = True):
    pixels = np.asarray(pixels)
    if pixels.ndim != 2:
        raise ValueError("PGM pixels must be a 2-D array")
    if pixels.min() < 0 or pixels.max() > maxval:
        raise ValueError(f"pixel values must lie in [0, {maxval}]")
    if not (0 < maxval <= 255):
        raise ValueError("only 8-bit PGM supported")
    height, width = pixels.shape
    header = f"P5 {width} {height} {maxval}\n" if binary else f"P2\n{width} {height}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(pixels.astype(np.uint8).tobytes())
        else:
            for row in pixels:
                fh.write((" ".join(str(int(v)) for v in row) + "\n").encode("ascii"))


def write_report_json(path, payload):
    """Serialize a report (dict or list of dicts) with stable byte output."""
    text = json.dumps(payload, sort_keys=True, indent=2)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
        fh.write("\n")
