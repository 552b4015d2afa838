"""File formats for the benchmark pipeline.

Plain-text matrices ("m p" header then one row per line), plain-text sparse
coefficients ("n p nnz" header then 1-based "row col value" lines sorted by
column then row), 8-bit PGM images (P2 and P5 read, P5 written), and deterministic JSON
reports. Floats are written with shortest round-trip formatting so a
save/load cycle is bit-identical.

Image patches repeat a few values (at most 256), so ``load_matrix`` parses and
``save_matrix`` formats each distinct value once, by a memo that lives for one
call. It stops for the rest of the file once it holds more than half of the
values seen so far or more than one line's worth: a matrix of mostly distinct
values then runs the plain per-value path after its first line, and the memo
never holds more than two lines' values.
"""
from __future__ import annotations

import array
import itertools
import json
import math
import re

import numpy as np

from .coding import SparseCoeff, _canonical_order


class ParseError(ValueError):
    """Malformed input file; the message names the offending line."""


def _read_table(path, fields: str, what: str, start, parse) -> list:
    """Read a text table in one pass, one line at a time; return its integer header.

    ``start(*header)`` checks the integers on line 1, named by ``fields``, and returns the
    number of data lines; ``parse(*header, lineno, tokens)`` takes each of them. Errors are
    raised at the end, the first by rank: a non-ASCII byte on any line, the header, a missing
    or blank data line, a non-blank line after them (trailing blank lines are fine), then the
    first from ``parse``.
    """
    bad = bad_line = None
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        # one empty line past the end, so that a missing data line reads as a blank one
        for lineno, line in enumerate(itertools.chain(fh, [""]), 1):
            if not line.isascii():  # each non-ASCII byte was decoded to a lone surrogate
                raise ParseError(f"{path}: line {lineno}: non-ASCII byte")
            if lineno == 1:
                header = line.split()
                try:
                    if len(header) != len(fields.split()):
                        raise ParseError(f"{path}: line 1: expected header '{fields}'")
                    header = [int(t) for t in header]
                    count = start(*header)
                except ParseError as err:
                    bad = err
                except ValueError:
                    bad = ParseError(f"{path}: line 1: non-integer header")
            elif bad:  # only a non-ASCII byte can outrank it
                continue
            elif lineno > count + 1:
                if line.strip():
                    bad = ParseError(f"{path}: line {lineno}: unexpected data after {count} {what}")
            elif not line.strip():
                end = f"file ends after line {lineno - 1}"
                bad = ParseError(f"{path}: expected {count} {what}, {end}")
            elif bad_line is None:
                try:
                    parse(*header, lineno, line.split())
                except ParseError as err:
                    bad_line = err
    if bad or bad_line:
        raise bad or bad_line
    return header


def _memo_map(memo: dict, keys: list, convert, items: list) -> list:
    """``convert(items[k])`` for each k, memoised by ``keys[k]``: only the misses convert."""
    out = list(map(memo.get, keys))
    k = -1
    for _ in range(out.count(None)):
        k = out.index(None, k + 1)
        out[k] = memo[keys[k]] = convert(items[k])
    return out


def load_matrix(path) -> np.ndarray:
    """Read a dense matrix from the plain-text format, one line at a time."""
    out = np.empty((0, 0))
    memo = {}  # token text -> float, for this call only, while it pays

    def start(m, p):
        if m < 1 or p < 1:
            raise ParseError(f"{path}: line 1: dimensions must be positive")
        return m

    def parse(m, p, lineno, tokens):
        nonlocal memo
        if len(tokens) != p:
            raise ParseError(f"{path}: line {lineno}: expected {p} entries, found {len(tokens)}")
        i = lineno - 2
        if i == len(out):  # grown in place as rows arrive: memory follows the file, not m
            out.resize((min(2 * i + 16, m), p), refcheck=False)
        try:
            if memo is None:
                out[i] = tokens  # numpy parses each string exactly as float() does
            else:
                out[i] = _memo_map(memo, tokens, float, tokens)
                if 2 * len(memo) > min(i + 1, 2) * p:  # over half of those seen, or a line's worth
                    memo = None
            if np.isfinite(out[i]).all():
                return
        except ValueError:
            pass
        for tok in tokens:  # name the first token that is not a finite float
            try:
                val = float(tok)
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: bad numeric token {tok!r}") from None
            if not math.isfinite(val):
                raise ParseError(f"{path}: line {lineno}: non-finite token {tok!r}")
        raise ParseError(f"{path}: line {lineno}: bad numeric data")

    _read_table(path, "rows cols", "data rows", start, parse)
    return out


def save_matrix(path, M):
    """Write a nonempty finite matrix in the plain-text format, each value as its shortest repr."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or 0 in M.shape:  # load_matrix refuses a zero dimension
        raise ValueError(f"matrix must be 2-D with at least one row and column, got {M.shape}")
    if not np.isfinite(M).all():  # load_matrix refuses nan and inf
        raise ValueError("matrix entries must be finite")
    bits = M.view(np.int64)  # the key: -0.0 and 0.0 print differently
    memo = {}  # float64 bits -> repr text, for this call only, while it pays
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        for i in range(M.shape[0]):
            if memo is None:
                fh.write(" ".join(map(repr, M[i].tolist())))
            else:  # a miss formats its numpy scalar, a float subclass, as float's repr
                fh.write(" ".join(_memo_map(memo, bits[i].tolist(), float.__repr__, M[i])))
                if 2 * len(memo) > min(i + 1, 2) * M.shape[1]:  # as in load_matrix
                    memo = None
            fh.write("\n")


def load_sparse(path) -> SparseCoeff:
    """Read a sparse coefficient matrix from the triplet format, one line at a time."""
    # flat machine arrays, grown as lines arrive: no Python object per token is kept
    rows, cols, vals = array.array("q"), array.array("q"), array.array("d")

    def start(n, p, nnz):
        if n < 1 or p < 1 or nnz < 0 or max(n, p) > np.iinfo(np.intp).max:
            raise ParseError(f"{path}: line 1: bad dimensions")
        return nnz

    def parse(n, p, _, lineno, tokens):
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

    n, p, _ = _read_table(path, "rows cols nnz", "entries", start, parse)
    rows, cols = np.frombuffer(rows, np.int64), np.frombuffer(cols, np.int64)
    t = _canonical_order(rows, cols)[1]
    if t is not None:
        raise ParseError(f"{path}: line {t + 2}: duplicate entry ({rows[t] + 1}, {cols[t] + 1})")
    return SparseCoeff(n, p, rows, cols, np.frombuffer(vals))


def save_sparse(path, X: SparseCoeff):
    rows, cols, vals = X.entries()  # sorted by (col, row)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{X.n} {X.p} {rows.size}\n")
        for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            fh.write(f"{i + 1} {j + 1} {v!r}\n")


def _pgm_tokens(data: bytes):
    """Yield header tokens, each with the byte offset just past it; '#' starts a comment.

    A '#' inside a token is part of it; a comment runs to the end of its line.
    """
    for match in re.finditer(rb"#[^\n]*|\S+", data):
        if match[0][:1] != b"#":
            yield match[0].decode("ascii", errors="replace"), match.end()


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


def save_pgm(path, pixels, maxval: int = 255):
    """Write an 8-bit binary PGM (P5); :func:`load_pgm` reads it back, and P2 files too."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 2:
        raise ValueError("PGM pixels must be a 2-D array")
    if pixels.min() < 0 or pixels.max() > maxval:
        raise ValueError(f"pixel values must lie in [0, {maxval}]")
    if not (0 < maxval <= 255):
        raise ValueError("only 8-bit PGM supported")
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5 {width} {height} {maxval}\n".encode("ascii"))
        fh.write(pixels.astype(np.uint8).tobytes())


def write_report_json(path, payload):
    """Serialize a report (dict or list of dicts) with stable byte output."""
    text = json.dumps(payload, sort_keys=True, indent=2)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
        fh.write("\n")
