"""Greedy sparse coding over sample batches.

The coefficient matrix keeps one ``col -> value`` dict per nonempty row, so
the switching procedures can relocate structural nonzeros row by row while
the global budget stays a plain entry count. Coding itself is greedy pursuit:
classic per-sample OMP, and a batchwise variant that spends a single nonzero
budget across all samples at once.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .linalg import _sq_norm, as_matrix, as_vector, least_squares, solve_gram

log = logging.getLogger(__name__)

UNIT_NORM_TOL = 1e-8
# residuals below this (relative to the input norm, floored at 1) count as zero
ZERO_RESIDUAL_RTOL = 1e-12


class SparseCoeff:
    """Sparse n x p coefficient matrix keyed by row.

    Entries are structural: a stored value may be numerically zero and still
    counts toward the nonzero budget. Each nonempty row is a ``col -> value``
    dict keyed by its row index, so memory follows the entries and not ``n``;
    an emptied row is dropped. Column-ordered access goes through
    :meth:`entries`, and the per-column helpers (``col_support``,
    ``col_size``, ``set_col``) scan every stored row.
    """

    __slots__ = ("n", "p", "_rows")

    def __init__(self, n: int, p: int):
        n = int(n)
        p = int(p)
        if n < 1 or p < 1:
            raise ValueError(f"SparseCoeff needs n >= 1 and p >= 1, got {n}x{p}")
        self.n = n
        self.p = p
        self._rows: dict[int, dict] = {}  # row -> {col -> value}, nonempty rows only

    @classmethod
    def from_dense(cls, arr) -> "SparseCoeff":
        """Build from a dense array; structural support = exact nonzeros."""
        arr = as_matrix(arr, "coefficient matrix")
        X = cls(arr.shape[0], arr.shape[1])
        for i, j in zip(*np.nonzero(arr)):
            X.set(int(i), int(j), float(arr[i, j]))
        return X

    def _check(self, i: int, j: int):
        if not (0 <= i < self.n and 0 <= j < self.p):
            raise ValueError(f"index ({i}, {j}) out of range for {self.n}x{self.p}")

    def _row(self, i: int) -> dict:
        """Row i's stored dict, or an empty one for an empty row."""
        if not 0 <= i < self.n:
            raise ValueError(f"row index {i} out of range for {self.n}x{self.p}")
        return self._rows.get(i, {})

    def set(self, i: int, j: int, value: float):
        """Insert or overwrite the structural entry at (i, j)."""
        self._check(i, j)
        self._rows.setdefault(i, {})[j] = float(value)

    def unset(self, i: int, j: int):
        self._check(i, j)
        row = self._rows.get(i, {})
        if j not in row:
            raise ValueError(f"no structural entry at ({i}, {j})")
        del row[j]
        if not row:
            del self._rows[i]

    def has(self, i: int, j: int) -> bool:
        self._check(i, j)
        return j in self._rows.get(i, {})

    def get(self, i: int, j: int) -> float:
        self._check(i, j)
        return self._rows.get(i, {}).get(j, 0.0)

    @property
    def nnz(self) -> int:
        return sum(len(r) for r in self._rows.values())

    def row_size(self, i: int) -> int:
        return len(self._row(i))

    def col_size(self, j: int) -> int:
        return sum(j in row for row in self._rows.values())

    def row_support(self, i: int) -> list:
        return sorted(self._row(i))

    def col_support(self, j: int) -> list:
        return sorted(i for i, row in self._rows.items() if j in row)

    def row_entries(self, i: int):
        """Return (cols, values) for row i, sorted by column index."""
        row = self._row(i)
        cols = sorted(row)
        vals = [row[c] for c in cols]
        return np.asarray(cols, dtype=np.intp), np.asarray(vals, dtype=np.float64)

    @staticmethod
    def _line(index, values, size: int, kind: str) -> dict:
        """Validated ``index -> value`` dict for one whole row or column."""
        if len(index) != len(values):
            raise ValueError(f"{kind} indices and values differ in length")
        line = dict(zip((int(k) for k in index), (float(v) for v in values)))
        if len(line) != len(index):
            raise ValueError(f"duplicate {kind} indices")
        for k in line:
            if not (0 <= k < size):
                raise ValueError(f"{kind} {k} out of range")
        return line

    def set_row(self, i: int, cols, values):
        """Replace the whole support of row i."""
        self._row(i)  # range check before replacing the row
        line = self._line(cols, values, self.p, "column")
        if line:
            self._rows[i] = line
        else:
            self._rows.pop(i, None)

    def set_col(self, j: int, rows, values):
        """Replace the whole support of column j."""
        if not 0 <= j < self.p:
            raise ValueError(f"column index {j} out of range for {self.n}x{self.p}")
        line = self._line(rows, values, self.n, "row")
        for i in self.col_support(j):
            self.unset(i, j)
        for r, v in line.items():
            self.set(r, j, v)

    def scale_row(self, i: int, factor: float):
        row = self._row(i)
        factor = float(factor)
        for c in row:
            row[c] *= factor

    def permute_rows(self, order):
        """Reorder rows so that new row k is old row ``order[k]``."""
        order = [int(i) for i in order]
        if sorted(order) != list(range(self.n)):
            raise ValueError("order must be a permutation of the row indices")
        self._rows = {k: self._rows[i] for k, i in enumerate(order) if i in self._rows}

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.p))
        for i, row in self._rows.items():
            for j, v in row.items():
                out[i, j] = v
        return out

    def copy(self) -> "SparseCoeff":
        out = SparseCoeff(self.n, self.p)
        out._rows = {i: dict(r) for i, r in self._rows.items()}
        return out

    def entries(self) -> list:
        """(row, col, value) triplets sorted by (col, row), the serialization order."""
        triplets = [(i, j, v) for i, row in self._rows.items() for j, v in row.items()]
        triplets.sort(key=lambda t: (t[1], t[0]))
        return triplets

    def support_set(self) -> frozenset:
        return frozenset((i, j) for i, row in self._rows.items() for j in row)

    def __eq__(self, other):
        if not isinstance(other, SparseCoeff):
            return NotImplemented
        return (
            self.n == other.n
            and self.p == other.p
            and self._rows == other._rows
        )

    def __repr__(self):
        return f"SparseCoeff({self.n}x{self.p}, nnz={self.nnz})"


@dataclass(frozen=True)
class LearnConfig:
    """Hyperparameters for the batchwise solver and the benchmark pipeline.

    ``budget`` is the total structural nonzero count across the whole batch.
    ``pair_fraction`` controls how many row pairs the inter-row phase visits:
    None means all pairs for up to 64 atoms and ``2/(n-1)`` beyond that.
    """

    budget: int
    init_iters: int = 80
    inner_sweeps: int = 3
    amplitude_iters: int = 10
    epsilon: float = 0.0
    trigger: float = 0.05
    pair_fraction: float | None = None
    seed: int = 0
    max_outer: int = 20

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        for name in ("init_iters", "inner_sweeps", "amplitude_iters", "max_outer"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        # written so that NaN fails too; inf stays valid
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be a nonnegative number")
        if not self.trigger >= 0:
            raise ValueError("trigger must be a nonnegative number")
        if self.pair_fraction is not None and not (0.0 < self.pair_fraction <= 1.0):
            raise ValueError("pair_fraction must lie in (0, 1]")

    def effective_pair_fraction(self, n_atoms: int) -> float:
        if self.pair_fraction is not None:
            return self.pair_fraction
        if n_atoms <= 64:
            return 1.0
        return 2.0 / (n_atoms - 1)


def _residual_is_zero(res_norm: float, ref_norm: float) -> bool:
    return res_norm <= ZERO_RESIDUAL_RTOL * max(1.0, ref_norm)


def _require_unit_atoms(A, name: str):
    if np.any(np.abs(np.linalg.norm(A, axis=0) - 1.0) > UNIT_NORM_TOL):
        raise ValueError(f"{name} columns must be unit-normalized")


def _normalize_atoms(A: np.ndarray, X: SparseCoeff, rows):
    """Rescale atoms ``rows`` of A to unit norm in place, keeping A X unchanged.

    Each rescaled atom's coefficient row is multiplied by the old norm. Atoms
    that are zero or already exactly unit are left alone.
    """
    for i in rows:
        nrm = np.linalg.norm(A[:, i])
        if nrm > 0.0 and nrm != 1.0:
            A[:, i] /= nrm
            X.scale_row(i, nrm)


def _fit_atoms(Y, A: np.ndarray, X: SparseCoeff, Xd: np.ndarray) -> np.ndarray:
    """Refit in place the atoms whose rows of X are nonempty (dense copy Xd).

    Solves the dictionary least squares ``min ||Y - A_u X_u||_F`` over the
    used atoms ``u`` and returns the boolean mask of used rows; the other
    atoms are left untouched.
    """
    used = np.asarray([X.row_size(i) > 0 for i in range(X.n)])
    if used.any():
        Xu = Xd[used, :]
        A[:, used] = solve_gram(Xu @ Xu.T, Xu @ Y.T).T
    return used


def omp(y, A, k: int):
    """Orthogonal matching pursuit for a single sample.

    Greedily adds the atom with the largest |correlation| against the current
    residual (ties break toward the smaller atom index), then refits all
    selected coefficients by least squares. Returns the selected indices in
    selection order and the matching coefficients; fewer than ``k`` indices
    come back when the residual reaches zero early.
    """
    A = as_matrix(A, "A")
    y = as_vector(y, "y")
    m, n = A.shape
    if y.shape[0] != m:
        raise ValueError(f"dimension mismatch: A is {m}x{n}, y has length {y.shape[0]}")
    if not (1 <= k <= min(m, n)):
        raise ValueError(f"k must satisfy 1 <= k <= min(m, n) = {min(m, n)}, got {k}")
    col_norms = np.linalg.norm(A, axis=0)
    if np.any(col_norms == 0.0):
        raise ValueError("dictionary has an all-zero column")

    ynorm = np.linalg.norm(y)
    residual = y.copy()
    support: list[int] = []
    coeffs = np.zeros(0)
    for _ in range(k):
        if _residual_is_zero(np.linalg.norm(residual), ynorm):
            break
        scores = np.abs(A.T @ residual)
        scores[support] = -1.0
        pick = int(np.argmax(scores))  # first max: smallest index wins ties
        support.append(pick)
        coeffs = least_squares(A[:, support], y)
        residual = y - A[:, support] @ coeffs
    return np.asarray(support, dtype=np.intp), coeffs


def block_omp(Y, A, budget: int) -> SparseCoeff:
    """Batchwise OMP: one greedy budget shared across all samples.

    Equivalent to OMP on the stacked sample vector with the block-diagonal
    dictionary (one copy of A per sample) but never materializes it. Each
    step selects the globally largest |correlation| over all (atom, sample)
    pairs not yet selected (ties break toward the smaller sample index, then
    the smaller atom index) and refits only that sample's coefficients on
    its enlarged support.
    """
    A = as_matrix(A, "A")
    Y = as_matrix(Y, "Y")
    m, n = A.shape
    if Y.shape[0] != m:
        raise ValueError(f"dimension mismatch: A is {m}x{n}, Y is {Y.shape[0]}x{Y.shape[1]}")
    p = Y.shape[1]
    if not (1 <= budget <= n * p):
        raise ValueError(f"budget must satisfy 1 <= budget <= n*p = {n * p}, got {budget}")
    _require_unit_atoms(A, "dictionary")

    ynorm = np.linalg.norm(Y)
    R = Y.copy()
    supports: list[list[int]] = [[] for _ in range(p)]
    coeffs: list[np.ndarray] = [np.zeros(0) for _ in range(p)]

    # per-column best candidate cache; only the refit column changes per step
    scores = np.abs(A.T @ R)
    best_vals = scores.max(axis=0)
    best_rows = scores.argmax(axis=0)
    col_sq = np.sum(R * R, axis=0)

    for _ in range(budget):
        if _residual_is_zero(np.sqrt(max(col_sq.sum(), 0.0)), ynorm):
            break
        j = int(np.argmax(best_vals))  # first max: smallest sample index
        i = int(best_rows[j])
        supports[j].append(i)
        coeffs[j] = least_squares(A[:, supports[j]], Y[:, j])
        R[:, j] = Y[:, j] - A[:, supports[j]] @ coeffs[j]
        col_sq[j] = float(np.dot(R[:, j], R[:, j]))
        col_scores = np.abs(A.T @ R[:, j])
        col_scores[supports[j]] = -1.0
        best_vals[j] = col_scores.max()
        best_rows[j] = col_scores.argmax()

    X = SparseCoeff(n, p)
    for j in range(p):
        for i, c in zip(supports[j], coeffs[j]):
            X.set(i, j, c)
    return X


def _code_per_sample(Y, A, k: int) -> SparseCoeff:
    """OMP-code every column of Y against A with at most ``k`` atoms each."""
    X = SparseCoeff(A.shape[1], Y.shape[1])
    for j in range(Y.shape[1]):
        supp, coef = omp(Y[:, j], A, k)
        for i, c in zip(supp, coef):
            X.set(int(i), j, c)
    return X


def initial_dictionary(Y, n_atoms: int, rng: np.random.Generator) -> np.ndarray:
    """Seed dictionary: distinct sample columns, Gaussian fill-ins, unit norms.

    Picks ``n_atoms`` distinct columns of Y uniformly at random and
    normalizes them; zero columns are skipped and any shortfall (including
    p < n_atoms) is filled with normalized Gaussian atoms.
    """
    Y = as_matrix(Y, "Y")
    if n_atoms < 1:
        raise ValueError("n_atoms must be at least 1")
    m, p = Y.shape
    A = np.empty((m, n_atoms))
    count = 0
    for j in rng.permutation(p):
        nrm = np.linalg.norm(Y[:, j])
        if nrm > 0.0:
            A[:, count] = Y[:, j] / nrm
            count += 1
            if count == n_atoms:
                break
    while count < n_atoms:
        g = rng.standard_normal(m)
        nrm = np.linalg.norm(g)
        if nrm > 0.0:
            A[:, count] = g / nrm
            count += 1
    return A


def reseed_dead_atoms(A: np.ndarray, dead_rows, Y, residual) -> int:
    """Replace unused atoms in-place with the worst-represented samples.

    Dead atoms point at the sample columns with the largest residual norms
    (normalized, distinct per call, skipping zero samples). Falls back to a
    basis vector in the pathological case where no usable sample remains.
    Returns the number of atoms replaced.
    """
    dead_rows = sorted(int(i) for i in dead_rows)
    if not dead_rows:
        return 0
    m = A.shape[0]
    order = np.argsort(-np.linalg.norm(residual, axis=0), kind="stable")
    candidates = iter(order)
    for i in dead_rows:
        atom = None
        for j in candidates:
            nrm = np.linalg.norm(Y[:, j])
            if nrm > 0.0:
                atom = Y[:, j] / nrm
                break
        if atom is None:
            atom = np.zeros(m)
            atom[i % m] = 1.0
        A[:, i] = atom
        log.debug("re-seeded dead atom %d", i)
    return len(dead_rows)


def dict_approx_init(Y, A0, budget: int, iters: int):
    """Alternating warm start: batchwise OMP then a dictionary least squares.

    Runs ``iters`` rounds of {X <- block_omp(Y, A, budget); A <- argmin
    ||Y - A X||_F^2 over the atoms with nonempty rows}, re-normalizing atoms
    (with compensating row rescales) after every dictionary update. Returns
    the final pair plus the objective recorded after every half-step; the
    recorded sequence carries no monotonicity guarantee. Atoms whose rows
    stayed empty through every round are re-seeded at the end.
    """
    Y = as_matrix(Y, "Y")
    A0 = as_matrix(A0, "A0")
    if iters < 1:
        raise ValueError("iters must be at least 1")
    _require_unit_atoms(A0, "A0")
    n = A0.shape[1]
    A = A0.copy()
    trace: list[float] = []
    used_ever = np.zeros(n, dtype=bool)

    for _ in range(iters):
        X = block_omp(Y, A, budget)
        Xd = X.to_dense()
        trace.append(_sq_norm(Y - A @ Xd))
        used = _fit_atoms(Y, A, X, Xd)
        used_ever |= used
        # re-normalize so the next coding round sees unit atoms; only used
        # atoms, since rescaling an untouched atom by a norm a rounding error
        # away from 1 would change its bits
        _normalize_atoms(A, X, np.flatnonzero(used))
        trace.append(_sq_norm(Y - A @ X.to_dense()))

    dead = np.flatnonzero(~used_ever)
    if dead.size:
        reseed_dead_atoms(A, dead, Y, Y - A @ X.to_dense())
        log.info("dictionary init: re-seeded %d never-used atoms", dead.size)
    return A, X, trace
