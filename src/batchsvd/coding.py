"""Greedy sparse coding over sample batches.

The coefficient matrix is one immutable set of ``(rows, cols, vals)``
triplet arrays in column-then-row order, and every reader and writer moves
it whole; the global budget is its entry count. The switching procedures
edit it as per-row ``(support, values)`` lists split from the triplets and
joined back, checked, once per outer round.
Coding is greedy pursuit on one kernel, :class:`_Paths`, that advances
blocks of samples one OMP level at a time by :func:`linalg._refit`, as the
amplitude phase refits: per-sample OMP, and a merge of those paths, by one
selection over their running-minimum gains, that spends one nonzero budget
across all samples at once.
"""
from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import _blocks, _factors, _refit, _residual, as_matrix, as_vector, solve_gram

log = logging.getLogger(__name__)

UNIT_NORM_TOL = 1e-8
# residuals below this (relative to the input norm, floored at 1) count as zero
ZERO_RESIDUAL_RTOL = 1e-12


class SparseCoeff:
    """Immutable sparse n x p coefficient matrix held as triplet arrays.

    The one constructor, ``SparseCoeff(n, p, rows, cols, vals)``, takes
    aligned row-index, column-index and value arrays (:meth:`from_dense`
    passes it a dense array's nonzeros); no triplets give the empty matrix.
    Every index must lie in range, every value be finite and every
    ``(row, col)`` pair appear once. Entries are structural: a stored value
    may be numerically zero and still counts toward the nonzero budget. The
    store is three read-only arrays, ``intp`` rows, ``intp`` columns and
    ``float64`` values, in the canonical order: by column, then row.
    :meth:`entries` returns them; code that edits rows splits them with
    :func:`_split_rows` and joins its edits back with :func:`_join_rows`.
    """

    __slots__ = ("n", "p", "_rows", "_cols", "_vals")

    def __init__(self, n: int, p: int, rows=(), cols=(), vals=()):
        n, p = int(n), int(p)
        if n < 1 or p < 1:
            raise ValueError(f"SparseCoeff needs n >= 1 and p >= 1, got {n}x{p}")
        self.n, self.p = n, p
        rows, cols = _indices(rows, "row"), _indices(cols, "column")
        vals = np.asarray(vals, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(vals)):
            raise ValueError("coefficient values must be finite")
        if not rows.size == cols.size == vals.size:
            raise ValueError("rows, cols and vals differ in length")
        for index, size, kind in ((rows, n, "row"), (cols, p, "column")):
            bad = np.flatnonzero((index < 0) | (index >= size))
            if bad.size:
                raise ValueError(f"{kind} index {index[bad[0]]} out of range for {n}x{p}")
        rows, cols = rows.astype(np.intp, copy=False), cols.astype(np.intp, copy=False)
        order, t = _canonical_order(rows, cols)
        if t is not None:
            raise ValueError(f"duplicate entry ({rows[t]}, {cols[t]})")
        self._rows, self._cols, self._vals = rows[order], cols[order], vals[order]
        for a in self.entries():
            a.flags.writeable = False

    @classmethod
    def from_dense(cls, arr) -> "SparseCoeff":
        """Build from a dense array; structural support = exact nonzeros."""
        arr = as_matrix(arr, "coefficient matrix")
        rows, cols = np.nonzero(arr)
        return cls(*arr.shape, rows, cols, arr[rows, cols])

    @property
    def nnz(self) -> int:
        return self._vals.size

    def entries(self):
        """The stored read-only ``(rows, cols, vals)`` arrays, sorted by column, then row."""
        return self._rows, self._cols, self._vals

    def to_dense(self) -> np.ndarray:
        """The dense n x p array, for tests and small inputs; the package never calls it."""
        out = np.zeros((self.n, self.p))
        out[self._rows, self._cols] = self._vals
        return out

    def __eq__(self, other):
        if not isinstance(other, SparseCoeff):
            return NotImplemented
        return (self.n, self.p) == (other.n, other.p) and all(
            map(np.array_equal, self.entries(), other.entries()))

    def __repr__(self):
        return f"SparseCoeff({self.n}x{self.p}, nnz={self.nnz})"


def _split_rows(X: SparseCoeff):
    """Per-row ``(supports, values)`` lists of X: row i's columns ascending, aligned values."""
    rows, cols, vals = X.entries()
    order = np.lexsort((cols, rows))
    bounds = np.cumsum(np.bincount(rows, minlength=X.n))[:-1]
    return np.split(cols[order], bounds), np.split(vals[order], bounds)


def _join_rows(n: int, p: int, supports, values) -> SparseCoeff:
    """The n x p store whose row i holds ``supports[i]`` with ``values[i]``; checked as any triplets."""
    rows = np.repeat(np.arange(n), [s.size for s in supports])
    return SparseCoeff(n, p, rows, np.concatenate(supports), np.concatenate(values))


def _indices(a, kind: str) -> np.ndarray:
    """``a`` as a 1-D index array; a non-integer dtype (1.5, NaN, inf, True) is refused."""
    a = np.asarray(a).reshape(-1)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{kind} indices must be integers, got dtype {a.dtype}")
    return a


def _count(value, name: str, least: int = 1):
    """``value`` if an integer of at least ``least`` (numpy's too, not a bool); else ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return value


def _canonical_order(rows, cols):
    """The column-then-row sort order of the pairs, and the position of the
    first pair that repeats an earlier one, or None."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    order = np.lexsort((rows, cols))  # stable: each pair's first position leads its run
    rows, cols = rows[order], cols[order]
    repeat = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
    return order, (int(order[1:][repeat].min()) if repeat.any() else None)


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
        for name in ("budget", "init_iters", "inner_sweeps", "amplitude_iters", "max_outer"):
            _count(getattr(self, name), name)
        _count(self.seed, "seed", 0)
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


def _require_unit_atoms(A, name: str):
    if not np.all(np.abs(np.linalg.norm(A, axis=0) - 1.0) <= UNIT_NORM_TOL):  # NaN fails
        raise ValueError(f"{name} columns must be unit-normalized")


def _normalize_atoms(A: np.ndarray) -> np.ndarray:
    """Rescale every atom of A to unit norm in place; return the per-atom factors.

    The one atom normalization of the package: the solver, the warm start
    and the rnd-omp baseline all call it. Multiplying each coefficient row
    by its atom's factor (the old ``axis=0`` norm) keeps A X unchanged. A
    zero atom gets factor 1.0, as does an atom whose norm is exactly 1.0, so
    dividing by it leaves the atom's bits and its row's values as they were.
    """
    nrm = np.linalg.norm(A, axis=0)
    factors = np.where(nrm > 0.0, nrm, 1.0)
    A /= factors
    return factors


def _atom_fitter(X: SparseCoeff):
    """The dictionary least squares on X's frozen support, as ``(used, slot, fit)``.

    ``fit(Y, A, vals)`` solves ``min ||Y - A_u X_u||_F`` in place over the
    ``used`` atoms (ascending), whose rows ``X_u`` are X's entries with values
    ``vals``; ``slot`` is each entry's row within ``used``. Other atoms are
    left untouched. ``X_u X_u^T`` is one weighted ``bincount`` over every
    pair of entries sharing a column, and ``X_u Y^T`` one per row of Y; their
    index plan is built once, here, on X's column-contiguous order.
    """
    rows, cols, _ = X.entries()
    used, slot = np.unique(rows, return_inverse=True)
    u = used.size
    counts = np.bincount(cols)
    size = counts[cols]  # entries in each entry's column
    first = np.repeat(np.arange(cols.size), size)  # entry e once per entry of its column
    offset = np.arange(first.size) - np.repeat(np.cumsum(size) - size, size)
    second = np.repeat((np.cumsum(counts) - counts)[cols], size) + offset  # its partners
    pair = slot[first] * u + slot[second]

    def fit(Y, A, vals):
        gram = np.bincount(pair, weights=vals[first] * vals[second], minlength=u * u)
        rhs = np.empty((u, Y.shape[0]))
        for d, y in enumerate(Y):
            rhs[:, d] = np.bincount(slot, weights=vals * y[cols], minlength=u)
        A[:, used] = solve_gram(gram.reshape(u, u), rhs).T

    return used, slot, fit


def omp(y, A, k: int):
    """Orthogonal matching pursuit for one sample, as :func:`_code_per_sample` does it.

    Greedily adds the atom with the largest |correlation| against the current
    residual (ties break toward the smaller atom index), then refits all
    selected coefficients by least squares. Returns the selected indices in
    selection order and the matching coefficients; fewer than ``k`` indices
    come back when the residual reaches zero early.
    """
    A, y = as_matrix(A, "A"), as_vector(y, "y")
    return _pursue(y[:, None], A, k)[::2]  # (rows, vals)


def block_omp(Y, A, budget: int) -> SparseCoeff:
    """Batchwise OMP: one greedy budget shared across all samples.

    OMP on the stacked samples with the block-diagonal dictionary: each step
    takes the largest |correlation| over unselected (atom, sample) pairs,
    ties to the smaller sample, then atom, and refits only that sample. So
    each sample follows its own OMP path, and the pursuit merges the p
    paths, taking step t of a path only after its step t - 1. That merge
    takes the steps in descending order of their running-minimum gain
    ``min(gain[j, :t + 1])``, ties to the smaller sample, then the earlier
    step, so its picks are the first ``budget`` steps of that order. They
    are selected in rounds: each ranks the computed steps by one partition
    and extends, by one level, every path whose computed steps were all
    picked, until no such path is left. The pursuit stops before the first
    pick at which the whole residual is zero relative to ``||Y||``; a
    sample may take more than m atoms, up to n.
    """
    A, Y = as_matrix(A, "A"), as_matrix(Y, "Y")
    n, p = A.shape[1], Y.shape[1]
    if _count(budget, "budget") > n * p:
        raise ValueError(f"budget must satisfy 1 <= budget <= n*p = {n * p}, got {budget}")
    _require_unit_atoms(A, "dictionary")

    zero_tol = ZERO_RESIDUAL_RTOL * max(1.0, np.linalg.norm(Y))  # the residual-is-zero bound
    paths = _Paths(Y, A)
    running = np.full(p, np.inf)  # running-minimum gain of each path's last computed step
    first_zero = np.full(p, n + 1)  # the first level at which a sample's residual is zero
    sample, step, kappa = np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0)
    grow = np.arange(p)
    while grow.size:
        paths.extend(grow)
        level = paths.known[grow] - 1
        hit = grow[np.sqrt(paths.sq[grow, level]) <= zero_tol]
        first_zero[hit] = np.minimum(first_zero[hit], paths.known[hit] - 1)
        grow, level = grow[level < n], level[level < n]  # level n is a residual, not a step
        running[grow] = np.minimum(running[grow], paths.gain[grow, level])
        sample, step = np.concatenate((sample, grow)), np.concatenate((step, level))
        kappa = np.concatenate((kappa, running[grow]))
        picks = _top_k(kappa, budget, sample)
        used = np.bincount(sample[picks], minlength=p)
        grow = np.flatnonzero(used == paths.known)  # every computed step picked: extend
        if np.all(first_zero <= np.minimum(used, paths.known - 1)):
            stop = _zero_stop(paths, sample, step, kappa, picks, grow, zero_tol)
            if stop is not None:
                used = stop
                break
    return SparseCoeff(n, p, *paths.triplets(used))


def _zero_stop(paths, sample, step, kappa, picks, grow, zero_tol):
    """Per-sample pick counts at which :func:`block_omp` stops on a zero residual, or None.

    The pursuit stops before the first pick at which ``sqrt(col_sq.sum())``
    is at most ``zero_tol``, where ``col_sq[j] = sq[j, c_j]`` for the c_j
    steps taken from sample j so far. A rounded sum of non-negative terms is
    never below its largest term, so only states in which every sample's
    residual is zero on its own are summed. The ``picks`` of the computed
    steps ``(sample, step, kappa)`` are put in the merge's order, and only
    the states that no later round can change are tested: those before the
    last computed step of a path in ``grow``.
    """
    sq = paths.sq
    order = picks[np.lexsort((step[picks], sample[picks], -kappa[picks]))]
    j, t = sample[order], step[order]  # after each pick, j's residual is sq[j, t + 1]
    if grow.size:
        end = (np.isin(j, grow) & (t == paths.known[j] - 1)).argmax()
        j, t = j[:end], t[:end]
    zero = np.sqrt(sq) <= zero_tol
    flips = zero[j, t].astype(np.intp) - zero[j, t + 1]
    nonzero = np.count_nonzero(~zero[:, 0]) + np.concatenate(([0], np.cumsum(flips)))
    for s in np.flatnonzero(nonzero[:picks.size] == 0):  # states before a pick
        counts = np.bincount(j[:s], minlength=sq.shape[0])
        if math.sqrt(sq[np.arange(sq.shape[0]), counts].sum()) <= zero_tol:
            return counts
    return None


def _top_k(mag: np.ndarray, k: int, rank=None) -> np.ndarray:
    """Ascending indices of the ``k`` largest entries of ``mag``.

    Ties go to the smaller index, as in ``np.argsort(-mag, kind="stable")[:k]``,
    or with ``rank`` given to the smaller ``rank``, then the smaller index.
    One partition finds the k-th largest value ``t`` instead of a full sort:
    every entry above ``t`` is taken, then the first entries equal to it.
    """
    if k >= mag.size:
        return np.arange(mag.size)
    t = np.partition(mag, mag.size - k)[mag.size - k]
    above = np.flatnonzero(mag > t)
    ties = np.flatnonzero(mag == t)
    if rank is not None:
        ties = ties[np.argsort(rank[ties], kind="stable")]
    return np.sort(np.concatenate((above, ties[: k - above.size])))


def _code_per_sample(Y, A, k: int) -> SparseCoeff:
    """OMP-code every column of Y with at most ``k`` atoms each, all in one :class:`_Paths`."""
    A, Y = as_matrix(A, "A"), as_matrix(Y, "Y")
    return SparseCoeff(A.shape[1], Y.shape[1], *_pursue(Y, A, k))


def _pursue(Y: np.ndarray, A: np.ndarray, k: int):
    """Per-sample OMP triplets; a column stops early once its residual is zero."""
    m, n = A.shape
    paths = _Paths(Y, A)
    if _count(k, "k") > min(m, n):
        raise ValueError(f"k must satisfy 1 <= k <= min(m, n) = {min(m, n)}, got {k}")
    if np.any(np.linalg.norm(A, axis=0) == 0.0):
        raise ValueError("dictionary has an all-zero column")
    zero_tol = ZERO_RESIDUAL_RTOL * np.maximum(1.0, np.linalg.norm(Y, axis=0))
    depth = np.zeros(Y.shape[1], dtype=np.intp)
    live = np.arange(Y.shape[1])
    for d in range(k):
        paths.extend(live)
        live = live[~(np.sqrt(paths.sq[live, d]) <= zero_tol[live])]
        depth[live] = d + 1
    return paths.triplets(depth)


class _Paths:
    """Per-sample OMP paths of the columns of Y over A, computed level by level.

    Level d of column j refits y_j on its first d picks, recomputes the
    residual ``y_j - A_S c`` and takes the unused atom of largest |correlation|
    (first max on ties) as ``atom[j, d]``, with ``gain[j, d]`` the
    |correlation| and ``sq[j, d]`` the squared residual norm. A block of
    equal-depth columns costs one GEMM and one :func:`linalg._refit` on
    Grams gathered from ``A^T A``, whose :func:`solve_gram` keeps its ridge rule.
    """

    def __init__(self, Y, A):
        if Y.shape[0] != A.shape[0]:
            raise ValueError(f"dimension mismatch: A is {A.shape[0]}x{A.shape[1]}, "
                             f"Y is {Y.shape[0]}x{Y.shape[1]}")
        self.Yt, self.A, self.At, self.G = Y.T, A, np.ascontiguousarray(A.T), A.T @ A
        self.known = np.zeros(Y.shape[1], dtype=np.intp)
        self.atom = np.zeros((Y.shape[1], min(A.shape[1] + 1, 8)), dtype=np.intp)
        self.gain, self.sq = np.zeros(self.atom.shape), np.zeros(self.atom.shape)

    def extend(self, cols):
        """Compute the next level of every column in ``cols``: each advances exactly one level."""
        w, n = self.atom.shape[1], self.A.shape[1]
        if self.known[cols].max(initial=0) == w:  # double the depth capacity, up to n + 1
            pad = ((0, 0), (0, min(w, n + 1 - w)))
            grown = [np.pad(a, pad) for a in (self.atom, self.gain, self.sq)]
            self.atom, self.gain, self.sq = grown
        for d, js in _blocks(cols, self.known):
            R = _refit(self.Yt, self.At, self.G, self.atom[js, :d], js)[1]
            self.sq[js, d] = np.einsum("cm,cm->c", R, R)
            if d < n:
                # numpy multiplies one row by gemv, whose rounding differs from
                # gemm's: a lone column goes in twice, so that its bits never
                # depend on the columns that share its block
                prod = (R if js.size > 1 else np.repeat(R, 2, axis=0)) @ self.A
                scores = np.abs(prod, out=prod)[:js.size]  # in place: one c x n block, not two
                scores[np.arange(js.size)[:, None], self.atom[js, :d]] = -1.0
                self.atom[js, d] = scores.argmax(axis=1)
                self.gain[js, d] = scores[np.arange(js.size), self.atom[js, d]]
            self.known[js] = d + 1

    def triplets(self, depth):
        """Triplets of each column j's first ``depth[j]`` picks, refit once per depth."""
        coef = np.zeros(self.atom.shape)
        for d, js in _blocks(np.flatnonzero(depth), depth):
            coef[js, :d] = _refit(self.Yt, self.At, self.G, self.atom[js, :d], js)[0]
        keep = np.arange(coef.shape[1]) < depth[:, None]
        return self.atom[keep], np.repeat(np.arange(depth.size), depth), coef[keep]


def _unit_samples(Y, order, count: int) -> list:
    """The first ``count`` nonzero columns of Y in ``order``, each scaled to unit norm."""
    picked = []
    for j in order:
        if len(picked) == count:
            break
        nrm = np.linalg.norm(Y[:, j])  # per column: an axis=0 norm rounds differently
        if nrm > 0.0:
            picked.append(Y[:, j] / nrm)
    return picked


def initial_dictionary(Y, n_atoms: int, rng: np.random.Generator) -> np.ndarray:
    """Seed dictionary: distinct sample columns, Gaussian fill-ins, unit norms.

    Picks ``n_atoms`` distinct columns of Y uniformly at random and
    normalizes them (:func:`_unit_samples` on a random permutation); zero
    columns are skipped and any shortfall (including p < n_atoms) is filled
    with normalized Gaussian atoms.
    """
    Y = as_matrix(Y, "Y")
    _count(n_atoms, "n_atoms")
    m, p = Y.shape
    atoms = _unit_samples(Y, rng.permutation(p), n_atoms)
    while len(atoms) < n_atoms:
        g = rng.standard_normal(m)
        nrm = np.linalg.norm(g)
        if nrm > 0.0:
            atoms.append(g / nrm)
    return np.column_stack(atoms)


def reseed_dead_atoms(A: np.ndarray, dead_rows, Y, residual) -> int:
    """Replace unused atoms in-place with the worst-represented samples.

    Dead atoms, ascending, take the nonzero sample columns with the largest
    residual norms, normalized (:func:`_unit_samples`). The samples are
    distinct within a call, so every solver passes all of a round's dead
    atoms in one call. Falls back to a basis vector when no usable sample
    remains. Repeated, non-integer or out-of-range indices, or shapes other
    than A m x n and Y and residual m x p, raise ValueError (shapes only:
    no array is scanned). Returns the number of atoms replaced.
    """
    m, n = A.shape
    if np.ndim(Y) != 2 or np.shape(Y)[0] != m or np.shape(residual) != np.shape(Y):
        raise ValueError(f"shape mismatch: A is {A.shape}, Y is {np.shape(Y)}, "
                         f"residual is {np.shape(residual)}")
    given = _indices(dead_rows, "dead atom")
    dead = np.unique(given[(given >= 0) & (given < n)])  # ascending
    if dead.size != given.size:
        raise ValueError(f"dead atom indices must be distinct and in range for {n} atoms")
    if not dead.size:
        return 0
    order = np.argsort(-np.linalg.norm(residual, axis=0), kind="stable")
    samples = _unit_samples(Y, order, dead.size)
    for t, i in enumerate(dead):
        A[:, i] = samples[t] if t < len(samples) else np.eye(m)[i % m]
        log.debug("re-seeded dead atom %d", i)
    return dead.size


def dict_approx_init(Y, A0, budget: int, iters: int):
    """Alternating warm start: batchwise OMP then a dictionary least squares.

    Runs ``iters`` rounds of {X <- block_omp(Y, A, budget); A <- argmin
    ||Y - A X||_F^2 over the atoms with nonempty rows}, each ending with
    :func:`_normalize_atoms` of all atoms; the last X's rows take its
    factors. Returns the final pair ``(A, X)``; the rounds carry no
    monotonicity guarantee.
    Atoms whose rows stayed empty through every round are re-seeded at the
    end, all in one :func:`reseed_dead_atoms` call.
    """
    Y, A0 = _factors(Y, A0)
    _count(iters, "iters")
    _require_unit_atoms(A0, "A0")
    n = A0.shape[1]
    A = A0.copy()
    used_ever = np.zeros(n, dtype=bool)

    for _ in range(iters):
        X = block_omp(Y, A, budget)
        used, _, fit = _atom_fitter(X)
        fit(Y, A, X.entries()[2])
        used_ever[used] = True
        factors = _normalize_atoms(A)  # the next coding round sees unit atoms
    rows, cols, vals = X.entries()  # each round recodes from A: only the last X is rescaled
    X = SparseCoeff(n, X.p, rows, cols, vals * factors[rows])

    dead = np.flatnonzero(~used_ever)
    if dead.size:
        reseed_dead_atoms(A, dead, Y, _residual(Y, A, X))
        log.info("dictionary init: re-seeded %d never-used atoms", dead.size)
    return A, X
