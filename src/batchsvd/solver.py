"""Batchwise monotone dictionary learning.

The solver alternates three phases that each provably never increase the
squared reconstruction error while the total structural nonzero count stays
fixed: inner-row switching (relocate one row's nonzeros among columns),
inter-row switching (exchange nonzeros between row pairs on their unique
columns), and amplitude adjustment (alternating least squares with the
support frozen). A standard K-SVD baseline with a per-sample budget lives
here too for equal-budget comparisons.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .coding import (
    LearnConfig,
    SparseCoeff,
    _code_per_sample,
    _fit_atoms,
    _indices,
    _join_rows,
    _normalize_atoms,
    _require_unit_atoms,
    _split_rows,
    reseed_dead_atoms,
)
from .linalg import NumericalError, _sq_norm, as_matrix, rank1_svd, solve_gram

log = logging.getLogger(__name__)

PHASES = ("inner", "inter", "amplitude", "outer")
# phases whose consecutive trace values must never increase
MONOTONE_PHASES = frozenset({"inner", "inter", "amplitude"})


class BudgetError(NumericalError):
    """The structural nonzero count drifted away from the fixed budget."""


def _rises(a: float, b: float, rtol: float) -> bool:
    return b - a > rtol * max(abs(a), abs(b))


class ObjectiveTrace:
    """Ordered (phase, objective) samples recorded during a solver run."""

    def __init__(self):
        self._entries: list[tuple[str, float]] = []

    def append(self, phase: str, value: float):
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        value = float(value)
        if not np.isfinite(value):
            raise NumericalError(f"non-finite objective recorded in phase {phase!r}")
        self._entries.append((phase, value))

    def entries(self) -> list:
        return list(self._entries)

    def values(self, phase: str | None = None) -> list:
        if phase is None:
            return [v for _, v in self._entries]
        return [v for ph, v in self._entries if ph == phase]

    def phase_violations(self, rtol: float = 1e-9) -> list:
        """Monotonicity breaks within contiguous runs of a monotone phase."""
        bad = []
        for (ph_a, a), (ph_b, b) in zip(self._entries, self._entries[1:]):
            if ph_a == ph_b and ph_b in MONOTONE_PHASES and _rises(a, b, rtol):
                bad.append((ph_b, a, b))
        return bad

    def outer_violations(self, rtol: float = 1e-9) -> list:
        """Monotonicity breaks across the outer objective sequence."""
        seq = self.values("outer")
        return [(a, b) for a, b in zip(seq, seq[1:]) if _rises(a, b, rtol)]


@dataclass
class RowWorkspace:
    """One coefficient row mid-update: its atom and its aligned entries.

    ``support`` and ``values`` are aligned; the support is what the nonzero
    budget counts. ``degenerate`` is set by :func:`inner_row_switch` when
    the row's residual block was all zero and its values were zeroed.
    """

    atom: np.ndarray
    support: np.ndarray
    values: np.ndarray
    degenerate: bool = field(default=False)


def _top_k(mag: np.ndarray, k: int) -> np.ndarray:
    """Ascending indices of the ``k`` largest entries of ``mag``, ties to the smaller index.

    The set is that of ``np.argsort(-mag, kind="stable")[:k]``, found by one
    partition instead of a full sort: every entry above the k-th largest
    value ``t``, plus the lowest-index entries equal to ``t``.
    """
    if k >= mag.size:
        return np.arange(mag.size)
    t = np.partition(mag, mag.size - k)[mag.size - k]
    above = np.flatnonzero(mag > t)
    ties = np.flatnonzero(mag == t)[: k - above.size]
    return np.sort(np.concatenate((above, ties)))


def _row_arrays(row: RowWorkspace, p: int):
    """A row's support, values and p-column support mask; a malformed row raises ValueError."""
    supp = _indices(row.support, "support column").astype(np.intp, copy=False)
    vals = np.asarray(row.values, dtype=np.float64).reshape(-1)
    if vals.size != supp.size:
        raise ValueError("support and values length mismatch")
    bad = np.flatnonzero((supp < 0) | (supp >= p))
    if bad.size:
        raise ValueError(f"support column {supp[bad[0]]} out of range for {p} columns")
    mask = np.zeros(p, dtype=bool)
    mask[supp] = True
    if np.count_nonzero(mask) != supp.size:
        raise ValueError("duplicate support column")
    return supp, vals, mask


def inner_row_switch(residual, row: RowWorkspace, n_iters: int):
    """Alternate rank-1 refits with support re-selection for one row.

    ``residual`` is the batch residual with this row's contribution added
    back. Each round replaces the atom by the leading left singular vector
    of the residual restricted to the current support, then re-selects the
    support as the ``k`` columns, over all columns, with the largest
    |projection| onto that atom and sets the coefficients to those
    projections. Tie rule: at the selection boundary, equal |projections|
    go to the smaller column indices, as a stable sort would. The support
    size never changes. A repeated, negative or out-of-range support column,
    or values of another length, raise ValueError.

    Returns the updated row and the local objective recorded at entry and
    after every half-step; the sequence is non-increasing.
    """
    if np.ndim(residual) != 2:
        raise ValueError("residual must be a 2-D array")
    if n_iters < 1:
        raise ValueError("n_iters must be at least 1")
    supp, vals, _ = _row_arrays(row, residual.shape[1])
    k = supp.size
    if k < 1:
        raise ValueError("inner-row switching needs a nonempty support")
    a = np.asarray(row.atom, dtype=np.float64).copy()

    fnorm_sq = _sq_norm(residual)
    c_supp = residual[:, supp].T @ a
    entry_obj = fnorm_sq - 2.0 * float(vals @ c_supp) + float(a @ a) * float(vals @ vals)
    locals_ = [entry_obj]
    degenerate = False

    for _ in range(n_iters):
        block = residual[:, supp]
        if not block.any():
            # nothing to fit on this support: zero the row, keep the atom
            vals = np.zeros(k)
            degenerate = True
            locals_.append(fnorm_sq)
            break
        triple = rank1_svd(block)
        # monotonicity guard: keep the incoming atom if the (possibly
        # unconverged) power iteration returned a weaker direction
        a_norm = np.linalg.norm(a)
        if a_norm > 0.0:
            a_unit = a / a_norm
            old_energy = float(np.sum((block.T @ a_unit) ** 2))
            a = triple.u if triple.sigma**2 >= old_energy else a_unit
        else:
            a = triple.u
        proj = residual.T @ a
        locals_.append(fnorm_sq - float(np.sum(proj[supp] ** 2)))
        supp = _top_k(np.abs(proj), k)
        vals = proj[supp]
        locals_.append(fnorm_sq - float(np.sum(vals**2)))

    return RowWorkspace(a, supp, vals, degenerate), locals_


def inter_row_switch(residual, row_i: RowWorkspace, row_j: RowWorkspace):
    """Exchange structural nonzeros between two rows, count preserved.

    ``residual`` is the batch residual with both rows' contributions removed.
    Every column outside the two rows' shared support is a candidate; each
    candidate column offers its better-|projection| row, and the strongest
    candidates, as many as the symmetric difference of the two supports,
    become the new support on those columns with the projection values as
    coefficients. Tie rules: a column with equal |projections| offers the
    first row, and at the selection boundary equal candidates go to the
    smaller column indices, as a stable sort would. Shared-support columns
    keep their old entries bit for bit, so the combined nonzero count of the
    two rows is exactly preserved and the joint local objective never
    increases. Malformed rows raise ValueError as in :func:`inner_row_switch`.
    """
    Yt = as_matrix(residual, "residual")
    p = Yt.shape[1]
    a_i = np.asarray(row_i.atom, dtype=np.float64)
    a_j = np.asarray(row_j.atom, dtype=np.float64)
    if a_i.shape[0] != Yt.shape[0] or a_j.shape[0] != Yt.shape[0]:
        raise ValueError("atom length does not match the residual row count")
    _require_unit_atoms(np.column_stack((a_i, a_j)), "row-pair atom")
    (si, vi, in_i), (sj, vj, in_j) = (_row_arrays(ws, p) for ws in (row_i, row_j))
    shared = in_i & in_j
    unique_count = np.count_nonzero(in_i ^ in_j)
    if unique_count == 0:
        return row_i, row_j

    M = np.vstack((a_i, a_j)) @ Yt
    absM = np.abs(M)
    pick_first = absM[0] >= absM[1]  # ties go to the first row
    best = np.where(pick_first, absM[0], absM[1])
    best[shared] = -1.0  # below every candidate, so never picked
    picked = _top_k(best, unique_count)

    # shared columns keep their entries; each picked column joins its row
    out = []
    for r, (ws, supp, vals) in enumerate(((row_i, si, vi), (row_j, sj, vj))):
        keep = shared[supp]
        new = picked[pick_first[picked] == (r == 0)]
        cols = np.concatenate((supp[keep], new))
        order = np.argsort(cols)
        values = np.concatenate((vals[keep], M[r, new]))
        out.append(RowWorkspace(ws.atom, cols[order], values[order]))
    return tuple(out)


def _working_copies(Y, A, X: SparseCoeff):
    """Validated Y plus a private copy of A for a solver to update."""
    Y = as_matrix(Y, "Y")
    A = as_matrix(A, "A").copy()
    if X.n != A.shape[1] or X.p != Y.shape[1] or A.shape[0] != Y.shape[0]:
        raise ValueError(f"shape mismatch: Y {Y.shape}, A {A.shape}, X {X.n}x{X.p}")
    return Y, A


def amplitude_adjust(Y, A, X: SparseCoeff, n_iters: int):
    """Alternating least squares on amplitudes with the support frozen.

    Each of the ``n_iters`` rounds recomputes the used atoms by an
    unconstrained least squares against the fixed coefficients, then refits
    every column's coefficients on its fixed support. That coefficient
    half-step takes all its small systems ``A_S^T A_S z = A_S^T y_j`` from
    one Gram ``G = A_u^T A_u`` of the used atoms per round (the precomputed
    Gram of Batch-OMP): the columns are grouped by support size once per
    call, and each group is solved as one stack by :func:`solve_gram`.
    Structural positions of X are bit-identical before and after, and atoms
    whose rows are empty are left untouched. The objective never increases
    at either half-step as long as every solve is exact; a system that
    :func:`solve_gram` has to ridge is solved only approximately, so a
    ridged round can raise it slightly. Returns updated copies of A and X
    and the objective after each round.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be at least 1")
    Y, A = _working_copies(Y, A, X)
    rows, cols, vals = X.entries()  # the support is frozen: take it once, in column order
    vals = vals.copy()  # the stored arrays are read-only
    used, slot = np.unique(rows, return_inverse=True)  # slot: entry's row within used
    sizes = np.bincount(cols, minlength=X.p)
    starts = np.cumsum(sizes) - sizes
    groups = []  # (columns, (c, k) entry positions) per support size k
    for k in np.unique(sizes[sizes > 0]):
        js = np.flatnonzero(sizes == k)
        groups.append((js, starts[js, None] + np.arange(k)))

    objectives = []
    for _ in range(n_iters):
        _fit_atoms(Y, A, rows, cols, vals)
        Au = A[:, used]
        G = Au.T @ Au
        for js, pos in groups:
            S = slot[pos]
            rhs = np.einsum("mck,mc->ck", Au[:, S], Y[:, js])
            vals[pos] = solve_gram(G[S[:, :, None], S[:, None, :]], rhs)
        Xd = np.zeros((X.n, X.p))
        Xd[rows, cols] = vals
        objectives.append(_sq_norm(Y - A @ Xd))
        del Xd  # not held through the next round's solves: it would raise the peak memory
    return A, SparseCoeff.from_triplets(X.n, X.p, rows, cols, vals), objectives


def _sample_pairs(n: int, fraction: float, rng: np.random.Generator) -> list:
    """A seeded ``fraction`` of the row pairs ``(i, j)``, ``i < j``, in lexicographic order.

    Draws pair indices in lexicographic numbering and maps each back to its
    pair by arithmetic, so the n(n-1)/2 pairs are never built.
    """
    total = n * (n - 1) // 2
    if total == 0:
        return []
    count = min(total, int(np.ceil(fraction * total)))
    chosen = (np.arange(total) if count >= total
              else np.sort(rng.choice(total, size=count, replace=False)))
    lengths = np.arange(n - 1, 0, -1)  # pairs whose first row is i
    starts = np.cumsum(lengths) - lengths  # index of the pair (i, i + 1)
    i = np.searchsorted(starts, chosen, side="right") - 1
    return list(zip(i.tolist(), (chosen - starts[i] + i + 1).tolist()))


def batch_svd(Y, A, X: SparseCoeff, cfg: LearnConfig):
    """Monotone batchwise solver: switching plus amplitude refinement.

    Rows are ordered once by descending support size, then each outer round
    sweeps every nonempty row with :func:`inner_row_switch`, rescales atoms
    to unit norm, runs :func:`inter_row_switch` over a seeded sample of row
    pairs whenever the inner phase improved by less than ``cfg.trigger``, and
    finishes with ``cfg.amplitude_iters`` amplitude alternations. Stops when
    an outer round improves by at most ``cfg.epsilon`` or after
    ``cfg.max_outer`` rounds.

    Returns the updated dictionary and coefficients (atoms unit-normalized)
    together with the recorded objective trace. The structural nonzero count
    of X is identical before and after.
    """
    Y, A = _working_copies(Y, A, X)
    n, p = X.n, X.p
    nnz_total = X.nnz

    # visit heavier rows first; the order is fixed for the whole run
    rows, cols, vals = X.entries()
    order = np.argsort(-np.bincount(rows, minlength=n), kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)  # new index of each old row
    A = A[:, order]
    X = SparseCoeff.from_triplets(n, p, rank[rows], cols, vals)

    rng = np.random.default_rng(cfg.seed)
    trace = ObjectiveTrace()
    R = Y - A @ X.to_dense()
    obj = _sq_norm(R)
    trace.append("outer", obj)

    for outer in range(cfg.max_outer):
        if outer:
            R = Y - A @ X.to_dense()  # refresh the residual to cap incremental drift
        outer_start = obj
        supports, values = _split_rows(X)  # row i's ascending columns and their values

        # --- inner-row phase ---
        for i in range(n):
            if supports[i].size == 0:
                continue
            supp, vals = supports[i], values[i]
            R[:, supp] += np.outer(A[:, i], vals)
            ws, local = inner_row_switch(R, RowWorkspace(A[:, i], supp, vals), cfg.inner_sweeps)
            A[:, i] = ws.atom
            supports[i], values[i] = ws.support, ws.values
            R[:, ws.support] -= np.outer(ws.atom, ws.values)
            obj = local[-1]
            trace.append("inner", obj)
        inner_decrement = outer_start - obj

        factors = _normalize_atoms(A, range(n))  # objective-neutral
        values = [v * f for v, f in zip(values, factors)]

        # --- inter-row phase, only when the inner phase stalls ---
        if inner_decrement < cfg.trigger:
            fraction = cfg.effective_pair_fraction(n)
            for i, j in _sample_pairs(n, fraction, rng):
                si, vi = supports[i], values[i]
                sj, vj = supports[j], values[j]
                if np.array_equal(si, sj):
                    continue  # equal (sorted) supports: empty symmetric difference, no-op
                cover = np.zeros(p, dtype=bool)  # columns either row touches
                cover[si] = cover[sj] = True
                sq_old = float(np.sum(R[:, np.flatnonzero(cover)] ** 2))
                R[:, si] += np.outer(A[:, i], vi)
                R[:, sj] += np.outer(A[:, j], vj)
                wi, wj = inter_row_switch(
                    R, RowWorkspace(A[:, i], si, vi), RowWorkspace(A[:, j], sj, vj)
                )
                gained = np.zeros(p, dtype=bool)
                gained[wi.support] = gained[wj.support] = True
                gained &= ~cover
                sq_old += float(np.sum(R[:, np.flatnonzero(gained)] ** 2))
                R[:, wi.support] -= np.outer(wi.atom, wi.values)
                R[:, wj.support] -= np.outer(wj.atom, wj.values)
                supports[i], values[i] = wi.support, wi.values
                supports[j], values[j] = wj.support, wj.values
                obj += float(np.sum(R[:, np.flatnonzero(cover | gained)] ** 2)) - sq_old
                trace.append("inter", obj)

        # --- re-seed unused atoms (objective-neutral: their rows are zero) ---
        dead = [i for i in range(n) if supports[i].size == 0]
        if dead:
            reseed_dead_atoms(A, dead, Y, R)

        # --- amplitude phase, on the edited rows joined back and checked ---
        X = _join_rows(n, p, supports, values)
        A, X, objectives = amplitude_adjust(Y, A, X, cfg.amplitude_iters)
        for obj in objectives:
            trace.append("amplitude", obj)

        trace.append("outer", obj)
        if X.nnz != nnz_total:
            raise BudgetError(f"nonzero budget violated: {X.nnz} entries, budget {nnz_total}")
        if outer_start - obj <= cfg.epsilon:
            break

    factors = _normalize_atoms(A, range(n))  # unit-norm atoms on the way out
    rows, cols, vals = X.entries()
    return A, SparseCoeff.from_triplets(n, p, rows, cols, vals * factors[rows]), trace


def ksvd(Y, A0, k: int, iters: int):
    """Classic K-SVD with a fixed per-sample budget.

    Codes every sample independently with OMP (at most ``k`` atoms each),
    then updates atoms one at a time by a rank-1 fit of the residual
    restricted to the samples using that atom. Unused atoms are re-seeded
    from the worst-represented samples. The recorded objective trace is not
    guaranteed monotone: the greedy coding step can increase it.
    """
    Y = as_matrix(Y, "Y")
    A0 = as_matrix(A0, "A0")
    m, p = Y.shape
    n = A0.shape[1]
    if A0.shape[0] != m:
        raise ValueError(f"dimension mismatch: Y is {m}x{p}, A0 is {A0.shape[0]}x{n}")
    if not (1 <= k <= min(m, n)):
        raise ValueError(f"k must satisfy 1 <= k <= min(m, n) = {min(m, n)}, got {k}")
    _require_unit_atoms(A0, "A0")
    if iters < 1:
        raise ValueError("iters must be at least 1")

    A = A0.copy()
    trace = ObjectiveTrace()

    for _ in range(iters):
        coded = _code_per_sample(Y, A, k)
        Xd = coded.to_dense()
        row_users = _split_rows(coded)[0]
        trace.append("outer", _sq_norm(Y - A @ Xd))

        # atom-by-atom rank-1 updates
        for i in range(n):
            cols = row_users[i]
            if not cols.size:
                reseed_dead_atoms(A, [i], Y, Y - A @ Xd)
                continue
            E = Y[:, cols] - A @ Xd[:, cols] + np.outer(A[:, i], Xd[i, cols])
            if not E.any():
                Xd[i, cols] = 0.0
                continue
            triple = rank1_svd(E)
            A[:, i] = triple.u
            Xd[i, cols] = triple.sigma * triple.v
        trace.append("outer", _sq_norm(Y - A @ Xd))

    rows, cols, _ = coded.entries()  # last coding pass's support, updated values
    return A, SparseCoeff.from_triplets(n, p, rows, cols, Xd[rows, cols]), trace
