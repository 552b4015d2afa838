"""Batchwise monotone dictionary learning.

The solver alternates three phases that each provably never increase the
squared reconstruction error while the total structural nonzero count stays
fixed: inner-row switching (relocate one row's nonzeros among columns),
inter-row switching (exchange nonzeros between row pairs on their unique
columns), and amplitude adjustment (alternating least squares with the
support frozen). ``batch_svd`` runs the switches' array kernels directly;
the public switches validate, then run them. A row's inner rounds end early
at a fixed point: once a converged rank-1 fit re-selects the support the
round began with. Every residual edit, a row's add-back or take-out (K-SVD's
too), is one :func:`_add_row`, which keeps ``||R||^2`` current for the trace.
A K-SVD baseline with a per-sample budget serves equal-budget comparisons.
"""
from __future__ import annotations

import logging
import math

import numpy as np

from .coding import (
    LearnConfig,
    SparseCoeff,
    _atom_fitter,
    _code_per_sample,
    _count,
    _indices,
    _join_rows,
    _normalize_atoms,
    _require_unit_atoms,
    _split_rows,
    _top_k,
    reseed_dead_atoms,
)
from .linalg import (NumericalError, _entry_blocks, _factors, _rank1, _refit, _residual,
                     _sq_norm, as_matrix, as_vector)

log = logging.getLogger(__name__)

PHASES = ("inner", "inter", "amplitude", "outer")
# phases whose consecutive trace values must never increase
MONOTONE_PHASES = frozenset({"inner", "inter", "amplitude"})
TRACE_RTOL = 1e-9  # a trace value rises when it exceeds the last by this fraction of either


class BudgetError(NumericalError):
    """The structural nonzero count drifted away from the fixed budget."""


def _rises(a: float, b: float) -> bool:
    return b - a > TRACE_RTOL * max(abs(a), abs(b))


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

    def phase_violations(self) -> list:
        """Rises (by :data:`TRACE_RTOL`) within contiguous runs of a monotone phase."""
        bad = []
        for (ph_a, a), (ph_b, b) in zip(self._entries, self._entries[1:]):
            if ph_a == ph_b and ph_b in MONOTONE_PHASES and _rises(a, b):
                bad.append((ph_b, a, b))
        return bad

    def outer_violations(self) -> list:
        """Rises (by :data:`TRACE_RTOL`) across the outer objective sequence."""
        seq = self.values("outer")
        return [(a, b) for a, b in zip(seq, seq[1:]) if _rises(a, b)]


def _row_arrays(support, values, p: int):
    """A row's support and values as arrays; a malformed row raises ValueError."""
    supp = _indices(support, "support column").astype(np.intp, copy=False)
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    if vals.size != supp.size:
        raise ValueError("support and values length mismatch")
    if not np.all(np.isfinite(vals)):
        raise ValueError("row values must be finite")
    bad = np.flatnonzero((supp < 0) | (supp >= p))
    if bad.size:
        raise ValueError(f"support column {supp[bad[0]]} out of range for {p} columns")
    if np.unique(supp).size != supp.size:
        raise ValueError("duplicate support column")
    return supp, vals


def _add_row(R, a, supp, vals, sq: float):
    """Add ``a vals^T`` into R's columns ``supp`` in place; negated ``vals`` take it out.

    Returns the new block, the fresh row-major sum ``R[:, supp] + a[:, None] * vals``
    (bit for bit ``+ np.outer(a, vals)``, or ``- np.outer`` with ``-vals``; a rank-1
    fit's bits depend on layout), and ``sq - ||old block||^2 + ||new block||^2``.
    """
    old = R[:, supp]
    new = old + a[:, None] * vals
    R[:, supp] = new
    return new, sq - _sq_norm(old) + _sq_norm(new)


def inner_row_switch(residual, atom, support, values, n_iters: int):
    """Alternate rank-1 refits with support re-selection for one row.

    ``residual`` is the batch residual with this row's contribution added
    back. Each round replaces the atom by the leading left singular vector
    of the residual restricted to the current support, then re-selects the
    support as the ``k`` columns, over all columns, with the largest
    |projection| onto that atom and sets the coefficients to those
    projections. Tie rule: at the selection boundary, equal |projections|
    go to the smaller column indices, as a stable sort would. The support
    size never changes. A non-finite residual, atom or value, an atom of
    another length, a repeated, negative or out-of-range support column, or
    values of another length, raise ValueError. Returns the new atom,
    support and values and the local objective at entry and after every
    half-step, non-increasing.
    ``n_iters`` bounds the rounds; the trace is shorter than ``2 * n_iters +
    1`` when a round reached a fixed point (a converged fit whose re-selection
    returned the round's own support: an odd length) or when an all-zero
    support block zeroed the values (an even length). The rounds and their
    half-step objectives come from :func:`_inner_row`, the kernel
    ``batch_svd`` calls directly; this function prepends the entry one,
    :func:`_add_row`'s update formula on the support block alone.
    """
    R = as_matrix(residual, "residual")
    _count(n_iters, "n_iters")
    a = as_vector(atom, "atom").copy()
    if a.shape != R.shape[:1]:
        raise ValueError("atom length does not match the residual row count")
    supp, vals = _row_arrays(support, values, R.shape[1])
    if supp.size < 1:
        raise ValueError("inner-row switching needs a nonempty support")

    fnorm_sq = _sq_norm(R)
    block = R[:, supp]
    entry = fnorm_sq - _sq_norm(block) + _sq_norm(block + a[:, None] * -vals)
    a, supp, vals, halfsteps = _inner_row(R, a, supp, vals, n_iters, fnorm_sq)
    return a, supp, vals, [entry] + halfsteps


def _inner_row(R, a, supp, vals, n_iters: int, fnorm_sq: float):
    """The rounds of :func:`inner_row_switch` on arrays, unchecked.

    ``R`` is the residual with the row added back, ``fnorm_sq`` its squared
    norm, ``a`` the row's atom and ``supp`` a valid nonempty support. Each
    rank-1 fit runs on :func:`linalg._rank1` from the current atom (a zero
    atom gives the default start), so a converged row costs one power
    iteration. The rounds end after at most ``n_iters``, or after the first
    round whose fit converged and whose re-selection returned the support
    the round began with: a further round would refit that block from its
    own output, moving the atom by at most the fit's tolerance. A round
    whose support block of R is all zero zeroes the values, keeps the atom
    and ends the rounds. Returns the new atom, support and values and the
    objective ``||R - a x^T||^2`` after every half-step; the last one is the
    row's final objective.
    """
    halfsteps = []
    for _ in range(n_iters):
        block = R[:, supp]
        if not block.any():
            vals = np.zeros(supp.size)
            halfsteps.append(fnorm_sq)
            break
        a_norm = math.sqrt(a @ a)
        a_unit = a / a_norm if a_norm > 0.0 else a
        triple = _rank1(block, a_unit)
        # monotonicity guard: keep the incoming atom if the (possibly
        # unconverged) power iteration returned a weaker direction
        old = block.T @ a_unit
        a = triple.u if triple.sigma**2 >= old @ old else a_unit
        proj = R.T @ a
        halfsteps.append(fnorm_sq - float(proj[supp] @ proj[supp]))
        new = _top_k(np.abs(proj), supp.size)
        fixed = triple.converged and np.array_equal(new, supp)
        supp, vals = new, proj[new]
        halfsteps.append(fnorm_sq - float(vals @ vals))
        if fixed:  # a further round would refit this block from its own converged fit
            break
    return a, supp, vals, halfsteps


def inter_row_switch(residual, a_i, s_i, v_i, a_j, s_j, v_j):
    """Exchange structural nonzeros between two rows, count preserved.

    ``residual`` is the batch residual with both rows (unit atom ``a_r``,
    values ``v_r`` on columns ``s_r``) added back. Every column outside the
    shared support is a candidate; each offers its better-|projection| row,
    and the strongest candidates, as many as the symmetric difference of the
    two supports, become the new support on those columns with the
    projection values as coefficients. Tie rules: a column with equal
    |projections| offers the first row, and at the selection boundary equal
    candidates go to the smaller column indices, as a stable sort would.
    Shared columns keep their old entries bit for bit, so the two rows'
    nonzero count is preserved and their joint objective never increases.
    Bad input raises ValueError as in :func:`inner_row_switch`, as do
    non-unit atoms. Returns ``((s_i, v_i), (s_j, v_j))``, supports ascending,
    from :func:`_inter_row`, the kernel ``batch_svd`` calls directly.
    """
    R = as_matrix(residual, "residual")
    a_i, a_j = as_vector(a_i, "atom"), as_vector(a_j, "atom")
    if a_i.shape != R.shape[:1] or a_j.shape != R.shape[:1]:
        raise ValueError("atom length does not match the residual row count")
    _require_unit_atoms(np.column_stack((a_i, a_j)), "row-pair atom")
    (s_i, v_i), (s_j, v_j) = (_row_arrays(s, v, R.shape[1]) for s, v in ((s_i, v_i), (s_j, v_j)))
    return _inter_row(R, a_i, a_j, s_i, v_i, s_j, v_j)


def _inter_row(R, a_i, a_j, s_i, v_i, s_j, v_j):
    """The selection of :func:`inter_row_switch` on arrays, unchecked: only the two new rows."""
    in_i, in_j = np.zeros((2, R.shape[1]), dtype=bool)
    in_i[s_i] = in_j[s_j] = True
    shared = in_i & in_j
    unique_count = np.count_nonzero(in_i ^ in_j)
    if unique_count == 0:
        return (s_i, v_i), (s_j, v_j)

    M = np.vstack((a_i, a_j)) @ R
    absM = np.abs(M)
    pick_first = absM[0] >= absM[1]  # ties go to the first row
    best = np.where(pick_first, absM[0], absM[1])
    best[shared] = -1.0  # below every candidate, so never picked
    picked = _top_k(best, unique_count)

    # shared columns keep their entries; each picked column joins its row
    out = []
    for r, (supp, vals) in enumerate(((s_i, v_i), (s_j, v_j))):
        keep = shared[supp]
        new = picked[pick_first[picked] == (r == 0)]
        cols = np.concatenate((supp[keep], new))
        order = np.argsort(cols)
        out.append((cols[order], np.concatenate((vals[keep], M[r, new]))[order]))
    return out[0], out[1]


def amplitude_adjust(Y, A, X: SparseCoeff, n_iters: int):
    """Alternating least squares on amplitudes with the support frozen.

    Each of the ``n_iters`` rounds recomputes the used atoms by an
    unconstrained least squares against the fixed coefficients, then refits
    every column's coefficients on its fixed support. That coefficient
    half-step takes all its small systems ``A_S^T A_S z = A_S^T y_j`` from
    one Gram ``G = A_u^T A_u`` of the used atoms per round (the precomputed
    Gram of Batch-OMP) by the OMP kernel's :func:`linalg._refit`, one stack
    per :func:`linalg._entry_blocks` run of columns with equal entry counts.
    No n x p array is formed: a round's objective sums the residual rows
    ``_refit`` returns, block by block, as ``linalg.objective`` sums a sparse X.
    Structural positions of X are bit-identical before and after, and atoms
    whose rows are empty are left untouched. The objective never increases
    at either half-step as long as every solve is exact; a system that
    :func:`linalg.solve_gram` has to ridge is solved only approximately, so a
    ridged round can raise it slightly. Returns updated copies of A and X
    and the objective after each round.
    """
    _count(n_iters, "n_iters")
    Y, A = _factors(Y, A, (X.n, X.p))
    A = A.copy()
    rows, cols, vals = X.entries()  # the support is frozen: take it once, in column order
    vals = vals.copy()  # the stored arrays are read-only
    used, slot, fit = _atom_fitter(X)  # slot: entry's row within used
    blocks = _entry_blocks(cols, X.p)

    objectives = []
    for _ in range(n_iters):
        fit(Y, A, vals)
        Au = A[:, used]
        G, At = Au.T @ Au, np.ascontiguousarray(Au.T)
        parts = []  # the objective, block by block, as linalg.objective sums it
        for js, pos in blocks:
            vals[pos], R = _refit(Y.T, At, G, slot[pos], js)
            parts.append(_sq_norm(R))
        objectives.append(sum(parts))
    return A, SparseCoeff(X.n, X.p, rows, cols, vals), objectives


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
    sweeps every nonempty row with the inner-row kernel (:func:`_inner_row`;
    ``cfg.inner_sweeps`` bounds its rounds, and a row stops at its first fixed
    point), rescales atoms to unit norm, runs the inter-row kernel
    (:func:`_inter_row`) over a seeded sample of row pairs whenever the inner
    phase improved by less than ``cfg.trigger``, and finishes with
    ``cfg.amplitude_iters`` amplitude alternations. Stops when an outer round
    improves by at most ``cfg.epsilon`` or after ``cfg.max_outer`` rounds. Each
    round's residual is a fresh :func:`linalg._residual`, with no n x p array;
    both switching phases edit it by :func:`_add_row`, whose running ``||R||^2``
    their trace entries record.

    Returns the updated dictionary and coefficients (atoms unit-normalized)
    together with the recorded objective trace. The structural nonzero count
    of X is identical before and after.
    """
    Y, A = _factors(Y, A, (X.n, X.p))
    n, p = X.n, X.p
    nnz_total = X.nnz

    # visit heavier rows first; the order is fixed for the whole run
    rows, cols, vals = X.entries()
    order = np.argsort(-np.bincount(rows, minlength=n), kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)  # new index of each old row
    A = A[:, order]  # a copy: the caller's A is never written
    X = SparseCoeff(n, p, rank[rows], cols, vals)

    rng = np.random.default_rng(cfg.seed)
    trace = ObjectiveTrace()

    for outer in range(cfg.max_outer):
        R = _residual(Y, A, X)  # fresh each round, to cap incremental drift
        if outer == 0:
            obj = _sq_norm(R)
            trace.append("outer", obj)
        outer_start = obj
        supports, values = _split_rows(X)  # row i's ascending columns and their values

        # --- inner-row phase ---
        for i in range(n):
            supp = supports[i]
            if supp.size == 0:
                continue
            obj = _add_row(R, A[:, i], supp, values[i], obj)[1]
            a, supp, vals, _ = _inner_row(R, A[:, i], supp, values[i], cfg.inner_sweeps, obj)
            A[:, i] = a
            supports[i], values[i] = supp, vals
            obj = _add_row(R, a, supp, -vals, obj)[1]
            trace.append("inner", obj)
        inner_decrement = outer_start - obj

        factors = _normalize_atoms(A)  # objective-neutral
        values = [v * f for v, f in zip(values, factors)]

        # --- inter-row phase, only when the inner phase stalls ---
        if inner_decrement < cfg.trigger:
            fraction = cfg.effective_pair_fraction(n)
            for i, j in _sample_pairs(n, fraction, rng):
                if np.array_equal(supports[i], supports[j]):
                    continue  # equal (sorted) supports: empty symmetric difference, no-op
                for r in (i, j):
                    obj = _add_row(R, A[:, r], supports[r], values[r], obj)[1]
                (supports[i], values[i]), (supports[j], values[j]) = _inter_row(
                    R, A[:, i], A[:, j], supports[i], values[i], supports[j], values[j])
                for r in (i, j):
                    obj = _add_row(R, A[:, r], supports[r], -values[r], obj)[1]
                trace.append("inter", obj)

        # --- re-seed unused atoms (objective-neutral: their rows are zero) ---
        reseed_dead_atoms(A, [i for i in range(n) if supports[i].size == 0], Y, R)

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

    factors = _normalize_atoms(A)  # unit-norm atoms on the way out
    rows, cols, vals = X.entries()
    return A, SparseCoeff(n, p, rows, cols, vals * factors[rows]), trace


def ksvd(Y, A0, k: int, iters: int):
    """Classic K-SVD with a fixed per-sample budget.

    Each pass codes every sample independently with OMP (at most ``k`` atoms
    each) and forms the residual ``R = Y - A X`` once, by
    :func:`linalg._residual` (no n x p array). It then updates atoms one at a
    time, as the inner phase of :func:`batch_svd` does: atom i's contribution
    is added back to R on the samples using it, a rank-1 fit of that block
    replaces the atom and its coefficients, and the refit contribution is taken
    out of R again, both by :func:`_add_row`. Atoms no sample used in the pass
    are re-seeded from the worst-represented samples once, after the atom
    loop, all in one call. Records ``||R||^2`` after coding and, as
    :func:`_add_row` kept it, after the updates; the trace is not guaranteed
    monotone, since the greedy coding step can increase it.
    """
    Y, A = _factors(Y, A0)
    _require_unit_atoms(A, "A0")
    _count(iters, "iters")

    A = A.copy()
    n, p = A.shape[1], Y.shape[1]
    trace = ObjectiveTrace()

    for _ in range(iters):
        coded = _code_per_sample(Y, A, k)
        supports, values = _split_rows(coded)
        R = _residual(Y, A, coded)
        obj = _sq_norm(R)
        trace.append("outer", obj)

        # atom-by-atom rank-1 updates on the running residual
        for i in range(n):
            cols = supports[i]
            if not cols.size:
                continue
            E, obj = _add_row(R, A[:, i], cols, values[i], obj)
            if E.any():
                triple = _rank1(E)
                A[:, i] = triple.u
                values[i] = triple.sigma * triple.v
            else:
                values[i] = np.zeros(cols.size)
            obj = _add_row(R, A[:, i], cols, -values[i], obj)[1]

        reseed_dead_atoms(A, [i for i in range(n) if supports[i].size == 0], Y, R)
        trace.append("outer", obj)

    return A, _join_rows(n, p, supports, values), trace
