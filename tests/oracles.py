"""Independent reference implementations used as test oracles.

Everything here is deliberately naive and shares no code with the package:
QR-based least squares, one-sided Jacobi SVD, the Gram ridge decision by
SVD condition number and Cholesky, the per-member eigenvalue ridge rule
that ``solve_gram`` applied before its Cholesky certificate, a literal
greedy OMP with lstsq refits,
an explicitly materialized block-diagonal pursuit, the heap merge that
``block_omp`` ran on the package's path kernel, exhaustive support
enumerations, the full-sort, set-based row selections the switching
phases used before they moved to partial selection and masks, the inner-row
rounds as they ran before they stopped at a fixed point, the dense
K-SVD loop, which takes the package's kernels as arguments, and the
byte-by-byte PGM header tokenizer.
"""
from __future__ import annotations

import heapq
import itertools
import math

import numpy as np


def qr_solve(A, y):
    """Least squares via Householder QR (numpy) and a triangular solve."""
    Q, R = np.linalg.qr(A)
    return np.linalg.solve(R, Q.T @ y)


def reference_ridge(G, cond_limit, ridge_scale):
    """Ridge decision for one Gram: ``(cond, ridged, raises)``.

    The Gram is solved as it stands when its SVD condition number is at most
    ``cond_limit`` and its Cholesky factorization succeeds. Otherwise it gets
    ``ridge_scale * trace / k`` on the diagonal, and the solve raises when
    that ridged Gram has no Cholesky factor either.
    """
    G = np.asarray(G, dtype=np.float64)
    k = G.shape[0]
    cond = np.linalg.cond(G)
    if np.isfinite(cond) and cond <= cond_limit:
        try:
            np.linalg.cholesky(G)
            return cond, False, False
        except np.linalg.LinAlgError:
            pass
    try:
        np.linalg.cholesky(G + ridge_scale * np.trace(G) / k * np.eye(k))
        return cond, True, False
    except np.linalg.LinAlgError:
        return cond, True, True


def eigvalsh_ridges(G, cond_limit, ridge_scale):
    """The eigenvalue ridge rule, member by member: ``[(lam, debug line or None)]``.

    A Gram is left alone (``lam = 0``) iff its smallest eigenvalue is
    positive and its largest at most ``cond_limit`` times that; any other
    gets ``ridge_scale * trace / k`` and logs its condition number
    ``max|eig| / min|eig|``, as ``solve_gram`` did for every stack before it
    certified stacks by one Cholesky factorization.
    """
    out = []
    for g in np.asarray(G, dtype=np.float64):
        eig = np.linalg.eigvalsh(g)
        if eig[0] > 0 and eig[-1] <= cond_limit * eig[0]:
            out.append((0.0, None))
            continue
        lam = ridge_scale * np.trace(g) / len(g)
        mag = np.abs(eig)
        cond = mag.max() / mag.min() if mag.min() > 0 else np.inf
        out.append((lam, f"gram solve: cond={cond:.3e}, ridge {lam:.3e} applied"))
    return out


def jacobi_svd(M, sweeps: int = 60, tol: float = 1e-14):
    """Full SVD of a small matrix by one-sided Jacobi rotations.

    Returns (U, s, Vt) with singular values sorted descending. Intended for
    matrices up to ~10x10; convergence is checked per sweep.
    """
    M = np.asarray(M, dtype=np.float64)
    m, q = M.shape
    if m < q:
        U, s, Vt = jacobi_svd(M.T, sweeps, tol)
        return Vt.T, s, U.T
    A = M.copy()
    V = np.eye(q)
    for _ in range(sweeps):
        rotated = False
        for i in range(q - 1):
            for j in range(i + 1, q):
                alpha = float(A[:, i] @ A[:, i])
                beta = float(A[:, j] @ A[:, j])
                gamma = float(A[:, i] @ A[:, j])
                if abs(gamma) <= tol * np.sqrt(alpha * beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                if zeta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                ai = A[:, i].copy()
                aj = A[:, j].copy()
                A[:, i] = c * ai - s * aj
                A[:, j] = s * ai + c * aj
                vi = V[:, i].copy()
                vj = V[:, j].copy()
                V[:, i] = c * vi - s * vj
                V[:, j] = s * vi + c * vj
        if not rotated:
            break
    svals = np.linalg.norm(A, axis=0)
    order = np.argsort(-svals, kind="stable")
    svals = svals[order]
    A = A[:, order]
    V = V[:, order]
    U = np.zeros((m, q))
    for i in range(q):
        if svals[i] > 0:
            U[:, i] = A[:, i] / svals[i]
    return U, svals, V.T


def align_sign(u, v):
    """Apply the deterministic sign convention: largest-|u| entry positive."""
    idx = int(np.argmax(np.abs(u)))
    if u[idx] < 0:
        return -u, -v
    return u, v


def reference_omp(y, D, k):
    """Literal greedy OMP: argmax |correlation|, lstsq refit, early zero stop."""
    y = np.asarray(y, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    ynorm = np.linalg.norm(y)
    support = []
    coef = np.zeros(0)
    residual = y.copy()
    for _ in range(k):
        if np.linalg.norm(residual) <= 1e-12 * max(1.0, ynorm):
            break
        scores = np.abs(D.T @ residual)
        scores[support] = -1.0
        support.append(int(np.argmax(scores)))
        coef, *_ = np.linalg.lstsq(D[:, support], y, rcond=None)
        residual = y - D[:, support] @ coef
    return support, coef


def kron_omp(Y, A, budget):
    """Batch pursuit by explicitly materializing the block-diagonal dictionary.

    Returns {(atom, sample): coefficient} from running the literal greedy OMP
    on the stacked sample vector.
    """
    Y = np.asarray(Y, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[1]
    p = Y.shape[1]
    D = np.kron(np.eye(p), A)  # stacked column j*n + i holds atom i for sample j
    support, coef = reference_omp(Y.flatten(order="F"), D, budget)
    return {(q % n, q // n): float(c) for q, c in zip(support, coef)}


def heap_merge_omp(Y, A, budget, paths, zero_rtol=1e-12):
    """Batchwise OMP as the heap merge of per-sample paths, frozen from the package.

    ``paths(Y, A)`` is the package's path kernel, passed in so that this
    module imports nothing from the package: ``extend(cols)`` advances each
    listed column one OMP level, ``known``, ``gain`` and ``sq`` hold each
    column's computed levels, and ``triplets(depth)`` refits the first
    ``depth[j]`` picks of every column. The merge pops steps keyed on
    ``(-gain, sample)``, one head per path. When it uses up a path, it
    extends that path and every path within four levels of its end whose
    last computed gain is at least half the gain just taken. Before each
    pick it stops once ``sqrt(col_sq.sum())``, the residual norm, is at most
    ``zero_rtol * max(1, ||Y||)``; it sums only after the residual of the
    sample that was largest at the last sum has fallen that far. Returns
    the kernel's triplets.
    """
    lookahead, gain_band = 4, 0.5
    n, p = A.shape[1], Y.shape[1]
    zero_tol = zero_rtol * max(1.0, np.linalg.norm(Y))
    kernel = paths(Y, A)
    kernel.extend(np.arange(p))
    used = [0] * p
    col_sq = kernel.sq[:, 0].copy()
    w = int(col_sq.argmax())
    heap = sorted(zip((-kernel.gain[:, 0]).tolist(), range(p)))
    for _ in range(budget):
        if math.sqrt(col_sq[w]) <= zero_tol:
            w = int(col_sq.argmax())
            if math.sqrt(col_sq.sum()) <= zero_tol:
                break
        g, j = heapq.heappop(heap)
        t = used[j] = used[j] + 1
        if t == kernel.known[j]:
            near = np.array(used) >= kernel.known - lookahead
            near &= kernel.gain[np.arange(p), kernel.known - 1] >= -g * gain_band
            kernel.extend(np.flatnonzero(near & (kernel.known <= n)))
        col_sq[j] = kernel.sq[j, t]
        if t < n:
            heapq.heappush(heap, (-kernel.gain[j, t], j))
    return kernel.triplets(np.array(used, dtype=np.intp))


def best_fixed_atom_support(Yt, a, k):
    """Exhaustive minimum of ||Yt - a x||_F^2 over all size-k supports.

    The coefficients on a candidate support are the optimal projections for
    the fixed atom ``a`` (assumed unit norm).
    """
    Yt = np.asarray(Yt, dtype=np.float64)
    p = Yt.shape[1]
    best = np.inf
    for cols in itertools.combinations(range(p), k):
        x = np.zeros(p)
        for c in cols:
            x[c] = float(a @ Yt[:, c])
        obj = float(np.sum((Yt - np.outer(a, x)) ** 2))
        best = min(best, obj)
    return best


def best_pair_assignment(Yt, a_i, a_j, shared, size):
    """Exhaustive maximum of the selected projection energy for a row pair.

    Enumerates every way of placing ``size`` nonzeros on columns outside
    ``shared`` with at most one of the two rows per column, and returns the
    largest sum of squared projections.
    """
    Yt = np.asarray(Yt, dtype=np.float64)
    p = Yt.shape[1]
    cand = [c for c in range(p) if c not in shared]
    M = np.vstack((a_i, a_j)) @ Yt[:, cand]
    best = -np.inf
    for cols in itertools.combinations(range(len(cand)), size):
        for rows in itertools.product((0, 1), repeat=size):
            val = sum(M[r, c] ** 2 for r, c in zip(rows, cols))
            best = max(best, val)
    return best


def stable_top_k(mag, k):
    """Indices of the ``k`` largest entries by one full stable sort, ascending.

    The inner-row support selection as first written: ties at the boundary
    go to the smaller index because the sort is stable.
    """
    return np.sort(np.argsort(-np.asarray(mag), kind="stable")[:k])


def all_rounds_inner_row(R, a, supp, n_iters, rank1):
    """Inner-row switching that runs every one of its rounds, frozen from the package.

    The rounds as the package ran them before it stopped at the first fixed
    point: refit the atom on the support's block, warm-started from the
    current unit atom and kept only if it captures at least the atom's own
    energy, then re-select the support by :func:`stable_top_k` of the
    |projections|. A zero block zeroes the values and ends the rounds.
    ``rank1(M, start=None)`` is the package's leading singular triple, passed
    in. Returns the atom, support, values and final objective ``||R - a x^T||^2``.
    """
    R = np.asarray(R, dtype=np.float64)
    fnorm_sq = float(np.sum(R**2))
    for _ in range(n_iters):
        block = R[:, supp]
        if not block.any():
            return a, supp, np.zeros(len(supp)), fnorm_sq
        a_norm = np.linalg.norm(a)
        if a_norm > 0.0:
            a_unit = a / a_norm
            triple = rank1(block, start=a_unit)
            old = block.T @ a_unit
            a = triple.u if triple.sigma**2 >= old @ old else a_unit
        else:
            a = rank1(block).u
        proj = R.T @ a
        supp = stable_top_k(np.abs(proj), len(supp))
        vals = proj[supp]
        obj = fnorm_sq - float(vals @ vals)
    return a, supp, vals, obj


def reference_inter_row_switch(Yt, a_i, s_i, v_i, a_j, s_j, v_j):
    """Set-based inter-row switching, frozen from the package's first version.

    Candidates are ``set(range(p))`` minus the shared columns, ranked by a
    full stable sort; each row is rebuilt from a ``col -> value`` dict.
    Returns ``((cols_i, vals_i), (cols_j, vals_j))``; an empty symmetric
    difference returns the inputs unchanged.
    """
    Yt = np.asarray(Yt, dtype=np.float64)
    p = Yt.shape[1]
    rows = ((s_i, v_i), (s_j, v_j))
    set_i = {int(c) for c in s_i}
    set_j = {int(c) for c in s_j}
    shared = set_i & set_j
    unique_count = len(set_i | set_j) - len(shared)
    if unique_count == 0:
        return rows

    cand_cols = np.asarray(sorted(set(range(p)) - shared), dtype=np.intp)
    M = np.vstack((a_i, a_j)) @ Yt[:, cand_cols]
    absM = np.abs(M)
    pick_first = absM[0] >= absM[1]
    best = np.where(pick_first, absM[0], absM[1])
    order = np.argsort(-best, kind="stable")[:unique_count]
    new = [{c: v for c, v in zip(map(int, s), v) if c in shared} for s, v in rows]
    for t in order:
        r = 0 if pick_first[t] else 1
        new[r][int(cand_cols[t])] = float(M[r, t])
    out = []
    for entries in new:
        cols = sorted(entries)
        out.append((np.asarray(cols, dtype=np.intp),
                    np.asarray([entries[c] for c in cols], dtype=np.float64)))
    return tuple(out)


def reference_ksvd(Y, A0, k, iters, code, rank1, reseed):
    """K-SVD by the dense loop the package first used, frozen as an oracle.

    Every pass rebuilds each atom's block ``Y[:, cols] - A @ X[:, cols]``
    from a dense X and re-seeds each dead atom in its own call, with its own
    full residual. The package's kernels come in as arguments, so the loop
    shares no code with the package: ``code(Y, A, k)`` returns the per-sample
    coding as ``(rows, cols, vals)`` triplets, ``rank1(E)`` the leading
    singular triple of E with attributes ``sigma``, ``u`` and ``v``, and
    ``reseed(A, dead, Y, residual)`` re-seeds the listed atoms of A in place.
    Returns the dictionary, the final triplets and the outer objectives.
    """
    A = np.array(A0, dtype=np.float64)
    n = A.shape[1]
    outer = []
    for _ in range(iters):
        rows, cols, vals = code(Y, A, k)
        Xd = np.zeros((n, Y.shape[1]))
        Xd[rows, cols] = vals
        outer.append(float(np.sum((Y - A @ Xd) ** 2)))
        for i in range(n):
            users = np.sort(cols[rows == i])
            if not users.size:
                reseed(A, [i], Y, Y - A @ Xd)
                continue
            E = Y[:, users] - A @ Xd[:, users] + np.outer(A[:, i], Xd[i, users])
            if not E.any():
                Xd[i, users] = 0.0
                continue
            triple = rank1(E)
            A[:, i] = triple.u
            Xd[i, users] = triple.sigma * triple.v
        outer.append(float(np.sum((Y - A @ Xd) ** 2)))
    return A, (rows, cols, Xd[rows, cols]), outer


def two_pass_stats(values):
    values = list(float(v) for v in values)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, var**0.5


def make_planted(m, n, p, sparsities, rng, snr_db=None):
    """Planted model Y = A* X* (+ noise) with per-sample sparsity levels."""
    A = rng.standard_normal((m, n))
    A /= np.linalg.norm(A, axis=0)
    X = np.zeros((n, p))
    for j, k_j in enumerate(sparsities):
        rows = rng.choice(n, size=k_j, replace=False)
        X[rows, j] = rng.standard_normal(k_j)
    signal = A @ X
    if snr_db is None:
        return signal, A, X
    noise = rng.standard_normal((m, p))
    scale = np.linalg.norm(signal) / (np.linalg.norm(noise) * 10 ** (snr_db / 20.0))
    return signal + noise * scale, A, X


def pgm_tokens_bytewise(data: bytes):
    """The PGM header tokenizer as first written, one byte at a time, frozen.

    Skips whitespace (``bytes.isspace``), drops a '#' comment up to its
    newline, and yields each other run of non-space bytes, decoded as ASCII
    with replacement, together with the offset just past it.
    """
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
