"""Dense numerical kernels shared by every solver module.

Small Gram-system solves, the one fixed-support least squares on them
(:func:`_refit`, over the column runs of :func:`_blocks`), the leading
singular triple, and the squared Frobenius reconstruction objective.
Everything operates on float64 numpy arrays and is deterministic: a power
iteration from the caller's start vector or a fixed default one, a fixed
sign convention, no environment-dependent branching.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

# A Gram is solved as it stands only when it is positive definite with
# condition number at most COND_LIMIT; any other gets a ridge of RIDGE_SCALE
# times its mean diagonal.
COND_LIMIT = 1e12
RIDGE_SCALE = 1e-10
RANK1_TOL = 1e-10  # the power iteration stops at ||M v - sigma u|| <= RANK1_TOL ||M||_F
RANK1_MAX_ITER = 500  # or after this many sweeps
_BLOCK = 256  # columns per block of a batched kernel: bounds its c x n or n x c arrays


class NumericalError(RuntimeError):
    """A solve broke down numerically and could not be rescued."""


@dataclass(frozen=True)
class SingularTriple:
    """Leading singular triple (sigma, u, v) of a matrix.

    ``u`` and ``v`` are unit vectors and ``sigma >= 0``. The sign is pinned
    deterministically: the largest-magnitude entry of ``u`` is positive, and
    ``v`` carries the compensating sign so ``sigma * outer(u, v)`` is
    unaffected. ``converged`` is False when the power iteration hit its
    iteration cap; the best iterate is still returned.
    """

    sigma: float
    u: np.ndarray
    v: np.ndarray
    converged: bool = True


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D float64 array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and column")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Validate and return ``a`` as a finite 1-D float64 array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def solve_gram(G: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``G Z = B`` for (near) positive semidefinite Gram matrices G.

    ``G`` is one k x k Gram or a stack of them shaped ``(..., k, k)``. ``B``
    is either one right-hand side per Gram, shaped ``(..., k)``, or ``r`` of
    them, shaped ``(..., k, r)``; the result has the shape of ``B``. A Gram
    is solved as it stands iff its smallest eigenvalue is positive and its
    largest is at most ``COND_LIMIT`` times that: one Cholesky of the stack
    shifted by ``trace(G) / (COND_LIMIT / 2)`` certifies this for all members
    (a 2x margin for rounding), and only if it fails, or a trace is not
    finite and positive, does one ``eigvalsh`` call decide each member. Any
    other Gram gets a ridge of ``RIDGE_SCALE * trace(G) / k``, logged once at
    debug level with its condition number ``max|eig| / min|eig|``;
    NumericalError, carrying that number, is raised when the ridge does not
    make the Gram positive definite. The whole stack is then solved by one
    batched LAPACK solve. A stack of 1x1 Grams whose entries are all finite
    and positive, with one right-hand side each, passes the certificate by
    construction and is solved as ``B / G``, which is bit for bit what
    LAPACK's solve returns.
    """
    G = np.asarray(G, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    k = G.shape[-1]
    if G.size == 0:
        return np.zeros_like(B)
    vectors = B.ndim == G.ndim - 1
    if k == 1 and vectors:
        g = G[..., 0]
        if np.all((g > 0) & (g < np.inf)):
            with np.errstate(over="ignore"):  # LAPACK overflows to inf silently too
                return B / g
    stack = G.reshape(-1, k, k)  # a single Gram is a one-member stack
    tr = np.trace(stack, axis1=1, axis2=2)
    try:  # success proves lambda_min > 2 tr / COND_LIMIT >= 2 lambda_max / COND_LIMIT
        certified = bool(np.all((tr > 0) & np.isfinite(tr))) and np.linalg.cholesky(
            stack - (tr / (COND_LIMIT / 2))[:, None, None] * np.eye(k)) is not None
    except np.linalg.LinAlgError:
        certified = False
    if not certified:
        eig = np.linalg.eigvalsh(stack)  # ascending
        ridged = ~((eig[:, 0] > 0) & (eig[:, -1] <= COND_LIMIT * eig[:, 0]))
        lam = np.zeros(len(stack))
        for t in np.flatnonzero(ridged):
            lam[t] = RIDGE_SCALE * np.trace(stack[t]) / k
            mag = np.abs(eig[t])
            cond = mag.max() / mag.min() if mag.min() > 0 else np.inf
            log.debug("gram solve: cond=%.3e, ridge %.3e applied", cond, lam[t])
            if eig[t, 0] + lam[t] <= 0:
                raise NumericalError(
                    f"gram matrix is rank-deficient beyond ridge rescue (cond estimate {cond:.3e})"
                )
        if ridged.any():
            G = G + lam.reshape(G.shape[:-2] + (1, 1)) * np.eye(k)
    Z = np.linalg.solve(G, B[..., None] if vectors else B)
    return Z[..., 0] if vectors else Z


def rank1_svd(M, start=None) -> SingularTriple:
    """Leading singular triple of M by power iteration: :func:`_rank1` after every check.

    A non-finite, non-2-D or all-zero M, or a non-finite start or one whose
    length is not M's row count, raises ValueError.
    """
    M = as_matrix(M, "M")
    if not M.any():
        raise ValueError("all-zero matrix has no leading singular triple")
    if start is not None:
        start = as_vector(start, "start")
        if start.shape[0] != M.shape[0]:
            raise ValueError(f"start has length {start.shape[0]}, M has {M.shape[0]} rows")
    return _rank1(M, start)


def _rank1(M, start=None) -> SingularTriple:
    """:func:`rank1_svd`'s power iteration on ``M M^T``, for a float64 M not all zero, unchecked.

    Starts from ``start / ||start||``, a float64 vector of length m, or by default (a zero
    start too) from the normalized all-ones vector. A start orthogonal to the column space of
    M falls back to the default one, and a default start in the null space of ``M^T`` restarts
    from successive basis vectors. Stops once ``||M v - sigma u|| <= RANK1_TOL * ||M||_F``;
    after ``RANK1_MAX_ITER`` sweeps the best iterate is returned with ``converged=False``.
    """
    m = M.shape[0]
    fnorm = math.sqrt(_sq_norm(M))  # as np.linalg.norm computes it
    u = default = np.full(m, 1.0 / np.sqrt(m))
    basis_next = 0  # the next restart: -1 is the default start, 0.. the basis vectors
    nrm = 0.0 if start is None else math.sqrt(start @ start)
    if nrm > 0.0:
        u, basis_next = start / nrm, -1
    converged = False
    for _ in range(RANK1_MAX_ITER):
        w = M.T @ u
        wn = math.sqrt(w @ w)  # np.linalg.norm's own formula, without its overhead
        if wn == 0.0:
            # start orthogonal to the column space: restart from the default
            # start, then from successive basis vectors
            u = default if basis_next < 0 else np.eye(m)[basis_next % m]
            basis_next += 1
            continue
        v = w / wn
        z = M @ v
        sigma = math.sqrt(z @ z)
        gap = z - sigma * u
        u = z / sigma
        if math.sqrt(gap @ gap) <= RANK1_TOL * fnorm:
            converged = True
            break
    # make the returned triple self-consistent: sigma and v derived from u
    w = M.T @ u
    sigma = math.sqrt(w @ w)
    v = w / sigma
    if u[np.argmax(np.abs(u))] < 0:  # the sign convention: u's largest-magnitude entry is positive
        u, v = -u, -v
    return SingularTriple(sigma, u, v, converged)


def objective(Y, A, X) -> float:
    """Squared Frobenius reconstruction error ``||Y - A X||_F^2`` for a ``SparseCoeff`` X.

    Any other X raises TypeError (``SparseCoeff.from_dense`` wraps a dense array).
    X is summed over its :func:`_entry_blocks`, with no dense product, as
    ``amplitude_adjust`` sums the residual rows of its :func:`_refit` calls.
    """
    if not hasattr(X, "entries"):
        raise TypeError(f"X must be a SparseCoeff, got {type(X).__name__}")
    Y, A = _factors(Y, A, (X.n, X.p))
    rows, cols, vals = X.entries()
    At = np.ascontiguousarray(A.T)
    return sum(_sq_norm(Y.T[js] - np.einsum("cdm,cd->cm", At[rows[pos]], vals[pos]))
               for js, pos in _entry_blocks(cols, X.p))


def _blocks(cols, depth):
    """``(d, block)`` for runs of at most ``_BLOCK`` of ``cols`` with equal ``depth[col] = d``."""
    at = depth[cols]  # read once, up front: the caller may advance depth while iterating
    for d in np.unique(at):
        same = cols[at == d]
        yield from ((d, same[lo:lo + _BLOCK]) for lo in range(0, same.size, _BLOCK))


def _entry_blocks(cols, p: int):
    """``(js, pos)`` per :func:`_blocks` run of the p columns with d entries each: columns
    js and the (c, d) positions of their entries in the column-sorted ``cols``."""
    sizes = np.bincount(cols, minlength=p)
    starts = np.cumsum(sizes) - sizes
    return [(js, starts[js, None] + np.arange(d)) for d, js in _blocks(np.arange(p), sizes)]


def _refit(Yt, At, G, S, js):
    """Least squares of rows ``Yt[js]`` on the rows ``S`` (c x d) of ``At``, whose Gram is G, by one
    stacked :func:`solve_gram`: the (c, d) coefficients and the (c, m) residual rows, which for
    d = 0 are ``Yt[js]`` bit for bit."""
    if not S.shape[1]:  # numpy's einsum is slower on an empty sum than on a one-atom one
        return np.zeros(S.shape), Yt[js]
    AS, Yc = At[S], Yt[js]  # AS is (c, d, m)
    C = solve_gram(G[S[:, :, None], S[:, None, :]], np.einsum("cdm,cm->cd", AS, Yc))
    return C, Yc - np.einsum("cdm,cd->cm", AS, C)


def _residual(Y, A, X) -> np.ndarray:
    """``Y - A X`` for a sparse X, unchecked and with no n x p array: each run of at most
    ``_BLOCK`` columns of X is scattered into an n x c block no larger than Y, then one GEMM."""
    rows, cols, vals = X.entries()
    R, c = Y.copy(), max(1, min(_BLOCK, Y.size // X.n))
    blk = np.zeros((X.n, c))
    starts = np.searchsorted(cols, np.arange(0, X.p + c, c))
    for lo, a, z in zip(range(0, X.p, c), starts, starts[1:]):
        i, j, w = rows[a:z], cols[a:z] - lo, min(c, X.p - lo)
        blk[i, j] = vals[a:z]
        R[:, lo:lo + w] -= A @ blk[:, :w]
        blk[i, j] = 0
    return R


def _factors(Y, A, x_shape=None):
    """Y and A as checked matrices with ``A``'s rows matching ``Y``'s.

    With ``x_shape`` given, the coefficient shape must also be n x p, so that
    ``A X`` has the shape of Y; any mismatch raises ValueError.
    """
    Y, A = as_matrix(Y, "Y"), as_matrix(A, "A")
    (m, p), (m_a, n) = Y.shape, A.shape
    if m_a != m or (x_shape is not None and tuple(x_shape) != (n, p)):
        x = "" if x_shape is None else ", X is {}x{}".format(*x_shape)
        raise ValueError(f"shape mismatch: Y is {m}x{p}, A is {m_a}x{n}{x}")
    return Y, A


def _col_norms(M) -> np.ndarray:
    """``np.linalg.norm(M, axis=0)`` bit for bit, squaring equal runs of at most ``_BLOCK``
    columns: numpy would sum a lone C-ordered column pairwise, not row by row as in a wider run."""
    runs = np.array_split(np.arange(M.shape[1]), -(-M.shape[1] // _BLOCK))
    return np.concatenate([np.linalg.norm(M[:, js[0]:js[-1] + 1], axis=0) for js in runs])


def _sq_norm(R) -> float:
    """Squared Frobenius norm of a residual: the objective every trace records."""
    R = R.ravel("K")  # in memory order: no copy of a non-C-ordered block
    return float(np.dot(R, R))
