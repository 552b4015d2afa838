"""The batched OMP kernel behind omp, _code_per_sample and block_omp.

Property tests check every coder against the naive oracles: per-sample
coding column by column against ``reference_omp`` and the batchwise pursuit
against ``kron_omp``. Supports must be identical up to which copy of a
duplicated atom is taken: the oracles' matrix-vector products may round two
identical atoms differently, so they break that tie by noise, while the
coders must take the smaller index first. Fits ``A_S c`` are compared
relative to the sample norm at 1e-9, since a ridged system may split its
weight between duplicate atoms differently from the oracle's lstsq. The
batchwise pursuit must also return, bit for bit, the triplets of the
frozen heap merge (``heap_merge_omp``), which extends its paths on another
schedule; a column's levels are the same whichever columns share its
block. A memory test pins the column blocking of the kernel, and two work
tests pin how far the paths run: one level per listed column and extend
call, and no level past the first unpicked step of a path.
"""
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchsvd import SparseCoeff, block_omp, coding, omp
from batchsvd.coding import _Paths, _code_per_sample
from batchsvd.linalg import _BLOCK

from oracles import heap_merge_omp, kron_omp, reference_omp

RTOL = 1e-9


def _well_conditioned_atoms(rng, m, n):
    """n unit atoms in R^m (n >= m) whose every m-subset has condition <= 30.

    The normal-equation refits then leave residuals far below the zero
    threshold once a sample is spanned, as the oracle's lstsq does.
    """
    while True:
        A = rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=0)
        subsets = itertools.combinations(range(n), m)
        if all(np.linalg.cond(A[:, list(s)]) <= 30 for s in subsets):
            return A


@st.composite
def generic_problems(draw):
    """Spanning Gaussian atoms plus duplicates; zero samples and samples equal to atoms."""
    wide = draw(st.booleans())  # p beyond one kernel block, tiny m and n
    m = draw(st.integers(1, 2 if wide else 4))
    n_distinct = draw(st.integers(m, 3 if wide else m + 2))
    n_dup = draw(st.integers(0, 2))
    p = draw(st.integers(_BLOCK + 1, 2 * _BLOCK + 8) if wide else st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = _well_conditioned_atoms(rng, m, n_distinct)
    A = A[:, rng.permutation(np.r_[np.arange(n_distinct), rng.integers(n_distinct, size=n_dup)])]
    n = A.shape[1]
    Y = rng.standard_normal((m, p))
    kind = rng.integers(3, size=p)  # 0 generic, 1 zero, 2 a scaled atom
    Y[:, kind == 1] = 0.0
    atoms = rng.integers(n, size=p)
    Y[:, kind == 2] = A[:, atoms[kind == 2]] * rng.uniform(0.5, 3.0, size=(kind == 2).sum())
    budget_cap = 48 if wide else n * p
    budget = draw(st.integers(1, budget_cap) | st.just(budget_cap))
    k = draw(st.integers(1, min(m, n)))
    return Y, A, budget, k


@st.composite
def exact_problems(draw):
    """Duplicated canonical atoms and small integer samples: every step is exact.

    With ``spanned``, the atoms cover R^m and exact ties between equal
    entries, within a sample and across repeated samples, decide the picks.
    Otherwise they span r < m coordinates and the samples lie outside that
    span, so every correlation is exactly zero, every refit has a zero
    right-hand side, and the batchwise pursuit fills whole columns with all
    n > m atoms (ridged Grams) until the budget runs out.
    """
    spanned = draw(st.booleans())
    m = draw(st.integers(1, 4) if spanned else st.integers(2, 3))
    r = m if spanned else draw(st.integers(1, m - 1))
    n = draw(st.integers(m, m + 3) if spanned else st.integers(m + 1, 9))
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = np.eye(m)[:, rng.permutation(np.r_[np.arange(r), rng.integers(r, size=n - r)])]
    Y = np.zeros((m, p))
    lo = 0 if spanned else r  # first coordinate the samples may use
    Y[lo:] = rng.integers(-2, 3, size=(m - lo, p))
    budget = draw(st.integers(1, n * p))
    return Y, A, budget, draw(st.integers(1, min(m, n)))


def _assert_fit_close(fit, ref, y):
    assert np.linalg.norm(fit - ref) <= RTOL * max(np.linalg.norm(y), 1e-300)


def _first_copy(A):
    """Each atom's smallest index among the atoms identical to it."""
    return np.array([min(k for k in range(A.shape[1]) if np.array_equal(A[:, k], a))
                     for a in A.T])


def _assert_smaller_copies_first(first, support):
    for i in support:
        assert all(k in support for k in range(i) if first[k] == first[i]), (i, support)


def _check_per_sample(Y, A, k):
    first = _first_copy(A)
    rows, cols, vals = _code_per_sample(Y, A, k).entries()
    for j in range(Y.shape[1]):
        ref_supp, ref_coef = reference_omp(Y[:, j], A, k)
        mine = cols == j
        assert sorted(first[rows[mine]]) == sorted(first[ref_supp]), j
        _assert_smaller_copies_first(first, rows[mine].tolist())
        _assert_fit_close(A[:, rows[mine]] @ vals[mine], A[:, ref_supp] @ ref_coef, Y[:, j])
        supp, coef = omp(Y[:, j], A, k)
        assert first[supp].tolist() == first[ref_supp].tolist()  # selection order
        assert sorted(zip(supp.tolist(), coef.tolist())) == list(
            zip(rows[mine].tolist(), vals[mine].tolist()))


def _check_block(Y, A, budget):
    first = _first_copy(A)
    rows, cols, vals = block_omp(Y, A, budget).entries()
    ref = kron_omp(Y, A, budget)
    assert sorted(zip(cols.tolist(), first[rows].tolist())) == sorted(
        (j, first[i]) for i, j in ref)
    for j in range(Y.shape[1]):
        mine = cols == j
        _assert_smaller_copies_first(first, rows[mine].tolist())
        ref_fit = sum((A[:, i] * c for (i, jj), c in ref.items() if jj == j), np.zeros(len(A)))
        _assert_fit_close(A[:, rows[mine]] @ vals[mine], ref_fit, Y[:, j])


@settings(max_examples=80, deadline=None)
@given(generic_problems())
def test_kernel_matches_oracles_on_generic_problems(problem):
    Y, A, budget, k = problem
    _check_per_sample(Y, A, k)
    _check_block(Y, A, budget)


@settings(max_examples=80, deadline=None)
@given(exact_problems())
def test_kernel_matches_oracles_on_exact_problems(problem):
    Y, A, budget, k = problem
    _check_per_sample(Y, A, k)
    _check_block(Y, A, budget)


def test_column_blocks_bound_memory():
    # without column blocks, the n x p correlation matrix alone would be 6 MiB
    rng = np.random.default_rng(7)
    Y = rng.standard_normal((64, 3000))
    A = rng.standard_normal((64, 256))
    A /= np.linalg.norm(A, axis=0)
    for call, limit in ((lambda: _code_per_sample(Y, A, 2), 4), (lambda: block_omp(Y, A, 6000), 8)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * 2**20


def _unit_atoms(rng, m, n):
    A = rng.standard_normal((m, n))
    return A / np.linalg.norm(A, axis=0)


def test_extend_advances_each_listed_column_exactly_one_level():
    # columns at depths 1, 2 and 3; one extend call must not carry a column
    # it has just advanced into the next depth's block
    rng = np.random.default_rng(21)
    Y, A = rng.standard_normal((8, 12)), _unit_atoms(rng, 8, 16)
    paths = _Paths(Y, A)
    paths.extend(np.arange(12))
    paths.extend(np.arange(8))
    paths.extend(np.arange(4))
    assert sorted(set(paths.known.tolist())) == [1, 2, 3]
    listed = np.array([0, 2, 5, 6, 9, 11])  # two columns at each depth
    before = paths.known.copy()
    paths.extend(listed)
    step = np.zeros(12, dtype=np.intp)
    step[listed] = 1
    assert np.array_equal(paths.known - before, step)


@pytest.mark.parametrize("m, n, p", [(8, 16, 12), (3, 5, 9), (64, 256, 7)])
def test_column_levels_do_not_depend_on_its_block(m, n, p):
    # a column extended alone gets, bit for bit, the atoms, gains and squared
    # residuals it gets inside a block of all p columns, at every level
    rng = np.random.default_rng(m + n + p)
    Y, A = rng.standard_normal((m, p)), _unit_atoms(rng, m, n)
    together, alone = _Paths(Y, A), _Paths(Y, A)
    for _ in range(min(n, 6)):
        together.extend(np.arange(p))
        for j in range(p):
            alone.extend(np.array([j]))
    for name in ("atom", "gain", "sq"):
        assert np.array_equal(getattr(together, name), getattr(alone, name)), name


@st.composite
def merge_problems(draw):
    """Inputs on which the merge's order and its zero-residual stop are delicate.

    Gaussian atoms spanning R^m with n > m fit every sample exactly after m
    picks, so large budgets end at the zero-residual stop; canonical atoms
    and integer samples tie gains exactly; duplicated atoms tie atoms;
    a few samples scaled by 50 run paths deep; zero samples and samples
    equal to an atom stop at once. Budgets run from 1 to n * p.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 4))
    wide = draw(st.booleans()) and m <= 2  # p past one kernel block: lone-column blocks
    p = draw(st.integers(_BLOCK - 2, _BLOCK + 3) if wide else st.integers(1, 10))
    if draw(st.booleans()):  # exact ties: canonical atoms, integer samples
        n = draw(st.integers(m, m + 3))
        A = np.eye(m)[:, rng.permutation(np.r_[np.arange(m), rng.integers(m, size=n - m)])]
        Y = rng.integers(-2, 3, size=(m, p)).astype(np.float64)
    else:
        A = _well_conditioned_atoms(rng, m, draw(st.integers(m, m + 3)))
        A = A[:, rng.permutation(np.r_[np.arange(A.shape[1]),
                                       rng.integers(A.shape[1], size=draw(st.integers(0, 2)))])]
        n = A.shape[1]
        Y = rng.standard_normal((m, p))
        kind = rng.integers(4, size=p)  # 0 generic, 1 zero, 2 a scaled atom, 3 fifty times louder
        Y[:, kind == 1] = 0.0
        Y[:, kind == 2] = A[:, rng.integers(n, size=(kind == 2).sum())] * 2.5
        Y[:, kind == 3] *= 50.0
    budget = draw(st.integers(1, n * p) | st.sampled_from([1, n * p, m * p, m * p + 1]))
    return Y, A, min(max(budget, 1), n * p)


@settings(max_examples=150, deadline=None)
@given(merge_problems())
def test_block_omp_matches_the_heap_merge_bit_for_bit(problem):
    Y, A, budget = problem
    n, p = A.shape[1], Y.shape[1]
    assert block_omp(Y, A, budget) == SparseCoeff.from_triplets(
        n, p, *heap_merge_omp(Y, A, budget, _Paths))


@pytest.mark.parametrize("size, nnz", [(0.8e-12, 1), (0.7e-12, 0)])
def test_zero_residual_stop_sums_every_sample(size, nnz):
    # each sample's residual is below the zero bound (1e-12 here) on its own,
    # but the stop reads the norm of the whole residual: two samples of norm
    # 0.8e-12 make 1.13e-12 and need one pick; two of 0.7e-12 make 0.99e-12
    Y = np.full((2, 2), 0.0)
    Y[0] = size
    X = block_omp(Y, np.eye(2), 4)
    assert X.nnz == nnz
    assert X == SparseCoeff.from_triplets(2, 2, *heap_merge_omp(Y, np.eye(2), 4, _Paths))


def test_block_omp_computes_few_levels_past_its_picks(monkeypatch):
    # the merge extends a path only while every step it has computed is
    # picked, so at the end each path that can still grow has one unpicked
    # computed step; the levels are the picks plus one per sample plus the
    # paths that a later round pushed back out (1337 levels measured here,
    # against 1696 for the heap merge's lookahead rule)
    made = []

    class Recorded(_Paths):
        def __init__(self, Y, A):
            super().__init__(Y, A)
            made.append(self)

    monkeypatch.setattr(coding, "_Paths", Recorded)
    rng = np.random.default_rng(22)
    m, n, p = 16, 48, 300
    Y, A = rng.standard_normal((m, p)), _unit_atoms(rng, m, n)
    X = block_omp(Y, A, 900)
    (paths,) = made
    used = np.bincount(X.entries()[1], minlength=p)
    assert X.nnz == 900
    assert np.all((used < paths.known) | (paths.known > n))
    assert paths.known.sum() <= X.nnz + p + p // 2
