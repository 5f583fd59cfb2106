"""Echelon-table F_p elimination against a slow dense reference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixlab import linalg


# -- dense reference: plain Gauss-Jordan on lists of ints ---------------------

def ref_rref(rows, p, ncols=None):
    work = [list(r) for r in rows]
    width = len(work[0]) if work else 0
    limit = width if ncols is None else ncols
    pivots = []
    row = 0
    for col in range(limit):
        pivot = next((r for r in range(row, len(work)) if work[r][col] % p != 0), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        inv = pow(work[row][col], -1, p)
        work[row] = [(x * inv) % p for x in work[row]]
        for r in range(len(work)):
            if r != row and work[r][col] % p != 0:
                factor = work[r][col]
                work[r] = [(a - factor * b) % p for a, b in zip(work[r], work[row])]
        pivots.append(col)
        row += 1
        if row == len(work):
            break
    return work, pivots


def ref_affine_consistent_rank(rows_aug, p):
    reduced, pivots = ref_rref(rows_aug, p, ncols=len(rows_aug[0]) - 1)
    for r in reduced:
        if all(x % p == 0 for x in r[:-1]) and r[-1] % p != 0:
            return False, len(pivots)
    return True, len(pivots)


def ref_nullspace(rows, ncols, p):
    if not rows:
        rows = [[0] * ncols]
    reduced, pivots = ref_rref(rows, p)
    free = [c for c in range(ncols) if c not in set(pivots)]
    nonzero_rows = [r for r in reduced if any(x % p for x in r)]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, pc in zip(nonzero_rows, pivots):
            vec[pc] = (-r[f]) % p
        basis.append(vec)
    return basis


def nonzero_rows(rows, p):
    return [[x % p for x in r] for r in rows if any(x % p for x in r)]


def sparse(rows):
    return [{c: x for c, x in enumerate(r) if x} for r in rows]


def columns(rows, ncols):
    """The sparse {row: value} columns of dense rows."""
    return [{i: r[c] for i, r in enumerate(rows) if r[c]} for c in range(ncols)]


def packed(rows, ncols):
    """The columns of dense rows over F_2, packed into ints (bit i is row i)."""
    return [sum(1 << i for i, r in enumerate(rows) if r[c] % 2) for c in range(ncols)]


# -- matrices: random, all-zero and rank-deficient, entries not yet reduced ---

@st.composite
def matrices(draw, max_rows=12, max_cols=12):
    p = draw(st.sampled_from([2, 3, 5]))
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(1, max_cols))
    entry = st.integers(-p, 2 * p)
    kind = draw(st.sampled_from(["random", "zero", "deficient"]))
    if kind == "zero":
        rows = [[0] * ncols for _ in range(nrows)]
    elif kind == "deficient" and nrows:
        basis = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                              min_size=1, max_size=max(1, min(nrows, ncols) - 1)))
        rows = []
        for _ in range(nrows):
            weights = draw(st.lists(entry, min_size=len(basis), max_size=len(basis)))
            rows.append([sum(w * b[c] for w, b in zip(weights, basis)) for c in range(ncols)])
    else:
        rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
    return p, ncols, rows


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_matches_reference(case):
    p, ncols, rows = case
    reduced, pivots = linalg.rref(sparse(rows), ncols, p)
    ref_reduced, ref_pivots = ref_rref(rows, p)
    assert pivots == ref_pivots
    # The pivot rows alone, no zero padding, every entry an int reduced mod p.
    assert reduced == nonzero_rows(ref_reduced, p)
    assert all(len(r) == ncols for r in reduced)
    assert all(type(x) is int and 0 <= x < p for r in reduced for x in r)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2 ** 31 - 2), min_size=6, max_size=6),
                min_size=1, max_size=5))
def test_rref_at_the_largest_characteristic(rows):
    # Entries near 2^31 must come back exact, as Python ints.
    p = 2 ** 31 - 1
    reduced, pivots = linalg.rref(sparse(rows), 6, p)
    ref_reduced, ref_pivots = ref_rref(rows, p)
    assert pivots == ref_pivots
    assert reduced == nonzero_rows(ref_reduced, p)
    assert all(type(x) is int for r in reduced for x in r)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.randoms(use_true_random=False), st.booleans())
def test_nullspace_matches_reference(case, rng, duplicate):
    p, ncols, rows = case
    kernel = linalg.nullspace(columns(rows, ncols), ncols, p)
    assert kernel == ref_nullspace(rows, ncols, p)
    for vec in kernel:
        assert all(sum(a * x for a, x in zip(r, vec)) % p == 0 for r in rows)
    # The basis depends on the row space only, not on the order or
    # repetition of the rows.
    shuffled = rows + rows if duplicate else list(rows)
    rng.shuffle(shuffled)
    assert linalg.nullspace(columns(shuffled, ncols), ncols, p) == kernel
    if p == 2:
        assert linalg.nullspace(packed(shuffled, ncols), ncols, p) == kernel


@settings(max_examples=100, deadline=None)
@given(matrices(max_cols=6), st.data())
def test_nullspace_with_zero_and_repeated_columns(case, data):
    # Column f equal to an earlier column, or zero, is free with the kernel
    # vector e_f - e_first (or e_f alone); the reference agrees.
    p, ncols, rows = case
    picks = data.draw(st.lists(st.integers(-1, ncols - 1), min_size=1, max_size=6))
    wide = [r + [r[c] if c >= 0 else 0 for c in picks] for r in rows]
    width = ncols + len(picks)
    kernel = linalg.nullspace(columns(wide, width), width, p)
    assert kernel == ref_nullspace(wide, width, p)
    if p == 2:
        assert linalg.nullspace(packed(wide, width), width, p) == kernel


def test_nullspace_needs_ncols_columns():
    with pytest.raises(ValueError):
        linalg.nullspace([{0: 1}], 2, 3)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(2 ** 30, 2 ** 31 - 2), min_size=6, max_size=6),
                min_size=4, max_size=5))
def test_nullspace_at_the_largest_characteristic(rows):
    # Products of two entries near 2^31 overflow int64 when summed.
    p = 2 ** 31 - 1
    kernel = linalg.nullspace(columns(rows, 6), 6, p)
    assert kernel == ref_nullspace(rows, 6, p)
    assert all(type(x) is int for vec in kernel for x in vec)


@settings(max_examples=200, deadline=None)
@given(matrices(max_cols=13), st.data())
def test_affine_consistent_rank_matches_reference(case, data):
    p, width, rows = case
    if not rows:
        rows = [[0] * width]
    # Half the time plant a consistent right-hand side b = A x.
    if width > 1 and data.draw(st.booleans()):
        x = data.draw(st.lists(st.integers(0, p - 1), min_size=width - 1, max_size=width - 1))
        rows = [r[:-1] + [sum(a * b for a, b in zip(r, x))] for r in rows]
    assert linalg.affine_consistent_rank(rows, p) == ref_affine_consistent_rank(rows, p)


@pytest.mark.parametrize("p", [2, 3])
def test_window_sized_system(p):
    # A banded system far wider than the random cases: x_c + x_{c+1} + x_{c+7} = 0.
    ncols = 200
    rows = []
    for c in range(ncols - 7):
        row = [0] * ncols
        row[c] = row[c + 1] = row[c + 7] = 1
        rows.append(row)
    reduced, pivots = linalg.rref(sparse(rows), ncols, p)
    ref_reduced, ref_pivots = ref_rref(rows, p)
    assert (reduced, pivots) == (nonzero_rows(ref_reduced, p), ref_pivots)
    assert all(type(x) is int for r in reduced for x in r)
    kernel = linalg.nullspace(columns(rows, ncols), ncols, p)
    assert kernel == ref_nullspace(rows, ncols, p)
    assert len(kernel) == 7
    if p == 2:
        assert linalg.nullspace(packed(rows, ncols), ncols, p) == kernel
    for vec in kernel:
        assert all(sum(a * x for a, x in zip(r, vec)) % p == 0 for r in rows)
