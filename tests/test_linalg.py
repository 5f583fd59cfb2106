"""The tagged column pass of F_p elimination against a slow dense reference."""

import pytest
from hypothesis import example, given, settings
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


def dense_columns(coords, pivots, p):
    """The coordinates `linalg.coordinates` returns as dense columns of R,
    one entry per pivot: slot g of a packed int, w bits from bit w g, is
    pivot g."""
    w = linalg.width(p)
    mask = (1 << w) - 1
    return [[tag >> w * g & mask for g in range(len(pivots))] for tag in coords]


def ref_columns(rows, ncols, p):
    """The columns of R from the reference, pivot rows only."""
    reduced, pivots = ref_rref(rows, p)
    return [[reduced[g][c] % p for g in range(len(pivots))] for c in range(ncols)], pivots


def assert_matches_reference(reduced, pivots, rows, ncols, p):
    """pivots and every column of R agree with the reference, each entry an
    int reduced mod p."""
    ref_reduced, ref_pivots = ref_columns(rows, ncols, p)
    assert pivots == ref_pivots
    assert len(reduced) == ncols
    assert dense_columns(reduced, pivots, p) == ref_reduced
    # Each tag is a Python int with an entry in [0, p) in each pivot's slot
    # and nothing above them.
    w = linalg.width(p)
    assert all(type(tag) is int and 0 <= tag < 1 << w * len(pivots) for tag in reduced)
    assert all(x < p for column in dense_columns(reduced, pivots, p) for x in column)


def columns(rows, ncols):
    """The sparse {row: value} columns of dense rows."""
    return [{i: r[c] for i, r in enumerate(rows) if r[c]} for c in range(ncols)]


def packed(rows, ncols, p):
    """The columns of dense rows packed into ints, row i in slot i."""
    w = linalg.width(p)
    return [sum(r[c] % p << w * i for i, r in enumerate(rows)) for c in range(ncols)]


# -- matrices: random, all-zero and rank-deficient, entries not yet reduced,
#    some columns empty and some repeated ------------------------------------

@st.composite
def matrices(draw, max_rows=12, max_cols=12, primes=(2, 3, 5, 7)):
    p = draw(st.sampled_from(primes))
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
    # Column dst becomes empty (src -1) or a copy of an earlier column src.
    for dst in draw(st.sets(st.integers(0, ncols - 1), max_size=3)):
        src = draw(st.integers(-1, dst - 1))
        for r in rows:
            r[dst] = r[src] if src >= 0 else 0
    return p, ncols, rows


# -- slot arithmetic: each slot of a sum or a multiple, one at a time --------

def slot_values(x, p, n):
    """The first n slots of a packed int."""
    w = linalg.width(p)
    return [x >> w * i & (1 << w) - 1 for i in range(n)]


@st.composite
def slot_vectors(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 31, 2 ** 31 - 1]))
    n = draw(st.integers(1, 24))
    vector = st.one_of(st.just([p - 1] * n),
                       st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    return p, n, draw(vector), draw(vector), draw(st.integers(0, p - 1))


@settings(max_examples=300, deadline=None)
@given(slot_vectors())
@example((3, 5, [2] * 5, [2] * 5, 2))
@example((7, 3, [0, 0, 6], [0, 0, 6], 6))
@example((2 ** 31 - 1, 3, [2 ** 31 - 2] * 3, [2 ** 31 - 2] * 3, 2 ** 31 - 2))
@example((2 ** 31 - 1, 2, [0, 2 ** 31 - 2], [1, 1], 2 ** 30))
def test_slot_arithmetic_matches_each_slot(case):
    # The adder is sized to n slots, so the top slot of its masks is used;
    # slot n must stay empty.
    p, n, xs, ys, v = case
    w = linalg.width(p)
    x, y = (sum(a << w * i for i, a in enumerate(vector)) for vector in (xs, ys))
    add = linalg.adder(p, n)
    assert slot_values(add(x, y), p, n + 1) == [(a + b) % p for a, b in zip(xs, ys)] + [0]
    assert slot_values(linalg.multiple(add, x, v), p, n + 1) == [v * a % p for a in xs] + [0]
    # pack reduces each value mod p and numbers new rows as it meets their
    # nonzero values.
    entries = [(("row", i), a - p) for i, a in enumerate(xs)]
    assert linalg.pack(entries, p, {("row", i): i for i in range(n)}) == x
    rows = {}
    linalg.pack(entries, p, rows)
    assert rows == {("row", i): k for k, i in enumerate(i for i, a in enumerate(xs) if a)}


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_matches_reference(case):
    p, ncols, rows = case
    reduced, pivots = linalg.rref(columns(rows, ncols), p)
    assert_matches_reference(reduced, pivots, rows, ncols, p)
    assert linalg.coordinates(packed(rows, ncols, p), p) == (reduced, pivots)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2 ** 31 - 2), min_size=6, max_size=6),
                min_size=1, max_size=5))
def test_rref_at_the_largest_characteristic(rows):
    # Entries near 2^31 must come back exact, as Python ints.
    p = 2 ** 31 - 1
    reduced, pivots = linalg.rref(columns(rows, 6), p)
    assert_matches_reference(reduced, pivots, rows, 6, p)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_rref_keyed_by_monomials(case, rng):
    # Normal-form columns keyed by monomial tuples, as `shape_search` passes
    # them, give the pivots and R of the same columns keyed by row number.
    p, ncols, rows = case
    monomials = [(i % 3, -i, i * i) for i in range(len(rows))]
    rng.shuffle(monomials)
    keyed = [{monomials[i]: x for i, x in col.items()} for col in columns(rows, ncols)]
    assert linalg.rref(keyed, p) == linalg.rref(columns(rows, ncols), p)


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
    assert linalg.nullspace(packed(shuffled, ncols, p), ncols, p) == kernel


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
    assert linalg.nullspace(packed(wide, width, p), width, p) == kernel


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
def test_rref_reads_affine_consistency(case, data):
    # Rows [A | b] are consistent exactly when the right-hand column is not a
    # pivot, and the other pivots are the rank of A.
    p, width, rows = case
    if not rows:
        rows = [[0] * width]
    # Half the time plant a consistent right-hand side b = A x.
    if width > 1 and data.draw(st.booleans()):
        x = data.draw(st.lists(st.integers(0, p - 1), min_size=width - 1, max_size=width - 1))
        rows = [r[:-1] + [sum(a * b for a, b in zip(r, x))] for r in rows]
    _, pivots = linalg.rref(columns(rows, width), p)
    inconsistent = width - 1 in pivots
    assert (not inconsistent, len(pivots) - inconsistent) == ref_affine_consistent_rank(rows, p)


@pytest.mark.parametrize("p", [2, 3])
def test_window_sized_system(p):
    # A banded system far wider than the random cases: x_c + x_{c+1} + x_{c+7} = 0.
    ncols = 200
    rows = []
    for c in range(ncols - 7):
        row = [0] * ncols
        row[c] = row[c + 1] = row[c + 7] = 1
        rows.append(row)
    reduced, pivots = linalg.rref(columns(rows, ncols), p)
    assert_matches_reference(reduced, pivots, rows, ncols, p)
    assert linalg.coordinates(packed(rows, ncols, p), p) == (reduced, pivots)
    kernel = linalg.nullspace(columns(rows, ncols), ncols, p)
    assert kernel == ref_nullspace(rows, ncols, p)
    assert len(kernel) == 7
    assert linalg.nullspace(packed(rows, ncols, p), ncols, p) == kernel
    for vec in kernel:
        assert all(sum(a * x for a, x in zip(r, vec)) % p == 0 for r in rows)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2 ** 31 - 1])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_columns_at_every_characteristic(p, data):
    # One column format for every p: packed columns give R, the pivots and
    # the kernel of the reference.
    _, ncols, rows = data.draw(matrices(primes=(p,)))
    reduced, pivots = linalg.coordinates(packed(rows, ncols, p), p)
    assert_matches_reference(reduced, pivots, rows, ncols, p)
    assert linalg.nullspace(packed(rows, ncols, p), ncols, p) == ref_nullspace(rows, ncols, p)
