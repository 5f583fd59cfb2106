"""Linear algebra over prime fields, used by search and simulation.

Callers pass and receive dense rows (lists of ints), but rows are never
dense while they are reduced.  Over F_2 a row is packed into one Python int
(bit c is column c) and row operations are XORs; over odd p a row is a
sparse {column: value} dict.  Window systems have a few nonzeros per row
and hundreds to thousands of columns, which is where this pays.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence, Tuple

# '0'/'1' characters to the bytes 0/1, for unpacking an F_2 row at C speed.
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _pack(row: Sequence[int], p: int):
    if p == 2:
        return sum(1 << c for c, x in enumerate(row) if x % 2)
    return {c: x % p for c, x in enumerate(row) if x % p}


def _unpack(row, p: int, width: int) -> List[int]:
    if p == 2:
        return list(format(row, f"0{width}b").encode()[::-1].translate(_BITS)) if width else []
    dense = [0] * width
    for c, x in row.items():
        dense[c] = x
    return dense


def _eliminate(work: list, p: int, limit: int) -> List[int]:
    """Gauss-Jordan on packed rows in place; returns the pivot columns.

    The pivot of each column is the first remaining row with a nonzero
    entry there, and every other row is cleared in that column, so the rows
    come out in reduced row echelon order: pivot rows first, then the rest.
    """
    pivots: List[int] = []
    row = 0
    n = len(work)
    for col in range(limit):
        if p == 2:
            pivot = next((r for r in range(row, n) if work[r] >> col & 1), None)
        else:
            pivot = next((r for r in range(row, n) if col in work[r]), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        # Rows row+1..pivot are zero in this column: the pivot is the first
        # nonzero one and the row swapped down to `pivot` had a zero there.
        others = chain(range(row), range(pivot + 1, n))
        if p == 2:
            prow = work[row]
            for r in others:
                if work[r] >> col & 1:
                    work[r] ^= prow
        else:
            inv = pow(work[row][col], -1, p)
            prow = {c: x * inv % p for c, x in work[row].items()}
            work[row] = prow
            for r in others:
                target = work[r]
                factor = target.get(col)
                if factor:
                    for c, x in prow.items():
                        v = (target.get(c, 0) - factor * x) % p
                        if v:
                            target[c] = v
                        else:
                            del target[c]
        pivots.append(col)
        row += 1
        if row == n:
            break
    return pivots


def rref(rows: Sequence[Sequence[int]], p: int, ncols: Optional[int] = None):
    """Reduced row echelon form mod p.

    Returns (reduced rows, pivot column list), every entry reduced mod p.
    If ncols is given, only the first ncols columns are pivot-eligible
    (trailing columns act as an augmented right-hand side).
    """
    width = len(rows[0]) if rows else 0
    work = [_pack(r, p) for r in rows]
    pivots = _eliminate(work, p, width if ncols is None else ncols)
    return [_unpack(r, p, width) for r in work], pivots


def affine_consistent_rank(rows_aug: Sequence[Sequence[int]], p: int) -> Tuple[bool, int]:
    """For augmented rows [A | b]: (consistent, rank of A)."""
    reduced, pivots = rref(rows_aug, p, ncols=len(rows_aug[0]) - 1)
    # Rows past the pivot rows are zero in A; a nonzero b there is 0 = b.
    return not any(r[-1] for r in reduced[len(pivots):]), len(pivots)


def nullspace(rows: Sequence[Sequence[int]], ncols: int, p: int) -> List[List[int]]:
    """Basis of the right kernel of the matrix mod p.

    One vector per free (non-pivot) column f, in increasing order of f: it
    is 1 at f, 0 at the other free columns, and solves for the pivots.
    """
    if not rows:
        rows = [[0] * ncols]
    reduced, pivots = rref(rows, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    # rref puts the pivot rows first, in pivot order.
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, pc in zip(reduced, pivots):
            vec[pc] = (-r[f]) % p
        basis.append(vec)
    return basis
