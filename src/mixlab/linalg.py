"""Linear algebra over prime fields, used by search and simulation.

A row is sparse, a {column: value} dict, and rows go into an echelon table
keyed by their lead, the lowest column where the row is nonzero.  A new row
is reduced only by the table row that shares its current lead, until it is
zero or its lead is new to the table.  Over F_2 a table row is packed into
one Python int (bit c is column c) and reduction is an XOR; over odd p it is
a dict scaled so the lead entry is 1.

Every echelon form of a row space has the same leads, and they are the
pivot columns of its reduced row echelon form R, whatever order the rows
came in.  One reduction serves `rref` and `nullspace`: it builds the table,
then clears each row at the higher pivots, highest pivot first, which gives
R.  The kernel is read off R with no further solving: for each free
(non-pivot) column f the vector e_f - sum_q R[q, f] e_q, over the pivots q,
is 1 at f, 0 at the other free columns and solves every row of R.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

import numpy as np

# '0'/'1' characters to the bytes 0/1, for unpacking F_2 rows at C speed.
_BITS = bytes.maketrans(b"01", b"\x00\x01")

Row = Union[int, Dict[int, int]]


def _subtract(target: Dict[int, int], factor: int, source: Dict[int, int], p: int) -> None:
    """target -= factor * source, in place, mod p."""
    for c, x in source.items():
        v = (target.get(c, 0) - factor * x) % p
        if v:
            target[c] = v
        else:
            del target[c]


def _echelon(rows: Iterable[Mapping[int, int]], p: int) -> Dict[int, Row]:
    """The echelon table of the rows: lead column -> row with that lead."""
    table: Dict[int, Row] = {}
    for entries in rows:
        if p == 2:
            row = 0
            for c, x in entries.items():
                if x % 2:
                    row |= 1 << c
            while row:
                lead = (row & -row).bit_length() - 1
                if lead not in table:
                    table[lead] = row
                    break
                row ^= table[lead]
        else:
            row = {c: x % p for c, x in entries.items() if x % p}
            while row:
                lead = min(row)
                if lead not in table:
                    inv = pow(row[lead], -1, p)
                    table[lead] = {c: x * inv % p for c, x in row.items()}
                    break
                _subtract(row, row[lead], table[lead], p)
    return table


def _reduce(rows: Iterable[Mapping[int, int]], ncols: int, p: int) -> Tuple[np.ndarray, List[int]]:
    """R, the nonzero rows of the reduced row echelon form as an int64
    array, and its pivot columns in increasing order."""
    table = _echelon(rows, p)
    pivots = sorted(table)
    # Clear each pivot row at the higher pivot columns, highest pivot first.
    # A row already cleared is zero at every pivot column but its own, so
    # subtracting it clears one column and touches no other pivot.
    above = 0
    for q in reversed(pivots):
        row = table[q]
        if p == 2:
            hits = row & above
            while hits:
                low = hits & -hits
                row ^= table[low.bit_length() - 1]
                hits ^= low
            table[q] = row
            above |= 1 << q
        else:
            for j in [c for c in row if c > q and c in table]:
                _subtract(row, row[j], table[j], p)
    if p == 2:
        bits = b"".join(format(table[q], f"0{ncols}b").encode()[::-1] for q in pivots)
        reduced = np.frombuffer(bits.translate(_BITS), dtype=np.uint8)
        return reduced.reshape(len(pivots), ncols).astype(np.int64), pivots
    reduced = np.zeros((len(pivots), ncols), dtype=np.int64)
    for i, q in enumerate(pivots):
        reduced[i, list(table[q])] = list(table[q].values())
    return reduced, pivots


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for int64 arrays with entries in [0, p), exactly.

    A sum of k products is at most k (p - 1)^2.  The inner dimension is
    summed in slices of the largest k for which that, plus a residue below
    p, fits in int64; for small p the whole dimension is one slice.
    """
    step = ((1 << 63) - p) // max((p - 1) ** 2, 1)
    out = np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
    for i in range(0, a.shape[-1], step):
        out = (out + a[..., i:i + step] @ b[i:i + step]) % p
    return out


def rref(rows: Sequence[Mapping[int, int]], ncols: int, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form mod p of sparse {column: value} rows.

    Returns (R, pivot column list): R holds the pivot rows in pivot order,
    every entry reduced mod p, as an int64 array with ncols columns.
    """
    return _reduce(rows, ncols, p)


def affine_consistent_rank(rows_aug: Sequence[Sequence[int]], p: int) -> Tuple[bool, int]:
    """For dense augmented rows [A | b]: (consistent, rank of A)."""
    rhs = len(rows_aug[0]) - 1
    table = _echelon(({c: x for c, x in enumerate(r) if x} for r in rows_aug), p)
    # A row led by the right-hand side reads 0 = b with b nonzero.
    inconsistent = rhs in table
    return not inconsistent, len(table) - inconsistent


def nullspace(rows: Iterable[Mapping[int, int]], ncols: int, p: int) -> List[List[int]]:
    """Basis of the right kernel mod p of sparse {column: value} rows.

    One vector per free (non-pivot) column f, in increasing order of f: it
    is 1 at f, 0 at the other free columns, and solves for the pivots.
    Columns run from 0 to ncols - 1; the row order does not matter.
    """
    reduced, pivots = _reduce(rows, ncols, p)
    free = sorted(set(range(ncols)) - set(pivots))
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = (-reduced[:, free].T) % p
    return basis.tolist()
