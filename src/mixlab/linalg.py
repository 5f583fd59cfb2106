"""Linear algebra over prime fields, used by search and simulation.

A row is sparse, a {column: value} dict, and rows go into an echelon table
keyed by their lead, the lowest column where the row is nonzero.  A new row
is reduced only by the table row that shares its current lead, until it is
zero or its lead is new to the table.  Over F_2 a table row is packed into
one Python int (bit c is column c) and reduction is an XOR; over odd p it is
a dict scaled so the lead entry is 1.  Over F_2 a row may also come packed.

Every echelon form of a row space has the same leads, and they are the
pivot columns of its reduced row echelon form R, whatever order the rows
came in.  `rref` builds the table, then clears each row at the higher
pivots, highest pivot first, which gives R.  `rref` and `nullspace`
return lists of Python ints, exact for any p.

`nullspace` takes its matrix A (m rows, n columns) by columns and reduces
the transpose with a reversed identity appended: row j is column j of A
followed by a 1 at position m + n - 1 - j.  The table spans every
(x^T A, x reversed), so its rows whose transposed part reduces to zero span
the kernel, and a kernel row's lead is its highest nonzero column f.  That
f is free (column f of A is a combination of the columns before it), and
every free column is one such lead.  The same clearing sweep on the kernel
rows alone leaves, for each free column f, the one kernel vector that is 1
at f and 0 at the other free columns: e_f - sum_q R[q, f] e_q over the
pivots q, the basis read off R, whatever the order of the rows of A.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

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


def _echelon(rows: Iterable[Row], p: int) -> Dict[int, Row]:
    """The echelon table of the rows: lead column -> row with that lead.
    Over F_2 a row may be a packed int as well as a dict."""
    table: Dict[int, Row] = {}
    for entries in rows:
        if p == 2:
            if isinstance(entries, int):
                row = entries
            else:
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


def _clear(table: Dict[int, Row], pivots: Sequence[int], p: int) -> None:
    """Clear each table row led by one of the pivots (increasing) at the
    higher of those pivots, highest pivot first, in place.  A row already
    cleared is zero at every listed pivot but its own, so subtracting it
    clears one column and touches no other listed pivot."""
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


def rref(rows: Sequence[Mapping[int, int]], ncols: int, p: int) -> Tuple[List[List[int]], List[int]]:
    """Reduced row echelon form mod p of sparse {column: value} rows.

    Returns (R, pivot column list): R holds the pivot rows in pivot order,
    each a list of ncols ints reduced mod p.
    """
    table = _echelon(rows, p)
    pivots = sorted(table)
    _clear(table, pivots, p)
    if p == 2:
        return [list(format(table[q], f"0{ncols}b").encode()[::-1].translate(_BITS))
                for q in pivots], pivots
    reduced = []
    for q in pivots:
        row = [0] * ncols
        for c, x in table[q].items():
            row[c] = x
        reduced.append(row)
    return reduced, pivots


def affine_consistent_rank(rows_aug: Sequence[Sequence[int]], p: int) -> Tuple[bool, int]:
    """For dense augmented rows [A | b]: (consistent, rank of A)."""
    rhs = len(rows_aug[0]) - 1
    table = _echelon(({c: x for c, x in enumerate(r) if x} for r in rows_aug), p)
    # A row led by the right-hand side reads 0 = b with b nonzero.
    inconsistent = rhs in table
    return not inconsistent, len(table) - inconsistent


def nullspace(columns: Sequence[Row], ncols: int, p: int) -> List[List[int]]:
    """Basis of the right kernel mod p of a matrix given by its ncols columns.

    A column is a sparse {row: value} dict, or over F_2 also a packed int
    (bit i is row i).  One vector per free (non-pivot) column f, in
    increasing order of f: it is 1 at f, 0 at the other free columns, and
    solves for the pivots.  The numbering of the rows does not matter.
    """
    if len(columns) != ncols:
        raise ValueError(f"nullspace got {len(columns)} columns, expected {ncols}")
    height = max((c.bit_length() if isinstance(c, int) else max(c, default=-1) + 1
                  for c in columns), default=0)
    top = height + ncols - 1
    table = _echelon((c | 1 << (top - j) if isinstance(c, int) else {**c, top - j: 1}
                      for j, c in enumerate(columns)), p)
    kernel = sorted(q for q in table if q >= height)
    _clear(table, kernel, p)
    # Lead top - f is free column f, so the highest lead comes first.
    if p == 2:
        return [list(format(table[q] >> height, f"0{ncols}b").encode().translate(_BITS))
                for q in reversed(kernel)]
    basis = []
    for q in reversed(kernel):
        vec = [0] * ncols
        for c, x in table[q].items():
            vec[top - c] = x
        basis.append(vec)
    return basis
