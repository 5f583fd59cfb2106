"""Linear algebra over prime fields, used by search and simulation.

One routine, `coordinates`, reduces a matrix A given by its columns, first
to last.  A column that does not reduce to zero becomes pivot g, numbered
from 0 in the order met, and every column j gets its coordinates in the
basis of the pivot columns:

    column j of A = sum over g of coords[j][g] * (pivot column g of A).

So column j is a pivot exactly when it is not a combination of the columns
before it, and the coordinates of the columns, read one column at a time,
are the reduced row echelon form R of A: row g of R is 1 at pivot g, 0 at
the other pivots and 0 before pivot g.  R and the pivots depend on A alone,
not on how its rows are numbered or ordered.

A vector, a column or its coordinates, is one Python int with a w-bit slot
per entry, entry i in bits [w i, w i + w).  Over F_2, w = 1 and a sum is
an XOR.  Over odd p, w = bitlength(p - 1) + 1, so the sum s = a + b of two
entries fits its slot, and one pass takes p off each slot at p or above:
s - (((s + C) & H) >> (w - 1)) p, H each slot's high bit and C 2^(w-1) - p
in each slot.  So every slot of a vector holds its entry in [0, p), the
invariant each routine keeps.  A multiple v x is taken by double-and-add.

The pass keeps an echelon table keyed by lead, each entry E a reduced column
scaled so its lead, its lowest nonzero slot, is 1, and tagged with its
coordinates T.  A column with v in an entry's lead slot adds (p - v) E, and
its tag v T, until it is zero (its tag is then its coordinates) or its lead
is new (it is then a new pivot).  An entry keeps the multiples asked of it.
Columns may also be {row: value} dicts, keyed by any rows `pack` numbers
as met; perfbench's tracer sizes `rref`'s first column, so `rref` takes
only those.  `nullspace` reads the kernel off R: free column f gives
e_f - sum over g of R[g, f] e_(pivot g).
"""

from __future__ import annotations

from operator import xor
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple, Union

Column = Union[int, Mapping[Hashable, int]]


def width(p: int) -> int:
    """Bits per slot."""
    return 1 if p == 2 else (p - 1).bit_length() + 1


def pack(entries: Iterable[Tuple[Hashable, int]], p: int, rows: Dict[Hashable, int]) -> int:
    """(row, value) pairs as a packed int, each value mod p in the slot rows
    maps its row to; a row first met with a nonzero value takes the next."""
    w, col = width(p), 0
    for r, x in entries:
        if x % p:
            col |= x % p << w * rows.setdefault(r, len(rows))
    return col


def adder(p: int, slots: int) -> Callable[[int, int], int]:
    """The sum of two packed ints of at most `slots` slots."""
    if p == 2:
        return xor
    w = width(p)
    high = ((1 << w * slots) - 1) // ((1 << w) - 1) << w - 1
    excess = (high >> w - 1) * ((1 << w - 1) - p)

    def add(a: int, b: int) -> int:
        s = a + b
        return s - (((s + excess) & high) >> w - 1) * p
    return add


def multiple(add: Callable[[int, int], int], x: int, v: int) -> int:
    """v x, for 0 <= v < p, by double-and-add."""
    if v == 1:
        return x
    out = 0
    while v:
        if v & 1:
            out = add(out, x)
        x, v = add(x, x), v >> 1
    return out


def coordinates(columns: Sequence[Column], p: int) -> Tuple[List[int], List[int]]:
    """(each column's coordinates in the basis of the pivot columns, the
    pivot column indices in increasing order), mod p.  Pivot column
    pivots[g] has 1 in slot g alone.  The columns of one call are all packed
    ints or all {row: value} dicts, packed here with one row numbering."""
    rows: Dict[Hashable, int] = {}
    columns = [c if isinstance(c, int) else pack(c.items(), p, rows) for c in columns]
    w, odd = width(p), p != 2
    top = (1 << w) - 1
    # The rank is at most the number of slots, so tags fit the same sum.
    add = adder(p, max(columns, default=0).bit_length() // w + 1)
    coords: List[int] = []
    pivots: List[int] = []
    # The lead slot's lowest bit -> (E, T, {v: ((p - v) E, v T)}).
    table: Dict[int, Tuple[int, int, Dict[int, Tuple[int, int]]]] = {}
    for j, col in enumerate(columns):
        tag, v = 0, 1
        while col:
            shift = (col & -col).bit_length() - 1
            if odd:
                shift -= shift % w
                v = col >> shift & top
            entry = table.get(shift)
            if entry is None:
                # col = A_j - sum over h of tag[h] (pivot h), scaled to lead 1.
                inv, lead = pow(v, -1, p), 1 << w * len(pivots)
                table[shift] = (multiple(add, col, inv),
                                multiple(add, tag, p - inv) | lead * inv, {})
                tag = lead
                pivots.append(j)
                break
            if not odd:
                col ^= entry[0]
                tag ^= entry[1]
                continue
            step = entry[2].get(v)
            if step is None:
                step = entry[2][v] = (multiple(add, entry[0], p - v), multiple(add, entry[1], v))
            col = add(col, step[0])
            tag = add(tag, step[1])
        coords.append(tag)
    return coords, pivots


def rref(columns: Sequence[Mapping[Hashable, int]], p: int) -> Tuple[List[int], List[int]]:
    """`coordinates` of {row: value} columns: R by columns, and the pivots."""
    return coordinates(columns, p)


def nullspace(columns: Sequence[Column], ncols: int, p: int) -> List[List[int]]:
    """Basis of the right kernel mod p of a matrix given by its ncols columns.

    One vector per free (non-pivot) column f, in increasing order of f: it
    is 1 at f, 0 at the other free columns, and solves for the pivots.
    """
    if len(columns) != ncols:
        raise ValueError(f"nullspace got {len(columns)} columns, expected {ncols}")
    coords, pivots = coordinates(columns, p)
    w = width(p)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        vec, tag = [0] * ncols, coords[f]
        vec[f] = 1
        while tag:
            g = ((tag & -tag).bit_length() - 1) // w
            x = tag >> w * g & (1 << w) - 1
            tag ^= x << w * g
            vec[pivots[g]] = -x % p
        basis.append(vec)
    return basis
