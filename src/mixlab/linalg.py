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

The pass keeps an echelon table keyed by lead, each entry a reduced column
tagged with its coordinates, so the invariant holds for every entry too.  A
new column is reduced only by the entry that shares its current lead, and
its tag takes up each entry it subtracts, until the column is zero (its tag
is then its coordinates) or its lead is new to the table (it is then a new
pivot).  Over F_2 a column and a tag are packed into Python ints (bit i is
row i, bit g is pivot g), a step is two XORs, and the lead is the lowest
set bit.  Over odd p both are sparse dicts, a column scaled so its lead,
its lowest row, is 1.  A column may be a {row: value} dict whose rows are
any sortable keys, or over F_2 a packed int (the columns of one call are
all dicts or all packed ints).  Coordinates are Python ints, exact for any
p.

`rref` is that reduction under the name callers use for dict columns;
perfbench's tracer wraps it and sizes its first column, so it never takes
packed ints.  `nullspace` reads the kernel off R: free column f gives
e_f - sum over g of R[g, f] e_(pivot g).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Sequence, Tuple, Union

Column = Union[int, Mapping[Hashable, int]]
Coordinates = Union[int, Dict[int, int]]


def _subtract(target: Dict, factor: int, source: Mapping, p: int) -> None:
    """target -= factor * source, in place, mod p."""
    for c, x in source.items():
        v = (target.get(c, 0) - factor * x) % p
        if v:
            target[c] = v
        else:
            del target[c]


def coordinates(columns: Sequence[Column], p: int) -> Tuple[List[Coordinates], List[int]]:
    """(each column's coordinates in the basis of the pivot columns, the
    pivot column indices in increasing order), mod p.

    Over F_2 coordinates are packed ints, bit g for pivot g; over odd p they
    are {g: value} dicts.  Pivot column pivots[g] has coordinates bit g (or
    {g: 1}) alone.
    """
    coords: List[Coordinates] = []
    pivots: List[int] = []
    if p == 2:
        bits: Dict[Hashable, int] = {}
        table: Dict[int, Tuple[int, int]] = {}
        for j, entries in enumerate(columns):
            col, tag = entries, 0
            if not isinstance(col, int):
                col = 0
                for r, x in entries.items():
                    if x % 2:
                        col |= 1 << bits.setdefault(r, len(bits))
            while col:
                low = col & -col
                entry = table.get(low)
                if entry is None:
                    lead = 1 << len(pivots)
                    pivots.append(j)
                    table[low] = (col, tag ^ lead)
                    tag = lead
                    break
                col ^= entry[0]
                tag ^= entry[1]
            coords.append(tag)
        return coords, pivots
    reduced: Dict[Hashable, Tuple[Dict, Dict[int, int]]] = {}
    for j, entries in enumerate(columns):
        col = {r: x % p for r, x in entries.items() if x % p}
        tag: Dict[int, int] = {}
        while col:
            lead = min(col)
            entry = reduced.get(lead)
            if entry is None:
                # col = A_j - sum tag[h] A_h, scaled so col[lead] = 1.
                inv = pow(col[lead], -1, p)
                scaled = {h: -a * inv % p for h, a in tag.items()}
                scaled[len(pivots)] = inv
                reduced[lead] = ({r: x * inv % p for r, x in col.items()}, scaled)
                tag = {len(pivots): 1}
                pivots.append(j)
                break
            factor = col[lead]
            _subtract(col, factor, entry[0], p)
            _subtract(tag, -factor, entry[1], p)
        coords.append(tag)
    return coords, pivots


def rref(columns: Sequence[Mapping[Hashable, int]], p: int) -> Tuple[List[Coordinates], List[int]]:
    """`coordinates` of sparse {row: value} columns: R by columns, and the
    pivots."""
    return coordinates(columns, p)


def nullspace(columns: Sequence[Column], ncols: int, p: int) -> List[List[int]]:
    """Basis of the right kernel mod p of a matrix given by its ncols columns.

    A column is a sparse {row: value} dict, or over F_2 also a packed int
    (bit i is row i).  One vector per free (non-pivot) column f, in
    increasing order of f: it is 1 at f, 0 at the other free columns, and
    solves for the pivots.  The numbering of the rows does not matter.
    """
    if len(columns) != ncols:
        raise ValueError(f"nullspace got {len(columns)} columns, expected {ncols}")
    coords, pivots = coordinates(columns, p)
    pivot_columns = set(pivots)
    basis = []
    for f, tag in enumerate(coords):
        if f in pivot_columns:
            continue
        vec = [0] * ncols
        vec[f] = 1
        if p == 2:
            while tag:
                low = tag & -tag
                tag ^= low
                vec[pivots[low.bit_length() - 1]] = 1
        else:
            for g, x in tag.items():
                vec[pivots[g]] = -x % p
        basis.append(vec)
    return basis
