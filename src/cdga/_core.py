"""Sparse fraction-free reduced row echelon kernel.

Gauss-Jordan elimination on integer rows stored as {col: value} maps that
hold only nonzero entries.  For each column c in order, the pivot row is the
remaining row of lowest input position with an entry at c; every other row,
remaining or already pivoted, that has an entry m at c is replaced by
(p/g)*row - (m/g)*prow, where p is the pivot entry and g = gcd(p, m).  Each
updated row is then divided by the gcd of its entries (its content), which
keeps entries small without any rational arithmetic.

A col -> rows index, one for the remaining rows and one for the pivot rows,
names the rows holding c, so rows that are zero at c are neither touched nor
scanned.  Clearing c with the pivot row changes a row only at the pivot
row's columns, so only those index entries are updated.  The work therefore
follows the nonzero entries rather than rows x cols.

Every step multiplies a row by a nonzero rational or adds a multiple of
another row to it, so the row space never changes; at the end each pivot row
is zero at every other pivot column and at every column left of its pivot.
Dividing each pivot row by its pivot entry therefore gives the reduced row
echelon form over Q, which is unique for the row space.  Pivot columns are
taken in column order, which keeps output bases deterministic.

A caller may give another column order, and the pivot columns are then
taken in that order.  In descending order (exactla.kernel's) the argument
above runs mirrored: each pivot row is zero at every other pivot column and
at every column right of its pivot, which is the RREF of the column-reversed
matrix read back.
"""

from collections import defaultdict
from math import gcd


def rref_int(rows, ncols, order=None):
    """Sparse fraction-free Gauss-Jordan on a list of {col: int} rows.

    Returns (rows, pivots): one primitive {col: int} row per pivot column,
    in pivot order.  Row i divided by its entry at pivots[i] is row i of the
    rational RREF; zero rows are dropped.  The input rows are not modified.
    order, all of range(ncols) in the order pivot columns are taken,
    defaults to ascending; the RREF is then the one of the matrix with its
    columns in that order.
    """
    pending = {}                   # input position -> row not yet a pivot
    pending_at = defaultdict(set)  # col -> positions of pending rows there
    for i, r in enumerate(rows):
        if r:
            pending[i] = r
            for j in r:
                pending_at[j].add(i)
    done = []                      # pivot rows, in pivot order
    done_at = defaultdict(set)     # col -> indices of pivot rows there
    pivots = []
    for c in range(ncols) if order is None else order:
        if not pending:
            break
        holders = pending_at.pop(c, None)
        if not holders:
            continue
        pi = min(holders)
        holders.remove(pi)
        prow = _primitive(pending.pop(pi))
        # clearing c with prow changes a row only at prow's other columns
        others = [j for j in prow if j != c]
        for j in others:
            pending_at[j].discard(pi)
        for i in holders:
            row = pending[i]
            pending[i] = new = _clear(row, prow, c)
            for j in others:
                if j in new:
                    if j not in row:
                        pending_at[j].add(i)
                elif j in row:
                    pending_at[j].discard(i)
            if not new:
                del pending[i]
        for t in done_at.pop(c, ()):
            row = done[t]
            done[t] = new = _clear(row, prow, c)
            for j in others:
                if j in new:
                    if j not in row:
                        done_at[j].add(t)
                elif j in row:
                    done_at[j].discard(t)
        for j in others:
            done_at[j].add(len(done))
        done.append(prow)
        pivots.append(c)
    return done, pivots


def _clear(row, prow, c):
    """(p/g)*row - (m/g)*prow with p, m the entries at c: a new primitive row
    that is zero at c."""
    p = prow[c]
    m = row[c]
    g = gcd(p, m)
    a = p // g
    b = m // g
    out = {j: a * x for j, x in row.items()} if a != 1 else row.copy()
    for j, y in prow.items():
        v = out.get(j, 0) - b * y
        if v:
            out[j] = v
        else:
            del out[j]
    return _primitive(out) if out else out


def _primitive(row):
    """row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}
