"""Sparse fraction-free reduced row echelon kernel.

Gauss-Jordan elimination on integer rows stored as {col: value} maps that
hold only nonzero entries.  For each column c in order, the pivot row is the
first remaining row with an entry at c; every other row, remaining or already
pivoted, that has an entry m at c is replaced by (p/g)*row - (m/g)*prow, where
p is the pivot entry and g = gcd(p, m).  Rows that are zero at c are not
touched, so the work follows the nonzero entries rather than rows x cols.
Each updated row is then divided by the gcd of its entries (its content),
which keeps entries small without any rational arithmetic.

Every step multiplies a row by a nonzero rational or adds a multiple of
another row to it, so the row space never changes; at the end each pivot row
is zero at every other pivot column and at every column left of its pivot.
Dividing each pivot row by its pivot entry therefore gives the reduced row
echelon form over Q, which is unique for the row space.  Pivot columns are
taken in column order, which keeps output bases deterministic.
"""

from math import gcd


def rref_int(rows, ncols):
    """Sparse fraction-free Gauss-Jordan on a list of {col: int} rows.

    Returns (rows, pivots): one primitive {col: int} row per pivot column,
    in pivot order.  Row i divided by its entry at pivots[i] is row i of the
    rational RREF; zero rows are dropped.  The input rows are not modified.
    """
    pending = [r for r in rows if r]
    done = []
    pivots = []
    for c in range(ncols):
        if not pending:
            break
        pi = next((i for i, r in enumerate(pending) if c in r), -1)
        if pi < 0:
            continue
        prow = _primitive(pending.pop(pi))
        pending = [r for r in (_clear(r, prow, c) if c in r else r
                               for r in pending) if r]
        done = [_clear(r, prow, c) if c in r else r for r in done]
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
