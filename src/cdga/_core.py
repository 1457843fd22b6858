"""Fraction-free reduced row echelon kernel.

Gauss-Jordan elimination in the Bareiss/Montante style: all arithmetic is on
integers, each update divides exactly by the previous pivot, so entries stay
minors of the input and never grow past the final determinant bound.  Pivot
choice is the first nonzero entry in column order, which keeps output bases
deterministic.
"""


def rref_int(rows, ncols):
    """Fraction-free Gauss-Jordan on a list of integer rows.

    Returns (matrix, pivots).  Each pivot row r of the output, divided by its
    entry in column pivots[r], is the corresponding row of the rational RREF;
    the remaining rows are zero.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots = []
    prev = 1
    pr = 0
    for c in range(ncols):
        pi = -1
        for r in range(pr, nrows):
            if m[r][c] != 0:
                pi = r
                break
        if pi < 0:
            continue
        if pi != pr:
            m[pr], m[pi] = m[pi], m[pr]
        p = m[pr][c]
        prow = m[pr]
        for r in range(nrows):
            if r == pr:
                continue
            mr = m[r]
            mc = mr[c]
            if mc == 0:
                if prev != 1:
                    for j in range(ncols):
                        mr[j] = (p * mr[j]) // prev
                elif p != 1:
                    for j in range(ncols):
                        mr[j] = p * mr[j]
            else:
                for j in range(ncols):
                    mr[j] = (p * mr[j] - mc * prow[j]) // prev
        prev = p
        pivots.append(c)
        pr += 1
    return m, pivots
