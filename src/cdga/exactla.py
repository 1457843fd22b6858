"""Exact linear algebra over Q: rank, kernel, image, linear systems, quotients.

A matrix is a list of sparse integer columns, each a {row: int} map of
its nonzero entries, with its row count and, where a solve needs it, a
common denominator of all its entries: the form in which callers write d
of a basis element or the class coordinates of an image.  kernel, image
and LinearSolver take (columns, nrows); image's span and the rank
(image(...).dim or LinearSolver.rank) are scale-free, so they need no
denominator.  Inside this module a vector is a sparse integer row, a
{col: int} map, the form the fraction-free kernel in cdga._core works on.
Fractions become integers in one place: int_rows scales {key: Fraction or
int} maps over the lcm of their denominators, for a caller's columns, a
dense vector (once, through _to_int_row or as a solve's right-hand side)
and dga's generator images.  Rows are eliminated with _core.rref_int,
which returns ([], []) when no row is nonzero.  A subspace is its
primitive RREF rows and their pivot columns; quotient_basis returns
indices of such rows, and complement(sub) those of the unit vectors
completing sub to Q^n, with no identity matrix built.  kernel makes the
package's only transpose, into the rows its one elimination needs, with
pivot columns in descending order: the vectors it reads off the free
columns are then already the kernel's RREF rows (see kernel), so they are
not eliminated again.  There is no inverse: a LinearSolver on A gives
A^-1 b.  Dense Fraction tuples are built only where a caller reads them:
Subspace.basis (on first read), rref_rows and LinearSolver.solve.

_residual reduces a vector against a {pivot column: row} map with _core's
row update _clear, in ascending pivot order, so its work follows the
vector's pivot columns rather than the number of rows.

LinearSolver eliminates m's integer columns, as its callers hold them,
column j carrying e_j in a tail whose order is reversed ([m^T | J]).  A
pivot left of the tail gives a row v of the RREF of m's column space, with
its tail a u such that m u = v.  A column j that depends on the columns
before it gives a kernel vector whose support ends at j; reversed, its
leading entry is j's tail position, so the tail pivots are m's free columns
and full reduction leaves every u zero there.  Summing the u over b's
coordinates on the RREF thus gives the solution with free variables zero,
as a row elimination of [m | b] does.  The pivot row is always the first
row holding the column, and columns are taken in a fixed order (ascending
everywhere but in kernel), so every derived basis is deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heapify, heappop, heappush

from ._core import _clear, _primitive, rref_int
from .errors import DimensionMismatch, NoSolution


_ZERO = Fraction(0)


def int_rows(maps):
    """(rows, den): the {key: Fraction or int} maps as {key: int} maps over
    den, the lcm of all their denominators."""
    den = math.lcm(*{x.denominator for m in maps for x in m.values()})
    return [{k: x.numerator * (den // x.denominator) for k, x in m.items()}
            for m in maps], den


def _to_int_row(row):
    """The {col: int} map of a dense row of Fractions or ints, scaled by the
    lcm of its denominators."""
    return int_rows([{j: x for j, x in enumerate(row) if x}])[0][0]


def _dense(row, ncols, den):
    """The Fraction tuple of an int row divided by den."""
    out = [_ZERO] * ncols
    for j, x in row.items():
        out[j] = Fraction(x, den)
    return tuple(out)


def _residual(w, echelon):
    """w reduced by echelon, a {pivot column: row} map of rows that are zero
    left of their pivots: empty iff w is in their span.  Clearing column c
    adds only columns right of c, so w's pivot columns are cleared in
    ascending order, each once; only a clearing row's columns can add one."""
    todo = [c for c in w if c in echelon]
    heapify(todo)
    queued = set(todo)
    while todo:
        c = heappop(todo)
        if c in w:
            row = echelon[c]
            w = _clear(w, row, c)
            for j in row:
                if j not in queued and j in echelon and j in w:
                    queued.add(j)
                    heappush(todo, j)
    return w


def rref_rows(rows, ncols):
    """RREF of a list of Fraction rows: (rows, pivots), zero rows dropped."""
    reduced, pivots = rref_int([_to_int_row(r) for r in rows], ncols)
    return [_dense(r, ncols, r[c]) for r, c in zip(reduced, pivots)], pivots


class Subspace:
    """A subspace of Q^n, stored as primitive int RREF rows and pivots."""

    __slots__ = ("ambient_dim", "pivots", "_rows", "_basis")

    def __init__(self, ambient_dim, vectors=()):
        vectors = list(vectors)
        if any(len(v) != ambient_dim for v in vectors):
            raise DimensionMismatch("vector length != ambient dimension")
        self._set(ambient_dim, [_to_int_row(v) for v in vectors])

    @classmethod
    def _of_rows(cls, ambient_dim, rows):
        """The span of {col: int} rows."""
        s = cls.__new__(cls)
        s._set(ambient_dim, rows)
        return s

    @classmethod
    def _of_rref(cls, ambient_dim, rows, pivots):
        """The span of primitive {col: int} RREF rows with these pivots,
        kept as they are."""
        s = cls.__new__(cls)
        s.ambient_dim = ambient_dim
        s._rows, s.pivots, s._basis = rows, tuple(pivots), None
        return s

    def _set(self, ambient_dim, rows):
        self.ambient_dim = ambient_dim
        self._rows, pivots = rref_int(rows, ambient_dim)
        self.pivots = tuple(pivots)
        self._basis = None

    @property
    def basis(self):
        """The RREF rows as Fraction tuples."""
        if self._basis is None:
            self._basis = tuple(_dense(r, self.ambient_dim, r[c])
                                for r, c in zip(self._rows, self.pivots))
        return self._basis

    @property
    def dim(self):
        return len(self.pivots)

    def member(self, v):
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length != ambient dimension")
        return not _residual(_to_int_row(v), dict(zip(self.pivots,
                                                       self._rows)))

    def coordinates(self, v):
        """Coefficients of v on the RREF basis; raises if v is outside."""
        if not self.member(v):
            raise NoSolution("vector is not in the subspace")
        return tuple(Fraction(v[p]) for p in self.pivots)

    def contains(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("vector length != ambient dimension")
        echelon = dict(zip(self.pivots, self._rows))
        return not any(_residual(r, echelon) for r in other._rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def kernel(columns, nrows) -> Subspace:
    """Null space of the nrows x len(columns) matrix whose column j is the
    {row: int} map columns[j], as a subspace of Q^len(columns), from one
    elimination.

    The columns are turned into rows, the package's one transpose, and the
    rows eliminated with pivot columns in descending order, so each pivot
    row is zero at the other pivot columns and right of its pivot.  The
    vector read off a free column f, which is nonzero only at f and at the
    pivots of the rows holding f, then has its lowest entry at f and is
    zero at every other free column: made primitive, these vectors are the
    kernel's RREF rows, pivot entries positive, in ascending order of f.
    """
    ncols = len(columns)
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            rows[i][j] = x
    rows, pivots = rref_int(rows, ncols, range(ncols - 1, -1, -1))
    pivset = set(pivots)
    hits = {}   # column -> the (row, pivot) pairs whose row holds it
    for r, pc in zip(rows, pivots):
        for c in r:
            hits.setdefault(c, []).append((r, pc))
    free = [fc for fc in range(ncols) if fc not in pivset]
    vectors = []
    for fc in free:
        # x_fc = den and x_pc = -den * row[fc] / row[pc] for each pivot row
        hit = hits.get(fc, ())
        den = math.lcm(*(r[pc] for r, pc in hit))
        v = {pc: -r[fc] * den // r[pc] for r, pc in hit}
        v[fc] = den
        vectors.append(_primitive(v))
    return Subspace._of_rref(ncols, vectors, free)


def image(columns, nrows) -> Subspace:
    """Span of the {row: int} columns, as a subspace of Q^nrows."""
    return Subspace._of_rows(nrows, columns)


class LinearSolver:
    """Repeated solving of m x = b, m the nrows x len(columns) matrix whose
    column j is the {row: int} map columns[j] over den: the elimination is
    done once, on [m^T | J] (see the module docstring).  Free variables are
    set to zero.  rank is the rank of m.
    """

    def __init__(self, columns, nrows, den=1):
        self.rows = n = nrows
        self.cols = len(columns)
        last = n + self.cols - 1    # the tail position of column 0
        aug = [{**col, last - j: den} for j, col in enumerate(columns)]
        reduced, pivots = rref_int(aug, n + self.cols)
        self._echelon = {}       # pivot -> row of the column-space RREF
        self._preimage = {}      # pivot -> {column of m: int}, m u = that row
        for row, pc in zip(reduced, pivots):
            if pc >= n:
                break            # pivots ascend; the rest have no m-part
            self._echelon[pc] = {j: x for j, x in row.items() if j < n}
            self._preimage[pc] = {last - j: x for j, x in row.items()
                                  if j >= n}
        self.rank = len(self._echelon)

    def solve(self, b):
        if len(b) != self.rows:
            raise DimensionMismatch(f"rhs length {len(b)} != rows {self.rows}")
        (bi,), scale = int_rows([{j: x for j, x in enumerate(b) if x}])
        if _residual(bi, self._echelon):
            raise NoSolution("inconsistent system")
        # the rows are reduced, so b is the sum of b[c] / v[c] * v over the
        # pivots c, v the row at c; x sums the same multiples of the u
        hits = [(bi[c], self._echelon[c][c], self._preimage[c])
                for c in bi if c in self._preimage]
        den = math.lcm(*(p for _, p, _ in hits))
        acc = {}
        for t, p, u in hits:
            f = t * (den // p)
            for j, y in u.items():
                acc[j] = acc.get(j, 0) + f * y
        x = [_ZERO] * self.cols
        for j, v in acc.items():
            x[j] = Fraction(v, den * scale)
        return tuple(x)


def quotient_basis(ambient: Subspace, sub: Subspace):
    """Coset representatives completing sub to ambient, deterministically.

    Representatives are drawn from ambient's RREF basis, in order, keeping
    those that add rank over sub; the result is the ascending list of their
    indices into ambient's rows (ambient.basis[i] is representative i).
    """
    if ambient.ambient_dim != sub.ambient_dim:
        raise DimensionMismatch("subspaces of different ambient spaces")
    if not ambient.contains(sub):
        raise DimensionMismatch("sub is not contained in ambient")
    return _greedy(ambient._rows, sub)


def complement(sub: Subspace):
    """The ascending indices i of the unit vectors e_i of Q^n that, taken in
    order, each add rank over sub: together with sub they span Q^n."""
    return _greedy([{i: 1} for i in range(sub.ambient_dim)], sub)


def _greedy(rows, sub):
    """Indices of the {col: int} rows that, taken in order, add rank over sub."""
    kept = []
    echelon = dict(zip(sub.pivots, sub._rows))
    for i, row in enumerate(rows):
        w = _residual(row, echelon)
        if w:
            kept.append(i)
            echelon[min(w)] = w
    return kept
