"""Exact linear algebra over Q: rank, kernel, image, solving, quotients.

Matrices and subspace bases are dense tuples of Fractions.  Row reduction
goes through the sparse fraction-free kernel in cdga._core: each Fraction
row is cleared of denominators into a {col: int} map of its nonzero
entries, eliminated over the integers, and each pivot row is written back
as a dense Fraction row divided by its pivot entry.
Pivot choice is always the first nonzero entry in column order, so every
derived basis is deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._core import rref_int
from .errors import DimensionMismatch, NoSolution


_ZERO = Fraction(0)


def _to_int_row(row):
    """The {col: int} map of a Fraction row scaled by its denominators' lcm."""
    nonzero = [(j, x) for j, x in enumerate(row) if x]
    denlcm = 1
    for _, x in nonzero:
        d = x.denominator
        if d != 1:
            denlcm = denlcm * d // math.gcd(denlcm, d)
    return {j: x.numerator * (denlcm // x.denominator) for j, x in nonzero}


def rref_rows(rows, ncols):
    """RREF of a list of Fraction rows: (rows, pivots), zero rows dropped."""
    if not rows:
        return [], []
    reduced, pivots = rref_int([_to_int_row(r) for r in rows], ncols)
    out = []
    for row, c in zip(reduced, pivots):
        p = row[c]
        dense = [_ZERO] * ncols
        for j, x in row.items():
            dense[j] = Fraction(x, p)
        out.append(tuple(dense))
    return out, pivots


class Matrix:
    """An immutable rows x cols matrix of rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
        rows = [tuple(x if type(x) is Fraction else Fraction(x) for x in row)
                for row in data]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise DimensionMismatch("ragged rows")
        elif cols is None:
            raise DimensionMismatch("empty matrix needs an explicit column count")
        self.rows = len(rows)
        self.cols = cols
        self.data = tuple(rows)

    @classmethod
    def from_columns(cls, columns, nrows):
        """The nrows x len(columns) matrix whose columns are `columns`."""
        return cls([[col[r] for col in columns] for r in range(nrows)],
                   cols=len(columns))

    @classmethod
    def identity(cls, n):
        return cls([[Fraction(i == j) for j in range(n)] for i in range(n)], cols=n)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.cols == other.cols
                and self.data == other.data)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def transpose(self):
        return Matrix.from_columns(self.data, self.cols)

    def apply(self, v):
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector length {len(v)} != cols {self.cols}")
        return tuple(sum((row[j] * v[j] for j in range(self.cols)), Fraction(0))
                     for row in self.data)

    def rref(self):
        rows, pivots = rref_rows(list(self.data), self.cols)
        return Matrix(rows, cols=self.cols), pivots

    def rank(self):
        _, pivots = self.rref()
        return len(pivots)

    def is_invertible(self):
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self):
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        aug = [list(self.data[i]) + [Fraction(i == j) for j in range(n)]
               for i in range(n)]
        rows, pivots = rref_rows(aug, 2 * n)
        if pivots[:n] != list(range(n)):
            raise NoSolution("matrix is singular")
        return Matrix([r[n:] for r in rows], cols=n)

    def matmul(self, other):
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions disagree")
        ot = other.transpose()
        return Matrix([[sum((a * b for a, b in zip(row, col)), Fraction(0))
                        for col in ot.data] for row in self.data],
                      cols=other.cols)


def _reduce(w, echelon):
    """Clears the pivot coordinates of echelon from the list w, in place.

    echelon yields (row, pivot) pairs; each row is 1 at its own pivot and 0
    at the pivots of the rows before it, so a vector of their span is zero
    exactly when its residual is.
    """
    for row, p in echelon:
        c = w[p]
        if c:
            for j, rj in enumerate(row):
                if rj:
                    w[j] -= c * rj
    return w


class Subspace:
    """A subspace of Q^n, stored as an RREF row basis."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim, vectors=()):
        rows = [tuple(x if type(x) is Fraction else Fraction(x) for x in v)
                for v in vectors]
        if any(len(v) != ambient_dim for v in rows):
            raise DimensionMismatch("vector length != ambient dimension")
        self.ambient_dim = ambient_dim
        rows, pivots = rref_rows(rows, ambient_dim)
        self.basis = tuple(rows)
        self.pivots = tuple(pivots)

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, v):
        """Residual of v after eliminating the pivot coordinates."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length != ambient dimension")
        w = [x if type(x) is Fraction else Fraction(x) for x in v]
        return tuple(_reduce(w, zip(self.basis, self.pivots)))

    def member(self, v):
        return not any(self.reduce(v))

    def coordinates(self, v):
        """Coefficients of v on the RREF basis; raises if v is outside."""
        if not self.member(v):
            raise NoSolution("vector is not in the subspace")
        return tuple(Fraction(v[p]) for p in self.pivots)

    def sum(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces of different ambient spaces")
        return Subspace(self.ambient_dim, self.basis + other.basis)

    def contains(self, other):
        return all(self.member(v) for v in other.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def kernel(m: Matrix) -> Subspace:
    """Null space of m, as a subspace of Q^cols."""
    rows, pivots = rref_rows(m.data, m.cols)
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    vectors = []
    for fc in free:
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        vectors.append(v)
    return Subspace(m.cols, vectors)


def image(m: Matrix) -> Subspace:
    """Column space of m, as a subspace of Q^rows."""
    return Subspace(m.rows, [tuple(row) for row in m.transpose().data])


def solve(m: Matrix, b):
    """One solution of m x = b (free variables set to 0); NoSolution if none."""
    return LinearSolver(m).solve(b)


class LinearSolver:
    """Repeated solving of m x = b: the elimination is done once on [m | I].

    Free variables are set to zero.
    """

    def __init__(self, m: Matrix):
        self.rows = m.rows
        self.cols = m.cols
        aug = [list(m.data[r]) + [Fraction(r == j) for j in range(m.rows)]
               for r in range(m.rows)]
        reduced, pivots = rref_rows(aug, m.cols + m.rows)
        # pivot in the m-part: row combination giving that coordinate of x;
        # pivot in the I-part: the m-part is zero, so the combination spans
        # the left null space and yields a consistency constraint on b
        self._pivot_rows = [(pc, row[m.cols:])
                            for row, pc in zip(reduced, pivots) if pc < m.cols]
        self._null_rows = [row[m.cols:]
                           for row, pc in zip(reduced, pivots) if pc >= m.cols]

    def solve(self, b):
        if len(b) != self.rows:
            raise DimensionMismatch(f"rhs length {len(b)} != rows {self.rows}")
        nonzero = [(j, bj) for j, bj in enumerate(b) if bj]

        def dot(u):
            return sum((u[j] * bj for j, bj in nonzero if u[j]), _ZERO)

        if any(dot(u) for u in self._null_rows):
            raise NoSolution("inconsistent system")
        x = [_ZERO] * self.cols
        for pc, u in self._pivot_rows:
            x[pc] = dot(u)
        return tuple(x)


def quotient_basis(ambient: Subspace, sub: Subspace):
    """Coset representatives completing sub to ambient, deterministically.

    Representatives are drawn from ambient's RREF basis, in order, keeping
    those that add rank over sub.
    """
    if ambient.ambient_dim != sub.ambient_dim:
        raise DimensionMismatch("subspaces of different ambient spaces")
    if not ambient.contains(sub):
        raise DimensionMismatch("sub is not contained in ambient")
    reps = []
    echelon = list(zip(sub.basis, sub.pivots))
    for v in ambient.basis:
        w = _reduce(list(v), echelon)
        p = next((j for j, x in enumerate(w) if x), None)
        if p is not None:
            reps.append(v)
            wp = w[p]
            echelon.append((tuple(x / wp if x else x for x in w), p))
    return reps
