"""Degree-wise cohomology of a DGA: cocycles, coboundaries, classes, cups.

A ChainComplex exposes a DGA, free or tabular, as finite-dimensional graded
pieces with a cached differential matrix per degree; both kinds offer the
same algebra interface, so it never branches on the kind.  It answers every
exactness question: it solves d(w) = z on the degree k-1 matrix, built when
first needed, so the answer does not depend on any summary's degree bound.
A d-matrix is written from the DGA's integer d_pairs: those of basis
element j go straight into column j of {col: int} rows over d_den.
ChainComplex.columns writes other term maps as sparse matrix columns.
A CohomologySummary adds cocycles, coboundaries, class representatives and
cups up to a bound.  Class representatives are the echelon coset
representatives: the cocycles' sparse RREF rows whose indices quotient_basis
returns, each over its pivot entry; named classes of interest are recovered
through membership tests, not representative equality.
class_coords hands a LinearSolver the integer columns [representative
rows | coboundary rows] as they are; they span the cocycles, so its solve
fails exactly when the element is not closed.
"""

from __future__ import annotations

from fractions import Fraction

from . import exactla
from .dga import DGA, TabularDGA
from .errors import BoundTooLow, MixedAlgebra, NotACocycle
from .exactla import Matrix, Subspace
from .gca import Element


class ChainComplex:
    """The graded pieces of a free or tabular DGA, with d per degree.

    The pieces are indexed by the algebra's degree_basis: monomials for a
    free DGA, basis indices for a tabular one.  The bases and their position
    maps (degree_index) belong to the algebra, so a complex caches only its
    d-matrices and solvers; free algebras of one shape share them.
    """

    def __init__(self, obj):
        if not isinstance(obj, (DGA, TabularDGA)):
            raise TypeError(
                f"expected DGA or TabularDGA, got {type(obj).__name__}")
        self.dga = obj
        self.algebra = obj.algebra
        self._d_matrix = {}      # k -> Matrix (degree k -> k+1)
        self._exact_solver = {}  # k -> LinearSolver on the degree k-1 d-matrix

    def basis(self, k):
        return self.algebra.degree_basis(k) if k >= 0 else []

    def dim(self, k):
        return len(self.basis(k))

    def coords(self, e, k):
        idx = self.algebra.degree_index(k)
        v = [Fraction(0)] * len(idx)
        for b, c in e.terms.items():
            v[idx[b]] = c
        return tuple(v)

    def from_coords(self, k, v):
        basis = self.basis(k)
        return self.algebra.from_terms({basis[i]: Fraction(c)
                                        for i, c in enumerate(v) if c})

    def from_row(self, k, row, den):
        """The element whose coordinates are the {position: int} row / den."""
        basis = self.basis(k)
        return self.algebra.from_terms({basis[i]: Fraction(row[i], den)
                                        for i in sorted(row)})

    def d(self, e):
        return self.dga.d(e)

    def owns(self, e):
        return isinstance(e, Element) and e.algebra is self.algebra

    def columns(self, k, term_maps):
        """The matrix over the degree-k basis whose column j is the
        {basis key: coefficient} map term_maps[j] of a degree-k element."""
        idx = self.algebra.degree_index(k)
        return Matrix._of_columns(
            [{idx[t]: c for t, c in terms.items()} for terms in term_maps],
            len(idx))

    def d_matrix(self, k):
        """Matrix of d from the degree-k piece to the degree-(k+1) piece."""
        m = self._d_matrix.get(k)
        if m is None:
            idx = self.algebra.degree_index(k + 1)
            rows = [{} for _ in range(len(idx))]
            d_pairs = self.dga.d_pairs
            basis = self.basis(k)
            for j, b in enumerate(basis):
                for t, c in d_pairs(b):
                    row = rows[idx[t]]
                    v = row.get(j, 0) + c
                    if v:
                        row[j] = v
                    else:
                        del row[j]
            m = self._d_matrix[k] = Matrix._of_int(rows, len(basis),
                                                   self.dga.d_den)
        return m

    def is_exact(self, z):
        """A primitive w with d(w) = z, or None.  z must be a cocycle."""
        if z.is_zero():
            return self.dga.zero()
        k = z.degree()
        solver = self._exact_solver.get(k)
        if solver is None:
            m = self.d_matrix(k - 1)
            solver = self._exact_solver[k] = exactla.LinearSolver(
                m._columns(), m.rows, m._den)
        # a solution w shows z = d(w) is closed; only a failed solve needs
        # the closedness check
        try:
            x = solver.solve(self.coords(z, k))
        except exactla.NoSolution:
            if not self.d(z).is_zero():
                raise NotACocycle("element is not closed") from None
            return None
        return self.from_coords(k - 1, x)


class CohomologySummary:
    """Per-degree cocycles, coboundaries, class representatives and cups."""

    def __init__(self, obj, max_degree, with_cup=True):
        if max_degree < 0:
            raise BoundTooLow("max_degree must be >= 0")
        self.source = obj
        self.ctx = ChainComplex(obj)
        self.max_degree = max_degree
        self.cocycles = {}       # k -> Subspace of the degree-k piece
        self.coboundaries = {}   # k -> Subspace
        self.representatives = {}  # k -> list of elements
        self._rep_rows = {}      # k -> (cocycle row, its pivot entry) per rep
        self._class_solver = {}  # k -> LinearSolver on [reps | coboundaries]
        self.betti = []
        for k in range(max_degree + 1):
            self._compute_degree(k)
        self.cup = {}
        if with_cup:
            self._compute_cup()

    # -- construction ------------------------------------------------------

    def d_matrix(self, k):
        return self.ctx.d_matrix(k)

    def _compute_degree(self, k):
        z = exactla.kernel(self.d_matrix(k))
        if k == 0:
            b = Subspace(self.ctx.dim(0))
        else:
            b = exactla.image(self.d_matrix(k - 1))
        self.cocycles[k] = z
        self.coboundaries[k] = b
        self._rep_rows[k] = rep_rows = [(z._rows[i], z._rows[i][z.pivots[i]])
                                        for i in exactla.quotient_basis(z, b)]
        self.representatives[k] = [self.ctx.from_row(k, row, p)
                                   for row, p in rep_rows]
        self.betti.append(len(rep_rows))

    def _compute_cup(self):
        for p in range(self.max_degree + 1):
            for q in range(self.max_degree + 1 - p):
                for i, ri in enumerate(self.representatives[p]):
                    for j, rj in enumerate(self.representatives[q]):
                        prod = ri * rj
                        _, vec = self.class_coords(prod, degree=p + q)
                        self.cup[(p, i, q, j)] = vec

    # -- queries -----------------------------------------------------------

    def betti_vector(self):
        return tuple(self.betti)

    def is_cocycle(self, e):
        return self.ctx.d(e).is_zero()

    def class_coords(self, e, degree=None):
        """(degree, coordinates on the chosen representatives) of a cocycle."""
        if not self.ctx.owns(e):
            raise MixedAlgebra("element does not belong to this DGA")
        if e.is_zero():
            if degree is None:
                raise ValueError("zero element needs an explicit degree")
            if degree < 0:
                raise ValueError(f"degree must be >= 0, got {degree}")
            if degree > self.max_degree:
                raise BoundTooLow(
                    f"degree {degree} beyond computed bound {self.max_degree}")
            return degree, tuple([Fraction(0)] * self.betti[degree])
        k = e.degree()
        if degree is not None and k != degree:
            raise ValueError(f"element has degree {k}, expected {degree}")
        if k > self.max_degree:
            raise BoundTooLow(f"degree {k} beyond computed bound {self.max_degree}")
        rep_rows = self._rep_rows[k]
        solver = self._class_solver.get(k)
        if solver is None:
            solver = self._class_solver[k] = exactla.LinearSolver(
                [row for row, _ in rep_rows] + self.coboundaries[k]._rows,
                self.ctx.dim(k))
        # the columns span the degree-k cocycles, so there is no solution
        # exactly when e is not closed
        try:
            x = solver.solve(self.ctx.coords(e, k))
        except exactla.NoSolution:
            raise NotACocycle(f"element of degree {k} is not closed") from None
        # representative i is its row over the row's pivot entry p
        return k, tuple(x[i] * p for i, (_, p) in enumerate(rep_rows))

    def is_exact(self, z):
        """A primitive w with d(w) = z, or None.  z must be a cocycle."""
        return self.ctx.is_exact(z)


def compute(obj, max_degree, with_cup=True) -> CohomologySummary:
    """Cohomology of a free or tabular DGA up to max_degree."""
    return CohomologySummary(obj, max_degree, with_cup=with_cup)


def is_exact(obj, z):
    """Standalone exactness test; (True, primitive) or (False, None)."""
    w = ChainComplex(obj).is_exact(z)
    return w is not None, w
