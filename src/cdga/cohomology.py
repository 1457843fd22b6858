"""Degree-wise cohomology of a DGA: cocycles, coboundaries, classes, cups.

Everything runs through a small "chain context" that exposes a DGA (free or
tabular) as a sequence of finite-dimensional graded pieces with a
differential matrix per degree.  Class representatives are the echelon
coset representatives from quotient_basis; named classes of interest are
recovered through membership tests, not representative equality.
"""

from __future__ import annotations

from fractions import Fraction

from . import exactla
from .dga import DGA, TabularDGA, TabElement
from .errors import BoundTooLow, MixedAlgebra, NotACocycle
from .exactla import Matrix, Subspace
from .gca import Element


class FreeContext:
    """Finite graded pieces of a free DGA, indexed by monomial bases."""

    def __init__(self, dga: DGA):
        self.dga = dga
        self.algebra = dga.algebra
        self._index = {}

    def dim(self, k):
        return len(self.algebra.degree_basis(k)) if k >= 0 else 0

    def basis_elements(self, k):
        if k < 0:
            return []
        return [Element(self.algebra, {m: Fraction(1)})
                for m in self.algebra.degree_basis(k)]

    def _mono_index(self, k):
        idx = self._index.get(k)
        if idx is None:
            idx = {m: i for i, m in enumerate(self.algebra.degree_basis(k))}
            self._index[k] = idx
        return idx

    def coords(self, e, k):
        idx = self._mono_index(k)
        v = [Fraction(0)] * len(idx)
        for m, c in e.terms.items():
            v[idx[m]] = c
        return tuple(v)

    def from_coords(self, k, v):
        basis = self.algebra.degree_basis(k)
        return Element(self.algebra,
                       {basis[i]: Fraction(c) for i, c in enumerate(v)
                        if Fraction(c)})

    def d(self, e):
        return self.dga.d(e)

    def owns(self, e):
        return isinstance(e, Element) and e.algebra is self.algebra


class TabularContext:
    """Graded pieces of a finite tabular DGA."""

    def __init__(self, tab: TabularDGA):
        self.dga = tab
        self.algebra = tab
        self._index = {}

    def dim(self, k):
        return len(self.algebra.degree_indices(k)) if k >= 0 else 0

    def basis_elements(self, k):
        return [TabElement(self.algebra, {i: Fraction(1)})
                for i in self.algebra.degree_indices(k)]

    def coords(self, e, k):
        idx = self._index.get(k)
        if idx is None:
            idx = {b: i for i, b in enumerate(self.algebra.degree_indices(k))}
            self._index[k] = idx
        v = [Fraction(0)] * len(idx)
        for b, c in e.coeffs.items():
            v[idx[b]] = c
        return tuple(v)

    def from_coords(self, k, v):
        idx = self.algebra.degree_indices(k)
        return TabElement(self.algebra,
                          {idx[i]: Fraction(c) for i, c in enumerate(v)
                           if Fraction(c)})

    def d(self, e):
        return self.algebra.d(e)

    def owns(self, e):
        return isinstance(e, TabElement) and e.algebra is self.algebra


def context_for(obj):
    if isinstance(obj, DGA):
        return FreeContext(obj)
    if isinstance(obj, TabularDGA):
        return TabularContext(obj)
    raise TypeError(f"expected DGA or TabularDGA, got {type(obj).__name__}")


class CohomologySummary:
    """Per-degree cocycles, coboundaries, class representatives and cups."""

    def __init__(self, obj, max_degree, with_cup=True):
        if max_degree < 0:
            raise BoundTooLow("max_degree must be >= 0")
        self.source = obj
        self.ctx = context_for(obj)
        self.max_degree = max_degree
        self.cocycles = {}       # k -> Subspace of the degree-k piece
        self.coboundaries = {}   # k -> Subspace
        self.representatives = {}  # k -> list of elements
        self._rep_vectors = {}   # k -> list of coordinate vectors
        self._d_matrix = {}      # k -> Matrix (degree k -> k+1)
        self._class_solver = {}  # k -> LinearSolver on [reps | coboundaries]
        self._exact_solver = {}  # k -> LinearSolver on the degree k-1 d-matrix
        self.betti = []
        for k in range(max_degree + 1):
            self._compute_degree(k)
        self.cup = {}
        if with_cup:
            self._compute_cup()

    # -- construction ------------------------------------------------------

    def d_matrix(self, k):
        m = self._d_matrix.get(k)
        if m is None:
            m = _assemble_d_matrix(self.ctx, k)
            self._d_matrix[k] = m
        return m

    def _compute_degree(self, k):
        z = exactla.kernel(self.d_matrix(k))
        if k == 0:
            b = Subspace(self.ctx.dim(0))
        else:
            b = exactla.image(self.d_matrix(k - 1))
        reps_vecs = exactla.quotient_basis(z, b)
        self.cocycles[k] = z
        self.coboundaries[k] = b
        self._rep_vectors[k] = reps_vecs
        self.representatives[k] = [self.ctx.from_coords(k, v) for v in reps_vecs]
        self.betti.append(len(reps_vecs))

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
            return degree, tuple([Fraction(0)] * self.betti[degree])
        k = e.degree()
        if degree is not None and k != degree:
            raise ValueError(f"element has degree {k}, expected {degree}")
        if k > self.max_degree:
            raise BoundTooLow(f"degree {k} beyond computed bound {self.max_degree}")
        if not self.is_cocycle(e):
            raise NotACocycle(f"element of degree {k} is not closed")
        solver = self._class_solver.get(k)
        if solver is None:
            cols = list(self._rep_vectors[k]) + list(self.coboundaries[k].basis)
            solver = exactla.LinearSolver(
                Matrix.from_columns(cols, self.ctx.dim(k)))
            self._class_solver[k] = solver
        x = solver.solve(self.ctx.coords(e, k))
        return k, tuple(x[:self.betti[k]])

    def is_zero_class(self, e, degree=None):
        _, vec = self.class_coords(e, degree)
        return not any(vec)

    def is_exact(self, z):
        """A primitive w with d(w) = z, or None.  z must be a cocycle."""
        if z.is_zero():
            return self._zero_element()
        k = z.degree()
        if not self.is_cocycle(z):
            raise NotACocycle("element is not closed")
        solver = self._exact_solver.get(k)
        if solver is None:
            solver = exactla.LinearSolver(self.d_matrix(k - 1))
            self._exact_solver[k] = solver
        try:
            x = solver.solve(self.ctx.coords(z, k))
        except exactla.NoSolution:
            return None
        return self.ctx.from_coords(k - 1, x)

    def _zero_element(self):
        return self.ctx.dga.zero() if isinstance(self.ctx, FreeContext) \
            else self.ctx.algebra.zero()

    def rep_combination(self, k, vec):
        """The element sum_i vec[i] * representative_i in degree k."""
        out = self._zero_element()
        for c, r in zip(vec, self.representatives[k]):
            out = out + r * Fraction(c)
        return out


def _assemble_d_matrix(ctx, k):
    """Matrix of d from the degree-k piece to the degree-(k+1) piece."""
    cols = [ctx.coords(ctx.d(e), k + 1) for e in ctx.basis_elements(k)]
    return Matrix.from_columns(cols, ctx.dim(k + 1))


def compute(obj, max_degree, with_cup=True) -> CohomologySummary:
    """Cohomology of a free or tabular DGA up to max_degree."""
    return CohomologySummary(obj, max_degree, with_cup=with_cup)


def is_exact(obj, z):
    """Standalone exactness test; (True, primitive) or (False, None)."""
    ctx = context_for(obj)
    if z.is_zero():
        return True, obj.zero()
    k = z.degree()
    if not ctx.d(z).is_zero():
        raise NotACocycle("element is not closed")
    try:
        x = exactla.solve(_assemble_d_matrix(ctx, k - 1), ctx.coords(z, k))
    except exactla.NoSolution:
        return False, None
    return True, ctx.from_coords(k - 1, x)
