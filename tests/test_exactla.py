"""Exact rational linear algebra: RREF, kernel, image, solve, quotients."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cdga import exactla
from cdga.errors import DimensionMismatch, NoSolution
from cdga.exactla import Matrix, Subspace, image, kernel, quotient_basis, solve

from conftest import naive_rref


class TestExamples:
    def test_kernel_of_sum_functional(self):
        m = Matrix([[1, 1, 1]])
        k = kernel(m)
        assert k.dim == 2
        for v in k.basis:
            assert sum(v) == 0

    def test_solve_scalar(self):
        m = Matrix([[2]])
        assert solve(m, [3]) == (Fraction(3, 2),)

    def test_solve_inconsistent(self):
        m = Matrix([[1, 1], [1, 1]])
        with pytest.raises(NoSolution):
            solve(m, [1, 2])

    def test_quotient_basis_plane_mod_diagonal(self):
        ambient = Subspace(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        sub = Subspace(3, [[1, 1, 1]])
        reps = quotient_basis(ambient, sub)
        assert len(reps) == 2
        span = Subspace(3, list(sub.basis) + list(reps))
        assert span.dim == 3

    def test_quotient_requires_containment(self):
        ambient = Subspace(3, [[1, 0, 0]])
        sub = Subspace(3, [[0, 1, 0]])
        with pytest.raises(DimensionMismatch):
            quotient_basis(ambient, sub)

    def test_image_column_space(self):
        m = Matrix([[1, 2], [2, 4]])
        im = image(m)
        assert im.dim == 1
        assert im.member([1, 2])
        assert not im.member([1, 0])

    def test_inverse_round_trip(self):
        m = Matrix([[Fraction(1, 2), 1], [0, 3]])
        assert m.matmul(m.inverse()) == Matrix.identity(2)

    def test_subspace_membership_and_coordinates(self):
        s = Subspace(3, [[1, 0, 1], [0, 1, 1]])
        assert s.member([2, 3, 5])
        assert not s.member([0, 0, 1])
        coeffs = s.coordinates([2, 3, 5])
        rebuilt = [sum(c * row[i] for c, row in zip(coeffs, s.basis))
                   for i in range(3)]
        assert rebuilt == [2, 3, 5]
        with pytest.raises(DimensionMismatch):
            Subspace(3, [[1, 2], [3, 4, 5]])
        with pytest.raises(DimensionMismatch):
            Subspace(2, [[0, 1]]).coordinates([5])

    def test_empty_matrix_needs_explicit_cols(self):
        with pytest.raises(DimensionMismatch):
            Matrix([])
        assert kernel(Matrix([], cols=3)).dim == 3


def frac(num, den):
    return Fraction(num, den)


matrices = st.integers(0, 5).flatmap(
    lambda rows: st.integers(1, 5).flatmap(
        lambda cols: st.lists(
            st.lists(st.fractions(min_value=-9, max_value=9,
                                  max_denominator=6),
                     min_size=cols, max_size=cols),
            min_size=rows, max_size=rows).map(
                lambda data: Matrix(data, cols=cols))))


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(matrices)
    def test_rref_matches_naive_oracle(self, m):
        rows, pivots = exactla.rref_rows(list(m.data), m.cols)
        oracle_rows, oracle_pivots = naive_rref(m.data, m.cols)
        assert rows == oracle_rows
        assert pivots == oracle_pivots

    @settings(max_examples=150, deadline=None)
    @given(matrices)
    def test_rank_nullity(self, m):
        assert m.rank() + kernel(m).dim == m.cols

    @settings(max_examples=150, deadline=None)
    @given(matrices, st.data())
    def test_image_contains_every_product(self, m, data):
        v = [data.draw(st.integers(-5, 5)) for _ in range(m.cols)]
        assert image(m).member(m.apply([Fraction(x) for x in v]))

    @settings(max_examples=150, deadline=None)
    @given(matrices, st.data())
    def test_solve_solves(self, m, data):
        v = [Fraction(data.draw(st.integers(-5, 5))) for _ in range(m.cols)]
        b = m.apply(v)
        x = solve(m, b)
        assert m.apply(x) == b

    @settings(max_examples=100, deadline=None)
    @given(matrices)
    def test_kernel_vectors_annihilate(self, m):
        for v in kernel(m).basis:
            assert not any(m.apply(v))

    @settings(max_examples=100, deadline=None)
    @given(matrices)
    def test_rank_invariant_under_transpose(self, m):
        assert m.rank() == m.transpose().rank()

    @settings(max_examples=150, deadline=None)
    @given(matrices, st.data())
    def test_quotient_basis_matches_rank_oracle(self, m, data):
        # sub is spanned by integer combinations of the rows spanning ambient
        n = m.cols
        combos = data.draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=m.rows, max_size=m.rows),
            max_size=4))
        sub_vectors = [[sum((c * row[j] for c, row in zip(cs, m.data)),
                            Fraction(0)) for j in range(n)] for cs in combos]
        ambient = Subspace(n, m.data)
        sub = Subspace(n, sub_vectors)

        def rank(rows):
            return len(naive_rref(rows, n)[1])

        kept = []
        for v in ambient.basis:
            if rank(list(sub.basis) + kept + [v]) > rank(list(sub.basis) + kept):
                kept.append(v)
        assert quotient_basis(ambient, sub) == kept


class TestBackends:
    def test_backend_is_reported(self):
        import cdga
        assert cdga.kernel_backend == "python"
