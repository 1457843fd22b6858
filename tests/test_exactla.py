"""Exact rational linear algebra: RREF, kernel, image, solve, quotients."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cdga import _core, exactla
from cdga.cohomology import ChainComplex
from cdga.constructions import CORPUS_NAMES, corpus
from cdga.errors import DimensionMismatch, NoSolution
from cdga.exactla import (LinearSolver, Matrix, Subspace, complement, image,
                          kernel, quotient_basis)

from conftest import (list_scan_quotient_basis, list_scan_residual,
                      list_scan_rref_int, naive_rref)


class TestExamples:
    def test_kernel_of_sum_functional(self):
        m = Matrix([[1, 1, 1]])
        k = kernel(m)
        assert k.dim == 2
        for v in k.basis:
            assert sum(v) == 0

    def test_solve_scalar(self):
        m = Matrix([[2]])
        solver = LinearSolver(m._columns(), m.rows, m._den)
        assert solver.solve([3]) == (Fraction(3, 2),)

    def test_solve_inconsistent(self):
        m = Matrix([[1, 1], [1, 1]])
        with pytest.raises(NoSolution):
            LinearSolver(m._columns(), m.rows, m._den).solve([1, 2])

    def test_quotient_basis_plane_mod_diagonal(self):
        ambient = Subspace(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        sub = Subspace(3, [[1, 1, 1]])
        reps = [ambient.basis[i] for i in quotient_basis(ambient, sub)]
        assert len(reps) == 2
        span = Subspace(3, list(sub.basis) + list(reps))
        assert span.dim == 3

    def test_quotient_basis_returns_kept_row_indices(self):
        ambient = Subspace(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        kept = quotient_basis(ambient, Subspace(3, [[0, 2, 0]]))
        assert kept == [0, 2]
        assert all(type(i) is int for i in kept)

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
        assert solved_inverse(solved_inverse(m)) == m

    def test_complement_is_greedy_not_the_free_columns(self):
        # span(1, 1) has pivot 0 and free column 1, but e_0 completes it
        assert complement(Subspace(2, [[1, 1]])) == [0]
        assert complement(Subspace(3, [[0, 2, 0]])) == [0, 2]
        assert complement(Subspace(0)) == []
        assert complement(Subspace(2, [[1, 0], [0, 1]])) == []

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

    def test_explicit_cols_must_match_the_rows(self):
        with pytest.raises(DimensionMismatch):
            Matrix([[1, 2]], cols=3)
        assert Matrix([[1, 2]], cols=2).cols == 2

    def test_contains_checks_the_ambient_of_a_zero_subspace(self):
        line = Subspace(3, [[1, 0, 0]])
        with pytest.raises(DimensionMismatch):
            line.contains(Subspace(2))
        with pytest.raises(DimensionMismatch):
            quotient_basis(line, Subspace(2))
        assert line.contains(Subspace(3))


def frac(num, den):
    return Fraction(num, den)


def unit_vectors(n):
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def solved_inverse(m):
    """m^-1 for a square m, column i the LinearSolver solution of m x = e_i;
    NoSolution when some e_i has none, that is when m is singular."""
    solver = LinearSolver(m._columns(), m.rows, m._den)
    return Matrix.from_columns([solver.solve(e) for e in unit_vectors(m.rows)],
                               m.cols)


matrices = st.integers(0, 5).flatmap(
    lambda rows: st.integers(1, 5).flatmap(
        lambda cols: st.lists(
            st.lists(st.fractions(min_value=-9, max_value=9,
                                  max_denominator=6),
                     min_size=cols, max_size=cols),
            min_size=rows, max_size=rows).map(
                lambda data: Matrix(data, cols=cols))))


@st.composite
def sparse_matrices(draw):
    """Tall sparse matrices, the shape of real differential matrices."""
    rows = draw(st.integers(0, 40))
    cols = draw(st.integers(1, 20))
    density = draw(st.floats(0.02, 0.2))
    entry = st.one_of(
        st.integers(-9, 9).map(Fraction),
        st.fractions(min_value=-9, max_value=9, max_denominator=6))
    data = [[Fraction(0)] * cols for _ in range(rows)]
    if rows:
        count = round(density * rows * cols)
        cells = draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                        st.integers(0, cols - 1), entry),
                              min_size=count, max_size=count))
        for r, c, x in cells:
            data[r][c] = x
    return Matrix(data, cols=cols)


def rational_rref(reduced, pivots, ncols):
    """The Fraction rows of rref_int's output, each over its pivot entry."""
    return [tuple(Fraction(row.get(j, 0), row[c]) for j in range(ncols))
            for row, c in zip(reduced, pivots)]


class TestSparseKernel:
    def test_no_rows(self):
        assert _core.rref_int([], 3) == ([], [])

    @pytest.mark.parametrize("rows", [[], [{}], [{}, {}, {}]])
    @pytest.mark.parametrize("ncols", [0, 1, 4])
    def test_no_nonzero_rows(self, rows, ncols):
        # exactla hands rref_int empty inputs as they come, with no guard
        assert _core.rref_int(rows, ncols) == ([], [])

    def test_zero_rows_dropped(self):
        rows = [{}, {0: 2, 1: 4}, {}, {0: -3, 1: -6}]
        reduced, pivots = _core.rref_int(rows, 2)
        assert pivots == [0]
        assert rational_rref(reduced, pivots, 2) == [(1, 2)]
        assert rows[1] == {0: 2, 1: 4}      # input left as it was

    def test_column_without_pivot(self):
        rows = [{0: 2, 2: 3}, {0: 4, 1: 6, 2: 1}, {3: 5}]
        dense = [[Fraction(r.get(j, 0)) for j in range(4)] for r in rows]
        reduced, pivots = _core.rref_int(rows, 4)
        assert pivots == [0, 1, 3]
        assert (rational_rref(reduced, pivots, 4), pivots) == \
            naive_rref(dense, 4)

    def test_hilbert_matrix_growth(self):
        # each row of the 8x8 Hilbert matrix scaled to integers; its
        # integer elimination grows large minors without normalisation
        n = 8
        rows = []
        for i in range(n):
            lcm = math.lcm(*range(i + 1, i + n + 1))
            rows.append({j: lcm // (i + j + 1) for j in range(n)})
        reduced, pivots = _core.rref_int(rows, n)
        assert pivots == list(range(n))
        assert rational_rref(reduced, pivots, n) == \
            [tuple(Fraction(i == j) for j in range(n)) for i in range(n)]
        assert all(row == {i: row[i]} and abs(row[i]) == 1
                   for i, row in enumerate(reduced))

    @settings(max_examples=150, deadline=None)
    @given(sparse_matrices())
    def test_rref_matches_naive_oracle_on_sparse_matrices(self, m):
        oracle = naive_rref(m.data, m.cols)
        assert exactla.rref_rows(list(m.data), m.cols) == oracle
        int_rows = [exactla._to_int_row(r) for r in m.data]
        reduced, pivots = _core.rref_int(int_rows, m.cols)
        assert (rational_rref(reduced, pivots, m.cols), pivots) == oracle
        # content normalisation keeps every output row primitive
        assert all(math.gcd(*row.values()) == 1 for row in reduced)


    @settings(max_examples=150, deadline=None)
    @given(st.one_of(sparse_matrices(), matrices))
    def test_matches_list_scan_oracle(self, m):
        # same pivots and the same primitive rows, signs included, for the
        # rows, the columns and the [m^T | J] a LinearSolver eliminates
        for rows, ncols in _eliminations(m):
            assert _core.rref_int(rows, ncols) == \
                list_scan_rref_int(rows, ncols)

    def test_matches_list_scan_oracle_on_corpus_d_matrices(self):
        entries = [corpus(name) for name in CORPUS_NAMES if name != "s_k"]
        entries += [corpus("s_k", k=k) for k in range(3, 9)]
        entries += [corpus("w-torus", rho="flip"),
                    corpus("aloff-wallach", k=1, l=-1)]
        checked = 0
        for entry in entries:
            # a mapping torus entry is a cohomology summary; its DGA is
            # the model it was built from
            obj = entry.metadata.get("formality_model", entry.obj)
            chain = ChainComplex(obj)
            for k in range(9):
                for rows, ncols in _eliminations(chain.d_matrix(k)):
                    assert _core.rref_int(rows, ncols) == \
                        list_scan_rref_int(rows, ncols), (entry.name, k)
                    checked += bool(rows)
        assert checked > 200


def _eliminations(m):
    """(rows, ncols) of the eliminations kernel, image and LinearSolver
    run on m: LinearSolver's are m's columns, column j with m's
    denominator at tail position rows + cols - 1 - j."""
    last = m.rows + m.cols - 1
    return [(m._int, m.cols), (m._columns(), m.rows),
            ([{**a, last - j: m._den} for j, a in enumerate(m._columns())],
             m.rows + m.cols)]


def two_elimination_kernel(m):
    """(rows, pivots) of m's null space by two eliminations: m's rows with
    ascending pivots, the vector of each free column read off them, then
    the RREF of those vectors."""
    rows, pivots = _core.rref_int(m._int, m.cols)
    vectors = []
    for fc in range(m.cols):
        if fc not in pivots:
            hit = [(r, pc) for r, pc in zip(rows, pivots) if fc in r]
            den = math.lcm(*(r[pc] for r, pc in hit))
            v = {pc: -r[fc] * den // r[pc] for r, pc in hit}
            v[fc] = den
            vectors.append(v)
    return _core.rref_int(vectors, m.cols)


def same_up_to_sign(a, b):
    return len(a) == len(b) and all(
        x == y or x == {j: -v for j, v in y.items()} for x, y in zip(a, b))


class TestKernelReadOff:
    """kernel reads the null space's RREF off one descending elimination;
    max_examples comes from the profile."""

    @settings(deadline=None)
    @given(st.one_of(sparse_matrices(), matrices))
    def test_matches_two_eliminations(self, m):
        rows, pivots = two_elimination_kernel(m)
        k = kernel(m)
        assert k.pivots == tuple(pivots)
        assert same_up_to_sign(k._rows, rows)

    def test_matches_two_eliminations_on_corpus_d_matrices(self):
        checked = 0
        for name in ("q111", "berger", "x6"):
            chain = ChainComplex(corpus(name).obj)
            for k in range(9):
                m = chain.d_matrix(k)
                rows, pivots = two_elimination_kernel(m)
                got = kernel(m)
                assert got.pivots == tuple(pivots), (name, k)
                assert same_up_to_sign(got._rows, rows), (name, k)
                checked += got.dim
        assert checked > 50

    @settings(deadline=None)
    @given(st.one_of(sparse_matrices(), matrices))
    def test_rows_are_primitive_with_positive_pivots(self, m):
        k = kernel(m)
        for row, c in zip(k._rows, k.pivots):
            assert min(row) == c and row[c] > 0
            assert math.gcd(*row.values()) == 1

    @settings(deadline=None)
    @given(st.one_of(sparse_matrices(), matrices))
    def test_descending_order_is_the_rref_of_the_reversed_matrix(self, m):
        n = m.cols
        reduced, pivots = _core.rref_int(m._int, n, range(n - 1, -1, -1))
        oracle_rows, oracle_pivots = naive_rref(
            [row[::-1] for row in m.data], n)
        assert pivots == [n - 1 - c for c in oracle_pivots]
        assert rational_rref(reduced, pivots, n) == \
            [row[::-1] for row in oracle_rows]

    def test_one_elimination(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return _core.rref_int(*args)

        monkeypatch.setattr(exactla, "rref_int", counting)
        m = ChainComplex(corpus("q111").obj).d_matrix(5)
        assert kernel(m).dim > 0
        assert len(calls) == 1


def free_zero_solution(m, b):
    """The solution of m x = b with free variables zero, read from
    naive_rref of [m | b]; None when [m | b] has a pivot in the b column."""
    rows, pivots = naive_rref([list(r) + [x] for r, x in zip(m.data, b)],
                              m.cols + 1)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [Fraction(0)] * m.cols
    for row, c in zip(rows, pivots):
        x[c] = row[-1]
    return tuple(x)


@st.composite
def subspace_pairs(draw):
    """(ambient, sub, other) subspaces of one Q^n: sub spanned by integer
    combinations of ambient's spanning rows, other drawn on its own."""
    m = draw(st.one_of(matrices, sparse_matrices()))
    n = m.cols
    combos = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=m.rows, max_size=m.rows),
        max_size=5))
    sub = [[sum((c * row[j] for c, row in zip(cs, m.data)), Fraction(0))
            for j in range(n)] for cs in combos]
    other = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n,
                                   max_size=n), max_size=3))
    return Subspace(n, m.data), Subspace(n, sub), Subspace(n, other)


class TestColumnSolver:
    """LinearSolver against naive_rref of [m | b] and of [m | I]; max_examples
    comes from the hypothesis profile."""

    @settings(deadline=None)
    @given(st.one_of(matrices, sparse_matrices()), st.data())
    def test_solve_is_the_free_zero_solution(self, m, data):
        x = [Fraction(data.draw(st.integers(-4, 4))) for _ in range(m.cols)]
        noise = data.draw(st.lists(
            st.fractions(min_value=-2, max_value=2, max_denominator=3),
            min_size=m.rows, max_size=m.rows))
        solver = LinearSolver(m._columns(), m.rows, m._den)
        for b in (m.apply(x), [p + q for p, q in zip(m.apply(x), noise)]):
            want = free_zero_solution(m, b)
            if want is None:
                with pytest.raises(NoSolution):
                    solver.solve(b)
            else:
                got = solver.solve(b)
                assert got == want
                assert all(type(v) is Fraction for v in got)

    @settings(deadline=None)
    @given(st.integers(0, 6).flatmap(lambda n: st.lists(
        st.lists(st.one_of(st.just(Fraction(0)),
                           st.fractions(min_value=-9, max_value=9,
                                        max_denominator=6)),
                 min_size=n, max_size=n),
        min_size=n, max_size=n).map(lambda data: Matrix(data, cols=n))))
    def test_inverse_is_the_right_half_of_the_rref(self, m):
        # the solution of m x = e_i is column i of the right half
        n = m.cols
        rows, pivots = naive_rref(
            [list(r) + e for r, e in zip(m.data, unit_vectors(n))], 2 * n)
        solver = LinearSolver(m._columns(), m.rows, m._den)
        if pivots[:n] != list(range(n)):
            assert not m.is_invertible()
            assert solver.rank < n
            with pytest.raises(NoSolution):
                for e in unit_vectors(n):
                    solver.solve(e)
        else:
            assert m.is_invertible()
            assert solver.rank == n
            for i, e in enumerate(unit_vectors(n)):
                assert solver.solve(e) == tuple(r[n + i] for r in rows)


class TestResidual:
    """quotient_basis, contains and member against list_scan_residual, the
    scan of every echelon row in order; max_examples comes from the
    hypothesis profile."""

    @settings(deadline=None)
    @given(subspace_pairs())
    def test_quotient_basis_and_contains(self, spaces):
        ambient, sub, other = spaces
        assert quotient_basis(ambient, sub) == \
            list_scan_quotient_basis(ambient, sub)
        for big, small in itertools.permutations(spaces, 2):
            echelon = list(zip(big._rows, big.pivots))
            assert big.contains(small) == (not any(
                list_scan_residual(r, echelon) for r in small._rows))

    @settings(deadline=None)
    @given(st.one_of(
        st.integers(0, 6).flatmap(lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            max_size=5).map(lambda vs: Subspace(n, vs))),
        subspace_pairs().map(lambda spaces: spaces[1])))
    def test_complement_is_the_quotient_of_the_whole_space(self, sub):
        n = sub.ambient_dim
        kept = complement(sub)
        assert kept == quotient_basis(image(Matrix.identity(n)), sub)
        assert Subspace(n, list(sub.basis) + [unit_vectors(n)[i]
                                              for i in kept]).dim == n

    @settings(deadline=None)
    @given(subspace_pairs(), st.data())
    def test_member(self, spaces, data):
        ambient, sub, other = spaces
        n = ambient.ambient_dim
        v = data.draw(st.sampled_from(
            list(other.basis) + list(sub.basis)
            + [tuple(Fraction(0) for _ in range(n))]))
        echelon = list(zip(ambient._rows, ambient.pivots))
        assert ambient.member(v) == (not list_scan_residual(
            exactla._to_int_row(v), echelon))


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
        x = LinearSolver(m._columns(), m.rows, m._den).solve(b)
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
        assert [ambient.basis[i]
                for i in quotient_basis(ambient, sub)] == kept


class TestEdgeCases:
    def test_subspace_equality_ignores_order_and_scaling(self):
        s = Subspace(3, [[1, 2, 3], [0, 1, 1]])
        assert s == Subspace(3, [[0, -2, -2], [frac(1, 2), 1, frac(3, 2)]])
        assert s == Subspace(3, [[1, 3, 4], [0, 5, 5], [2, 4, 6]])
        assert s != Subspace(3, [[1, 2, 3]])
        assert s != Subspace(4, [[1, 2, 3, 0], [0, 1, 1, 0]])

    @settings(max_examples=100, deadline=None)
    @given(matrices, st.data())
    def test_subspace_equality_under_permutation_and_scaling(self, m, data):
        order = data.draw(st.permutations(range(m.rows)))
        scales = data.draw(st.lists(
            st.fractions(min_value=-5, max_value=5,
                         max_denominator=4).filter(bool),
            min_size=m.rows, max_size=m.rows))
        moved = [[c * x for x in m.data[i]] for i, c in zip(order, scales)]
        assert Subspace(m.cols, moved) == Subspace(m.cols, m.data)

    def test_inverse_errors(self):
        assert not Matrix([[1, 2, 3], [4, 5, 6]]).is_invertible()
        singular = Matrix([[1, 2], [2, 4]])
        assert not singular.is_invertible()
        with pytest.raises(NoSolution):
            solved_inverse(singular)
        assert Matrix([], cols=0).is_invertible()

    @pytest.mark.parametrize("m", [
        Matrix([], cols=0), Matrix([], cols=3),
        Matrix.from_columns([(), ()], 0), Matrix._of_int([], 2, 5)])
    def test_image_without_rows(self, m):
        # image reads the columns of a 0-row matrix as empty rows
        assert m.rows == 0
        s = image(m)
        assert (s.ambient_dim, s.dim, s._rows, s.pivots) == (0, 0, [], ())
        assert s == Subspace(0)

    def test_solver_without_rows(self):
        solver = LinearSolver([{}, {}, {}], 0)    # no rows, three columns
        assert solver.solve([]) == (0, 0, 0)
        with pytest.raises(DimensionMismatch):
            solver.solve([1])

    def test_solver_without_columns(self):
        solver = LinearSolver([], 3)
        assert solver.solve([0, 0, 0]) == ()
        with pytest.raises(NoSolution):
            solver.solve([0, frac(1, 2), 0])

    def test_quotient_of_a_subspace_by_itself_is_empty(self):
        s = Subspace(4, [[1, 2, 0, 1], [0, 0, 3, 1]])
        assert quotient_basis(s, s) == []
        assert quotient_basis(Subspace(2), Subspace(2)) == []


def domain_matrix(rows, shape):
    """Fraction rows as a sympy DomainMatrix over QQ."""
    QQ = pytest.importorskip("sympy").QQ
    dm = pytest.importorskip("sympy.polys.matrices").DomainMatrix
    return dm([[QQ(x.numerator, x.denominator) for x in row] for row in rows],
              shape, QQ)


def fraction_rows(dm):
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in row]
            for row in dm.to_list()]


any_matrix = st.one_of(matrices, sparse_matrices())


@st.composite
def row_denominator_matrices(draw):
    """Integer rows, each over its own denominator."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    data = []
    for _ in range(rows):
        den = draw(st.integers(1, 12))
        data.append([Fraction(draw(st.integers(-6, 6)), den)
                     for _ in range(cols)])
    return Matrix(data, cols=cols)


class TestDomainMatrixOracle:
    """sympy's DomainMatrix over QQ as a second oracle, independent of the
    cdga kernel.  sympy is a test dependency only."""

    @settings(max_examples=150, deadline=None)
    @given(any_matrix)
    def test_rank_and_kernel(self, m):
        dm = domain_matrix(m.data, (m.rows, m.cols))
        rank = dm.rank()
        assert m.rank() == rank
        assert LinearSolver(m._columns(), m.rows, m._den).rank == rank
        k = kernel(m)
        assert k.dim == m.cols - rank
        assert k == Subspace(m.cols, fraction_rows(dm.nullspace()))
        if k.dim:
            vt = domain_matrix(k.basis, (k.dim, m.cols)).transpose()
            assert dm.matmul(vt).is_zero_matrix

    @settings(max_examples=150, deadline=None)
    @given(any_matrix, st.data())
    def test_image_membership_and_solve(self, m, data):
        dm = domain_matrix(m.data, (m.rows, m.cols))
        x = [Fraction(data.draw(st.integers(-4, 4))) for _ in range(m.cols)]
        noise = [Fraction(data.draw(st.integers(-1, 1))) for _ in range(m.rows)]
        b = [p + q for p, q in zip(m.apply(x), noise)]
        db = domain_matrix([[v] for v in b], (m.rows, 1))
        consistent = dm.hstack(db).rank() == dm.rank()
        assert image(m).member(b) == consistent
        if consistent:
            y = LinearSolver(m._columns(), m.rows, m._den).solve(b)
            assert dm.matmul(domain_matrix([[v] for v in y],
                                           (m.cols, 1))) == db
        else:
            with pytest.raises(NoSolution):
                LinearSolver(m._columns(), m.rows, m._den).solve(b)

    @settings(max_examples=150, deadline=None)
    @given(row_denominator_matrices())
    def test_image_with_row_denominators(self, m):
        # image reads the matrix by columns, so one scale must serve every row
        dm = domain_matrix(m.data, (m.rows, m.cols))
        im = image(m)
        assert im.dim == dm.rank()
        assert im == Subspace(m.rows,
                              fraction_rows(dm.columnspace().transpose()))
        assert all(im.member(c) for c in zip(*m.data))

    @settings(max_examples=150, deadline=None)
    @given(any_matrix)
    def test_inverse(self, m):
        if m.rows != m.cols:
            assert not m.is_invertible()
            return
        dm = domain_matrix(m.data, (m.rows, m.cols))
        if dm.rank() < m.rows:
            assert not m.is_invertible()
            with pytest.raises(NoSolution):
                solved_inverse(m)
        else:
            assert [list(r) for r in solved_inverse(m).data] == \
                fraction_rows(dm.inv())


fraction_maps = st.lists(st.dictionaries(
    st.integers(0, 8),
    st.one_of(st.integers(-9, 9),
              st.fractions(min_value=-9, max_value=9, max_denominator=12))
    .filter(bool), max_size=6), max_size=6)


class TestExactForm:
    @settings(deadline=None)
    @given(fraction_maps)
    def test_int_rows_scales_by_the_lcm(self, maps):
        rows, den = exactla.int_rows(maps)
        assert den == math.lcm(*(Fraction(x).denominator
                                 for m in maps for x in m.values()))
        assert all(type(x) is int for r in rows for x in r.values())
        # each row times 1/den is its input map, keys in the same order
        assert [[(k, Fraction(x, den)) for k, x in r.items()]
                for r in rows] == [list(m.items()) for m in maps]

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(any_matrix, row_denominator_matrices()))
    def test_round_trips(self, m):
        # int rows over one denominator and the Fraction rows in data
        # describe the same matrix through every constructor
        assert Matrix(m.data, cols=m.cols) == m
        if m.rows:
            assert m.transpose().data == tuple(zip(*m.data))
        assert m.transpose().transpose() == m
        assert Matrix.from_columns(m.transpose().data, m.rows) == m
        # equality compares values, whatever the common denominator
        assert Matrix._of_int([{j: 3 * x for j, x in r.items()}
                               for r in m._int], m.cols, 3 * m._den) == m


def test_sympy_is_not_a_runtime_dependency():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import contextlib, io, sys\n"
            "import cdga, cdga.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cdga.cli.main(['corpus', 'q111']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('sympy')))\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


class TestBackends:
    def test_backend_is_reported(self):
        import cdga
        assert cdga.kernel_backend == "python"
