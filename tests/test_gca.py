"""Free graded-commutative algebra: normal form, signs, graded bases."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cdga.errors import MixedAlgebra
from cdga.gca import Algebra

from conftest import poincare_coefficient, recursive_degree_basis


def small_algebra():
    return Algebra([("a", 1), ("b", 2), ("c", 3), ("e", 2), ("f", 5)])


class TestExamples:
    def test_even_square(self):
        alg = Algebra([("a", 2)])
        a = alg.gen("a")
        assert a * a == a ** 2
        assert str(a ** 2) == "a^2"

    def test_odd_anticommute(self):
        alg = Algebra([("u", 3), ("v", 3)])
        u, v = alg.gen("u"), alg.gen("v")
        assert u * v == -(v * u)

    def test_odd_square_zero(self):
        alg = Algebra([("u", 3)])
        u = alg.gen("u")
        assert (u * u).is_zero()

    def test_even_odd_commute(self):
        alg = Algebra([("a", 2), ("u", 3)])
        a, u = alg.gen("a"), alg.gen("u")
        assert a * u == u * a

    def test_degree_basis_lambda_a2_x5(self):
        alg = Algebra([("a", 2), ("x", 5)])
        a, x = alg.gen("a"), alg.gen("x")
        assert [alg.key_str(m) for m in alg.degree_basis(4)] == ["a^2"]
        assert [alg.key_str(m) for m in alg.degree_basis(7)] == ["a*x"]
        assert [alg.key_str(m) for m in alg.degree_basis(0)] == ["1"]
        assert alg.degree_basis(1) == []

    def test_normal_form_sorted_by_degree_then_ordinal(self):
        alg = Algebra([("z", 4), ("a", 2)])
        z, a = alg.gen("z"), alg.gen("a")
        assert str(z * a) == "a*z"

    def test_unit_and_zero(self):
        alg = small_algebra()
        e = alg.gen("b") * 3 - alg.gen("b") * 3
        assert e.is_zero()
        assert alg.one() * alg.gen("b") == alg.gen("b")

    def test_rational_scalars(self):
        alg = small_algebra()
        b = alg.gen("b")
        assert (b * Fraction(1, 2)) * 2 == b
        assert Fraction(2, 3) * b == b * Fraction(2, 3)

    def test_mixed_algebra_rejected(self):
        a1 = Algebra([("a", 2)])
        a2 = Algebra([("a", 2)])
        with pytest.raises(MixedAlgebra):
            a1.gen("a") * a2.gen("a")

    def test_duplicate_and_bad_degree_rejected(self):
        with pytest.raises(ValueError):
            Algebra([("a", 2), ("a", 3)])
        with pytest.raises(ValueError):
            Algebra([("a", 0)])


@st.composite
def elements(draw, alg, max_degree=8):
    degrees = [k for k in range(max_degree + 1) if alg.degree_basis(k)]
    n_terms = draw(st.integers(0, 3))
    out = alg.zero()
    for _ in range(n_terms):
        k = draw(st.sampled_from(degrees))
        basis = alg.degree_basis(k)
        mono = basis[draw(st.integers(0, len(basis) - 1))]
        num = draw(st.integers(-6, 6))
        den = draw(st.integers(1, 4))
        out = out + alg.element({mono: Fraction(num, den)})
    return out


ALG = small_algebra()


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(elements(ALG), elements(ALG), elements(ALG))
    def test_associative(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @settings(max_examples=100, deadline=None)
    @given(elements(ALG), elements(ALG), elements(ALG))
    def test_distributive(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @settings(max_examples=100, deadline=None)
    @given(elements(ALG))
    def test_unital(self, x):
        assert ALG.one() * x == x
        assert x * ALG.one() == x
        assert (ALG.zero() * x).is_zero()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 8),
           st.data())
    def test_graded_commutativity_sign(self, p, q, data):
        bp, bq = ALG.degree_basis(p), ALG.degree_basis(q)
        if not bp or not bq:
            return
        x = ALG.element({bp[data.draw(st.integers(0, len(bp) - 1))]: 1})
        y = ALG.element({bq[data.draw(st.integers(0, len(bq) - 1))]: 1})
        sign = -1 if (p % 2 and q % 2) else 1
        assert x * y == (y * x) * Fraction(sign)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 8), st.data())
    def test_degree_additive_or_zero(self, p, q, data):
        bp, bq = ALG.degree_basis(p), ALG.degree_basis(q)
        if not bp or not bq:
            return
        x = ALG.element({bp[data.draw(st.integers(0, len(bp) - 1))]: 1})
        y = ALG.element({bq[data.draw(st.integers(0, len(bq) - 1))]: 1})
        prod = x * y
        assert prod.is_zero() or prod.degree() == p + q

    @pytest.mark.parametrize("k", range(13))
    def test_basis_count_matches_poincare_series(self, k):
        degrees = [g.degree for g in ALG.generators]
        assert len(ALG.degree_basis(k)) == poincare_coefficient(degrees, k)

    @pytest.mark.parametrize("k", range(11))
    def test_basis_is_deterministic_and_sorted(self, k):
        fresh = small_algebra()
        assert ALG.degree_basis(k) == fresh.degree_basis(k)
        assert ALG.degree_basis(k) == sorted(ALG.degree_basis(k))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 7), max_size=9), st.integers(0, 16))
    def test_basis_matches_unpruned_recursion(self, degrees, k):
        alg = Algebra([(f"g{i}", d) for i, d in enumerate(degrees)])
        assert alg.degree_basis(k) == recursive_degree_basis(degrees, k)

    @pytest.mark.parametrize("k", range(6))
    def test_basis_on_many_generators(self, k):
        # more generators of degree <= k than the default recursion limit;
        # degrees interleaved so that factor order differs from ordinal order
        degrees = [2 if i % 300 == 0 else 1 if i % 500 == 1 else 3
                   for i in range(1600)]
        alg = Algebra([(f"g{i}", d) for i, d in enumerate(degrees)])
        basis = alg.degree_basis(k)
        assert len(basis) == poincare_coefficient(degrees, k)
        assert basis == sorted(set(basis))
        assert all(alg.key_degree(m) == k for m in basis)
