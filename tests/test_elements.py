"""The sparse element contract that free and tabular algebras share.

Element strings reach witnesses in the golden CLI files, so their exact
form is pinned here for both kinds.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cdga.constructions import s_k_model
from cdga.dga import TabularDGA
from cdga.errors import MixedAlgebra
from cdga.gca import Algebra


def free():
    return Algebra([("a", 2), ("b", 2), ("x", 3)])


def table():
    return TabularDGA([("1", 0), ("a", 2), ("b", 2), ("ab", 4)],
                      products={("a", "b"): {"ab": 1}})


KINDS = [free, table]


class TestStr:
    @pytest.mark.parametrize("c, text", [
        (1, "1"), (-1, "-1"), (Fraction(3, 2), "3/2"), (Fraction(-3, 2), "-3/2")])
    def test_free_unit_term(self, c, text):
        assert str(free().one() * c) == text

    @pytest.mark.parametrize("c, text", [
        (1, "1"), (-1, "-1"), (Fraction(3, 2), "3/2*1"),
        (Fraction(-3, 2), "-3/2*1")])
    def test_tabular_unit_term(self, c, text):
        assert str(table().one() * c) == text

    def test_free_sums(self):
        alg = free()
        a, b = alg.gen("a"), alg.gen("b")
        assert str(a * -2 + b) == "-2*a + b"
        assert str(-a - b * Fraction(1, 3)) == "-a - 1/3*b"
        assert str(a * a * Fraction(3, 2) - 1) == "-1 + 3/2*a^2"
        assert str(alg.one() - a * b) == "1 - a*b"

    def test_tabular_sums(self):
        tab = table()
        a, b = tab.gen("a"), tab.gen("b")
        assert str(a * -2 + b) == "-2*a + b"
        assert str(-a - b * Fraction(1, 3)) == "-a - 1/3*b"
        assert str(a * b * Fraction(3, 2) - 1) == "-1 + 3/2*ab"
        assert str(tab.one() * 2 - a * b) == "2*1 - ab"

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero(self, kind):
        alg = kind()
        assert str(alg.zero()) == "0"
        assert str(alg.gen("a") - alg.gen("a")) == "0"
        assert repr(alg.gen("a") * -1) == "-a"


class TestArithmetic:
    @pytest.mark.parametrize("kind", KINDS)
    def test_power_zero_is_the_unit(self, kind):
        alg = kind()
        for e in (alg.gen("a"), alg.gen("a") * 3 + alg.gen("b"), alg.zero()):
            assert e ** 0 == alg.one()
            assert str(e ** 0) == "1"

    @pytest.mark.parametrize("kind", KINDS)
    def test_rational_operands(self, kind):
        alg = kind()
        a = alg.gen("a")
        assert a * 2 == 2 * a == a + a
        assert a * 0 == alg.zero()
        assert alg.one() * 2 == 2
        assert (a + 1) - a == 1
        assert a - 1 == a + alg.one() * -1

    @pytest.mark.parametrize("kind", KINDS)
    def test_inhomogeneous_degree_raises(self, kind):
        alg = kind()
        e = alg.gen("a") + alg.one()
        assert not e.is_homogeneous()
        with pytest.raises(ValueError, match="not homogeneous"):
            e.degree()
        assert alg.gen("a").degree() == 2
        assert alg.zero().degree() is None

    @pytest.mark.parametrize("kind", KINDS)
    def test_negative_power_raises(self, kind):
        with pytest.raises(ValueError, match="negative power"):
            kind().gen("a") ** -1


@st.composite
def elements(draw, alg, max_degree=6):
    """Up to three terms of degrees up to max_degree, mixed degrees too."""
    degrees = [k for k in range(max_degree + 1) if alg.degree_basis(k)]
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        basis = alg.degree_basis(draw(st.sampled_from(degrees)))
        key = basis[draw(st.integers(0, len(basis) - 1))]
        terms[key] = Fraction(draw(st.integers(-6, 6).filter(bool)),
                              draw(st.integers(1, 4)))
    return alg.from_terms(terms)


# a free algebra with odd and even generators, and two tabular corpus models
POWER_ALGEBRAS = {
    "free": Algebra([("a", 1), ("b", 2), ("c", 3), ("e", 2), ("f", 5)]),
    "s_3": s_k_model(3)[0],
    "s_4": s_k_model(4)[0],
}


class TestPower:
    @pytest.mark.parametrize("name", sorted(POWER_ALGEBRAS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(0, 6))
    def test_power_is_the_left_to_right_product(self, name, data, n):
        alg = POWER_ALGEBRAS[name]
        e = data.draw(elements(alg))
        product = alg.one()
        for _ in range(n):
            product = product * e
        assert e ** n == product

    @pytest.mark.parametrize("kind", KINDS)
    def test_huge_power_stops_at_zero(self, kind):
        # a^2 is zero in the table; x is odd, so x^2 = 0 in the free algebra
        base = kind().gen("a" if kind is table else "x")
        assert (base ** 10 ** 18).is_zero()

    def test_huge_power_of_an_even_generator(self):
        a = free().gen("a")
        assert str(a ** 2 ** 40) == f"a^{2 ** 40}"


class TestEqualityAndHash:
    def test_kinds_never_equal(self):
        alg, tab = free(), table()
        assert alg.one() != tab.one()
        assert alg.gen("a") != tab.gen("a")
        assert alg.zero() != tab.zero()
        assert len({alg.gen("a"), tab.gen("a"), alg.one(), tab.one()}) == 4

    @pytest.mark.parametrize("kind", KINDS)
    def test_equal_elements_hash_equal(self, kind):
        alg = kind()
        a, b = alg.gen("a"), alg.gen("b")
        assert a * b + a == a + b * a
        assert hash(a * b + a) == hash(a + b * a)
        assert hash(a * 2) == hash(a + a)

    @pytest.mark.parametrize("kind", KINDS)
    def test_same_labels_other_algebra(self, kind):
        assert kind().gen("a") != kind().gen("a")


class TestMixedAlgebra:
    @pytest.mark.parametrize("left, right", [
        (free, table), (table, free), (free, free), (table, table)])
    def test_add_sub_mul_raise(self, left, right):
        x, y = left().gen("a"), right().gen("a")
        with pytest.raises(MixedAlgebra, match="different"):
            x + y
        with pytest.raises(MixedAlgebra, match="different"):
            x - y
        with pytest.raises(MixedAlgebra, match="different"):
            x * y
