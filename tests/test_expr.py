"""Expression language: grammar, normalization, diagnostics."""

from fractions import Fraction

import pytest

from cdga.dga import TabularDGA
from cdga.errors import ModelSyntaxError, UnknownIdentifier
from cdga.expr import parse_expression
from cdga.gca import Algebra


ALG = Algebra([("y", 1), ("a", 2), ("b", 2), ("u", 3)])


def parse(text, parameters=None):
    return parse_expression(text, ALG, parameters)


class TestGrammar:
    def test_sums_and_signs(self):
        a, b = ALG.gen("a"), ALG.gen("b")
        assert parse("a + b") == a + b
        assert parse("a - b") == a - b
        assert parse("-a + b") == b - a
        assert parse("+a") == a

    def test_products_with_and_without_star(self):
        a, b = ALG.gen("a"), ALG.gen("b")
        assert parse("a*b") == a * b
        assert parse("a b") == a * b
        assert parse("2a*b") == a * b * 2
        assert parse("2*a*b") == a * b * 2

    def test_rational_coefficients(self):
        a = ALG.gen("a")
        assert parse("1/2 a") == a * Fraction(1, 2)
        assert parse("3/4*a") == a * Fraction(3, 4)
        assert parse("5") == ALG.one() * 5
        assert parse("2/6") == ALG.one() * Fraction(1, 3)

    def test_powers(self):
        a = ALG.gen("a")
        assert parse("a^3") == a ** 3
        assert parse("2a^2 - b^2") == a * a * 2 - ALG.gen("b") ** 2

    def test_odd_power_is_zero(self):
        assert parse("u^2").is_zero()
        assert parse("y^5").is_zero()
        assert parse("a^2 + u^2") == ALG.gen("a") ** 2

    def test_parentheses(self):
        a, b = ALG.gen("a"), ALG.gen("b")
        assert parse("(a + b)*(a + b)") == (a + b) * (a + b)
        assert parse("2(a - b)") == (a - b) * 2

    def test_power_applies_to_identifiers_only(self):
        with pytest.raises(ModelSyntaxError):
            parse("(a + b)^2")

    def test_zero_literal(self):
        assert parse("0").is_zero()
        assert parse("  0 ").is_zero()

    def test_koszul_normalization(self):
        y, u = ALG.gen("y"), ALG.gen("u")
        assert parse("u*y") == -(parse("y*u"))
        assert parse("y*u + u*y").is_zero()

    def test_parameters_substitute(self):
        a = ALG.gen("a")
        assert parse("e1*a", {"e1": Fraction(3, 2)}) == a * Fraction(3, 2)
        assert parse("e1 + 1", {"e1": Fraction(2)}) == ALG.one() * 3

    def test_works_on_tabular_algebras(self):
        tab = TabularDGA([("1", 0), ("s", 2), ("t", 4)],
                         {("s", "s"): {"t": 1}, ("s", "t"): {},
                          ("t", "t"): {}}, {})
        assert parse_expression("s^2 - 2t", tab) == \
            tab.gen("t") * Fraction(-1)


class TestDiagnostics:
    def test_unknown_identifier_with_position(self):
        with pytest.raises(UnknownIdentifier) as exc:
            parse("a + qq*b")
        assert exc.value.line == 1
        assert exc.value.column == 5

    def test_bad_character(self):
        with pytest.raises(ModelSyntaxError) as exc:
            parse("a + %b")
        assert exc.value.column == 5

    def test_multiline_positions(self):
        with pytest.raises(UnknownIdentifier) as exc:
            parse("a +\n  zz")
        assert exc.value.line == 2
        assert exc.value.column == 3

    def test_zero_denominator(self):
        with pytest.raises(ModelSyntaxError):
            parse("1/0 a")

    def test_trailing_garbage(self):
        with pytest.raises(ModelSyntaxError):
            parse("a b )")

    def test_dangling_operator(self):
        with pytest.raises(ModelSyntaxError):
            parse("a *")
        with pytest.raises(ModelSyntaxError):
            parse("a +")

    def test_bad_exponent(self):
        with pytest.raises(ModelSyntaxError):
            parse("a^0")
        with pytest.raises(ModelSyntaxError):
            parse("a^b")

    def test_numbers_are_decimal_digits(self):
        # int() refuses a superscript digit, so it never starts a number;
        # other decimal digits read as int() reads them
        with pytest.raises(ModelSyntaxError,
                           match="^unexpected character '\u00b2'$") as exc:
            parse("a^\u00b2")
        assert (exc.value.line, exc.value.column) == (1, 3)
        with pytest.raises(UnknownIdentifier) as exc:
            parse("a\u00b2")
        assert exc.value.column == 1
        assert parse("\u0663a") == ALG.gen("a") * 3

    def test_field_is_carried_in_errors(self):
        with pytest.raises(ModelSyntaxError) as exc:
            parse_expression("qq", ALG, field="differential.x")
        assert exc.value.location()["field"] == "differential.x"
