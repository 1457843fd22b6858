"""Model files: parsing, validation, canonical rendering, round-trips."""

import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cdga.cohomology import compute
from cdga.constructions import corpus, q_model, s_k_model
from cdga.dga import DGA, TabularDGA
from cdga.errors import (D2NonZero, InhomogeneousDifferential,
                         ModelSyntaxError, WrongDegree)
from cdga.modelfile import loads, parse_model, parse_rational, render_model

from conftest import naive_tabular_validate
from test_dga import broken_tables


CP2_DOC = {
    "kind": "free",
    "generators": [{"name": "a", "degree": 2}, {"name": "x", "degree": 5}],
    "differential": {"x": "a^3"},
}


class TestFreeModels:
    def test_parse_cp2(self):
        obj, metadata = parse_model(CP2_DOC)
        assert isinstance(obj, DGA)
        assert obj.d(obj.gen("x")) == obj.gen("a") ** 3
        assert metadata == {}

    def test_parameters_substituted(self):
        doc = {
            "kind": "free",
            "generators": [{"name": "a", "degree": 2},
                           {"name": "u", "degree": 3}],
            "differential": {"u": "e*a^2"},
            "parameters": {"e": "3/2"},
        }
        obj, _ = parse_model(doc)
        assert obj.d(obj.gen("u")) == obj.gen("a") ** 2 * Fraction(3, 2)

    def test_inhomogeneous_differential_diagnosed(self):
        doc = {
            "kind": "free",
            "generators": [{"name": "a", "degree": 2},
                           {"name": "b", "degree": 2},
                           {"name": "x", "degree": 3}],
            "differential": {"x": "a^2 + b"},
        }
        with pytest.raises(InhomogeneousDifferential):
            parse_model(doc)

    def test_wrong_degree_differential_diagnosed(self):
        doc = {
            "kind": "free",
            "generators": [{"name": "a", "degree": 2},
                           {"name": "x", "degree": 3}],
            "differential": {"x": "a"},
        }
        with pytest.raises(WrongDegree) as exc:
            parse_model(doc)
        assert "d(x)" in str(exc.value)

    def test_d2_failure_carries_witness(self):
        doc = {
            "kind": "free",
            "generators": [{"name": "b", "degree": 1},
                           {"name": "a", "degree": 2},
                           {"name": "c", "degree": 2},
                           {"name": "y", "degree": 3}],
            "differential": {"c": "2*a*b", "y": "c^2"},
        }
        with pytest.raises(D2NonZero) as exc:
            parse_model(doc)
        assert "d(d(y))" in str(exc.value)

    def test_unknown_generator_in_differential(self):
        doc = dict(CP2_DOC, differential={"q": "a^3"})
        with pytest.raises(ModelSyntaxError) as exc:
            parse_model(doc)
        assert exc.value.location()["field"] == "differential.q"

    def test_parameter_shadowing_rejected(self):
        doc = dict(CP2_DOC, parameters={"a": "1"})
        with pytest.raises(ModelSyntaxError):
            parse_model(doc)

    def test_round_trip_is_identity(self):
        obj, _ = parse_model(CP2_DOC)
        doc = render_model(obj)
        obj2, _ = parse_model(doc)
        assert render_model(obj2) == doc
        assert doc["differential"] == {"x": "a^3"}

    def test_q111_round_trip(self):
        doc = render_model(q_model((1, 2, 3)))
        obj, _ = parse_model(doc)
        assert compute(obj, 7, with_cup=False).betti == \
            compute(q_model((1, 2, 3)), 7, with_cup=False).betti
        assert render_model(obj) == doc


class TestTabularModels:
    def test_sk_round_trip(self):
        tab, _ = s_k_model(3)
        doc = render_model(tab)
        obj, _ = parse_model(doc)
        assert isinstance(obj, TabularDGA)
        assert render_model(obj) == doc
        assert compute(obj, 7, with_cup=False).betti == \
            compute(tab, 7, with_cup=False).betti

    def test_invalid_product_table_diagnosed(self):
        doc = {
            "kind": "tabular",
            "basis": [{"label": "1", "degree": 0},
                      {"label": "u", "degree": 3},
                      {"label": "v", "degree": 3},
                      {"label": "w", "degree": 6}],
            "products": [
                {"left": "u", "right": "v", "value": {"w": "1"}},
                {"left": "v", "right": "u", "value": {"w": "1"}},
            ],
        }
        with pytest.raises(ModelSyntaxError):
            parse_model(doc)

    def test_tabular_d2_diagnosed(self):
        doc = {
            "kind": "tabular",
            "basis": [{"label": "1", "degree": 0},
                      {"label": "u", "degree": 1},
                      {"label": "s", "degree": 2},
                      {"label": "v", "degree": 3}],
            "products": [],
            "differential": {"u": {"s": "1"}, "s": {"v": "1"}},
        }
        with pytest.raises(D2NonZero):
            parse_model(doc)

    def test_unit_product_other_than_the_unit_law_rejected(self):
        doc = {
            "kind": "tabular",
            "basis": [{"label": "1", "degree": 0},
                      {"label": "s", "degree": 2},
                      {"label": "t", "degree": 2}],
            "products": [{"left": "1", "right": "s", "value": {"t": "2"}}],
        }
        with pytest.raises(ModelSyntaxError, match="with the unit"):
            parse_model(doc)

    def test_bad_rational_diagnosed(self):
        doc = {
            "kind": "tabular",
            "basis": [{"label": "1", "degree": 0},
                      {"label": "s", "degree": 2}],
            "products": [{"left": "s", "right": "s", "value": {"s": "x/y"}}],
        }
        with pytest.raises(ModelSyntaxError) as exc:
            parse_model(doc)
        assert "value" in exc.value.location()["field"]


class TestLoads:
    def test_json_error_has_position(self):
        with pytest.raises(ModelSyntaxError) as exc:
            loads("{\n  broken")
        assert exc.value.line == 2

    def test_unknown_kind(self):
        with pytest.raises(ModelSyntaxError):
            loads(json.dumps({"kind": "weird"}))

    def test_envelope_unwrapping(self):
        envelope = {"schema": 1, "query": {}, "result": {"model": CP2_DOC}}
        obj, _ = loads(json.dumps(envelope))
        assert isinstance(obj, DGA)

    def test_envelope_without_model_rejected(self):
        envelope = {"schema": 1, "result": {"betti": [1]}}
        with pytest.raises(ModelSyntaxError):
            loads(json.dumps(envelope))

    def test_metadata_preserved(self):
        doc = dict(CP2_DOC, metadata={"note": "projective plane"})
        obj, metadata = parse_model(doc)
        assert metadata == {"note": "projective plane"}
        assert render_model(obj, metadata)["metadata"] == metadata


# digits, signs, separators and spaces, with non-ASCII digits (Arabic-Indic
# three, fullwidth one) and spaces (no-break, em space)
RATIONAL_CHARS = list("0123456789+-/.eE_ \t\n") + ["\u0663", "\uff11",
                                                     "\u00a0", "\u2003"]
rational_values = st.one_of(
    st.text(st.sampled_from(RATIONAL_CHARS), max_size=10),
    st.from_regex(r"\A\s?[+-]?\d{0,3}(_\d)?([./]\d{0,3})?(e[+-]?\d)?\s?\Z"),
    st.integers(), st.floats(), st.booleans())


class TestParseRational:
    @settings(deadline=None)
    @given(rational_values)
    def test_same_as_fraction_of_str(self, value):
        try:
            expected = Fraction(str(value))
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ModelSyntaxError) as exc:
                parse_rational(value, "f")
            assert exc.value.location() == {"field": "f"}
        else:
            got = parse_rational(value, "f")
            assert type(got) is Fraction and got == expected

    # Fraction refuses "1_000" on Python 3.10, where int() accepts it
    @pytest.mark.parametrize("text", ["1_000", " 12 ", "+7", "-0", "007",
                                      "\u0663", "1/0", "1.5", "2e3"])
    def test_examples(self, text):
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ModelSyntaxError):
                parse_rational(text, "f")
        else:
            assert parse_rational(text, "f") == expected


@pytest.fixture(scope="module")
def tables():
    return [s_k_model(3)[0], corpus("w-torus", rho="id").obj.source]


class TestTabularRoundTrip:
    """parse_model(render_model(t)) rebuilds t, and its validation gives the
    naive oracle's problems, raised as the parser's error."""

    @settings(deadline=None)
    @given(st.data())
    def test_broken_tables(self, tables, data):
        tab = data.draw(broken_tables(data.draw(st.sampled_from(tables))))
        with mock.patch.object(TabularDGA, "validate", autospec=True,
                               side_effect=TabularDGA.validate) as spy:
            try:
                parse_model(render_model(tab))
                error = None
            except (D2NonZero, ModelSyntaxError) as exc:
                error = exc
        parsed = spy.call_args.args[0]
        assert (parsed.labels, parsed.degrees) == (tab.labels, tab.degrees)
        assert parsed.table == {k: e for k, e in tab.table.items() if e}
        assert parsed.diff == tab.diff
        problems = naive_tabular_validate(tab)
        assert parsed.validate() == problems
        d2 = [p for p in problems if p.startswith("d^2")]
        if not problems:
            assert error is None
        else:
            assert type(error) is (D2NonZero if d2 else ModelSyntaxError)
            assert str(error) == "; ".join(d2 or problems)
