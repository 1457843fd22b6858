"""Model files: parsing, validation, canonical rendering, round-trips."""

import json
from fractions import Fraction

import pytest

from cdga.cohomology import compute
from cdga.constructions import q_model, s_k_model
from cdga.dga import DGA, TabularDGA
from cdga.errors import (D2NonZero, InhomogeneousDifferential,
                         ModelSyntaxError, WrongDegree)
from cdga.modelfile import loads, parse_model, render_model


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
