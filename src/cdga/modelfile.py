"""JSON descriptions of free and tabular DGAs, with canonical rendering.

Free form:

    {"kind": "free",
     "generators": [{"name": "a", "degree": 2}, ...],
     "differential": {"x": "a^3", ...},
     "parameters": {"e1": "1", ...},
     "metadata": {...}}

Tabular form:

    {"kind": "tabular",
     "basis": [{"label": "1", "degree": 0}, ...],
     "products": [{"left": "a", "right": "a", "value": {"nu": "1"}}, ...],
     "differential": {"y": {"a": "1"}, ...},
     "metadata": {...}}

Parameters are rationals substituted into expressions at parse time.
"differential", "parameters", "metadata", products[i].value and
differential.<label> are JSON objects or null; "generators", "basis" and
"products" are JSON arrays or null.  Each label read must name a
basis class ("unknown basis label" at its field, e.g. products[i].left or
differential.<label>.z), and a (left, right) pair may appear once.
Rendering is canonical: parse(render(obj)) rebuilds an identical model, and
render(parse(doc)) is the identity on canonical documents.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .dga import DGA, TabularDGA
from .errors import (D2NonZero, InhomogeneousDifferential, ModelSyntaxError,
                     WrongDegree)
from .expr import parse_expression
from .gca import Algebra


def parse_rational(value, field):
    """Fraction(str(value)) from a JSON number or string, by int() for a
    string of an integer without "_"; ModelSyntaxError if bad."""
    if type(value) is str and "_" not in value:
        try:
            return Fraction(int(value))
        except ValueError:
            pass
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ModelSyntaxError(f"bad rational {value!r}", field=field) from None


def _object(value, field, *args):
    """value if a JSON object, {} if null; else ModelSyntaxError at
    field.format(*args), a name built only then."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ModelSyntaxError("expected a JSON object",
                               field=field.format(*args))
    return value


def _array(value, field):
    """value if a JSON array, [] if null; else ModelSyntaxError at field."""
    if value is not None and not isinstance(value, list):
        raise ModelSyntaxError("expected a JSON array", field=field)
    return value or []


def _label(value, labels, field, *args):
    """str(value) if it is a basis label; else ModelSyntaxError at
    field.format(*args), a name built only then."""
    lab = str(value)
    if lab not in labels:
        raise ModelSyntaxError(f"unknown basis label {lab!r}",
                               field=field.format(*args))
    return lab


def _coefficients(value, labels, field, key):
    """The {label: Fraction} map of a JSON object of rationals keyed by
    basis labels, {} for null; an error names field.format(key) or one of
    its labels."""
    out = {}
    for lab, c in _object(value, field, key).items():
        lab = _label(lab, labels, field + ".{}", key, lab)
        try:
            out[lab] = parse_rational(c, None)
        except ModelSyntaxError as exc:
            exc.field = f"{field.format(key)}.{lab}"
            raise
    return out


def parse_integer(value, field):
    """An int from a JSON integer or a string of one; ModelSyntaxError if
    bad (a float such as 2.5 is not truncated)."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ModelSyntaxError(f"bad integer {value!r}", field=field)


def parse_model(doc):
    """(DGA or TabularDGA, metadata dict) from a model description dict."""
    if not isinstance(doc, dict):
        raise ModelSyntaxError("model description must be a JSON object")
    kind = doc.get("kind", "free")
    if kind == "free":
        return _parse_free(doc)
    if kind == "tabular":
        return _parse_tabular(doc)
    raise ModelSyntaxError(f"unknown model kind {kind!r}", field="kind")


def _parse_free(doc):
    gens = []
    for i, g in enumerate(_array(doc.get("generators"), "generators")):
        field = f"generators[{i}]"
        if not isinstance(g, dict) or "name" not in g or "degree" not in g:
            raise ModelSyntaxError("generator needs name and degree",
                                   field=field)
        gens.append((str(g["name"]),
                     parse_integer(g["degree"], f"{field}.degree")))
    try:
        alg = Algebra(gens)
    except ValueError as exc:
        raise ModelSyntaxError(str(exc), field="generators") from None
    params = {str(k): parse_rational(v, f"parameters.{k}")
              for k, v in _object(doc.get("parameters"),
                                  "parameters").items()}
    clash = set(params) & {g.name for g in alg.generators}
    if clash:
        raise ModelSyntaxError(
            f"parameters shadow generators: {sorted(clash)}",
            field="parameters")
    images = {}
    diff_doc = _object(doc.get("differential"), "differential")
    degrees = {g.name: g.degree for g in alg.generators}
    for name, text in diff_doc.items():
        field = f"differential.{name}"
        if name not in degrees:
            raise ModelSyntaxError(f"differential for unknown generator "
                                   f"{name!r}", field=field)
        e = parse_expression(str(text), alg, params, field=field)
        if not e.is_homogeneous():
            raise InhomogeneousDifferential(
                f"d({name}) mixes degrees ({field})")
        deg = e.degree()
        expected = degrees[name] + 1
        if deg is not None and deg != expected:
            raise WrongDegree(
                f"d({name}) has degree {deg}, expected {expected} ({field})")
        images[name] = e
    dga = DGA(alg, images)
    failures = dga.validate()
    if failures:
        name, witness = failures[0]
        raise D2NonZero(f"d(d({name})) = {witness}")
    return dga, dict(_object(doc.get("metadata"), "metadata"))


def _parse_tabular(doc):
    basis = []
    for i, b in enumerate(_array(doc.get("basis"), "basis")):
        field = f"basis[{i}]"
        if not isinstance(b, dict) or "label" not in b or "degree" not in b:
            raise ModelSyntaxError("basis entry needs label and degree",
                                   field=field)
        degree = parse_integer(b["degree"], f"{field}.degree")
        if degree < 0:
            raise ModelSyntaxError(f"negative degree {degree}",
                                   field=f"{field}.degree")
        basis.append((str(b["label"]), degree))
    labels = {lab for lab, _ in basis}
    products = {}
    for i, p in enumerate(_array(doc.get("products"), "products")):
        if not isinstance(p, dict) or "left" not in p or "right" not in p:
            raise ModelSyntaxError("product entry needs left and right",
                                   field=f"products[{i}]")
        pair = (_label(p["left"], labels, "products[{}].left", i),
                _label(p["right"], labels, "products[{}].right", i))
        if pair in products:
            raise ModelSyntaxError(f"second product entry for {pair[0]}*"
                                   f"{pair[1]}", field=f"products[{i}]")
        products[pair] = _coefficients(p.get("value"), labels,
                                       "products[{}].value", i)
    differential = {}
    for lab, val in _object(doc.get("differential"), "differential").items():
        lab = _label(lab, labels, "differential.{}", lab)
        differential[lab] = _coefficients(val, labels, "differential.{}", lab)
    try:
        tab = TabularDGA(basis, products, differential)
    except (ValueError, WrongDegree) as exc:
        raise ModelSyntaxError(str(exc)) from None
    problems = tab.validate()
    if problems:
        if any("d^2" in p for p in problems):
            raise D2NonZero("; ".join(p for p in problems if "d^2" in p))
        raise ModelSyntaxError("; ".join(problems))
    return tab, dict(_object(doc.get("metadata"), "metadata"))


def render_model(obj, metadata=None):
    """Canonical model description dict for a DGA or TabularDGA."""
    if isinstance(obj, DGA):
        doc = {
            "kind": "free",
            "generators": [{"name": g.name, "degree": g.degree}
                           for g in obj.algebra.generators],
            "differential": {
                g.name: str(e) for g, e in zip(obj.algebra.generators,
                                               obj.images.values())
                if not e.is_zero()},
        }
    elif isinstance(obj, TabularDGA):
        labels = obj.labels
        products = [{"left": labels[i], "right": labels[j],
                     "value": {labels[k]: str(c) for k, c in sorted(e.items())}}
                    for (i, j), e in sorted(obj.table.items()) if i <= j and e]
        doc = {
            "kind": "tabular",
            "basis": [{"label": lab, "degree": deg}
                      for lab, deg in zip(obj.labels, obj.degrees)],
            "products": products,
            "differential": {
                labels[i]: {labels[k]: str(c) for k, c in sorted(e.items())}
                for i, e in sorted(obj.diff.items())},
        }
    else:
        raise TypeError(f"cannot render {type(obj).__name__}")
    if metadata:
        doc["metadata"] = metadata
    return doc


def loads(text):
    """(obj, metadata) from JSON text; accepts a bare model description or a
    command envelope whose result carries a 'model' field.  An error
    envelope raises ModelSyntaxError naming the upstream error."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelSyntaxError(f"invalid JSON: {exc.msg}",
                               line=exc.lineno, column=exc.colno) from None
    if isinstance(doc, dict) and "schema" in doc and "error" in doc:
        error = doc["error"]
        if isinstance(error, dict):
            error = f"{error.get('kind')}: {error.get('detail')}"
        raise ModelSyntaxError(f"envelope carries an error, not a model "
                               f"({error})", field="error")
    if isinstance(doc, dict) and "schema" in doc and "result" in doc:
        result = _object(doc["result"], "result")
        if "model" not in result:
            raise ModelSyntaxError("envelope result carries no model",
                                   field="result")
        doc = result["model"]
    return parse_model(doc)
