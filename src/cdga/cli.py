"""Command-line front end.

Every command writes one JSON envelope to standard output:

    {"schema": 1, "query": {...}, "input_digest": "...", "result": {...},
     "witnesses": {...}, "provenance": [...], "timestamp": "..."}

Exit codes: 0 success, 2 for mathematically undefined results (for example a
Massey product whose defining cup products are nonzero classes), 1 for
errors.  FILE arguments accept "-" for standard input, and a command
envelope whose result carries a model can be piped into any FILE slot.
Rationals serialize as "p/q" strings.  The environment variable
CDGA_MAX_DEGREE_DEFAULT overrides the default degree bound.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction

from . import constructions, modelfile, sullivan
from .cohomology import compute
from .dga import DGA
from .errors import (CdgaError, DimensionMismatch, ModelSyntaxError,
                     NotDefined, NotInvertible, ParamOutOfRange)
from .expr import parse_expression
from .massey import triple

DEFAULT_MAX_DEGREE = 8


def _default_bound():
    raw = os.environ.get("CDGA_MAX_DEGREE_DEFAULT")
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise CdgaError(
                f"CDGA_MAX_DEGREE_DEFAULT is not an integer: {raw!r}")
    return DEFAULT_MAX_DEGREE


def jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, bool) or x is None or isinstance(x, (int, str, float)):
        return x
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return str(x)


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_model(path):
    text = _read(path)
    obj, metadata = modelfile.loads(text)
    return obj, metadata, text


def _envelope(query, input_text, result, witnesses=None, provenance=None):
    return {
        "schema": 1,
        "query": jsonable(query),
        "input_digest": hashlib.sha256(
            input_text.encode("utf-8")).hexdigest() if input_text is not None
        else None,
        "result": jsonable(result),
        "witnesses": jsonable(witnesses or {}),
        "provenance": jsonable(provenance or []),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _emit(doc):
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# -- commands --------------------------------------------------------------

def cmd_validate(args):
    obj, metadata, text = _load_model(args.file)
    kind = "free" if isinstance(obj, DGA) else "tabular"
    size = (len(obj.algebra.generators) if isinstance(obj, DGA)
            else len(obj.labels))
    result = {"ok": True, "kind": kind, "size": size, "metadata": metadata}
    return _envelope({"command": "validate", "file": args.file},
                     text, result), 0


def cmd_cohomology(args):
    obj, metadata, text = _load_model(args.file)
    bound = args.max_degree if args.max_degree is not None else _default_bound()
    summary = compute(obj, bound, with_cup=args.ring)
    result = {
        "max_degree": bound,
        "betti": list(summary.betti),
        "representatives": {str(k): [str(r) for r in summary.representatives[k]]
                            for k in range(bound + 1)},
    }
    if args.ring:
        result["ring"] = [
            {"p": p, "i": i, "q": q, "j": j, "value": list(vec)}
            for (p, i, q, j), vec in sorted(summary.cup.items())
            if any(vec)]
    return _envelope({"command": "cohomology", "file": args.file,
                      "max_degree": bound, "ring": args.ring},
                     text, result), 0


def cmd_massey(args):
    obj, metadata, text = _load_model(args.file)
    bound = args.max_degree if args.max_degree is not None else _default_bound()
    exprs = args.classes.split(",")
    if len(exprs) != 3:
        raise ModelSyntaxError("--classes needs three comma-separated "
                               "expressions", field="classes")
    a1, a2, a3 = (parse_expression(e, obj.algebra) for e in exprs)
    query = {"command": "massey", "file": args.file, "classes": exprs,
             "max_degree": bound}
    try:
        res = triple(obj, a1, a2, a3, max_degree=bound)
    except NotDefined as exc:
        result = {"defined": False, "reason": str(exc)}
        return _envelope(query, text, result), 2
    result = {
        "defined": True,
        "degree": res.degree,
        "vanishes": res.vanishes,
        "representative": str(res.representative),
        "representative_class": list(res.representative_class),
        "indeterminacy_dim": res.indeterminacy.dim,
    }
    witnesses = {"primitives": [str(p) for p in res.primitives]}
    return _envelope(query, text, result, witnesses), 0


def cmd_minimal_model(args):
    obj, metadata, text = _load_model(args.file)
    bound = args.max_degree if args.max_degree is not None else _default_bound()
    model = sullivan.minimal_model(obj, bound)
    ok, report = sullivan.is_quasi_iso(
        model.morphism, bound, codomain_summary=model.target_summary)
    result = {
        "model": modelfile.render_model(model.dga),
        "generator_ledger": model.generator_ledger(),
        "stage_ledger": model.stage_ledger,
        "quasi_iso": ok,
    }
    witnesses = {"quasi_iso_report": report}
    return _envelope({"command": "minimal-model", "file": args.file,
                      "max_degree": bound}, text, result, witnesses), 0


def cmd_formality(args):
    obj, metadata, text = _load_model(args.file)
    verdict = sullivan.formality(obj, args.dimension, s=args.s, cap=args.cap)
    result = {
        "status": verdict.status,
        "s": verdict.s,
        "degree_cap": verdict.degree_cap,
        "formal_dimension": verdict.formal_dimension,
        "s_formal": verdict.s_formal,
        "splitting": verdict.splitting,
    }
    witnesses = {"witness": verdict.witness}
    return _envelope({"command": "formality", "file": args.file,
                      "dimension": args.dimension, "s": args.s,
                      "cap": args.cap},
                     text, result, witnesses, verdict.notes), 0


def cmd_circle_bundle(args):
    obj, metadata, text = _load_model(args.file)
    euler = parse_expression(args.euler, obj.algebra)
    total = constructions.circle_bundle_model(obj, euler)
    result = {"model": modelfile.render_model(total)}
    return _envelope({"command": "circle-bundle", "file": args.file,
                      "euler": args.euler}, text, result), 0


def cmd_mapping_torus(args):
    obj, metadata, text = _load_model(args.file)
    bound = args.max_degree if args.max_degree is not None else _default_bound()
    summary = compute(obj, bound, with_cup=False)
    try:
        auto_doc = json.loads(_read(args.auto))
    except json.JSONDecodeError as exc:
        raise ModelSyntaxError(f"invalid JSON: {exc.msg}", line=exc.lineno,
                               column=exc.colno, field="auto") from None
    rho = _build_automorphism(summary, auto_doc)
    torus = constructions.mapping_torus_cohomology(summary, rho,
                                                  with_cup=False)
    result = {
        "betti": list(torus.betti),
        "model": modelfile.render_model(torus.source),
    }
    return _envelope({"command": "mapping-torus", "file": args.file,
                      "auto": args.auto, "max_degree": bound},
                     text, result, provenance=rho.provenance), 0


def _build_automorphism(summary, doc):
    if not isinstance(doc, dict):
        raise ModelSyntaxError("automorphism description must be a JSON "
                               "object", field="auto")
    kind = doc.get("kind", "partial")
    if kind == "identity":
        return constructions.CohomologyAutomorphism.identity(summary)
    matrices_doc = doc.get("matrices") or {}
    if not isinstance(matrices_doc, dict):
        raise ModelSyntaxError("matrices must be a JSON object",
                               field="matrices")
    matrices = {}
    for key, rows in matrices_doc.items():
        field = f"matrices.{key}"
        r = modelfile.parse_integer(key, field)
        if not 0 <= r <= summary.max_degree:
            raise ModelSyntaxError(
                f"degree {r} is outside 0..{summary.max_degree}", field=field)
        if not isinstance(rows, list) or not all(isinstance(row, list)
                                                 for row in rows):
            raise ModelSyntaxError("a matrix must be a list of rows",
                                   field=field)
        matrices[r] = [[modelfile.parse_rational(c, field) for c in row]
                       for row in rows]
    if kind not in ("full", "partial"):
        raise ModelSyntaxError(f"unknown automorphism kind {kind!r}",
                               field="kind")
    if kind == "partial":
        if "top_degree" not in doc:
            raise ModelSyntaxError("a partial automorphism needs top_degree",
                                   field="top_degree")
        top = modelfile.parse_integer(doc["top_degree"], "top_degree")
        if not (0 <= top <= summary.max_degree and summary.betti[top] == 1):
            raise ModelSyntaxError(
                f"top degree {top} needs a one-dimensional H^{top} within "
                f"degrees 0..{summary.max_degree}", field="top_degree")
        top_sign = modelfile.parse_integer(doc.get("top_sign", 1), "top_sign")
    try:
        if kind == "full":
            rho = constructions.CohomologyAutomorphism(summary, matrices)
        else:
            rho = constructions.CohomologyAutomorphism.from_partial(
                summary, matrices, top_degree=top, top_sign=top_sign)
    except (NotInvertible, DimensionMismatch) as exc:   # singular or misshapen
        raise ModelSyntaxError(str(exc), field="matrices") from None
    except ParamOutOfRange as exc:      # from_partial's top_sign check
        raise ModelSyntaxError(str(exc), field="top_sign") from None
    # the matrices come from outside, so they may not respect cup products
    bad = rho.cup_compatibility_failures()
    if bad:
        raise ModelSyntaxError(
            "the automorphism does not respect cup products of the "
            f"representatives (p, i, q, j) in {bad}", field="matrices")
    return rho


def cmd_corpus(args):
    params = {key: getattr(args, key) for key in ("k", "l", "N", "rho")
              if getattr(args, key) is not None}
    if args.e is not None:
        params["e"] = tuple(modelfile.parse_rational(v, "e")
                            for v in args.e.split(","))
    if args.epsilon is not None:
        params["epsilon"] = [modelfile.parse_rational(v, "epsilon")
                             for v in args.epsilon.split(",")]
    if args.f is not None:
        params["f"] = modelfile.parse_rational(args.f, "f")
    entry = constructions.corpus(args.name, **params)
    result = {"kind": entry.kind, "dimension": entry.dimension,
              "parameters": entry.parameters}
    obj = entry.obj
    if entry.kind == "cohomology":
        result["betti"] = list(obj.betti)
        obj = obj.source
    result["model"] = modelfile.render_model(obj)
    return _envelope({"command": "corpus", "name": args.name,
                      "parameters": entry.parameters},
                     None, result, provenance=entry.provenance), 0


# -- dispatch --------------------------------------------------------------

@functools.cache
def build_parser():
    p = argparse.ArgumentParser(
        prog="cdga",
        description="Exact-arithmetic CDGA computations: cohomology, Massey "
                    "products, minimal models, formality verdicts.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("validate", cmd_validate, help="parse and validate a model file")
    sp.add_argument("file")

    sp = add("cohomology", cmd_cohomology, help="Betti numbers and "
             "class representatives")
    sp.add_argument("file")
    sp.add_argument("--max-degree", type=int, default=None)
    sp.add_argument("--ring", action="store_true",
                    help="include the cup-product table")

    sp = add("massey", cmd_massey, help="triple Massey product")
    sp.add_argument("file")
    sp.add_argument("--classes", required=True,
                    help="three comma-separated cocycle expressions")
    sp.add_argument("--max-degree", type=int, default=None)

    sp = add("minimal-model", cmd_minimal_model,
             help="staged Sullivan minimal model")
    sp.add_argument("file")
    sp.add_argument("--max-degree", type=int, default=None)

    sp = add("formality", cmd_formality, help="formality verdict")
    sp.add_argument("file")
    sp.add_argument("--dimension", type=int, required=True)
    sp.add_argument("--s", type=int, default=None)
    sp.add_argument("--cap", type=int, default=None)

    sp = add("circle-bundle", cmd_circle_bundle,
             help="extend a base model by a circle fibre")
    sp.add_argument("file")
    sp.add_argument("--euler", required=True)

    sp = add("mapping-torus", cmd_mapping_torus,
             help="mapping-torus cohomology of a fibre automorphism")
    sp.add_argument("file")
    sp.add_argument("--auto", required=True,
                    help="JSON description of the cohomology automorphism")
    sp.add_argument("--max-degree", type=int, default=None)

    sp = add("corpus", cmd_corpus, help="emit a named example model")
    sp.add_argument("name")
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--l", type=int, default=None)
    sp.add_argument("--e", default=None,
                    help="comma-separated Euler coefficients")
    sp.add_argument("--epsilon", default=None,
                    help="comma-separated rationals")
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--f", default=None)
    sp.add_argument("--rho", default=None, choices=("id", "flip"))
    return p


def main(argv=None):
    # the parser is built once per process; parse_args returns a fresh
    # Namespace on every call
    args = build_parser().parse_args(argv)
    try:
        doc, code = args.fn(args)
    except (CdgaError, OSError) as exc:
        error = {"kind": type(exc).__name__ if isinstance(exc, CdgaError)
                 else "IOError", "detail": str(exc)}
        if isinstance(exc, ModelSyntaxError) and exc.location():
            error["location"] = exc.location()
        _emit({"schema": 1,
               "query": {"command": args.command},
               "error": error,
               "timestamp": datetime.now(timezone.utc).isoformat()})
        return 1
    _emit(doc)
    return code


if __name__ == "__main__":
    sys.exit(main())
