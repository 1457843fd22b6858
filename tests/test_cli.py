"""Command-line interface: envelopes, exit codes, pipes, golden files."""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cdga.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"
REPO = Path(__file__).resolve().parents[1]


def run_cli(argv, stdin_text=None, env=None):
    """(exit code, parsed JSON) from an in-process CLI invocation."""
    buf = io.StringIO()
    old_stdin = sys.stdin
    old_env = {}
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        for key, val in (env or {}).items():
            old_env[key] = os.environ.get(key)
            os.environ[key] = val
        with redirect_stdout(buf):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
        for key, val in old_env.items():
            if val is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = val
    return code, buf.getvalue()


def normalized(text):
    doc = json.loads(text)
    doc.pop("timestamp", None)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


CP2_TEXT = json.dumps({
    "kind": "free",
    "generators": [{"name": "a", "degree": 2}, {"name": "x", "degree": 5}],
    "differential": {"x": "a^3"},
})


# Lambda(x_3, y_3, z_5), dz = xy: b = 1,0,0,2,0,0,0,0,2,0,0,1, so no closed
# 7-manifold; <x, x, y> = [xz] with zero indeterminacy, in degree 8
DUALITY_PROBE_TEXT = json.dumps({
    "kind": "free",
    "generators": [{"name": "x", "degree": 3}, {"name": "y", "degree": 3},
                   {"name": "z", "degree": 5}],
    "differential": {"z": "x*y"},
})


class TestCommands:
    def test_validate(self, tmp_path):
        path = tmp_path / "cp2.json"
        path.write_text(CP2_TEXT)
        code, out = run_cli(["validate", str(path)])
        doc = json.loads(out)
        assert code == 0
        assert doc["schema"] == 1
        assert doc["result"] == {"ok": True, "kind": "free", "size": 2,
                                 "metadata": {}}
        assert len(doc["input_digest"]) == 64

    def test_parser_is_built_once_and_calls_share_no_state(self):
        assert build_parser() is build_parser()
        argv = ["cohomology", "-", "--max-degree", "5"]
        _, out = run_cli(argv + ["--ring"], stdin_text=CP2_TEXT)
        assert "ring" in json.loads(out)["result"]
        _, out = run_cli(argv, stdin_text=CP2_TEXT)
        assert "ring" not in json.loads(out)["result"]

    def test_validate_reads_stdin(self):
        code, out = run_cli(["validate", "-"], stdin_text=CP2_TEXT)
        assert code == 0
        assert json.loads(out)["result"]["ok"] is True

    def test_cohomology(self):
        code, out = run_cli(["cohomology", "-", "--max-degree", "5"],
                            stdin_text=CP2_TEXT)
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["betti"] == [1, 0, 1, 0, 1, 0]
        assert doc["result"]["representatives"]["2"] == ["a"]

    def test_cohomology_ring_table(self):
        code, out = run_cli(["cohomology", "-", "--max-degree", "4",
                             "--ring"], stdin_text=CP2_TEXT)
        doc = json.loads(out)
        assert {"p": 2, "i": 0, "q": 2, "j": 0, "value": ["1"]} in \
            doc["result"]["ring"]

    def test_massey_defined_and_nonvanishing(self):
        _, q_text = run_cli(["corpus", "q111"])
        code, out = run_cli(["massey", "-", "--classes", "a2,a2,a3",
                             "--max-degree", "5"], stdin_text=q_text)
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["defined"] is True
        assert doc["result"]["vanishes"] is False
        assert doc["result"]["indeterminacy_dim"] == 0
        assert len(doc["witnesses"]["primitives"]) == 2

    def test_massey_not_defined_exits_two(self):
        code, out = run_cli(["massey", "-", "--classes", "a,a,a",
                             "--max-degree", "5"], stdin_text=CP2_TEXT)
        doc = json.loads(out)
        assert code == 2
        assert doc["result"]["defined"] is False
        assert "reason" in doc["result"]

    def test_minimal_model(self):
        code, out = run_cli(["minimal-model", "-", "--max-degree", "6"],
                            stdin_text=CP2_TEXT)
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["quasi_iso"] is True
        degrees = sorted(g["degree"]
                         for g in doc["result"]["model"]["generators"])
        assert degrees == [2, 5]

    def test_formality_verdicts(self):
        _, q_text = run_cli(["corpus", "q111"])
        code, out = run_cli(["formality", "-", "--dimension", "7",
                             "--cap", "7"], stdin_text=q_text)
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["status"] == "NonFormal"
        assert doc["witnesses"]["witness"]["kind"] == "massey"

        _, q_text = run_cli(["corpus", "q111", "--e", "1,0,0"])
        code, out = run_cli(["formality", "-", "--dimension", "7",
                             "--cap", "7"], stdin_text=q_text)
        assert json.loads(out)["result"]["status"] == "Formal"
        assert code == 0

    @pytest.mark.parametrize("cap, status", [
        ([], "NonFormal"), (["--cap", "7"], "Inconclusive")],
        ids=["default-cap", "cap-7"])
    def test_no_manifold_theorem_without_duality(self, cap, status):
        code, out = run_cli(["formality", "-", "--dimension", "7", *cap],
                            stdin_text=DUALITY_PROBE_TEXT)
        assert code == 0
        assert json.loads(out)["result"]["status"] == status

    def test_circle_bundle_pipes_into_cohomology(self, tmp_path):
        base = json.dumps({
            "kind": "free",
            "generators": [{"name": "a1", "degree": 2},
                           {"name": "x1", "degree": 3}],
            "differential": {"x1": "a1^2"},
        })
        code, out = run_cli(["circle-bundle", "-", "--euler", "2*a1"],
                            stdin_text=base)
        assert code == 0
        code, out2 = run_cli(["cohomology", "-", "--max-degree", "3"],
                             stdin_text=out)
        assert code == 0
        # circle bundle with nonzero Euler class over the S^2 model: S^3
        assert json.loads(out2)["result"]["betti"] == [1, 0, 0, 1]

    def test_tabular_circle_bundle_over_a_base_with_a_y(self):
        # s_3 already has the labels y and y*<label>, so the fibre is y0
        _, s3_text = run_cli(["corpus", "s-k", "--k", "3"])
        code, out = run_cli(["circle-bundle", "-", "--euler", "a"],
                            stdin_text=s3_text)
        assert code == 0
        code, out2 = run_cli(["validate", "-"], stdin_text=out)
        assert code == 0 and json.loads(out2)["result"]["ok"] is True

    def test_mapping_torus_command(self, tmp_path):
        _, q_text = run_cli(["corpus", "q111"])
        model_path = tmp_path / "q.json"
        model_path.write_text(q_text)
        auto_path = tmp_path / "auto.json"
        auto_path.write_text(json.dumps({
            "kind": "partial", "top_degree": 7, "top_sign": 1,
            "matrices": {"2": [["0", "1"], ["1", "0"]]}}))
        code, out = run_cli(["mapping-torus", str(model_path),
                             "--auto", str(auto_path),
                             "--max-degree", "7"])
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["betti"][:5] == [1, 1, 1, 1, 0]

    def test_corpus_unknown_name_is_an_error_envelope(self):
        code, out = run_cli(["corpus", "does-not-exist"])
        doc = json.loads(out)
        assert code == 1
        assert doc["error"]["kind"] == "UnknownCorpusEntry"

    def test_syntax_error_location_surfaces(self):
        bad = json.dumps({
            "kind": "free",
            "generators": [{"name": "a", "degree": 2},
                           {"name": "x", "degree": 5}],
            "differential": {"x": "a^3 + qq"},
        })
        code, out = run_cli(["validate", "-"], stdin_text=bad)
        doc = json.loads(out)
        assert code == 1
        assert doc["error"]["kind"] == "UnknownIdentifier"
        assert doc["error"]["location"]["field"] == "differential.x"

    def test_missing_file_is_an_io_error(self):
        code, out = run_cli(["validate", "/no/such/file.json"])
        doc = json.loads(out)
        assert code == 1
        assert doc["error"]["kind"] == "IOError"

    def test_max_degree_env_default(self):
        code, out = run_cli(["cohomology", "-"], stdin_text=CP2_TEXT,
                            env={"CDGA_MAX_DEGREE_DEFAULT": "4"})
        assert json.loads(out)["result"]["max_degree"] == 4

    def test_installed_entry_point(self, tmp_path):
        """Install this tree into tmp_path and run the generated `cdga`."""
        pytest.importorskip("setuptools", minversion="64")
        # setuptools writes build/ and *.egg-info next to pyproject.toml,
        # so the install runs from a copy, never from the repo tree
        project = tmp_path / "project"
        shutil.copytree(REPO / "src", project / "src",
                        ignore=shutil.ignore_patterns("__pycache__",
                                                      "*.egg-info"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(REPO / name, project / name)
        lib, bin_dir = tmp_path / "lib", tmp_path / "bin"
        build = subprocess.run(
            [sys.executable, "-c", "from setuptools import setup; setup()",
             "install", "--single-version-externally-managed",
             "--record", str(tmp_path / "record.txt"),
             "--install-lib", str(lib), "--install-scripts", str(bin_dir)],
            cwd=project, capture_output=True, text=True)
        assert build.returncode == 0, build.stderr
        # only the install on the path: an inherited PYTHONPATH=src would
        # import the source tree instead
        env = {**os.environ, "PYTHONPATH": str(lib)}
        out = subprocess.run([str(bin_dir / "cdga"), "corpus", "berger"],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["result"]["kind"] == "dga"


BAD_AUTOMORPHISMS = {
    "invalid_json": "{bad",
    "not_an_object": "[1, 2]",
    "missing_top_degree": json.dumps({"kind": "partial", "matrices": {}}),
    "bad_rational": json.dumps({"kind": "partial", "top_degree": 7,
                                "matrices": {"2": [["x", "1"], ["1", "0"]]}}),
    "non_integer_degree_key": json.dumps({
        "kind": "partial", "top_degree": 7,
        "matrices": {"two": [["0", "1"], ["1", "0"]]}}),
    "negative_degree_key": json.dumps({
        "kind": "partial", "top_degree": 7,
        "matrices": {"-6": [["0", "1"], ["1", "0"]]}}),
    "matrices_not_an_object": json.dumps({
        "kind": "partial", "top_degree": 7, "matrices": [1]}),
    "matrix_not_a_list_of_rows": json.dumps({
        "kind": "partial", "top_degree": 7, "matrices": {"2": 5}}),
    "top_degree_out_of_range": json.dumps({
        "kind": "partial", "top_degree": 20, "matrices": {}}),
    "top_degree_without_a_top_class": json.dumps({
        "kind": "partial", "top_degree": 6, "matrices": {}}),
    "singular_full_matrix": json.dumps({
        "kind": "full", "matrices": {"2": [["1", "0"], ["1", "0"]]}}),
    "singular_partial_matrix": json.dumps({
        "kind": "partial", "top_degree": 7,
        "matrices": {"2": [["1", "0"], ["1", "0"]]}}),
    "misshapen_full_matrix": json.dumps({
        "kind": "full", "matrices": {"2": [["1", "0"]]}}),
    "misshapen_partial_matrix": json.dumps({
        "kind": "partial", "top_degree": 7, "matrices": {"2": [["1", "0"]]}}),
    # three entries per row for b_2 = 2: the matrix, not the check of its
    # shape against b_2, refuses it
    "wide_full_matrix": json.dumps({
        "kind": "full",
        "matrices": {"2": [["1", "0", "0"], ["0", "1", "0"]]}}),
    "wide_partial_matrix": json.dumps({
        "kind": "partial", "top_degree": 7,
        "matrices": {"2": [["1", "0", "0"], ["0", "1", "0"]]}}),
    "ragged_partial_matrix": json.dumps({
        "kind": "partial", "top_degree": 7,
        "matrices": {"2": [["1", "0"], ["1"]]}}),
    # invertible in every degree, but it doubles one degree-5 class only,
    # so it breaks the cup products H^2 x H^5 -> H^7
    "full_not_cup_compatible": json.dumps({"kind": "full", "matrices": {
        "0": [["1"]], "1": [], "2": [["1", "0"], ["0", "1"]], "3": [],
        "4": [], "5": [["2", "0"], ["0", "1"]], "6": [], "7": [["1"]]}}),
    # an automorphism of a closed oriented manifold fixes or flips H^top;
    # 2 would give b_7 = b_8 = 0, and 0 a singular degree-7 matrix
    "top_sign_two": json.dumps({
        "kind": "partial", "top_degree": 7, "top_sign": 2,
        "matrices": {"2": [["0", "1"], ["1", "0"]]}}),
    "top_sign_zero": json.dumps({
        "kind": "partial", "top_degree": 7, "top_sign": 0,
        "matrices": {"2": [["0", "1"], ["1", "0"]]}}),
}
AUTOMORPHISM_FIELDS = {"top_degree_out_of_range": "top_degree",
                       "top_degree_without_a_top_class": "top_degree",
                       "singular_full_matrix": "matrices",
                       "singular_partial_matrix": "matrices",
                       "misshapen_full_matrix": "matrices",
                       "misshapen_partial_matrix": "matrices",
                       "wide_full_matrix": "matrices",
                       "wide_partial_matrix": "matrices",
                       "ragged_partial_matrix": "matrices",
                       "full_not_cup_compatible": "matrices",
                       "top_sign_two": "top_sign",
                       "top_sign_zero": "top_sign"}

BAD_CORPUS_ARGS = {
    "s_k_without_k": (["corpus", "s_k"], "ParamOutOfRange", None),
    "bad_e": (["corpus", "q111", "--e", "1,x"], "ModelSyntaxError", "e"),
    "bad_epsilon": (["corpus", "s-k", "--k", "3", "--epsilon", "1/6,y"],
                    "ModelSyntaxError", "epsilon"),
    "bad_f": (["corpus", "x6", "--f", "1/0"], "ModelSyntaxError", "f"),
    "s_k_with_N_zero": (["corpus", "s-k", "--k", "3", "--N", "0"],
                        "ParamOutOfRange", None),
    "s_k_with_N_negative": (["corpus", "s-k", "--k", "3", "--N", "-6"],
                            "ParamOutOfRange", None),
}


SPHERE_BASIS = [{"label": "1", "degree": 0}, {"label": "s", "degree": 2},
                {"label": "t", "degree": 4}, {"label": "u", "degree": 3}]


def tabular(**fields):
    """A tabular model document on SPHERE_BASIS with the given fields."""
    return {"kind": "tabular", "basis": SPHERE_BASIS, **fields}


def free(**fields):
    """A free model document, d(x) = a^3 unless fields say otherwise."""
    return {"kind": "free", "differential": {"x": "a^3"}, **fields,
            "generators": [{"name": "a", "degree": 2},
                           {"name": "x", "degree": 5}]}


# model documents the parser must refuse, and the field each error names
BAD_MODELS = {
    "product_value_a_list": (tabular(products=[
        {"left": "s", "right": "s", "value": [1]}]), "products[0].value"),
    "product_value_a_string": (tabular(products=[
        {"left": "s", "right": "s", "value": "t"}]), "products[0].value"),
    "tabular_differential_a_list": (tabular(differential=[1]),
                                    "differential"),
    "tabular_differential_entry_a_number": (tabular(differential={"s": 5}),
                                            "differential.s"),
    "tabular_differential_entry_a_list": (
        tabular(differential={"s": ["u"]}), "differential.s"),
    "free_differential_a_list": (free(differential=["a^3"]), "differential"),
    "free_parameters_a_list": (free(parameters=[1]), "parameters"),
    "free_metadata_a_list": (free(metadata=[1]), "metadata"),
    "free_metadata_a_string": (free(metadata="note"), "metadata"),
    "tabular_metadata_a_list": (tabular(metadata=[["a", 1]]), "metadata"),
    "tabular_metadata_a_string": (tabular(metadata="note"), "metadata"),
    "second_product_entry": (tabular(products=[
        {"left": "s", "right": "s", "value": {"t": "1"}},
        {"left": "s", "right": "s", "value": {"t": "2"}}]), "products[1]"),
    "unknown_left_label": (tabular(products=[
        {"left": "z", "right": "s", "value": {"t": "1"}}]),
        "products[0].left"),
    "unknown_right_label": (tabular(products=[
        {"left": "s", "right": "z", "value": {}}]), "products[0].right"),
    "unknown_value_label": (tabular(products=[
        {"left": "s", "right": "s", "value": {"z": "1"}}]),
        "products[0].value.z"),
    "unknown_value_label_with_zero_coefficient": (tabular(products=[
        {"left": "s", "right": "s", "value": {"t": "1", "z": "0"}}]),
        "products[0].value.z"),
    "unknown_differential_label": (tabular(differential={"z": {"u": "1"}}),
                                   "differential.z"),
    "unknown_differential_image_label": (
        tabular(differential={"s": {"z": "0"}}), "differential.s.z"),
    "tabular_basis_a_number": ({"kind": "tabular", "basis": 5}, "basis"),
    "free_generators_a_number": ({"kind": "free", "generators": 5},
                                 "generators"),
    "products_a_number": (tabular(products=5), "products"),
    "envelope_result_a_number": ({"schema": 1, "result": 5}, "result"),
    "envelope_result_a_list": ({"schema": 1, "result": ["model"]}, "result"),
    # d(a) = 1 would make the unit exact, but H^-1 is never computed
    "negative_basis_degree": ({
        "kind": "tabular", "basis": [{"label": "1", "degree": 0},
                                     {"label": "a", "degree": -1}],
        "differential": {"a": {"1": "1"}}}, "basis[1].degree"),
}


def error_of(code, out):
    """The error object of a failed command, after checking its exit code."""
    assert code == 1
    return json.loads(out)["error"]


class TestBadInput:
    """Bad arguments and model files give the error envelope and exit 1."""

    @pytest.mark.parametrize("case", sorted(BAD_AUTOMORPHISMS))
    def test_mapping_torus_automorphism(self, tmp_path, case):
        _, q_text = run_cli(["corpus", "q111"])
        auto_path = tmp_path / "auto.json"
        auto_path.write_text(BAD_AUTOMORPHISMS[case])
        error = error_of(*run_cli(["mapping-torus", "-", "--auto",
                                   str(auto_path), "--max-degree", "7"],
                                  stdin_text=q_text))
        assert error["kind"] == "ModelSyntaxError"
        assert "field" in error["location"]
        if case in AUTOMORPHISM_FIELDS:
            assert error["location"]["field"] == AUTOMORPHISM_FIELDS[case]
        if case.startswith("top_sign"):
            assert error["detail"] == "top_sign must be 1 or -1"

    @pytest.mark.parametrize("case", sorted(BAD_CORPUS_ARGS))
    def test_corpus_parameters(self, case):
        argv, kind, field = BAD_CORPUS_ARGS[case]
        error = error_of(*run_cli(argv))
        assert error["kind"] == kind
        if field is not None:
            assert error["location"]["field"] == field

    def test_corpus_library_call_without_k(self):
        from cdga import constructions
        from cdga.errors import ParamOutOfRange
        with pytest.raises(ParamOutOfRange):
            constructions.corpus("s_k")

    @pytest.mark.parametrize("argv", [
        ["validate", "-"], ["cohomology", "-"],
        ["formality", "-", "--dimension", "7", "--cap", "7"]])
    def test_error_envelope_piped_into_a_file_slot(self, argv):
        upstream = run_cli(["corpus", "s-k", "--k", "3", "--epsilon", "1/5"])
        assert error_of(*upstream)["kind"] == "ParamOutOfRange"
        error = error_of(*run_cli(argv, stdin_text=upstream[1]))
        assert error["kind"] == "ModelSyntaxError"
        assert error["location"]["field"] == "error"
        assert "ParamOutOfRange" in error["detail"]

    @pytest.mark.parametrize("case", sorted(BAD_MODELS))
    def test_malformed_model(self, case):
        doc, field = BAD_MODELS[case]
        error = error_of(*run_cli(["validate", "-"],
                                  stdin_text=json.dumps(doc)))
        assert error["kind"] == "ModelSyntaxError"
        assert error["location"] == {"field": field}
        if case.startswith("unknown"):
            assert error["detail"] == "unknown basis label 'z'"

    def test_superscript_exponent(self):
        # str.isdigit accepts the superscript, which int() refuses
        doc = {"kind": "free",
               "generators": [{"name": "a", "degree": 2},
                              {"name": "x", "degree": 3}],
               "differential": {"x": "a^\u00b2"}}
        error = error_of(*run_cli(["validate", "-"],
                                  stdin_text=json.dumps(doc)))
        assert error == {"kind": "ModelSyntaxError",
                         "detail": "unexpected character '\u00b2'",
                         "location": {"field": "differential.x", "line": 1,
                                      "column": 3}}

    @pytest.mark.parametrize("doc, size", [
        ({"kind": "free", "generators": None}, 0),
        (tabular(products=None), len(SPHERE_BASIS))])
    def test_null_arrays_read_as_empty(self, doc, size):
        code, out = run_cli(["validate", "-"], stdin_text=json.dumps(doc))
        assert code == 0 and json.loads(out)["result"]["size"] == size

    def test_massey_bound_below_the_product_degree(self):
        _, s3_text = run_cli(["corpus", "s-k", "--k", "3"])
        error = error_of(*run_cli(["massey", "-", "--classes", "a,a,a1",
                                   "--max-degree", "2"], stdin_text=s3_text))
        assert error["kind"] == "BoundTooLow"

    @pytest.mark.parametrize("base, kind", [
        ("a1^20000000", "BoundTooLow"),   # degree 40000000 > max degree 8
        ("x1^20000000", "NotACocycle"),   # x1 is odd, so the power is zero
    ])
    def test_massey_class_with_a_huge_exponent(self, base, kind):
        _, q_text = run_cli(["corpus", "q111"])
        error = error_of(*run_cli(["massey", "-", "--classes",
                                   f"{base},a2,a3", "--max-degree", "8"],
                                  stdin_text=q_text))
        assert error["kind"] == kind

    def test_circle_bundle_euler_class_of_mixed_degree(self):
        # a + c*a is closed in x6
        _, x6_text = run_cli(["corpus", "x6"])
        error = error_of(*run_cli(["circle-bundle", "-", "--euler",
                                   "a + c*a"], stdin_text=x6_text))
        assert error == {"kind": "WrongDegree", "detail": "circle-bundle "
                         "Euler class must have degree 2"}

    @pytest.mark.parametrize("cap", ["0", "1"])
    def test_formality_cap_below_two(self, cap):
        _, q_text = run_cli(["corpus", "q111"])
        error = error_of(*run_cli(["formality", "-", "--dimension", "7",
                                   "--cap", cap], stdin_text=q_text))
        assert error["kind"] == "BoundTooLow"

    @pytest.mark.parametrize("value", [{"w": "1"}, {"w": "-1"}])
    def test_a_pair_given_in_both_orders(self, value):
        # u*s = w, and s*u = w agrees with it by graded commutativity, while
        # s*u = -w does not
        basis = SPHERE_BASIS + [{"label": "w", "degree": 5}]
        doc = tabular(basis=basis, products=[
            {"left": "u", "right": "s", "value": {"w": "1"}},
            {"left": "s", "right": "u", "value": value}])
        code, out = run_cli(["validate", "-"], stdin_text=json.dumps(doc))
        if value == {"w": "1"}:
            assert code == 0 and json.loads(out)["result"]["ok"] is True
        else:
            error = error_of(code, out)
            assert error["detail"] == \
                "product table not graded-commutative at s,u"

    @pytest.mark.parametrize("degree", ["two", 2.5])
    def test_generator_degree_not_an_integer(self, degree):
        doc = json.dumps({"kind": "free",
                          "generators": [{"name": "a", "degree": degree}]})
        error = error_of(*run_cli(["validate", "-"], stdin_text=doc))
        assert error["kind"] == "ModelSyntaxError"
        assert error["location"]["field"] == "generators[0].degree"

    @pytest.mark.parametrize("degree", ["two", 2.5])
    def test_basis_degree_not_an_integer(self, degree):
        doc = json.dumps({"kind": "tabular",
                          "basis": [{"label": "1", "degree": 0},
                                    {"label": "a", "degree": degree}]})
        error = error_of(*run_cli(["validate", "-"], stdin_text=doc))
        assert error["kind"] == "ModelSyntaxError"
        assert error["location"]["field"] == "basis[1].degree"


GOLDEN_COMMANDS = {
    "corpus_q111.json": ["corpus", "q111"],
    "corpus_q111_e210.json": ["corpus", "q111", "--e", "2,1,0"],
    "corpus_s3.json": ["corpus", "s-k", "--k", "3"],
    "corpus_berger.json": ["corpus", "berger"],
    "corpus_aloff_wallach.json": ["corpus", "aloff-wallach",
                                  "--k", "1", "--l", "1"],
    "corpus_x6.json": ["corpus", "x6"],
    "corpus_q111_torus.json": ["corpus", "q111-torus"],
    "corpus_berger_torus.json": ["corpus", "berger-torus"],
    "corpus_w_torus_id.json": ["corpus", "w-torus", "--rho", "id"],
    "corpus_w_torus_flip.json": ["corpus", "w-torus", "--rho", "flip"],
}

SWAP = [["0", "1"], ["1", "0"]]

# mapping-torus runs whose model must be the one in a golden file: the
# automorphism built from a JSON description, against the corpus entry
# built through the library
GOLDEN_TORI = {
    "berger_identity": (["corpus", "berger"], {"kind": "identity"},
                        "corpus_berger_torus.json"),
    "q111_partial_swap": (["corpus", "q111"], {
        "kind": "partial", "top_degree": 7, "matrices": {"2": SWAP}},
        "corpus_q111_torus.json"),
    "q111_full_swap": (["corpus", "q111"], {"kind": "full", "matrices": {
        "0": [["1"]], "1": [], "2": SWAP, "3": [], "4": [],
        "5": [["1", "0"], ["0", "-1"]], "6": [], "7": [["1"]]}},
        "corpus_q111_torus.json"),
    "aloff_wallach_flip": (["corpus", "aloff-wallach", "--k", "1", "--l", "0"],
                           {"kind": "partial", "top_degree": 7,
                            "matrices": {"2": [["-1"]]}},
                           "corpus_w_torus_flip.json"),
}


class TestGoldenFiles:
    @pytest.mark.parametrize("case", sorted(GOLDEN_TORI))
    def test_mapping_torus_model_matches_golden(self, tmp_path, case):
        corpus_argv, auto, fname = GOLDEN_TORI[case]
        _, model_text = run_cli(corpus_argv)
        auto_path = tmp_path / "auto.json"
        auto_path.write_text(json.dumps(auto))
        code, out = run_cli(["mapping-torus", "-", "--auto", str(auto_path),
                             "--max-degree", "7"], stdin_text=model_text)
        assert code == 0
        want = json.loads((GOLDEN / fname).read_text())["result"]["model"]
        assert json.loads(out)["result"]["model"] == want

    @pytest.mark.parametrize("fname", sorted(GOLDEN_COMMANDS))
    def test_output_matches_golden_and_is_stable(self, fname):
        argv = GOLDEN_COMMANDS[fname]
        code1, out1 = run_cli(argv)
        code2, out2 = run_cli(argv)
        assert code1 == code2 == 0
        assert normalized(out1) == normalized(out2)
        assert normalized(out1) == (GOLDEN / fname).read_text()
