"""The benchmark's workloads: their inputs, their items, and output checks.

Each workload builds fresh inputs for every pass (so per-object caches in the
program start cold each time), returns its fixed item list as
(item id, thunk) pairs, and checks each item's output against a reference.
cdga is imported inside build(), so that import is part of set-up time.

References come from the repository's own expectations where they exist
(the results stated by the acceptance criteria in tests/test_acceptance.py
and the golden CLI files in tests/golden/); references.json holds the
values pinned from a run of the parent code and says which ones they are.
"""

import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE.parent / "tests" / "golden"


def load_references():
    return json.loads((HERE / "references.json").read_text())


def normalized(text):
    """CLI envelope text without its timestamp, in canonical form."""
    doc = json.loads(text)
    doc.pop("timestamp", None)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def digest(text):
    return hashlib.sha256(normalized(text).encode("utf-8")).hexdigest()


class Workload:
    """build() makes one pass's inputs, items(inputs) its (id, thunk) list,
    check(id, output) returns None or what is wrong."""

    name = None

    def setup_problems(self, inputs):
        """Problems found in the built inputs themselves."""
        return []


class Q111Sweep(Workload):
    """Criterion 1: cohomology, formality verdict and Massey product of all
    125 Q(e), e in {-2..2}^3.  Thousands of tiny eliminations, heavy on
    element arithmetic and recomputed summaries."""

    name = "q111_sweep"

    def __init__(self, refs):
        self.betti = {tuple(json.loads(f"[{k}]")): tuple(v)
                      for k, v in refs["q111_betti"].items()}

    def build(self):
        from cdga.constructions import q_model
        return [(e, q_model(e))
                for e in itertools.product(range(-2, 3), repeat=3)]

    def items(self, inputs):
        from cdga import cohomology, massey, sullivan

        def run(dga):
            summary = cohomology.compute(dga, 7, with_cup=False)
            verdict = sullivan.formality(dga, 7, cap=7, summary=summary)
            res = massey.try_triple(dga, dga.gen("a2"), dga.gen("a2"),
                                    dga.gen("a3"), summary=summary)
            return (summary.betti_vector(), verdict.status,
                    bool(res.defined and not res.vanishes))

        return [(e, lambda dga=dga: run(dga)) for e, dga in inputs]

    def check(self, e, out):
        betti, status, obstructed = out
        formal = e[0] * e[1] * e[2] == 0
        if status != ("Formal" if formal else "NonFormal"):
            return f"verdict {status}"
        if obstructed == formal:
            return f"Massey obstruction {obstructed}"
        if betti != self.betti[e]:
            return f"betti {betti}"
        return None


class SkMinimalModel(Workload):
    """Minimal models of the hyperbolic s_3 and s_4 targets through degree
    5, each checked by is_quasi_iso: the library path behind
    `cdga minimal-model`.  Few, large eliminations (pieces up to 315
    dimensions); exact linear algebra dominates."""

    name = "sk_minimal_model"

    def __init__(self, refs):
        self.ledgers = {int(k): {int(d): n for d, n in v.items()}
                        for k, v in refs["sk_ledgers"].items()}

    def build(self):
        from cdga.constructions import s_k_model
        return [(k, s_k_model(k)[0]) for k in (3, 4)]

    def items(self, inputs):
        from cdga import sullivan

        def run(target):
            model = sullivan.minimal_model(target, 5)
            ok, _ = sullivan.is_quasi_iso(model.morphism, 5)
            return model.generator_ledger(), ok

        return [(k, lambda target=target: run(target)) for k, target in inputs]

    def check(self, k, out):
        ledger, quasi_iso = out
        if ledger != self.ledgers[k]:
            return f"generator ledger {ledger}"
        if quasi_iso is not True:
            return "not a quasi-isomorphism"
        return None


# (id, `cdga corpus` arguments, golden file); s_4..s_8 and the k + l = 0
# Aloff-Wallach model have no golden file
CORPUS = [
    ("q111", ["q111"], "corpus_q111.json"),
    ("q111_e210", ["q111", "--e", "2,1,0"], "corpus_q111_e210.json"),
    ("s_3", ["s-k", "--k", "3"], "corpus_s3.json"),
    ("s_4", ["s-k", "--k", "4"], None),
    ("s_5", ["s-k", "--k", "5"], None),
    ("s_6", ["s-k", "--k", "6"], None),
    ("s_7", ["s-k", "--k", "7"], None),
    ("s_8", ["s-k", "--k", "8"], None),
    ("berger", ["berger"], "corpus_berger.json"),
    ("aloff_wallach", ["aloff-wallach", "--k", "1", "--l", "1"],
     "corpus_aloff_wallach.json"),
    ("aloff_wallach_p0", ["aloff-wallach", "--k", "1", "--l=-1"], None),
    ("x6", ["x6"], "corpus_x6.json"),
    ("q111_torus", ["q111-torus"], "corpus_q111_torus.json"),
    ("berger_torus", ["berger-torus"], "corpus_berger_torus.json"),
    ("w_torus_id", ["w-torus", "--rho", "id"], "corpus_w_torus_id.json"),
    ("w_torus_flip", ["w-torus", "--rho", "flip"], "corpus_w_torus_flip.json"),
]


# Betti numbers (None: not stated) and verdicts that the acceptance criteria
# of tests/test_acceptance.py state for corpus models
EXPECTED_BETTI = {
    "q111": [1, 0, 2, 0, 0, 2, 0, 1],                # criterion 2
    "berger": [1, 0, 0, 0, 0, 0, 0, 1],              # criterion 4
    "aloff_wallach": [1, 0, 1, 0, 0, 1, 0, 1],       # criterion 5
    "aloff_wallach_p0": [1, 0, 1, 0, 0, 1, 0, 1],    # criterion 6
    "q111_torus": [1, 1, 1, 1, 0],                   # criterion 7
    "berger_torus": [1, 1, 0, 0, 0, 0, 0],
    "w_torus_id": [1, 1, 1, 1, 0],
    "w_torus_flip": [None, None, 0, 0, 0],
}
EXPECTED_STATUS = {
    "q111": "NonFormal",                             # criterion 1
    "q111_e210": "Formal",
    "berger": "Formal",                              # criterion 4
    "aloff_wallach": "Formal",                       # criterion 5
    "aloff_wallach_p0": "Formal",                    # criterion 6
    **{f"s_{k}": "NonFormal" for k in range(3, 9)},  # criterion 3
}


def run_cli(argv, stdin_text=""):
    """(exit code, stdout text) of an in-process `cdga` call."""
    from cdga import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            _stdin(io.StringIO(stdin_text)):
        code = cli.main(argv)
    return code, out.getvalue()


@contextlib.contextmanager
def _stdin(stream):
    old, sys.stdin = sys.stdin, stream
    try:
        yield
    finally:
        sys.stdin = old


class CliCorpus(Workload):
    """`cdga cohomology --ring` and `cdga formality` on 16 corpus models,
    plus `cdga massey` on s_3..s_8, with model text on stdin: file parsing
    and validation, cup-table reads and JSON output; the only workload with
    tabular models end to end."""

    name = "cli_corpus"

    def __init__(self, refs):
        self.digests = refs["cli_sha256"]

    def build(self):
        """Corpus envelopes as `cdga corpus` prints them, timestamp removed."""
        models = []
        for model_id, argv, _ in CORPUS:
            code, text = run_cli(["corpus", *argv])
            if code != 0:
                raise RuntimeError(f"cdga corpus {' '.join(argv)}: exit {code}")
            text = normalized(text)
            models.append((model_id, text, json.loads(text)["result"]))
        return models

    def setup_problems(self, inputs):
        """Rendered corpus models that differ from tests/golden."""
        golden = {model_id: name for model_id, _, name in CORPUS if name}
        return [f"corpus {model_id} differs from tests/golden/{golden[model_id]}"
                for model_id, text, _ in inputs
                if model_id in golden
                and text != (GOLDEN / golden[model_id]).read_text()]

    def items(self, inputs):
        out = []
        for model_id, text, result in inputs:
            argvs = {
                "cohomology": ["cohomology", "-", "--max-degree", "8",
                               "--ring"],
                "formality": ["formality", "-", "--dimension",
                              str(result["dimension"]), "--cap", "7"],
            }
            if model_id.startswith("s_"):
                argvs["massey"] = ["massey", "-", "--classes", "a,a,a1",
                                   "--max-degree", "5"]
            for command, argv in argvs.items():
                out.append((f"{command} {model_id}",
                            lambda argv=argv, text=text: run_cli(argv, text)))
        return out

    def check(self, item_id, out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        result = json.loads(text)["result"]
        command, model_id = item_id.split()
        if command == "cohomology" and model_id in EXPECTED_BETTI:
            expected = EXPECTED_BETTI[model_id]
            if any(b is not None and b != got
                   for b, got in zip(expected, result["betti"])):
                return f"betti {result['betti']}"
        if command == "formality" and model_id in EXPECTED_STATUS \
                and result["status"] != EXPECTED_STATUS[model_id]:
            return f"status {result['status']}"
        # criterion 3: <a, a, a1> on s_k is defined, indeterminacy-free and
        # non-vanishing
        if command == "massey" and not (
                result["defined"] and not result["vanishes"]
                and result["indeterminacy_dim"] == 0):
            return "Massey product is not an obstruction"
        if digest(text) != self.digests[item_id]:
            return "output differs from the pinned digest"
        return None


WORKLOADS = {w.name: w for w in (Q111Sweep, SkMinimalModel, CliCorpus)}
