"""Per-layer spans and counts, recorded from outside the program.

A Tracer replaces the public entry points of each cdga module with wrappers
that record one span per call: its layer, its duration and its parent span.
A layer's self time is its duration minus the time covered by its child
spans.  Spans are aggregated in memory as per-layer totals and per
(parent, child) edges; nothing inside src/ changes.

A function is wrapped at every module attribute that binds it (compute-style
imports by name included); a method is wrapped on its class, which every
binding shares.  Size hooks run with the clock paused, so their cost shows
in no span.
"""

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# layer name -> "module:qualname" of the callable it wraps
LAYERS = {
    "core.rref_int": "cdga._core:rref_int",
    "exactla.rref_rows": "cdga.exactla:rref_rows",
    "exactla.subspace": "cdga.exactla:Subspace.__init__",
    "exactla.quotient_basis": "cdga.exactla:quotient_basis",
    "exactla.kernel": "cdga.exactla:kernel",
    "exactla.image": "cdga.exactla:image",
    "exactla.solver_build": "cdga.exactla:LinearSolver.__init__",
    "exactla.solver_solve": "cdga.exactla:LinearSolver.solve",
    "cohomology.compute": "cdga.cohomology:CohomologySummary.__init__",
    "cohomology.d_matrix": "cdga.cohomology:CohomologySummary.d_matrix",
    "cohomology.class_coords": "cdga.cohomology:CohomologySummary.class_coords",
    "cohomology.is_exact": "cdga.cohomology:CohomologySummary.is_exact",
    "cohomology.is_exact_standalone": "cdga.cohomology:is_exact",
    "cohomology.cup_table": "cdga.cohomology:CohomologySummary._compute_cup",
    "gca.mul": "cdga.gca:Element.__mul__",
    "dga.d": "cdga.dga:DGA.d",
    "dga.validate": "cdga.dga:DGA.validate",
    "dga.tabular_validate": "cdga.dga:TabularDGA.validate",
    "dga.tabular_d": "cdga.dga:TabularDGA.d",
    "dga.tabular_mul": "cdga.dga:TabElement.__mul__",
    "massey.triple": "cdga.massey:triple",
    "massey.try_triple": "cdga.massey:try_triple",
    "sullivan.massey_search": "cdga.sullivan:massey_search",
    "sullivan.minimal_model": "cdga.sullivan:minimal_model",
    "sullivan.s_formality_check": "cdga.sullivan:s_formality_check",
    "sullivan.is_quasi_iso": "cdga.sullivan:is_quasi_iso",
    "modelfile.loads": "cdga.modelfile:loads",
    "expr.parse_expression": "cdga.expr:parse_expression",
    "cli.main": "cdga.cli:main",
    "cli.emit": "cdga.cli:_emit",
}

# minimal-model stages whose summary time is reported; a stage-k summary is
# compute(model, k + 1), and "target" is the summary of the target itself
STAGES = ("2", "3", "4", "5", "target")

# (metric, unit, better); every traced run reports all of them
SIZE_METRICS = (
    ("exactla.rref_rows.entries", "count", "lower"),
    ("exactla.rref_rows.max_rows", "count", "lower"),
    ("exactla.rref_rows.max_cols", "count", "lower"),
    ("exactla.rref_rows.nonzero_frac", "ratio", "lower"),
    ("exactla.quotient_basis.kept_frac", "ratio", "higher"),
    ("cohomology.compute.per_item", "count/item", "lower"),
    ("massey.defined_frac", "ratio", "higher"),
)


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for layer in LAYERS:
        specs.append((f"{layer}.calls", "count", "lower"))
        specs.append((f"{layer}.self_s", "s", "lower"))
    specs.extend(SIZE_METRICS)
    specs.extend((f"sullivan.stage.{k}.compute_s", "s", "lower")
                 for k in STAGES)
    specs.append(("trace.overhead_s", "s", "lower"))
    return specs


def _arg(args, kw, pos, name):
    return args[pos] if len(args) > pos else kw.get(name)


class Tracer:
    """Wraps the LAYERS entry points while installed; aggregates spans."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.edges = defaultdict(lambda: [0, 0.0])   # (parent, child)
        self.sizes = defaultdict(int)                # exact counters
        self.stage_s = defaultdict(float)
        self.paused_s = 0.0
        self._stack = []
        self._undo = []
        self._hooks = {
            "exactla.rref_rows": self._rref_rows_sizes,
            "exactla.quotient_basis": self._quotient_sizes,
            "massey.triple": self._triple_outcome,
            "cohomology.compute": self._stage_time,
        }

    def clock(self):
        """perf_counter minus the time spent in size hooks."""
        return time.perf_counter() - self.paused_s

    # -- installation ------------------------------------------------------

    def install(self):
        for layer, target in LAYERS.items():
            mod_name, qualname = target.split(":")
            mod = importlib.import_module(mod_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[attr]
                bindings = [(owner, attr)]
            else:
                original = getattr(mod, qualname)
                bindings = [(m, name)
                            for m in list(sys.modules.values())
                            if getattr(m, "__name__", "").startswith("cdga")
                            for name, value in list(vars(m).items())
                            if value is original]
            wrapper = self._wrap(layer, original)
            for owner, attr in bindings:
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, layer, fn):
        stack = self._stack
        hook = self._hooks.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            frame = [layer, self.clock(), 0.0, args, kw]
            stack.append(frame)
            out = exc = None
            try:
                out = fn(*args, **kw)
                return out
            except Exception as e:
                exc = e
                raise
            finally:
                stack.pop()
                dur = self.clock() - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                self.calls[layer] += 1
                self.self_s[layer] += dur - frame[2]
                edge = self.edges[(parent[0] if parent else "item", layer)]
                edge[0] += 1
                edge[1] += dur
                if hook is not None:
                    t0 = time.perf_counter()
                    hook(args, kw, out, exc, dur, parent)
                    self.paused_s += time.perf_counter() - t0
        return wrapper

    # -- size hooks --------------------------------------------------------

    def _rref_rows_sizes(self, args, kw, out, exc, dur, parent):
        rows, ncols = _arg(args, kw, 0, "rows"), _arg(args, kw, 1, "ncols")
        s = self.sizes
        s["rref_rows.entries"] += len(rows) * ncols
        s["rref_rows.nonzero"] += sum(1 for r in rows for x in r if x)
        s["rref_rows.max_rows"] = max(s["rref_rows.max_rows"], len(rows))
        s["rref_rows.max_cols"] = max(s["rref_rows.max_cols"], ncols)

    def _quotient_sizes(self, args, kw, out, exc, dur, parent):
        self.sizes["quotient_basis.candidates"] += len(
            _arg(args, kw, 0, "ambient").basis)
        if out is not None:
            self.sizes["quotient_basis.kept"] += len(out)

    def _triple_outcome(self, args, kw, out, exc, dur, parent):
        self.sizes["triple.attempted"] += 1
        if exc is None and out.defined:
            self.sizes["triple.defined"] += 1

    def _stage_time(self, args, kw, out, exc, dur, parent):
        if parent is None or parent[0] != "sullivan.minimal_model":
            return
        target = _arg(parent[3], parent[4], 0, "target")
        if _arg(args, kw, 1, "obj") is target:
            key = "target"
        else:
            key = str(_arg(args, kw, 2, "max_degree") - 1)
        self.stage_s[key] += dur

    # -- report ------------------------------------------------------------

    def exact_counts(self):
        """Every count the trace makes; these must repeat between runs."""
        counts = {f"{layer}.calls": self.calls[layer] for layer in LAYERS}
        counts.update(self.sizes)
        counts.update({f"edge:{p}>{c}": n for (p, c), (n, _) in
                       self.edges.items()})
        return counts

    def report(self, items_per_pass):
        """Per-layer metric values (without trace.overhead_s)."""
        s = Counter(self.sizes)   # reads absent counters as 0

        def frac(num, den):
            return s[num] / s[den] if s[den] else 0.0

        values = {}
        for layer in LAYERS:
            values[f"{layer}.calls"] = self.calls[layer]
            values[f"{layer}.self_s"] = self.self_s[layer]
        values.update({
            "exactla.rref_rows.entries": s["rref_rows.entries"],
            "exactla.rref_rows.max_rows": s["rref_rows.max_rows"],
            "exactla.rref_rows.max_cols": s["rref_rows.max_cols"],
            "exactla.rref_rows.nonzero_frac": frac("rref_rows.nonzero",
                                                   "rref_rows.entries"),
            "exactla.quotient_basis.kept_frac": frac(
                "quotient_basis.kept", "quotient_basis.candidates"),
            "cohomology.compute.per_item":
                self.calls["cohomology.compute"] / items_per_pass,
            "massey.defined_frac": frac("triple.defined", "triple.attempted"),
        })
        for k in STAGES:
            values[f"sullivan.stage.{k}.compute_s"] = self.stage_s[k]
        return values

    def edge_table(self):
        """[parent, child, calls, total seconds], heaviest first."""
        return sorted(([p, c, n, t] for (p, c), (n, t) in self.edges.items()),
                      key=lambda e: -e[3])
