"""The benchmark tracer's entry points still exist under their names.

perfbench/tracing.py wraps cdga callables named "module:qualname" and reads
some of their arguments by position.  A refactor that moves or renames one
breaks a traced benchmark run without failing any other test, so this
module checks those names and positions.  It reads perfbench/ and does not
import it.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# callable -> leading parameters that the tracer's size hooks read
HOOK_PARAMETERS = {
    "cdga.exactla:rref_rows": ["rows", "ncols"],
    "cdga.exactla:quotient_basis": ["ambient"],
    "cdga.cohomology:CohomologySummary.__init__": ["self", "obj",
                                                   "max_degree"],
    "cdga.sullivan:minimal_model": ["target"],
}


def traced_layers():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {TRACING}")


def resolve(target):
    """The callable a "module:qualname" names; a method from its own class."""
    mod_name, qualname = target.split(":")
    owner = importlib.import_module(mod_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        return vars(getattr(owner, cls_name)).get(attr)
    return getattr(owner, qualname, None)


def test_every_layer_target_resolves():
    layers = traced_layers()
    assert layers
    missing = [f"{layer} -> {target}" for layer, target in layers.items()
               if not callable(resolve(target))]
    assert not missing


def test_hooked_parameters_keep_their_positions():
    assert set(HOOK_PARAMETERS) <= set(traced_layers().values())
    for target, names in HOOK_PARAMETERS.items():
        params = list(inspect.signature(resolve(target)).parameters)
        assert params[:len(names)] == names, target
