"""Guard for the one-code-path rule: every public name has a product caller.

The modules of ``src/detlam`` are parsed with ``ast``. Every name listed in a
module's ``__all__`` and every public method of a class defined there must be
referenced somewhere in ``src/detlam`` outside its own definition, so a
function that only tests call either gets a product use or is deleted.

References are matched by name: ``f`` or ``x.f`` anywhere in the package
counts for every public ``f``, because the receiver's type is not known
statically. A method whose name several classes define (such as ``to_obj``)
is therefore also keyed by class: ``cli.main`` runs each subcommand once at
small arguments under ``sys.setprofile``, and every such method's own code
object must be among the code the CLI executed.
"""

import ast
import contextlib
import importlib
import io
import sys
from collections import defaultdict
from pathlib import Path

from detlam import cli

SRC = Path(__file__).resolve().parents[1] / "src" / "detlam"

# module.qualified name -> why it stays without a product reference
ALLOWED = {
    "charclass.sym_ch": "benchmark tracer target: perfbench wraps charclass.sym_ch by name",
    "exactalg.TruncatedSeries.inverse": "benchmark tracer target: perfbench wraps "
    "TruncatedSeries.inverse by name; the quotient-lab tests use it as their oracle route",
}

# module.Class.method -> why it stays although no CLI run executes it
ALLOWED_UNRUN = {
    "chowmodel.ChowModel.to_obj": "the README names it as the model-file schema, and "
    "perfbench's model-sweep workload round-trips models through it",
}

# one run of each subcommand at small arguments
CLI_RUNS = [
    ["coeffs", "--dim", "1"],
    ["polyid", "--max-k", "3"],
    ["universal", "--dim", "1"],
    ["universal", "--dim", "1", "--combo", "deligne"],
    ["ducrot", "--dim", "1"],
    ["c1lambda", "--model", "P1xP1", "--line", "1,1"],
    ["verify-main", "--model", "P1xP1", "--line", "1,1"],
    ["euler", "--model", "P2", "--line", "1"],
    ["picard", "--preset", "mumford", "--goal", "l2 = 13*l1"],
    ["rewrite", "--chain", "multadd-d1"],
    ["quotient", "--vars", "x:1:odd,y:1:even", "--bound", "8"],
    ["verify-all", "--max-dim", "1"],
]


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _public_names(trees):
    """(module, qualified name) of each __all__ entry and each public method."""
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                out += [(mod, elt.value) for elt in node.value.elts]
            elif isinstance(node, ast.ClassDef):
                out += [
                    (mod, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return out


def _references(trees):
    """name -> {(module, path of enclosing definitions)} for each Name and attribute use."""
    refs = defaultdict(set)

    def walk(mod, node, path):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            path = path + (node.name,)
        if isinstance(node, ast.Name):
            refs[node.id].add((mod, path))
        elif isinstance(node, ast.Attribute):
            refs[node.attr].add((mod, path))
        for child in ast.iter_child_nodes(node):
            walk(mod, child, path)

    for mod, tree in trees.items():
        walk(mod, tree, ())
    return refs


def _unreferenced():
    trees = _trees()
    refs = _references(trees)
    out = []
    for mod, qual in _public_names(trees):
        own = tuple(qual.split("."))
        users = [m for m, path in refs[own[-1]] if not (m == mod and path[: len(own)] == own)]
        if not users:
            out.append(f"{mod}.{qual}")
    return out


def test_every_public_name_has_a_product_reference():
    unused = [name for name in _unreferenced() if name not in ALLOWED]
    assert unused == [], "public names only tests call: give each a product use or delete it"


def test_allowlist_names_exist_and_are_still_unreferenced():
    assert sorted(ALLOWED) == sorted(n for n in _unreferenced() if n in ALLOWED)
    assert all(ALLOWED.values())


def _shared_method_names(trees):
    """module.Class.method for each public method whose name several classes define."""
    classes = defaultdict(list)
    for mod, qual in _public_names(trees):
        if "." in qual:
            classes[qual.split(".")[1]].append(f"{mod}.{qual}")
    return sorted(q for quals in classes.values() if len(quals) > 1 for q in quals)


def _code_of(dotted):
    mod, cls, name = dotted.split(".")
    attr = vars(getattr(importlib.import_module(f"detlam.{mod}"), cls))[name]
    fn = getattr(attr, "fget", None) or getattr(attr, "__func__", attr)
    return fn.__code__


def _code_run_by_cli():
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sink = io.StringIO()
    for argv in CLI_RUNS:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            sys.setprofile(record)
            try:
                code = cli.main(argv)
            finally:
                sys.setprofile(None)
        assert code == 0, argv
    return seen


def _unrun_shared_methods():
    seen = _code_run_by_cli()
    return [q for q in _shared_method_names(_trees()) if _code_of(q) not in seen]


def test_every_shared_method_name_runs_in_its_own_class():
    unrun = _unrun_shared_methods()
    assert [q for q in unrun if q not in ALLOWED_UNRUN] == [], (
        "methods that share a name with another class's method but never run "
        "from the CLI: give each a product use or delete it"
    )
    assert sorted(ALLOWED_UNRUN) == sorted(q for q in unrun if q in ALLOWED_UNRUN)
    assert all(ALLOWED_UNRUN.values())
