"""Guard for the one-code-path rule: every public name has a product caller.

The modules of ``src/detlam`` are parsed with ``ast``. Every name listed in a
module's ``__all__`` and every public method of a class defined there must be
referenced somewhere in ``src/detlam`` outside its own definition, so a
function that only tests call either gets a product use or is deleted.

References are matched by name: ``f`` or ``x.f`` anywhere in the package
counts for every public ``f``, because the receiver's type is not known
statically. A method whose name a used method of another class shares (such
as ``to_obj``) is therefore not caught.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "detlam"

# module.qualified name -> why it stays without a product reference
ALLOWED = {
    "charclass.sym_ch": "benchmark tracer target: perfbench wraps charclass.sym_ch by name",
    "kexpr.normalize": "acceptance oracle: tests/test_acceptance.py compares normal forms with it",
    "chowmodel.ChowModel.fiber_pushforward": "documented capability; product use not decided yet",
    "chowmodel.ChowModel.base_integrate": "documented capability; product use not decided yet",
}


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
