import ast
from pathlib import Path

import dcsf


def test_every_exported_name_resolves():
    missing = [name for name in dcsf.__all__ if not hasattr(dcsf, name)]
    assert missing == []


def test_every_library_definition_is_used_by_the_library():
    """Every function, class, non-dunder method and module-level constant in
    src/dcsf is read by name in src/dcsf outside its own definition and
    `__init__.py`; code that only tests call belongs in tests/oracles.py."""
    trees = [ast.parse(path.read_text()) for path in sorted(Path(dcsf.__file__).parent.glob("*.py"))
             if path.name != "__init__.py"]
    refs = [(id(node), node.id if isinstance(node, ast.Name) else node.attr)
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))]
    definitions = [(node.name, node) for tree in trees for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    definitions += [(target.id, node) for tree in trees for node in tree.body
                    if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                    if isinstance(target, ast.Name)]
    unused = []
    for name, node in definitions:
        if not (name.startswith("__") and name.endswith("__")):
            own = {id(inner) for inner in ast.walk(node)}
            if not any(ref_name == name and ref not in own for ref, ref_name in refs):
                unused.append(name)
    assert not unused, f"defined in src/dcsf but not used there: {unused}"
