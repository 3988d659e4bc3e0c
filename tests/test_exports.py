import ast
from pathlib import Path

import dcsf


def test_every_exported_name_resolves():
    missing = [name for name in dcsf.__all__ if not hasattr(dcsf, name)]
    assert missing == []


def test_every_library_definition_is_used_by_the_library():
    """Every function, class and non-dunder method in src/dcsf is referenced
    by name in src/dcsf outside its own definition and `__init__.py`; code
    that only tests call belongs in tests/oracles.py."""
    trees = [ast.parse(path.read_text()) for path in sorted(Path(dcsf.__file__).parent.glob("*.py"))
             if path.name != "__init__.py"]
    refs = [(id(node), node.id if isinstance(node, ast.Name) else node.attr)
            for tree in trees for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not (
                node.name.startswith("__") and node.name.endswith("__")):
            own = {id(inner) for inner in ast.walk(node)}
            if not any(name == node.name and ref not in own for ref, name in refs):
                unused.append(node.name)
    assert not unused, f"defined in src/dcsf but not used there: {unused}"
