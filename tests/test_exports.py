import ast
import importlib
import pkgutil
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


def test_every_library_parameter_is_read():
    """Every parameter of every function and lambda in src/dcsf, bar `self`,
    `cls` and names starting with `_`, is read in its body."""
    unread = []
    for path in sorted(Path(dcsf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
                body = node.body if isinstance(node.body, list) else [node.body]
                read = {inner.id for stmt in body for inner in ast.walk(stmt)
                        if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load)}
                unread += [f"{path.name}:{node.lineno} {a.arg}" for a in params
                           if a.arg not in ("self", "cls") and not a.arg.startswith("_") and a.arg not in read]
    assert not unread, f"parameters never read: {unread}"


def test_no_library_module_calls_scalar_exp_or_log10():
    """The logistic and the dB conversion live only in the array
    `semantic.semantic_similarity`: no module in src/dcsf reaches `exp` or
    `log10` through `math`, so a scalar semantic path cannot come back."""
    calls = []
    for path in sorted(Path(dcsf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                calls += [f"{path.name}:{node.lineno} from math import {alias.name}" for alias in node.names
                          if alias.name in ("exp", "log10")]
            elif (isinstance(node, ast.Attribute) and node.attr in ("exp", "log10")
                  and isinstance(node.value, ast.Name) and node.value.id == "math"):
                calls.append(f"{path.name}:{node.lineno} math.{node.attr}")
    assert not calls, f"scalar exp or log10 in src/dcsf: {calls}"


def test_no_library_module_holds_a_mutable_container():
    """No module in src/dcsf holds a module-level dict, list, set or
    bytearray, dunders aside: a cache there (say, keyed by array id) would
    keep every scenario it saw alive and carry state from one solve to the
    next in one process."""
    modules = [dcsf] + [importlib.import_module(f"dcsf.{info.name}") for info in pkgutil.iter_modules(dcsf.__path__)]
    held = [f"{module.__name__}.{name}" for module in modules for name, value in vars(module).items()
            if isinstance(value, (dict, list, set, bytearray)) and not (name.startswith("__") and name.endswith("__"))]
    assert not held, f"module-level mutable containers in src/dcsf: {held}"
