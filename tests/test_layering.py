"""The package's import structure, read from its source with ast."""

import ast
import glob
import os

import mcfproto


def package_imports(path):
    """{(module, function)} for each import of an mcfproto module in the
    source file `path`: the module's name, and the name of the function the
    import statement is in, or None at module level."""
    with open(path) as f:
        tree = ast.parse(f.read())
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):  # "from . import a" is mcfproto.a
                base = ".".join(filter(None, ["mcfproto" * bool(child.level),
                                              child.module]))
                names = [f"{base}.{alias.name}" for alias in child.names]
            else:
                names = []
            found.update((parts[1], function) for parts in
                         (name.split(".") for name in names)
                         if parts[0] == "mcfproto" and len(parts) > 1)
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(tree, None)
    return found


def test_module_layering():
    imports = {os.path.basename(path)[:-3]: package_imports(path) for path in
               glob.glob(os.path.join(os.path.dirname(mcfproto.__file__), "*.py"))}
    modules = {name: {module for module, _ in found} for name, found in imports.items()}
    assert {"store", "config", "synthgym", "head", "theoremlab"} <= set(modules)
    assert not modules["store"]
    assert modules["config"] <= {"store"}
    assert "head" not in modules["synthgym"]
    assert modules["theoremlab"] == {"linalg"}
    # training passes plain arrays and gradient dicts; the tape is not on its path
    assert "autodiff" not in modules["trainer"]
    # the one function-level import breaks the synthgym -> diagnostics cycle
    # until world_vs_canonical_stats moves into diagnostics
    assert {(name, function) for name, found in imports.items()
            for _, function in found if function} == {
        ("synthgym", "world_vs_canonical_stats")}
