"""The package holds no twins that only the tests call: every function,
method and class defined in `src/dbemem` is named somewhere in it besides
its own definition, but for the names allowed below."""

import ast
from pathlib import Path

import dbemem

SRC = Path(dbemem.__file__).parent

# module.qualified name -> why nothing in the package calls it
ALLOWED = {
    "reference.ReferenceEngine": "the per-cycle reference the tests hold "
                                 "the engine to",
    "shell.parse_trace": "the benchmark's reader of the CSV trace",
}


def definitions_and_names():
    """Every function, method and class defined in the package as (module,
    qualified name, name), and every name the package's code refers to: as
    a name, an attribute or an import."""
    defs, names = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())

        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    inner = [*scope, child.name]
                    defs.append((path.stem, ".".join(inner), child.name))
                    walk(child, inner)
                else:
                    walk(child, scope)

        walk(tree, [])
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return defs, names


def test_every_definition_is_named_in_the_package():
    """A dunder method is called by Python itself."""
    defs, names = definitions_and_names()
    unnamed = {f"{module}.{qual}" for module, qual, name in defs
               if name not in names
               and not (name.startswith("__") and name.endswith("__"))}
    assert unnamed == set(ALLOWED)
