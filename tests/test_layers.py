"""The label-space layer imports nothing from the id layer.

The paper's definitions live in label space: the chordality tests, the
covers of Definition 10, the traversals and the Steiner algorithms as
stated.  They take a ``Graph``/``BipartiteGraph`` only.  The engine keeps
its own store, the CSR ``IndexedGraph`` with the BFS kernels, and calls
its id solvers directly.  This test pins the boundary between the two by
scanning the label-space modules' imports with ``ast``, function-local
imports included: a name imported through a package's re-export counts
under the module that defines it.
"""

import ast
import importlib
import types
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: Label-space modules, as paths below ``src/repro``; a directory means
#: every module in it.
LABEL_SPACE = (
    "chordality",
    "core",
    "graphs/graph.py",
    "graphs/bipartite.py",
    "graphs/traversal.py",
    "graphs/paths.py",
    "graphs/spanning.py",
    "graphs/cycles.py",
    "graphs/cliques.py",
    "steiner/algorithm1.py",
    "steiner/algorithm2.py",
    "steiner/pseudo.py",
    "steiner/problem.py",
)

#: The id layer: the CSR store, the removed backend protocol, the kernels.
ID_LAYER = ("repro.graphs.indexed", "repro.graphs.backend", "repro.kernels")


def label_space_files():
    for entry in LABEL_SPACE:
        path = SRC / entry
        assert path.exists(), entry
        yield from sorted(path.glob("*.py")) if path.is_dir() else [path]


def in_id_layer(module):
    return any(module == layer or module.startswith(layer + ".") for layer in ID_LAYER)


def imports(path):
    """Yield ``(line, module)`` for each module an import of ``path`` reads."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, (path, node.lineno, "relative import")
            modules = {node.module}
            package = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(package, alias.name, None)
                if isinstance(value, types.ModuleType):
                    modules.add(value.__name__)
                elif isinstance(value, (type, types.FunctionType)):
                    modules.add(value.__module__)
        else:
            continue
        for module in sorted(modules):
            yield node.lineno, module


def test_label_space_modules_import_nothing_from_the_id_layer():
    offending = [
        (str(path.relative_to(SRC)), line, module)
        for path in label_space_files()
        for line, module in imports(path)
        if in_id_layer(module)
    ]
    assert offending == []
