"""No unused imports in ``src/repro``, enforced via ``ast``.

CI's ruff job flags an unused import (pyflakes' F401); this test enforces
the same rule without ruff installed, so a change that deletes code and
leaves an import behind fails tier-1 too.  A name an import binds must be

* read somewhere in its scope: the module for a top-level import, the
  enclosing function for a function-local one -- names read only inside
  a string annotation (``"OrderedDict[int, List[int]]"``) count, as they
  do for ruff;
* listed in the module's ``__all__`` (a re-export); or
* marked ``# noqa: F401`` on the import's first line or on the name's own
  line (a binding kept for code that patches it by name).

``from __future__`` imports and star imports are exempt.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

FILES = sorted(SRC.rglob("*.py"))

NOQA = re.compile(r"#\s*noqa(?::[\s\w,]*\bF401\b|(?!:))")

SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def annotation_names(annotation):
    """Yield every name an annotation reads, inside string annotations too."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            yield from annotation_names(parsed.body)


def annotations(scope):
    """Yield the annotation expressions below ``scope``."""
    for node in ast.walk(scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (
                *args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg
            ):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def names_read(scope):
    """Return every name read below ``scope``, string annotations included."""
    read = {
        node.id
        for node in ast.walk(scope)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in annotations(scope):
        read.update(annotation_names(annotation))
    return read


def exported(tree):
    """Return the names a module's ``__all__`` lists."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names.update(
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            )
    return names


def imports_by_scope(tree):
    """Yield ``(scope, import node)``: the nearest enclosing function, else the module."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield scope, child
            yield from visit(child, child if isinstance(child, SCOPES) else scope)

    yield from visit(tree, tree)


def unused_imports(source):
    """Return ``(line, name)`` for each import binding ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    listed = exported(tree)
    reads = {}
    unused = []
    for scope, node in imports_by_scope(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            line = getattr(alias, "lineno", node.lineno)
            if NOQA.search(lines[node.lineno - 1]) or NOQA.search(lines[line - 1]):
                continue
            if scope is tree and bound in listed:
                continue
            if id(scope) not in reads:
                reads[id(scope)] = names_read(scope)
            if bound not in reads[id(scope)]:
                unused.append((line, bound))
    return unused


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_used(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.relative_to(SRC.parent)}: unused imports: " + ", ".join(
        f"{name} (line {line})" for line, name in unused
    )


def test_the_check_sees_what_ruff_sees():
    source = '''
from __future__ import annotations
import os
import os.path as osp
import json  # noqa: F401
from typing import Dict, List, Optional
from collections import (  # noqa: F401
    OrderedDict,
)
from itertools import chain, count
from repro.graphs import Graph

__all__ = ["Graph"]

table: "Dict[str, List[int]]" = {}


def f(x: "Optional[int]"):
    import math
    import re
    return re.compile(str(x)), chain


def g():
    return math
'''
    assert unused_imports(source) == [(3, "os"), (4, "osp"), (10, "count"), (19, "math")]


def test_the_check_covers_the_package():
    assert SRC / "__init__.py" in FILES
    assert len(FILES) >= 90
