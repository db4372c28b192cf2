"""Docstring coverage of the public API surface, enforced via ``ast``.

CI runs ruff's pydocstyle rules (``D10x``, see ``pyproject.toml``) over
``repro.api``, ``repro.dynamic``, ``repro.faults``, ``repro.kernels``,
``repro.load``, ``repro.metrics``, ``repro.engine.batch``,
``repro.runtime`` and ``repro.server``; this test enforces the
same contract locally without
needing ruff installed: every public module, class, function, method and
property in those packages must carry a non-empty docstring.
``_private`` names and dunders are exempt (matching the relaxed rule
selection -- D105/D107 are not enabled).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The enforced surface: every .py file in these packages / these modules.
TARGETS = sorted(
    list((SRC / "api").glob("*.py"))
    + list((SRC / "dynamic").glob("*.py"))
    + list((SRC / "faults").glob("*.py"))
    + list((SRC / "kernels").glob("*.py"))
    + list((SRC / "load").glob("*.py"))
    + list((SRC / "metrics").glob("*.py"))
    + list((SRC / "runtime").glob("*.py"))
    + list((SRC / "server").glob("*.py"))
    + [SRC / "engine" / "batch.py"]
)


def public_definitions(tree: ast.Module):
    """Yield ``(kind, qualified name, node)`` for every public definition."""
    yield "module", "<module>", tree
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield "class", node.name, node
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if child.name.startswith("_"):
                        continue
                    yield "method", f"{node.name}.{child.name}", child
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield "function", node.name, node


@pytest.mark.parametrize("path", TARGETS, ids=lambda p: str(p.relative_to(SRC)))
def test_public_surface_is_documented(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missing = [
        f"{kind} {name}"
        for kind, name, node in public_definitions(tree)
        if not (ast.get_docstring(node) or "").strip()
    ]
    assert not missing, (
        f"{path.relative_to(SRC.parent)}: missing docstrings on: "
        + ", ".join(missing)
    )


def test_target_list_is_nonempty():
    # api (7) + dynamic (4) + faults (2) + kernels (4) + load (8)
    # + metrics (3) + runtime (4) + server (7) + engine/batch = 40
    assert len(TARGETS) >= 40
