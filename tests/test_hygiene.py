"""Source hygiene: every imported name is used.

`src/retforge/__init__.py` is skipped: it imports names to re-export them
through `__all__`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted(
    p for p in (ROOT / "src" / "retforge").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree: ast.AST) -> dict[str, int]:
    """Each name an import binds, with the line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_checked_files_found():
    assert any(p.parent.name == "retforge" for p in CHECKED)
    assert Path(__file__).resolve() in CHECKED


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = sorted(
        (line, name) for name, line in imported_names(tree).items() if name not in used
    )
    assert unused == [], f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused
    )


def test_scan_catches_an_unused_import():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "import os.path\n"
        "import numpy as np\n"
        "@dataclass\n"
        "class A:\n"
        "    x: np.ndarray\n"
    )
    used = used_names(tree)
    assert sorted(n for n in imported_names(tree) if n not in used) == ["field", "os"]
