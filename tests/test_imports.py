"""Every package module uses every name it imports.

The check reads the source with ``ast``: a name bound by an import must
appear as a name somewhere else in the module.  ``__init__.py`` is exempt,
since its imports are the package's re-exports, and so is ``__future__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cavnet"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """``"name (line N)"`` for each imported name the module never uses."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from json import dumps, loads as parse\n"
        "print(parse, osp)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "dumps (line 4)"]


def test_modules_were_found():
    assert {"cli.py", "qstate.py", "schemes.py", "verify.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
