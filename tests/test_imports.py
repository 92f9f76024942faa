"""Every module, test and demo uses every name it imports; every name the package defines is read.

The checks read the source with ``ast``.  A name bound by an import must
appear as a name somewhere else in its module or script; ``__init__.py`` is
exempt, since its imports are the package's re-exports, and so is
``__future__``.
A module-level ``_name`` (a function, class or assignment) must be read as
a name or an attribute somewhere in the package, so a helper left behind
by removed code fails.  A module-level public name must be read as a name,
an attribute or by ``from ... import`` in the package, the tests, the
demos or the benchmark; the re-exports of ``__init__.py`` do not count.
Importing the command line front end loads no third-party package but
numpy, since every command pays for its imports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cavnet"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted(
    f"{folder}/{p.name}" for folder in ("tests", "demos") for p in (ROOT / folder).glob("*.py")
)


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


def test_scripts_were_found():
    assert {"tests/support.py", "tests/test_imports.py", "demos/02_ghz_chain.py"} <= set(SCRIPTS)


@pytest.mark.parametrize("script", SCRIPTS)
def test_test_or_demo_has_no_unused_imports(script):
    assert unused_imports((ROOT / script).read_text(encoding="utf-8")) == []


def definitions(tree: ast.Module) -> dict[str, int]:
    """Line of each module-level name ``tree`` defines, dunder names left out."""
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def read_names(tree: ast.Module) -> set[str]:
    """Every name ``tree`` reads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        or isinstance(node, ast.Attribute)
    }


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``"module: name (line N)"`` for each private definition no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return [
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in definitions(tree).items()
        if name.startswith("_") and name not in read
    ]


def test_private_name_checker_flags_only_unread_names():
    sources = {
        "a.py": (
            "_LIMIT = 3\n_left: int = 0\ndef _helper(): return _LIMIT\n"
            "class _Gone: pass\n__all__ = []\n"
        ),
        "b.py": "from . import a\na._helper()\n_left = 1\n",
    }
    assert unread_private_names(sources) == [
        "a.py: _left (line 2)",
        "a.py: _Gone (line 4)",
        "b.py: _left (line 3)",
    ]


def test_every_private_name_is_read_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def unread_public_names(defining: dict[str, str], reading: dict[str, str]) -> list[str]:
    """``"module: name (line N)"`` for each public definition no source in ``reading`` reads.

    A source reads a name bare, as an attribute, or by ``from ... import``.
    """
    read: set[str] = set()
    for source in reading.values():
        tree = ast.parse(source)
        read |= read_names(tree)
        read |= {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
    return [
        f"{module}: {name} (line {line})"
        for module, source in defining.items()
        for name, line in definitions(ast.parse(source)).items()
        if not name.startswith("_") and name not in read
    ]


def test_public_name_checker_flags_only_unread_names():
    defining = {"a.py": "LIMIT = 3\ndef helper(): pass\nclass Shape: pass\nGone = 1\n_hidden = 0\n"}
    reading = {
        "a.py": defining["a.py"],
        "b.py": "from a import helper\nimport a\nprint(a.Shape)\nLIMIT = 4\n",
    }
    assert unread_public_names(defining, reading) == ["a.py: LIMIT (line 1)", "a.py: Gone (line 4)"]


def test_every_public_name_is_read_outside_the_re_exports():
    defining = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    del defining["__init__.py"]
    reading = {
        str(p): p.read_text(encoding="utf-8")
        for folder in ("src", "tests", "demos", "perfbench")
        for p in sorted((ROOT / folder).rglob("*.py"))
        if p != PACKAGE / "__init__.py"
    }
    assert len(defining) >= 8 and len(reading) > len(defining)
    assert unread_public_names(defining, reading) == []


def loaded_modules(*imports: str) -> set[str]:
    """The modules a fresh interpreter holds after importing ``imports``."""
    code = f"import sys{''.join(', ' + name for name in imports)}; print(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_the_cli_imports_no_third_party_package_but_numpy():
    # against a bare interpreter, since site loads modules of its own
    added = loaded_modules("cavnet.cli") - loaded_modules()
    packages = {name.partition(".")[0] for name in added} - set(sys.stdlib_module_names)
    assert packages == {"cavnet", "numpy"}
