"""Imports: every name a package module, test or demo imports is used, every
exported name has a caller, and start-up loads no more than it needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spdecontrol

PACKAGE = Path(spdecontrol.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scanner_flags_unused_names():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == \
        ["os (line 1)", "tau (line 2)"]


SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


@pytest.mark.parametrize("path", MODULES + SCRIPTS,
                         ids=lambda p: p.name if p in MODULES else f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_exports(init_source: str, user_sources: list[str]) -> list[str]:
    """Names ``init_source`` imports from its modules that no user source refers to."""
    exported = [alias.asname or alias.name for node in ast.parse(init_source).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    used = set()
    for source in user_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [name for name in exported if name not in used]


def test_export_scanner_flags_unreferenced_names():
    init = "from .a import f, g, h\nfrom .b import K\n"
    users = ["def f():\n    return g()\n", "import pkg\nprint(pkg.K)\n"]
    assert unused_exports(init, users) == ["f", "h"]


def test_every_export_has_a_caller():
    # a use in a package module (its own included, as ``_CATALOG`` uses
    # ``bistable_drift``), a demo or the acceptance suite keeps a name exported
    users = [*MODULES, *sorted((ROOT / "demos").glob("*.py")),
             ROOT / "tests" / "test_acceptance.py"]
    assert unused_exports((PACKAGE / "__init__.py").read_text(),
                          [p.read_text() for p in users]) == []


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.fft serves only transforms above 256 modes; no package module imports scipy.optimize
    src = str(Path(spdecontrol.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, spdecontrol, spdecontrol.cli\n"
             "print(sorted(m for m in ('scipy.fft', 'scipy.optimize') if m in sys.modules))")
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert run.stdout.strip() == "[]"
