"""Package imports: every imported name is used, and start-up loads no more than it needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spdecontrol

MODULES = sorted(p for p in Path(spdecontrol.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.fft serves only transforms above 256 modes, scipy.optimize only the Yosida helpers
    src = str(Path(spdecontrol.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, spdecontrol, spdecontrol.cli\n"
             "print(sorted(m for m in ('scipy.fft', 'scipy.optimize') if m in sys.modules))")
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert run.stdout.strip() == "[]"
