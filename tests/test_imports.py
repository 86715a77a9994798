"""Every name a library module imports is used in that module, and the
command line starts without the network stack.

No linter runs on this package, so an import that a refactor leaves behind
fails here instead.  ``__init__`` imports only to re-export and is skipped.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import epsode

MODULES = sorted(p for p in Path(epsode.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_finds_an_unused_name():
    source = "import os\nfrom math import pi, tau as t\nprint(os.sep, t)\n"
    assert unused_imports(source) == [(2, "pi")]


def test_cli_import_loads_no_network_modules():
    # each of these costs start-up time and no subcommand needs one; they
    # come in through xml.sax.saxutils, for example
    heavy = ("urllib.request", "http.client", "email", "ssl")
    src = str(Path(epsode.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, epsode.cli; "
             f"print(sorted(set({heavy!r}) & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"
