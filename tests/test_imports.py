"""Every name a library module imports is used in that module, the command
line starts without the network stack, and a command loads only the
modules it runs.

No linter runs on this package, so an import that a refactor leaves behind
fails here instead.  ``__init__`` resolves its names lazily and is skipped.
"""

import ast
import importlib
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


def loaded_after(probe, cwd=None):
    """The modules that ``probe`` leaves loaded in a fresh interpreter."""
    src = str(Path(epsode.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe += "\nimport sys; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60,
                         cwd=cwd).stdout
    return set(out.splitlines()[-1].split())


def test_cli_import_loads_no_network_modules():
    # each of these costs start-up time and no subcommand needs one; they
    # come in through xml.sax.saxutils, for example
    heavy = {"urllib.request", "http.client", "email", "ssl"}
    assert heavy & loaded_after("import epsode.cli") == set()


AVERAGING_E2 = """[system]
builtin = e2-resonance

[average]
radius = 4.0

[verify]
xi0 = (1, 0.5)
d = 1
eps = 0.02
"""


def test_system_build_loads_only_what_the_cli_imports(tmp_path):
    (tmp_path / "e2.cfg").write_text(AVERAGING_E2)
    loaded = loaded_after("import epsode.cli as cli\n"
                          "cli.build_system(cli.parse_config('e2.cfg'))",
                          cwd=tmp_path)
    assert {m for m in loaded if m.startswith("epsode")} == {
        "epsode", "epsode.cli", "epsode.expressions", "epsode.solver",
        "epsode.systems"}
    # check_periodicity draws its points from the stdlib sampler
    assert "numpy.random" not in loaded


@pytest.mark.parametrize("command", ["average", "verify-cauchy"])
def test_averaging_commands_load_no_unused_module(tmp_path, command):
    (tmp_path / "e2.cfg").write_text(AVERAGING_E2)
    loaded = loaded_after(
        "from epsode.cli import run\n"
        f"assert run([{command!r}, '--config', 'e2.cfg', '--out', 'o.csv'])"
        " == 0", cwd=tmp_path)
    assert "epsode.averaging" in loaded
    unused = {f"epsode.{m}" for m in
              ("conditions", "topology", "periodic", "svgplot")}
    assert unused & loaded == set()


def test_every_public_name_resolves():
    names = [name for name in epsode.__all__ if name != "__version__"]
    assert set(names) == set(epsode._MODULE_OF)
    for name in names:
        value = getattr(epsode, name)
        module = importlib.import_module(f"epsode.{epsode._MODULE_OF[name]}")
        assert value is getattr(module, name)
    namespace = {}
    exec("from epsode import *", namespace)
    assert set(epsode.__all__) <= set(namespace)
    assert epsode.NoConvergenceError is epsode.averaging.NoConvergenceError


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        epsode.no_such_name
    assert not hasattr(epsode, "check_A4")
