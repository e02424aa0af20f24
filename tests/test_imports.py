"""Each module of the package imports on its own, in a fresh interpreter, so
an import-order break shows even though the package imports no module
itself; and the CLI's ``--version`` is the version pyproject.toml states."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dwspectral import __version__

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = sorted(p.stem for p in (SRC / "dwspectral").glob("*.py") if p.stem != "__init__")


def python(*args) -> subprocess.CompletedProcess:
    """``python args`` in a fresh interpreter that finds the package in src."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    done = python("-c", f"import dwspectral.{module}")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_cli_version_is_the_project_version():
    project = re.search(
        r'^\[project\]$.*?^version = "([^"]+)"$', (ROOT / "pyproject.toml").read_text(),
        re.MULTILINE | re.DOTALL,
    )
    done = python("-m", "dwspectral.cli", "--version")
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{__version__}\n"
    assert project.group(1) == __version__
