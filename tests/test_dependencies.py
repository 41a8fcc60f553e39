"""The package imports only what it declares.

``pyproject.toml`` lists no runtime dependency, so every ``import``
under ``src/repro`` — at module level or inside a function — must name
the standard library, ``repro`` itself, or a declared dependency.  A
module that pulls in an undeclared package works on a developer's
machine and fails on a clean install.
"""

from __future__ import annotations

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"


def declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower().replace("-", "_")
        for requirement in project.get("dependencies", [])
    }


def imported_packages(path: pathlib.Path) -> set[tuple[str, int]]:
    """(top-level package, line) of every absolute import in ``path``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found.update((name.split(".")[0], node.lineno) for name in names)
    return found


def test_every_import_is_declared():
    allowed = set(sys.stdlib_module_names) | {"repro"} | declared_dependencies()
    undeclared = [
        f"{path.relative_to(ROOT)}:{line}: {package}"
        for path in sorted(SOURCE.rglob("*.py"))
        for package, line in sorted(imported_packages(path))
        if package not in allowed
    ]
    assert undeclared == []


def test_cli_import_loads_only_the_standard_library():
    """What ``import repro.cli`` loads, checked in a fresh interpreter:
    every ``repro`` command starts on a clean install."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro.cli\n"
        "loaded = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(loaded - set(sys.stdlib_module_names) - {'repro'})))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert completed.stdout.split() == []
