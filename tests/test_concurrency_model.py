"""One concurrency model: blocking sockets and threads, no asyncio.

Every party endpoint, the client transport, the chaos proxy and the
scrape server run on plain threads.  An ``asyncio`` import anywhere in
the package would bring back a second model (its own frame helpers,
its own locks, an executor hop per CPU-bound handler), so it fails here.
"""

import ast
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).resolve().parent


def asyncio_imports(path: pathlib.Path) -> list[int]:
    """Line numbers of every ``import asyncio[.x]`` / ``from asyncio...``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "asyncio" for name in names):
            lines.append(node.lineno)
    return lines


def test_no_module_imports_asyncio():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 50  # the walk really covers the package
    offenders = {
        str(path.relative_to(PACKAGE)): lines
        for path in sources
        if (lines := asyncio_imports(path))
    }
    assert offenders == {}


def test_the_guard_sees_both_import_forms(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import os\nimport asyncio\nfrom asyncio import sleep\n"
        "from asyncio.tasks import gather\nimport asynciox\n"
    )
    assert asyncio_imports(sample) == [2, 3, 4]
