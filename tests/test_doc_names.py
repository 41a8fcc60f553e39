"""Every ``repro.…`` name the documents print in backticks resolves.

A backticked dotted name in ``README.md``, ``DESIGN.md`` or ``docs/*.md``
must be importable as a module, or be an attribute reached from one.  A
``{a,b}`` group stands for each of its names.  ``docs/decisions.md`` is
history and keeps the names of its day; ``docs/performance.md`` is
skipped until its rewrite (ROADMAP item 11).
"""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SKIPPED = {"decisions.md", "performance.md"}
DOCUMENTS = [ROOT / "README.md", ROOT / "DESIGN.md"] + [
    path for path in sorted((ROOT / "docs").glob("*.md"))
    if path.name not in SKIPPED
]
NAME = re.compile(r"`(repro(?:\.\w+)*)(?:\.\{([\w,]+)\})?`")


def names_in(text: str) -> list[str]:
    names = []
    for match in NAME.finditer(text):
        stem, group = match.groups()
        if group is None:
            names.append(stem)
        else:
            names.extend(f"{stem}.{name}" for name in group.split(","))
    return names


def resolves(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(found, attribute):
                return False
            found = getattr(found, attribute)
        return True
    return False


def test_the_scan_reads_names_and_groups():
    assert names_in("`repro.core` and `repro.mediation.{client,ca}`") == [
        "repro.core", "repro.mediation.client", "repro.mediation.ca",
    ]
    assert not resolves("repro.crypto.keys")


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda path: path.name)
def test_every_backticked_name_resolves(path):
    unresolved = [
        name for name in names_in(path.read_text()) if not resolves(name)
    ]
    assert unresolved == []
