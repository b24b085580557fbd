"""Every name the package exports has a reader outside the tests.

A reader is a line of another package module, a demo, the README or the
benchmark that names it, other than the line defining or assigning it.
A name that only tests read is surface nothing else needs.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flowcont"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )


def reader_lines():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + [ROOT / "README.md"]
    files += sorted(p for p in (ROOT / "bench").rglob("*") if p.suffix in (".py", ".md"))
    return [line for p in files for line in p.read_text(encoding="utf-8").splitlines()]


def test_every_exported_name_has_a_reader_outside_the_tests():
    lines = reader_lines()
    unread = []
    for name in exported_names():
        named = re.compile(rf"\b{name}\b")
        defined = re.compile(rf"\s*((def|class)\s+{name}\b|{name}\s*(:[^=]*)?=(?!=))")
        if not any(named.search(line) and not defined.match(line) for line in lines):
            unread.append(name)
    assert unread == []
