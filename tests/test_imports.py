"""Every import under src/, tests/ and demos/ is used.

No linter ships with the project, so this walks each module's syntax
tree: a name bound by ``import`` or ``from ... import`` must appear as a
name somewhere else in the module.  Package ``__init__.py`` files
re-export, ``from __future__`` imports act on the compiler, and a line
marked ``# noqa: F401`` keeps its import on purpose (for example a
module attribute that another tool looks up).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path
    for folder in ("src", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every import in ``source`` whose name is never used."""
    lines = source.splitlines()
    imported, used = [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_only_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import math  # noqa: F401\n"
        "import os.path as osp\n"
        "from typing import List, Tuple\n"
        "x: List[int] = osp.sep\n"
    )
    assert unused_imports(source) == [(2, "os"), (5, "Tuple")]
