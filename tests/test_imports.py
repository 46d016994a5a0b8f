"""No unused imports in src/ or tests/.

A name that an import statement binds must be read somewhere in its module,
or be listed in the module's `__all__`. Import statements with a line marked
`# noqa: F401` are skipped: they keep names importable for
`perfbench/tracing.py`, which wraps them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that `source`'s import statements bind and nothing reads,
    as "line: name"."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [f"{line}: {name}" for line, name in bound if name not in read]


def test_the_check_sees_unused_and_kept_imports():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from a import (b,  # noqa: F401\n    c)\nfrom d import e, f\n"
              "__all__ = ['e']\nnp.zeros(1)\n")
    assert unused_imports(source) == ["2: os", "6: f"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
