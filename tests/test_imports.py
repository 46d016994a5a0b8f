"""No unused imports in src/ or tests/.

A name that an import statement binds must be read somewhere in its module,
or be listed in the module's `__all__`. Import statements with a line marked
`# noqa: F401` are skipped: they keep names importable for
`perfbench/tracing.py`, which wraps them, and under src/ each name they bind
must be one that the tracer's HOOKS wrap in that module.
"""

import ast
from pathlib import Path

import pytest

from test_perfbench_hooks import load_tracing

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py"))


def bound_names(source: str) -> list[tuple[int, str, bool]]:
    """(line, name, kept) for each name that `source`'s import statements
    bind; kept marks a statement with a line marked `# noqa: F401`."""
    lines = source.splitlines()
    bound = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        kept = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        bound += [(node.lineno, a.asname or a.name.split(".")[0], kept) for a in node.names if a.name != "*"]
    return bound


def unused_imports(source: str) -> list[str]:
    """The names that `source`'s unmarked import statements bind and nothing
    reads, as "line: name"."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [f"{line}: {name}" for line, name, kept in bound_names(source) if not kept and name not in read]


def test_the_check_sees_unused_and_kept_imports():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from a import (b,  # noqa: F401\n    c)\nfrom d import e, f\n"
              "__all__ = ['e']\nnp.zeros(1)\n")
    assert unused_imports(source) == ["2: os", "6: f"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_kept_imports_are_tracer_hooks():
    # a marked import exists only for a tracer hook, so it leaves with its hook
    hooks = {(mod, attr) for mod, attr, _ in load_tracing().HOOKS}
    kept = [(".".join(path.relative_to(ROOT / "src").with_suffix("").parts), name)
            for path in FILES if path.is_relative_to(ROOT / "src")
            for _, name, marked in bound_names(path.read_text()) if marked]
    assert kept and [f"{mod}.{name}" for mod, name in kept if (mod, name) not in hooks] == []
