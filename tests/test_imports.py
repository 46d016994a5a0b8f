"""No unused imports in src/ or tests/, and no unread definitions in src/muse.

A name that an import statement binds must be read somewhere in its module,
or be listed in the module's `__all__`. Import statements with a line marked
`# noqa: F401` are skipped: they keep names importable for
`perfbench/tracing.py`, which wraps them, and under src/ each name they bind
must be one that the tracer's HOOKS wrap in that module.

A top-level function or class of src/muse must be read, outside its own
body, somewhere in src/, scripts/ or perfbench/, or be listed in an
`__all__` there, so a helper that loses its last caller fails the suite.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from test_perfbench_hooks import load_tracing

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py"))
PACKAGE = sorted((ROOT / "src" / "muse").rglob("*.py"))
READERS = sorted(p for top in ("scripts", "perfbench") for p in (ROOT / top).rglob("*.py"))


def all_names(tree: ast.AST) -> set[str]:
    """The names that the `__all__` assignments of `tree` list."""
    return {e.value for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for e in ast.walk(node.value) if isinstance(e, ast.Constant)}


def read_names(tree: ast.AST) -> Counter:
    """How often `tree` reads each name, as a bare name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute))


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
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | all_names(tree)
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


def unread_definitions(package: dict[str, str], others: list[str]) -> list[str]:
    """The top-level functions and classes of `package` (module name to
    source) that neither the package nor the `others` sources read outside
    their own body, and no `__all__` lists, as "module: name"."""
    reads, exported = Counter(), set()
    for source in [*package.values(), *others]:
        tree = ast.parse(source)
        reads += read_names(tree)
        exported |= all_names(tree)
    return [f"{module}: {node.name}" for module, source in package.items() for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in exported
            and reads[node.name] == read_names(node)[node.name]]


def test_the_check_sees_unread_definitions():
    package = {"a": "def used():\n    pass\n\ndef recursive(n):\n    return recursive(n - 1)\n\n"
                    "class Kept:\n    pass\n\ndef orphan():\n    used()\n",
               "b": "from .a import Kept, used  # noqa: F401\n__all__ = ['Kept']\n\ndef run(x):\n    return x.run()\n"}
    assert unread_definitions(package, []) == ["a: recursive", "a: orphan", "b: run"]
    assert unread_definitions(package, ["b.run(a.recursive(3))\n"]) == ["a: orphan"]


def test_every_definition_is_read():
    package = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    assert unread_definitions(package, [p.read_text() for p in READERS]) == []
