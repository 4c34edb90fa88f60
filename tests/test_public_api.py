"""Every exported name has a user outside the tests.

A name counts as used when a module of the package (other than
``__init__.py``), a demo or a benchmark script reads it, as a bare name or
as an attribute. Importing it alone does not count.
"""

import ast
from pathlib import Path

import crossover_coverage

ROOT = Path(__file__).resolve().parent.parent


def _used_names() -> set[str]:
    files = [p for p in (ROOT / "src" / "crossover_coverage").glob("*.py")
             if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names: set[str] = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_used():
    unused = sorted(set(crossover_coverage.__all__) - _used_names())
    assert not unused, f"exported but used only by tests: {unused}"
