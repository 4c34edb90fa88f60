"""Every exported name has a user outside the tests.

A name counts as used when a module of the package (other than
``__init__.py``), a demo or a benchmark script reads it, as a bare name or
as an attribute. Importing it alone does not count.
"""

import ast
import re
from pathlib import Path

import crossover_coverage

ROOT = Path(__file__).resolve().parent.parent
# Aliases of constructors, kept only because the benchmark scripts call them.
BENCHMARK_ALIASES = {"create", "from_effects"}


def _names_read(sources: list[str]) -> set[str]:
    names: set[str] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _read(paths) -> list[str]:
    return [p.read_text(encoding="utf-8") for p in paths]


def _library_and_demo_files() -> list[Path]:
    files = [p for p in (ROOT / "src" / "crossover_coverage").glob("*.py")
             if p.name != "__init__.py"]
    return files + [*(ROOT / "demos").glob("*.py")]


def test_every_export_is_used():
    files = _library_and_demo_files() + [*(ROOT / "perfbench").glob("*.py")]
    unused = sorted(set(crossover_coverage.__all__) - _names_read(_read(files)))
    assert not unused, f"exported but used only by tests: {unused}"


def test_constructor_aliases_serve_only_the_benchmark():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks
    called = _names_read(_read(_library_and_demo_files()) + blocks) & BENCHMARK_ALIASES
    assert not called, f"call the constructors, not {sorted(called)}"
    # Once the benchmark stops calling them too, delete the aliases.
    assert BENCHMARK_ALIASES <= _names_read(_read([ROOT / "perfbench" / "workloads.py"]))
