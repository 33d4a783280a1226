"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "homectx").glob("*.py"))


def imported_modules(path: Path):
    """(line, top-level module name or None for a relative import) per import."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, None if node.level else node.module.partition(".")[0]


def test_every_import_is_stdlib_or_homectx():
    assert len(SOURCES) >= 8
    outside = [f"{path.name}:{line}: {name}"
               for path in SOURCES for line, name in imported_modules(path)
               if name is not None and name != "homectx"
               and name not in sys.stdlib_module_names]
    assert outside == []


def test_guard_sees_a_third_party_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import json\nfrom . import rdf\nimport numpy.linalg\n"
                    "def f():\n    from yaml import safe_load\n")
    names = [name for _, name in imported_modules(path)]
    assert names == ["json", None, "numpy", "yaml"]
    assert [n for n in names if n and n not in sys.stdlib_module_names] == ["numpy", "yaml"]
