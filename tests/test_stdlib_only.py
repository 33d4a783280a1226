"""The package imports nothing outside the standard library, and nothing
heavy from it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "homectx").glob("*.py"))
# Modules an engine start need not pay for: ``dataclasses`` alone pulls in
# ``inspect``, which pulls in ``ast``, ``dis`` and ``tokenize``.
HEAVY = ("dataclasses", "inspect", "ast", "dis")


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


def heavy_modules_loaded(setup: str = "") -> list:
    """The HEAVY modules in ``sys.modules`` of a fresh interpreter that runs
    ``setup`` and then imports the command line and the engine.  ``-S``
    skips ``site``, whose ``.pth`` hooks may import anything."""
    probe = (f"import sys\n{setup}\nimport homectx.cli, homectx.ingest\n"
             f"print(*[m for m in {HEAVY!r} if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(SOURCES[0].parents[1])}
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return done.stdout.split()


def test_engine_start_imports_nothing_heavy():
    assert heavy_modules_loaded() == []


def test_guard_sees_a_heavy_import():
    assert "dataclasses" in heavy_modules_loaded("import dataclasses")
