"""Nothing in the package exists only for the tests to call or read.

Every top-level function and class in ``src/homectx``, and every method,
must be referenced from another definition in ``src/``, or be an entry
point: ``cli.main`` and each name the benchmark under ``bench/`` reads or
patches.  A dunder is called by the language, and a method that overrides
one its class inherits is called by the base class.  Every field of a
dataclass or NamedTuple, and every name in the ``__slots__`` or ``_fields``
tuple of a plain class, must be read as an attribute in ``src/`` or
``bench/``.  References are matched by name, not by binding, so a name
shared with an unrelated attribute counts as used: the check finds code
nothing calls, not every misuse.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "homectx").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# Kept without a caller in src/, each for its reason.
EXCEPTIONS = {
    # Acceptance criterion 6 round-trips readings through it; restoring each
    # stream's context from the store after a restart is to call it.
    ("ontology", "triples_to_reading"),
}

# Fields kept though nothing in src/ or bench/ reads them, each for its reason.
FIELD_EXCEPTIONS = {
    # should_store's per-factor delta, part of its documented result: a
    # caller cannot recompute it from the arguments it passed.
    ("dedup", "FactorDelta.d"),
}


def definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and class, and of
    each method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def names_in(node: ast.AST) -> Counter:
    """How often each name is read, as a variable or an attribute, under ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def bench_entry_points(paths, modules) -> set:
    """(module, name) for each ``module.name`` the benchmark's code reads."""
    return {(n.value.id, n.attr) for path in paths
            for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id in modules}


def overrides(module: str, qualname: str) -> bool:
    """Whether a method overrides one its class inherits."""
    owner, _, name = qualname.rpartition(".")
    if not owner:
        return False
    cls = getattr(importlib.import_module(module), owner)
    return any(name in vars(base) for base in cls.__mro__[1:])


def unreferenced(paths, kept, package="homectx.") -> list:
    """``module.qualname`` of each definition in ``paths`` that no other
    definition references and that is not in ``kept``; the modules are
    imported as ``package`` + their stem."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    total = sum(map(names_in, trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            name = node.name
            if ((module, qualname) in kept or name.startswith("__") and name.endswith("__")
                    or total[name] > names_in(node)[name]
                    or overrides(package + module, qualname)):
                continue
            found.append(f"{module}.{qualname}")
    return found


def test_every_definition_has_a_caller_in_src():
    assert len(SOURCES) >= 8
    modules = {path.stem for path in SOURCES}
    kept = EXCEPTIONS | {("cli", "main")} | bench_entry_points(BENCH, modules)
    assert unreferenced(SOURCES, kept) == []


def test_every_exception_is_still_needed():
    modules = {path.stem for path in SOURCES}
    entry_points = {("cli", "main")} | bench_entry_points(BENCH, modules)
    assert sorted(unreferenced(SOURCES, entry_points)) == sorted(
        f"{module}.{name}" for module, name in EXCEPTIONS)


def test_guard_sees_a_definition_only_tests_call(tmp_path, monkeypatch):
    path = tmp_path / "sample_callers.py"
    path.write_text("import socketserver\n\n"
                    "def used():\n    return 1\n\n"
                    "def recursive(n):\n    return recursive(n - 1)\n\n"
                    "def unused():\n    return used(), Box\n\n"
                    "class Box(socketserver.BaseRequestHandler):\n"
                    "    def __len__(self):\n        return self.size()\n"
                    "    def size(self):\n        return 0\n"
                    "    def handle(self):\n        pass\n"
                    "    def spare(self):\n        return Box\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    assert unreferenced([path], set(), package="") == [
        "sample_callers.recursive", "sample_callers.unused", "sample_callers.Box.spare"]
    assert unreferenced([path], {("sample_callers", "unused")}, package="") == [
        "sample_callers.recursive", "sample_callers.Box.spare"]


def record_fields(node: ast.ClassDef) -> list:
    """The field names of a record class, [] for another class: the names in
    the tuple a class assigns to ``__slots__`` or ``_fields``, or else the
    annotated names of a dataclass or a NamedTuple."""
    named = [item.value for item in node.body if isinstance(item, ast.Assign)
             for target in item.targets
             if isinstance(target, ast.Name) and target.id in ("__slots__", "_fields")]
    if named:
        # a tuple of string literals, so that no field goes unchecked
        assert all(isinstance(v, ast.Tuple) for v in named), f"{node.name}: not a tuple"
        return list(dict.fromkeys(ast.literal_eval(v) for value in named for v in value.elts))
    marks = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    if not any((getattr(n, "id", None) or getattr(n, "attr", None))
               in ("dataclass", "NamedTuple") for n in marks + node.bases):
        return []
    return [item.target.id for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def unread_fields(paths, readers, kept) -> list:
    """``module.Class.field`` of each field of a record class in ``paths``
    that no code in ``readers`` reads as an attribute and that is not in
    ``kept``."""
    read = {n.attr for path in readers
            for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    found = []
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for name in record_fields(node):
                qualname = f"{node.name}.{name}"
                if (path.stem, qualname) not in kept and name not in read:
                    found.append(f"{path.stem}.{qualname}")
    return found


def test_every_field_is_read_in_src_or_bench():
    assert unread_fields(SOURCES, SOURCES + BENCH, FIELD_EXCEPTIONS) == []


def test_every_field_exception_is_still_needed():
    assert sorted(unread_fields(SOURCES, SOURCES + BENCH, set())) == sorted(
        f"{module}.{name}" for module, name in FIELD_EXCEPTIONS)


def test_guard_sees_a_field_only_tests_read(tmp_path):
    path = tmp_path / "sample_fields.py"
    path.write_text("import dataclasses\nfrom typing import NamedTuple\n\n"
                    "@dataclasses.dataclass(frozen=True)\n"
                    "class Point:\n    x: int\n    y: int\n    label: str = ''\n\n"
                    "class Pair(NamedTuple):\n    left: int\n    right: int\n\n"
                    "class Plain:\n    note: str\n\n"
                    "class Slotted:\n    __slots__ = _fields = ('kept', 'spare')\n"
                    "    def __init__(self):\n        self.kept = self.spare = 0\n\n"
                    "def use(point, pair, plain, slotted):\n"
                    "    point.label = plain.note = 'written, not read'\n"
                    "    return point.x + pair.left + slotted.kept\n")
    assert unread_fields([path], [path], set()) == [
        "sample_fields.Point.y", "sample_fields.Point.label", "sample_fields.Pair.right",
        "sample_fields.Slotted.spare"]
    assert unread_fields([path], [path], {("sample_fields", "Pair.right")}) == [
        "sample_fields.Point.y", "sample_fields.Point.label", "sample_fields.Slotted.spare"]
