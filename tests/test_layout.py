"""Module boundaries: no package module reaches into a sibling's private
names, and the modules above the kernels read no matrix storage. Every cache
in the package is bounded."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "weaksdp"
# the private storage of `Matrix` and `SymMatrix` and its private readers
STORAGE = {"_u", "_e", "_d", "_num", "_num_rows"}
# modules that read matrices only through the public API
PUBLIC_READERS = ("certify.py", "generator.py", "library.py", "paper_instances.py", "cli.py")


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "weaksdp"


def private_imports(tree: ast.AST) -> list[str]:
    """Underscore-prefixed names taken from sibling modules, by import or by
    attribute access on an imported sibling module."""
    found = []
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _sibling(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
                elif node.module is None or node.module == "weaksdp":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("weaksdp.") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"line {node.lineno}: uses {node.value.id}.{node.attr}")
    return found


def storage_reads(tree: ast.AST) -> list[str]:
    """Reads of a `STORAGE` attribute of any object."""
    return [f"line {node.lineno}: reads .{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in STORAGE]


def test_detector_sees_both_forms():
    tree = ast.parse(
        "from .generator import _draw_echelon\n"
        "from . import formats\n"
        "formats._decimal_exact('1')\n"
        "formats.read_native('x')\n"
    )
    assert private_imports(tree) == [
        "line 1: imports _draw_echelon", "line 3: uses formats._decimal_exact",
    ]


def test_no_module_imports_a_private_sibling_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    offences = {
        path.name: hits for path in modules
        if (hits := private_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offences == {}


def test_storage_detector_sees_any_object():
    tree = ast.parse("mat._u[0]\ninst.A[0]._num(1, 1)\nx.at(1, 1)\n")
    assert storage_reads(tree) == ["line 1: reads ._u", "line 2: reads ._num"]


def test_public_readers_read_no_matrix_storage():
    offences = {
        name: hits for name in PUBLIC_READERS
        if (hits := storage_reads(ast.parse((PACKAGE / name).read_text(encoding="utf-8"))))
    }
    assert offences == {}


def _functools(node: ast.AST, name: str) -> bool:
    """Whether `node` is `functools.name`."""
    return (isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.value, ast.Name) and node.value.id == "functools")


def _lru_cache(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "lru_cache" or _functools(node, "lru_cache")


def unbounded_caches(tree: ast.AST) -> list[str]:
    """Uses of `functools.cache`, and of `lru_cache` other than a call with
    an integer `maxsize`, by keyword or as the first argument."""
    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _lru_cache(node.func):
            sizes = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
            if len(sizes) == 1 and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int:
                bounded.add(id(node.func))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, "imports cache") for alias in node.names if alias.name == "cache"]
        elif _functools(node, "cache"):  # a bare `cache` is caught at its import
            found.append((node.lineno, "uses functools.cache"))
        elif _lru_cache(node) and id(node) not in bounded:
            found.append((node.lineno, "lru_cache without an integer maxsize"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_cache_detector_sees_every_form():
    tree = ast.parse(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=8)\ndef a(): pass\n"
        "@functools.lru_cache(16)\ndef b(): pass\n"
        "@lru_cache\ndef c(): pass\n"
        "@lru_cache(maxsize=None)\ndef d(): pass\n"
        "@functools.cache\ndef e(): pass\n"
        "f = lru_cache(maxsize=True)(len)\n"
        "cache = {}\n"
    )
    assert unbounded_caches(tree) == [
        "line 2: imports cache", "line 7: lru_cache without an integer maxsize",
        "line 9: lru_cache without an integer maxsize", "line 11: uses functools.cache",
        "line 13: lru_cache without an integer maxsize",
    ]


def test_every_cache_is_bounded():
    modules = sorted(PACKAGE.glob("*.py"))
    offences = {
        path.name: hits for path in modules
        if (hits := unbounded_caches(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offences == {}


def test_only_exact_defines_the_packed_offset_rule():
    definers = sorted(
        path.name for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in ("upper_offset", "_upper_offset")
    )
    assert definers == ["exact.py"]
