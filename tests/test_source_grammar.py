"""The oldest supported Python, checked on every source file.

``pyproject.toml`` asks for Python 3.10 or later.  These tests parse each
``.py`` file under ``src``, ``tests``, ``perfbench`` and ``scripts`` with
``ast.parse(..., feature_version=(3, 10))``, so syntax that 3.10 cannot
read (``except*``, for one) fails here on any newer interpreter.  They
also walk each file's syntax tree for standard-library names added after
3.10 (``hashlib.file_digest``, for one), written as ``module.name``, in
``from module import name``, or as an import of a newer module or a use
of a newer builtin.  A name reached another way (through ``import
hashlib as h``, say) is not caught.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "perfbench", "scripts")
                 for path in (ROOT / folder).rglob("*.py"))
OLDEST = (3, 10)

# Standard-library names that Python 3.11 or 3.12 added.
NEWER_NAMES = {
    "hashlib": {"file_digest"},
    "math": {"sumprod", "cbrt", "exp2"},
    "itertools": {"batched"},
    "enum": {"StrEnum"},
    "typing": {"Self", "LiteralString", "Never", "assert_never", "override"},
    "datetime": {"UTC"},
    "contextlib": {"chdir"},
    "operator": {"call"},
    "re": {"NOFLAG"},
    "asyncio": {"TaskGroup"},
}
NEWER_MODULES = {"tomllib"}
NEWER_BUILTINS = {"ExceptionGroup"}


def newer_names(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, name)`` for each use in ``tree`` of a name listed above."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.attr in NEWER_NAMES.get(node.value.id, ()):
                found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module in NEWER_MODULES:
                found.append((node.lineno, node.module))
            found.extend((node.lineno, f"{node.module}.{alias.name}")
                         for alias in node.names
                         if alias.name in NEWER_NAMES.get(node.module, ()))
        elif isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name in NEWER_MODULES)
        elif isinstance(node, ast.Name) and node.id in NEWER_BUILTINS:
            found.append((node.lineno, node.id))
    return found


def test_every_source_parses_as_oldest_supported_python():
    failures = []
    for path in SOURCES:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=OLDEST)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert SOURCES and not failures, failures


def test_newer_grammar_is_rejected():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(newer)
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=OLDEST)


def test_no_source_uses_a_newer_library_name():
    failures = [f"{path.relative_to(ROOT)}:{line}: {name}"
                for path in SOURCES
                for line, name in newer_names(ast.parse(path.read_text("utf-8")))]
    assert SOURCES and not failures, failures


def test_newer_library_names_are_found():
    newer = ("import hashlib, tomllib\n"
             "from itertools import batched, chain\n"
             "digest = hashlib.file_digest(stream, 'sha256')\n"
             "raise ExceptionGroup('both', [])\n")
    assert sorted(newer_names(ast.parse(newer))) == [
        (1, "tomllib"), (2, "itertools.batched"), (3, "hashlib.file_digest"),
        (4, "ExceptionGroup")]
