"""The oldest supported Python's grammar, checked on every source file.

``pyproject.toml`` asks for Python 3.10 or later.  These tests parse each
``.py`` file under ``src``, ``tests``, ``perfbench`` and ``scripts`` with
``ast.parse(..., feature_version=(3, 10))``, so syntax that 3.10 cannot
read (``except*``, for one) fails here on any newer interpreter.  They
check grammar only: a call to a library function added after 3.10, such as
``hashlib.file_digest``, parses and is not caught.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "perfbench", "scripts")
                 for path in (ROOT / folder).rglob("*.py"))
OLDEST = (3, 10)


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
