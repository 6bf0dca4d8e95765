"""The package source stays within the oldest Python that pyproject.toml declares."""

import ast
import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "cvb").glob("*.py"))

# Possessive quantifiers and atomic groups came to ``re`` in Python 3.11.
NEWER_REGEX_SYNTAX = re.compile(r"(?<!\\)[*+?}]\+|\(\?>")


def test_sources_are_found():
    assert {"cli.py", "ppm.py", "rectify.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_regular_expressions_use_python_3_10_syntax():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    calls = [node for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func).startswith("re.")]
    patterns = [call.args[0].value for call in calls if call.args and isinstance(call.args[0], ast.Constant)]
    assert patterns  # the PPM header token, at least
    for pattern in patterns:
        text = pattern.decode("latin-1") if isinstance(pattern, bytes) else pattern
        assert not NEWER_REGEX_SYNTAX.search(text), pattern
