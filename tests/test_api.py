import ast
import os

import dynclear


def _imported_names() -> set[str]:
    """Every name ``src/dynclear/__init__.py`` imports from its modules."""
    with open(os.path.join(os.path.dirname(dynclear.__file__), "__init__.py"),
              encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    return {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_all_lists_exactly_the_imported_names():
    assert sorted(dynclear.__all__) == sorted(_imported_names())
    assert len(set(dynclear.__all__)) == len(dynclear.__all__)


def test_every_export_resolves():
    for name in dynclear.__all__:
        assert getattr(dynclear, name) is not None, name
