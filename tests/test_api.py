import ast
import glob
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


def test_no_module_imports_a_name_it_never_reads():
    # __init__ imports to re-export; every other module must read each name
    package = os.path.dirname(dynclear.__file__)
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        assert not imported - read, (os.path.basename(path), imported - read)
