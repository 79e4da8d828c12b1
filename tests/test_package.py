import ast
from pathlib import Path

import macmahon


def test_all_lists_exactly_the_imported_names():
    # a stale or missing __all__ entry would go unnoticed until a star import
    tree = ast.parse(Path(macmahon.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(macmahon.__all__) == len(set(macmahon.__all__))
    assert set(macmahon.__all__) == imported
    namespace: dict = {}
    exec("from macmahon import *", namespace)
    assert set(macmahon.__all__) <= set(namespace)
