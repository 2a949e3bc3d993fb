import ast
import importlib
import pkgutil
from pathlib import Path

import rksv


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone fails only on
    # 'from module import *', so check each one explicitly
    for info in pkgutil.iter_modules(rksv.__path__):
        module = importlib.import_module(f"rksv.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"rksv.{info.name}.__all__ names {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(rksv.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"rksv.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"rksv.{node.module} has no {alias.name}"
            assert getattr(rksv, alias.asname or alias.name) is getattr(module, alias.name)
