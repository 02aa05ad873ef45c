import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import qcdyn

# every submodule that declares __all__ (cli and errors declare none)
_MODULES = {
    info.name: module
    for info in pkgutil.iter_modules(qcdyn.__path__)
    if hasattr(module := importlib.import_module(f"qcdyn.{info.name}"), "__all__")
}


def _root_imports() -> list[tuple[str, str]]:
    """(module, name) for every name qcdyn/__init__.py imports from a submodule."""
    tree = ast.parse(Path(qcdyn.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_all_lists_and_root_imports_agree():
    # every name a module exports resolves, once; every name the package
    # root imports from a module is one that module exports
    assert {"maps", "render", "fixed_points", "jets", "orbits"} <= set(_MODULES)
    for name, module in _MODULES.items():
        assert len(module.__all__) == len(set(module.__all__)), name
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name
    unexported = [
        (module, name)
        for module, name in _root_imports()
        if module not in _MODULES or name not in _MODULES[module].__all__
    ]
    assert unexported == []


def test_no_public_alias():
    # one name for each function or class a module exports
    for name, module in _MODULES.items():
        objs = [getattr(module, n) for n in module.__all__]
        named = [obj for obj in objs if inspect.isfunction(obj) or inspect.isclass(obj)]
        assert len({id(obj) for obj in named}) == len(named), name
