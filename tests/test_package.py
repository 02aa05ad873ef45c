import importlib
import inspect
import pkgutil

from oracles import run_python

import qcdyn

_MODULES = {
    info.name: importlib.import_module(f"qcdyn.{info.name}") for info in pkgutil.iter_modules(qcdyn.__path__)
}


def _defined(module) -> list[str]:
    """The public functions and classes a module defines itself."""
    return [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]


def test_modules_are_the_api():
    # the package root binds no function or class; every module lists each
    # public function or class it defines in __all__, once, and every name
    # there resolves
    assert {"maps", "render", "fixed_points", "jets", "orbits", "errors", "cli"} <= set(_MODULES)
    assert [n for n, obj in vars(qcdyn).items() if inspect.isfunction(obj) or inspect.isclass(obj)] == []
    for name, module in _MODULES.items():
        assert len(module.__all__) == len(set(module.__all__)), name
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name
        assert [n for n in _defined(module) if n not in module.__all__] == [], name


def test_no_public_alias():
    # one name for each function or class a module exports
    for name, module in _MODULES.items():
        objs = [getattr(module, n) for n in module.__all__]
        named = [obj for obj in objs if inspect.isfunction(obj) or inspect.isclass(obj)]
        assert len({id(obj) for obj in named}) == len(named), name


def test_pure_python_modules_load_no_numpy():
    # maps and errors are plain Python; importing them must not pull in
    # numpy through the package root
    proc = run_python(["-c", "import sys, qcdyn.maps, qcdyn.errors; print('numpy' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
