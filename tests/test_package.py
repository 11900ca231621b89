"""Each public name has one import path: the module that defines it."""

import importlib
import pkgutil
import types

import specsense


def test_namespace_holds_only_submodules_and_dunders():
    for info in pkgutil.iter_modules(specsense.__path__):
        if info.name != "__main__":
            importlib.import_module(f"specsense.{info.name}")
    extra = [name for name, value in vars(specsense).items()
             if not (name.startswith("__") and name.endswith("__"))
             and not isinstance(value, types.ModuleType)]
    assert extra == []
    assert isinstance(specsense.__version__, str)
