import importlib
import pkgutil

import permfield


def test_every_name_in_a_module_all_resolves():
    # a def deleted but left in __all__ breaks `from permfield.<module> import *`
    modules = [info.name for info in pkgutil.iter_modules(permfield.__path__)]
    assert "cycles" in modules and "field" in modules
    for name in modules:
        module = importlib.import_module(f"permfield.{name}")
        missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        assert missing == [], (name, missing)
