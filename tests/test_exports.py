import importlib
import pkgutil

import pytest

import uga

MODULES = sorted(m.name for m in pkgutil.iter_modules(uga.__path__, "uga."))


def test_modules_found():
    assert {"uga.autodiff", "uga.models", "uga.train"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # The benchmark's tracer wraps every autodiff op by its __all__ name, so
    # a name left behind after a deletion must fail here.
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
