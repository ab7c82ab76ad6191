import importlib
import pkgutil
from pathlib import Path

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


def test_readme_states_source_line_count():
    # The count `wc -l src/uga/*.py` prints: newlines in every module.
    root = Path(__file__).resolve().parents[1]
    total = sum(p.read_bytes().count(b"\n") for p in (root / "src" / "uga").glob("*.py"))
    readme = (root / "README.md").read_text(encoding="utf-8")
    assert f"`src/uga/` is {total:,} lines (`wc -l src/uga/*.py`)" in readme
