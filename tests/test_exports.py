import importlib

import pytest

import examgraph


@pytest.mark.parametrize("package", ["examgraph", *(
    f"examgraph.{name}" for name in examgraph.__all__ if name != "__version__")])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []
