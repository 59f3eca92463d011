"""The package namespace: each submodule's name means that module."""
import importlib
import pkgutil

import saddletail


def test_attributes_named_after_submodules_are_those_modules():
    for info in pkgutil.iter_modules(saddletail.__path__):
        module = importlib.import_module(f"saddletail.{info.name}")
        assert getattr(saddletail, info.name) is module, info.name
    assert saddletail.flow is saddletail.field.flow
