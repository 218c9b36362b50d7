"""The benchmark's trace entry points must exist where the tracer looks.

``perfbench/tracing.py`` wraps each layer's public entry points by
looking up ``cls.__dict__[method]`` for every ``module:Class.method`` in
its ``LAYERS`` table.  A method that is renamed, deleted or moved to a
base class would otherwise only surface as a ``KeyError`` in a
``perfbench/run.py --trace 1`` run.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

import pytest

TRACING_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ENTRY_POINTS = [
    (layer, entry)
    for layer, entries in _load_tracing().LAYERS.items()
    for entry in entries
]


@pytest.mark.parametrize(
    "layer, entry", ENTRY_POINTS, ids=[entry for _, entry in ENTRY_POINTS]
)
def test_entry_point_is_defined_on_its_class(layer, entry):
    module_name, qualified = entry.split(":")
    class_name, attribute = qualified.split(".")
    cls = getattr(importlib.import_module(module_name), class_name)
    assert attribute in cls.__dict__, (
        f"{layer}: {entry} is not defined on {class_name} itself"
    )
    assert callable(cls.__dict__[attribute])
