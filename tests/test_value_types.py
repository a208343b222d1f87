"""The package's value types are NamedTuples or small __slots__ classes:
a dataclass costs its module about a millisecond of import time, for the
methods it generates.  Only the types whose callers use the dataclass
API stay dataclasses."""

import dataclasses
import importlib
import pkgutil

import cdtsep

KEPT_DATACLASSES = {
    # bench/selftest.py corrupts solver outcomes with dataclasses.replace
    "OrientationAssignment",
    "OddWitness",
    # test_separator.py's test_frozen_and_compared_without_kept_structure
    # uses dataclasses.replace and expects FrozenInstanceError
    "SeparatorDigraph",
}


def test_only_the_kept_types_are_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(cdtsep.__path__):
        module = importlib.import_module(f"cdtsep.{info.name}")
        found |= {
            name for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and dataclasses.is_dataclass(obj)
        }
    assert found == KEPT_DATACLASSES
