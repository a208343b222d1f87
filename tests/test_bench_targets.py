"""The benchmark's traced run wraps the names in bench/spans.py TARGETS;
every one must still exist, so that removing one fails here rather than
only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("owner,attr", [t[:2] for t in load_targets()], ids=".".join)
def test_target_resolves(owner, attr):
    module, _, cls = owner.partition(".")
    holder = importlib.import_module(f"cdtsep.{module}")
    if cls:
        # spans.py patches methods through the class dict
        assert callable(vars(getattr(holder, cls)).get(attr))
    else:
        assert callable(getattr(holder, attr, None))
