"""tools/mutants.py names, for each mutant, a text of a source file and
the tests that must fail once it is replaced.  A mutant whose text has
changed, or whose tests have moved, is stale; this finds it in Tier-1
rather than only in a run of the slow tool."""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
MUTANTS = REPO / "tools" / "mutants.py"


def load_mutants():
    spec = importlib.util.spec_from_file_location("tools_mutants", MUTANTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


@pytest.mark.parametrize("mutant", load_mutants(), ids=lambda m: m.name)
def test_mutant_is_not_stale(mutant):
    assert (REPO / mutant.path).read_text().count(mutant.old) == 1
    for node in mutant.must_fail:
        path, *names = node.split("::")
        text = (REPO / path).read_text()
        *classes, function = names
        for cls in classes:
            assert f"class {cls}" in text, node
        assert f"def {function.partition('[')[0]}(" in text, node
