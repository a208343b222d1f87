import sys

import pytest

from cdtsep import groups
from cdtsep.analysis import Analysis
from cdtsep.catalog import CdtName
from cdtsep.report import run_report


@pytest.fixture(scope="session")
def analysis_of():
    """Shared per-graph pipeline: text name -> its catalog Analysis."""
    cache = {}

    def get(text):
        if text not in cache:
            cache[text] = Analysis.from_catalog(CdtName.from_string(text))
        return cache[text]

    return get


@pytest.fixture(scope="session")
def counted_run():
    """The one full run_report() of the session, with the number of
    automorphism_group calls it made under every cdtsep binding."""
    original = groups.automorphism_group
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "cdtsep" and vars(module).get("automorphism_group") is original:
                mp.setattr(module, "automorphism_group", counted)
        report = run_report()
    return report, len(calls)


@pytest.fixture(scope="session")
def full_report(counted_run):
    return counted_run[0]
