"""The package's public namespace: ``__all__`` names what it exports."""

import importlib
import re
from pathlib import Path

import pytest

import entscan


def test_every_name_in_all_resolves():
    missing = [name for name in entscan.__all__ if not hasattr(entscan, name)]
    assert missing == []
    assert len(set(entscan.__all__)) == len(entscan.__all__)


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from entscan import *", namespace)
    assert set(entscan.__all__) <= set(namespace)


# PPT, realignment and E each have one name: a mask of generalized_transpose,
# or a property of gpt_scan's report; no module exports a wrapper for them,
# and a bipartite cut is a subsystem bitmask, not a list of blocks
@pytest.mark.parametrize("module", ["entscan", "entscan.linalg", "entscan.reshape",
                                    "entscan.criteria"])
@pytest.mark.parametrize("name", ["kron", "realign", "partial_transpose", "measure_e",
                                  "bipartite_cuts"])
def test_removed_wrapper_is_absent(module, name):
    assert not hasattr(importlib.import_module(module), name)
    assert name not in entscan.__all__


# the criteria read gpt_scan's report; the report holds no second reader
@pytest.mark.parametrize("member", ["ppt_results", "realignment_results",
                                    "negativity_per_subsystem"])
def test_report_has_no_duplicate_reader(member):
    assert not hasattr(entscan.CriterionReport, member)


def test_readme_library_example_runs(capsys):
    # a name removed from the package but left in README fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    exec(block, {})
    assert capsys.readouterr().out.startswith("ENTANGLED_CERTIFIED\n")
