"""The package's public namespace (``__all__`` names what it exports), and
which module owns which decision."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import entscan

SRC = Path(entscan.__file__).resolve().parent


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
# and a bipartite cut is a subsystem bitmask, not a list of blocks; a state
# has one constructor, DensityMatrix
@pytest.mark.parametrize("module", ["entscan", "entscan.linalg", "entscan.reshape",
                                    "entscan.criteria"])
@pytest.mark.parametrize("name", ["kron", "realign", "partial_transpose", "measure_e",
                                  "bipartite_cuts", "density_matrix"])
def test_removed_wrapper_is_absent(module, name):
    assert not hasattr(importlib.import_module(module), name)
    assert name not in entscan.__all__


# the criteria read gpt_scan's report; the report holds no second reader
@pytest.mark.parametrize("member", ["ppt_results", "realignment_results",
                                    "negativity_per_subsystem"])
def test_report_has_no_duplicate_reader(member):
    assert not hasattr(entscan.CriterionReport, member)


# a scan row is its solve, shared by its symmetry class; the mask is the key
# that reads it, and reshape names and shapes it from that mask
def test_subset_result_holds_only_its_solve():
    assert entscan.SubsetResult._fields == ("trace_norm", "min_eigenvalue", "slack")
    for member in ("mask", "dims", "shape", "complement_mask", "label_text",
                   "is_hermitian_case"):
        assert not hasattr(entscan.SubsetResult, member), member


# criteria holds the rules on rows; numpy, solves and mask checks are behind
# the public names of linalg and reshape
def test_criteria_imports_neither_numpy_nor_private_names():
    tree = ast.parse((SRC / "criteria.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "numpy" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[0] != "numpy"
            assert all(not alias.name.startswith("_") for alias in node.names), node.module


# linalg alone calls a numpy.linalg solver and maps its failure; reshape
# alone validates masks
@pytest.mark.parametrize("pattern, owner", [
    (r"np\.linalg\.(svd|qr|eigvalsh)|LinAlgError", "linalg.py"),
    (r"_check_mask", "reshape.py"),
], ids=["solvers", "masks"])
def test_one_module_owns_each_decision(pattern, owner):
    users = sorted(path.name for path in SRC.glob("*.py")
                   if re.search(pattern, path.read_text(encoding="utf-8")))
    assert users == [owner]


def test_readme_library_example_runs(capsys):
    # a name removed from the package but left in README fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    exec(block, {})
    assert capsys.readouterr().out.startswith("ENTANGLED_CERTIFIED\n")
