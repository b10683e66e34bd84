"""Every CLI run of the golden corpus (``golden.py``) against its checked-in
outcome: exit code, stderr and every non-float value exactly, floats within
1e-12. The human format is checked as the renderer's text of the same run's
JSON report, so it needs no files of its own."""

import json
import os

import pytest

from entscan import cli

import golden

RENDERERS = {
    "analyze": cli.render_human_analyze,
    "norms": cli.render_human_norms,
    "scan-family": cli.render_human_scan_family,
}


def test_every_case_has_one_file():
    names = sorted(case["name"] for case in golden.CASES)
    assert len(set(names)) == len(names)
    files = sorted(f[:-5] for f in os.listdir(golden.GOLDEN) if f.endswith(".json"))
    assert files == names


@pytest.mark.parametrize("case", golden.CASES, ids=[case["name"] for case in golden.CASES])
def test_run_matches_the_corpus(case, tmp_path, monkeypatch):
    with open(golden.path(case["name"]), encoding="utf-8") as fh:
        expected = json.load(fh)
    assert {key: expected[key] for key in case} == case, "case changed: regenerate"
    monkeypatch.chdir(tmp_path)
    got = golden.record(case)
    assert got["exit_code"] == expected["exit_code"]
    assert got["stderr"] == expected["stderr"]
    golden.assert_same_up_to_float_noise(expected["report"], got["report"])

    code, out, err = golden.run_case(case, "human")
    assert (code, err) == (got["exit_code"], got["stderr"])
    report = got["report"]
    assert out == ("" if report is None else RENDERERS[case["argv"][0]](report))
