"""The golden corpus: CLI runs whose expected outcome is checked in.

Each case is one ``entscan`` command, run in-process in a scratch working
directory. Its file ``golden/<name>.json`` holds the arguments, the exit
code, stderr, the JSON report when the command printed one (else null), and
as ``human`` the text of the same command in the human format ("" when it
printed none). A case may first write files (``files``) or run other
commands (``before``, which must exit 0), so that matrix files are named
relative to the working directory and no path reaches a message.

``tests/test_golden.py`` reruns every case and compares. Rewrite the corpus
from the current tree with

    PYTHONPATH=src python tests/golden.py

Rewriting it is an output change: show the corpus diff, and name every
changed key or value where the change is described. Never rewrite it only to
make a failing comparison pass.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from entscan.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# commands that take --format; the others are run as given
REPORTING = ("analyze", "norms", "scan-family")


def _case(name, *argv, before=(), files=None):
    return {"name": name, "argv": list(argv), "before": [list(b) for b in before],
            "files": files or {}}


_SWEEP = ("--min", "0", "--max", "1")

CASES = [
    # analyze: the cli-mix zoo
    _case("analyze-bell", "analyze", "bell:psi-"),
    _case("analyze-werner", "analyze", "werner:0.5"),
    _case("analyze-isotropic", "analyze", "isotropic:3,0.25"),
    _case("analyze-horodecki3x3", "analyze", "horodecki3x3:0.5"),
    _case("analyze-horodecki2x4", "analyze", "horodecki2x4:0.3"),
    _case("analyze-ghz3", "analyze", "ghz:3"),
    _case("analyze-w3", "analyze", "w:3"),
    _case("analyze-sepmix", "analyze", "sepmix:2x3,3,5"),
    _case("analyze-productrandom", "analyze", "productrandom:2x3,11"),
    _case("analyze-maxmixed", "analyze", "maxmixed:2x3"),
    # analyze: randomdm at 2^4, 4x4x4 and 3^4
    _case("analyze-randomdm-2x2x2x2", "analyze", "randomdm:2x2x2x2,16,1"),
    _case("analyze-randomdm-4x4x4", "analyze", "randomdm:4x4x4,64,1"),
    _case("analyze-randomdm-3x3x3x3", "analyze", "randomdm:3x3x3x3,81,1"),
    # analyze: a file that generate wrote
    _case("analyze-file", "analyze", "m.json",
          before=[("generate", "randomdm:2x4,3,7", "m.json")]),
    # norms
    _case("norms-realignment", "norms", "bell:psi-", "cA,rB"),
    _case("norms-randomdm", "norms", "randomdm:2x2,2,3", "rA,cB"),
    _case("norms-empty", "norms", "ghz:3", ""),
    # scan-family
    _case("scan-werner", "scan-family", "werner", *_SWEEP),
    _case("scan-isotropic", "scan-family", "isotropic:3", *_SWEEP),
    # a family whose grid crosses the threshold twice over [0, 1] (separable
    # at both ends), and once over [0.5, 1]
    _case("scan-horodecki3x3", "scan-family", "horodecki3x3", *_SWEEP),
    _case("scan-horodecki3x3-upper", "scan-family", "horodecki3x3", "--min", "0.5",
          "--max", "1"),
    # scan-family spec grammar: empty tokens and unnormalized numbers
    _case("scan-isotropic-leading-empty", "scan-family", "isotropic:,3", *_SWEEP),
    _case("scan-isotropic-trailing-empty", "scan-family", "isotropic:3,,", *_SWEEP),
    _case("scan-werner-empty", "scan-family", "werner:,", *_SWEEP),
    _case("scan-isotropic-padded", "scan-family", "isotropic: 03", *_SWEEP),
    # refusals
    _case("refuse-unknown-family", "analyze", "nosuch:1"),
    _case("refuse-scan-limit", "analyze", "ghz:7"),
    _case("refuse-unknown-label", "norms", "bell:psi-", "rC"),
    _case("refuse-empty-range", "scan-family", "werner", "--min", "1", "--max", "0"),
    _case("refuse-unsweepable", "scan-family", "bell", *_SWEEP),
    _case("refuse-empty-dims", "analyze", "empty-dims.json",
          files={"empty-dims.json": '{"dims": [], "matrix": [[[1, 0]]]}'}),
    _case("refuse-non-state", "analyze", "non-state.json",
          files={"non-state.json": '{"dims": [2], "matrix": '
                                   '[[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]}'}),
]


def run(argv):
    """``(exit code, stdout, stderr)`` of ``entscan argv``, in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_case(case, fmt="json"):
    """Run ``case`` in the current working directory: ``(exit code, stdout,
    stderr)`` of its command, with ``--format fmt`` when it takes one."""
    for name, text in case["files"].items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    for argv in case["before"]:
        code, _, err = run(argv)
        if code != 0:
            raise RuntimeError(f"{case['name']}: {argv} exited {code}: {err}")
    argv = case["argv"]
    if argv[0] in REPORTING:
        argv = argv + ["--format", fmt]
    return run(argv)


def record(case) -> dict:
    """The golden entry of ``case``, run in the current working directory
    once in each format; the two runs must agree on exit code and stderr."""
    code, out, err = run_case(case)
    human_code, human, human_err = run_case(case, "human")
    if (human_code, human_err) != (code, err):
        raise RuntimeError(f"{case['name']}: the human run exited {human_code}: {human_err}")
    return {**case, "exit_code": code, "stderr": err,
            "report": json.loads(out) if out else None, "human": human}


def assert_same_up_to_float_noise(a, b, where="report"):
    """``a`` equals ``b`` in structure, types and every non-float value, and
    floats agree within 1e-12: the difference BLAS thread counts may make."""
    assert type(a) is type(b), where
    if isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            assert_same_up_to_float_noise(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_up_to_float_noise(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert abs(a - b) <= 1e-12, where
    else:
        assert a == b, where


def path(name: str) -> str:
    return os.path.join(GOLDEN, f"{name}.json")


def regenerate() -> None:
    """Rewrite ``golden/`` from the current tree, one file per case."""
    os.makedirs(GOLDEN, exist_ok=True)
    for stale in os.listdir(GOLDEN):
        if stale.endswith(".json"):
            os.remove(os.path.join(GOLDEN, stale))
    home = os.getcwd()
    for case in CASES:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                entry = record(case)
            finally:
                os.chdir(home)
        with open(path(case["name"]), "w", encoding="utf-8") as fh:
            json.dump(entry, fh, indent=1, sort_keys=True)
            fh.write("\n")
        sys.stdout.write(f"{case['name']}: exit {entry['exit_code']}\n")


if __name__ == "__main__":
    regenerate()
