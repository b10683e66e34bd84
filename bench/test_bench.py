"""Tests of the benchmark itself: percentile rule, checker, smoke runs.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import stats
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))


# --- percentile rule -----------------------------------------------------------

@pytest.mark.parametrize("n, pct, rank", [(100, 90, 90), (99, 90, 90), (10, 50, 5),
                                          (11, 50, 6), (1, 90, 1), (1000, 99, 990)])
def test_nearest_rank(n, pct, rank):
    assert stats.rank(n, pct) == rank


def test_p90_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(100, 90) == 10 and stats.reportable(100, 90)
    assert stats.samples_beyond(99, 90) == 9 and not stats.reportable(99, 90)


def test_latency_metrics_withholds_p90_below_100_ops():
    assert stats.latency_metrics([0.01] * 99, 1)["latency_p90_ms"] is None
    values = [0.001 * (i + 1) for i in range(100)]
    got = stats.latency_metrics(values, 1)
    assert got["latency_p90_ms"] == pytest.approx(90.0)
    assert got["latency_p50_ms"] == pytest.approx(50.5)


def test_throughput_counts_whole_cycles_only():
    # cycle of two ops, 1 s and 3 s; the trailing partial cycle is left out
    got = stats.latency_metrics([1.0, 3.0, 1.0, 3.0, 1.0], 2)
    assert got["throughput_ops_s"] == pytest.approx(4 / 8)


def test_min_ops_makes_p90_reportable():
    assert stats.reportable(workloads.MIN_OPS, 90)


# --- the checker -----------------------------------------------------------------

def run_op(op):
    import io
    from contextlib import redirect_stdout

    from entscan import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(op["argv"])
    return rc, buf.getvalue()


def check(op, rc, out):
    """Both checking steps on one output; returns the problems."""
    import numpy
    import reference

    from entscan import generate

    summary = checks.Summarizer(0).summarize(op, rc, out)
    checks.Oracle(reference, numpy, generate).verify(op, summary, files_dir=None)
    return summary["problems"]


def first_op(workload, kind, fmt):
    for op in workloads.plan(workload, 3):
        if op["kind"] == kind and op["fmt"] == fmt and "file" not in op:
            return op


BELL = {"cls": "zoo", "kind": "analyze", "fmt": "json", "state": "bell:psi-",
        "argv": ["analyze", "bell:psi-", "--format", "json"],
        "expect": {"verdict": "ENTANGLED_CERTIFIED", "max_norm": 2.0, "measure_e": 0.5}}


@pytest.mark.parametrize("workload, kind, fmt", [
    ("cli-mix", "analyze", "human"), ("cli-mix", "analyze", "json"),
    ("cli-mix", "norms", "human"), ("cli-mix", "scan-family", "human"),
    ("scan-qubits", "analyze", "json"), ("sweep", "scan-family", "json"),
])
def test_true_outputs_pass(workload, kind, fmt):
    op = first_op(workload, kind, fmt)
    rc, out = run_op(op)
    assert check(op, rc, out) == []


def _tamper_norm(report):
    row = report["scan"]["results"][3]
    row["trace_norm"] += 1e-6  # still below 1: only the oracle can tell
    return report


def _tamper_max(report):
    report["scan"]["max_norm"] = 1.9
    return report


def _tamper_verdict(report):
    report["verdict"] = "UNDETECTED"
    return report


def _tamper_e(report):
    report["measure_e"] = 0.25
    return report


@pytest.mark.parametrize("tamper", [_tamper_norm, _tamper_max, _tamper_verdict, _tamper_e])
def test_wrong_report_counts_as_failed(tamper):
    rc, out = run_op(BELL)
    assert check(BELL, rc, out) == []
    wrong = json.dumps(tamper(json.loads(out)))
    problems = check(BELL, rc, wrong)
    assert problems
    records = [(BELL, 0.1, {"problems": []}), (BELL, 0.1, {"problems": problems})]
    tally = worker.tally(records)
    assert (tally["attempted"], tally["failed"]) == (2, 1)


def test_wrong_exit_code_and_garbage_count_as_failed():
    rc, out = run_op(BELL)
    assert check(BELL, 0, out)  # certified needs exit code 3
    assert check(BELL, rc, "Traceback (most recent call last):\n")


def test_wrong_threshold_counts_as_failed():
    op = first_op("sweep", "scan-family", "json")
    rc, out = run_op(op)
    report = json.loads(out)
    report["threshold"] += 1e-3
    assert check(op, rc, json.dumps(report))


# --- whole runs --------------------------------------------------------------------

def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_checks_every_op(workload):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0",
                 "--max-ops", "6")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 6
    assert set(result["metrics"]) == {m["name"] for m in benchmark_json()["end_to_end"]}


def test_smoke_traced_run_reports_every_layer_metric():
    proc = bench("--workload", "cli-mix", "--seed", "5", "--seconds", "1", "--trace", "1",
                 "--max-ops", "14")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] and result["attempted"] == 14
    assert set(result["metrics"]) == {m["name"] for m in benchmark_json()["per_layer"]}
    spans_file = os.path.join(ROOT, "bench", "out", "spans-cli-mix-seed5.json")
    with open(spans_file, encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    ids = {s[0] for s in spans}
    assert all(s[2] is None or s[2] in ids for s in spans)  # parents exist
    roots = [s for s in spans if s[2] is None]
    assert len(roots) == 14 and all(s[3].startswith("op.") for s in roots)


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_refuses_without_sources():
    bare = os.path.join(HERE, "out", f"bare-{os.getpid()}")
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert "src" in proc.stderr
