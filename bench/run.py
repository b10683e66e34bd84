"""entscan benchmark: one workload run, end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Workloads: cli-mix, scan-qubits,
scan-wide, sweep; BENCHMARK.json lists cli-mix and scan-wide (see
bench/README.md for why each exists). The run:

- pins OpenBLAS/OpenMP to one thread in every process it starts;
- refuses to run unless ``entscan`` and ``python -m entscan.cli`` both
  resolve to ``src/`` of this checkout;
- runs the workload in a fresh worker process for ``--seconds`` (at least
  100 ops with ``--trace 0``) and checks every output;
- times set-up (fresh interpreter to ready) in that worker and in set-up-only
  workers started before and after it, and reports the median, so the
  samples span the whole run rather than one stretch of machine speed;
- prints every metric by name and unit, and as its last line one JSON
  object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
  metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Full results, with the environment block, go to ``bench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import stats
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_SPAWNS_EACH_SIDE = 3  # set-up-only workers before and after the workload's
STARTUP_SPAWNS = 5  # samples of each fresh-interpreter floor in traced runs
CHILD_TIMEOUT_S = 170


def fail(message):
    sys.stderr.write(f"bench: {message}\n")
    raise SystemExit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def under_src(path):
    return os.path.commonpath([os.path.realpath(path), os.path.realpath(SRC)]) == \
        os.path.realpath(SRC)


def guard_cli(env):
    """``python -m entscan.cli`` must load this checkout's ``src/``."""
    code = "import importlib.util; print(importlib.util.find_spec('entscan.cli').origin)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=False)
    origin = proc.stdout.strip()
    if proc.returncode != 0 or not under_src(origin):
        fail(f"python -m entscan.cli resolves to {origin or proc.stderr.strip()!r}, "
             f"not to {SRC}; refusing to measure another install")


def spawn_worker(args, env, setup_only):
    """Start a worker; return (process, seconds from spawn to READY)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    if args.max_ops is not None:
        cmd += ["--max-ops", str(args.max_ops)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        if not line.startswith("READY "):
            fail(f"worker did not become ready (exit {proc.poll()})")
        entscan_file = json.loads(line[len("READY "):])["entscan"]
        if not under_src(entscan_file):
            fail(f"entscan was imported from {entscan_file}, not from {SRC}; "
                 "refusing to measure another install")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, ready_s


def wait_for(proc):
    """Wait for a worker to exit; return its standard output."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("worker timed out")
    return out


def finish_worker(proc):
    out = wait_for(proc)
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        fail(f"worker failed (exit {proc.returncode})")
    return json.loads(lines[-1][len("RESULT "):])


def fresh_interpreter_ms(code, env):
    """Median wall time of ``python -c code`` in fresh processes."""
    times = []
    for _ in range(STARTUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       timeout=60)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def setup_only_samples(args, env, count):
    samples = []
    for _ in range(count):
        proc, ready_s = spawn_worker(args, env, setup_only=True)
        samples.append(ready_s)
        wait_for(proc)
    return samples


def measure(args):
    env = child_env()
    guard_cli(env)
    # only timed runs report setup_s; traced and smoke (--max-ops) runs take
    # the workload worker's sample alone
    timed = not args.trace and args.max_ops is None
    each_side = SETUP_SPAWNS_EACH_SIDE if timed else 0
    setups = setup_only_samples(args, env, each_side)
    proc, ready_s = spawn_worker(args, env, setup_only=False)
    setups.append(ready_s)
    result = finish_worker(proc)
    setups += setup_only_samples(args, env, each_side)
    result["setup_samples_s"] = setups
    if args.trace:
        metrics = dict(result["layer_metrics"])
        metrics["cli.startup_ms"] = fresh_interpreter_ms("import entscan.cli", env)
        metrics["cli.numpy_floor_ms"] = fresh_interpreter_ms("import numpy", env)
    else:
        metrics = dict(result["latency_metrics"])
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        metrics["success_rate"] = 1.0 - result["failed"] / result["attempted"]
    return result, metrics


def declared_units(trace):
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="stop after this many ops (smoke runs)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "entscan", "__init__.py")):
        fail(f"no entscan sources under {SRC}; run from a source checkout")
    os.makedirs(OUT, exist_ok=True)

    units = declared_units(args.trace)
    result, metrics = measure(args)
    if not set(units) <= set(metrics):
        fail(f"metrics {sorted(set(units) - set(metrics))} of BENCHMARK.json not measured")
    failed, attempted = result["failed"], result["attempted"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, **result}, fh, indent=1)
        fh.write("\n")

    print(f"entscan benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(result["environment"]))
    if args.trace:
        trace = result["trace"]
        print(f"per-layer metrics: mean per traced op over {trace['ops_in_layer_means']} ops; "
              f"spans in {trace['spans_file']}")
    else:
        print(f"end-to-end metrics over {attempted} ops (closed loop, one caller; "
              f"p90 has {stats.samples_beyond(attempted, 90)} samples beyond it); "
              f"error_rate {failed / attempted:g} ({failed} of {attempted})")
    for name in sorted(metrics):
        # only traced runs measure undeclared (workload-specific) metrics, all in ms
        note = "" if name in units else "  (workload-specific, not in BENCHMARK.json)"
        print(f"  {name:28s} {metrics[name]!r} {units.get(name, 'ms')}{note}")
    for failure in result["failures"]:
        print(f"  FAILED {' '.join(failure['argv'])}: {'; '.join(failure['problems'])}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in sorted(units.items())},
    }))


if __name__ == "__main__":
    main()
