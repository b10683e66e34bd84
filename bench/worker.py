"""One workload run in a fresh process, started by ``run.py``.

The worker imports entscan, runs the workload's warm-up op and prints a
``READY`` line; ``run.py`` times set-up from spawning this process to that
line. With ``--setup-only`` it stops there. Otherwise it runs the op loop
(timed, or traced with ``--trace 1``), checks every output, and prints one
``RESULT`` JSON line. Input generation and output checking never fall inside
an op's timing.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import checks
import stats
import workloads
from spans import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A run never loops longer than this, whatever --seconds and MIN_OPS ask.
MAX_LOOP_S = 120.0
OP_TIMEOUT_S = 30


def run_inproc(cli, argv):
    """``entscan.cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # a traceback is a failed op, not a failed benchmark
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def run_subprocess(argv):
    """``python -m entscan.cli argv``; a hung op is killed and counts as failed."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "entscan.cli", *argv],
            capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        return None, "", f"no answer within {OP_TIMEOUT_S} s"
    return proc.returncode, proc.stdout, proc.stderr


def op_argv(op, files_dir, cli):
    """The op's argv; writes its matrix file first when it reads one."""
    argv = list(op["argv"])
    if "file" in op:
        spec, name = op["file"]
        path = os.path.join(files_dir, name)
        if not os.path.exists(path):
            rc, _, err = run_inproc(cli, ["generate", spec, path])
            if rc != 0:
                raise RuntimeError(f"entscan generate {spec} failed: {err}")
        argv[1] = path
    return argv


# --- environment ---------------------------------------------------------------

def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    # the ceiling keeps git from reporting a repository that merely encloses ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:  # no git on this machine
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "unknown")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env_set_by_benchmark": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": _git_commit(),
    }


# --- checking --------------------------------------------------------------------

def oracle_check(records, files_dir, generate):
    """Run the oracle step of ``checks`` over every recorded op."""
    import numpy

    sys.dont_write_bytecode = True  # tests/ is imported read-only
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import reference

    oracle = checks.Oracle(reference, numpy, generate)
    for op, _, summary in records:
        try:
            oracle.verify(op, summary, files_dir)
        except Exception as exc:  # any oracle failure marks this op failed
            summary["problems"].append(f"oracle check raised {type(exc).__name__}: {exc}")


def tally(records):
    failed = [(op, s["problems"]) for op, _, s in records if s["problems"]]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "failures": [{"argv": op["argv"], "problems": p} for op, p in failed[:10]],
    }


# --- loops -----------------------------------------------------------------------

def timed_loop(args, cli, ops, files_dir):
    def run(argv):
        if args.workload == "cli-mix":
            return run_subprocess(argv)
        return run_inproc(cli, argv)

    summarizer = checks.Summarizer(args.seed)
    records = []
    begin = time.perf_counter()
    for op in ops:
        argv = op_argv(op, files_dir, cli)
        start = time.perf_counter()
        rc, out, err = run(argv)
        latency = time.perf_counter() - start
        records.append((op, latency, summarizer.summarize(op, rc, out, err)))
        elapsed = time.perf_counter() - begin
        if len(records) >= args.max_ops or elapsed >= MAX_LOOP_S:
            break
        if elapsed >= args.seconds and len(records) >= workloads.MIN_OPS:
            break
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-mix" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB
    return records, peak_rss_mb


def traced_loop(args, cli, ops, files_dir):
    """Each op runs twice in-process, untraced and traced, in alternating
    order; the traced output must equal the untraced one byte for byte."""
    tracer = Tracer()
    summarizer = checks.Summarizer(args.seed)
    records, op_ids, ratios = [], [], []
    begin = time.perf_counter()
    for i, op in enumerate(ops):
        argv = op_argv(op, files_dir, cli)
        outputs, seconds = {}, {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                start = time.perf_counter()
                op_id, outputs[traced] = tracer.op(f"op.{op['kind']}",
                                                   lambda: run_inproc(cli, argv))
                seconds[traced] = time.perf_counter() - start
                tracer.uninstall()
                op_ids.append(op_id)
            else:
                start = time.perf_counter()
                outputs[traced] = run_inproc(cli, argv)
                seconds[traced] = time.perf_counter() - start
        rc, out, err = outputs[True]
        summary = summarizer.summarize(op, rc, out, err)
        if out != outputs[False][1]:
            summary["problems"].append("tracing changed the report bytes")
        records.append((op, seconds[True], summary))
        ratios.append(seconds[True] / seconds[False])
        elapsed = time.perf_counter() - begin
        if len(records) >= args.max_ops or elapsed >= args.seconds:
            break
    cycle = workloads.cycle_length(args.workload)
    whole = (len(op_ids) // cycle) * cycle or len(op_ids)
    metrics, by_shape = layer_metrics(tracer.spans, op_ids[:whole], tracer.errors)
    classes = {}
    for op_id, (op, _, _) in zip(op_ids, records):
        classes.setdefault(op["cls"], []).append(op_id)
    by_class = {cls: layer_metrics(tracer.spans, ids, {})[0] for cls, ids in classes.items()}
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    spans_path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.json")
    tracer.write(spans_path)
    extra = {
        "traced_ops": len(op_ids), "ops_in_layer_means": whole,
        "solver_calls_per_op_by_shape": by_shape,
        "layer_metrics_by_class": by_class,
        "errors_by_type": {f"{lay}.{typ}": n for (lay, typ), n in tracer.errors.items()},
        "spans": len(tracer.spans), "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return records, metrics, extra


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=10**9)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # --- set-up: everything up to READY is timed by run.py -------------------
    import entscan
    import entscan.cli as cli

    warmup = workloads.WARMUP[args.workload]
    if warmup is not None:
        rc, _, err = run_inproc(cli, warmup)
        if rc not in (0, 3):
            raise SystemExit(f"warm-up op failed: {err}")
    print("READY " + json.dumps({"entscan": entscan.__file__}), flush=True)
    if args.setup_only:
        return

    files_dir = os.path.join(args.out, f"files-{args.workload}-{os.getpid()}")
    os.makedirs(files_dir)
    try:
        ops = workloads.plan(args.workload, args.seed)
        result = {"environment": environment()}
        if args.trace:
            records, metrics, extra = traced_loop(args, cli, ops, files_dir)
            result.update(layer_metrics=metrics, trace=extra)
        else:
            records, peak_rss_mb = timed_loop(args, cli, ops, files_dir)
            latencies = [lat for _, lat, _ in records]
            result.update(
                latency_metrics=stats.latency_metrics(
                    latencies, workloads.cycle_length(args.workload)),
                peak_rss_mb=peak_rss_mb,
                latencies_s=latencies,
                classes=[op["cls"] for op, _, _ in records],
            )
        oracle_check(records, files_dir, entscan.generate)
        result.update(tally(records))
    finally:
        shutil.rmtree(files_dir, ignore_errors=True)
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
