"""Seeded op plans for the four benchmark workloads.

A plan is an endless sequence of ops built from a fixed cycle of op
classes. Every seeded state family gets a fresh seed per op, so ops of one
class share dims but never a matrix: per-dims planning inside the program
can amortize, a result cache cannot. The program only ever sees the spec
text, label text and matrix files produced here.

Each op is a dict:

- ``cls``: op class name (one entry of the cycle);
- ``kind``: ``analyze``, ``norms`` or ``scan-family``;
- ``argv``: CLI arguments after the program name;
- ``fmt``: ``human`` or ``json``;
- ``state``: spec text of the analysed state (``analyze``/``norms``);
- ``file``: ``(spec, name)`` when the state is read from a matrix file that
  ``entscan generate`` writes before the op;
- ``family``/``lo``/``hi``: the swept family and range (``scan-family``);
- ``expect``: closed-form facts the checker asserts.
"""

import random

WORKLOADS = ("cli-mix", "scan-qubits", "scan-wide", "sweep")

# Minimum ops per timed run: the p90 needs ten samples beyond it.
MIN_OPS = 100

THIRD = 1.0 / 3.0


def _away_from(rng, threshold, gap):
    """A parameter in [0, 1] at least ``gap`` away from ``threshold``."""
    if rng.random() < 0.5:
        return rng.uniform(0.0, threshold - gap)
    return rng.uniform(threshold + gap, 1.0)


def _seed(rng):
    return rng.randrange(1, 2**31)


def _analyze(cls, spec, fmt, expect=None, file_name=None):
    target = file_name if file_name is not None else spec
    op = {
        "cls": cls, "kind": "analyze", "fmt": fmt, "state": spec,
        "argv": ["analyze", target, "--format", fmt], "expect": expect or {},
    }
    if file_name is not None:
        op["file"] = (spec, file_name)
    return op


def _sweep(cls, family, lo, hi, fmt, expect):
    return {
        "cls": cls, "kind": "scan-family", "fmt": fmt, "family": family,
        "lo": lo, "hi": hi, "expect": expect,
        "argv": ["scan-family", family, "--min", repr(lo), "--max", repr(hi),
                 "--format", fmt],
    }


CERTIFIED = {"verdict": "ENTANGLED_CERTIFIED"}
UNDETECTED = {"verdict": "UNDETECTED"}


def _entangled_if(flag):
    return CERTIFIED if flag else UNDETECTED


# --- cli-mix: one subprocess per op -----------------------------------------

_BELL = ("phi+", "phi-", "psi+", "psi-")


def _cli_mix_cycle(rng, k):
    """Fourteen ops: eight zoo analyses, two file analyses, one norms query
    and three werner scans. The scans are the slowest class and make up 3/14
    of the ops, so p90 lands inside them and p50 inside the analyses."""
    fmt = "json" if k % 2 else "human"
    other = "human" if k % 2 else "json"
    p = _away_from(rng, THIRD, 0.05)
    f = _away_from(rng, THIRD, 0.05)
    bell = _BELL[k % 4]
    ops = [
        _analyze("zoo", f"bell:{bell}", fmt,
                 {"verdict": "ENTANGLED_CERTIFIED", "max_norm": 2.0, "measure_e": 0.5}),
        _analyze("zoo", f"werner:{p!r}", other, _entangled_if(p > THIRD)),
        _analyze("zoo", f"isotropic:3,{f!r}", fmt, _entangled_if(f > THIRD)),
        _analyze("zoo", f"horodecki3x3:{rng.uniform(0.1, 0.9)!r}", other, CERTIFIED),
        _analyze("zoo", f"horodecki2x4:{rng.uniform(0.05, 0.95)!r}", fmt, UNDETECTED),
        _analyze("zoo", ("ghz:3", "w:3")[k % 2], other, CERTIFIED),
        _analyze("zoo", f"sepmix:2x3,{rng.randint(1, 6)},{_seed(rng)}", fmt, UNDETECTED),
        _analyze("zoo", (f"productrandom:2x3,{_seed(rng)}", "maxmixed:2x3")[k % 2], other,
                 UNDETECTED),
        _analyze("file", f"randomdm:2x4,{rng.randint(1, 8)},{_seed(rng)}", fmt,
                 file_name=f"m{k}a.json"),
        _analyze("file", f"sepmix:2x2x2,{rng.randint(1, 6)},{_seed(rng)}", other,
                 UNDETECTED, file_name=f"m{k}b.json"),
    ]
    state = f"randomdm:2x2,{rng.randint(1, 4)},{_seed(rng)}"
    labels = sorted(rng.sample(["rA", "cA", "rB", "cB"], rng.randint(0, 4)))
    ops.append({
        "cls": "norms", "kind": "norms", "fmt": fmt, "state": state,
        "labels": ",".join(labels), "expect": {},
        "argv": ["norms", state, ",".join(labels), "--format", fmt],
    })
    for i in range(3):
        lo, hi = rng.uniform(0.0, 0.25), rng.uniform(0.45, 1.0)
        ops.append(_sweep("scan", "werner", lo, hi, (fmt, other)[i % 2],
                          {"threshold": THIRD}))
    return ops


# --- scan-qubits: 4-qubit analyze, in-process --------------------------------

# Four qubits, not five: on a shared 2-core VM, 5-qubit runs (512 subsets,
# 170 KB reports) drifted about twice as much between runs as the other
# workloads, past a 0.25 bound in two of three sets of ten runs. At D = 16
# the per-subset label bookkeeping dominates even more.
_Q4 = "2x2x2x2"


def _scan_qubits_cycle(rng, k):
    """Seven ops, two of them full-rank randomdm, so the randomdm classes hold
    p90; the classes lie within 10 % of each other in time."""
    return [
        _analyze("randomdm-full", f"randomdm:{_Q4},16,{_seed(rng)}", "json"),
        _analyze("randomdm-rank2", f"randomdm:{_Q4},2,{_seed(rng)}", "json"),
        _analyze("sepmix", f"sepmix:{_Q4},{rng.randint(2, 8)},{_seed(rng)}", "json",
                 UNDETECTED),
        _analyze("productrandom", f"productrandom:{_Q4},{_seed(rng)}", "json",
                 UNDETECTED),
        _analyze("ghz4", "ghz:4", "json", CERTIFIED),
        _analyze("randomdm-full", f"randomdm:{_Q4},16,{_seed(rng)}", "json"),
        _analyze("w4", "w:4", "json", CERTIFIED),
    ]


# --- scan-wide: D = 64..81 analyze, in-process -------------------------------

# Share of ops per sub-cycle: 8x8 20 %, 4x4x4 50 %, 3^4 30 %. With one 2^6
# op per three sub-cycles the sorted latencies put p50 in the middle of the
# 4x4x4 class and p90 in the middle of the 3^4 class.
_WIDE_SUB = ("8", "444", "444", "3333r", "444", "8", "444", "3333s", "444", "444",
             "8", "3333r", "444", "444", "3333s", "8", "444", "3333r", "444", "3333s")
WIDE_SUBCYCLES = 3


def _wide_op(rng, tag):
    if tag == "8":
        return _analyze("8x8", f"randomdm:8x8,64,{_seed(rng)}", "json")
    if tag == "444":
        return _analyze("4x4x4", f"randomdm:4x4x4,64,{_seed(rng)}", "json")
    if tag == "3333r":
        return _analyze("3^4", f"randomdm:3x3x3x3,81,{_seed(rng)}", "json")
    if tag == "3333s":
        return _analyze("3^4", f"sepmix:3x3x3x3,{rng.randint(2, 8)},{_seed(rng)}",
                        "json", UNDETECTED)
    return _analyze("2^6", f"randomdm:2x2x2x2x2x2,64,{_seed(rng)}", "json")


def _scan_wide_cycle(rng, k):
    ops = [_wide_op(rng, tag) for _ in range(WIDE_SUBCYCLES) for tag in _WIDE_SUB]
    ops.append(_wide_op(rng, "2^6"))
    return ops


# --- sweep: scan-family, in-process ------------------------------------------

def _sweep_cycle(rng, k):
    return [
        _sweep("werner", "werner", rng.uniform(0.0, 0.25), rng.uniform(0.45, 1.0),
               "json", {"threshold": THIRD}),
        _sweep("isotropic3", "isotropic:3", rng.uniform(0.0, 0.25),
               rng.uniform(0.45, 1.0), "json", {"threshold": THIRD}),
        _sweep("isotropic5", "isotropic:5", rng.uniform(0.0, 0.12),
               rng.uniform(0.3, 1.0), "json", {"threshold": 0.2}),
        # entangled on the whole open interval (0, 1): the threshold is 0
        _sweep("horodecki3x3", "horodecki3x3", 0.0, rng.uniform(0.3, 1.0),
               "json", {"threshold": 0.0}),
        _sweep("horodecki2x4", "horodecki2x4", rng.uniform(0.0, 0.3),
               rng.uniform(0.6, 1.0), "json", {"threshold": None}),
    ]


_CYCLES = {
    "cli-mix": _cli_mix_cycle,
    "scan-qubits": _scan_qubits_cycle,
    "scan-wide": _scan_wide_cycle,
    "sweep": _sweep_cycle,
}

# One op per workload run during set-up, with a seed the plan never uses.
WARMUP = {
    "cli-mix": None,
    "scan-qubits": ["analyze", f"randomdm:{_Q4},16,0", "--format", "json"],
    "scan-wide": ["analyze", "randomdm:3x3x3x3,81,0", "--format", "json"],
    "sweep": ["scan-family", "werner", "--min", "0.0", "--max", "1.0", "--format", "json"],
}


def cycle_length(workload):
    return len(_CYCLES[workload](random.Random(0), 0))


def plan(workload, seed):
    """Yield ops forever; the same (workload, seed) gives the same ops."""
    rng = random.Random(f"{workload}:{seed}")
    build = _CYCLES[workload]
    k = 0
    while True:
        for op in build(rng, k):
            yield op
        k += 1
