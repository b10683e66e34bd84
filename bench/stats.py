"""Summary statistics for one benchmark run."""

import math
import statistics

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def rank(n, pct):
    """1-based nearest rank of the ``pct``-th percentile (``pct`` an int)."""
    return max(1, math.ceil(pct * n / 100))


def samples_beyond(n, pct):
    return n - rank(n, pct)


def reportable(n, pct):
    return samples_beyond(n, pct) >= MIN_BEYOND


def percentile(values, pct):
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), pct) - 1]


def latency_metrics(latencies_s, cycle_len):
    """Throughput over whole op cycles, median and p90 over every op.

    Throughput counts only whole cycles so that where the run happens to stop
    inside a cycle of unequal ops does not move it. In a closed loop with one
    caller it is ops divided by the time spent in them.
    """
    n = len(latencies_s)
    whole = (n // cycle_len) * cycle_len or n
    ms = [x * 1e3 for x in latencies_s]
    return {
        "throughput_ops_s": whole / sum(latencies_s[:whole]),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": percentile(ms, 90) if reportable(n, 90) else None,
    }
