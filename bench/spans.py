"""Spans around calls into entscan's layers, recorded from outside the program.

``Tracer.install`` replaces module attributes of ``entscan`` (and
``numpy.linalg.eigvalsh``, the solver ``gpt_scan`` uses on partial-transpose
subsets) with timing wrappers; ``uninstall`` puts the originals back. No
library code changes: the wrappers sit at the names the library looks up at
call time. Spans stay in memory until ``write``.

A span is ``[id, op_id, parent_id, name, start_ns, end_ns, error, note]``;
``note`` is a size the metrics need (matrix side, output length, matrix
shape). The layer of a span is the part of its name before the first dot.
"""

import json
import time
import types
from collections import Counter

LAYERS = ("cli", "states", "reshape", "linalg", "criteria")

# Per-op means derived from spans; a layer an op never calls contributes 0.
SPAN_METRICS = (
    "cli.load_ms", "cli.report_build_ms", "cli.report_build_self_ms",
    "cli.render_json_ms", "cli.render_human_ms", "cli.report_bytes", "cli.scan_family_ms",
    "states.generate_ms", "states.generate_calls",
    "reshape.enumerate_ms", "reshape.transpose_ms", "reshape.subsets",
    "reshape.bytes_computed",
    "linalg.solve_ms", "linalg.svd_calls", "linalg.eigh_calls", "linalg.flops_computed",
    "criteria.gpt_scan_ms", "criteria.scan_self_ms", "criteria.ppt_ms",
    "criteria.realignment_ms", "criteria.negativity_ms",
)


def _shape(args, kwargs, result):
    return list(args[0].shape)


def _side(args, kwargs, result):
    return args[0].dim


def _length(args, kwargs, result):
    return len(result)


class Tracer:
    def __init__(self):
        self.spans = []
        self.errors = Counter()  # (layer, exception type) -> count
        self._stack = []
        self._next_id = 0
        self._op_id = None
        self._saved = []

    # -- spans ----------------------------------------------------------------

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def wrap(self, name, fn, note=None):
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            sid = self._new_id()
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            error = extra = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    extra = note(args, kwargs, result)
                return result
            except Exception as exc:
                error = type(exc).__name__
                self.errors[(layer, error)] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append([sid, self._op_id, parent, name, start, end, error, extra])

        return traced

    def op(self, name, fn):
        """Run ``fn()`` as the root span of a new op; return the op's span id
        and the result."""
        self._op_id = self._new_id()
        try:
            return self._op_id, self.wrap(name, fn)()
        finally:
            self._op_id = None

    # -- patching -------------------------------------------------------------

    def install(self):
        import numpy.linalg

        import entscan.cli as cli
        import entscan.criteria as criteria
        import entscan.linalg as linalg

        json_shim = types.ModuleType("json")
        json_shim.__dict__.update(vars(json))
        json_shim.dumps = self.wrap("cli.json_dumps", json.dumps, _length)
        table = [
            (cli, "parse_state_spec", "states.parse_state_spec", None),
            (cli, "generate", "states.generate", None),
            (cli, "load_matrix_file", "cli.load_matrix_file", None),
            (cli, "density_matrix", "linalg.density_matrix", None),
            (cli, "build_analyze_report", "cli.build_analyze_report", None),
            (cli, "render_human_analyze", "cli.render_human_analyze", _length),
            (cli, "cmd_scan_family", "cli.cmd_scan_family", None),
            (cli, "evaluate_subset", "criteria.evaluate_subset", None),
            (cli, "gpt_scan", "criteria.gpt_scan", None),
            (cli, "ppt_criterion", "criteria.ppt_criterion", None),
            (cli, "realignment_criterion", "criteria.realignment_criterion", None),
            (criteria, "negativity", "criteria.negativity", None),
            (criteria, "enumerate_label_subsets", "reshape.enumerate_label_subsets", None),
            (criteria, "generalized_transpose", "reshape.generalized_transpose", _side),
            (linalg, "singular_values", "linalg.singular_values", _shape),
            (numpy.linalg, "eigvalsh", "linalg.eigvalsh", _shape),
        ]
        self._saved = [(cli, "json", cli.json)]
        cli.json = json_shim
        for module, attr, name, note in table:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, note))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def write(self, path):
        fields = ["id", "op", "parent", "name", "start_ns", "end_ns", "error", "note"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


# --- per-layer metrics -------------------------------------------------------

def _eigh_flops(n):
    # complex Hermitian eigenvalues only: tridiagonal reduction, 4 x (4/3 n^3)
    return 16.0 * n**3 / 3.0


def _svd_flops(m, n):
    # complex singular values only: bidiagonalization, 4 x (4 m n^2 - 4/3 n^3)
    m, n = max(m, n), min(m, n)
    return 16.0 * m * n * n - 16.0 * n**3 / 3.0


def _ms(ns):
    return ns / 1e6


def op_layer_totals(spans):
    """Per-layer totals for the spans of one op (the root span included)."""
    child_ns = Counter()
    for s in spans:
        if s[2] is not None:
            child_ns[s[2]] += s[5] - s[4]
    names = {s[0]: s[3] for s in spans}
    t = Counter()
    shapes = Counter()
    for sid, _, parent, name, start, end, _, note in spans:
        d = end - start
        if name in ("states.parse_state_spec", "states.generate"):
            t["states.generate_ms"] += _ms(d)
            t["states.generate_calls"] += name == "states.generate"
        elif name in ("cli.load_matrix_file", "linalg.density_matrix"):
            t["cli.load_ms"] += _ms(d)
        elif name == "cli.build_analyze_report":
            t["cli.report_build_ms"] += _ms(d)
            t["cli.report_build_self_ms"] += _ms(d - child_ns[sid])
        elif name == "cli.json_dumps":
            t["cli.render_json_ms"] += _ms(d)
            t["cli.report_bytes"] += note or 0  # no note when the call raised
        elif name == "cli.render_human_analyze":
            t["cli.render_human_ms"] += _ms(d)
            t["cli.report_bytes"] += note or 0
        elif name == "cli.cmd_scan_family":
            t["cli.scan_family_ms"] += _ms(d)
        elif name == "reshape.enumerate_label_subsets":
            t["reshape.enumerate_ms"] += _ms(d)
        elif name == "criteria.gpt_scan":
            t["criteria.gpt_scan_ms"] += _ms(d)
            t["criteria.scan_self_ms"] += _ms(d - child_ns[sid])
        elif name == "criteria.ppt_criterion":
            t["criteria.ppt_ms"] += _ms(d)
        elif name == "criteria.realignment_criterion":
            t["criteria.realignment_ms"] += _ms(d)
        elif name == "criteria.negativity":
            t["criteria.negativity_ms"] += _ms(d)
        if names.get(parent) != "criteria.gpt_scan":
            continue
        # the per-subset work of the scan itself
        if name == "reshape.generalized_transpose":
            t["reshape.transpose_ms"] += _ms(d)
            t["reshape.subsets"] += 1
            t["reshape.bytes_computed"] += 2 * 16 * note * note  # read + written
        elif name in ("linalg.singular_values", "linalg.eigvalsh"):
            t["linalg.solve_ms"] += _ms(d)
            rows, cols = note
            if name == "linalg.eigvalsh":
                t["linalg.eigh_calls"] += 1
                t["linalg.flops_computed"] += _eigh_flops(rows)
            else:
                t["linalg.svd_calls"] += 1
                t["linalg.flops_computed"] += _svd_flops(rows, cols)
            shapes[(name.split(".")[1], rows, cols)] += 1
    return t, shapes


def layer_metrics(spans, op_ids, errors):
    """Mean per op over ``op_ids`` of every per-layer total, plus error counts
    per layer and solver calls by shape."""
    per_op = {op: [] for op in op_ids}
    for s in spans:
        if s[1] in per_op:
            per_op[s[1]].append(s)
    sums = Counter()
    shapes = Counter()
    for op_spans in per_op.values():
        totals, op_shapes = op_layer_totals(op_spans)
        sums.update(totals)
        shapes.update(op_shapes)
    count = max(1, len(per_op))
    metrics = {name: sums[name] / count for name in SPAN_METRICS}
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = sum(n for (lay, _), n in errors.items() if lay == layer)
    by_shape = {f"{kind} {r}x{c}": n / count for (kind, r, c), n in sorted(shapes.items())}
    return metrics, by_shape
