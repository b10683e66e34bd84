"""Command-line front end.

Subcommands: ``analyze`` (run all criteria on a state), ``norms`` (one
label subset), ``scan-family`` (detection threshold of a one-parameter
family), ``generate`` (write a matrix file).

Exit codes: 0 = ran fine / nothing detected, 1 = input error or a reader
that closed stdout early, 2 = numerical failure or out of memory,
3 = entanglement certified (analyze only). JSON is written in blocks of
about 32 KB, so a write that fails midway (exit 1 or 2) leaves a truncated
report on stdout. The tolerances are fixed
constants, listed in the analyze report. Input whose own trace norm (scan
mask 0) exceeds 1 + NORM_TOL is not a state and exits 1: analyze and norms
read every row from ``criteria.subset_table``, which refuses it before
solving anything else. Specs and files are held to D <= MAX_KRON_DIM, and mixture
terms to at most MAX_KRON_DIM, before anything is allocated; analyze also
refuses a spec or file beyond the scan limit of MAX_SCAN_SUBSYSTEMS
subsystems before building its state.

Reports contain no timestamps or file paths, only content, so identical
inputs and flags produce byte-identical output on the same build with the
same BLAS thread count.
"""

import argparse
import json
import os
import sys
from functools import cache
from itertools import islice
from math import isfinite, prod

import numpy as np

from . import __version__
from .criteria import NORM_TOL, Verdict, gpt_scan, negativity, subset_table
from .criteria import ppt_criterion, realignment_criterion
# not called here; kept in this namespace for tracers that look it up
from .criteria import evaluate_subset  # noqa: F401
from .errors import InvalidInputError, NumericalError
from .linalg import HERM_TOL, TRACE_TOL, DensityMatrix, check_dimension, density_matrix
from .reshape import check_scan_limit, format_label_set, parse_label_set, subsystem_letters
from .states import StateSpec, family_help, generate, parse_state_spec, parse_sweep
from .states import spec_text, subsystem_count

PARAM_TOL = 1e-6  # absolute tolerance of the scan-family bisection
GRID_POINTS = 33  # scan-family samples before bisection
_WRITE_CHUNKS = 4096  # encoder chunks per JSON write, about 32 KB of text


# --- matrix files -----------------------------------------------------------

def load_matrix_file(path: str, scan: bool = False):
    """Read a matrix file: dims, D x D entries as [re, im] pairs, metadata.

    Returns ``(matrix, dims, name)``; raises
    :class:`InvalidInputError` with the offending line or field on any
    malformed content. The whole JSON is parsed first; with ``scan`` a file
    beyond the scan limit is then refused on its ``dims``, before its matrix
    is checked or converted.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # not UTF-8, an integer over Python's int() digit limit, or too deep
        raise InvalidInputError(f"{path}: unreadable JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInputError(f"{path}: top level must be a JSON object")
    dims = check_dimension(data.get("dims"), f"{path}: field 'dims'")
    if scan:
        check_scan_limit(len(dims))
    side = prod(dims)
    rows = data.get("matrix")
    if not isinstance(rows, list) or len(rows) != side:
        raise InvalidInputError(f"{path}: field 'matrix' must be a {side}x{side} array")
    # exact types, as json.load returns them: np.array would also read true
    # and numeric strings as numbers
    for i, row in enumerate(rows):
        if type(row) is not list or len(row) != side:
            raise InvalidInputError(f"{path}: matrix[{i}] must have {side} entries")
        for j, cell in enumerate(row):
            if not (type(cell) is list and len(cell) == 2
                    and type(cell[0]) in (int, float) and type(cell[1]) in (int, float)):
                raise InvalidInputError(
                    f"{path}: matrix[{i}][{j}] must be a [re, im] pair of numbers"
                )
    try:  # a [re, im] pair is the float64 layout of one complex128 entry
        mat = np.array(rows, dtype=float).view(complex)[..., 0]
    except OverflowError:
        raise InvalidInputError(
            f"{path}: field 'matrix' holds a number too large for a double"
        ) from None
    name = data.get("name")
    description = data.get("description")
    for field, value in (("name", name), ("description", description)):
        if value is not None and not isinstance(value, str):
            raise InvalidInputError(f"{path}: field '{field}' must be a string")
    return mat, dims, name


def _write_json(fh, obj, **encoder_options) -> None:
    """Write ``obj`` as JSON, then a newline, to ``fh`` in blocks of
    ``_WRITE_CHUNKS`` encoder chunks, never holding the whole text."""
    chunks = json.JSONEncoder(**encoder_options).iterencode(obj)
    while block := "".join(islice(chunks, _WRITE_CHUNKS)):
        fh.write(block)
    fh.write("\n")


def save_matrix_file(path: str, rho: DensityMatrix, name=None) -> None:
    data = {
        "dims": list(rho.dims),
        "matrix": rho.mat.view(float).reshape(rho.dim, rho.dim, 2).tolist(),
    }
    if name is not None:
        data["name"] = name
    try:
        with open(path, "w", encoding="utf-8") as fh:
            _write_json(fh, data, indent=1)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc}") from exc


def _resolve_input(text: str, scan: bool = False):
    """Interpret ``text`` as an existing matrix file, else as a state spec.

    With ``scan`` a file or spec beyond the scan limit is refused before its
    state is built.
    """
    if os.path.exists(text):
        mat, dims, name = load_matrix_file(text, scan=scan)
        return density_matrix(mat, dims), (name or "")
    try:
        spec = parse_state_spec(text)
    except InvalidInputError as exc:
        raise InvalidInputError(
            f"input {text!r} is neither an existing file nor a state spec ({exc})"
        ) from exc
    if scan:
        check_scan_limit(subsystem_count(spec))
    return generate(spec), spec_text(spec)


# --- report assembly --------------------------------------------------------

def _subset_dict(res) -> dict:
    return {
        "labels": res.label_text(),
        "mask": res.mask,
        "complement": format_label_set(res.complement_mask, len(res.dims)),
        "shape": list(res.shape),
        "trace_norm": res.trace_norm,
        "hermitian_case": res.is_hermitian_case,
        "min_eigenvalue": res.min_eigenvalue,
        "violating": res.violating,
    }


def build_analyze_report(rho: DensityMatrix, name: str) -> dict:
    """The analyze report; PPT, realignment and negativities are read from
    the one scan, which evaluates each distinct subset once."""
    n = len(rho.dims)
    scan = gpt_scan(rho)
    ppt_rows = []
    for res in ppt_criterion(scan):
        row = _subset_dict(res)
        row["subsystems"] = subsystem_letters(res.mask, n, 3)
        ppt_rows.append(row)
    realignment_rows = []
    for res in realignment_criterion(scan):
        row = _subset_dict(res)
        # a cut's mask holds c_k for k on the left, r_k for k on the right
        row["cut"] = f"{subsystem_letters(res.mask, n, 2)}|{subsystem_letters(res.mask, n, 1)}"
        realignment_rows.append(row)
    return {
        "tool": {"name": "entscan", "version": __version__},
        "input": {
            "name": name,
            "dims": list(rho.dims),
            "trace_re": rho.trace().real,
            "trace_im": rho.trace().imag,
            "hermiticity_residual": rho.hermiticity_residual(),
        },
        "tolerances": {
            "hermiticity_tol": HERM_TOL,
            "trace_tol": TRACE_TOL,
            "norm_tol": NORM_TOL,
        },
        "ppt": {"results": ppt_rows},
        "realignment": {"applicable": n >= 2, "results": realignment_rows},
        "scan": {
            "subsets_evaluated": len(scan.results),
            "results": [_subset_dict(res) for res in scan.results],
            "max_norm": scan.max_norm,
            "argmax_labels": scan.argmax.label_text(),
            "violations": [format_label_set(mask, n) for mask in scan.violations],
        },
        "verdict": scan.verdict.value,
        "measure_e": scan.measure_e,
        "negativity_per_subsystem": [negativity(scan, k) for k in range(n)],
    }


def render_human_analyze(report: dict) -> str:
    lines = []
    tool = report["tool"]
    inp = report["input"]
    lines.append(f"{tool['name']} {tool['version']} separability report")
    lines.append(
        "input: {}  dims {}  trace {}{}{}j  herm residual {}".format(
            inp["name"] or "(unnamed)",
            "x".join(str(d) for d in inp["dims"]),
            repr(inp["trace_re"]),
            "+" if inp["trace_im"] >= 0 else "-",
            repr(abs(inp["trace_im"])),
            repr(inp["hermiticity_residual"]),
        )
    )
    tol = report["tolerances"]
    lines.append(
        "tolerances: norm_tol {}  trace_tol {}".format(
            repr(tol["norm_tol"]), repr(tol["trace_tol"])
        )
    )
    lines.append("")
    lines.append("partial transposition (PPT):")
    if not report["ppt"]["results"]:
        lines.append("  (single subsystem: nothing to transpose)")
    for row in report["ppt"]["results"]:
        lines.append(
            "  X={{{}}}  min eig {}  trace norm {}  {}".format(
                row["subsystems"], repr(row["min_eigenvalue"]),
                repr(row["trace_norm"]),
                "VIOLATION" if row["violating"] else "ok",
            )
        )
    lines.append("realignment across bipartite cuts:")
    if not report["realignment"]["applicable"]:
        lines.append("  (single subsystem: not applicable)")
    for row in report["realignment"]["results"]:
        lines.append(
            "  {}  shape {}x{}  trace norm {}  {}".format(
                row["cut"], row["shape"][0], row["shape"][1],
                repr(row["trace_norm"]),
                "VIOLATION" if row["violating"] else "ok",
            )
        )
    scan = report["scan"]
    lines.append(
        "label-subset scan ({} subsets, complement pairs deduped):".format(
            scan["subsets_evaluated"]
        )
    )
    for row in scan["results"]:
        mineig = (
            f"  min eig {row['min_eigenvalue']!r}"
            if row["min_eigenvalue"] is not None
            else ""
        )
        lines.append(
            "  [{:>4}] {{{}}}  shape {}x{}  trace norm {}{}  {}".format(
                row["mask"], row["labels"], row["shape"][0], row["shape"][1],
                repr(row["trace_norm"]), mineig,
                "VIOLATION" if row["violating"] else "ok",
            )
        )
    lines.append(
        "max norm {} at {{{}}}".format(repr(scan["max_norm"]), scan["argmax_labels"])
    )
    lines.append("")
    lines.append(f"verdict: {report['verdict']}")
    lines.append(f"E = {report['measure_e']!r}")
    lines.append(
        "negativity per subsystem: [{}]".format(
            ", ".join(repr(v) for v in report["negativity_per_subsystem"])
        )
    )
    return "\n".join(lines) + "\n"


def _emit(report: dict, fmt: str, human_renderer) -> None:
    if fmt == "json":
        _write_json(sys.stdout, report, indent=2, sort_keys=True)
    else:
        sys.stdout.write(human_renderer(report))


# --- subcommands ------------------------------------------------------------

def cmd_analyze(args) -> int:
    rho, name = _resolve_input(args.input, scan=True)
    report = build_analyze_report(rho, name)
    _emit(report, args.format, render_human_analyze)
    return 3 if report["verdict"] == Verdict.ENTANGLED_CERTIFIED.value else 0


def render_human_norms(report: dict) -> str:
    return (
        "labels {{{}}}  shape {}x{}  trace norm {}{}\n".format(
            report["labels"], report["shape"][0], report["shape"][1],
            repr(report["trace_norm"]),
            "  VIOLATION" if report["violating"] else "",
        )
    )


def cmd_norms(args) -> int:
    rho, _ = _resolve_input(args.input)
    mask = parse_label_set(args.labels, len(rho.dims))
    # the scan's own table: refuses a non-state and prints the analyze row bitwise
    report = _subset_dict(subset_table(rho)(mask))
    _emit(report, args.format, render_human_norms)
    return 0


def render_human_scan_family(report: dict) -> str:
    lines = [
        "threshold scan: {} over [{}, {}] ({} grid points)".format(
            report["family"], repr(report["param_min"]), repr(report["param_max"]),
            report["grid_points"],
        )
    ]
    for row in report["grid"]:
        lines.append(
            "  param {}  max norm {}  {}".format(
                repr(row["param"]), repr(row["max_norm"]),
                "VIOLATION" if row["violating"] else "ok",
            )
        )
    lines.append(report["message"])
    if report["threshold"] is not None:
        lines.append(
            "threshold: {} (+/- {})  first violating subset: {{{}}}".format(
                repr(report["threshold"]), repr(report["param_tol"]),
                report["first_violating_labels"],
            )
        )
    return "\n".join(lines) + "\n"


def cmd_scan_family(args) -> int:
    family, fixed, desc = parse_sweep(args.family)
    lo, hi = args.min, args.max
    if not lo < hi:
        raise InvalidInputError(f"need min < max, got [{lo}, {hi}]")
    if not isfinite(hi - lo):  # an infinite end or width would make the grid nan
        raise InvalidInputError(f"need a finite range, got [{lo}, {hi}]")

    def build(value: float) -> DensityMatrix:
        return generate(StateSpec(family, fixed + (value,)))

    grid = [lo + (hi - lo) * i / (GRID_POINTS - 1) for i in range(GRID_POINTS)]
    scans = [gpt_scan(build(value)) for value in grid]
    grid_rows = [
        {"param": value, "max_norm": rep.max_norm, "violating": bool(rep.violations)}
        for value, rep in zip(grid, scans)
    ]

    # the first grid point whose right neighbour has the other verdict
    left = next(
        (i for i in range(GRID_POINTS - 1)
         if grid_rows[i]["violating"] != grid_rows[i + 1]["violating"]),
        None,
    )

    threshold = None
    first_labels = None
    if left is None:  # every grid point has the first one's verdict
        if grid_rows[0]["violating"]:
            message = "no threshold in range (every sampled parameter violates)"
        else:
            message = "no threshold in range"
    else:
        # orient the bracket: ok_end stays non-violating, bad_end violating,
        # and bad_scan is the scan already made at bad_end
        ok, bad = (left, left + 1) if grid_rows[left + 1]["violating"] else (left + 1, left)
        ok_end, bad_end, bad_scan = grid[ok], grid[bad], scans[bad]
        while abs(bad_end - ok_end) > PARAM_TOL:
            mid = 0.5 * (ok_end + bad_end)
            mid_scan = gpt_scan(build(mid))
            if mid_scan.violations:
                bad_end, bad_scan = mid, mid_scan
            else:
                ok_end = mid
        threshold = 0.5 * (ok_end + bad_end)
        first_labels = format_label_set(bad_scan.violations[0], len(bad_scan.dims))
        message = "violation threshold located"

    report = {
        "tool": {"name": "entscan", "version": __version__},
        "family": desc,
        "param_min": lo,
        "param_max": hi,
        "grid_points": GRID_POINTS,
        "param_tol": PARAM_TOL,
        "norm_tol": NORM_TOL,
        "grid": grid_rows,
        "threshold": threshold,
        "first_violating_labels": first_labels,
        "message": message,
    }
    _emit(report, args.format, render_human_scan_family)
    return 0


def cmd_generate(args) -> int:
    spec = parse_state_spec(args.spec)
    rho = generate(spec)
    save_matrix_file(args.output, rho, name=spec_text(spec))
    sys.stdout.write(
        "wrote {}x{} matrix (dims {}) to {}\n".format(
            rho.dim, rho.dim, "x".join(str(d) for d in rho.dims), args.output
        )
    )
    return 0


# --- argument parsing -------------------------------------------------------

def _add_format(sub) -> None:
    sub.add_argument("--format", choices=("human", "json"), default="human",
                     help="report format, default %(default)s")


def _add_state_input(sub) -> None:
    sub.add_argument("input", help="matrix file path or state spec text")
    _add_format(sub)


@cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entscan",
        description="Entanglement detection for multipartite density matrices "
                    "via trace norms of row/column-relabeled matrices.",
        epilog=f"state specs: {family_help()}",
    )
    parser.add_argument("--version", action="version", version=f"entscan {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    analyze = subs.add_parser(
        "analyze", help="run PPT, realignment and the full label-subset scan",
        epilog=f"state specs: {family_help()}",
    )
    _add_state_input(analyze)

    norms = subs.add_parser("norms", help="trace norm of one label subset")
    _add_state_input(norms)
    norms.add_argument("labels", help="label subset like 'cA,rB'; empty string for none")

    scan = subs.add_parser(
        "scan-family",
        help="locate the detection threshold of a one-parameter family",
    )
    scan.add_argument("family",
                      help="family with the swept parameter omitted, e.g. "
                           "'werner', 'isotropic:3', 'horodecki2x4'")
    scan.add_argument("--min", type=float, required=True, help="range start")
    scan.add_argument("--max", type=float, required=True, help="range end")
    _add_format(scan)

    gen = subs.add_parser("generate", help="write a state spec to a matrix file",
                          epilog=f"state specs: {family_help()}")
    gen.add_argument("spec", help="state spec text")
    gen.add_argument("output", help="output file path")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed its message; a usage error exits 1
        return 0 if exc.code in (0, None) else 1
    # looked up per call, not stored in the shared parser, so that a wrapped
    # cmd_* (a test's or a tracer's) is the one that runs
    command = {
        "analyze": cmd_analyze,
        "norms": cmd_norms,
        "scan-family": cmd_scan_family,
        "generate": cmd_generate,
    }[args.command]
    try:
        return command(args)
    except InvalidInputError as exc:
        sys.stderr.write(f"entscan: error: {exc}\n")
        return 1
    except NumericalError as exc:
        sys.stderr.write(f"entscan: numerical failure: {exc}\n")
        return 2
    except MemoryError:
        sys.stderr.write("entscan: out of memory\n")
        return 2
    except BrokenPipeError:
        # stdout's reader is gone: point fd 1 at devnull, so that the
        # interpreter's final flush of what is still buffered cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
