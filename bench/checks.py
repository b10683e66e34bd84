"""Output checks for benchmark ops.

Checking runs in two steps, both outside the timed region:

1. ``summarize`` parses one op's output right after the op and keeps a small
   summary: the exit code, verdict, a few norms, and every problem found by
   the self-consistency and closed-form checks. Whole reports are not kept,
   so they do not inflate the worker's peak memory.
2. ``Oracle.verify`` runs after the timed loop. It recomputes the sampled
   trace norms with the naive loop oracles of ``tests/reference.py`` and
   compares them with the reported values within ``ORACLE_TOL``.

An op fails when either step finds a problem; failures feed ``error_rate``.
"""

import json
import random
import re

ORACLE_TOL = 1e-9
CERTIFIED = "ENTANGLED_CERTIFIED"
GRID_POINTS = 33  # the program's default grid for scan-family
# subsets per dims drawn for the oracle, besides each op's argmax
POOL_SIZE = 6


def mask_of_label_text(text):
    """``"rA,cB"`` -> canonical bitmask (bit 2k = r_k, bit 2k+1 = c_k)."""
    mask = 0
    for token in filter(None, (t.strip() for t in text.split(","))):
        k = ord(token[1]) - ord("A")
        mask |= 1 << (2 * k + (0 if token[0] == "r" else 1))
    return mask


def deduped_masks(n):
    full = (1 << (2 * n)) - 1
    return [m for m in range(full + 1) if m <= full ^ m]


def close(a, b, tol=ORACLE_TOL):
    return a is not None and b is not None and abs(a - b) <= tol


# --- parsing -----------------------------------------------------------------

_SUBSET_RE = re.compile(
    r"^\s+\[\s*(\d+)\] \{([^}]*)\}\s+shape (\d+)x(\d+)\s+trace norm (\S+)"
    r"(?:\s+min eig \S+)?\s+(ok|VIOLATION)$"
)
_DIMS_RE = re.compile(r"\sdims (\d+(?:x\d+)*)\s")


def _parse_analyze(out, fmt):
    """Reduce an analyze report to the fields the checks use."""
    if fmt == "json":
        rep = json.loads(out)
        scan = rep["scan"]
        return {
            "dims": tuple(rep["input"]["dims"]),
            "norm_tol": rep["tolerances"]["norm_tol"],
            "rows": [(r["mask"], r["trace_norm"], r["violating"]) for r in scan["results"]],
            "subsets_evaluated": scan["subsets_evaluated"],
            "max_norm": scan["max_norm"],
            "argmax_mask": mask_of_label_text(scan["argmax_labels"]),
            "violations": [mask_of_label_text(v) for v in scan["violations"]],
            "verdict": rep["verdict"],
            "measure_e": rep["measure_e"],
        }
    parsed = {"rows": [], "violations": []}
    for line in out.splitlines():
        m = _SUBSET_RE.match(line)
        if m:
            mask, norm, flag = int(m.group(1)), float(m.group(5)), m.group(6) == "VIOLATION"
            parsed["rows"].append((mask, norm, flag))
            if flag:
                parsed["violations"].append(mask)
        elif line.startswith("input: "):
            parsed["dims"] = tuple(int(d) for d in _DIMS_RE.search(line).group(1).split("x"))
        elif line.startswith("tolerances: norm_tol "):
            parsed["norm_tol"] = float(line.split()[2])
        elif line.startswith("label-subset scan ("):
            parsed["subsets_evaluated"] = int(line.split("(")[1].split()[0])
        elif line.startswith("max norm "):
            _, _, value, _, labels = line.split(" ", 4)
            parsed["max_norm"] = float(value)
            parsed["argmax_mask"] = mask_of_label_text(labels.strip("{}"))
        elif line.startswith("verdict: "):
            parsed["verdict"] = line.split(": ", 1)[1]
        elif line.startswith("E = "):
            parsed["measure_e"] = float(line[4:])
    return parsed


def _parse_norms(out, fmt):
    if fmt == "json":
        rep = json.loads(out)
        return rep["mask"], rep["trace_norm"], rep["violating"]
    m = re.match(r"^labels \{([^}]*)\}\s+shape \d+x\d+\s+trace norm (\S+)(\s+VIOLATION)?$",
                 out.strip())
    return mask_of_label_text(m.group(1)), float(m.group(2)), bool(m.group(3))


def _parse_scan_family(out, fmt):
    if fmt == "json":
        rep = json.loads(out)
        return {
            "grid": [(r["param"], r["max_norm"], r["violating"]) for r in rep["grid"]],
            "threshold": rep["threshold"],
            "first": rep["first_violating_labels"],
            "message": rep["message"],
            "param_tol": rep["param_tol"],
            "norm_tol": rep["norm_tol"],
        }
    parsed = {"grid": [], "threshold": None, "first": None}
    lines = out.splitlines()
    for line in lines[1:]:
        words = line.split()
        if line.startswith("  param "):
            parsed["grid"].append((float(words[1]), float(words[4]), words[5] == "VIOLATION"))
        elif line.startswith("threshold: "):
            parsed["threshold"] = float(words[1])
            parsed["param_tol"] = float(words[3].rstrip(")"))
            parsed["first"] = line.rsplit("{", 1)[1].rstrip("}")
        elif line:
            parsed["message"] = line
    # the human report prints neither tolerance unless a threshold is found;
    # the benchmark always runs at the program's defaults
    parsed.setdefault("param_tol", 1e-6)
    parsed["norm_tol"] = 1e-9
    return parsed


# --- step 1: per-op summary --------------------------------------------------

class Summarizer:
    """Parses op outputs and picks, per dims, a seeded pool of subsets that
    the oracle re-checks on every op with those dims."""

    def __init__(self, seed):
        self.rng = random.Random(f"oracle:{seed}")
        self.pools = {}

    def pool(self, n):
        if n not in self.pools:
            masks = deduped_masks(n)
            self.pools[n] = sorted(self.rng.sample(masks, min(POOL_SIZE, len(masks))))
        return self.pools[n]

    def summarize(self, op, rc, out, err=""):
        """Return ``{"problems": [...], ...}`` for one op; never raises."""
        summary = {"problems": []}
        problems = summary["problems"]
        try:
            if op["kind"] == "analyze":
                self._analyze(op, rc, out, summary)
            elif op["kind"] == "norms":
                self._norms(op, rc, out, summary)
            else:
                self._scan_family(op, rc, out, summary)
        except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
            problems.append(f"unparseable output ({type(exc).__name__}: {exc})")
        if problems and err:
            problems.append(f"stderr: {err.strip()[:200]}")
        return summary

    def _analyze(self, op, rc, out, summary):
        problems = summary["problems"]
        rep = _parse_analyze(out, op["fmt"])
        n = len(rep["dims"])
        norms = {mask: norm for mask, norm, _ in rep["rows"]}
        tol = rep["norm_tol"]
        expect_rc = 3 if rep["verdict"] == CERTIFIED else 0
        if rc != expect_rc:
            problems.append(f"exit code {rc}, expected {expect_rc} for {rep['verdict']}")
        if [m for m, _, _ in rep["rows"]] != deduped_masks(n):
            problems.append("scan rows are not the deduped subsets in canonical order")
        if rep["subsets_evaluated"] != len(rep["rows"]):
            problems.append("subsets_evaluated differs from the number of rows")
        for mask, norm, flag in rep["rows"]:
            if flag != (norm > 1.0 + tol):
                problems.append(f"subset {mask}: violating flag disagrees with its norm")
                break
        best = max(rep["rows"], key=lambda row: row[1])  # first maximum wins
        if rep["max_norm"] != best[1] or rep["argmax_mask"] != best[0]:
            problems.append("max_norm/argmax do not match the largest subset norm")
        if rep["violations"] != [m for m, norm, _ in rep["rows"] if norm > 1.0 + tol]:
            problems.append("violations list does not match the subset norms")
        if (rep["verdict"] == CERTIFIED) != bool(rep["violations"]):
            problems.append("verdict disagrees with the violations")
        want_e = (rep["max_norm"] - 1.0) / 2.0 if rep["violations"] else 0.0
        if rep["measure_e"] != want_e:
            problems.append(f"E = {rep['measure_e']!r}, expected {want_e!r}")
        expect = op["expect"]
        if "verdict" in expect and rep["verdict"] != expect["verdict"]:
            problems.append(f"verdict {rep['verdict']}, expected {expect['verdict']}")
        for key in ("max_norm", "measure_e"):
            if key in expect and not close(rep[key], expect[key]):
                problems.append(f"{key} = {rep[key]!r}, expected {expect[key]!r}")
        sample = [rep["argmax_mask"]] + self.pool(n)
        summary.update(
            rc=rc, dims=rep["dims"], verdict=rep["verdict"],
            sample={mask: norms.get(mask) for mask in sample},
        )

    def _norms(self, op, rc, out, summary):
        problems = summary["problems"]
        mask, norm, flag = _parse_norms(out, op["fmt"])
        if rc != 0:
            problems.append(f"exit code {rc}, expected 0")
        if mask != mask_of_label_text(op["labels"]):
            problems.append(f"mask {mask} does not match labels {op['labels']!r}")
        if flag != (norm > 1.0 + 1e-9):
            problems.append("violating flag disagrees with the norm")
        summary.update(rc=rc, sample={mask: norm})

    def _scan_family(self, op, rc, out, summary):
        problems = summary["problems"]
        rep = _parse_scan_family(out, op["fmt"])
        if rc != 0:
            problems.append(f"exit code {rc}, expected 0")
        lo, hi = op["lo"], op["hi"]
        params = [lo + (hi - lo) * i / (GRID_POINTS - 1) for i in range(GRID_POINTS)]
        if [p for p, _, _ in rep["grid"]] != params:
            problems.append("grid parameters differ from the requested range")
        if any(flag != (norm > 1.0 + rep["norm_tol"]) for _, norm, flag in rep["grid"]):
            problems.append("grid violating flags disagree with the norms")
        want = op["expect"]["threshold"]
        thr = rep["threshold"]
        if want is None:
            if thr is not None or not rep["message"].startswith("no threshold in range"):
                problems.append(f"threshold {thr!r} found where none is in range")
        elif thr is None or abs(thr - want) > rep["param_tol"]:
            problems.append(f"threshold {thr!r}, expected {want!r} +/- {rep['param_tol']}")
        elif not rep["first"]:
            problems.append("threshold located but no first violating subset named")
        row = rep["grid"][self.rng.randrange(len(rep["grid"]))] if rep["grid"] else None
        summary.update(rc=rc, threshold=thr, first=rep["first"],
                       param_tol=rep["param_tol"], grid_row=row)


# --- step 2: oracle comparison -----------------------------------------------

class Oracle:
    """Naive-loop trace norms, with each (dims, subset) placement computed once.

    ``naive_generalized_transpose`` only copies entries, so running it once on
    a matrix of entry indices yields its placement map; applying that map to
    any matrix gives exactly the oracle's output for that matrix.
    """

    def __init__(self, reference, numpy, generate):
        self.ref = reference
        self.np = numpy
        self.generate = generate
        self.maps = {}

    def _map(self, dims, mask):
        key = (dims, mask)
        if key not in self.maps:
            np = self.np
            side = int(np.prod(dims))
            flips = frozenset(
                (kind, k) for k in range(len(dims)) for bit, kind in ((0, "r"), (1, "c"))
                if mask & (1 << (2 * k + bit))
            )
            index = np.arange(side * side, dtype=float).reshape(side, side)
            placed = self.ref.naive_generalized_transpose(index, dims, flips)
            self.maps[key] = placed.real.astype(np.int64)
        return self.maps[key]

    def norm(self, mat, dims, mask):
        return self.ref.naive_trace_norm(mat.reshape(-1)[self._map(dims, mask)])

    def max_norm(self, mat, dims):
        return max(self.norm(mat, dims, m) for m in deduped_masks(len(dims)))

    def load_file(self, path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        mat = self.np.array([[complex(re_, im) for re_, im in row] for row in data["matrix"]])
        return mat, tuple(data["dims"])

    def state(self, op, files_dir):
        if "file" in op:
            return self.load_file(f"{files_dir}/{op['file'][1]}")
        rho = self.generate(op["state"])
        return rho.mat, rho.dims

    def verify(self, op, summary, files_dir):
        """Append oracle mismatches to ``summary["problems"]``."""
        problems = summary["problems"]
        if problems:
            return
        if op["kind"] in ("analyze", "norms"):
            mat, dims = self.state(op, files_dir)
            for mask, reported in summary["sample"].items():
                want = self.norm(mat, dims, mask)
                if not close(reported, want):
                    problems.append(f"subset {mask}: reported {reported!r}, oracle {want!r}")
            return
        build = self._family_builder(op["family"])
        param, reported, _ = summary["grid_row"]
        mat, dims = build(param)
        want = self.max_norm(mat, dims)
        if not close(reported, want):
            problems.append(f"grid max norm at {param!r}: reported {reported!r}, oracle {want!r}")
        thr = summary["threshold"]
        if thr is None:
            return
        tol = summary["param_tol"]
        mat, dims = build(min(thr + tol, op["hi"]))
        if self.norm(mat, dims, mask_of_label_text(summary["first"])) <= 1.0 + ORACLE_TOL:
            problems.append(f"first violating subset {summary['first']} does not violate "
                            f"just above the threshold")
        mat, dims = build(max(thr - tol, op["lo"]))
        if self.max_norm(mat, dims) > 1.0 + ORACLE_TOL:
            problems.append("a subset violates just below the threshold")

    def _family_builder(self, family):
        def build(value):
            spec = f"{family},{value!r}" if ":" in family else f"{family}:{value!r}"
            rho = self.generate(spec)
            return rho.mat, rho.dims
        return build
