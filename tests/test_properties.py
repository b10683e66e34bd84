"""Property-based tests of the core linear-algebra invariants."""

import contextlib
import io
import json
import os
import tempfile
from math import prod

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entscan import (
    DensityMatrix,
    InvalidInputError,
    Verdict,
    enumerate_label_subsets,
    generalized_transpose,
    gpt_scan,
    parse_label_set,
    parse_state_spec,
    singular_values,
    spec_text,
    trace_norm,
)
from entscan.cli import load_matrix_file, main
from entscan.reshape import layout
from entscan.states import _FAMILIES, BELL_KINDS, StateSpec

from reference import (
    all_flip_sets,
    naive_generalized_transpose,
    naive_trace_norm,
    product_minus,
    random_state,
    vec,
)

finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def complex_matrices(rows, cols):
    return st.tuples(
        arrays(np.float64, (rows, cols), elements=finite),
        arrays(np.float64, (rows, cols), elements=finite),
    ).map(lambda pair: pair[0] + 1j * pair[1])


def state_from(re, im):
    """Turn two real squares into a valid density matrix via G G^dag."""
    g = re + 1j * im
    mat = g @ g.conj().T + 1e-3 * np.eye(g.shape[0])  # keep the trace away from 0
    return mat / mat.trace().real


@settings(max_examples=40, deadline=None)
@given(
    x=complex_matrices(3, 3),
    y=complex_matrices(3, 3),
    z=complex_matrices(3, 3),
)
def test_vec_of_triple_product(x, y, z):
    lhs = vec(x @ y @ z)
    rhs = np.kron(z.T, x) @ vec(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(a=complex_matrices(2, 2), b=complex_matrices(2, 3))
def test_kron_singular_values_multiply(a, b):
    products = np.sort(np.outer(singular_values(a), singular_values(b)).ravel())[::-1]
    direct = singular_values(np.kron(a, b))
    assert np.max(np.abs(products - direct)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(a=complex_matrices(4, 4), b=complex_matrices(4, 4))
def test_trace_norm_triangle(a, b):
    assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10


@settings(max_examples=25, deadline=None)
@given(
    re=arrays(np.float64, (6, 6), elements=finite),
    im=arrays(np.float64, (6, 6), elements=finite),
)
def test_complement_subsets_share_singular_spectra(re, im):
    rho = DensityMatrix(state_from(re, im), (2, 3))
    for mask in enumerate_label_subsets(2):
        s_y = singular_values(generalized_transpose(rho, mask))
        s_c = singular_values(generalized_transpose(rho, 0b1111 ^ mask))
        assert np.max(np.abs(s_y - s_c)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    re=arrays(np.float64, (4, 4), elements=finite),
    im=arrays(np.float64, (4, 4), elements=finite),
)
def test_hermitian_subsets_norm_at_least_one(re, im):
    rho = DensityMatrix(state_from(re, im), (2, 2))
    for mask in (0b0011, 0b1100, 0b1111):  # partial transposes of A, B and AB
        assert trace_norm(generalized_transpose(rho, mask)) >= 1.0 - 1e-10


# comma-separated tokens of a kind letter and one letter from all of Unicode,
# which reach the subsystem-letter check far more often than plain text does
label_tokens = st.lists(
    st.tuples(st.sampled_from("rcx"), st.characters(categories=("Lu", "Ll"))).map("".join),
    max_size=4,
).map(",".join)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(), label_tokens), n=st.integers(min_value=1, max_value=6))
def test_label_text_parses_or_raises_invalid_input(text, n):
    try:
        mask = parse_label_set(text, n)
    except InvalidInputError:
        return
    assert 0 <= mask < 1 << (2 * n)


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from([""] + [f"{name}:" for name in _FAMILIES]),
    text=st.text(),
)
def test_state_spec_parses_or_raises_invalid_input(family, text):
    try:
        parse_state_spec(family + text)
    except InvalidInputError:
        pass


_dims = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple)
_unit = st.floats(0.0, 1.0)
_seed = st.integers(0, 2**63)

# valid parameters of every family, in call order
_VALID_PARAMS = {
    "bell": st.tuples(st.sampled_from(BELL_KINDS)),
    "ghz": st.tuples(st.integers(2, 12)),
    "w": st.tuples(st.integers(2, 12)),
    "werner": st.tuples(_unit),
    "isotropic": st.tuples(st.integers(2, 64), _unit),
    "horodecki3x3": st.tuples(_unit),
    "horodecki2x4": st.tuples(_unit),
    "maxmixed": st.tuples(_dims),
    "productrandom": st.tuples(_dims, _seed),
    "sepmix": st.tuples(_dims, st.integers(1, 4096), _seed),
    "randomdm": _dims.flatmap(lambda d: st.tuples(st.just(d), st.integers(1, prod(d)), _seed)),
}


def test_round_trip_covers_every_family():
    assert set(_VALID_PARAMS) == set(_FAMILIES)


@settings(max_examples=300, deadline=None)
@given(
    spec=st.sampled_from(sorted(_VALID_PARAMS)).flatmap(
        lambda family: _VALID_PARAMS[family].map(lambda params: StateSpec(family, params))
    )
)
def test_spec_text_round_trips(spec):
    assert parse_state_spec(spec_text(spec)) == spec


def _load_bytes(content: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "wb") as fh:
            fh.write(content)
        return load_matrix_file(path)


def _loads_or_raises_invalid_input(content: bytes) -> None:
    try:
        mat, dims, name = _load_bytes(content)
    except InvalidInputError:
        return
    assert mat.shape == (np.prod(dims),) * 2
    assert name is None or isinstance(name, str)


# integers up to 401 digits overflow a double; JSON has no larger-digit
# writer here, since json.dumps itself stops at Python's 4300-digit limit
json_numbers = st.one_of(
    st.integers(min_value=-(10**400), max_value=10**400), st.floats(), st.booleans()
)
json_values = st.recursive(
    st.one_of(st.none(), json_numbers, st.text()),
    lambda children: st.one_of(
        st.lists(children, max_size=3), st.dictionaries(st.text(), children, max_size=3)
    ),
    max_leaves=12,
)


@st.composite
def matrix_documents(draw):
    """Files near the schema: dims often match a square matrix of [re, im]
    cells, and any field may instead hold any JSON value."""
    side = draw(st.integers(min_value=0, max_value=3))
    cell = st.one_of(st.lists(json_numbers, min_size=2, max_size=2), json_values)
    doc = {
        "dims": draw(st.one_of(st.just([side]), st.just([1, side]), json_values)),
        "matrix": draw(st.one_of(
            st.lists(st.lists(cell, min_size=side, max_size=side),
                     min_size=side, max_size=side),
            json_values,
        )),
    }
    for field in ("name", "description"):
        if draw(st.booleans()):
            doc[field] = draw(st.one_of(st.text(), json_values))
    return doc


@settings(max_examples=200, deadline=None)
@given(content=st.binary(max_size=200))
def test_matrix_file_bytes_load_or_raise_invalid_input(content):
    _loads_or_raises_invalid_input(content)


@settings(max_examples=300, deadline=None)
@given(doc=matrix_documents())
def test_matrix_file_fields_load_or_raise_invalid_input(doc):
    _loads_or_raises_invalid_input(json.dumps(doc).encode())


@settings(max_examples=30, deadline=None)
@given(
    dims=st.sampled_from([(2,), (3,), (2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 3, 2)]),
    seed=st.integers(0, 2**32 - 1),
    full_rank=st.booleans(),
)
def test_every_deduped_row_matches_the_naive_oracle(dims, seed, full_rank):
    # rows read from a class representative included; rank 1 makes many
    # singular values zero, where symmetry-read rows are most exposed
    mat = random_state(prod(dims), np.random.default_rng(seed), None if full_rank else 1)
    scan = gpt_scan(DensityMatrix(mat, dims))
    flips = dict(all_flip_sets(len(dims)))
    assert len(scan.results) == len(enumerate_label_subsets(len(dims)))
    for mask, row in enumerate(scan.results):
        expected = naive_generalized_transpose(mat, dims, flips[mask])
        assert layout(dims, mask)[1] == expected.shape
        assert abs(row.trace_norm - naive_trace_norm(expected)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (8, 8), (2, 2, 2), (3, 3, 3)]),
    seed=st.integers(0, 2**32 - 1),
    eps=st.floats(min_value=0.0, max_value=4.5e-10, exclude_max=True),
)
def test_admitted_negativity_never_certifies_a_product_psd_part(dims, seed, eps):
    # the mask-0 check admits the eigenvalue -eps; psi stays orthogonal to
    # the product ket, so the PSD part is that product and separable
    rng = np.random.default_rng(seed)

    def unit(d):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return v / np.linalg.norm(v)

    ket = np.ones(1)
    for d in dims:
        ket = np.kron(ket, unit(d))
    psi = unit(ket.size)
    psi -= ket * (ket.conj() @ psi)
    psi /= np.linalg.norm(psi)
    rho = DensityMatrix(product_minus(ket, psi, eps), dims)
    assert gpt_scan(rho).verdict is Verdict.UNDETECTED


# --- whole command lines ------------------------------------------------------

# Tokens: valid small values, negatives, huge and non-finite values, and
# non-ASCII digits. Valid sizes stay at most 4 per factor and 3 factors, and a
# 0 next to a huge factor is refused at parse, so no drawn command line builds
# a matrix beyond D = 64.
_numbers = st.sampled_from([
    "0", "1", "2", "3", "4", "-1", "-7", "0.5", "-0.25", "1e400", "nan", "-inf",
    "1" + "0" * 40, "4097", "\u0663", "\uff12",
])
_seeds = st.sampled_from(["0", "7", "-1", "-9", "1" + "0" * 40, "\u0663", "s"])
_counts = st.sampled_from(
    ["1", "2", "3", "4", "2", "3", "0", "-1", "4097", "1" + "0" * 40, "\u0662"]
)
_dims_tokens = st.lists(_counts, min_size=1, max_size=3).map("x".join)
# free text without decimal digits, so it never spells a large valid size
_free_text = st.text(st.characters(exclude_categories=("Nd", "Cs")), max_size=4)
_tokens = st.one_of(_numbers, _dims_tokens, st.sampled_from(BELL_KINDS), _free_text)
_param_tokens = {
    "dims": _dims_tokens,
    "seed": _seeds,
    "rank": _counts,
    "term count": _counts,
    "qubit count": _counts,
    "local dimension": _counts,
    "kind": st.one_of(st.sampled_from(BELL_KINDS), _free_text),
}


@st.composite
def _specs(draw):
    """``family:`` and one token per parameter of the family's table row,
    shaped for that parameter; sometimes one token short (seed or swept
    value omitted) or one too many."""
    family = draw(st.sampled_from(sorted(_FAMILIES) + ["nosuch"]))
    params = _FAMILIES[family][1] if family in _FAMILIES else ()
    tokens = [draw(_param_tokens.get(what, _numbers)) for _, what in params]
    count = max(0, len(tokens) + draw(st.sampled_from([0, 0, -1, 1])))
    return f"{family}:{','.join((tokens + [draw(_tokens)])[:count])}"


_inputs = st.sampled_from(["", "", "", "<file>", "<dir>", "<missing>"]).flatmap(
    lambda path: st.just(path) if path else _specs()
)
_labels = st.one_of(
    st.sampled_from(["", "cA,rB", "rA,cA", "rA,cA,rB,cB", "rC", "cA,cA", "r\u00df"]), _free_text
)
_flags = st.lists(
    st.one_of(
        st.sampled_from([["--help"], ["--version"]]),
        st.tuples(st.just("--format"), st.sampled_from(["json", "human", "xml"])),
        st.tuples(st.sampled_from(["--min", "--max"]), _numbers),
        st.tuples(st.just("--min"), _numbers, st.just("--max"), _numbers),
    ).map(list),
    max_size=3,
)
_positionals = {
    "analyze": st.tuples(_inputs),
    "norms": st.tuples(_inputs, _labels),
    "scan-family": st.tuples(_specs(), st.just("--min"), _numbers, st.just("--max"), _numbers),
    "generate": st.tuples(_specs(), st.sampled_from(["<file>", "<dir>", "<missing>"])),
    "": st.tuples(),
    "nosuch": st.tuples(_specs()),
}
_argvs = st.sampled_from(
    ["analyze", "analyze", "norms", "norms", "scan-family", "generate", "", "nosuch"]
).flatmap(
    lambda command: st.builds(
        lambda positionals, flags: [command] * bool(command) + list(positionals)
        + [token for flag in flags for token in flag],
        _positionals[command],
        _flags,
    )
)


@settings(max_examples=200, deadline=None)
@given(argv=_argvs)
def test_every_command_line_exits_cleanly(argv):
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "m.json"), "w", encoding="utf-8") as fh:
            json.dump({"dims": [2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}, fh)
        where = {"<file>": "m.json", "<dir>": "", "<missing>": os.path.join("no", "m.json")}
        argv = [os.path.join(tmp, where[a]) if a in where else a for a in argv]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, sink.getvalue())
