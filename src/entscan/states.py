"""State zoo and seeded random generators.

Qubit basis ordering is |0>, |1| throughout; the four Bell states use
psi+- = (|01> +- |10>)/sqrt(2) and phi+- = (|00> +- |11>)/sqrt(2).
Random generation is deterministic per seed (numpy ``default_rng``).
"""

import re
from math import prod
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .linalg import MAX_KRON_DIM, DensityMatrix, check_dimension

BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")


def _projector(ket: np.ndarray) -> np.ndarray:
    ket = np.asarray(ket, dtype=complex).reshape(-1)
    return np.outer(ket, ket.conj())


def bell_state(which: str) -> DensityMatrix:
    """One of the four maximally entangled two-qubit states."""
    amp = 1.0 / np.sqrt(2.0)
    kets = {
        "phi+": [amp, 0, 0, amp],
        "phi-": [amp, 0, 0, -amp],
        "psi+": [0, amp, amp, 0],
        "psi-": [0, amp, -amp, 0],
    }
    if which not in kets:
        raise InvalidInputError(f"unknown Bell state {which!r}; choose one of {BELL_KINDS}")
    return DensityMatrix(_projector(np.array(kets[which])), (2, 2))


def ghz_state(n: int = 3) -> DensityMatrix:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    if n < 2:
        raise InvalidInputError(f"GHZ needs at least 2 qubits, got {n}")
    ket = np.zeros(2**n, dtype=complex)
    ket[0] = ket[-1] = 1.0 / np.sqrt(2.0)
    return DensityMatrix(_projector(ket), (2,) * n)


def w_state(n: int = 3) -> DensityMatrix:
    """Equal superposition of the n single-excitation basis states."""
    if n < 2:
        raise InvalidInputError(f"W state needs at least 2 qubits, got {n}")
    ket = np.zeros(2**n, dtype=complex)
    for k in range(n):
        ket[1 << k] = 1.0 / np.sqrt(n)
    return DensityMatrix(_projector(ket), (2,) * n)


def max_mixed(dims) -> DensityMatrix:
    side = prod(dims)
    return DensityMatrix(np.eye(side, dtype=complex) / side, dims)


def werner_state(p: float) -> DensityMatrix:
    """p * |psi-><psi-| + (1 - p) * I/4 on two qubits, p in [0, 1].

    Entangled exactly for p > 1/3; the partial transpose has eigenvalues
    (1+p)/4 (three-fold) and (1-3p)/4.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"Werner parameter must lie in [0, 1], got {p}")
    mat = p * bell_state("psi-").mat + (1.0 - p) * np.eye(4, dtype=complex) / 4.0
    return DensityMatrix(mat, (2, 2))


def isotropic_state(d: int, fidelity: float) -> DensityMatrix:
    """Mixture of the d x d maximally entangled state with white noise.

    ``fidelity`` is the overlap with the maximally entangled state;
    entangled exactly for fidelity > 1/d.
    """
    if d < 2:
        raise InvalidInputError(f"isotropic state needs local dimension >= 2, got {d}")
    if not 0.0 <= fidelity <= 1.0:
        raise InvalidInputError(f"fidelity must lie in [0, 1], got {fidelity}")
    ket = np.zeros(d * d, dtype=complex)
    for i in range(d):
        ket[i * d + i] = 1.0 / np.sqrt(d)
    proj = _projector(ket)
    rest = (np.eye(d * d, dtype=complex) - proj) / (d * d - 1)
    return DensityMatrix(fidelity * proj + (1.0 - fidelity) * rest, (d, d))


def horodecki_3x3(a: float) -> DensityMatrix:
    """The 3 x 3 bound entangled family: positive under partial transposition
    for every a in [0, 1] yet entangled for 0 < a < 1."""
    if not 0.0 <= a <= 1.0:
        raise InvalidInputError(f"parameter must lie in [0, 1], got {a}")
    c = np.sqrt(1.0 - a * a) / 2.0
    h = (1.0 + a) / 2.0
    mat = np.array(
        [
            [a, 0, 0, 0, a, 0, 0, 0, a],
            [0, a, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, a, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, a, 0, 0, 0, 0, 0],
            [a, 0, 0, 0, a, 0, 0, 0, a],
            [0, 0, 0, 0, 0, a, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, h, 0, c],
            [0, 0, 0, 0, 0, 0, 0, a, 0],
            [a, 0, 0, 0, a, 0, c, 0, h],
        ],
        dtype=complex,
    )
    return DensityMatrix(mat / (8.0 * a + 1.0), (3, 3))


def horodecki_2x4(b: float) -> DensityMatrix:
    """The 2 x 4 bound entangled family: positive under partial transposition
    for every b in [0, 1] yet entangled for 0 < b < 1."""
    if not 0.0 <= b <= 1.0:
        raise InvalidInputError(f"parameter must lie in [0, 1], got {b}")
    c = np.sqrt(1.0 - b * b) / 2.0
    h = (1.0 + b) / 2.0
    mat = np.array(
        [
            [b, 0, 0, 0, 0, b, 0, 0],
            [0, b, 0, 0, 0, 0, b, 0],
            [0, 0, b, 0, 0, 0, 0, b],
            [0, 0, 0, b, 0, 0, 0, 0],
            [0, 0, 0, 0, h, 0, 0, c],
            [b, 0, 0, 0, 0, b, 0, 0],
            [0, b, 0, 0, 0, 0, b, 0],
            [0, 0, b, 0, c, 0, 0, h],
        ],
        dtype=complex,
    )
    return DensityMatrix(mat / (7.0 * b + 1.0), (2, 4))


# rng annotations are quoted: evaluated, they would import numpy.random at
# start-up on numpy >= 2 (numpy 1.x imports it with numpy itself)
def _random_pure_ket(d: int, rng: "np.random.Generator") -> np.ndarray:
    ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return ket / np.linalg.norm(ket)


def _random_density_mat(d: int, rank: int, rng: "np.random.Generator") -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = g @ g.conj().T
    return mat / mat.trace().real


def random_product_state(dims, seed: int = 0) -> DensityMatrix:
    """Tensor product of independent random full-rank single-subsystem states."""
    rng = np.random.default_rng(seed)
    mat = np.ones((1, 1), dtype=complex)
    for d in dims:
        mat = np.kron(mat, _random_density_mat(d, d, rng))
    return DensityMatrix(mat, dims)


def separable_mixture(dims, terms: int, seed: int = 0) -> DensityMatrix:
    """Random convex mixture of ``terms`` pure product states.

    Separable by construction, so every separability criterion must pass on
    the output; with ``terms=1`` this is a random pure product state.
    """
    if terms < 1:
        raise InvalidInputError(f"mixture needs at least 1 term, got {terms}")
    rng = np.random.default_rng(seed)
    probs = rng.random(terms)
    probs /= probs.sum()
    side = prod(dims)
    mat = np.zeros((side, side), dtype=complex)
    for p in probs:
        ket = np.ones(1, dtype=complex)
        for d in dims:
            ket = np.kron(ket, _random_pure_ket(d, rng))
        mat += p * _projector(ket)
    return DensityMatrix(mat, dims)


def random_density(dims, rank: int | None = None, seed: int = 0) -> DensityMatrix:
    """Random density matrix G G^dag / tr(G G^dag) with G a D x rank Gaussian."""
    side = prod(dims)
    rank = side if rank is None else rank
    if not 1 <= rank <= side:
        raise InvalidInputError(f"rank must lie in [1, {side}], got {rank}")
    rng = np.random.default_rng(seed)
    return DensityMatrix(_random_density_mat(side, rank, rng), dims)


# --- textual state specs (the CLI surface) ---------------------------------

class StateSpec(NamedTuple):
    """Parsed ``family:params`` description of a generatable state."""

    family: str
    params: tuple


_DIMS_RE = re.compile(r"^\d+(x\d+)*$")


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise InvalidInputError(f"bad {what} {token!r}: expected an integer") from None


def _parse_float(token: str, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise InvalidInputError(f"bad {what} {token!r}: expected a number") from None


def _parse_lower(token: str, what: str) -> str:
    return token.lower()


def _parse_dims(token: str, what: str) -> tuple[int, ...]:
    if not _DIMS_RE.match(token):
        raise InvalidInputError(f"bad {what} {token!r}: expected e.g. 2x2 or 2x3x2")
    return check_dimension([_parse_int(d, "dimension") for d in token.split("x")],
                           f"{what} {token!r}")


def _parse_qubits(token: str, what: str) -> int:
    n = _parse_int(token, what)
    if n >= 1:  # below that, the generator's own message, not "must not be empty"
        check_dimension((2 for _ in range(n)), f"{n} qubits")  # never forms 2^n
    return n


def _parse_local_dim(token: str, what: str) -> int:
    d = _parse_int(token, what)
    check_dimension((d, d), f"{what} {d}")
    return d


def _parse_count(token: str, what: str) -> int:
    n = _parse_int(token, what)
    if n > MAX_KRON_DIM:  # mixture terms share the dimension budget
        raise InvalidInputError(f"{what} {n} exceeds the limit {MAX_KRON_DIM}")
    return n


def _parse_seed(token: str, what: str) -> int:
    seed = _parse_int(token, what)
    # numpy's default_rng takes only non-negative seeds
    if seed < 0:
        raise InvalidInputError(f"bad {what} {seed}: must be a non-negative integer")
    return seed


_DIMS = (_parse_dims, "dims")
_SEED = (_parse_seed, "seed")

# family -> (generator, its parameters in call order as (parser, name), usage).
# A trailing seed may be omitted; it is then 0.
_FAMILIES = {
    "bell": (bell_state, ((_parse_lower, "kind"),), "bell:phi+|phi-|psi+|psi-"),
    "ghz": (ghz_state, ((_parse_qubits, "qubit count"),), "ghz:N (N qubits)"),
    "w": (w_state, ((_parse_qubits, "qubit count"),), "w:N (N qubits)"),
    "werner": (werner_state, ((_parse_float, "mixing parameter"),),
               "werner:P (P in [0,1])"),
    "isotropic": (isotropic_state,
                  ((_parse_local_dim, "local dimension"), (_parse_float, "fidelity")),
                  "isotropic:D,F (F in [0,1])"),
    "horodecki3x3": (horodecki_3x3, ((_parse_float, "parameter"),),
                     "horodecki3x3:A (A in [0,1])"),
    "horodecki2x4": (horodecki_2x4, ((_parse_float, "parameter"),),
                     "horodecki2x4:B (B in [0,1])"),
    "maxmixed": (max_mixed, (_DIMS,), "maxmixed:DIMS (e.g. maxmixed:2x2)"),
    "productrandom": (random_product_state, (_DIMS, _SEED), "productrandom:DIMS[,SEED]"),
    "sepmix": (separable_mixture, (_DIMS, (_parse_count, "term count"), _SEED),
               "sepmix:DIMS,TERMS[,SEED]"),
    "randomdm": (random_density, (_DIMS, (_parse_int, "rank"), _SEED),
                 "randomdm:DIMS,RANK[,SEED]"),
}

# Families whose last parameter is real: scan-family sweeps it.
_SWEEPABLE = sorted(
    family for family, (_, params, _) in _FAMILIES.items() if params[-1][0] is _parse_float
)


def family_help() -> str:
    return "; ".join(usage for _, _, usage in _FAMILIES.values())


def _split_spec(text: str) -> tuple[str, list[str]]:
    family, _, rest = text.strip().partition(":")
    return family.strip().lower(), [t.strip() for t in rest.split(",")] if rest.strip() else []


def _parse_params(params, tokens) -> tuple:
    return tuple(parse(token, what) for (parse, what), token in zip(params, tokens))


def parse_state_spec(text: str) -> StateSpec:
    """Parse ``family:param1[,param2...]`` into a :class:`StateSpec`.

    A seeded family whose trailing seed is omitted gets seed 0, so the spec
    always names one state; :func:`spec_text` prints the seed filled in.
    """
    family, tokens = _split_spec(text)
    if family not in _FAMILIES:
        raise InvalidInputError(
            f"unknown state family {family!r}; known specs: {family_help()}"
        )
    _, params, usage = _FAMILIES[family]
    max_p = len(params)
    min_p = max_p - (params[-1] is _SEED)
    if not min_p <= len(tokens) <= max_p:
        raise InvalidInputError(
            f"{family} takes {min_p}"
            + (f"-{max_p}" if max_p != min_p else "")
            + f" parameter(s), got {len(tokens)} (usage: {usage})"
        )
    seed = (0,) if len(tokens) < max_p else ()  # only a trailing seed can be missing
    return StateSpec(family, _parse_params(params, tokens) + seed)


def parse_sweep(text: str) -> tuple[str, tuple, str]:
    """Parse a family spec with its trailing real parameter omitted.

    Returns the family, its fixed parameters and the description the sweep
    report prints, which names them as :func:`spec_text` does;
    ``StateSpec(family, fixed + (value,))`` is the state at ``value``.
    """
    family, tokens = _split_spec(text)
    if family not in _SWEEPABLE:
        raise InvalidInputError(
            f"family {family!r} cannot be swept; families with one free real "
            f"parameter: {', '.join(_SWEEPABLE)}"
        )
    fixed_params = _FAMILIES[family][1][:-1]
    if len(tokens) != len(fixed_params):
        raise InvalidInputError(
            f"{family} needs {len(fixed_params)} fixed parameter(s) before the "
            f"swept one, got {len(tokens)}"
        )
    fixed = _parse_params(fixed_params, tokens)
    return family, fixed, f"{family}:{','.join(map(_value_text, fixed))}" if fixed else family


def subsystem_count(spec: StateSpec) -> int:
    """Number of subsystems of the state ``spec`` describes, without building it."""
    parse = _FAMILIES[spec.family][1][0][0]
    if parse is _parse_dims:
        return len(spec.params[0])
    if parse is _parse_qubits:
        return spec.params[0]
    return 2  # every other family is bipartite


def _value_text(value) -> str:
    # dims as 2x3; str(float) is its shortest round-tripping repr
    return "x".join(str(d) for d in value) if isinstance(value, tuple) else str(value)


def spec_text(spec: StateSpec) -> str:
    """Canonical text form of a spec (seeds resolved, numbers normalized)."""
    return f"{spec.family}:{','.join(_value_text(v) for v in spec.params)}"


def generate(spec) -> DensityMatrix:
    """Generate the density matrix described by a spec or spec text (an
    omitted trailing seed is 0, as in :func:`parse_state_spec`)."""
    if isinstance(spec, str):
        spec = parse_state_spec(spec)
    return _FAMILIES[spec.family][0](*spec.params)
