"""State zoo and seeded random generators.

Qubit basis ordering is |0>, |1| throughout; the four Bell states use
psi+- = (|01> +- |10>)/sqrt(2) and phi+- = (|00> +- |11>)/sqrt(2).
Random generation is deterministic per seed (numpy ``default_rng``).
"""

import re
from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import InvalidInputError
from .linalg import DensityMatrix, check_dimension

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
    n = int(n)
    if n < 2:
        raise InvalidInputError(f"GHZ needs at least 2 qubits, got {n}")
    ket = np.zeros(2**n, dtype=complex)
    ket[0] = ket[-1] = 1.0 / np.sqrt(2.0)
    return DensityMatrix(_projector(ket), (2,) * n)


def w_state(n: int = 3) -> DensityMatrix:
    """Equal superposition of the n single-excitation basis states."""
    n = int(n)
    if n < 2:
        raise InvalidInputError(f"W state needs at least 2 qubits, got {n}")
    ket = np.zeros(2**n, dtype=complex)
    for k in range(n):
        ket[1 << k] = 1.0 / np.sqrt(n)
    return DensityMatrix(_projector(ket), (2,) * n)


def max_mixed(dims) -> DensityMatrix:
    dims = tuple(int(d) for d in dims)
    side = prod(dims)
    return DensityMatrix(np.eye(side, dtype=complex) / side, dims)


def werner_state(p: float) -> DensityMatrix:
    """p * |psi-><psi-| + (1 - p) * I/4 on two qubits, p in [0, 1].

    Entangled exactly for p > 1/3; the partial transpose has eigenvalues
    (1+p)/4 (three-fold) and (1-3p)/4.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"Werner parameter must lie in [0, 1], got {p}")
    mat = p * bell_state("psi-").mat + (1.0 - p) * np.eye(4, dtype=complex) / 4.0
    return DensityMatrix(mat, (2, 2))


def isotropic_state(d: int, fidelity: float) -> DensityMatrix:
    """Mixture of the d x d maximally entangled state with white noise.

    ``fidelity`` is the overlap with the maximally entangled state;
    entangled exactly for fidelity > 1/d.
    """
    d = int(d)
    fidelity = float(fidelity)
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
    a = float(a)
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
    b = float(b)
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


def _random_pure_ket(d: int, rng: np.random.Generator) -> np.ndarray:
    ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return ket / np.linalg.norm(ket)


def _random_density_mat(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = g @ g.conj().T
    return mat / mat.trace().real


def random_product_state(dims, seed: int = 0) -> DensityMatrix:
    """Tensor product of independent random full-rank single-subsystem states."""
    dims = tuple(int(d) for d in dims)
    rng = np.random.default_rng(int(seed))
    mat = np.ones((1, 1), dtype=complex)
    for d in dims:
        mat = np.kron(mat, _random_density_mat(d, d, rng))
    return DensityMatrix(mat, dims)


def separable_mixture(dims, terms: int, seed: int = 0) -> DensityMatrix:
    """Random convex mixture of ``terms`` pure product states.

    Separable by construction, so every separability criterion must pass on
    the output; with ``terms=1`` this is a random pure product state.
    """
    dims = tuple(int(d) for d in dims)
    terms = int(terms)
    if terms < 1:
        raise InvalidInputError(f"mixture needs at least 1 term, got {terms}")
    rng = np.random.default_rng(int(seed))
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
    if isinstance(dims, int):
        dims = (dims,)
    dims = tuple(int(d) for d in dims)
    side = prod(dims)
    rank = side if rank is None else int(rank)
    if not 1 <= rank <= side:
        raise InvalidInputError(f"rank must lie in [1, {side}], got {rank}")
    rng = np.random.default_rng(int(seed))
    return DensityMatrix(_random_density_mat(side, rank, rng), dims)


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Unitary from QR of a complex Gaussian, with the phases of the
    triangular factor's diagonal absorbed to make the draw well spread."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_local_unitary(dims, seed: int = 0) -> np.ndarray:
    """Tensor product of independent random unitaries, one per subsystem."""
    rng = np.random.default_rng(int(seed))
    out = np.ones((1, 1), dtype=complex)
    for d in dims:
        out = np.kron(out, random_unitary(int(d), rng))
    return out


def mix(states, probs) -> DensityMatrix:
    """Convex combination of density matrices with matching dims."""
    states = list(states)
    weights = [float(p) for p in probs]
    if len(states) != len(weights) or not states:
        raise InvalidInputError("need equally many states and probabilities, at least one")
    if any(p < 0 for p in weights):
        raise InvalidInputError(f"probabilities must be non-negative, got {weights}")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise InvalidInputError(f"probabilities must sum to 1, got {sum(weights)!r}")
    dims = states[0].dims
    if any(s.dims != dims for s in states):
        raise InvalidInputError("all states in a mixture must share the same dims")
    mat = sum(p * s.mat for p, s in zip(weights, states))
    return DensityMatrix(mat, dims)


# --- textual state specs (the CLI surface) ---------------------------------

@dataclass(frozen=True)
class StateSpec:
    """Parsed ``family:params`` description of a generatable state."""

    family: str
    params: tuple


_DIMS_RE = re.compile(r"^\d+(x\d+)*$")


def _parse_dims(token: str) -> tuple[int, ...]:
    if not _DIMS_RE.match(token):
        raise InvalidInputError(f"bad dims {token!r}: expected e.g. 2x2 or 2x3x2")
    dims = tuple(_parse_int(d, "dimension") for d in token.split("x"))
    check_dimension(dims, f"dims {token!r}")
    return dims


def _parse_qubits(token: str) -> int:
    n = _parse_int(token, "qubit count")
    check_dimension((2 for _ in range(n)), f"{n} qubits")  # never forms 2^n
    return n


def _parse_local_dim(token: str) -> int:
    d = _parse_int(token, "local dimension")
    check_dimension((d, d), f"local dimension {d}")
    return d


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


def _dims_text(dims) -> str:
    return "x".join(str(d) for d in dims)


# family -> (min params, max params, parse, generate, canonical text, help)
_FAMILIES = {}


def _family(name, min_p, max_p, parse, build, text, help_text):
    _FAMILIES[name] = (min_p, max_p, parse, build, text, help_text)


_family(
    "bell", 1, 1,
    lambda toks, seed: (toks[0].lower(),),
    lambda p: bell_state(p[0]),
    lambda p: f"bell:{p[0]}",
    "bell:phi+|phi-|psi+|psi-",
)
_family(
    "ghz", 1, 1,
    lambda toks, seed: (_parse_qubits(toks[0]),),
    lambda p: ghz_state(p[0]),
    lambda p: f"ghz:{p[0]}",
    "ghz:N (N qubits)",
)
_family(
    "w", 1, 1,
    lambda toks, seed: (_parse_qubits(toks[0]),),
    lambda p: w_state(p[0]),
    lambda p: f"w:{p[0]}",
    "w:N (N qubits)",
)
_family(
    "werner", 1, 1,
    lambda toks, seed: (_parse_float(toks[0], "mixing parameter"),),
    lambda p: werner_state(p[0]),
    lambda p: f"werner:{p[0]!r}",
    "werner:P (P in [0,1])",
)
_family(
    "isotropic", 2, 2,
    lambda toks, seed: (_parse_local_dim(toks[0]), _parse_float(toks[1], "fidelity")),
    lambda p: isotropic_state(p[0], p[1]),
    lambda p: f"isotropic:{p[0]},{p[1]!r}",
    "isotropic:D,F (F in [0,1])",
)
_family(
    "horodecki3x3", 1, 1,
    lambda toks, seed: (_parse_float(toks[0], "parameter"),),
    lambda p: horodecki_3x3(p[0]),
    lambda p: f"horodecki3x3:{p[0]!r}",
    "horodecki3x3:A (A in [0,1])",
)
_family(
    "horodecki2x4", 1, 1,
    lambda toks, seed: (_parse_float(toks[0], "parameter"),),
    lambda p: horodecki_2x4(p[0]),
    lambda p: f"horodecki2x4:{p[0]!r}",
    "horodecki2x4:B (B in [0,1])",
)
_family(
    "maxmixed", 1, 1,
    lambda toks, seed: (_parse_dims(toks[0]),),
    lambda p: max_mixed(p[0]),
    lambda p: f"maxmixed:{_dims_text(p[0])}",
    "maxmixed:DIMS (e.g. maxmixed:2x2)",
)
_family(
    "productrandom", 1, 2,
    lambda toks, seed: (_parse_dims(toks[0]),
                        _parse_int(toks[1], "seed") if len(toks) > 1 else seed),
    lambda p: random_product_state(p[0], p[1]),
    lambda p: f"productrandom:{_dims_text(p[0])},{p[1]}",
    "productrandom:DIMS[,SEED]",
)
_family(
    "sepmix", 2, 3,
    lambda toks, seed: (_parse_dims(toks[0]), _parse_int(toks[1], "term count"),
                        _parse_int(toks[2], "seed") if len(toks) > 2 else seed),
    lambda p: separable_mixture(p[0], p[1], p[2]),
    lambda p: f"sepmix:{_dims_text(p[0])},{p[1]},{p[2]}",
    "sepmix:DIMS,TERMS[,SEED]",
)
_family(
    "randomdm", 2, 3,
    lambda toks, seed: (_parse_dims(toks[0]), _parse_int(toks[1], "rank"),
                        _parse_int(toks[2], "seed") if len(toks) > 2 else seed),
    lambda p: random_density(p[0], p[1], p[2]),
    lambda p: f"randomdm:{_dims_text(p[0])},{p[1]},{p[2]}",
    "randomdm:DIMS,RANK[,SEED]",
)


# Families whose last parameter is a free real one that scan-family can
# sweep: family -> number of fixed parameters before it.
SWEEPABLE = {"werner": 0, "isotropic": 1, "horodecki3x3": 0, "horodecki2x4": 0}


def family_help() -> str:
    return "; ".join(entry[5] for entry in _FAMILIES.values())


def parse_state_spec(text: str, default_seed: int = 0) -> StateSpec:
    """Parse ``family:param1[,param2...]`` into a :class:`StateSpec`.

    Seeded families fall back to ``default_seed`` when the trailing seed is
    omitted, keeping generation deterministic either way.
    """
    text = text.strip()
    family, _, rest = text.partition(":")
    family = family.strip().lower()
    if family not in _FAMILIES:
        raise InvalidInputError(
            f"unknown state family {family!r}; known specs: {family_help()}"
        )
    min_p, max_p, parse, _, _, help_text = _FAMILIES[family]
    tokens = [t.strip() for t in rest.split(",")] if rest.strip() else []
    if not min_p <= len(tokens) <= max_p:
        raise InvalidInputError(
            f"{family} takes {min_p}"
            + (f"-{max_p}" if max_p != min_p else "")
            + f" parameter(s), got {len(tokens)} (usage: {help_text})"
        )
    return StateSpec(family, parse(tokens, int(default_seed)))


def spec_text(spec: StateSpec) -> str:
    """Canonical text form of a spec (seeds resolved, numbers normalized)."""
    return _FAMILIES[spec.family][4](spec.params)


def generate(spec, default_seed: int = 0) -> DensityMatrix:
    """Generate the density matrix described by a spec or spec text."""
    if isinstance(spec, str):
        spec = parse_state_spec(spec, default_seed=default_seed)
    return _FAMILIES[spec.family][3](spec.params)
