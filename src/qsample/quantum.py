"""Desk-scale complex linear algebra for multi-qudit systems.

States live on an ordered list of subsystems: population qudits of one common
dimension first (positions 1..n), then a single environment subsystem of
dimension >= 1 as the last entry.  A plain qudit register is modeled with a
trivial environment of dimension 1.  Positions are 1-based throughout; the
environment sits at position n+1.

Bases are specified per population position by a bit string theta: 0 means
computational, 1 means Hadamard.  For qudits of dimension > 2 only the
computational basis is available.  Every basis change goes through one array
kernel, ``_hadamard``, save the oblivious-transfer sender's product states.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PureState",
    "DensityMatrix",
    "BasisSpec",
    "CqState",
    "MeasurementBranch",
    "HADAMARD",
    "trace_distance",
    "cq_distance",
    "measure",
    "sample_measurement",
    "apply_cnot_pairs",
    "apply_unitary",
    "make_epr_pairs",
    "random_pure_state",
    "state_to_json",
    "state_from_json",
]

_NORM_TOL = 1e-10
_PSD_TOL = 1e-9

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _as_dims(dims) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out:
        raise ValueError("dims must be non-empty")
    for d in out:
        if d < 1:
            raise ValueError(f"subsystem dimensions must be >= 1, got {d}")
    pop = out[:-1]
    if pop and len(set(pop)) != 1:
        raise ValueError(f"population qudits must share one dimension, got {pop}")
    return out


@dataclass(frozen=True)
class PureState:
    """A norm-1 amplitude vector over population qudits plus an environment.

    Parameters
    ----------
    amps : complex vector of length prod(dims)
    dims : subsystem dimensions; the last entry is the environment
    """

    amps: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = _as_dims(self.dims)
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if amps.size != math.prod(dims):
            raise ValueError(
                f"amplitude vector length {amps.size} != product of dims {math.prod(dims)}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 by more than {_NORM_TOL}")
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "dims", dims)

    @property
    def population_count(self) -> int:
        return len(self.dims) - 1

    @property
    def population_dim(self) -> int:
        """Common dimension d of the population qudits (2 when there are none)."""
        return self.dims[0] if len(self.dims) > 1 else 2

    @property
    def dim_E(self) -> int:
        return self.dims[-1]

    def tensor(self) -> np.ndarray:
        return self.amps.reshape(self.dims)

    @staticmethod
    def from_population(amps, d: int = 2, dim_E: int = 1, env_amps=None) -> "PureState":
        """Build a state from a population vector, adding an environment.

        ``env_amps`` defaults to the first environment basis vector.
        """
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        count = round(math.log(amps.size, d))
        if d ** count != amps.size:
            raise ValueError(f"vector length {amps.size} is not a power of d={d}")
        if env_amps is None:
            env = np.zeros(dim_E, dtype=complex)
            env[0] = 1.0
        else:
            env = np.asarray(env_amps, dtype=complex).reshape(-1)
            if env.size != dim_E:
                raise ValueError("environment amplitudes do not match dim_E")
        return PureState(np.kron(amps, env), (d,) * count + (dim_E,))


def _check_square(mat: np.ndarray, dims: tuple[int, ...]) -> None:
    dim = math.prod(dims)
    if mat.shape != (dim, dim):
        raise ValueError(f"matrix shape {mat.shape} != ({dim}, {dim}) from dims {dims}")


def _check_density(mats: np.ndarray) -> None:
    """Finite, Hermitian, trace-1 and PSD checks on an (m, d, d) complex
    stack, with one batched eigvalsh.  The first faulty matrix in stack order
    raises its first fault, in that order of checks.  A NaN passes every
    comparison and eigvalsh answers NaN for it, so non-finite matrices are
    refused first and zeroed for the other checks."""
    finite = np.isfinite(mats).all(axis=(-2, -1))
    if not finite.all():
        mats = np.where(finite[:, None, None], mats, 0)
    herm = np.abs(mats - mats.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) > _NORM_TOL
    tr = np.trace(mats, axis1=-2, axis2=-1).real
    low = np.linalg.eigvalsh(mats)[:, 0]
    bad = ~finite | herm | (np.abs(tr - 1.0) > _NORM_TOL) | (low < -_PSD_TOL)
    if bad.any():
        i = int(bad.argmax())
        if not finite[i]:
            raise ValueError("matrix has a non-finite entry (NaN or infinity)")
        if herm[i]:
            raise ValueError("matrix is not Hermitian within 1e-10")
        if abs(tr[i] - 1.0) > _NORM_TOL:
            raise ValueError(f"trace {tr[i]} deviates from 1 by more than {_NORM_TOL}")
        raise ValueError(f"minimum eigenvalue {low[i]} below -1e-9")


@dataclass(frozen=True)
class DensityMatrix:
    """A trace-1 positive-semi-definite operator over the same subsystem layout."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = _as_dims(self.dims)
        mat = np.asarray(self.matrix, dtype=complex)
        _check_square(mat, dims)
        _check_density(mat[None])
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def _checked(cls, mat: np.ndarray, dims: tuple[int, ...]) -> "DensityMatrix":
        """Wrap a matrix that has already passed _check_square and _check_density."""
        out = object.__new__(cls)
        object.__setattr__(out, "matrix", mat)
        object.__setattr__(out, "dims", dims)
        return out

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class BasisSpec:
    """Measurement basis per population position: 0 computational, 1 Hadamard."""

    theta: tuple[int, ...]

    def __post_init__(self):
        theta = tuple(int(b) for b in self.theta)
        for b in theta:
            if b not in (0, 1):
                raise ValueError(f"theta entries must be bits, got {b}")
        object.__setattr__(self, "theta", theta)

    def __len__(self) -> int:
        return len(self.theta)


@dataclass(frozen=True)
class CqState:
    """Hybrid state: a classical value with a conditional environment operator.

    ``entries`` is a list of (x, P(x), rho_E^x); probabilities must sum to 1
    within 1e-12 and every conditional must be a valid density matrix on an
    environment of dimension ``env_dim``.  The state also holds P(x) as a
    vector, ``_probs``, and the conditionals as one (m, d, d) stack,
    ``_stack``, both in entry order; a conditional given as a plain matrix
    becomes a row of that stack.
    """

    entries: tuple
    env_dim: int

    def __post_init__(self):
        env_dim = int(self.env_dim)
        dims = _as_dims((env_dim,))
        rows = []
        mats = []
        raw = []  # positions of the conditionals given as plain matrices
        seen = set()
        total = 0.0
        for x, prob, rho in self.entries:
            if isinstance(x, list):
                x = tuple(x)
            if x in seen:
                raise ValueError(f"duplicate classical value {x!r}")
            seen.add(x)
            prob = float(prob)
            if prob < -1e-15:
                raise ValueError(f"negative probability {prob}")
            if not math.isfinite(prob):
                raise ValueError(f"probability {prob} is not finite")
            if isinstance(rho, DensityMatrix):
                if rho.dim != env_dim:
                    raise ValueError(f"conditional operator dimension {rho.dim} != {env_dim}")
                mats.append(rho.matrix)
            else:
                rho = np.asarray(rho, dtype=complex)
                _check_square(rho, dims)
                raw.append(len(rows))
                mats.append(rho)
            total += prob
            rows.append((x, prob, rho))
        stack = np.stack(mats) if mats else np.empty((0, env_dim, env_dim), dtype=complex)
        _check_density(stack[raw])  # every plain conditional at once
        for i in raw:
            rows[i] = rows[i][:2] + (DensityMatrix._checked(stack[i], dims),)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "entries", tuple(rows))
        object.__setattr__(self, "env_dim", env_dim)
        object.__setattr__(self, "_probs", np.array([prob for _, prob, _ in rows]))
        object.__setattr__(self, "_stack", stack)

    def as_density(self) -> DensityMatrix:
        """The block-diagonal matrix sum_x P(x) |x><x| (x) rho_E^x."""
        m = len(self.entries)
        out = np.zeros((m * self.env_dim, m * self.env_dim), dtype=complex)
        for i, (_, prob, rho) in enumerate(self.entries):
            sl = slice(i * self.env_dim, (i + 1) * self.env_dim)
            out[sl, sl] = prob * rho.matrix
        return DensityMatrix(out, (m, self.env_dim))


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def _as_matrix(state) -> tuple[np.ndarray, tuple[int, ...] | None]:
    if isinstance(state, PureState):
        return np.outer(state.amps, state.amps.conj()), state.dims
    if isinstance(state, DensityMatrix):
        return state.matrix, state.dims
    mat = np.asarray(state, dtype=complex)
    return mat, None


def _trace_norm(mat: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix: the sum of its absolute eigenvalues.
    On a stack of matrices, the sum of their trace norms."""
    return float(np.abs(np.linalg.eigvalsh(mat)).sum())


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of rho - sigma; the difference is Hermitian, so the
    absolute eigenvalue sum computes it."""
    a, da = _as_matrix(rho)
    b, db = _as_matrix(sigma)
    if da is not None and db is not None and da != db:
        raise ValueError(f"dimension mismatch: {da} vs {db}")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return 0.5 * _trace_norm(a - b)


def cq_distance(a: CqState, b: CqState) -> float:
    """Trace distance between two hybrids with possibly different classical
    laws: half the sum over x of the trace norm of P(x) rho_x - Q(x) sigma_x."""
    if a.env_dim != b.env_dim:
        raise ValueError(f"environment dimensions differ: {a.env_dim} vs {b.env_dim}")
    ra = {x: (p, rho.matrix) for (x, p, rho) in a.entries}
    rb = {x: (p, rho.matrix) for (x, p, rho) in b.entries}
    zero = np.zeros((a.env_dim, a.env_dim), dtype=complex)
    total = 0.0
    for x in set(ra) | set(rb):
        pa, ma = ra.get(x, (0.0, zero))
        pb, mb = rb.get(x, (0.0, zero))
        total += _trace_norm(pa * ma - pb * mb)
    return 0.5 * total


# ---------------------------------------------------------------------------
# transformations
# ---------------------------------------------------------------------------


def _positions_tuple(positions, count: int) -> tuple[int, ...]:
    pos = tuple(int(x) for x in positions)
    if len(set(pos)) != len(pos):
        raise ValueError(f"duplicate positions in {pos}")
    for x in pos:
        if not 1 <= x <= count:
            raise ValueError(f"position {x} outside [1..{count}]")
    return pos


def _hadamard(tensor: np.ndarray, axes) -> np.ndarray:
    """H on each listed length-2 axis of a float or complex tensor, in order:
    a sum and a difference per axis, then one scale by 2^(-m/2) for m axes
    (exact for even m).  The input is unchanged; with no axes it is returned."""
    axes = tuple(axes)
    for axis in axes:
        lo = (slice(None),) * axis + (0,)
        hi = (slice(None),) * axis + (1,)
        out = np.empty_like(tensor)
        np.add(tensor[lo], tensor[hi], out=out[lo])
        np.subtract(tensor[lo], tensor[hi], out=out[hi])
        tensor = out
    if axes:
        tensor *= 2.0 ** (-len(axes) / 2)
    return tensor


@dataclass(frozen=True)
class MeasurementBranch:
    """One outcome of a projective measurement."""

    outcome: tuple[int, ...]
    probability: float
    post_state: PureState


def _measurement_setup(state: PureState, positions, basis):
    pop = state.population_count
    pos = _positions_tuple(positions, pop)
    if basis is None:
        basis = BasisSpec((0,) * pop)
    if len(basis) != pop:
        raise ValueError(
            f"basis length {len(basis)} != population subsystem count {pop}"
        )
    turned = [i - 1 for i in pos if basis.theta[i - 1]]  # Hadamard axes, in position order
    if turned and state.population_dim != 2:
        raise ValueError("Hadamard basis requires qubit subsystems (d = 2)")
    rotated = _hadamard(state.tensor(), turned)
    axes = tuple(i for i in range(len(state.dims)) if i + 1 not in pos)
    probs = np.abs(rotated) ** 2
    if axes:
        probs = probs.sum(axis=axes)
    # the sum leaves kept axes in ascending position order; outcomes follow
    # the caller's position order
    ordered = sorted(pos)
    if ordered != list(pos):
        probs = probs.transpose(tuple(ordered.index(p) for p in pos))
    return pos, turned, rotated, probs


def _branch(state, pos, turned, rotated, probs, outcome) -> MeasurementBranch:
    p = float(probs[outcome])
    index = tuple(
        outcome[pos.index(i + 1)] if i + 1 in pos else slice(None)
        for i in range(len(state.dims))
    )
    collapsed = np.zeros_like(rotated)
    collapsed[index] = rotated[index] / math.sqrt(p)
    post = _hadamard(collapsed, turned)  # H is self-inverse: this undoes the rotation
    return MeasurementBranch(tuple(outcome), p, PureState(post.reshape(-1), state.dims))


def measure(
    state: PureState, positions, basis: BasisSpec | None = None, outcome=None
):
    """Projective measurement of the given population positions.

    Measuring in basis theta applies a Hadamard per position with theta bit 1
    before projecting in the computational basis; the population stays in
    place, collapsed onto the observed basis state.

    Returns the full list of positive-probability branches, or the single
    requested branch when ``outcome`` is given.

    Raises
    ------
    ValueError
        If a position is outside the population, the basis is incompatible,
        or the requested outcome has a symbol not in 0..d-1 or zero
        probability.
    """
    pos, turned, rotated, probs = _measurement_setup(state, positions, basis)
    if outcome is not None:
        outcome = tuple(outcome)
        if len(outcome) != len(pos):
            raise ValueError(f"outcome length {len(outcome)} != positions {len(pos)}")
        if not all(b in range(state.population_dim) for b in outcome):
            raise ValueError(f"outcome {outcome} has a symbol not in 0..{state.population_dim - 1}")
        outcome = tuple(int(b) for b in outcome)
        if probs[outcome] < 1e-12:
            raise ValueError(f"requested branch {outcome} has zero probability")
        return _branch(state, pos, turned, rotated, probs, outcome)
    return [
        _branch(state, pos, turned, rotated, probs, out)
        for out in np.ndindex(probs.shape)
        if probs[out] >= 1e-12
    ]


def sample_measurement(
    state: PureState, positions, basis: BasisSpec | None, rng: np.random.Generator
) -> MeasurementBranch:
    """Draw one measurement branch according to its probability."""
    pos, turned, rotated, probs = _measurement_setup(state, positions, basis)
    flat = probs.reshape(-1)
    idx = rng.choice(flat.size, p=flat / flat.sum())
    outcome = tuple(int(x) for x in np.unravel_index(idx, probs.shape))
    return _branch(state, pos, turned, rotated, probs, outcome)


def apply_cnot_pairs(state: PureState, pairs) -> PureState:
    """Apply one CNOT per (control, target) pair of qubit positions.

    Pairs must be pairwise disjoint and both members must be binary
    subsystems.
    """
    count = len(state.dims)
    used = set()
    norm_pairs = []
    for c, t in pairs:
        c, t = int(c), int(t)
        if c == t:
            raise ValueError("control and target must differ")
        for x in (c, t):
            if not 1 <= x <= count:
                raise ValueError(f"position {x} outside [1..{count}]")
            if state.dims[x - 1] != 2:
                raise ValueError(f"position {x} is not a qubit")
            if x in used:
                raise ValueError(f"overlapping pairs: position {x} reused")
            used.add(x)
        norm_pairs.append((c, t))
    tensor = state.tensor().copy()
    for c, t in norm_pairs:
        moved = np.moveaxis(tensor, (c - 1, t - 1), (0, 1))
        flipped = moved.copy()
        flipped[1, 0] = moved[1, 1]
        flipped[1, 1] = moved[1, 0]
        tensor = np.moveaxis(flipped, (0, 1), (c - 1, t - 1))
    return PureState(tensor.reshape(-1), state.dims)


def apply_unitary(state: PureState, U, positions) -> PureState:
    """Apply a unitary acting on the listed subsystems, in the given order.

    The environment position (last subsystem) is allowed; this is how probe
    interactions touch it.
    """
    count = len(state.dims)
    pos = _positions_tuple(positions, count)
    sub = tuple(state.dims[i - 1] for i in pos)
    dim = math.prod(sub)
    U = np.asarray(U, dtype=complex)
    if U.shape != (dim, dim):
        raise ValueError(f"unitary shape {U.shape} != ({dim}, {dim}) for positions {pos}")
    tensor = np.tensordot(
        U.reshape(sub + sub), state.tensor(), axes=(tuple(range(len(sub), 2 * len(sub))), tuple(p - 1 for p in pos))
    )
    tensor = np.moveaxis(tensor, tuple(range(len(sub))), tuple(p - 1 for p in pos))
    return PureState(tensor.reshape(-1), state.dims)


def make_epr_pairs(n: int) -> PureState:
    """n EPR pairs (|00> + |11>)/sqrt(2), ordered A_1..A_n, B_1..B_n, with a
    trivial environment."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    amps = np.zeros(4 ** n, dtype=complex)
    scale = 2 ** (-n / 2)
    for x in range(2 ** n):
        amps[(x << n) | x] = scale
    return PureState(amps, (2,) * (2 * n) + (1,))


# ---------------------------------------------------------------------------
# random fixtures
# ---------------------------------------------------------------------------


def random_pure_state(dims, rng: np.random.Generator) -> PureState:
    """Haar-random state vector over the given subsystem layout."""
    dims = _as_dims(dims)
    dim = math.prod(dims)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(amps / np.linalg.norm(amps), dims)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _interleave(values: np.ndarray) -> list[float]:
    out = []
    for z in values.reshape(-1):
        out.append(float(z.real))
        out.append(float(z.imag))
    return out


def _deinterleave(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size % 2:
        raise ValueError("interleaved amplitude list must have even length")
    return arr[0::2] + 1j * arr[1::2]


def state_to_json(state) -> str:
    """Serialize a pure state or density matrix as dims plus interleaved
    (re, im) pairs."""
    if isinstance(state, PureState):
        obj = {"type": "pure", "dims": list(state.dims), "amplitudes": _interleave(state.amps)}
    elif isinstance(state, DensityMatrix):
        obj = {"type": "density", "dims": list(state.dims), "matrix": _interleave(state.matrix)}
    else:
        raise TypeError(f"cannot serialize {type(state).__name__}")
    return json.dumps(obj, sort_keys=True)


def state_from_json(text: str):
    """Read :func:`state_to_json`'s layout; ValueError names what is malformed."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"state JSON must be an object, got {type(obj).__name__}")
    kind = obj.get("type")
    field = {"pure": "amplitudes", "density": "matrix"}.get(kind)
    if field is None:
        raise ValueError(f"unknown state type {kind!r}")
    missing = [key for key in ("dims", field) if not isinstance(obj.get(key), list)]
    if missing:
        raise ValueError(f"{kind} state JSON has no list {missing[0]!r}")
    dims = tuple(int(d) for d in obj["dims"])
    values = _deinterleave(obj[field])
    if kind == "pure":
        return PureState(values, dims)
    dim = math.prod(dims)
    return DensityMatrix(values.reshape(dim, dim), dims)
