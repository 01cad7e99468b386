"""Desk-scale simulations of commit-and-open OT and entanglement-based key
distribution, with their security-bound evaluators.

Both protocols run end to end from a seeded RNG: transcripts replay
byte-identically for a fixed (params, adversary, rng_seed).  The key
distribution simulator additionally supports an exact-distance mode at small n
where the final (key, adversary-view) state is assembled from blocks of
rotated amplitudes and compared against an ideal uniform key.

Bit commitment is modeled as an ideal registry: committed values are recorded,
openings are checked against the record, and any mismatch aborts the protocol.
Error correction uses a random binary linear code with syndrome decoding.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import HashFamily, binary_entropy, hash_eval, pad_input
from .entropy import _check_bits, _seeded_distance
from .quantum import (
    HADAMARD,
    BasisSpec,
    PureState,
    apply_cnot_pairs,
    apply_unitary,
    make_epr_pairs,
    sample_measurement,
)
from .quantum import _hadamard
from . import sampling
from .sampling import _QKD_KINDS, _QOT_KINDS, _refuse, complement, rel_weight, restrict

__all__ = [
    "EccModel",
    "QkdParams",
    "QotParams",
    "AdversaryModel",
    "SecurityReport",
    "LinearCode",
    "make_linear_code",
    "qkd_bound",
    "qkd_key_length",
    "qkd_max_len",
    "qot_bound",
    "qot_bound_optimize",
    "asymptotic_qkd_rate",
    "qkd_rate_threshold",
    "simulate_qkd",
    "simulate_qot",
    "qot_catch_probability",
    "qkd_sampling_view",
    "security_report_to_dict",
    "security_report_to_json",
    "transcript_to_json",
    "rate_curve_csv",
]


# ---------------------------------------------------------------------------
# parameter types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EccModel:
    """Error-correction model: syndrome bit-length m and correction radius."""

    m: int = 0
    radius: float = 0.0

    def __post_init__(self):
        m = int(self.m)
        if m < 0:
            raise ValueError(f"syndrome length m must be >= 0, got {m}")
        if not 0.0 <= self.radius < 0.5:
            raise ValueError(f"correction radius must lie in [0, 1/2), got {self.radius}")
        object.__setattr__(self, "m", m)


@dataclass(frozen=True)
class QkdParams:
    """Key-distribution parameters: n EPR pairs, k test positions, ECC model."""

    n: int
    k: int
    ecc: EccModel = field(default_factory=EccModel)

    def __post_init__(self):
        n, k = int(self.n), int(self.k)
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        if not 1 <= k or 2 * k > n:
            raise ValueError(f"test size must satisfy 1 <= k <= n/2, got k={k}, n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)


@dataclass(frozen=True)
class QotParams:
    """Oblivious-transfer parameters: n qubits, k test positions, l key bits."""

    n: int
    k: int
    l: int

    def __post_init__(self):
        n, k, l = int(self.n), int(self.k), int(self.l)
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        if not 1 <= k or 2 * k > n:
            raise ValueError(f"test size must satisfy 1 <= k <= n/2, got k={k}, n={n}")
        if not 1 <= l <= n:
            raise ValueError(f"key length must satisfy 1 <= l <= n, got {l}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)


_POLICIES = ("random", "computational", "hadamard")


@dataclass(frozen=True, eq=False)
class AdversaryModel:
    """Concrete adversary instance for either simulator.

    Key-distribution kinds: none (optionally with channel noise),
    intercept-resend (per-qubit basis policy), entangling-probe (a fixed
    unitary couples each transit qubit to one probe register), custom-unitary
    (explicit probe unitary).  Oblivious-transfer kinds: none (honest Bob with
    ``choice_bit``), commit-flip (commits to values flipped at ``flips``),
    open-flip (commits honestly, answers openings from a flipped string),
    no-measure (commits to blind guesses), delay-measure (commits to blind
    guesses, stores the qubits, measures after learning the basis).
    """

    kind: str = "none"
    basis_policy: str = "random"
    probe_dim: int = 2
    unitary: np.ndarray | None = None
    flips: tuple[int, ...] = ()
    choice_bit: int = 0
    noise: float = 0.0

    def __post_init__(self):
        if self.kind not in set(_QKD_KINDS) | set(_QOT_KINDS):
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        if self.basis_policy not in _POLICIES:
            raise ValueError(f"unknown basis policy {self.basis_policy!r}")
        if int(self.probe_dim) < 2:
            raise ValueError("probe_dim must be >= 2")
        object.__setattr__(self, "probe_dim", int(self.probe_dim))
        if self.choice_bit not in (0, 1):
            raise ValueError("choice_bit must be 0 or 1")
        if not 0.0 <= self.noise < 0.5:
            raise ValueError(f"noise must lie in [0, 1/2), got {self.noise}")
        flips = tuple(sorted(int(i) for i in self.flips))
        if len(set(flips)) != len(flips):
            raise ValueError("flip positions must be distinct")
        object.__setattr__(self, "flips", flips)
        if self.unitary is not None:
            U = np.asarray(self.unitary, dtype=complex)
            want = 2 * self.probe_dim
            if U.shape != (want, want):
                raise ValueError(
                    f"probe unitary must act on qubit x probe, shape ({want}, {want})"
                )
            if np.abs(U.conj().T @ U - np.eye(want)).max() > 1e-10:
                raise ValueError("probe unitary is not unitary within 1e-10")
            object.__setattr__(self, "unitary", U)
        if self.kind == "custom-unitary" and self.unitary is None:
            raise ValueError("custom-unitary requires an explicit unitary")

    def probe_unitary(self) -> np.ndarray:
        if self.unitary is not None:
            return self.unitary
        # default probe coupling: |b>|e> -> |b>|e + b mod p|
        p = self.probe_dim
        U = np.zeros((2 * p, 2 * p))
        for b in (0, 1):
            for e in range(p):
                U[b * p + ((e + b) % p), b * p + e] = 1.0
        return U


@dataclass(frozen=True)
class SecurityReport:
    """Itemized security bound, with the exact distance when computed."""

    bound_terms: tuple
    delta_used: float
    exact_distance: float | None = None
    transcript_digest: str = ""
    total_bound: float = field(init=False)  # the sum of the terms

    def __post_init__(self):
        terms = tuple((str(label), float(value)) for label, value in self.bound_terms)
        object.__setattr__(self, "bound_terms", terms)
        object.__setattr__(self, "total_bound", sum(value for _, value in terms))
        if self.exact_distance is not None:
            d = float(self.exact_distance)
            if not -1e-9 <= d <= 1 + 1e-9:
                raise ValueError(f"exact_distance {d} outside [0, 1]")
            object.__setattr__(self, "exact_distance", d)


def security_report_to_dict(report: SecurityReport) -> dict:
    """The report as JSON data: its terms as [label, value] pairs and its total."""
    return {
        "bound_terms": [[label, value] for label, value in report.bound_terms],
        "total_bound": report.total_bound,
        "delta_used": report.delta_used,
        "exact_distance": report.exact_distance,
        "transcript_digest": report.transcript_digest,
    }


def security_report_to_json(report: SecurityReport) -> str:
    return json.dumps(security_report_to_dict(report), sort_keys=True)


# ---------------------------------------------------------------------------
# bound evaluators
# ---------------------------------------------------------------------------


def _pow2(x: float) -> float:
    try:
        return 2.0 ** x
    except OverflowError:
        return math.inf


# One function per bound term.  The evaluators below build their reports
# from these, and the optimizers call them directly, with the entropy and
# the per-delta and per-eps terms hoisted out of their inner loops.


def _qkd_entropy(beta: float, delta: float) -> float:
    return binary_entropy(min(beta + delta, 0.5))


def _qkd_pa(n, k, m, l, h: float) -> float:
    """1/2 * 2^(-((1-h)n - k - m - l)/2), with h = _qkd_entropy(beta, delta)."""
    return 0.5 * _pow2(-0.5 * ((1 - h) * n - k - m - l))


def _qkd_sampling(k, delta: float) -> float:
    return 2.0 * math.exp(-delta * delta * k / 6.0)


def _qot_pa(n, k, l, eps: float, h: float) -> float:
    """1/2 * 2^(-((1/4 - eps/2 - h)(n-k) - l)/2), with h = h(delta)."""
    return 0.5 * _pow2(-0.5 * ((0.25 - eps / 2 - h) * (n - k) - l))


def _qot_sampling(k, delta: float) -> float:
    return math.sqrt(6.0) * math.exp(-delta * delta * k / 100.0)


def _hoeffding(n, k, eps: float) -> float:
    return 2.0 * math.exp(-2.0 * eps * eps * (n - k))


def qkd_bound(n, k, m, l, beta: float, delta: float) -> SecurityReport:
    """Key-distribution security bound at observed error rate beta.

    Terms: the privacy-amplification term
    1/2 * 2^(-((1-h(beta+delta))n - k - m - l)/2) and the sampling-error term
    2 exp(-delta^2 k / 6).  Values above 1 are reported as-is.
    """
    if beta < 0 or delta < 0:
        raise ValueError("beta and delta must be non-negative")
    if beta + delta > 0.5 + 1e-12:
        raise ValueError(f"beta + delta must be <= 1/2, got {beta + delta}")
    pa = _qkd_pa(n, k, m, l, _qkd_entropy(beta, delta))
    return SecurityReport(
        bound_terms=(("privacy-amplification", pa), ("sampling", _qkd_sampling(k, delta))),
        delta_used=float(delta),
    )


def qot_bound(n, k, l, eps: float, delta: float) -> SecurityReport:
    """Oblivious-transfer security bound with free parameters (eps, delta).

    Terms: 1/2 * 2^(-((1/4 - eps/2 - h(delta))(n-k) - l)/2),
    sqrt(6) exp(-delta^2 k / 100), and 2 exp(-2 eps^2 (n-k)).
    """
    if not 0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return SecurityReport(
        bound_terms=(
            ("privacy-amplification", _qot_pa(n, k, l, eps, binary_entropy(delta))),
            ("sampling", _qot_sampling(k, delta)),
            ("hoeffding", _hoeffding(n, k, eps)),
        ),
        delta_used=float(delta),
    )


# Each bound optimum depends only on the protocol's parameters, and a batch of
# runs in one process (cli.run, verify, a library loop) repeats a few
# parameter sets: each grid search keeps the optima of its _BOUND_MEMO most
# recently used argument tuples.
_BOUND_MEMO = 256


def qot_bound_optimize(n, k, l, grid: int = 40) -> dict:
    """Minimize the three-term bound over an (eps, delta) grid.

    Returns {"eps", "delta", "report"} for the first grid point, in (eps,
    delta) order, whose total is smallest.  Each point's total is the same
    ``sum`` of the same floats that ``SecurityReport`` forms, so the winner
    is the one the per-point reports would pick.  The optimum (eps, delta)
    is memoised per (n, k, l, grid), for the 256 most recently used
    parameter sets; the dict and its report are built afresh on every call.
    """
    eps, delta = _qot_best(n, k, l, grid)
    return {"eps": eps, "delta": delta, "report": qot_bound(n, k, l, eps, delta)}


@functools.lru_cache(maxsize=_BOUND_MEMO)
def _qot_best(n, k, l, grid) -> tuple[float, float]:
    """The (eps, delta) that :func:`qot_bound_optimize` reports."""
    deltas = [0.5 * j / (grid + 1) for j in range(1, grid + 1)]
    per_delta = [(delta, binary_entropy(delta), _qot_sampling(k, delta)) for delta in deltas]
    best = None
    for i in range(1, grid + 1):
        eps = 0.25 * i / (grid + 1)
        hoef = _hoeffding(n, k, eps)
        for delta, h, samp in per_delta:
            total = sum((_qot_pa(n, k, l, eps, h), samp, hoef))
            if best is None or total < best[0]:
                best = (total, eps, delta)
    return best[1:]


def qkd_key_length(n, k, m, beta: float) -> int:
    """The protocol's key length: the largest integer l < (1-h(beta))n-k-m,
    or 0 when that right-hand side is not positive."""
    rhs = (1 - binary_entropy(beta)) * n - k - m
    if rhs <= 0:
        return 0
    return max(0, math.ceil(rhs - 1 - 1e-12))


def qkd_max_len(n, k, m, beta: float, eps_target: float) -> tuple[int, float]:
    """Largest key length meeting the security target, with its delta.

    Scans delta over a 1000-point grid on (0, 1/2 - beta]; for each delta the
    largest l with bound <= eps_target is found in closed form and confirmed
    against the total ``qkd_bound`` would report.  The protocol's own cap
    l < (1-h(beta))n-k-m always applies.  Returns (0, first grid delta) when
    no length works.  Needs n >= 2 pairs, 1 <= k < n test pairs and m >= 0.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 1 <= k < n:
        raise ValueError(f"test size must satisfy 1 <= k < n, got k={k}, n={n}")
    EccModel(m)  # checks m >= 0
    if not 0 <= beta < 0.5:
        raise ValueError(f"beta must lie in [0, 1/2), got {beta}")
    if not 0 < eps_target < math.inf:
        raise ValueError(f"eps_target must be positive and finite, got {eps_target}")
    l_cap = qkd_key_length(n, k, m, beta)
    span = 0.5 - beta
    grid = [span * i / 1000 for i in range(1, 1001)]
    best_l, best_delta = -1, grid[0]
    for delta in grid:
        samp = _qkd_sampling(k, delta)
        if samp >= eps_target:
            continue
        h = _qkd_entropy(beta, delta)
        guess = math.floor((1 - h) * n - k - m + 2 * math.log2(2 * (eps_target - samp)) + 1e-12)
        l = min(max(guess, -1), l_cap)
        # the total grows with l, so the probes end on the largest l that meets
        # the target, whatever the guess
        while l >= 0 and sum((_qkd_pa(n, k, m, l, h), samp)) > eps_target:
            l -= 1
        while l + 1 <= l_cap and sum((_qkd_pa(n, k, m, l + 1, h), samp)) <= eps_target:
            l += 1
        if l > best_l:
            best_l, best_delta = l, delta
    if best_l < 0:
        return 0, grid[0]
    return best_l, best_delta


def asymptotic_qkd_rate(phi: float) -> float:
    """Asymptotic key bits per remaining pair: 1 - 2 h(phi)."""
    if not 0 <= phi < 0.5:
        raise ValueError(f"phi must lie in [0, 1/2), got {phi}")
    return 1 - 2 * binary_entropy(phi)


def qkd_rate_threshold() -> float:
    """The error rate where the asymptotic rate hits zero, by bisection."""
    lo, hi = 0.0, 0.5 - 1e-12
    for _ in range(100):
        mid = (lo + hi) / 2
        if asymptotic_qkd_rate(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def rate_curve_csv(phis) -> str:
    """CSV of the asymptotic rate curve: phi,rate per row."""
    lines = ["phi,rate"]
    for phi in phis:
        lines.append(f"{float(phi):.10g},{asymptotic_qkd_rate(float(phi)):.10g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# linear code
# ---------------------------------------------------------------------------

# make_linear_code draws at most this many parity-check matrices.
_CODE_TRIES = 2000


def _correctable(length: int, radius: float) -> int:
    """The weight t that a code of this length and correction radius corrects."""
    return math.floor(radius * length + 1e-9)


@functools.lru_cache(maxsize=1)
def _error_patterns(length: int, t: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """The error patterns of weight 1..t, by weight and then in
    ``itertools.combinations`` order: each one's positions, and the same
    positions as the rows of a read-only (patterns, t) array, padded with
    ``length``."""
    positions = tuple(pos for w in range(1, t + 1) for pos in itertools.combinations(range(length), w))
    padded = np.array([pos + (length,) * (t - len(pos)) for pos in positions])
    padded.setflags(write=False)
    return positions, padded


def _syndrome_table(parity: np.ndarray, t: int) -> dict[bytes, tuple[int, ...]]:
    """Each syndrome of an error pattern of weight <= t, as bytes of 0 and 1,
    mapped to the positions of the first pattern that has it: the zero
    pattern, then :func:`_error_patterns`.  At t = 0, or without syndrome
    bits, the table is the zero pattern alone.  It has an entry per pattern
    exactly when the code's minimum distance exceeds 2t."""
    m, length = parity.shape
    table = {}
    if t > 0 and m:
        positions, padded = _error_patterns(length, t)
        cols = np.zeros((length + 1, m), dtype=np.uint8)  # a pattern's syndrome: XOR of its columns
        cols[:length] = parity.T % 2  # the padding position's column stays 0
        syn = functools.reduce(np.bitwise_xor, (cols[j] for j in padded.T))
        keys = syn.view(f"V{m}").ravel().tolist()
        table = dict(zip(reversed(keys), reversed(positions)))  # the first pattern written last
    table[bytes(m)] = ()
    return table


@dataclass(frozen=True, eq=False)
class LinearCode:
    """Binary linear code given by its parity-check matrix, with a promised
    correction radius: every error pattern of relative weight <= radius is
    decoded exactly."""

    parity: np.ndarray
    radius: float

    def __post_init__(self):
        parity = np.asarray(self.parity)
        if parity.ndim != 2 or parity.dtype.kind not in "biu" or parity.size and not 0 <= parity.min() <= parity.max() <= 1:
            raise ValueError(f"parity-check matrix must be a 2-D array of 0s and 1s, got {parity.dtype} {parity.shape}")
        if not 0 <= self.radius < 0.5:
            raise ValueError(f"radius must lie in [0, 1/2), got {self.radius}")
        object.__setattr__(self, "parity", parity)

    @property
    def length(self) -> int:
        return self.parity.shape[1]

    @property
    def m(self) -> int:
        return self.parity.shape[0]

    @functools.cached_property
    def _table(self) -> dict[bytes, tuple[int, ...]]:
        """The :func:`_syndrome_table` of this code's correction radius."""
        return _syndrome_table(self.parity, _correctable(self.length, self.radius))

    def syndrome(self, bits) -> tuple[int, ...]:
        return tuple((self.parity @ _check_bits(bits, self.length, "string") % 2).tolist())

    def correct(self, received, syn) -> tuple[int, ...] | None:
        """Recover the sent string from the received one and its syndrome.

        Looks the syndrome difference up in the code's syndrome table, which
        holds the lowest-weight error pattern within the correction radius
        that has it (the first in ``itertools.combinations`` order); returns
        None when there is none.  Raises ValueError on a symbol that is not a
        bit, on a received word whose length is not the code's and on a
        syndrome whose length is not m."""
        y = _check_bits(received, self.length, "received word")
        diff = bytes(a ^ b for a, b in zip(self.syndrome(y), _check_bits(syn, self.m, "syndrome")))
        flips = self._table.get(diff)
        return None if flips is None else tuple(b ^ (i in flips) for i, b in enumerate(y))


def make_linear_code(length, m, radius, rng: np.random.Generator) -> LinearCode:
    """Draw a random parity-check matrix whose code corrects radius-fraction
    errors: its N error patterns of weight <= t = floor(radius * length) have
    N distinct syndromes, that is, its minimum distance exceeds 2t.

    At t = 0 the first draw is the code.  Otherwise each of up to
    ``_CODE_TRIES`` draws takes the syndromes of all N patterns, so the
    search charges _CODE_TRIES * N evaluations against the budget and raises
    BudgetExceededError when that exceeds it.  Parameters that the
    sphere-packing bound rules out (N > 2^m) raise ValueError before that
    charge.  N comes from binomials: no pattern is built before both."""
    length, m = int(length), int(m)
    if length < 1:
        raise ValueError(f"code length must be >= 1, got {length}")
    if not 0 <= m <= length:
        raise ValueError(f"syndrome length must lie in [0, {length}], got {m}")
    if not 0 <= radius < 0.5:
        raise ValueError(f"radius must lie in [0, 1/2), got {radius}")
    t = _correctable(length, radius)
    if t == 0:
        return LinearCode(rng.integers(0, 2, size=(m, length)).astype(np.int64), float(radius))
    impossible = f"no random code of length {length} with m={m} corrects a {radius} error fraction"
    count = sum(math.comb(length, w) for w in range(t + 1))
    if count > 2 ** m:  # sphere packing: too few syndromes to tell the patterns apart
        raise ValueError(impossible)
    _refuse("code search", _CODE_TRIES * count)
    for _ in range(_CODE_TRIES):
        code = LinearCode(rng.integers(0, 2, size=(m, length)).astype(np.int64), float(radius))
        if len(code._table) == count:
            return code
    raise ValueError(impossible)


# ---------------------------------------------------------------------------
# transcripts
# ---------------------------------------------------------------------------


def _int_row(value) -> bool:
    """A flat tuple or list of plain ints, such as a bit string: JSON data as a list."""
    return type(value) in (tuple, list) and all(type(v) is int for v in value)


def _jsonable(value):
    """JSON data: numpy scalars and arrays as Python values, tuples as lists, keys as strings."""
    if _int_row(value):
        return list(value)
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value

def _digest(data) -> str:
    """Short hash of JSON data (see :func:`_jsonable`)."""
    text = json.dumps(data, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _scalar_count(payload) -> int | None:
    if _int_row(payload):
        return len(payload)
    if isinstance(payload, list):
        counts = [_scalar_count(v) for v in payload]
        return None if None in counts else sum(counts)
    return 1 if payload is None or isinstance(payload, (int, float, str, bool)) else None


def _entry(phase: str, sender: str, type_: str, payload) -> dict:
    payload = _jsonable(payload)
    count = _scalar_count(payload)
    small = count is not None and count <= 32
    return {
        "phase": phase,
        "sender": sender,
        "type": type_,
        "payload": payload if small else {"digest": _digest(payload)},
    }


def transcript_to_json(transcript) -> str:
    """The transcript as JSON text; its entries are JSON data already."""
    return json.dumps(transcript, sort_keys=True)


def _bits(rng: np.random.Generator, count: int) -> tuple[int, ...]:
    return tuple(rng.integers(0, 2, size=count).tolist())


def _subset(rng: np.random.Generator, n: int, k: int) -> tuple[int, ...]:
    return tuple(sorted(int(i) + 1 for i in rng.choice(n, size=k, replace=False)))


# ---------------------------------------------------------------------------
# key distribution
# ---------------------------------------------------------------------------


def _eve_touch(state: PureState, n: int, adversary: AdversaryModel) -> PureState:
    """Couple each transit qubit (positions n+1..2n) to the probe register."""
    if adversary.kind not in ("entangling-probe", "custom-unitary"):
        return state
    U = adversary.probe_unitary()
    env_pos = 2 * n + 1
    for i in range(1, n + 1):
        state = apply_unitary(state, U, (n + i, env_pos))
    return state


def _qkd_block_rows(tensor: np.ndarray, n: int, first: int, run: int) -> np.ndarray:
    """Amplitudes of the bases first..first+run-1 as a (run, 4^n, dim_E)
    array: run is a power of two and first a multiple of it, so the block
    shares the basis bits of its first n - log2(run) qubit pairs, rotated
    once, and each later pair doubles a stacked basis axis with its
    unrotated and its H (x) H copy (the basis's last bit varies fastest)."""
    fixed = n - (run.bit_length() - 1)
    stack = tensor[None]
    for i in range(n):
        pair = (1 + i, 1 + n + i)  # qubits i and n + i behind the basis axis
        if i >= fixed:
            stack = np.stack([stack, _hadamard(stack, pair)], axis=1).reshape((-1,) + tensor.shape)
        elif (first >> (n - 1 - i)) & 1:
            stack = _hadamard(stack, pair)
    return stack.reshape(run, 4 ** n, tensor.shape[-1])


def _qkd_blocks(tensor: np.ndarray, n: int, cells: int):
    """(first basis, :func:`_qkd_block_rows`) for each block of the 2^n
    bases: the largest power-of-two run, at least one basis, whose 4^n
    outcomes times ``cells`` per outcome fit in ``sampling._BLOCK_CELLS``."""
    fit = sampling._BLOCK_CELLS // (4 ** n * cells)
    run = 1 << min(n, max(fit.bit_length() - 1, 0))
    for first in range(0, 2 ** n, run):
        yield first, _qkd_block_rows(tensor, n, first, run)


def _qkd_exact_distance(state: PureState, n: int, k: int, code: LinearCode) -> float:
    """Exact trace distance between the assembled (key, view) state and the
    ideal state with a uniform key of the same per-branch length.

    The view contains the probe register and every announced classical value
    (basis string, test subset, exchanged test bits, syndrome, hash seed).
    The bases are taken in blocks: a power-of-two run of them whose
    basis x outcome x subset cells number at most ``sampling._BLOCK_CELLS``
    (all 2^n bases at n <= 4, one basis per block at n = 7).  Every live
    (basis, outcome, subset) cell of a block is sliced from one outcome-bit
    matrix, with the basis folded into its view label, and hashed under
    every seed at once, one call per key length.
    """
    subsets = np.array(list(itertools.combinations(range(n), k)))
    rests = np.array([[i for i in range(n) if i not in s] for s in subsets])
    key_len = np.array([qkd_key_length(n, k, code.m, e / k) for e in range(k + 1)])  # by test errors
    weight = 1.0 / (2 ** n * len(subsets))
    distance = 0.0
    for _, rows in _qkd_blocks(state.tensor(), n, len(subsets)):
        basis, outcome = np.nonzero(np.einsum("bij,bij->bi", rows, rows.conj()).real >= 1e-15)
        amps = rows[basis, outcome]
        cond = weight * amps[:, :, None] * amps[:, None, :].conj()
        bits = (outcome[:, None] >> np.arange(2 * n - 1, -1, -1)) & 1
        xs, ys, raw = bits[:, subsets], bits[:, n + subsets], bits[:, rests]
        syn = raw @ code.parity.T & 1
        announced = np.concatenate([xs, ys, syn], axis=2)  # with the basis and subset, they label the view
        width = announced.shape[2]
        labels = basis[:, None] * len(subsets) + np.arange(len(subsets))  # (basis, subset)
        views = announced @ (1 << np.arange(width)) + (labels << width)
        lengths = key_len[(xs != ys).sum(axis=2)]
        for l in np.unique(lengths).tolist():
            branch, subset = np.nonzero(lengths == l)
            distance += _seeded_distance(HashFamily(n - k, l), raw[branch, subset], views[branch, subset], cond[branch])
    return distance


def _sample_xy(
    rng: np.random.Generator, n: int, theta, adversary: AdversaryModel
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-pair sampled measurement outcomes for the transcript-only mode."""
    x = _bits(rng, n)
    y = []
    for i in range(n):
        if adversary.kind == "intercept-resend":
            if adversary.basis_policy == "random":
                eve_basis = int(rng.integers(0, 2))
            else:
                eve_basis = 1 if adversary.basis_policy == "hadamard" else 0
            if eve_basis == theta[i]:
                y.append(x[i])  # undisturbed: Eve measured in the right basis
            else:
                y.append(int(rng.integers(0, 2)))
        else:
            flip = rng.random() < adversary.noise
            y.append(x[i] ^ int(flip))
    return x, tuple(y)


def simulate_qkd(
    params: QkdParams,
    adversary: AdversaryModel,
    rng_seed: int,
    exact: bool | None = None,
):
    """Run the four-phase key-distribution protocol once.

    Returns (transcript, alice_key, bob_key, report); an oblivious-transfer
    adversary kind is refused before any draw.  In exact-distance mode
    the report carries the exact trace distance between the real (key, view)
    state and an ideal uniform key.  That mode takes adversaries none,
    entangling-probe and custom-unitary without channel noise, at n <= 7;
    ``exact=None`` selects it for exactly those runs.  Before it builds the
    state it charges 2^n 4^n C(n, k) 2^(n-k-1) evaluations against the budget
    and raises BudgetExceededError when that exceeds it: under the default
    budget every n <= 6 run fits and every n = 7 run is refused.  The
    distance takes the 2^n bases in blocks of at most
    ``sampling._BLOCK_CELLS`` basis x outcome x subset cells, so its memory
    does not grow with 2^n (:func:`_qkd_exact_distance`).  Error correction
    uses a code from :func:`make_linear_code` of length n - k with ecc.m
    syndrome bits and correction radius ecc.radius, at any length the
    budget admits, and Bob decodes with :meth:`LinearCode.correct`, a lookup
    in the code's syndrome table.  The report's
    delta comes from a 200-point scan that depends only on (n, k, m, l,
    beta); its optimum is memoised for the 256 most recently used parameter
    sets.
    """
    n, k, ecc = params.n, params.k, params.ecc
    if adversary.kind not in _QKD_KINDS:
        raise ValueError(f"adversary kind {adversary.kind!r} is not a key-distribution model")
    exact_ok = adversary.kind in ("none", "entangling-probe", "custom-unitary") and (
        adversary.noise == 0.0
    )
    if exact is None:
        exact = exact_ok and n <= 7
    if exact:
        if not exact_ok:
            raise ValueError(
                f"exact-distance mode does not support adversary kind {adversary.kind!r} "
                "or channel noise"
            )
        if n > 7:
            raise ValueError(f"exact-distance mode supports n <= 7, got {n}")
        # bases x outcomes x test subsets x hash seeds that _qkd_exact_distance visits
        _refuse("exact distance", 2 ** n * 4 ** n * math.comb(n, k) * 2 ** (n - k - 1), instead="--mc")
    rng = np.random.default_rng(rng_seed)
    transcript = []
    code = make_linear_code(n - k, ecc.m, ecc.radius, rng)
    transcript.append(_entry("setup", "both", "parity-check", code.parity))

    theta = _bits(rng, n)
    if exact:
        dim_probe = adversary.probe_dim if adversary.kind != "none" else 1
        base = make_epr_pairs(n)
        if dim_probe > 1:
            env = np.zeros(dim_probe, dtype=complex)
            env[0] = 1.0
            base = PureState(np.kron(base.amps, env), (2,) * (2 * n) + (dim_probe,))
        state = _eve_touch(base, n, adversary)
        branch = sample_measurement(
            state, range(1, 2 * n + 1), BasisSpec(theta + theta), rng
        )
        x, y = branch.outcome[:n], branch.outcome[n:]
    else:
        state = None
        x, y = _sample_xy(rng, n, theta, adversary)
    transcript.append(_entry("qubit-distribution", "alice", "epr-send", n))
    transcript.append(_entry("qubit-distribution", "alice", "basis", theta))

    s = _subset(rng, n, k)
    xs, ys = restrict(x, s), restrict(y, s)
    beta = rel_weight(tuple(a ^ b for a, b in zip(xs, ys)))
    transcript.append(_entry("error-estimation", "alice", "test-subset", s))
    transcript.append(_entry("error-estimation", "alice", "test-bits", xs))
    transcript.append(_entry("error-estimation", "bob", "test-bits", ys))
    transcript.append(_entry("error-estimation", "both", "beta", beta))

    sbar = complement(s, n)
    x_raw = restrict(x, sbar)
    y_raw = restrict(y, sbar)
    syn = code.syndrome(x_raw)
    corrected = code.correct(y_raw, syn)
    transcript.append(_entry("error-correction", "alice", "syndrome", syn))
    if corrected is None:
        corrected = y_raw
        transcript.append(_entry("error-correction", "bob", "decode-failure", None))

    l = qkd_key_length(n, k, ecc.m, beta)
    fam = HashFamily(n - k, l)
    r = _bits(rng, fam.seed_bits)
    alice_key = hash_eval(fam, r, x_raw)
    bob_key = hash_eval(fam, r, corrected)
    transcript.append(_entry("key-distillation", "alice", "key-length", l))
    transcript.append(_entry("key-distillation", "alice", "hash-seed", r))

    exact_distance = None
    if exact:
        exact_distance = _qkd_exact_distance(state, n, k, code)

    delta, terms = _best_qkd_terms(n, k, ecc.m, l, beta)
    report = SecurityReport(
        bound_terms=terms,
        delta_used=delta,
        exact_distance=exact_distance,
        transcript_digest=_digest(transcript),
    )
    return transcript, alice_key, bob_key, report


@functools.lru_cache(maxsize=_BOUND_MEMO)
def _best_qkd_terms(n, k, m, l, beta):
    """(delta, bound terms) of the first of 200 deltas in (0, 1/2 - beta]
    whose two-term total is smallest, memoised like :func:`_qot_best`."""
    if beta >= 0.5:
        return 0.0, (("privacy-amplification", math.inf), ("sampling", 2.0))
    best = None
    for i in range(1, 201):
        delta = (0.5 - beta) * i / 200
        pa = _qkd_pa(n, k, m, l, _qkd_entropy(beta, delta))
        total = sum((pa, _qkd_sampling(k, delta)))
        if best is None or total < best[0]:
            best = (total, delta)
    delta = best[1]
    return delta, qkd_bound(n, k, m, l, beta, delta).bound_terms


# ---------------------------------------------------------------------------
# the two equivalent error-estimation experiments
# ---------------------------------------------------------------------------


def qkd_sampling_view(state: PureState, params: QkdParams, rng_seed: int) -> dict:
    """Check that measuring pairwise-CNOT-transformed pairs, difference bits
    first, reproduces the original experiment exactly.

    The original experiment measures both halves of each pair in the announced
    basis, yielding (x, y) and derived values w (the reference-side bit) and
    z = x XOR y.  The modified experiment applies a CNOT to each pair and
    measures the z-carrying qubits first and the w-carrying qubits second.
    Measuring z first and w second has the same joint law, and leaves the
    same environment, as measuring both together, so both experiments are
    read off rotated amplitudes: each block of bases is compared as two
    amplitude tables from :func:`_qkd_block_rows`, the state's and its CNOT
    image's, one row of dim_E amplitudes per (basis, outcome), the second
    table's outcomes permuted onto (w, z).  Asserts the (basis, w, z)
    distributions and the conditional environment states agree within 1e-9,
    and returns the comparison report together with one sampled execution of
    the modified experiment.  The comparison is charged 2^n 4^n dim_E^2
    evaluations before the CNOT image is built.
    """
    n = params.n
    if state.population_count != 2 * n:
        raise ValueError(
            f"state has {state.population_count} population qubits, expected {2 * n}"
        )
    cells = state.dim_E ** 2
    _refuse("experiment comparison", 2 ** n * 4 ** n * cells)
    transformed = apply_cnot_pairs(state, [(i, n + i) for i in range(1, n + 1)])
    a, b = np.divmod(np.arange(4 ** n), 2 ** n)  # an outcome's bits on A and on B
    max_tv = max_cond = 0.0
    blocks = (_qkd_blocks(x.tensor(), n, cells) for x in (state, transformed))
    for (first, u), (_, v) in zip(*blocks):
        theta = np.arange(first, first + len(u))[:, None]
        # original: w = a&~theta | b&theta, z = a^b; modified: z on A_i where
        # theta_i = 1 and on B_i where theta_i = 0, w on the other qubit
        v = v[np.arange(len(v))[:, None], (a ^ b & theta) << n | b ^ a & ~theta]
        p, q = (np.einsum("bij,bij->bi", x, x.conj()).real for x in (u, v))
        max_tv = max(max_tv, float(np.abs(p - q).sum(axis=1).max()) / 2)
        live = np.minimum(p, q) > 1e-12
        u, v = u[live] / np.sqrt(p[live])[:, None], v[live] / np.sqrt(q[live])[:, None]
        gaps = np.linalg.eigvalsh(u[:, :, None] * u[:, None, :].conj() - v[:, :, None] * v[:, None, :].conj())
        max_cond = max(max_cond, float(np.abs(gaps).sum(axis=1).max(initial=0.0)) / 2)
    if max_tv > 1e-9 or max_cond > 1e-9:
        raise ValueError(
            f"experiments disagree: total variation {max_tv}, conditional {max_cond}"
        )
    # structural basis layout: z reads Hadamard on A, computational on B,
    # and w reads the pairwise opposite
    rng = np.random.default_rng(rng_seed)
    theta = _bits(rng, n)
    z_pos = [i if theta[i - 1] else n + i for i in range(1, n + 1)]
    w_pos = [n + i if theta[i - 1] else i for i in range(1, n + 1)]
    zbr = sample_measurement(transformed, z_pos, BasisSpec(theta + theta), rng)
    s = _subset(rng, n, params.k)
    beta = rel_weight(restrict(zbr.outcome, s))
    wbr = sample_measurement(zbr.post_state, w_pos, BasisSpec(theta + theta), rng)
    return {
        "agrees": True,
        "max_total_variation": max_tv,
        "max_conditional_distance": max_cond,
        "z_basis": {"A": "hadamard", "B": "computational"},
        "w_basis": {"A": "computational", "B": "hadamard"},
        "sample": {
            "theta": theta,
            "z": zbr.outcome,
            "test_subset": s,
            "beta": beta,
            "w": wbr.outcome,
        },
    }


# ---------------------------------------------------------------------------
# oblivious transfer
# ---------------------------------------------------------------------------


def _product_amps(x, theta) -> np.ndarray:
    """Amplitudes prod_i <j_i|H^theta_i|x_i> of the product state, one per
    basis string j (qubit 1 its highest bit): zero unless j agrees with x
    where theta is 0, else (-1)^(sum of j_i x_i where theta is 1) times one
    factor 1/sqrt(2) per rotated qubit, multiplied in the order in which
    np.kron of the one-qubit states multiplies them."""
    n = len(x)
    x, turned = np.array(x), np.array(theta, dtype=bool)
    j = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    keep = (j[:, ~turned] == x[~turned]).all(axis=1)
    sign = 1 - 2 * (j @ (x * turned) & 1)
    return np.where(keep, sign * math.prod([HADAMARD[0, 0].real] * int(turned.sum())), 0.0)


def _flip_set(bob: AdversaryModel, n: int) -> set[int]:
    """Bob's flip positions, each checked to lie in [1, n]."""
    for i in bob.flips:
        if not 1 <= i <= n:
            raise ValueError(f"flip position {i} outside [1, {n}]")
    return set(bob.flips)


def _qot_bob_commit(rng, n, theta, x, bob: AdversaryModel):
    """Bob's measurement and commitment step.

    Returns (registry, openings, stored_state) where registry holds the
    committed (theta_hat, x_hat), openings what Bob will answer with, and
    stored_state a kept statevector for the delay-measure Bob.
    """
    kind = bob.kind
    theta_hat = _bits(rng, n)
    stored = None
    if kind in ("none", "commit-flip", "open-flip"):
        x_hat = tuple(
            x[i] if theta_hat[i] == theta[i] else int(rng.integers(0, 2)) for i in range(n)
        )
    elif kind == "no-measure":
        x_hat = _bits(rng, n)
    elif kind == "delay-measure":
        if n > 10:
            raise ValueError(f"delay-measure exact mode supports n <= 10, got {n}")
        x_hat = _bits(rng, n)
        stored = PureState.from_population(_product_amps(x, theta), d=2)
    else:
        raise ValueError(f"adversary kind {kind!r} is not an oblivious-transfer model")
    flips = _flip_set(bob, n)
    if kind == "commit-flip":
        registry = (theta_hat, tuple(x_hat[i] ^ (1 if i + 1 in flips else 0) for i in range(n)))
        openings = registry
    elif kind == "open-flip":
        registry = (theta_hat, x_hat)
        openings = (theta_hat, tuple(x_hat[i] ^ (1 if i + 1 in flips else 0) for i in range(n)))
    else:
        registry = (theta_hat, x_hat)
        openings = registry
    return registry, openings, stored


def simulate_qot(params: QotParams, bob: AdversaryModel, rng_seed: int):
    """Run the four-phase commit-and-open OT protocol once.

    Returns (transcript, k0, k1, bob_output, report); on abort the keys and
    bob_output are None and the abort is recorded in the transcript along
    with the exact detection probability for the adversary model.  The
    report's (eps, delta) is ``qot_bound_optimize(n, k, l, grid=30)``, whose
    optimum is memoised for the 256 most recently used parameter sets.
    """
    n, k, l = params.n, params.k, params.l
    rng = np.random.default_rng(rng_seed)
    transcript = []
    fam = HashFamily(n, l)

    x = _bits(rng, n)
    theta = _bits(rng, n)
    transcript.append(_entry("preparation", "alice", "qubits", n))
    registry, openings, stored = _qot_bob_commit(rng, n, theta, x, bob)
    transcript.append(_entry("commitment", "bob", "commit", _digest(_jsonable(registry))))

    t = _subset(rng, n, k)
    transcript.append(_entry("commitment", "alice", "test-subset", t))
    opened_theta = tuple(openings[0][i - 1] for i in t)
    opened_x = tuple(openings[1][i - 1] for i in t)
    transcript.append(_entry("commitment", "bob", "openings", (opened_theta, opened_x)))

    abort = None
    for j, i in enumerate(t):
        if openings[0][i - 1] != registry[0][i - 1] or openings[1][i - 1] != registry[1][i - 1]:
            abort = f"binding violation at position {i}"
            break
        if registry[0][i - 1] == theta[i - 1] and opened_x[j] != x[i - 1]:
            abort = f"opened bit at position {i} disagrees with the sent qubit"
            break
    if abort is not None:
        transcript.append(_entry("commitment", "alice", "abort", abort))
        if bob.kind != "none":
            transcript.append(
                _entry("commitment", "alice", "abort-probability", qot_catch_probability(params, bob))
            )
        report = _qot_report(params, transcript)
        return transcript, None, None, None, report

    transcript.append(_entry("set-partitioning", "alice", "basis", theta))
    theta_hat = registry[0]
    if stored is not None:
        branch = sample_measurement(stored, range(1, n + 1), BasisSpec(theta), rng)
        learned = branch.outcome  # the true basis reveals x exactly
        transcript.append(_entry("set-partitioning", "bob", "late-measurement", learned))
    else:
        learned = None
    tbar = complement(t, n)
    c = bob.choice_bit
    agree = tuple(i for i in tbar if theta[i - 1] == theta_hat[i - 1])
    differ = tuple(i for i in tbar if theta[i - 1] != theta_hat[i - 1])
    sets = {c: agree, 1 - c: differ}
    transcript.append(_entry("set-partitioning", "bob", "index-sets", (sets[0], sets[1])))
    dis = [sum(1 for i in sets[b] if theta[i - 1] != theta_hat[i - 1]) for b in (0, 1)]
    realized_c = 0 if dis[1] >= dis[0] else 1
    transcript.append(_entry("set-partitioning", "both", "realized-choice", realized_c))

    r = _bits(rng, fam.seed_bits)
    transcript.append(_entry("key-extraction", "alice", "hash-seed", r))
    k0 = hash_eval(fam, r, pad_input(restrict(x, sets[0]), n))
    k1 = hash_eval(fam, r, pad_input(restrict(x, sets[1]), n))
    keys = {0: k0, 1: k1}
    if bob.kind == "delay-measure":
        bob_keys = {
            b: hash_eval(fam, r, pad_input(restrict(learned, sets[b]), n)) for b in (0, 1)
        }
        bob_output = {"c": c, "key": bob_keys[c], "other_key": bob_keys[1 - c]}
        transcript.append(_entry("key-extraction", "bob", "both-keys-recovered", None))
    else:
        source = registry[1]
        bob_output = {"c": c, "key": hash_eval(fam, r, pad_input(restrict(source, sets[c]), n))}
    transcript.append(
        _entry("key-extraction", "both", "keys-match", bob_output["key"] == keys[c])
    )
    report = _qot_report(params, transcript)
    return transcript, k0, k1, bob_output, report


def _qot_report(params: QotParams, transcript) -> SecurityReport:
    best = qot_bound_optimize(params.n, params.k, params.l, grid=30)
    return SecurityReport(
        bound_terms=best["report"].bound_terms,
        delta_used=best["delta"],
        transcript_digest=_digest(transcript),
    )


def qot_catch_probability(params: QotParams, bob: AdversaryModel) -> float:
    """Exact probability that Alice aborts, over her test-subset and basis
    randomness, for the given adversary model.

    Closed forms: a blind guess fails each tested position with probability
    1/4; an opened flip is caught whenever tested; a committed flip is caught
    when tested and the bases agree, so the flip count follows the
    hypergeometric law of the test-subset draw.
    """
    n, k = params.n, params.k
    kind = bob.kind
    if kind == "none":
        return 0.0
    if kind in ("no-measure", "delay-measure"):
        return 1.0 - 0.75 ** k
    flips = _flip_set(bob, n)
    f = len(flips)
    if kind == "open-flip":
        # caught unless the test subset misses every flipped position
        return 1.0 - math.comb(n - f, k) / math.comb(n, k)
    if kind == "commit-flip":
        total = sum(
            math.comb(f, j) * math.comb(n - f, k - j) * (1.0 - 0.5 ** j)
            for j in range(0, min(f, k) + 1)
        )
        return total / math.comb(n, k)
    raise ValueError(f"adversary kind {kind!r} is not an oblivious-transfer model")
