"""Min-entropy accounting and privacy amplification.

Provides the binary entropy function and the Hamming-ball counting bound, the
classical-side min-entropy formula, PSD certificates for min-entropy lower
bounds against quantum side information, the measurement/mixture operator
inequality behind the entropy lemma, and an exact small-instance check of the
two-universal-hashing key-extraction bound.

The hash family is linear over GF(2): the output is the first l input bits
XORed with a Toeplitz combination of the remaining n-l bits, so the seed has
n-1 bits.  Every seed gives a surjective map (the matrix [I | T] has full row
rank), which makes the extractor output exactly uniform on uniform input, and
the family is two-universal with collision probability exactly 2^-l for
distinct inputs that differ outside the identity block.

The hash is written twice: ``_hash_keys`` takes many inputs under many seeds
as int64 arrays (l <= 64), and the checked ``hash_eval`` takes one input in
Python ints, at any l.  The extraction distance of (key, public view, E) from
(uniform key, view, E) is written once, ``_extraction_distance``, which
``pa_exact_check`` and the exact key-distribution distance both call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantum import BasisSpec, CqState, DensityMatrix, PureState, _hadamard, _trace_norm

__all__ = [
    "HashFamily",
    "EntropyCertificate",
    "binary_entropy",
    "hamming_ball_log_bound",
    "hamming_ball_log_exact",
    "min_entropy_classical_side",
    "check_certificate",
    "lemma2_operator_check",
    "corollary1_bound",
    "hash_eval",
    "pad_input",
    "pa_exact_check",
    "classical_env_min_entropy",
    "CqState",
]

_PSD_TOL = 1e-9
_EXACT_INPUT_BITS = 6  # pa_exact_check's limit: 2^n inputs, each hashed under 2^(n-1) seeds


# ---------------------------------------------------------------------------
# entropies and counting
# ---------------------------------------------------------------------------


def binary_entropy(p: float) -> float:
    """h(p) = -(p log2 p + (1-p) log2 (1-p)), with h(0) = h(1) = 0."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def _check_radius(beta: float, delta: float) -> float:
    beta, delta = float(beta), float(delta)
    if beta < 0 or delta < 0:
        raise ValueError("beta and delta must be non-negative")
    radius = beta + delta
    if radius > 0.5:
        raise ValueError(f"beta + delta must be <= 1/2, got {radius}")
    return radius


def hamming_ball_log_bound(beta: float, delta: float, n: int) -> float:
    """log2 of the entropy bound on the ball {b : relwt(b) <= beta+delta}:
    h(beta+delta) * n, valid for beta+delta <= 1/2."""
    radius = _check_radius(beta, delta)
    return binary_entropy(radius) * n


def hamming_ball_log_exact(beta: float, delta: float, n: int) -> float:
    """log2 of the exact ball size sum_{w <= (beta+delta) n} C(n, w), n <= 30."""
    radius = _check_radius(beta, delta)
    n = int(n)
    if not 0 <= n <= 30:
        raise ValueError(f"exact counting supports 0 <= n <= 30, got {n}")
    cut = math.floor(radius * n + 1e-9)  # guard against float droop at integers
    total = sum(math.comb(n, w) for w in range(cut + 1))
    return math.log2(total)


def min_entropy_classical_side(joint) -> float:
    """H_min(X|Y) = -log2 sum_y max_x P(x, y) for a finite joint distribution.

    ``joint`` maps (x, y) pairs to probabilities.  With a constant y this
    reduces to -log2 max_x P(x).  The pairs are laid out as an (x, y) array,
    rows and columns in order of first appearance, with 0 where a pair is
    absent.
    """
    items = dict(joint)
    rows: dict = {}
    cols: dict = {}
    for x, y in items:
        rows.setdefault(x, len(rows))
        cols.setdefault(y, len(cols))
    table = np.zeros((len(rows), len(cols)))
    for (x, y), p in items.items():
        table[rows[x], cols[y]] = float(p)
    return _min_entropy(table)


def _min_entropy(table: np.ndarray) -> float:
    """H_min(X|Y) of an (x, y) array of probabilities, read in row-major
    order: the first negative entry is reported, and the total and the sum
    of column maxima are added one float at a time, in the order a row-major
    scan first meets each column's positive weight."""
    if table.size == 0:
        raise ValueError("joint distribution is empty")
    flat = table.ravel()
    negative = np.flatnonzero(flat < -1e-15)
    if len(negative):
        raise ValueError(f"negative probability {float(flat[negative[0]])}")
    total = float(np.cumsum(flat)[-1])  # a running total, one float at a time
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {total}, not 1")
    positive = table > 0
    cols = np.flatnonzero(positive.any(axis=0))
    order = cols[np.argsort(positive[:, cols].argmax(axis=0), kind="stable")]
    return -math.log2(sum(table.max(axis=0)[order].tolist()))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyCertificate:
    """A claimed min-entropy lower bound h with its witness operator sigma_E.

    Validity is exactly the PSD condition tested by check_certificate; nothing
    is verified at construction beyond basic shape.
    """

    h: float
    sigma_E: object

    def witness(self, env_dim: int) -> DensityMatrix:
        sigma = self.sigma_E
        if not isinstance(sigma, DensityMatrix):
            mat = np.asarray(sigma, dtype=complex)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"witness must be a square matrix, got shape {mat.shape}")
            sigma = DensityMatrix(mat, (mat.shape[0],))
        if sigma.dim != env_dim:
            raise ValueError(
                f"witness dimension {sigma.dim} != environment dimension {env_dim}"
            )
        return sigma


def _certificate_min_eig(rho_XE: CqState, cert: EntropyCertificate) -> float:
    """Smallest eigenvalue over the blocks 2^-h sigma_E - P(x) rho_x, all
    from one batched eigvalsh."""
    sigma = cert.witness(rho_XE.env_dim)
    probs, mats = rho_XE._probs, rho_XE._stack
    blocks = 2.0 ** (-float(cert.h)) * sigma.matrix - probs[:, None, None] * mats
    return float(np.linalg.eigvalsh(blocks)[:, 0].min())


def check_certificate(rho_XE: CqState, cert: EntropyCertificate) -> bool:
    """Whether 2^-h I_X (x) sigma_E - rho_XE is PSD within -1e-9.

    A passing certificate proves the conditional min-entropy is at least h.
    """
    return _certificate_min_eig(rho_XE, cert) >= -_PSD_TOL


def classical_env_min_entropy(rho_XE: CqState) -> float:
    """Exact H_min(X|E) when every conditional operator is diagonal.

    Raises if some conditional has off-diagonal weight: genuinely quantum
    side information is handled through certificates only.
    """
    probs, mats = rho_XE._probs, rho_XE._stack
    diag = np.diagonal(mats, axis1=1, axis2=2)
    if np.abs(mats - diag[:, :, None] * np.eye(rho_XE.env_dim)).max() > 1e-12:
        raise ValueError("conditional operators are not diagonal; supply an EntropyCertificate")
    return _min_entropy(probs[:, None] * diag.real)


# ---------------------------------------------------------------------------
# the measurement/mixture operator inequality
# ---------------------------------------------------------------------------


def lemma2_operator_check(phi: PureState, J, W_basis: BasisSpec) -> dict:
    """Check |J| * rho_mix_WE - rho_WE >= 0 for a state supported on J.

    rho_WE arises from measuring the population of phi in W_basis; rho_mix_WE
    from first dephasing the population in the computational basis and then
    measuring.  Both are block diagonal over outcomes w, so the check runs
    per block, all in one batched eigvalsh.  Block w's coherent vector is row
    w of the population under ``quantum._hadamard`` on the theta axes; its
    dephased part is the mean over those axes of the |phi_i><phi_i|.
    Returns {"min_eig": smallest eigenvalue seen, "holds": bool}.
    """
    n = phi.population_count
    if len(W_basis) != n:
        raise ValueError(f"basis length {len(W_basis)} != population count {n}")
    if n and phi.population_dim != 2 and any(W_basis.theta):
        raise ValueError("Hadamard basis requires qubit subsystems (d = 2)")
    dim_pop = phi.population_dim ** n if n else 1
    J = {int(i) for i in J}
    for i in J:
        if not 0 <= i < dim_pop:
            raise ValueError(f"basis index {i} outside [0, {dim_pop})")
    block = phi.amps.reshape(dim_pop, phi.dim_E)
    outside = set(np.flatnonzero(np.abs(block).max(axis=1) > 1e-12).tolist()) - J
    if outside:
        raise ValueError(f"state has support outside J at indices {sorted(outside)}")

    shape = phi.dims[:-1] + (phi.dim_E, phi.dim_E)
    axes = tuple(p for p, bit in enumerate(W_basis.theta) if bit)
    coherent = _hadamard(phi.tensor(), axes).reshape(shape[:-1] + (1,))
    outer = (block[:, :, None] * block[:, None, :].conj()).reshape(shape)
    dephased = outer.mean(axis=axes, keepdims=True)
    ops = len(J) * dephased - coherent * coherent.conj().swapaxes(-1, -2)
    min_eig = float(np.linalg.eigvalsh(ops.reshape(-1, phi.dim_E, phi.dim_E))[:, 0].min())
    return {"min_eig": min_eig, "holds": min_eig >= -_PSD_TOL}


def corollary1_bound(theta: BasisSpec, beta: float, delta: float, n: int) -> float:
    """weight(theta) - h(beta+delta) n; may be negative and is returned as-is."""
    n = int(n)
    if len(theta) != n:
        raise ValueError(f"theta length {len(theta)} != n = {n}")
    radius = _check_radius(beta, delta)
    return sum(theta.theta) - binary_entropy(radius) * n


# ---------------------------------------------------------------------------
# two-universal hashing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HashFamily:
    """Seeded linear hash {0,1}^n -> {0,1}^l over GF(2).

    g(r, x) = x[:l] XOR T_r x[l:], with T_r the l x (n-l) Toeplitz matrix
    T[i][j] = r[i - j + (n-l) - 1] built from the (n-1)-bit seed r.  The
    identity block makes every seed's map surjective; the Toeplitz block makes
    the family two-universal (collision probability exactly 2^-l whenever the
    inputs differ outside the first l bits, zero otherwise).
    """

    input_bits: int
    output_bits: int

    def __post_init__(self):
        n, l = int(self.input_bits), int(self.output_bits)
        if n < 1:
            raise ValueError(f"input_bits must be >= 1, got {n}")
        if not 0 <= l <= n:
            raise ValueError(f"output_bits must lie in [0, input_bits], got {l}")
        object.__setattr__(self, "input_bits", n)
        object.__setattr__(self, "output_bits", l)

    @property
    def seed_bits(self) -> int:
        # no Toeplitz block when the output is empty or covers the whole input
        if self.output_bits == 0 or self.output_bits == self.input_bits:
            return 0
        return self.input_bits - 1


def _check_bits(bits, length: int, what: str) -> tuple[int, ...]:
    vals = tuple(map(int, bits))
    if len(vals) != length:
        raise ValueError(f"{what} length {len(vals)} != expected {length}")
    if not {0, 1}.issuperset(vals):
        bad = next(b for b in vals if b not in (0, 1))
        raise ValueError(f"{what} must be bits, got {bad}")
    return vals


def _bit_labels(labels: list, n: int) -> np.ndarray:
    """The classical values as an (m, n) int64 array of bits, checked by one
    array comparison.  Labels that are not such a stack (ragged, too long,
    not ints, or holding a value other than 0 and 1) go through
    :func:`_check_bits` one by one, which names the first faulty value."""
    try:
        x = np.array(labels, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        x = None
    if x is not None and x.shape == (len(labels), n) and (x == x & 1).all():
        return x
    return np.array([_check_bits(x, n, "classical value") for x in labels], dtype=np.int64).reshape(len(labels), n)


def pad_input(x, n: int) -> tuple[int, ...]:
    """Right-pad a bit string with zeros up to length n."""
    vals = tuple(int(b) for b in x)
    if len(vals) > n:
        raise ValueError(f"input length {len(vals)} exceeds {n}")
    return vals + (0,) * (n - len(vals))


def _bit_rows(width: int) -> np.ndarray:
    """All 2^width bit rows, least significant bit first: row r has bit i
    equal to (r >> i) & 1.  Every seed of a family is _bit_rows(seed_bits)."""
    return (np.arange(2 ** width)[:, None] >> np.arange(width)) & 1


def _hash_keys(x: np.ndarray, r: np.ndarray, l: int) -> np.ndarray:
    """Keys sum_i g_i 2^i of every input row of x under every seed row of r,
    shape (seeds, inputs): g = x[:l] XOR T_r x[l:], T_r[i, j] = r[m-1+i-j],
    m = n - l, as one integer product against the stacked Toeplitz blocks.
    With no Toeplitz block (l = 0 or l = n) r has one empty row.  The keys
    are int64, so l is at most 64."""
    if l > 64:
        raise ValueError(f"batched keys hold at most 64 bits, got l = {l}")
    m = x.shape[1] - l
    toeplitz = r[:, m - 1 + np.arange(l)[:, None] - np.arange(m)]  # (seeds, l, m)
    mixed = (x[:, l:] @ toeplitz.reshape(len(r) * l, m).T).reshape(len(x), len(r), l)
    bits = (mixed.transpose(1, 0, 2) + x[:, :l]) & 1
    return bits @ (1 << np.arange(l))


def hash_eval(family: HashFamily, r, x) -> tuple[int, ...]:
    """Evaluate the hash; lengths must match the family exactly.

    One input in Python ints, any l: with the tail x[l:] read as a binary
    numeral, x[l] first (bit m-1-j is x[l+j]), and the seed with r[0] as its
    lowest bit (bit t is r[t]), row i of T_r x[l:] is the parity of
    (seed >> i) & tail."""
    n, l = family.input_bits, family.output_bits
    x = _check_bits(x, n, "input")
    r = _check_bits(r, family.seed_bits, "seed")
    tail = int("".join(map(str, x[l:])) or "0", 2)
    seed = int("".join(map(str, r[::-1])) or "0", 2)
    return tuple(x[i] ^ ((seed >> i) & tail).bit_count() & 1 for i in range(l))


# ---------------------------------------------------------------------------
# exact privacy-amplification check
# ---------------------------------------------------------------------------


def _bucket_sums(views: np.ndarray, keys: np.ndarray, ops: np.ndarray, l: int) -> np.ndarray:
    """The operators summed into one bucket per (view, key), keys no input
    reaches included, as a (views, 2^l, d, d) array.

    views and keys are integer arrays of one shape, an entry per input: its
    public view and its l-bit key.  ops holds each input's weighted
    conditional operator in its last two axes and broadcasts against that
    shape.  One bincount per matrix entry and part (real, imaginary) adds
    each bucket's terms in input order.
    """
    view_ids, view_of = np.unique(views, return_inverse=True)
    cells = (view_of.reshape(views.shape) * 2 ** l + keys).ravel()
    ops = np.broadcast_to(ops, views.shape + ops.shape[-2:])
    blocks = np.empty((len(view_ids) * 2 ** l,) + ops.shape[-2:], dtype=complex)
    for i, j in np.ndindex(*ops.shape[-2:]):
        entry = ops[..., i, j]
        blocks[:, i, j].real = np.bincount(cells, entry.real.ravel(), len(blocks))
        blocks[:, i, j].imag = np.bincount(cells, entry.imag.ravel(), len(blocks))
    return blocks.reshape((len(view_ids), 2 ** l) + ops.shape[-2:])


def _extraction_distance(views: np.ndarray, keys: np.ndarray, ops: np.ndarray, l: int) -> float:
    """Trace distance of (key, view, E) from (uniform key, view, E), for
    inputs laid out as in _bucket_sums.  Each view's mean bucket, 2^-l of
    its marginal, is subtracted; all trace norms come from one batched
    eigvalsh.
    """
    blocks = _bucket_sums(views, keys, ops, l)
    blocks -= blocks.mean(axis=1, keepdims=True)
    return 0.5 * _trace_norm(blocks)


def _seeded_distance(family: HashFamily, x: np.ndarray, views: np.ndarray, ops: np.ndarray) -> float:
    """:func:`_extraction_distance` after hashing each input bit row of x
    under every seed of ``family``: the seed, uniform and public, joins each
    input's view (an integer of ``views``) and weighs each (input, seed)
    cell by 1/#seeds.  ops holds each input's weighted conditional operator
    in its last two axes."""
    l = family.output_bits
    seeds = _bit_rows(family.seed_bits)
    seen = views * len(seeds) + np.arange(len(seeds))[:, None]
    return _extraction_distance(seen, _hash_keys(x, seeds, l), ops / len(seeds), l)


def _resolve_hmin(rho_XE: CqState, certificate: EntropyCertificate | None) -> float:
    if certificate is not None:
        if not check_certificate(rho_XE, certificate):
            raise ValueError("certificate does not hold for this state")
        return float(certificate.h)
    return classical_env_min_entropy(rho_XE)


def _check_exact_input_bits(n: int) -> None:
    if n > _EXACT_INPUT_BITS:
        raise ValueError(f"exact check supports at most {_EXACT_INPUT_BITS} input bits, got {n}")


def pa_exact_check(
    rho_XE: CqState,
    family: HashFamily,
    l: int,
    certificate: EntropyCertificate | None = None,
) -> dict:
    """Exact extraction distance versus the min-entropy bound.

    Assembles the joint state of (hash output, seed, environment) for a
    uniform independent seed, computes its exact trace distance to the ideal
    uniform-key product, and compares with 0.5 * 2^(-(hmin - l)/2).  The
    min-entropy is computed exactly for diagonal (classical) side information
    or taken from a verified certificate.

    Limits: at most 6 input bits and environment dimension at most 8.
    """
    l = int(l)
    n = family.input_bits
    if l != family.output_bits:
        raise ValueError(f"l = {l} != family output_bits {family.output_bits}")
    _check_exact_input_bits(n)
    if rho_XE.env_dim > 8:
        raise ValueError(f"exact check supports env_dim <= 8, got {rho_XE.env_dim}")
    x = _bit_labels([x for x, _, _ in rho_XE.entries], n)
    hmin = _resolve_hmin(rho_XE, certificate)

    # the seed is the whole public view
    ops = rho_XE._probs[:, None, None] * rho_XE._stack
    distance = _seeded_distance(family, x, np.zeros(len(x), dtype=np.int64), ops)
    bound = 0.5 * 2.0 ** (-0.5 * (hmin - l))
    return {"distance": distance, "bound": bound, "holds": distance <= bound + 1e-9, "hmin": hmin}

