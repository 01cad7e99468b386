"""Entropy, certificates, hashing, and privacy amplification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsample import (
    BasisSpec,
    CqState,
    DensityMatrix,
    EntropyCertificate,
    HashFamily,
    PureState,
    binary_entropy,
    check_certificate,
    classical_env_min_entropy,
    hash_eval,
    lemma2_operator_check,
    measure,
    pa_exact_check,
    pad_input,
)
from qsample.entropy import _hash_keys

# ---------------------------------------------------------------------------
# binary entropy
# ---------------------------------------------------------------------------


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.11) - 0.49992) < 1e-4
    # 11% is where 1 - 2 h(p) crosses zero
    assert 1 - 2 * binary_entropy(0.11) < 0.001
    assert 1 - 2 * binary_entropy(0.10) > 0.0


def test_binary_entropy_symmetry():
    for p in [0.1, 0.23, 0.4]:
        assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-12)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


def test_ball_exact_below_bound_grid():
    # log2 sum_{w <= r n} C(n, w) <= h(r) n, with the ball counted by math.comb
    for n in [5, 10, 16, 20]:
        for radius in np.linspace(0.02, 0.5, 13):
            # 1e-9 guards against float droop at integers
            top = math.floor(float(radius) * n + 1e-9)
            exact = math.log2(sum(math.comb(n, w) for w in range(top + 1)))
            assert exact <= binary_entropy(float(radius)) * n + 1e-12


# ---------------------------------------------------------------------------
# classical-side min-entropy
# ---------------------------------------------------------------------------


def test_min_entropy_uniform(min_entropy_classical_side):
    m = 3
    joint = {((b0, b1, b2), None): 1 / 8 for b0 in (0, 1) for b1 in (0, 1) for b2 in (0, 1)}
    assert min_entropy_classical_side(joint) == pytest.approx(m, abs=1e-12)


def test_min_entropy_perfect_copy(min_entropy_classical_side):
    joint = {(x, x): 0.25 for x in range(4)}
    assert min_entropy_classical_side(joint) == pytest.approx(0.0, abs=1e-12)


def test_min_entropy_noisy_bit(min_entropy_classical_side):
    joint = {(0, 0): 0.375, (0, 1): 0.125, (1, 0): 0.125, (1, 1): 0.375}
    assert min_entropy_classical_side(joint) == pytest.approx(-math.log2(0.75), abs=1e-12)
    assert min_entropy_classical_side(joint) == pytest.approx(0.415, abs=1e-3)


def test_min_entropy_validation(min_entropy_classical_side):
    with pytest.raises(ValueError, match="sum"):
        min_entropy_classical_side({(0, 0): 0.5, (1, 0): 0.4})
    with pytest.raises(ValueError, match="negative"):
        min_entropy_classical_side({(0, 0): 1.5, (1, 0): -0.5})
    with pytest.raises(ValueError, match="empty"):
        min_entropy_classical_side({})


def test_min_entropy_chain_rule(min_entropy_classical_side):
    # H_min(X|Y) >= H_min(XY) - log|Y| on random classical joints
    rng = np.random.default_rng(11)
    for _ in range(200):
        probs = rng.random((4, 3))
        probs /= probs.sum()
        joint = {(x, y): probs[x, y] for x in range(4) for y in range(3)}
        flat = {((x, y), None): probs[x, y] for x in range(4) for y in range(3)}
        lhs = min_entropy_classical_side(joint)
        rhs = min_entropy_classical_side(flat) - math.log2(3)
        assert lhs >= rhs - 1e-9


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def _uniform_cq(m: int) -> CqState:
    one = DensityMatrix(np.eye(1, dtype=complex), (1,))
    labels = [tuple((v >> i) & 1 for i in range(m)) for v in range(2 ** m)]
    return CqState(tuple((x, 1 / 2 ** m, one) for x in labels), 1)


def test_certificate_uniform_tight():
    rho = _uniform_cq(3)
    assert check_certificate(rho, EntropyCertificate(3.0, np.eye(1)))
    assert not check_certificate(rho, EntropyCertificate(3.1, np.eye(1)))


def test_certificate_invalid_witness():
    rho = _uniform_cq(2)
    with pytest.raises(ValueError):
        check_certificate(rho, EntropyCertificate(1.0, 2 * np.eye(1)))
    with pytest.raises(ValueError, match="dimension"):
        check_certificate(rho, EntropyCertificate(1.0, np.eye(2) / 2))


def test_certificate_matches_classical_formula():
    # the optimal diagonal witness reproduces the exact classical value
    rng = np.random.default_rng(5)
    for _ in range(30):
        probs = rng.random(3)
        probs /= probs.sum()
        conds = []
        for _x in range(3):
            diag = rng.random(4)
            diag /= diag.sum()
            conds.append(np.diag(diag).astype(complex))
        rho = CqState(
            tuple((x, probs[x], DensityMatrix(conds[x], (4,))) for x in range(3)), 4
        )
        hmin = classical_env_min_entropy(rho)
        best = np.zeros(4)
        for x in range(3):
            best = np.maximum(best, probs[x] * np.diag(conds[x]).real)
        sigma = np.diag(best / best.sum()).astype(complex)
        assert check_certificate(rho, EntropyCertificate(hmin, sigma))
        assert not check_certificate(rho, EntropyCertificate(hmin + 0.01, sigma))


def _ball_labels(n: int, radius: float) -> list[int]:
    out = []
    for v in range(2 ** n):
        if bin(v).count("1") <= radius * n + 1e-9:
            out.append(v)
    return out


def _measured_ball_instance(rng, n, radius, dim_e, theta, partial_trace):
    """Random state on the radius ball, measured in H^theta, as a cq state."""
    ball = _ball_labels(n, radius)
    amps = np.zeros((2 ** n, dim_e), dtype=complex)
    for v in ball:
        amps[v] = rng.normal(size=dim_e) + 1j * rng.normal(size=dim_e)
    amps /= np.linalg.norm(amps)
    phi = PureState(amps.reshape(-1), (2,) * n + (dim_e,))
    entries = []
    for branch in measure(phi, range(1, n + 1), BasisSpec(theta)):
        cond = partial_trace(branch.post_state, (n + 1,))
        entries.append((branch.outcome, branch.probability, cond))
    return phi, CqState(tuple(entries), dim_e)


def test_certificate_from_measured_ball_states(partial_trace):
    # measuring a ball-supported state in H^theta certifies
    # weight(theta) - h(beta+delta) n bits against the env reduced state
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        radius = float(rng.uniform(0.0, 0.5))
        dim_e = int(rng.integers(1, 4))
        theta = tuple(int(b) for b in rng.integers(0, 2, size=n))
        phi, rho_xe = _measured_ball_instance(rng, n, radius, dim_e, theta, partial_trace)
        h = sum(theta) - binary_entropy(radius) * n
        sigma = partial_trace(phi, (n + 1,))
        assert check_certificate(rho_xe, EntropyCertificate(h, sigma))


def test_certificate_survives_measuring_environment(random_density_matrix):
    # a valid certificate stays valid after dephasing the environment
    rng = np.random.default_rng(31)
    for _ in range(100):
        probs = rng.random(3)
        probs /= probs.sum()
        conds = [random_density_matrix(3, rng) for _ in range(3)]
        rho = CqState(
            tuple((x, probs[x], conds[x]) for x in range(3)), 3
        )
        sigma = 0.5 * random_density_matrix(3, rng).matrix + 0.5 * np.eye(3) / 3
        vals, vecs = np.linalg.eigh(sigma)
        inv_sqrt = vecs @ np.diag(1 / np.sqrt(vals)) @ vecs.conj().T
        lam = max(
            np.linalg.eigvalsh(inv_sqrt @ (probs[x] * conds[x].matrix) @ inv_sqrt)[-1]
            for x in range(3)
        )
        h = -math.log2(lam) - 1e-9
        cert = EntropyCertificate(h, sigma)
        assert check_certificate(rho, cert)
        dephased = CqState(
            tuple(
                (x, probs[x], DensityMatrix(np.diag(np.diag(conds[x].matrix)), (3,)))
                for x in range(3)
            ),
            3,
        )
        deph_cert = EntropyCertificate(h, np.diag(np.diag(sigma)))
        assert check_certificate(dephased, deph_cert)


# ---------------------------------------------------------------------------
# the measurement/mixture operator inequality
# ---------------------------------------------------------------------------


def _hadamard_kron(theta):
    H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    out = np.ones((1, 1), dtype=complex)
    for bit in theta:
        out = np.kron(out, H if bit else np.eye(2, dtype=complex))
    return out


def _lemma2_oracle_min_eig(phi: PureState, J, theta):
    """Full-matrix assembly with explicit projectors, no block shortcuts."""
    n = phi.population_count
    dim_pop = 2 ** n
    dim_e = phi.dim_E
    rho = np.outer(phi.amps, phi.amps.conj())
    # dephase the population in the computational basis
    deph = np.zeros_like(rho)
    for i in range(dim_pop):
        P = np.zeros((dim_pop, dim_pop), dtype=complex)
        P[i, i] = 1.0
        P = np.kron(P, np.eye(dim_e, dtype=complex))
        deph += P @ rho @ P
    U = _hadamard_kron(theta)

    def measured(mat):
        out = np.zeros_like(mat)
        for w in range(dim_pop):
            proj = np.outer(U @ _basis_vec(dim_pop, w), (U @ _basis_vec(dim_pop, w)).conj())
            proj = np.kron(proj, np.eye(dim_e, dtype=complex))
            out += proj @ mat @ proj
        return out

    diff = len(J) * measured(deph) - measured(rho)
    return float(np.linalg.eigvalsh(diff)[0])


def _basis_vec(dim, i):
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


def _state_on_J(rng, n, J, dim_e):
    amps = np.zeros((2 ** n, dim_e), dtype=complex)
    for i in J:
        amps[i] = rng.normal(size=dim_e) + 1j * rng.normal(size=dim_e)
    amps /= np.linalg.norm(amps)
    return PureState(amps.reshape(-1), (2,) * n + (dim_e,))


def test_lemma2_matches_full_matrix_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        dim_e = int(rng.integers(1, 4))
        size = int(rng.integers(1, 2 ** n + 1))
        J = set(int(i) for i in rng.choice(2 ** n, size=size, replace=False))
        theta = tuple(int(b) for b in rng.integers(0, 2, size=n))
        phi = _state_on_J(rng, n, J, dim_e)
        report = lemma2_operator_check(phi, J, BasisSpec(theta))
        oracle = _lemma2_oracle_min_eig(phi, J, theta)
        assert report["min_eig"] == pytest.approx(oracle, abs=1e-9)


def test_lemma2_holds_on_random_instances():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        dim_e = int(rng.integers(1, 5))
        size = int(rng.integers(1, 2 ** n + 1))
        J = set(int(i) for i in rng.choice(2 ** n, size=size, replace=False))
        theta = tuple(int(b) for b in rng.integers(0, 2, size=n))
        phi = _state_on_J(rng, n, J, dim_e)
        report = lemma2_operator_check(phi, J, BasisSpec(theta))
        assert report["holds"]


def test_lemma2_singleton_is_exact():
    phi = PureState.from_population([0, 1, 0, 0], d=2, dim_E=3)
    report = lemma2_operator_check(phi, {1}, BasisSpec((1, 0)))
    assert report["holds"]
    assert report["min_eig"] == pytest.approx(0.0, abs=1e-12)


def test_lemma2_orthogonal_tags_nonnegative():
    # equal superposition with orthogonal environment tags, Hadamard basis
    n = 3
    J = {0, 3, 5, 6}
    amps = np.zeros((8, 4), dtype=complex)
    for pos, i in enumerate(sorted(J)):
        amps[i, pos] = 0.5
    phi = PureState(amps.reshape(-1), (2, 2, 2, 4))
    report = lemma2_operator_check(phi, J, BasisSpec((1, 1, 1)))
    assert report["holds"]
    assert report["min_eig"] >= -1e-12


def test_lemma2_support_outside_J():
    phi = PureState.from_population([0.6, 0.8, 0, 0], d=2)
    with pytest.raises(ValueError, match="outside J"):
        lemma2_operator_check(phi, {0}, BasisSpec((0, 0)))


def test_lemma2_basis_length():
    phi = PureState.from_population([1, 0, 0, 0], d=2)
    with pytest.raises(ValueError, match="length"):
        lemma2_operator_check(phi, {0}, BasisSpec((0,)))


# ---------------------------------------------------------------------------
# hash family
# ---------------------------------------------------------------------------


def _hash_matrix(family: HashFamily, r) -> np.ndarray:
    """Oracle: the explicit [I | T] matrix with T[i][j] = r[i - j + m - 1]."""
    n, l = family.input_bits, family.output_bits
    m = n - l
    M = np.zeros((l, n), dtype=np.int64)
    for i in range(l):
        M[i, i] = 1
        for j in range(m):
            M[i, l + j] = r[i - j + m - 1]
    return M


@pytest.mark.parametrize("n,l", [(1, 1), (2, 0), (3, 2), (4, 1), (4, 4), (5, 3)])
def test_hash_matches_matrix_oracle(n, l):
    fam = HashFamily(n, l)
    inputs = [tuple((xidx >> i) & 1 for i in range(n)) for xidx in range(2 ** n)]
    seeds = [tuple((ridx >> i) & 1 for i in range(fam.seed_bits)) for ridx in range(2 ** fam.seed_bits)]
    # every seed at once: one row of integer keys sum_i g_i 2^i per seed
    keys = _hash_keys(np.array(inputs), np.array(seeds, dtype=np.int64), l)
    assert keys.shape == (len(seeds), len(inputs))
    for ridx, r in enumerate(seeds):
        M = _hash_matrix(fam, r)
        for xidx, x in enumerate(inputs):
            expect = tuple(int(v) for v in (M @ np.array(x)) % 2)
            assert hash_eval(fam, r, x) == expect
            assert keys[ridx, xidx] == sum(b << i for i, b in enumerate(expect))


def _oracle_key(family: HashFamily, r, x) -> tuple[int, ...]:
    return tuple(int(v) for v in _hash_matrix(family, r) @ np.array(x) % 2)


@pytest.mark.parametrize("l", [63, 64, 65, 100, 300])
def test_long_keys_match_matrix_oracle(l):
    # int64 key weights wrap past bit 63: the one-input hash must not use
    # them, and the batched hash must refuse a key it cannot hold
    rng = np.random.default_rng(l)
    for m in (1, 9, 40):
        fam = HashFamily(l + m, l)
        for _ in range(6):
            r = tuple(rng.integers(0, 2, size=fam.seed_bits).tolist())
            x = tuple(rng.integers(0, 2, size=l + m).tolist())
            expect = _oracle_key(fam, r, x)
            assert hash_eval(fam, r, x) == expect
            if l <= 64:  # bit 63 is the int64 sign bit
                key = int(_hash_keys(np.array([x]), np.array([r]), l)[0, 0])
                assert key % 2**64 == sum(b << i for i, b in enumerate(expect))
            else:
                with pytest.raises(ValueError, match=f"at most 64 bits, got l = {l}"):
                    _hash_keys(np.array([x]), np.array([r]), l)


@st.composite
def _hash_case(draw):
    n = draw(st.integers(1, 40))
    l = draw(st.integers(0, n))
    fam = HashFamily(n, l)
    bits = lambda size: tuple(draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))
    return fam, bits(fam.seed_bits), bits(n)


@settings(max_examples=300, deadline=None)
@given(_hash_case())
def test_one_input_hash_matches_batched_and_matrix(case):
    fam, r, x = case
    expect = _oracle_key(fam, r, x)
    assert hash_eval(fam, r, x) == expect
    key = int(_hash_keys(np.array([x]), np.array([r], dtype=np.int64), fam.output_bits)[0, 0])
    assert key == sum(b << i for i, b in enumerate(expect))


def test_hash_zero_input():
    fam = HashFamily(5, 3)
    for ridx in [0, 3, 9, 15]:
        r = tuple((ridx >> i) & 1 for i in range(fam.seed_bits))
        assert hash_eval(fam, r, (0,) * 5) == (0, 0, 0)


def test_hash_deterministic():
    fam = HashFamily(4, 2)
    r = (1, 0, 1)
    x = (1, 1, 0, 1)
    assert hash_eval(fam, r, x) == hash_eval(fam, r, x)


def test_hash_two_universal_exhaustive():
    # every distinct pair collides on at most a 2^-l fraction of seeds
    fam = HashFamily(3, 2)
    seeds = [tuple((ridx >> i) & 1 for i in range(fam.seed_bits)) for ridx in range(4)]
    inputs = [tuple((v >> i) & 1 for i in range(3)) for v in range(8)]
    for a in range(8):
        for b in range(a + 1, 8):
            hits = sum(
                1 for r in seeds if hash_eval(fam, r, inputs[a]) == hash_eval(fam, r, inputs[b])
            )
            assert hits / len(seeds) <= 0.25 + 1e-12


@pytest.mark.parametrize("n,l", [(4, 2), (3, 1), (3, 3)])
def test_hash_every_seed_balanced(n, l):
    # each seed's map is surjective with equal preimage counts
    fam = HashFamily(n, l)
    for ridx in range(2 ** fam.seed_bits):
        r = tuple((ridx >> i) & 1 for i in range(fam.seed_bits))
        counts = {}
        for xidx in range(2 ** n):
            x = tuple((xidx >> i) & 1 for i in range(n))
            key = hash_eval(fam, r, x)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 2 ** l
        assert set(counts.values()) == {2 ** (n - l)}


def test_hash_seed_bits():
    assert HashFamily(5, 3).seed_bits == 4
    assert HashFamily(5, 5).seed_bits == 0
    assert HashFamily(5, 0).seed_bits == 0


def test_hash_validation():
    with pytest.raises(ValueError):
        HashFamily(3, 4)
    with pytest.raises(ValueError):
        HashFamily(0, 0)
    fam = HashFamily(4, 2)
    with pytest.raises(ValueError, match="input"):
        hash_eval(fam, (0, 0, 0), (1, 0, 1))
    with pytest.raises(ValueError, match="seed"):
        hash_eval(fam, (0, 0), (1, 0, 1, 1))
    with pytest.raises(ValueError, match="bits"):
        hash_eval(fam, (0, 0, 2), (1, 0, 1, 1))


def test_pad_input():
    assert pad_input((1, 0), 4) == (1, 0, 0, 0)
    assert pad_input((), 2) == (0, 0)
    with pytest.raises(ValueError, match="exceeds"):
        pad_input((1, 0, 1), 2)


# ---------------------------------------------------------------------------
# exact privacy amplification
# ---------------------------------------------------------------------------


def _bits(v, n):
    return tuple((v >> i) & 1 for i in range(n))


def test_pa_uniform_input_is_exact():
    one = DensityMatrix(np.eye(1, dtype=complex), (1,))
    rho = CqState(tuple((_bits(v, 4), 1 / 16, one) for v in range(16)), 1)
    for l in [0, 1, 2, 4]:
        report = pa_exact_check(rho, HashFamily(4, l), l)
        assert report["distance"] == 0.0
        assert report["holds"]
        assert report["bound"] == pytest.approx(0.5 * 2 ** (-(4 - l) / 2), abs=1e-12)


def test_pa_vacuous_bound_still_holds():
    # H_min = 2 but l = 4: the formula value exceeds 1 and is reported as-is
    one = DensityMatrix(np.eye(1, dtype=complex), (1,))
    labels = [(a, b, 0, 0) for a in (0, 1) for b in (0, 1)]
    rho = CqState(tuple((x, 0.25, one) for x in labels), 1)
    report = pa_exact_check(rho, HashFamily(4, 4), 4)
    assert report["hmin"] == pytest.approx(2.0, abs=1e-12)
    assert report["bound"] == pytest.approx(1.0, abs=1e-12)
    assert report["distance"] <= 1.0 + 1e-12
    assert report["holds"]


def _random_classical_cq(rng, n, env_dim):
    probs = rng.random(2 ** n)
    probs /= probs.sum()
    entries = []
    for v in range(2 ** n):
        diag = rng.random(env_dim)
        diag /= diag.sum()
        entries.append(
            (_bits(v, n), probs[v], DensityMatrix(np.diag(diag).astype(complex), (env_dim,)))
        )
    return CqState(tuple(entries), env_dim)


def _pa_oracle_distance(rho: CqState, fam: HashFamily, l: int) -> float:
    """Global-matrix oracle: assemble the full (key, seed, env) operators."""
    env = rho.env_dim
    seeds = 2 ** fam.seed_bits
    keys = 2 ** l
    dim = keys * seeds * env
    real = np.zeros((dim, dim), dtype=complex)
    rho_e = np.zeros((env, env), dtype=complex)
    for _, p, cond in rho.entries:
        rho_e += p * cond.matrix
    ideal = np.zeros((dim, dim), dtype=complex)
    for ridx in range(seeds):
        r = _bits(ridx, fam.seed_bits)
        for x, p, cond in rho.entries:
            kidx = sum(b << i for i, b in enumerate(hash_eval(fam, r, x)))
            kproj = np.zeros((keys, keys))
            kproj[kidx, kidx] = 1.0
            rproj = np.zeros((seeds, seeds))
            rproj[ridx, ridx] = 1.0
            real += np.kron(np.kron(kproj, rproj), (p / seeds) * cond.matrix)
        for kidx in range(keys):
            kproj = np.zeros((keys, keys))
            kproj[kidx, kidx] = 1.0
            rproj = np.zeros((seeds, seeds))
            rproj[ridx, ridx] = 1.0
            ideal += np.kron(np.kron(kproj, rproj), rho_e / (keys * seeds))
    return 0.5 * float(np.abs(np.linalg.eigvalsh(real - ideal)).sum())


def test_pa_matches_global_assembly_oracle():
    rng = np.random.default_rng(17)
    for _ in range(10):
        rho = _random_classical_cq(rng, 3, 2)
        for l in [0, 1, 2, 3]:  # l = 0 and l = n have no seed bits
            fam = HashFamily(3, l)
            report = pa_exact_check(rho, fam, l)
            assert report["distance"] == pytest.approx(
                _pa_oracle_distance(rho, fam, l), abs=1e-12
            )


def test_pa_random_states_within_bound():
    rng = np.random.default_rng(29)
    for _ in range(100):
        rho = _random_classical_cq(rng, 4, 4)
        for l in [1, 2]:
            report = pa_exact_check(rho, HashFamily(4, l), l)
            assert report["distance"] <= report["bound"] + 1e-9
            assert report["holds"]


def test_pa_hmin_matches_classical_formula(min_entropy_classical_side):
    rng = np.random.default_rng(41)
    rho = _random_classical_cq(rng, 3, 4)
    report = pa_exact_check(rho, HashFamily(3, 2), 2)
    joint = {}
    for x, p, cond in rho.entries:
        for e in range(4):
            joint[(x, e)] = p * cond.matrix[e, e].real
    assert report["hmin"] == pytest.approx(min_entropy_classical_side(joint), abs=1e-12)


def test_pa_certificate_path(random_density_matrix):
    rng = np.random.default_rng(43)
    probs = rng.random(4)
    probs /= probs.sum()
    entries = tuple(
        (_bits(v, 2), probs[v], random_density_matrix(2, rng)) for v in range(4)
    )
    rho = CqState(entries, 2)
    # genuinely quantum side information refuses without a certificate
    with pytest.raises(ValueError, match="[Cc]ertificate"):
        pa_exact_check(rho, HashFamily(2, 1), 1)
    cert = EntropyCertificate(0.2, np.eye(2) / 2)
    if not check_certificate(rho, cert):
        cert = EntropyCertificate(0.05, np.eye(2) / 2)
        assert check_certificate(rho, cert)
    report = pa_exact_check(rho, HashFamily(2, 1), 1, certificate=cert)
    assert report["hmin"] == cert.h
    assert report["bound"] == pytest.approx(0.5 * 2 ** (-0.5 * (cert.h - 1)), abs=1e-12)
    bad = EntropyCertificate(5.0, np.eye(2) / 2)
    with pytest.raises(ValueError, match="hold"):
        pa_exact_check(rho, HashFamily(2, 1), 1, certificate=bad)


def test_pa_size_limits():
    one = DensityMatrix(np.eye(1, dtype=complex), (1,))
    big = CqState(tuple((_bits(v, 7), 1 / 128, one) for v in range(128)), 1)
    with pytest.raises(ValueError, match="6"):
        pa_exact_check(big, HashFamily(7, 2), 2)
    wide_env = DensityMatrix(np.eye(9, dtype=complex) / 9, (9,))
    rho = CqState(((_bits(0, 1), 0.5, wide_env), (_bits(1, 1), 0.5, wide_env)), 9)
    with pytest.raises(ValueError, match="env_dim"):
        pa_exact_check(rho, HashFamily(1, 1), 1)
    uni = _uniform_cq(2)
    with pytest.raises(ValueError, match="output_bits"):
        pa_exact_check(uni, HashFamily(2, 1), 2)
