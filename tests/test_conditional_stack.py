"""A classical-quantum state's conditionals read as one stack, checked against
the per-entry paths they replaced.

Each oracle below is the one-entry-at-a-time code: the density checks of one
matrix, the ``np.add.at`` bucket sums, the dict-loop min-entropy, the
certificate's per-entry eigvalsh and the per-entry ``pa_batch``.  The stacked
paths must give the same numbers bit for bit and the same errors.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsample import (
    CqState,
    DensityMatrix,
    EntropyCertificate,
    HashFamily,
    check_certificate,
    classical_env_min_entropy,
    pa_batch,
    pa_exact_check,
)
from qsample.entropy import (
    _bit_labels,
    _bucket_sums,
    _certificate_min_eig,
    _check_bits,
    _check_exact_input_bits,
    _extraction_distance,
)
from qsample.quantum import _check_density, _trace_norm

# ---------------------------------------------------------------------------
# density checks
# ---------------------------------------------------------------------------

FAULTS = ("none", "hermitian", "trace", "negative", "within-tolerance", "non-finite")


def _entry_fault(mat, dim: int):
    """The checks of one density matrix, one at a time: the message of its
    first fault, or None."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (dim, dim):
        return f"matrix shape {mat.shape} != ({dim}, {dim}) from dims {(dim,)}"
    if not np.isfinite(mat).all():
        return "matrix has a non-finite entry (NaN or infinity)"
    if np.abs(mat - mat.conj().T).max() > 1e-10:
        return "matrix is not Hermitian within 1e-10"
    tr = np.trace(mat).real
    if abs(tr - 1.0) > 1e-10:
        return f"trace {tr} deviates from 1 by more than 1e-10"
    low = np.linalg.eigvalsh(mat)[0]
    if low < -1e-9:
        return f"minimum eigenvalue {low} below -1e-9"
    return None


def _matrix(random_density_matrix, rng, dim: int, fault: str) -> np.ndarray:
    """A random density matrix, then the named fault put into it."""
    mat = random_density_matrix(dim, rng).matrix.copy()
    if fault == "hermitian":
        mat[dim - 1, 0] += 1e-3j if dim == 1 else 1e-3
    elif fault == "trace":
        mat *= 1.0 + float(rng.uniform(1e-9, 0.5))
    elif fault == "negative":
        spectrum = np.zeros(dim)
        spectrum[0] = -float(rng.uniform(1e-8, 0.5))
        spectrum[-1] += 1.0 - spectrum[0]
        unitary, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        mat = unitary @ np.diag(spectrum) @ unitary.conj().T
    elif fault == "non-finite":
        mat[tuple(rng.integers(dim, size=2))] = [np.nan, np.inf, -np.inf, complex(0, np.nan)][rng.integers(4)]
    elif fault == "within-tolerance":
        noise = rng.normal(size=(dim, dim)) * 1e-12
        mat += noise + noise.T
    return mat


def _raised(fn):
    try:
        fn()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    dim=st.integers(1, 4),
    faults=st.lists(st.sampled_from(FAULTS), min_size=1, max_size=6),
)
def test_stack_check_reports_the_first_fault_of_the_per_matrix_checks(seed, dim, faults, random_density_matrix):
    # any number of faulty matrices: the first one in stack order, with its
    # first fault in the order finite, Hermitian, trace, eigenvalue
    rng = np.random.default_rng(seed)
    mats = np.stack([_matrix(random_density_matrix, rng, dim, fault) for fault in faults])
    expected = next((msg for msg in (_entry_fault(mat, dim) for mat in mats) if msg), None)
    assert _raised(lambda: _check_density(mats)) == expected
    for mat in mats:
        assert _raised(lambda: DensityMatrix(mat, (dim,))) == _entry_fault(mat, dim)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    dim=st.integers(1, 3),
    count=st.integers(1, 6),
    fault=st.sampled_from(FAULTS + ("shape",)),
    data=st.data(),
)
def test_cq_state_reports_one_faulty_entry_as_its_density_matrix_would(
    seed, dim, count, fault, data, random_density_matrix
):
    rng = np.random.default_rng(seed)
    at = data.draw(st.integers(0, count - 1))
    mats = [_matrix(random_density_matrix, rng, dim, "none") for _ in range(count)]
    if fault == "shape":
        mats[at] = _matrix(random_density_matrix, rng, dim + 1, "none")
    else:
        mats[at] = _matrix(random_density_matrix, rng, dim, fault)
    entries = tuple((x, 1 / count, mat) for x, mat in enumerate(mats))
    expected = _entry_fault(mats[at], dim)
    assert _raised(lambda: CqState(entries, dim)) == expected
    if expected is None:
        state = CqState(entries, dim)
        for (_, _, rho), mat in zip(state.entries, mats):
            assert isinstance(rho, DensityMatrix) and rho.dims == (dim,)
            assert np.array_equal(rho.matrix, mat)
        assert np.array_equal(state._stack, np.stack(mats))


def test_cq_state_reports_entry_order_faults_before_numeric_ones():
    bad_trace = np.eye(2)
    good = np.eye(2) / 2
    with pytest.raises(ValueError, match="duplicate"):
        CqState(((0, 0.5, bad_trace), (0, 0.5, good)), 2)
    with pytest.raises(ValueError, match="negative probability"):
        CqState(((0, 1.5, bad_trace), (1, -0.5, good)), 2)
    with pytest.raises(ValueError, match=r"matrix shape \(3, 3\)"):
        CqState(((0, 0.5, bad_trace), (1, 0.5, np.eye(3) / 3)), 2)
    with pytest.raises(ValueError, match="trace"):
        CqState(((0, 0.5, bad_trace), (1, 0.4, good)), 2)  # numeric faults before the sum


def test_cq_state_stacks_density_matrices_and_plain_matrices_in_entry_order(random_density_matrix):
    rng = np.random.default_rng(5)
    given_dm = random_density_matrix(3, rng)
    plain = random_density_matrix(3, rng).matrix
    state = CqState(((0, 0.25, given_dm), (1, 0.75, plain)), 3)
    assert state.entries[0][2] is given_dm
    assert np.array_equal(state._stack, np.stack([given_dm.matrix, plain]))
    assert state._probs.tolist() == [0.25, 0.75]


def test_non_finite_states_are_refused_where_they_are_built():
    # NaN passes every comparison and eigvalsh answers NaN for it: before the
    # finiteness check such a state was accepted and pa_exact_check said NaN
    message = "non-finite entry"
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match=message):
            DensityMatrix(np.full((2, 2), value), (2,))
    with pytest.raises(ValueError, match=message):
        CqState(((0, 0.5, np.eye(2) / 2), (1, 0.5, np.array([[0.5, np.nan], [np.nan, 0.5]]))), 2)
    with pytest.raises(ValueError, match="probability nan is not finite"):
        CqState(((0, float("nan"), np.eye(2) / 2), (1, 0.5, np.eye(2) / 2)), 2)
    family = HashFamily(1, 1)
    with pytest.raises(ValueError, match=message):
        pa_exact_check(CqState((((0,), 0.5, np.eye(1)), ((1,), 0.5, np.full((1, 1), np.nan))), 1), family, 1)
    state = CqState((((0,), 0.5, np.eye(2) / 2), ((1,), 0.5, np.eye(2) / 2)), 2)
    with pytest.raises(ValueError, match=message):
        pa_exact_check(state, family, 1, certificate=EntropyCertificate(1.0, np.full((2, 2), np.nan)))


# ---------------------------------------------------------------------------
# bucket sums
# ---------------------------------------------------------------------------


def _add_at_buckets(views, keys, ops, l):
    view_ids, view_of = np.unique(views, return_inverse=True)
    blocks = np.zeros((len(view_ids), 2 ** l) + ops.shape[-2:], dtype=complex)
    np.add.at(blocks, (view_of.reshape(views.shape), keys), ops)
    return blocks


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    rows=st.integers(1, 6),
    inputs=st.integers(1, 12),
    dim=st.integers(1, 3),
    l=st.integers(0, 3),
    per_row_ops=st.booleans(),
)
def test_bucket_sums_are_those_of_add_at_bit_for_bit(seed, rows, inputs, dim, l, per_row_ops):
    rng = np.random.default_rng(seed)
    views = rng.integers(0, 1 + rows, (rows, inputs)) * 37  # a few views, sparse labels
    keys = rng.integers(0, 2 ** l, (rows, inputs)) // 2 * 2  # odd keys are never reached
    shape = ((rows,) if per_row_ops else ()) + (inputs, dim, dim)
    ops = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    expected = _add_at_buckets(views, keys, ops, l)
    blocks = _bucket_sums(views, keys, ops, l)
    assert blocks.shape == expected.shape
    assert np.array_equal(blocks.view(np.uint64), expected.view(np.uint64))
    expected -= expected.mean(axis=1, keepdims=True)
    assert _extraction_distance(views, keys, ops, l) == 0.5 * _trace_norm(expected)


# ---------------------------------------------------------------------------
# min-entropy
# ---------------------------------------------------------------------------


def _dict_loop_min_entropy(joint) -> float:
    items = dict(joint)
    if not items:
        raise ValueError("joint distribution is empty")
    total = 0.0
    best: dict = {}
    for (x, y), p in items.items():
        p = float(p)
        if p < -1e-15:
            raise ValueError(f"negative probability {p}")
        total += p
        if p > best.get(y, 0.0):
            best[y] = p
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return -math.log2(sum(best.values()))


def _dict_loop_classical_env(rho_XE: CqState) -> float:
    joint = {}
    for x, prob, rho in rho_XE.entries:
        mat = rho.matrix
        if np.abs(mat - np.diag(np.diag(mat))).max() > 1e-12:
            raise ValueError("conditional operators are not diagonal; supply an EntropyCertificate")
        for e in range(rho_XE.env_dim):
            joint[(x, e)] = joint.get((x, e), 0.0) + prob * mat[e, e].real
    return _dict_loop_min_entropy(joint)


def _outcome(fn, arg):
    try:
        return fn(arg)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    rows=st.integers(1, 6),
    cols=st.integers(1, 5),
    zeros=st.floats(0.0, 0.9),
    fault=st.sampled_from(("none", "negative", "tiny-negative", "sum", "absent")),
)
def test_min_entropy_is_the_dict_loop_on_row_major_joints(seed, rows, cols, zeros, fault, min_entropy_classical_side):
    # zeros make a later row the first to reach some column, so the column
    # maxima are added in the loop's order, not in column order
    rng = np.random.default_rng(seed)
    table = rng.random((rows, cols)) * (rng.random((rows, cols)) >= zeros)
    if not table.any():
        table[-1, -1] = 1.0
    table /= table.sum()
    if fault == "negative":
        table.flat[rng.integers(table.size)] = -1e-3
    elif fault == "tiny-negative":
        table.flat[rng.integers(table.size)] = -1e-16
    elif fault == "sum":
        table *= 1.001
    joint = {(f"x{i}", j): table[i, j] for i in range(rows) for j in range(cols)}
    if fault == "absent":
        joint = {key: p for key, p in joint.items() if p > 0}
    assert _outcome(min_entropy_classical_side, joint) == _outcome(_dict_loop_min_entropy, joint)


def test_column_maxima_are_added_in_the_order_the_loop_meets_them(min_entropy_classical_side):
    # row x0 reaches column 2 first, so the loop adds the maxima as columns
    # 2, 0, 1; in column order their sum differs in the last bit
    table = np.array([[0.0, 0.0, 0.041], [0.637, 0.27, 0.0]])
    table /= table.sum()
    maxima = table.max(axis=0)
    assert (maxima[2] + maxima[0]) + maxima[1] != (maxima[0] + maxima[1]) + maxima[2]
    joint = {(x, y): table[x, y] for x in range(2) for y in range(3)}
    assert min_entropy_classical_side(joint) == _dict_loop_min_entropy(joint)
    conds = np.zeros((2, 3, 3), dtype=complex)
    conds[:, np.arange(3), np.arange(3)] = table / table.sum(axis=1, keepdims=True)
    rho = CqState(tuple(zip(range(2), table.sum(axis=1).tolist(), conds)), 3)
    assert classical_env_min_entropy(rho) == _dict_loop_classical_env(rho)


def test_min_entropy_errors_are_those_of_the_dict_loop(min_entropy_classical_side):
    for joint in ({}, {(0, 0): 0.5, (1, 0): 0.4}, {(0, 0): 1.5, (1, 0): -0.5}, {(0, 0): 1.0, (0, 1): -1e-14}):
        assert _outcome(min_entropy_classical_side, joint) == _outcome(_dict_loop_min_entropy, joint)


def _diagonal_state(rng, n_inputs: int, env: int, zeros: float) -> CqState:
    probs = rng.random(n_inputs) * (rng.random(n_inputs) >= zeros / 2)
    if not probs.any():
        probs[0] = 1.0
    probs /= probs.sum()
    diags = rng.random((n_inputs, env)) * (rng.random((n_inputs, env)) >= zeros)
    diags[~diags.any(axis=1), -1] = 1.0
    diags /= diags.sum(axis=1, keepdims=True)
    conds = np.zeros((n_inputs, env, env), dtype=complex)
    conds[:, np.arange(env), np.arange(env)] = diags
    return CqState(tuple(zip(range(n_inputs), probs.tolist(), conds)), env)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    n_inputs=st.integers(1, 16),
    env=st.integers(1, 4),
    zeros=st.floats(0.0, 0.9),
)
def test_classical_env_min_entropy_is_the_dict_loop(seed, n_inputs, env, zeros):
    rho = _diagonal_state(np.random.default_rng(seed), n_inputs, env, zeros)
    assert classical_env_min_entropy(rho) == _dict_loop_classical_env(rho)


def test_classical_env_min_entropy_errors_are_those_of_the_dict_loop(random_density_matrix):
    rng = np.random.default_rng(3)
    # a diagonal entry just below zero passes the PSD check but not the
    # joint's negative-probability check
    slightly_negative = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
    quantum = random_density_matrix(2, rng)
    for cond in (slightly_negative, quantum):
        rho = CqState(((0, 0.5, np.eye(2) / 2), (1, 0.5, cond)), 2)
        expected = _outcome(_dict_loop_classical_env, rho)
        assert expected is not None and not isinstance(expected, float)
        assert _outcome(classical_env_min_entropy, rho) == expected


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_inputs=st.integers(1, 8), env=st.integers(1, 4), h=st.floats(0.0, 4.0))
def test_certificate_minimum_is_the_per_entry_eigvalsh_minimum(seed, n_inputs, env, h, random_density_matrix):
    rng = np.random.default_rng(seed)
    probs = rng.random(n_inputs)
    probs /= probs.sum()
    rho = CqState(tuple((x, p, random_density_matrix(env, rng)) for x, p in enumerate(probs.tolist())), env)
    cert = EntropyCertificate(h, random_density_matrix(env, rng).matrix)
    scale = 2.0 ** (-h)
    per_entry = [
        float(np.linalg.eigvalsh(scale * cert.sigma_E - prob * cond.matrix)[0]) for _, prob, cond in rho.entries
    ]
    assert _certificate_min_eig(rho, cert) == min(per_entry)
    assert check_certificate(rho, cert) == (min(0.0, *per_entry) >= -1e-9)


# ---------------------------------------------------------------------------
# pa_batch
# ---------------------------------------------------------------------------


def _per_entry_pa_batch(trials: int, n_bits: int, l, rng) -> dict:
    """One environment draw and one DensityMatrix per input."""
    _check_exact_input_bits(n_bits)
    holds = True
    max_distance = 0.0
    min_margin = math.inf
    for _ in range(trials):
        li = int(rng.integers(1, min(2, n_bits) + 1)) if l is None else int(l)
        env = int(rng.integers(1, 4))
        probs = rng.random(2 ** n_bits)
        probs /= probs.sum()
        entries = []
        for v in range(2 ** n_bits):
            x = tuple((v >> i) & 1 for i in range(n_bits))
            diag = rng.random(env)
            diag /= diag.sum()
            entries.append((x, float(probs[v]), DensityMatrix(np.diag(diag).astype(complex), (env,))))
        report = pa_exact_check(CqState(tuple(entries), env), HashFamily(n_bits, li), li)
        max_distance = max(max_distance, report["distance"])
        min_margin = min(min_margin, report["bound"] - report["distance"])
        holds = holds and report["holds"]
    return {"trials": trials, "max_distance": max_distance, "min_margin": min_margin, "holds": holds}


@pytest.mark.parametrize("l", [None, 1, 2])
@pytest.mark.parametrize("n_bits", range(1, 7))
def test_pa_batch_is_the_per_entry_batch(n_bits, l):
    for seed in range(4):
        expected = _outcome(lambda rng: _per_entry_pa_batch(2, n_bits, l, rng), np.random.default_rng(seed))
        got = _outcome(lambda rng: pa_batch(2, n_bits, l, rng), np.random.default_rng(seed))
        assert got == expected
        assert isinstance(got, dict) or (n_bits, l) == (1, 2)


# ---------------------------------------------------------------------------
# classical labels
# ---------------------------------------------------------------------------


def _per_value_labels(labels, n):
    """The per-value loop that pa_exact_check ran: _check_bits on each."""
    return np.array([_check_bits(x, n, "classical value") for x in labels], dtype=np.int64)


LABEL_ITEMS = st.one_of(
    st.sampled_from([0, 1]),
    st.sampled_from([-1, 2, 1.0, 0.5, True, "1", "x", 2 ** 70, None]),
)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 4),
    data=st.data(),
)
def test_bit_labels_are_the_per_value_checks(n, data):
    # mostly valid stacks; otherwise a faulty item or length somewhere, or a
    # string label, and the error must be the loop's for its first faulty value
    item = data.draw(st.sampled_from([st.sampled_from([0, 1]), LABEL_ITEMS]))
    label = st.one_of(
        st.lists(item, min_size=n, max_size=n).map(tuple),
        st.lists(item, min_size=0, max_size=n + 1).map(tuple),
        st.text("01", min_size=n, max_size=n),
    )
    labels = data.draw(st.lists(label, min_size=1, max_size=8))
    try:
        expected = _per_value_labels(labels, n)
    except (TypeError, ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)) as info:
            _bit_labels(labels, n)
        assert str(info.value) == str(exc)
    else:
        got = _bit_labels(labels, n)
        assert got.dtype == np.int64 and got.shape == (len(labels), n)
        assert np.array_equal(got, expected)
