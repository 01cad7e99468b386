"""Tests for states, distances, measurements, and the CNOT/Hadamard toolkit."""

import json
import math
import re

import numpy as np
import pytest

from qsample.quantum import (
    BasisSpec,
    CqState,
    DensityMatrix,
    HADAMARD,
    PureState,
    apply_cnot_pairs,
    apply_unitary,
    cq_distance,
    dephased_density,
    make_epr_pairs,
    measure,
    partial_trace,
    random_density_matrix,
    random_pure_state,
    sample_measurement,
    state_from_json,
    state_to_json,
    to_density,
    trace_distance,
)
from qsample.quantum import _hadamard


# ---------------------------------------------------------------------------
# type validation
# ---------------------------------------------------------------------------


def test_pure_state_requires_unit_norm():
    PureState((1, 0, 0, 0), (2, 2))
    with pytest.raises(ValueError, match="norm"):
        PureState((1, 1, 0, 0), (2, 2))
    with pytest.raises(ValueError, match="length"):
        PureState((1, 0, 0), (2, 2))


def test_population_dims_must_agree():
    PureState((1, 0, 0, 0, 0, 0), (2, 3))  # one qubit population, env dim 3
    with pytest.raises(ValueError, match="share one dimension"):
        PureState(np.eye(12)[0], (2, 3, 2))


def test_density_matrix_validation():
    DensityMatrix(np.eye(2) / 2, (2,))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 1], [0, 0.5]]), (2,))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2), (2,))
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5]), (2,))


def test_basis_spec_is_bits():
    assert BasisSpec((0, 1, 0)).theta == (0, 1, 0)
    with pytest.raises(ValueError):
        BasisSpec((0, 2))


def test_from_population_appends_environment():
    st = PureState.from_population((1, 0), d=2, dim_E=3)
    assert st.dims == (2, 3)
    assert st.population_count == 1
    assert st.dim_E == 3
    np.testing.assert_allclose(st.amps, [1, 0, 0, 0, 0, 0])


# ---------------------------------------------------------------------------
# trace distance
# ---------------------------------------------------------------------------


def test_trace_distance_extremes():
    rho = DensityMatrix(np.diag([1.0, 0.0]), (2,))
    sig = DensityMatrix(np.diag([0.0, 1.0]), (2,))
    assert trace_distance(rho, rho) == 0.0
    assert trace_distance(rho, sig) == pytest.approx(1.0)


def test_trace_distance_dim_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        trace_distance(np.eye(2) / 2, np.eye(4) / 4)


def test_trace_distance_is_a_metric_on_random_states():
    rng = np.random.default_rng(11)
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        a = random_density_matrix(dim, rng)
        b = random_density_matrix(dim, rng)
        c = random_density_matrix(dim, rng)
        dab = trace_distance(a, b)
        assert abs(dab - trace_distance(b, a)) < 1e-9
        assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-9
        assert -1e-12 <= dab <= 1 + 1e-12


def test_pure_state_distance_formula():
    rng = np.random.default_rng(5)
    for _ in range(50):
        phi = random_pure_state((4, 1), rng)
        psi = random_pure_state((4, 1), rng)
        overlap = abs(np.vdot(phi.amps, psi.amps)) ** 2
        expected = math.sqrt(max(0.0, 1 - overlap))
        assert abs(trace_distance(to_density(phi), to_density(psi)) - expected) < 1e-9


def test_hybrid_distance_matches_block_diagonal_assembly():
    rng = np.random.default_rng(3)
    for _ in range(20):
        probs = rng.dirichlet((1.0, 1.0, 1.0))
        a = CqState(
            [(x, probs[x], random_density_matrix(3, rng)) for x in range(3)], 3
        )
        b = CqState(
            [(x, probs[x], random_density_matrix(3, rng)) for x in range(3)], 3
        )
        direct = cq_distance(a, b)
        assembled = trace_distance(a.as_density(), b.as_density())
        assert abs(direct - assembled) < 1e-9


def test_cq_distance_handles_different_laws():
    rho = DensityMatrix(np.diag([1.0, 0.0]), (2,))
    sig = DensityMatrix(np.diag([0.0, 1.0]), (2,))
    a = CqState([(0, 1.0, rho)], 2)
    b = CqState([(1, 1.0, sig)], 2)
    # disjoint labels: the states are perfectly distinguishable
    assert cq_distance(a, b) == pytest.approx(1.0)
    # agreement with the block-diagonal assembly when laws do match
    c = CqState([(0, 0.5, rho), (1, 0.5, rho)], 2)
    d = CqState([(0, 0.5, sig), (1, 0.5, rho)], 2)
    assert cq_distance(c, d) == pytest.approx(trace_distance(c.as_density(), d.as_density()))


def test_cq_state_validates_probabilities():
    rho = DensityMatrix(np.eye(2) / 2, (2,))
    with pytest.raises(ValueError, match="sum"):
        CqState([(0, 0.9, rho)], 2)
    with pytest.raises(ValueError, match="duplicate"):
        CqState([(0, 0.5, rho), (0, 0.5, rho)], 2)


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------


def test_partial_trace_of_epr_is_maximally_mixed():
    epr = make_epr_pairs(1)
    reduced = partial_trace(to_density(epr), (1,))
    np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)
    assert reduced.dims == (2,)


def test_partial_trace_preserves_trace_and_matches_kron_structure():
    rng = np.random.default_rng(9)
    a = random_density_matrix(2, rng)
    b = random_density_matrix(3, rng)
    joint = DensityMatrix(np.kron(a.matrix, b.matrix), (2, 3))
    np.testing.assert_allclose(partial_trace(joint, (1,)).matrix, a.matrix, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, (2,)).matrix, b.matrix, atol=1e-12)


def test_partial_trace_keeps_multiple_subsystems():
    rng = np.random.default_rng(2)
    phi = random_pure_state((2, 2, 2, 3), rng)
    rho = partial_trace(phi, (1, 3, 4))
    assert rho.dims == (2, 2, 3)
    assert np.trace(rho.matrix).real == pytest.approx(1.0)
    # tracing further must agree with tracing directly
    direct = partial_trace(phi, (1, 4))
    two_step = partial_trace(rho, (1, 3))
    np.testing.assert_allclose(direct.matrix, two_step.matrix, atol=1e-12)
    # a pure state reduces from its amplitudes as its density matrix does,
    # for the environment alone too
    for keep in ((1,), (2, 3), (1, 3, 4), (4,), (2, 4), (1, 2, 3, 4)):
        np.testing.assert_allclose(
            partial_trace(phi, keep).matrix, partial_trace(to_density(phi), keep).matrix, atol=1e-12
        )


def test_partial_trace_rejects_bad_subsets():
    rho = to_density(make_epr_pairs(1))
    with pytest.raises(ValueError):
        partial_trace(rho, (0,))
    with pytest.raises(ValueError):
        partial_trace(rho, (4,))
    with pytest.raises(ValueError):
        partial_trace(rho, ())


def test_partial_trace_names_the_faulty_position():
    rho = to_density(make_epr_pairs(1))
    for keep, message in [
        ((0,), "position 0 outside [1..3]"),
        ((4,), "position 4 outside [1..3]"),
        ((2, 2), "duplicate positions in (2, 2)"),
        ((), "keep must name at least one subsystem"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            partial_trace(rho, keep)
    np.testing.assert_allclose(partial_trace(rho, (2, 1)).matrix, rho.matrix, atol=1e-12)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def test_epr_measurement_collapses_in_place():
    epr = make_epr_pairs(1)
    branches = measure(epr, (1, 2), BasisSpec((0, 0)))
    assert {b.outcome for b in branches} == {(0, 0), (1, 1)}
    assert sum(b.probability for b in branches) == pytest.approx(1.0)
    for b in branches:
        expected = np.zeros(4)
        expected[b.outcome[0] * 2 + b.outcome[1]] = 1.0
        np.testing.assert_allclose(b.post_state.amps, expected, atol=1e-12)
        assert b.post_state.dims == epr.dims


def test_measurement_distribution_sums_to_one():
    rng = np.random.default_rng(21)
    phi = random_pure_state((2, 2, 2, 2), rng)
    branches = measure(phi, (1, 3), BasisSpec((1, 0, 1)))
    assert sum(b.probability for b in branches) == pytest.approx(1.0)


def test_zero_probability_branch_requested_is_an_error():
    epr = make_epr_pairs(1)
    with pytest.raises(ValueError, match="zero probability"):
        measure(epr, (1, 2), BasisSpec((0, 0)), outcome=(0, 1))
    branch = measure(epr, (1, 2), BasisSpec((0, 0)), outcome=(1, 1))
    assert branch.probability == pytest.approx(0.5)


def test_requested_outcome_symbols_must_lie_in_the_alphabet():
    epr = make_epr_pairs(1)
    for bad in ((-1,), (2,), (0.9,)):
        with pytest.raises(ValueError, match="not in 0..1"):
            measure(epr, [1], outcome=bad)
    assert measure(epr, [1], outcome=(np.int64(1),)).outcome == (1,)
    qutrit = PureState(np.ones(3) / math.sqrt(3), (3, 1))
    assert measure(qutrit, [1], outcome=(2,)).outcome == (2,)
    with pytest.raises(ValueError, match="not in 0..2"):
        measure(qutrit, [1], outcome=(3,))


def test_hadamard_measurement_of_plus_state_is_deterministic():
    plus = PureState.from_population(np.array([1, 1]) / math.sqrt(2))
    branches = measure(plus, (1,), BasisSpec((1,)))
    assert len(branches) == 1
    assert branches[0].outcome == (0,)
    assert branches[0].probability == pytest.approx(1.0)


def test_measurement_positions_must_be_population():
    epr = make_epr_pairs(1)  # dims (2, 2, 1): env is position 3
    with pytest.raises(ValueError):
        measure(epr, (3,), BasisSpec((0, 0)))


def test_measurement_outcome_follows_position_order():
    # |10>: position 1 reads 1, position 2 reads 0, in either request order
    phi = PureState((0, 0, 1, 0), (2, 2, 1))
    forward = measure(phi, (1, 2), None)
    backward = measure(phi, (2, 1), None)
    assert len(forward) == len(backward) == 1
    assert forward[0].outcome == (1, 0)
    assert backward[0].outcome == (0, 1)
    np.testing.assert_allclose(backward[0].post_state.amps, phi.amps)
    rng = np.random.default_rng(77)
    state = random_pure_state((2, 2, 2, 1), rng)
    fwd = {b.outcome: b.probability for b in measure(state, (1, 3), BasisSpec((1, 0, 1)))}
    rev = {b.outcome: b.probability for b in measure(state, (3, 1), BasisSpec((1, 0, 1)))}
    for (a, c), p in fwd.items():
        assert rev[(c, a)] == pytest.approx(p)


def test_hadamard_requires_qubits():
    qutrit = PureState((1, 0, 0), (3, 1))
    with pytest.raises(ValueError, match="qubit"):
        measure(qutrit, (1,), BasisSpec((1,)))
    # computational basis works for any d
    assert measure(qutrit, (1,), BasisSpec((0,)))[0].outcome == (0,)


def test_mixing_measurement_branches_gives_dephased_density():
    rng = np.random.default_rng(13)
    for theta in [(0, 0), (1, 0), (1, 1)]:
        phi = random_pure_state((2, 2, 2), rng)
        mixed = dephased_density(phi, (1, 2), BasisSpec(theta))
        # oracle: conjugate the projector sum directly
        rho = to_density(phi).matrix
        expected = np.zeros_like(rho)
        for o1 in range(2):
            for o2 in range(2):
                v1 = HADAMARD[:, o1] if theta[0] else np.eye(2)[:, o1]
                v2 = HADAMARD[:, o2] if theta[1] else np.eye(2)[:, o2]
                proj = np.kron(np.outer(v1, v1.conj()), np.outer(v2, v2.conj()))
                proj = np.kron(proj, np.eye(2))
                expected += proj @ rho @ proj
        np.testing.assert_allclose(mixed.matrix, expected, atol=1e-10)


def test_sample_measurement_is_seed_deterministic():
    phi = random_pure_state((2, 2, 1), np.random.default_rng(4))
    a = sample_measurement(phi, (1, 2), None, np.random.default_rng(8))
    b = sample_measurement(phi, (1, 2), None, np.random.default_rng(8))
    assert a.outcome == b.outcome
    counts = {}
    rng = np.random.default_rng(0)
    for _ in range(400):
        out = sample_measurement(phi, (1, 2), None, rng).outcome
        counts[out] = counts.get(out, 0) + 1
    probs = {b.outcome: b.probability for b in measure(phi, (1, 2))}
    for out, c in counts.items():
        assert abs(c / 400 - probs[out]) < 0.12


# ---------------------------------------------------------------------------
# CNOT and unitaries
# ---------------------------------------------------------------------------


def test_cnot_computational_identity():
    # U(|b>|c>) = |b>|b xor c>, exact
    for b in (0, 1):
        for c in (0, 1):
            amps = np.zeros(4)
            amps[b * 2 + c] = 1.0
            st = PureState(amps, (2, 2, 1))
            out = apply_cnot_pairs(st, [(1, 2)])
            expected = np.zeros(4)
            expected[b * 2 + (b ^ c)] = 1.0
            np.testing.assert_allclose(out.amps, expected, atol=1e-12)


def test_cnot_hadamard_identity():
    # U(H|b> H|c>) = H|b xor c> H|c>, exact
    for b in (0, 1):
        for c in (0, 1):
            amps = np.kron(HADAMARD[:, b], HADAMARD[:, c])
            st = PureState(amps, (2, 2, 1))
            out = apply_cnot_pairs(st, [(1, 2)])
            expected = np.kron(HADAMARD[:, b ^ c], HADAMARD[:, c])
            np.testing.assert_allclose(out.amps, expected, atol=1e-12)


def test_cnot_is_an_involution():
    rng = np.random.default_rng(17)
    phi = random_pure_state((2, 2, 2, 2, 1), rng)
    pairs = [(1, 3), (2, 4)]
    back = apply_cnot_pairs(apply_cnot_pairs(phi, pairs), pairs)
    np.testing.assert_allclose(back.amps, phi.amps, atol=1e-10)


def test_cnot_rejects_overlap_and_non_qubits():
    phi = random_pure_state((2, 2, 2, 1), np.random.default_rng(1))
    with pytest.raises(ValueError, match="overlapping"):
        apply_cnot_pairs(phi, [(1, 2), (2, 3)])
    with pytest.raises(ValueError, match="differ"):
        apply_cnot_pairs(phi, [(1, 1)])
    qutrit = PureState((1, 0, 0), (3, 1))
    with pytest.raises(ValueError, match="qubit"):
        apply_cnot_pairs(qutrit, [(1, 2)])


def test_apply_unitary_matches_kron_and_preserves_norm():
    rng = np.random.default_rng(23)
    phi = random_pure_state((2, 2, 2), rng)
    # random 2-qubit unitary on positions (1, 2)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(m)
    out = apply_unitary(phi, u, (1, 2))
    expected = np.kron(u, np.eye(2)) @ phi.amps
    np.testing.assert_allclose(out.amps, expected, atol=1e-10)
    # acting on (qubit, environment) positions also works
    u2 = np.kron(HADAMARD, np.eye(2))
    out2 = apply_unitary(phi, u2, (2, 3))
    assert abs(np.linalg.norm(out2.amps) - 1) < 1e-10


def test_apply_unitary_respects_position_order():
    rng = np.random.default_rng(29)
    phi = random_pure_state((2, 2, 1), rng)
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    # CNOT with control 2, target 1 == SWAP . CNOT(1, 2) . SWAP
    a = apply_unitary(phi, cnot, (2, 1))
    b = apply_unitary(phi, swap @ cnot @ swap, (1, 2))
    np.testing.assert_allclose(a.amps, b.amps, atol=1e-12)


# ---------------------------------------------------------------------------
# EPR pairs
# ---------------------------------------------------------------------------


def test_epr_single_pair_amplitudes():
    epr = make_epr_pairs(1)
    np.testing.assert_allclose(
        epr.amps, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)], atol=1e-12
    )
    assert epr.dims == (2, 2, 1)


def test_epr_two_pairs_uniform_over_matching_strings():
    epr = make_epr_pairs(2)
    assert abs(np.linalg.norm(epr.amps) - 1) < 1e-12
    tensor = epr.amps.reshape(2, 2, 2, 2)
    for a1 in range(2):
        for a2 in range(2):
            for b1 in range(2):
                for b2 in range(2):
                    expect = 0.5 if (a1, a2) == (b1, b2) else 0.0
                    assert tensor[a1, a2, b1, b2] == pytest.approx(expect)


def test_epr_measured_in_matching_bases_agrees():
    # measuring both halves in the same basis yields equal outcomes
    epr = make_epr_pairs(1)
    for theta in (0, 1):
        for branch in measure(epr, (1, 2), BasisSpec((theta, theta))):
            assert branch.outcome[0] == branch.outcome[1]


# ---------------------------------------------------------------------------
# the Hadamard kernel against the tensordot oracle
# ---------------------------------------------------------------------------


def _random_tensor(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_hadamard_matches_tensordot_in_any_axis_order(tensordot_hadamard):
    rng = np.random.default_rng(41)
    for _ in range(40):
        x = _random_tensor(rng, (2,) * 5)
        axes = rng.permutation(5)[: int(rng.integers(1, 6))].tolist()
        got = _hadamard(x, axes)
        np.testing.assert_allclose(got, tensordot_hadamard(x, axes), rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, _hadamard(x, axes[::-1]), rtol=0, atol=1e-12)


def test_hadamard_leaves_a_stack_axis_and_an_environment_axis_alone(tensordot_hadamard):
    # a leading stack of 5 tensors, three qubits, then an environment of 3
    rng = np.random.default_rng(43)
    for _ in range(20):
        x = _random_tensor(rng, (5, 2, 2, 2, 3))
        axes = (1 + rng.permutation(3)[: int(rng.integers(1, 4))]).tolist()
        np.testing.assert_allclose(_hadamard(x, axes), tensordot_hadamard(x, axes), rtol=0, atol=1e-12)


def test_hadamard_is_an_involution():
    rng = np.random.default_rng(47)
    for _ in range(20):
        x = _random_tensor(rng, (2, 2, 2, 2, 3))
        axes = rng.permutation(4)[: int(rng.integers(1, 5))].tolist()
        before = x.copy()
        np.testing.assert_allclose(_hadamard(_hadamard(x, axes), axes), x, rtol=0, atol=1e-12)
        assert np.array_equal(x, before)  # the input is not modified


def test_hadamard_on_no_axes_is_the_identity():
    x = np.arange(8, dtype=complex).reshape(2, 2, 2)
    assert _hadamard(x, ()) is x


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_state_json_round_trip():
    rng = np.random.default_rng(31)
    phi = random_pure_state((2, 2, 3), rng)
    again = state_from_json(state_to_json(phi))
    assert again.dims == phi.dims
    np.testing.assert_allclose(again.amps, phi.amps, atol=1e-15)

    rho = random_density_matrix(4, rng)
    back = state_from_json(state_to_json(rho))
    assert back.dims == rho.dims
    np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-15)


def test_state_json_layout():
    st = PureState((1, 0, 0, 0), (2, 2))
    obj = json.loads(state_to_json(st))
    assert obj["type"] == "pure"
    assert obj["dims"] == [2, 2]
    assert obj["amplitudes"][:2] == [1.0, 0.0]
    assert len(obj["amplitudes"]) == 8


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "must be an object"),
        ('{"type": "pure"}', "no list 'dims'"),
        ('{"type": "pure", "dims": [2, 1]}', "no list 'amplitudes'"),
        ('{"type": "density", "dims": [2]}', "no list 'matrix'"),
        ('{"type": "pure", "dims": 2, "amplitudes": [1, 0, 0, 0]}', "no list 'dims'"),
        ('{"type": "density", "dims": [1], "matrix": {"re": 1}}', "no list 'matrix'"),
        ('{"dims": [2, 1], "amplitudes": [1, 0, 0, 0]}', "unknown state type"),
    ],
)
def test_malformed_state_json_is_a_value_error(text, message):
    with pytest.raises(ValueError, match=message):
        state_from_json(text)
