"""Tests for accept subspaces, projection distances, and symmetry tightness."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qsample.sampling as sampling
from qsample.cli import RunConfig, run
from qsample.quantum import HADAMARD, PureState, measure, random_pure_state
from qsample.sampling import (
    STRATEGY_KINDS,
    BudgetExceededError,
    _digits,
    custom_strategy,
    eps_class_exact,
    failure_probability,
    in_accept_set,
    make_strategy,
)
from qsample.qsampling import (
    NotSymmetricError,
    PermutationGroup,
    _symmetric_orbits,
    _symmetric_sqrt_bound,
    accept_set,
    apply_permutation,
    check_sqrt_bound,
    ideal_distance,
    is_g_symmetric,
    pair_symmetry_group,
    project_onto_accept,
    sqrt_bound_report,
    symmetric_group,
    symmetric_ideal_distance,
    symmetric_worst_state,
)


def _state(amps, dim_E=1):
    amps = np.asarray(amps, dtype=complex)
    count = round(math.log2(amps.size))
    return PureState(np.kron(amps, np.eye(dim_E)[0]), (2,) * count + (dim_E,))


# ---------------------------------------------------------------------------
# accept sets
# ---------------------------------------------------------------------------


def test_accept_set_small_case_by_hand():
    strat = make_strategy("example1", n=2, k=1)
    got = {st.symbols for st in accept_set(strat, (1,), None, 0.5)}
    assert got == {(0, 0), (1, 1)}
    got2 = {st.symbols for st in accept_set(strat, (2,), None, 0.5)}
    assert got2 == {(0, 0), (1, 1)}


def test_accept_set_wide_delta_excludes_only_maximal_deviations():
    strat = make_strategy("example1", n=3, k=1)
    got = {st.symbols for st in accept_set(strat, (2,), None, 0.999999)}
    # only the two strings deviating by exactly 1 stay out
    assert got == set(itertools.product((0, 1), repeat=3)) - {(0, 1, 0), (1, 0, 1)}


def test_accept_set_agrees_with_pointwise_membership():
    cases = [
        (make_strategy("example4", n=4, k=2), (1, 3), (3,)),
        (make_strategy("example4", n=4, k=2), (3, 1), (3,)),  # t unsorted
        # callers may name pair-indexed columns by (i, j) labels, t and s alike
        (make_strategy("example5", n=2, k=1), [(2, 0), (1, 1)], (2,)),
        (make_strategy("example5", n=3, k=2), [(3, 1), (1, 0), (2, 1)], (1, 3)),
        (make_strategy("example6", n=2, k=2, p=0.3), [(2, 1), (1, 0)], ([(1, 0)], [(2, 1)])),
        (make_strategy("example6", n=3, k=2, p=0.3), [(1, 1), (2, 0), (3, 0)], ([(3, 0)], [(1, 1)])),
    ]
    for strat, t, s in cases:
        for delta in (0.4, 0.5):
            members = {st.symbols for st in accept_set(strat, t, s, delta)}
            for q in itertools.product((0, 1), repeat=strat.length):
                assert (q in members) == in_accept_set(strat, q, t, s, delta)


def test_accept_set_respects_budget(monkeypatch):
    monkeypatch.setenv("QSAMPLE_BUDGET", "4")
    strat = make_strategy("example1", n=3, k=1)
    with pytest.raises(BudgetExceededError):
        accept_set(strat, (1,), None, 0.3)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_all_zero_state_is_always_inside():
    strat = make_strategy("example1", n=3, k=1)
    zero = _state([1, 0, 0, 0, 0, 0, 0, 0], dim_E=3)
    for t in [(1,), (2,), (3,)]:
        sw = project_onto_accept(zero, strat, t, None, 0.3)
        assert sw.inside_weight == pytest.approx(1.0)
        np.testing.assert_allclose(sw.projected_state.amps, zero.amps, atol=1e-12)


def test_matched_superposition_lies_inside():
    strat = make_strategy("example1", n=2, k=1)
    phi = _state([1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
    sw = project_onto_accept(phi, strat, (1,), None, 0.5)
    assert sw.inside_weight == pytest.approx(1.0)


def test_antimatched_superposition_lies_outside():
    strat = make_strategy("example1", n=2, k=1)
    phi = _state([0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])
    sw = project_onto_accept(phi, strat, (1,), None, 0.5)
    assert sw.inside_weight == pytest.approx(0.0)
    assert sw.projected_state is None
    assert sw.outside_weight == pytest.approx(1.0)


def test_projection_is_idempotent():
    strat = make_strategy("example1", n=3, k=2)
    rng = np.random.default_rng(7)
    phi = random_pure_state((2, 2, 2, 2), rng)
    sw = project_onto_accept(phi, strat, (1, 2), None, 0.4)
    again = project_onto_accept(sw.projected_state, strat, (1, 2), None, 0.4)
    assert again.inside_weight == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(
        again.projected_state.amps, sw.projected_state.amps, atol=1e-9
    )


def test_inside_weight_equals_classical_success_of_measured_distribution():
    rng = np.random.default_rng(19)
    strat = make_strategy("example1", n=3, k=1)
    basis_strings = list(itertools.product((0, 1), repeat=3))
    for _ in range(200):
        phi = random_pure_state((2, 2, 2, 2), rng)
        t = (int(rng.integers(1, 4)),)
        sw = project_onto_accept(phi, strat, t, None, 0.4)
        # classical oracle: measure the population, then test membership
        probs = {b.outcome: b.probability for b in measure(phi, (1, 2, 3))}
        success = sum(
            probs.get(q, 0.0) for q in basis_strings if in_accept_set(strat, q, t, None, 0.4)
        )
        assert abs(sw.inside_weight - success) < 1e-10


def test_projection_rejects_dim_mismatch():
    strat = make_strategy("example1", n=3, k=1)
    wrong = _state([1, 0, 0, 0])
    with pytest.raises(ValueError, match="population"):
        project_onto_accept(wrong, strat, (1,), None, 0.3)
    qutrit = PureState(np.eye(27)[0], (3, 3, 3))
    with pytest.raises(ValueError, match="alphabet|population"):
        project_onto_accept(qutrit, strat, (1,), None, 0.3)


# ---------------------------------------------------------------------------
# ideal distance and the square-root bound
# ---------------------------------------------------------------------------


def test_ideal_distance_zero_for_all_zero_string():
    for kind, params in [("example1", dict(n=3, k=1)), ("example3", dict(n=3))]:
        strat = make_strategy(kind, params)
        zero = _state(np.eye(8)[0])
        assert ideal_distance(zero, strat, 0.3) == pytest.approx(0.0)


def test_ideal_distance_one_when_every_branch_fails():
    strat = make_strategy("example1", n=2, k=1)
    phi = _state([0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])
    assert ideal_distance(phi, strat, 0.5) == pytest.approx(1.0)


def test_ideal_distance_formula_against_direct_sum():
    strat = make_strategy("example4", n=3, k=2)
    rng = np.random.default_rng(3)
    phi = random_pure_state((2, 2, 2, 2), rng)
    total = 0.0
    for t, s, prob in strat.ts_support():
        sw = project_onto_accept(phi, strat, t, s, 0.35)
        total += float(prob) * math.sqrt(max(0.0, 1 - sw.inside_weight))
    assert ideal_distance(phi, strat, 0.35) == pytest.approx(total, abs=1e-12)


def test_ideal_distance_monotone_in_delta():
    rng = np.random.default_rng(5)
    strat = make_strategy("example3", n=4)
    for _ in range(10):
        phi = random_pure_state((2, 2, 2, 2, 2), rng)
        values = [ideal_distance(phi, strat, d) for d in (0.15, 0.3, 0.45, 0.6, 0.75)]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-12


def test_sqrt_bound_on_random_states():
    rng = np.random.default_rng(41)
    cases = [
        ("example1", dict(n=4, k=2)),
        ("example3", dict(n=3)),
        ("example4", dict(n=4, k=1)),
    ]
    for kind, params in cases:
        strat = make_strategy(kind, params)
        for delta in (0.25, 0.45):
            for _ in range(10):
                dim_E = int(rng.integers(1, 5))
                phi = random_pure_state((2,) * strat.length + (dim_E,), rng)
                report = check_sqrt_bound(phi, strat, delta)
                assert report["holds"]
                assert report["ideal_distance"] <= report["sqrt_eps_class"] + 1e-9


def test_sqrt_bound_report_json_layout():
    strat = make_strategy("example1", n=2, k=1)
    phi = _state([1, 0, 0, 0])
    obj = json.loads(sqrt_bound_report(phi, strat, 0.3))
    assert set(obj) == {"strategy", "delta", "ideal_distance", "sqrt_eps_class", "gap"}
    assert obj["strategy"]["kind"] == "example1"
    assert obj["gap"] == pytest.approx(obj["sqrt_eps_class"] - obj["ideal_distance"])


def test_ideal_distance_respects_budget(monkeypatch):
    strat = make_strategy("example1", n=4, k=2)
    phi = _state(np.eye(16)[0])
    monkeypatch.setenv("QSAMPLE_BUDGET", "16")
    with pytest.raises(BudgetExceededError):
        ideal_distance(phi, strat, 0.3)


# ---------------------------------------------------------------------------
# permutation groups
# ---------------------------------------------------------------------------


def test_group_validation_catches_non_groups():
    assert PermutationGroup(((2, 3, 1),), 3).order == 3  # a 3-cycle generates its inverse
    with pytest.raises(ValueError, match="permutation"):
        PermutationGroup(((1, 1, 3),), 3)
    g = PermutationGroup(((1, 2, 3), (2, 3, 1), (3, 1, 2)), 3)
    assert g.order == 3


def test_symmetric_group_order_and_closure():
    g = symmetric_group(4)
    assert g.order == 24
    assert (1, 2, 3, 4) in g.elements


def test_from_generators_closes():
    # the transposition (1 2) and the 3-cycle generate S_3
    g = PermutationGroup([(2, 1, 3), (2, 3, 1)], 3)
    assert g.order == 6


def test_pair_symmetry_group_order():
    g = pair_symmetry_group(2)
    assert g.n == 4
    assert g.order == 8  # 2^2 * 2!
    assert pair_symmetry_group(3).order == 48


def test_apply_permutation_moves_symbols():
    # position 1 -> 2, 2 -> 3, 3 -> 1
    assert apply_permutation((2, 3, 1), (5, 6, 7)) == (7, 5, 6)


# ---------------------------------------------------------------------------
# symmetry detection
# ---------------------------------------------------------------------------


def test_uniform_subset_sampling_is_fully_symmetric():
    strat = make_strategy("example1", n=3, k=1)
    assert is_g_symmetric(strat, symmetric_group(3))


def test_random_subset_strategy_is_not_symmetric_for_fixed_candidates():
    strat = make_strategy("example3", n=3)
    assert not is_g_symmetric(strat, symmetric_group(3))


def test_identity_group_requires_point_mass_laws():
    identity = PermutationGroup(((1, 2, 3),), 3)
    assert not is_g_symmetric(make_strategy("example1", n=3, k=1), identity)
    point = custom_strategy(
        3, [((1,), None, 1)], lambda t, qt, s: 1.0 if qt[0] else 0.0
    )
    assert is_g_symmetric(point, identity)


def test_pairwise_strategy_is_wreath_symmetric():
    strat = make_strategy("example5", n=2, k=1)
    assert is_g_symmetric(strat, pair_symmetry_group(2))


def test_symmetry_check_is_gated_before_it_builds(monkeypatch):
    monkeypatch.setenv("QSAMPLE_BUDGET", "1000")
    with pytest.raises(BudgetExceededError):
        is_g_symmetric(make_strategy("example1", n=8, k=2), symmetric_group(8))


def test_symmetry_check_validates_group_size():
    strat = make_strategy("example1", n=3, k=1)
    with pytest.raises(ValueError, match="length"):
        is_g_symmetric(strat, symmetric_group(4))


# ---------------------------------------------------------------------------
# tightness construction
# ---------------------------------------------------------------------------


def test_worst_state_small_case():
    strat = make_strategy("example1", n=2, k=1)
    phi = symmetric_worst_state(strat, symmetric_group(2), 0.6)
    np.testing.assert_allclose(
        phi.amps, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0], atol=1e-12
    )
    assert phi.dims == (2, 2, 1)


def test_worst_state_orbit_of_weight_one_string():
    strat = make_strategy("example1", n=3, k=1)
    phi = symmetric_worst_state(strat, symmetric_group(3), 0.6)
    expected = np.zeros(8)
    for idx in (1, 2, 4):  # the three weight-1 strings
        expected[idx] = 1 / math.sqrt(3)
    np.testing.assert_allclose(np.abs(phi.amps), expected, atol=1e-12)


def test_worst_state_singleton_orbit():
    point = custom_strategy(
        2, [((1,), None, 1)], lambda t, qt, s: 1.0 if qt[0] else 0.0
    )
    identity = PermutationGroup(((1, 2),), 2)
    phi = symmetric_worst_state(point, identity, 0.4)
    assert np.count_nonzero(np.abs(phi.amps) > 1e-12) == 1


def test_worst_state_rejects_asymmetric_strategy():
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_worst_state(make_strategy("example3", n=3), symmetric_group(3), 0.3)


def _element_sum_worst_state(strategy, G, delta):
    """Every group element adds amplitude 1 at its image of the witness; the
    normalised sum is the uniform superposition over the orbit."""
    witness = eps_class_exact(strategy, delta).worst_case_string.symbols
    amps = np.zeros(strategy.d ** strategy.length, dtype=complex)
    for perm in G.elements:
        index = 0
        for sym in apply_permutation(perm, witness):
            index = index * strategy.d + sym
        amps[index] += 1.0
    return amps / np.linalg.norm(amps)


@pytest.mark.parametrize(
    "strat,G",
    [(make_strategy("example1", n=n, k=k), symmetric_group(n)) for n in range(1, 6) for k in range(1, n + 1)]
    + [(make_strategy("example5", n=n, k=k), pair_symmetry_group(n)) for n in range(1, 4) for k in range(1, n + 1)]
    + [  # a singleton orbit whose witness 011 is not its own mirror image
        (
            custom_strategy(3, [((1,), None, 1)], lambda t, qt, s: 1.0 if qt[0] else 0.0),
            PermutationGroup((), 3),
        )
    ],
)
def test_worst_state_matches_element_sum(strat, G):
    for delta in (0.1, 0.25, 0.37, 0.5):
        phi = symmetric_worst_state(strat, G, delta)
        np.testing.assert_allclose(phi.amps, _element_sum_worst_state(strat, G, delta), rtol=0, atol=1e-12)


def test_tightness_for_subset_sampling():
    for n, k, delta in [(3, 1, 0.3), (4, 2, 0.3), (4, 1, 0.45)]:
        strat = make_strategy("example1", n=n, k=k)
        phi = symmetric_worst_state(strat, symmetric_group(n), delta)
        ideal = ideal_distance(phi, strat, delta)
        sqrt_eps = math.sqrt(eps_class_exact(strat, delta).value)
        assert abs(ideal - sqrt_eps) <= 1e-9


def test_tightness_for_pairwise_strategy():
    strat = make_strategy("example5", n=2, k=1)
    delta = 0.37
    phi = symmetric_worst_state(strat, pair_symmetry_group(2), delta)
    ideal = ideal_distance(phi, strat, delta)
    sqrt_eps = math.sqrt(eps_class_exact(strat, delta).value)
    assert abs(ideal - sqrt_eps) <= 1e-9


def test_worst_state_failure_probability_attains_eps():
    strat = make_strategy("example1", n=4, k=2)
    est = eps_class_exact(strat, 0.3)
    # every string in the witness orbit fails with the same probability
    for perm in symmetric_group(4).elements:
        image = apply_permutation(perm, est.worst_case_string.symbols)
        assert float(failure_probability(strat, image, 0.3)) == pytest.approx(est.value)


def test_support_rows_are_built_once_per_strategy(monkeypatch):
    # ideal_distance, the symmetry check and the enumerated eps_class read
    # the support's (A, D, R) from the strategy after the first call
    built, real = [], sampling._dense_rows
    monkeypatch.setattr(sampling, "_dense_rows", lambda s, columns: built.append(len(columns)) or real(s, columns))
    strat = make_strategy("example4", n=4, k=2)
    phi = random_pure_state((2,) * 4 + (1,), np.random.default_rng(8))
    first = ideal_distance(phi, strat, 0.3)
    assert not is_g_symmetric(strat, symmetric_group(4))
    assert ideal_distance(phi, strat, 0.3) == first and ideal_distance(phi, strat, 0.25) >= 0
    assert built == [strat.support_size()]
    built.clear()
    strat = make_strategy("example6", n=2, k=2, p=0.3)
    eps_class_exact(strat, 0.3)
    ideal_distance(random_pure_state((2,) * 4 + (1,), np.random.default_rng(9)), strat, 0.3)
    assert built == [strat.support_size()]


# ---------------------------------------------------------------------------
# symmetric states of the counted kinds
# ---------------------------------------------------------------------------


def _weight_law_state(strategy, law):
    """The dense state whose population has weight w with probability
    law[w], spread evenly over every string with w nonzero symbols."""
    d, L = strategy.d, strategy.length
    weight = np.count_nonzero(_digits(0, d ** L, d, L), axis=1)
    count = np.array([math.comb(L, w) * (d - 1) ** w for w in range(L + 1)])
    return PureState(np.sqrt(np.asarray(law)[weight] / count[weight]).astype(complex), (d,) * L + (1,))


@st.composite
def weight_law_cases(draw):
    kind = draw(st.sampled_from(["example1", "example3", "example4"]))
    n = draw(st.integers(1, 8))
    d = draw(st.sampled_from([2, 3])) if n <= 5 else 2
    if kind == "example3":
        strategy = make_strategy(kind, n=n, d=d)
    else:
        strategy = make_strategy(kind, n=n, k=draw(st.integers(1, n)), d=d)
    if draw(st.booleans()):  # a Dicke state
        law = [0.0] * (n + 1)
        law[draw(st.integers(0, n))] = 1.0
    else:
        raw = draw(st.lists(st.floats(0.0, 1.0), min_size=n + 1, max_size=n + 1).filter(lambda x: sum(x) > 0.01))
        law = [x / sum(raw) for x in raw]
    return strategy, law


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=weight_law_cases(), delta=st.sampled_from([0.1, 0.2, 0.25, 1 / 3, 0.45]))
@example(case=(make_strategy("example3", n=8), [1 / 9] * 9), delta=0.2)
@example(case=(make_strategy("example4", n=8, k=4), [0.0] * 4 + [1.0] + [0.0] * 4), delta=0.25)
@example(case=(make_strategy("example1", n=7, k=3), [0.0, 1.0] + [0.0] * 6), delta=0.45)  # 1 - inside read 1.8e-8
@example(case=(make_strategy("example3", n=1), [1 - 2.2857142851918368e-10, 2.2857142851918368e-10]), delta=0.1)
def test_symmetric_distance_matches_the_dense_distance(case, delta):
    strategy, law = case
    dense = ideal_distance(_weight_law_state(strategy, law), strategy, delta)
    assert abs(symmetric_ideal_distance(strategy, law, delta) - dense) <= 1e-12


def test_symmetric_distance_refuses_what_it_cannot_read():
    strat = make_strategy("example1", n=4, k=2)
    for law in ([1.0] * 5, [0.5, 0.5], [2.0, -1.0, 0.0, 0.0, 0.0], [math.nan] * 5):
        with pytest.raises(ValueError, match="weight_law"):
            symmetric_ideal_distance(strat, law, 0.3)
    with pytest.raises(ValueError, match="counted kind"):
        symmetric_ideal_distance(make_strategy("example5", n=2, k=1), [1.0, 0, 0, 0, 0], 0.3)


@pytest.mark.parametrize("command", ["tightness", "eps-quant"])
def test_counted_worst_case_matches_the_dense_construction(command):
    # criterion 02's inputs: the reports read one class table, the dense
    # worst state and its distance stay the oracle
    for n in range(3, 11):
        group = symmetric_group(n)
        for k in (1, 2, 3):
            strategy = make_strategy("example1", n=n, k=k)
            for delta in (0.2, 0.3, 0.4):
                ideal = ideal_distance(symmetric_worst_state(strategy, group, delta), strategy, delta)
                root = math.sqrt(eps_class_exact(strategy, delta).value)
                params = {"n": n, "k": k, "delta": delta}
                if command == "eps-quant":
                    params["kind"] = "example1"
                status, text = run(RunConfig(command, params))
                result = json.loads(text)["result"]
                assert status == 0 and result["gap"] == 0.0
                assert abs(result["ideal_distance"] - ideal) <= 1e-12
                assert result["sqrt_eps_class"] == root


def _sizes(kind):
    """Every parameter set of a built-in kind with strings of at most 10
    positions, example6 at p = 0.3 and 0.5; example4 stops at n = 8, since
    its dense symmetry check at n = 10 takes 8 s and 1.2 GB."""
    if kind == "example3":
        return [{"n": n} for n in range(1, 11)]
    if kind == "example6":
        return [{"n": n, "k": k, "p": p} for n in range(1, 6) for k in range(2, 2 * n + 1, 2) for p in (0.3, 0.5)]
    top = {"example4": 8, "example5": 5}.get(kind, 10)
    return [{"n": n, "k": k} for n in range(1, top + 1) for k in range(1, n + 1)]


def _answered_without_a_state(strategy) -> bool:
    try:
        _symmetric_sqrt_bound(strategy, 0.3)
    except NotSymmetricError:
        return False
    return True


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_worst_case_is_answered_where_the_dense_check_finds_symmetry(kind):
    # eps-quant answers without --state for a law of one orbit, and refuses
    # any other kind by name; the dense check, under the group the CLI used
    # to pass it, is the oracle
    for params in _sizes(kind):
        strategy = make_strategy(kind, params)
        G = pair_symmetry_group(strategy.n) if strategy.pair_indexed else symmetric_group(strategy.n)
        if kind == "example2":  # no (t, s) law to enumerate, so no orbit to be uniform on
            for check in (lambda: _symmetric_orbits(strategy, G), lambda: _symmetric_sqrt_bound(strategy, 0.3)):
                with pytest.raises(NotImplementedError, match="replacement"):
                    check()
        else:
            assert _answered_without_a_state(strategy) == (_symmetric_orbits(strategy, G) is not None), params


def test_pair_worst_case_matches_the_dense_construction():
    # example5's law is one orbit under pair permutations and slot swaps, so
    # eps-quant reports sqrt(eps_class) as the distance; the dense worst state
    # and its distance stay the oracle (their gap read up to 6.7e-16)
    for n in range(1, 5):
        group = pair_symmetry_group(n)
        for k in range(1, n + 1):
            strategy = make_strategy("example5", n=n, k=k)
            for delta in (0.1, 0.2, 0.3, 0.45, 0.6):
                ideal = ideal_distance(symmetric_worst_state(strategy, group, delta), strategy, delta)
                status, text = run(RunConfig("eps-quant", {"kind": "example5", "n": n, "k": k, "delta": delta}))
                result = json.loads(text)["result"]
                assert status == 0 and result["gap"] == 0.0
                assert abs(result["ideal_distance"] - ideal) <= 1e-12
                assert result["sqrt_eps_class"] == math.sqrt(eps_class_exact(strategy, delta).value)


def test_counted_worst_case_keeps_a_small_distance():
    # sqrt(eps_class) = 4.70e-11: 1 - (an inside weight in floats) reads 0 here
    strat = make_strategy("example1", n=1000, k=500)
    status, text = run(RunConfig("tightness", {"n": 1000, "k": 500, "delta": 0.3}))
    result = json.loads(text)["result"]
    assert status == 0 and result["tight"]
    assert result["ideal_distance"] == result["sqrt_eps_class"] == pytest.approx(4.70e-11, rel=1e-3)
    w = sum(eps_class_exact(strat, 0.3).worst_case_string.symbols)
    dicke = [0.0] * 1001
    dicke[w] = 1.0
    assert symmetric_ideal_distance(strat, dicke, 0.3) == result["ideal_distance"]


# ---------------------------------------------------------------------------
# basis-change covariance
# ---------------------------------------------------------------------------


def test_reference_frame_change_matches_direct_variant():
    # deviations measured against a reference string x in basis theta reduce
    # to the plain pipeline after undoing the basis change
    rng = np.random.default_rng(23)
    strat = make_strategy("example1", n=3, k=1)
    delta = 0.4
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    for _ in range(10):
        x_hat = tuple(int(b) for b in rng.integers(0, 2, size=3))
        theta = tuple(int(b) for b in rng.integers(0, 2, size=3))
        phi = random_pure_state((2, 2, 2, 2), rng)
        t = (int(rng.integers(1, 4)),)

        # direct variant: project onto span{H^theta |b xor x_hat> : b accepted}
        members = {st.symbols for st in accept_set(strat, t, None, delta)}
        proj = np.zeros((8, 8), dtype=complex)
        for b in members:
            vec = np.ones(1, dtype=complex)
            for i in range(3):
                col = np.eye(2)[:, b[i] ^ x_hat[i]].astype(complex)
                if theta[i]:
                    col = HADAMARD @ col
                vec = np.kron(vec, col)
            proj += np.outer(vec, vec.conj())
        full = np.kron(proj, np.eye(2))
        direct = float(np.vdot(phi.amps, full @ phi.amps).real)

        # pipeline variant: undo the basis change, then the standard projection
        undo = np.ones(1, dtype=complex)
        for i in range(3):
            gate = np.eye(2, dtype=complex)
            if theta[i]:
                gate = HADAMARD
            if x_hat[i]:
                gate = X @ gate
            undo = np.kron(undo, gate)
        shifted = PureState(np.kron(undo, np.eye(2)) @ phi.amps, phi.dims)
        sw = project_onto_accept(shifted, strat, t, None, delta)
        assert abs(sw.inside_weight - direct) < 1e-9
