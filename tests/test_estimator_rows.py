"""Property tests: the integer estimator rows against Fraction arithmetic.

The oracle below evaluates every built-in estimator the direct way, one
Fraction per (string, (t, s)), exactly as the package did before the rows
existed; a custom strategy's estimate comes from its own callable.  Deviations, accept masks, the (true value, estimate) table and the
exact worst-case error probability must all agree with it exactly, including
ties at delta and deltas whose denominators overflow int64 arithmetic.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qsample.qsampling import (
    PermutationGroup,
    _accept_masks,
    accept_set,
    is_g_symmetric,
    pair_symmetry_group,
    project_onto_accept,
    symmetric_group,
)
from qsample.quantum import random_pure_state
from qsample.sampling import (
    _table,
    complement,
    deviation,
    eps_class_exact,
    estimate,
    failure_probability,
    in_accept_set,
    custom_strategy,
    make_strategy,
    restrict,
)


# ---------------------------------------------------------------------------
# the Fraction oracle
# ---------------------------------------------------------------------------


def _weight(sym):
    return Fraction(sum(1 for x in sym if x != 0), len(sym)) if sym else Fraction(0)


def oracle_estimate(strategy, sym, t, s):
    n, kind = strategy.n, strategy.kind
    if kind == "custom":
        return Fraction(strategy.estimator(tuple(t), restrict(sym, t), s))
    if kind in ("example1", "example3"):
        return _weight(restrict(sym, t))
    if kind == "example2":
        return _weight(tuple(sym[j - 1] for j in s))
    if kind == "example4":
        return _weight(restrict(sym, s))
    if kind == "example5":
        tset = set(strategy.flatten_subset(t))
        chosen = {i: i if i in tset else i + n for i in range(1, n + 1)}
        return _weight(tuple(sym[chosen[i] - 1] for i in sorted(s)))
    if isinstance(s, tuple) and len(s) == 2 and all(isinstance(x, (tuple, list)) for x in s):
        s0, s1 = s
    else:
        s0, s1 = [x for x in s if x <= n], [x for x in s if x > n]
    size_tilde = sum(1 for x in strategy.flatten_subset(t) if x <= n)
    return ((n - size_tilde) * _weight(restrict(sym, s0)) + size_tilde * _weight(restrict(sym, s1))) / n


def oracle_true(strategy, sym, t):
    return _weight(restrict(sym, complement(strategy.flatten_subset(t), strategy.length)))


def oracle_deviation(strategy, sym, t, s):
    return abs(oracle_true(strategy, sym, t) - oracle_estimate(strategy, sym, t, s))


def oracle_candidates(strategy):
    L = strategy.length
    if strategy.permutation_invariant:
        return [tuple([0] * (L - w) + [1] * w) for w in range(L + 1)]
    if strategy.pattern_invariant:
        return [tuple(int(b) for b in format(r, f"0{L}b")) for r in range(2 ** L)]
    return [tuple(reversed(q)) for q in itertools.product(range(strategy.d), repeat=L)]


def oracle_eps(strategy, bound):
    """(worst failure probability, first maximizing candidate)."""
    best, witness = Fraction(-1), None
    for q in oracle_candidates(strategy):
        prob = sum(
            (p for t, s, p in strategy.ts_support() if oracle_deviation(strategy, q, t, s) >= bound),
            Fraction(0),
        )
        if prob > best:
            best, witness = prob, q
    return best, witness


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


# Custom estimators: constant, a weight (over all of t, or only its nonzero
# symbols' values), and one that reads the seed.
ESTIMATORS = [
    lambda t, qt, s: 0.0,
    lambda t, qt, s: Fraction(sum(1 for x in qt if x), len(qt)) if qt else 0,
    lambda t, qt, s: Fraction(sum(qt), 2 * len(qt) + 1),
    lambda t, qt, s: Fraction(s, 4) if qt and qt[0] else Fraction(1, 3),
]


def _custom(n, subsets, weights, estimator, d):
    total = sum(weights)
    support = [(t, i % 3, Fraction(w, total)) for i, (t, w) in enumerate(zip(subsets, weights))]
    return custom_strategy(n, support, estimator, d=d)


@st.composite
def small_strategies(draw):
    kind = draw(st.sampled_from(["example1", "example2", "example3", "example4", "example5", "example6", "custom"]))
    d = draw(st.sampled_from([2, 3]))
    if kind == "custom":  # n >= 3, so |tbar| >= 2 for the smaller subsets
        n = draw(st.integers(3, 4 if d == 2 else 3))
        subsets = draw(st.lists(st.sets(st.integers(1, n)).map(sorted), min_size=1, max_size=3))
        weights = draw(st.lists(st.integers(1, 3), min_size=len(subsets), max_size=len(subsets)))
        return _custom(n, subsets, weights, draw(st.sampled_from(ESTIMATORS)), d)
    pairs_max = 2 if d == 3 else 3  # at most 3^4 or 2^6 strings
    if kind == "example3":
        params = {"n": draw(st.integers(1, 4))}
    elif kind in ("example1", "example2", "example4"):
        n = draw(st.integers(1, 4))
        params = {"n": n, "k": draw(st.integers(1, n))}
    elif kind == "example5":
        n = draw(st.integers(1, pairs_max))
        params = {"n": n, "k": draw(st.integers(1, n))}
    else:
        n = draw(st.integers(1, pairs_max))
        params = {"n": n, "k": 2 * draw(st.integers(1, n)), "p": draw(st.sampled_from([0.3, 0.5]))}
    return make_strategy(kind, params, d=d)


DELTAS = st.one_of(
    st.sampled_from([0.1, 0.25, 0.3, 0.5, 0.15, Fraction(1, 3) + Fraction(1, 2 ** 50), Fraction(2 ** 61 - 1, 2 ** 62)]),
    st.fractions(min_value=Fraction(1, 12), max_value=Fraction(11, 12), max_denominator=12),
)


def _pairs(strategy):
    if strategy.kind == "example2":  # no enumerable support: a few drawn (t, s)
        return [strategy.sample_ts(np.random.default_rng(i)) for i in range(4)]
    return [(t, s) for t, s, _ in strategy.ts_support()]


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(strategy=small_strategies(), delta=DELTAS)
@example(strategy=make_strategy("example1", {"n": 3, "k": 3}), delta=0.5)
@example(strategy=make_strategy("example4", {"n": 2, "k": 2}, d=3), delta=Fraction(1, 3) + Fraction(1, 2 ** 50))
@example(strategy=make_strategy("example5", {"n": 2, "k": 2}), delta=Fraction(2 ** 61 - 1, 2 ** 62))
@example(strategy=make_strategy("example6", {"n": 2, "k": 2, "p": 0.3}, d=3), delta=0.25)
@example(strategy=_custom(3, [[1]], [1], ESTIMATORS[0], 2), delta=0.6)
@example(strategy=_custom(3, [[1], [2, 3]], [1, 2], ESTIMATORS[2], 3), delta=Fraction(1, 3))
def test_rows_match_fraction_oracle(strategy, delta):
    bound = delta if isinstance(delta, Fraction) else Fraction(repr(delta))
    pairs = _pairs(strategy)
    strings = list(itertools.product(range(strategy.d), repeat=strategy.length))
    devs = [[oracle_deviation(strategy, q, t, s) for t, s in pairs] for q in strings]

    for q, row in zip(strings, devs):
        assert [deviation(strategy, q, t, s) for t, s in pairs] == row
        assert [in_accept_set(strategy, q, t, s, delta) for t, s in pairs] == [dev < bound for dev in row]

    mask = _accept_masks(strategy, pairs, delta)
    assert mask.tolist() == [[dev < bound for dev in row] for row in devs]

    A, D, blocks = _table(strategy, pairs, lambda lo, hi: np.array(strings[lo:hi]), len(strings))
    T, E = (np.concatenate(parts) for parts in zip(*((T, E) for _, T, E in blocks)))
    for i, q in enumerate(strings):
        for j, (t, s) in enumerate(pairs):
            assert Fraction(int(T[i, j]), int(A[j])) == oracle_true(strategy, q, t)
            assert Fraction(E[i, j]) / int(D[j]) == oracle_estimate(strategy, q, t, s)

    if strategy.kind != "example2":
        value, witness = oracle_eps(strategy, bound)
        est = eps_class_exact(strategy, delta)
        assert est.value == float(value)
        assert est.worst_case_string.symbols == witness
        assert failure_probability(strategy, witness, delta) == value


# (t, s) whose estimate would read a symbol the strategy never observed: a
# seed outside t (outside its slot on example6), or an example5 pair outside
# 1..n, which once surfaced as a bare KeyError
OUTSIDE = {
    "example5-pair0": ("example5", {"n": 2, "k": 1}, (0, 1, 1, 0), (1, 2), (0,)),
    "example5-pair3": ("example5", {"n": 2, "k": 1}, (0, 1, 1, 0), (1, 2), (3,)),
    "example2": ("example2", {"n": 3, "k": 2}, (0, 1, 1), (1,), (2, 3)),
    "example4": ("example4", {"n": 4, "k": 2}, (0, 0, 1, 1), (1, 2), (3,)),
    "example6-slot": ("example6", {"n": 3, "k": 2, "p": 0.3}, (0, 0, 0, 1, 0, 0), (2, 3, 4), ((4,), ())),
    "example6-halves": ("example6", {"n": 3, "k": 2, "p": 0.3}, (0, 0, 0, 1, 0, 1), (2, 3, 4), ((2,), (6,))),
    "example6-flat": ("example6", {"n": 3, "k": 2, "p": 0.3}, (0, 0, 0, 1, 0, 1), (2, 3, 4), (2, 6)),
}


def _boundary_calls(strategy, q, t, s):
    """Every public call that takes a caller's (t, s)."""
    state = random_pure_state((strategy.d,) * strategy.length + (1,), np.random.default_rng(0))
    return [
        lambda: deviation(strategy, q, t, s),
        lambda: estimate(strategy, q, t, s),
        lambda: in_accept_set(strategy, q, t, s, 0.3),
        lambda: strategy.estimate_frac(q, t, s),
        lambda: accept_set(strategy, t, s, 0.3),
        lambda: project_onto_accept(state, strategy, t, s, 0.3),
    ]


@pytest.mark.parametrize("kind,params,q,t,s", OUTSIDE.values(), ids=OUTSIDE.keys())
def test_seed_outside_its_subset_raises_value_error(kind, params, q, t, s):
    strategy = make_strategy(kind, params)
    for call in _boundary_calls(strategy, q, t, s):
        with pytest.raises(ValueError, match="outside"):
            call()


# One strategy of every kind with a valid seed for the subsets below (of
# 1..4 on example1-4 and custom, and of pairs 1, 2 on example5 and example6).
KINDS = {
    "example1": (make_strategy("example1", n=4, k=2), None),
    "example2": (make_strategy("example2", n=4, k=2), (1, 1)),
    "example3": (make_strategy("example3", n=4), None),
    "example4": (make_strategy("example4", n=4, k=2), (1,)),
    "example5": (make_strategy("example5", n=2, k=1), (1,)),
    "example6": (make_strategy("example6", n=2, k=2, p=0.3), ((1,), ())),
    "custom": (custom_strategy(4, [((1, 2), None, 1)], lambda t, qt, s: 0.5), None),
}
# (t, the message) of a caller's subset that is refused, as the messages
# read before the checks moved to the boundary
BAD_SUBSETS = {
    "outside": ((1, 5), r"^subset \[1, 5\] outside string of length 4$"),
    "zero": ((0, 1), r"^subset \[0, 1\] outside string of length 4$"),
    "duplicate": ((1, 1), r"^duplicate position 1$"),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad", BAD_SUBSETS)
def test_every_kind_refuses_a_bad_subset_at_the_boundary(kind, bad):
    strategy, s = KINDS[kind]
    t, message = BAD_SUBSETS[bad]
    for call in _boundary_calls(strategy, (0, 1, 1, 0), t, s):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("t", [(1, 3), (2, 4), (1,), (1, 2, 3)])
def test_example5_subset_missing_a_pair_is_refused_at_the_boundary(t):
    strategy = make_strategy("example5", n=2, k=1)
    for call in _boundary_calls(strategy, (0, 1, 1, 0), t, (1,)):
        with pytest.raises(ValueError, match="^example5 subset must pick exactly one element per pair$"):
            call()


# ---------------------------------------------------------------------------
# orbit statistics: is_g_symmetric against the per-string loop
# ---------------------------------------------------------------------------


def oracle_is_g_symmetric(strategy, G, apply_permutation):
    """The per-string orbit loop: some (t0, s0) whose statistics over a
    uniformly random group image of q match the (T, S) statistics of q."""
    strings = list(itertools.product(range(strategy.d), repeat=strategy.length))

    def stat(q, t, s):
        return (oracle_true(strategy, q, t), oracle_estimate(strategy, q, t, s))

    ts_dists = {}
    for q in strings:
        dist = {}
        for t, s, prob in strategy.ts_support():
            key = stat(q, t, s)
            dist[key] = dist.get(key, Fraction(0)) + prob
        ts_dists[q] = dist
    for t0, s0, _ in strategy.ts_support():
        def matches(q):
            dist = {}
            for perm in G.elements:
                key = stat(apply_permutation(perm, q), t0, s0)
                dist[key] = dist.get(key, Fraction(0)) + Fraction(1, G.order)
            return dist == ts_dists[q]

        if all(matches(q) for q in strings):
            return True
    return False


def _cyclic(length):
    return PermutationGroup([tuple(range(2, length + 1)) + (1,)], length)


def _swap_first(length):
    return PermutationGroup([(2, 1) + tuple(range(3, length + 1))], length)


def _trivial(length):
    return PermutationGroup((), length)


@pytest.mark.parametrize(
    "kind,params,group",
    [
        ("example1", {"n": 3, "k": 1}, symmetric_group),
        ("example1", {"n": 4, "k": 2, "d": 3}, symmetric_group),
        ("example1", {"n": 4, "k": 2}, _cyclic),
        ("example1", {"n": 3, "k": 3}, _swap_first),
        ("example3", {"n": 3}, symmetric_group),
        ("example4", {"n": 3, "k": 2}, symmetric_group),
        ("example4", {"n": 3, "k": 1}, _cyclic),
        ("example5", {"n": 2, "k": 1}, lambda L: pair_symmetry_group(L // 2)),
        ("example5", {"n": 2, "k": 2}, _cyclic),
        ("example6", {"n": 2, "k": 2, "p": 0.3}, lambda L: pair_symmetry_group(L // 2)),
        ("example6", {"n": 2, "k": 2, "p": 0.5}, _swap_first),
        ("custom", {"n": 3, "subsets": [[1], [2], [3]], "weights": [1, 1, 1], "estimator": 1}, symmetric_group),
        ("custom", {"n": 3, "subsets": [[1], [2, 3]], "weights": [1, 2], "estimator": 3}, _swap_first),
        ("example3", {"n": 3, "d": 3}, symmetric_group),
        ("example3", {"n": 3, "d": 3}, _trivial),
        ("example4", {"n": 3, "k": 2, "d": 3}, symmetric_group),
        ("example4", {"n": 3, "k": 3, "d": 3}, _cyclic),
        ("example1", {"n": 3, "k": 3}, _trivial),
        ("example1", {"n": 3, "k": 2, "d": 3}, _trivial),
    ],
)
def test_orbit_statistics_match_fraction_oracle(kind, params, group, apply_permutation):
    if kind == "custom":  # the estimate is a Fraction from the callable, not an integer row
        strategy = _custom(**{**params, "estimator": ESTIMATORS[params["estimator"]], "d": 2})
    else:
        strategy = make_strategy(kind, params)
    G = group(strategy.length)
    assert is_g_symmetric(strategy, G) == oracle_is_g_symmetric(strategy, G, apply_permutation)


@st.composite
def strategies_and_groups(draw):
    """Kinds 1 and 3-6 on strings of length <= 6 (<= 4 when d = 3), with a
    group generated by some transpositions and possibly the L-cycle."""
    d = draw(st.sampled_from([2, 3]))
    max_length = 6 if d == 2 else 4
    kind = draw(st.sampled_from(["example1", "example3", "example4", "example5", "example6"]))
    n = draw(st.integers(1, max_length // 2 if kind in ("example5", "example6") else max_length))
    if kind == "example3":
        params = {"n": n}
    elif kind == "example6":
        params = {"n": n, "k": 2 * draw(st.integers(1, n)), "p": draw(st.sampled_from([0.3, 0.5]))}
    else:
        params = {"n": n, "k": draw(st.integers(1, n))}
    strategy = make_strategy(kind, params, d=d)
    L = strategy.length
    transpositions = [
        tuple(j if x == i else i if x == j else x for x in range(1, L + 1))
        for i, j in itertools.combinations(range(1, L + 1), 2)
    ]
    cycle = tuple(range(2, L + 1)) + (1,)
    generators = draw(st.lists(st.sampled_from(transpositions + [cycle]), max_size=3))
    return strategy, PermutationGroup(generators, L)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=strategies_and_groups())
def test_symmetry_verdict_matches_oracle(case, apply_permutation):
    strategy, G = case
    assert is_g_symmetric(strategy, G) == oracle_is_g_symmetric(strategy, G, apply_permutation)
