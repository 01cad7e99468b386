"""Tests for classical sampling strategies and error probabilities.

The exact error probabilities are checked against an independent brute-force
oracle that re-derives each strategy's (t, s) law from its definition and
maximizes over all strings in plain float arithmetic.
"""

import dataclasses
import itertools
import json
import math
import re
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from qsample.sampling import (
    BudgetExceededError,
    ErrorEstimate,
    SamplingStrategy,
    SymbolString,
    SubsetIndex,
    analytic_bound,
    complement,
    custom_strategy,
    deviation,
    eps_class_exact,
    eps_class_mc,
    error_estimate_to_json,
    estimate,
    failure_probability,
    in_accept_set,
    make_strategy,
    mc_halfwidth,
    make_strategy as mk,
    pair_position,
    rel_weight,
    restrict,
)

# ---------------------------------------------------------------------------
# independent oracle: (t, s) laws from the definitions, float arithmetic
# ---------------------------------------------------------------------------


def _w(bits):
    return sum(1 for b in bits if b != 0) / len(bits) if bits else 0.0


def _oracle_support(kind, n, k=None, p=None):
    """Yield (observed positions, estimator closure, probability)."""
    if kind == "example1":
        for t in itertools.combinations(range(1, n + 1), k):
            yield t, (lambda q, t=t: _w([q[i - 1] for i in t])), 1 / math.comb(n, k)
    elif kind == "example3":
        for r in range(2 ** n):
            t = tuple(i + 1 for i in range(n) if (r >> i) & 1)
            yield t, (lambda q, t=t: _w([q[i - 1] for i in t])), 1 / 2 ** n
    elif kind == "example4":
        for t in itertools.combinations(range(1, n + 1), k):
            for m in range(2 ** k):
                s = tuple(t[i] for i in range(k) if (m >> i) & 1)
                yield t, (lambda q, s=s: _w([q[i - 1] for i in s])), 1 / (
                    math.comb(n, k) * 2 ** k
                )
    elif kind == "example5":
        # universe is n pairs; element (i, j) sits at flat position i + j*n
        for sel in itertools.product((0, 1), repeat=n):
            t = tuple(i + 1 + n * sel[i] for i in range(n))
            for s in itertools.combinations(range(1, n + 1), k):

                def f(q, t=t, s=s, n=n):
                    return _w([q[t[i - 1] - 1] for i in s])

                yield tuple(sorted(t)), f, 1 / (2 ** n * math.comb(n, k))
    elif kind == "example6":
        half = k // 2
        for r in range(2 ** n):
            tilde = [i + 1 for i in range(n) if (r >> i) & 1]
            rest = [i + 1 for i in range(n) if not (r >> i) & 1]
            t0 = tuple(tilde)
            t1 = tuple(i + n for i in rest)
            pt = p ** len(tilde) * (1 - p) ** len(rest)
            z0, z1 = min(half, len(t0)), min(half, len(t1))
            ps = 1 / (math.comb(len(t0), z0) * math.comb(len(t1), z1))
            for s0 in itertools.combinations(t0, z0):
                for s1 in itertools.combinations(t1, z1):

                    def f(q, s0=s0, s1=s1, a=len(tilde), n=n):
                        return ((n - a) * _w([q[i - 1] for i in s0])
                                + a * _w([q[i - 1] for i in s1])) / n

                    yield tuple(sorted(t0 + t1)), f, pt * ps
    else:
        raise ValueError(kind)


def oracle_eps(kind, n, delta, k=None, p=None):
    """max_q Pr[|w(q restricted to the complement) - f| >= delta], brute force."""
    L = 2 * n if kind in ("example5", "example6") else n
    support = list(_oracle_support(kind, n, k=k, p=p))
    assert abs(sum(pr for (_, _, pr) in support) - 1.0) < 1e-9
    worst = 0.0
    for q in itertools.product((0, 1), repeat=L):
        fail = 0.0
        for t, f, pr in support:
            rest = [q[i - 1] for i in range(1, L + 1) if i not in t]
            if abs(_w(rest) - f(q)) >= delta - 1e-12:
                fail += pr
        worst = max(worst, fail)
    return worst


# deltas chosen away from any achievable deviation, so float ties cannot occur
ORACLE_CASES = [
    ("example1", dict(n=4, k=2), 0.37),
    ("example1", dict(n=5, k=2), 0.24),
    ("example3", dict(n=4), 0.37),
    ("example3", dict(n=3), 0.52),
    ("example4", dict(n=4, k=2), 0.37),
    ("example5", dict(n=3, k=2), 0.37),
    ("example6", dict(n=3, k=2, p=0.5), 0.37),
    ("example6", dict(n=2, k=2, p=0.3), 0.44),
]


@pytest.mark.parametrize("kind,params,delta", ORACLE_CASES)
def test_eps_class_exact_matches_oracle(kind, params, delta):
    est = eps_class_exact(make_strategy(kind, params), delta)
    expected = oracle_eps(kind, params["n"], delta, k=params.get("k"), p=params.get("p"))
    assert est.mode == "exact"
    assert abs(est.value - expected) < 1e-12


@pytest.mark.parametrize("kind,params,delta", ORACLE_CASES)
def test_witness_attains_the_maximum(kind, params, delta):
    strat = make_strategy(kind, params)
    est = eps_class_exact(strat, delta)
    attained = failure_probability(strat, est.worst_case_string, delta)
    assert abs(float(attained) - est.value) < 1e-15


def test_example1_small_case_both_subsets_fail():
    est = eps_class_exact(make_strategy("example1", n=2, k=1), 0.6)
    assert est.value == 1.0
    assert est.worst_case_string.symbols == (0, 1)


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------


def test_rel_weight_counts_nonzero_fraction():
    assert rel_weight((0, 1, 0, 1)) == 0.5
    assert rel_weight((0, 0, 0)) == 0.0
    assert rel_weight(()) == 0.0
    assert rel_weight((0, 2, 1)) == pytest.approx(2 / 3)  # any non-zero symbol counts


def test_restrict_uses_one_based_positions():
    assert restrict((0, 1, 0, 1), {2, 4}) == (1, 1)
    assert restrict((0, 1, 0, 1), ()) == ()
    with pytest.raises(ValueError):
        restrict((0, 1), (3,))


def test_complement_positions():
    assert complement((1, 3), 4) == (2, 4)
    assert complement((), 3) == (1, 2, 3)


def test_subset_index_validates():
    si = SubsetIndex((1, 3), 4)
    assert si.complement().positions == (2, 4)
    with pytest.raises(ValueError):
        SubsetIndex((3, 1), 4)
    with pytest.raises(ValueError):
        SubsetIndex((1, 5), 4)


def test_symbol_string_validates_alphabet():
    SymbolString((0, 2), d=3)
    with pytest.raises(ValueError):
        SymbolString((0, 2), d=2)
    with pytest.raises(ValueError):
        SymbolString((0,), d=1)


def test_pair_flattening_round_trips():
    assert pair_position(1, 0, 2) == 1
    assert pair_position(2, 1, 2) == 4
    for pos in range(1, 7):
        assert pair_position((pos - 1) % 3 + 1, (pos - 1) // 3, 3) == pos


def test_estimate_example1_is_sample_weight():
    strat = make_strategy("example1", n=4, k=2)
    assert estimate(strat, (1, 1, 0, 0), (1, 2)) == 1.0
    assert estimate(strat, (1, 1, 0, 0), (3, 4)) == 0.0


def test_estimate_example4_uses_only_the_seed_part():
    strat = make_strategy("example4", n=4, k=2)
    assert estimate(strat, (1, 0, 1, 1), (1, 2), (1,)) == 1.0
    assert estimate(strat, (1, 0, 1, 1), (1, 2), ()) == 0.0


def test_estimate_example5_accepts_pair_labels():
    strat = make_strategy("example5", n=2, k=1)
    q = (1, 0, 0, 1)
    # t picks (1, 0) and (2, 1); seed observes pair 1 only
    assert estimate(strat, q, [(1, 0), (2, 1)], (1,)) == 1.0
    assert estimate(strat, q, (1, 4), (2,)) == 1.0
    with pytest.raises(ValueError):
        estimate(strat, q, (1, 3), (1,))  # both elements of pair 1


def test_in_accept_set_is_strict_at_delta():
    strat = make_strategy("example3", n=2)
    q = (0, 1)
    # empty subset: estimate 0, remaining weight 1/2, deviation exactly 1/2
    assert deviation(strat, q, ()) == 0.5
    assert not in_accept_set(strat, q, (), None, 0.5)
    assert in_accept_set(strat, q, (), None, 0.5 + 1e-9)


def test_tie_follows_the_decimal_delta():
    # t = (2,) sees a 0 while the rest holds one 1 in ten: deviation exactly 1/10
    strat = make_strategy("example1", n=11, k=1)
    q = (1,) + (0,) * 10
    assert deviation(strat, q, (2,)) == Fraction(1, 10)
    assert not in_accept_set(strat, q, (2,), None, 0.1)
    assert failure_probability(strat, q, 0.1) == 1


def test_example6_reads_p_as_written():
    # |t~| = a, the number of slot-0 positions in t, is Binomial(3, p) with
    # p = 3/10 exactly, not the binary float nearest 0.3
    strat = make_strategy("example6", n=3, k=2, p=0.3)
    by_size = {}
    for t, _, pr in strat.ts_support():
        a = sum(1 for i in t if i <= 3)
        by_size[a] = by_size.get(a, 0) + pr
    p = Fraction(3, 10)
    assert by_size == {a: math.comb(3, a) * p ** a * (1 - p) ** (3 - a) for a in range(4)}


def test_estimate_rejects_wrong_length():
    strat = make_strategy("example1", n=3, k=1)
    with pytest.raises(ValueError):
        estimate(strat, (0, 1), (1,))


@pytest.mark.parametrize("q,bad", [((0, 1, 2), 2), ((0, -1, 1), -1), (SymbolString((2, 0, 1), d=3), 2)])
@pytest.mark.parametrize("call", [
    lambda s, q: deviation(s, q, (1, 2)),
    lambda s, q: s.estimate_frac(q, (1, 2), None),
    lambda s, q: failure_probability(s, q, 0.2),
    lambda s, q: eps_class_mc(s, q, 0.2, 5),
], ids=["deviation", "estimate_frac", "failure_probability", "eps_class_mc"])
def test_strategy_calls_reject_symbols_outside_the_alphabet(call, q, bad):
    # a d = 2 strategy must not read 2 as a nonzero symbol (deviation would give 1/2)
    with pytest.raises(ValueError, match=rf"symbol {bad} outside alphabet \[0, 2\)"):
        call(make_strategy("example1", n=3, k=2), q)
    assert call(make_strategy("example1", n=3, k=2, d=3), (0, 1, 2)) is not None


@pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint8, bool])
def test_array_strings_are_checked_like_tuples(dtype):
    # an ndarray q is checked with numpy, not turned into a tuple and back
    strat = make_strategy("example6", n=6, k=2, p=0.3)
    q = (0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 1)
    for call in (lambda s, q: eps_class_mc(s, q, 0.2, 50, rng_seed=4), lambda s, q: failure_probability(s, q, 0.2)):
        assert call(strat, np.array(q, dtype=dtype)) == call(strat, q)
    if dtype is not bool:
        small = make_strategy("example1", n=3, k=2)
        for q, bad in (((0, 1, 2), 2), ((0, 3, 2), 3)):
            with pytest.raises(ValueError, match=rf"^symbol {bad} outside alphabet \[0, 2\)$"):
                eps_class_mc(small, np.array(q, dtype=dtype), 0.2, 5)
    with pytest.raises(ValueError, match=r"^string length 2 != strategy length 12$"):
        eps_class_mc(strat, np.array((0, 1), dtype=dtype), 0.2, 5)


def test_negative_array_symbol_is_named():
    with pytest.raises(ValueError, match=r"^symbol -1 outside alphabet \[0, 2\)$"):
        eps_class_mc(make_strategy("example1", n=3, k=2), np.array([0, -1, 1]), 0.2, 5)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def test_make_strategy_rejects_bad_parameters():
    with pytest.raises(ValueError, match="kind"):
        make_strategy("example9", n=3)
    with pytest.raises(ValueError, match="k <= n"):
        make_strategy("example1", n=3, k=4)
    with pytest.raises(ValueError, match="requires parameter n"):
        make_strategy("example1", k=1)
    with pytest.raises(ValueError, match="no sample size"):
        make_strategy("example3", n=3, k=1)
    with pytest.raises(ValueError, match="0 < p < 1"):
        make_strategy("example6", n=3, k=2, p=1.0)
    with pytest.raises(ValueError, match="even"):
        make_strategy("example6", n=3, k=3, p=0.5)
    with pytest.raises(ValueError, match="requires the selection bias"):
        make_strategy("example6", n=3, k=2)
    # int() once truncated these: n = 5.9 ran as n = 5
    with pytest.raises(ValueError, match=r"^n must be an integer, got 5\.9$"):
        make_strategy("example1", n=5.9, k=2)
    with pytest.raises(ValueError, match=r"^d must be an integer, got 2\.7$"):
        make_strategy("example1", n=5, k=2, d=2.7)


@pytest.mark.parametrize("kind", ["example1", "example2", "example3", "example4", "example5"])
def test_make_strategy_refuses_a_selection_bias_outside_example6(kind):
    # only example6 draws with a bias; p was once kept and echoed, unused
    params = {"n": 4} if kind == "example3" else {"n": 4, "k": 2}
    with pytest.raises(ValueError, match=f"^{kind} takes no selection bias p$"):
        make_strategy(kind, params, p=0.3)
    make_strategy(kind, params, p=None)


def _zero(t, qt, s):
    return 0.0


@pytest.mark.parametrize(
    "kind, params",
    [
        ("example9", dict(n=3)),
        ("example1", dict(k=1)),
        ("example1", dict(n=0, k=1)),
        ("example1", dict(n=3, k=1, d=1)),
        ("example1", dict(n=3, k=1, p=0.3)),
        ("example3", dict(n=3, k=1)),
        ("example4", dict(n=3)),
        ("example2", dict(n=3, k=0)),
        ("example5", dict(n=3, k=4)),
        ("example6", dict(n=3, k=2)),
        ("example6", dict(n=3, k=2, p=1.0)),
        ("example6", dict(n=3, k=3, p=0.5)),
        ("example6", dict(n=3, k=8, p=0.5)),
        ("custom", dict(n=3, table=[((1,), None, 0.5)])),
        ("custom", dict(n=3, table=[((1,), None, -1), ((2,), None, 2)])),
        ("custom", dict(n=2, table=[((5,), None, 1)])),
        # int() once truncated a non-integral n, k or d
        ("example1", dict(n=5.9, k=2)),
        ("example1", dict(n=5, k=2.5)),
        ("example1", dict(n=5, k=2, d=2.7)),
        ("example6", dict(n=np.float64(3.5), k=2, p=0.5)),
    ],
)
def test_direct_construction_refuses_what_the_constructors_refuse(kind, params):
    # the constructor was once unchecked: example6 without p ran on fair coins
    if kind == "custom":
        build, params = partial(custom_strategy, params["n"], params["table"], _zero), dict(params, estimator=_zero)
    else:
        build = partial(make_strategy, kind, params)
    with pytest.raises(ValueError) as refused:
        build()
    with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
        SamplingStrategy(kind, **params)


@pytest.mark.parametrize("subset, shown", [((5,), "5"), ((0,), "0"), ((1, 3), "1, 3")])
def test_custom_subsets_are_checked_on_construction(subset, shown):
    # a subset outside the string was once refused only on first use
    with pytest.raises(ValueError, match=rf"^subset \[{shown}\] outside string of length 2$"):
        custom_strategy(2, [(subset, None, 1)], _zero)


@pytest.mark.parametrize(
    "kind, extra, message",
    [
        ("example1", dict(estimator=_zero), "example1 takes no estimator, table or pattern_invariant=False"),
        ("example1", dict(table=[((1,), None, 1)]), "example1 takes no estimator, table or pattern_invariant=False"),
        ("example1", dict(pattern_invariant=False), "example1 takes no estimator, table or pattern_invariant=False"),
        ("custom", dict(estimator=_zero), "a custom strategy needs a (t, s, probability) table and an estimator"),
        ("custom", dict(table=[((1,), None, 1)]), "a custom strategy needs a (t, s, probability) table and an estimator"),
        ("custom", dict(estimator=_zero, table=[((1,), None, 1)], k=1), "custom takes no sample size k"),
    ],
)
def test_a_strategy_is_either_built_in_or_custom(kind, extra, message):
    params = dict(k=2) if kind == "example1" else {}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SamplingStrategy(kind, 4, **params, **extra)


@pytest.mark.parametrize("cache", ["_support", "_support_rows", "_draw_p"])
def test_derived_tables_are_not_constructor_arguments(cache):
    # a given support once replaced the law: failure_probability read 1 for 1/3
    with pytest.raises(TypeError, match=cache):
        SamplingStrategy("example1", 4, k=2, **{cache: [((1, 2), None, Fraction(1))]})


@pytest.mark.parametrize("name,value", [("k", 2), ("k", 9), ("n", 3), ("kind", "example3"), ("_support", None)])
def test_a_strategy_cannot_be_reassigned(name, value):
    # an assignment once kept the support of the old definition: with k = 2
    # assigned after ts_support(), failure_probability read 1 where a fresh
    # k = 2 strategy reads 2/5, and k = 9 on n = 5 was kept with no support
    strat = make_strategy("example1", n=5, k=1)
    strat.ts_support()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(strat, name, value)
    assert strat.k == 1 and strat.support_size() == 5
    assert failure_probability(strat, (1, 1, 0, 0, 0), 0.3) == failure_probability(mk("example1", n=5, k=1), (1, 1, 0, 0, 0), 0.3)
    assert failure_probability(mk("example1", n=5, k=2), (1, 1, 0, 0, 0), 0.3) == Fraction(2, 5)


def test_direct_construction_normalises_the_parameters():
    strat = SamplingStrategy("example6", np.int64(3), k=np.int64(2), p=np.float32(0.25), d=np.int8(3))
    assert [type(x) for x in (strat.n, strat.k, strat.p, strat.d)] == [int, int, float, int]
    assert strat == make_strategy("example6", n=3, k=2, p=0.25, d=3)


def test_direct_construction_of_a_custom_strategy_defaults_as_custom_strategy_does():
    # the estimate reads the symbol 2, so only the d^n strings see q = 211
    # fail; a direct construction once declared pattern invariance by default
    def estimator(t, qt, s):
        return Fraction(0) if qt[0] == 2 else Fraction(1, 2)

    table = [((1,), None, Fraction(1))]
    strat = SamplingStrategy("custom", 3, d=3, estimator=estimator, table=table)
    assert strat == custom_strategy(3, table, estimator, d=3) and strat.pattern_invariant is False
    assert eps_class_exact(strat, 0.6).value == 1.0
    assert eps_class_exact(custom_strategy(3, table, estimator, d=3, pattern_invariant=True), 0.6).value == 0.0


def test_support_probabilities_sum_to_one():
    for kind, params in [
        ("example1", dict(n=5, k=2)),
        ("example3", dict(n=4)),
        ("example4", dict(n=4, k=2)),
        ("example5", dict(n=3, k=1)),
        ("example6", dict(n=3, k=2, p=0.3)),
    ]:
        strat = make_strategy(kind, params)
        support = strat.ts_support()
        assert sum(pr for (_, _, pr) in support) == 1
        assert len(support) == strat.support_size()


def test_example5_subsets_pick_one_element_per_pair():
    strat = make_strategy("example5", n=3, k=2)
    for t, _, _ in strat.ts_support():
        marks = [0] * 3
        for pos in t:
            marks[(pos - 1) % 3] += 1
        assert marks == [1, 1, 1]


def test_example2_sample_seed_carries_draw_order():
    strat = make_strategy("example2", n=5, k=3)
    rng = np.random.default_rng(7)
    t, s = strat.sample_ts(rng)
    assert len(s) == 3
    assert set(t) == set(s)
    assert all(1 <= x <= 5 for x in s)
    # the estimate averages over the multiset of draws, repeats included; t
    # is the set of the draws, since an estimate reads only positions in t
    q = (1, 0, 0, 0, 0)
    assert estimate(strat, q, (1, 2), (1, 1, 2)) == pytest.approx(2 / 3)


def test_example2_refuses_exact_error_probability():
    with pytest.raises(NotImplementedError, match="replacement"):
        eps_class_exact(make_strategy("example2", n=4, k=2), 0.3)


@pytest.mark.parametrize(
    "kind,params",
    [
        ("example1", dict(n=4, k=2)),
        ("example2", dict(n=4, k=2)),
        ("example3", dict(n=4)),
        ("example4", dict(n=4, k=2)),
        ("example5", dict(n=2, k=1)),
        ("example6", dict(n=2, k=2, p=0.3)),
    ],
)
@pytest.mark.parametrize("bad", ["zero", "past-end"])
def test_out_of_range_position_in_t_raises(kind, params, bad):
    strat = make_strategy(kind, params)
    t, s = strat.sample_ts(np.random.default_rng(3))
    t = strat.flatten_subset(t)
    L = strat.length
    t = (0,) + t[1:] if bad == "zero" else t[:-1] + (L + 1,)
    q = (0, 1) * (L // 2) + (1,) * (L % 2)
    with pytest.raises(ValueError, match="outside string"):
        deviation(strat, q, t, s)


def test_custom_strategy_round_trip():
    # observe position 1 only, estimate the rest by it
    strat = custom_strategy(
        3,
        [((1,), None, 1)],
        lambda t, qt, s: 1.0 if qt[0] else 0.0,
    )
    est = eps_class_exact(strat, 0.4)
    # q = (0, 1, 1) or (1, 0, 0) always deviates by 1
    assert est.value == 1.0
    with pytest.raises(ValueError, match="sum to 1"):
        custom_strategy(3, [((1,), None, 0.5)], lambda t, qt, s: 0.0)


def test_custom_strategy_deviation_is_not_scaled_by_tbar():
    # t = (1,) leaves tbar = {2, 3}: q = 010 deviates from the estimate 0 by 1/2
    strat = custom_strategy(3, [((1,), None, 1)], lambda t, qt, s: 0.0)
    assert deviation(strat, (0, 1, 0), (1,)) == Fraction(1, 2)
    assert failure_probability(strat, (0, 1, 0), 0.6) == 0
    assert failure_probability(strat, (0, 1, 0), 0.5) == 1
    assert eps_class_exact(strat, 0.6).worst_case_string.symbols == (0, 1, 1)


def test_strategy_equality_does_not_read_the_support_cache():
    a, b = make_strategy("example1", n=3, k=1), make_strategy("example1", n=3, k=1)
    assert a == b
    a.ts_support()
    assert a == b and b == a
    b.ts_support()
    assert a == b
    assert a != make_strategy("example1", n=3, k=2)
    assert make_strategy("example6", n=3, k=2, p=0.25) != make_strategy("example6", n=3, k=2, p=0.5)
    assert make_strategy("example4", n=3, k=2, d=3) != make_strategy("example4", n=3, k=2)


def test_custom_strategies_compare_by_table_and_estimator():
    def first(t, qt, s):
        return 1.0 if qt[0] else 0.0

    halves = [((1,), None, Fraction(1, 2)), ((2,), None, Fraction(1, 2))]
    strat = custom_strategy(3, halves, first)
    assert strat == custom_strategy(3, halves, first)
    assert strat != custom_strategy(3, [((1,), None, 1)], first)
    assert strat != custom_strategy(3, halves, lambda t, qt, s: 0.0)
    assert strat != custom_strategy(3, halves, first, pattern_invariant=True)


# ---------------------------------------------------------------------------
# budget handling
# ---------------------------------------------------------------------------


def test_budget_env_var_is_read_at_call_time(monkeypatch):
    strat = make_strategy("example3", n=6)
    monkeypatch.setenv("QSAMPLE_BUDGET", "10")
    with pytest.raises(BudgetExceededError):
        eps_class_exact(strat, 0.3)
    monkeypatch.setenv("QSAMPLE_BUDGET", "100000")
    assert eps_class_exact(strat, 0.3).value > 0
    monkeypatch.setenv("QSAMPLE_BUDGET", "bogus")
    with pytest.raises(ValueError):
        eps_class_exact(strat, 0.3)


# ---------------------------------------------------------------------------
# Monte-Carlo
# ---------------------------------------------------------------------------


def test_mc_is_deterministic_in_the_seed():
    strat = make_strategy("example1", n=6, k=2)
    q = (1, 1, 0, 0, 0, 0)
    a = eps_class_mc(strat, q, 0.3, trials=200, rng_seed=5)
    b = eps_class_mc(strat, q, 0.3, trials=200, rng_seed=5)
    assert a.value == b.value
    assert a.mode == "monte-carlo"
    assert a.trials == 200
    assert a.confidence_halfwidth == pytest.approx(mc_halfwidth(200))


def test_mc_converges_to_the_exact_failure_probability():
    strat = make_strategy("example1", n=6, k=3)
    q = (1, 1, 1, 0, 0, 0)
    exact = float(failure_probability(strat, q, 0.26))
    hw = mc_halfwidth(1000)
    hits = sum(
        abs(eps_class_mc(strat, q, 0.26, trials=1000, rng_seed=seed).value - exact) <= hw
        for seed in range(10)
    )
    assert hits >= 9


def test_mc_covers_strategies_without_exact_support():
    strat = make_strategy("example2", n=5, k=3)
    est = eps_class_mc(strat, (1, 1, 0, 0, 0), 0.3, trials=300, rng_seed=1)
    assert 0.0 <= est.value <= 1.0


@pytest.mark.parametrize("kind,params", [
    ("example5", dict(n=4, k=2)),
    ("example6", dict(n=4, k=2, p=0.4)),
])
def test_sampled_pairs_lie_in_the_support(kind, params):
    strat = make_strategy(kind, params)
    support = {(t, _freeze(s)) for (t, s, _) in strat.ts_support()}
    rng = np.random.default_rng(3)
    for _ in range(50):
        t, s = strat.sample_ts(rng)
        assert (tuple(t), _freeze(s)) in support


def _freeze(s):
    if s is None:
        return None
    if isinstance(s, tuple) and s and isinstance(s[0], tuple):
        return tuple(tuple(x) for x in s)
    return tuple(s)


# ---------------------------------------------------------------------------
# analytic bounds
# ---------------------------------------------------------------------------


def test_bound_formulas():
    d = 0.2
    assert analytic_bound("hoeffding", dict(k=10), d) == pytest.approx(
        2 * math.exp(-2 * d * d * 10)
    )
    assert analytic_bound("serfling", dict(n=20, k=10), d) == pytest.approx(
        2 * math.exp(-2 * d * d * 10 * 20 / 11)
    )
    assert analytic_bound("example1-general", dict(n=20, k=5), d) == pytest.approx(
        2 * math.exp(-2 * (0.75 ** 2) * d * d * 5)
    )
    assert analytic_bound("example1-simple", dict(n=20, k=10), d) == pytest.approx(
        2 * math.exp(-d * d * 10 / 2)
    )
    assert analytic_bound("example1-serfling", dict(n=20, k=10), d) == pytest.approx(
        2 * math.exp(-d * d * 10 * 20 / 22)
    )
    assert analytic_bound("example3", dict(n=40), d) == pytest.approx(
        4 * math.exp(-40 * d * d / 32)
    )
    assert analytic_bound("example4", dict(n=40, k=20), d) == pytest.approx(
        6 * math.exp(-20 * d * d / 50)
    )
    assert analytic_bound("example5", dict(k=30), d) == pytest.approx(
        2 * math.exp(-d * d * 30 / 6)
    )


def test_example6_bound_terms_and_grid():
    params = dict(n=50, k=10, p=0.5)
    explicit = analytic_bound("example6", dict(params, eps=0.1, beta=0.2), 0.3)
    expected = (
        2 * math.exp(-2 * 50 * 0.01 * (0.3 ** 2) * 0.3)
        + 2 * math.exp(-2 * 50 * 0.01 * (0.3 ** 2) * 0.3)
        + 4 * math.exp(-10 * (0.2 ** 2))
        + 2 * math.exp(-2 * (0.2 ** 2) * 50)
    )
    assert explicit == pytest.approx(expected)
    # grid search does at least as well as any admissible explicit choice
    assert analytic_bound("example6", params, 0.3) <= explicit + 1e-12


def test_bound_side_conditions():
    with pytest.raises(ValueError, match="k <= n/2"):
        analytic_bound("example1-simple", dict(n=10, k=6), 0.1)
    with pytest.raises(ValueError, match="k <= n/2"):
        analytic_bound("example4", dict(n=10, k=6), 0.1)
    with pytest.raises(ValueError, match="1 <= k <= n"):
        analytic_bound("serfling", dict(n=5, k=6), 0.1)
    with pytest.raises(ValueError, match="beta"):
        analytic_bound("example6", dict(n=10, k=4, p=0.5, eps=0.05, beta=0.7), 0.1)
    with pytest.raises(ValueError, match="eps"):
        analytic_bound("example6", dict(n=10, k=4, p=0.5, eps=0.2, beta=0.1), 0.1)
    with pytest.raises(ValueError, match="unknown bound kind"):
        analytic_bound("nope", dict(), 0.1)


def test_bounds_above_one_are_returned_as_is():
    assert analytic_bound("hoeffding", dict(k=5), 0.01) > 1.0
    assert analytic_bound("example3", dict(n=5), 0.01) > 3.9


def test_serfling_improves_on_hoeffding():
    for n in (5, 10, 20):
        for k in range(1, n + 1):
            for d in (0.1, 0.3):
                assert analytic_bound("serfling", dict(n=n, k=k), d) <= analytic_bound(
                    "hoeffding", dict(k=k), d
                ) + 1e-15


def test_eps_class_stays_below_its_bounds():
    # direct check on small exactly-solvable cases; the example1-* kinds use
    # the remaining-part reference and so apply to the accept-set error
    for n, k in [(6, 2), (8, 3)]:
        strat = make_strategy("example1", n=n, k=k)
        for d in (0.25, 0.35, 0.45):
            eps = eps_class_exact(strat, d).value
            assert eps <= analytic_bound("example1-general", dict(n=n, k=k), d) + 1e-12
            assert eps <= analytic_bound("example1-simple", dict(n=n, k=k), d) + 1e-12
            assert eps <= analytic_bound("example1-serfling", dict(n=n, k=k), d) + 1e-12
    for n in (6, 8):
        strat = make_strategy("example3", n=n)
        for d in (0.25, 0.45):
            eps = eps_class_exact(strat, d).value
            assert eps <= analytic_bound("example3", dict(n=n), d) + 1e-12
    strat = make_strategy("example4", n=8, k=3)
    for d in (0.25, 0.45):
        eps = eps_class_exact(strat, d).value
        assert eps <= analytic_bound("example4", dict(n=8, k=3), d) + 1e-12


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_error_estimate_json_includes_witness():
    est = eps_class_exact(make_strategy("example1", n=2, k=1), 0.6)
    obj = json.loads(error_estimate_to_json(est))
    assert obj["value"] == 1.0
    assert obj["mode"] == "exact"
    assert obj["worst_case_string"]["symbols"] == [0, 1]


def test_error_estimate_validates_mode():
    with pytest.raises(ValueError):
        ErrorEstimate(value=0.5, mode="guess")
