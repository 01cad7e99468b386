"""Exact eps_class of example5, counted over pair classes.

Example5's law is invariant under permuting pairs and swapping the slots of
a pair, so ``eps_class_exact`` sums one failure probability per class (a, b)
of strings with a pairs 11 and b pairs mixed, instead of deciding every
(string, (t, s)) cell.  The oracle at n <= 6 is the enumerating path it
replaced, ``_eps_class_enumerated``; past n = 31 (strings of 64 positions
and more, beyond int64 candidate indices) the class values come from a
Fraction sum over the hypergeometric law and the witness from a greedy
least-string search over the pair patterns.
"""

import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qsample.sampling as sampling
from qsample.sampling import BudgetExceededError, _exact_delta, analytic_bound, eps_class_exact, make_strategy

DELTAS = [0.1, 0.15, 1 / 3, Fraction(1, 3), 0.35, 0.5]


def enumerated(strategy, delta):
    """(max Pr[fail], first maximizing string) from every table cell."""
    value, index = sampling._eps_class_enumerated(strategy, _exact_delta(delta))
    return value, tuple(sampling._candidates(strategy, index, index + 1)[0].tolist())


def test_every_small_case_matches_the_enumeration():
    # a tie at delta = 1/3 needs the threshold rounded up exactly
    for n in range(1, 7):
        for k in range(1, n + 1):
            strategy = make_strategy("example5", n=n, k=k)
            assert sampling._eps_class_pairs(strategy, Fraction(1, 3)) == enumerated(strategy, Fraction(1, 3))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(1, 6),
    k_share=st.floats(0, 1),
    d=st.sampled_from([2, 3]),
    delta=st.sampled_from(DELTAS),
)
@example(n=6, k_share=0.5, d=3, delta=0.15)
@example(n=5, k_share=1, d=2, delta=0.35)
def test_counted_example5_equals_the_enumeration(n, k_share, d, delta):
    strategy = make_strategy("example5", n=n, k=max(1, round(k_share * n)), d=d)
    value, witness = enumerated(strategy, delta)
    assert sampling._eps_class_pairs(strategy, _exact_delta(delta)) == (value, witness)
    est = eps_class_exact(strategy, delta)
    assert est.value == float(value)
    assert est.worst_case_string.symbols == witness and est.worst_case_string.d == d


def class_failure(n, k, a, b, delta):
    """Pr[fail | a, b] as a Fraction sum: j ~ Bin(b, 1/2) mixed pairs show
    their 1, X ~ Hyp(n, a + j, k) picked ones are sampled, and the trial
    fails when |(a + b - j) / n - X / k| >= delta."""
    total = Fraction(0)
    for j in range(b + 1):
        u, v = a + j, a + b - j
        for x in range(max(0, k - n + u), min(u, k) + 1):
            if abs(Fraction(v, n) - Fraction(x, k)) >= delta:
                total += Fraction(math.comb(b, j) * math.comb(u, x) * math.comb(n - u, k - x), 2 ** b * math.comb(n, k))
    return total


def least_member(n, a, b):
    """The least string of class (a, b) in index order (position 1 first),
    built one position at a time: 0 wherever a completion still exists."""
    string = []
    for _ in range(2 * n):
        string.append(0)
        if not completable(string, n, a, b):
            string[-1] = 1
    return tuple(string)


def completable(prefix, n, a, b):
    """Whether the fixed prefix extends to a string of n pairs with a pairs
    11 and b pairs mixed (pair i is positions i and i + n)."""
    known = list(prefix) + [None] * (2 * n - len(prefix))
    fixed11 = fixed_mixed = either = zero_or_mixed = free = 0
    for i in range(n):
        s0, s1 = known[i], known[i + n]
        if s0 is None:
            free += 1  # slot 1 is then unknown too
        elif s1 is None:
            either += s0 == 1  # 11 or 10
            zero_or_mixed += s0 == 0  # 00 or 01
        else:
            fixed11 += s0 == s1 == 1
            fixed_mixed += s0 != s1
    for e11 in range(either + 1):
        f11 = a - fixed11 - e11
        rest = b - fixed_mixed - (either - e11)  # mixed pairs still to place
        if 0 <= f11 <= free and 0 <= rest <= zero_or_mixed + free - f11:
            return True
    return False


@pytest.mark.parametrize("n, k, delta", [(32, 1, 0.3), (32, 4, 0.75), (33, 28, Fraction(1, 4))])
def test_large_witness_is_the_least_string_of_the_first_maximizing_class(n, k, delta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # int64 candidate indices wrap past 63 positions
        est = eps_class_exact(make_strategy("example5", n=n, k=k), delta)
    values = {(a, b): class_failure(n, k, a, b, delta) for a in range(n + 1) for b in range(n - a + 1)}
    best = max(values.values())
    assert est.value == float(best)
    witness = est.worst_case_string.symbols
    pairs = list(zip(witness[:n], witness[n:]))
    assert values[pairs.count((1, 1)), sum(x != y for x, y in pairs)] == best
    assert witness == min(least_member(n, a, b) for (a, b), value in values.items() if value == best)


def test_gate_charges_the_pascal_steps_and_the_tail_table_before_any_sum(monkeypatch):
    # n = 6, k = 3: C(8, 3) + C(7, 3) Pascal steps and 7 * 11 table cells
    strategy = make_strategy("example5", n=6, k=3)
    charge = 56 + 35 + 77
    with monkeypatch.context() as mp:
        mp.setattr(sampling, "_binomial_row", lambda m: pytest.fail("counted before the gate"))
        mp.setenv("QSAMPLE_BUDGET", str(charge - 1))
        with pytest.raises(BudgetExceededError, match=f"needs {charge} evaluations"):
            eps_class_exact(strategy, 0.3)
    monkeypatch.setenv("QSAMPLE_BUDGET", str(charge))
    assert eps_class_exact(strategy, 0.3).value > 0
    # past 2n = _COUNT_LENGTH_UNIT every step is charged twice
    n = sampling._COUNT_LENGTH_UNIT // 2 + 1
    charge = 2 * (math.comb(n + 2, 3) + math.comb(n + 1, 3) + (n + 1) * (n + 1 + 2))
    monkeypatch.setenv("QSAMPLE_BUDGET", str(charge - 1))
    with pytest.raises(BudgetExceededError, match=f"needs {charge} evaluations"):
        eps_class_exact(make_strategy("example5", n=n, k=1), 0.3)


def test_n_200_is_answered_under_the_default_budget(monkeypatch):
    # the enumeration was refused here (2^600 C(200, 100) cells); CI times it
    monkeypatch.delenv("QSAMPLE_BUDGET", raising=False)
    est = eps_class_exact(make_strategy("example5", n=200, k=100), 0.3)
    assert est.worst_case_string.symbols == (0,) * 200 + (1,) * 200  # every pair mixed
    assert est.value < analytic_bound("example5", {"k": 100}, 0.3) / 1000
