"""Exact eps_class of example6, counted over pair types.

Example6's law is invariant under permuting pairs, but its biased coins tell
a pair's two slots apart, so ``eps_class_exact`` reduces one failure row per
class of strings with n00, n01, n10 and n11 pairs of each type
(``_pair_type_rows``), instead of one per block of (string, (t, s)) cells.
The oracle at n <= 6 is the enumerating path it replaced,
``_enumerated_rows``, through the same reduction, ``_worst_case``.
"""

import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qsample.sampling as sampling
from qsample.sampling import BudgetExceededError, _exact_delta, eps_class_exact, eps_class_mc, make_strategy

DELTAS = [0.1, 0.15, 0.25, 1 / 3, Fraction(1, 3), 0.5]


def enumerated(strategy, delta):
    """(max Pr[fail], first maximizing string) from every table cell."""
    return sampling._worst_case(strategy, sampling._enumerated_rows(strategy, _exact_delta(delta)))


def counted(strategy, delta):
    """(max Pr[fail], first maximizing string) from the pair-type rows."""
    return sampling._worst_case(strategy, sampling._pair_type_rows(strategy, _exact_delta(delta)))


@pytest.mark.parametrize("p", [0.3, 0.5, 0.77])
def test_every_small_case_matches_the_enumeration(p):
    # a tie at delta = 1/3 needs the threshold rounded up exactly
    cases = [(n, k) for n in range(1, 6) for k in range(2, 2 * n + 1, 2)] + [(6, 4)]
    for n, k in cases:
        strategy = make_strategy("example6", n=n, k=k, p=p)
        for delta in (Fraction(1, 3), 0.15):
            assert counted(strategy, delta) == enumerated(strategy, delta)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(1, 5),
    half_share=st.floats(0, 1),
    p=st.integers(1, 99).map(lambda c: c / 100),
    d=st.sampled_from([2, 3]),
    delta=st.sampled_from(DELTAS),
)
@example(n=5, half_share=1, p=0.3, d=2, delta=0.1)
@example(n=4, half_share=0.5, p=0.77, d=3, delta=Fraction(1, 3))
def test_counted_example6_equals_the_enumeration(n, half_share, p, d, delta):
    strategy = make_strategy("example6", n=n, k=2 * max(1, round(half_share * n)), p=p, d=d)
    value, witness = enumerated(strategy, delta)
    assert counted(strategy, delta) == (value, witness)
    est = eps_class_exact(strategy, delta)
    assert est.value == float(value)
    assert est.worst_case_string.symbols == witness and est.worst_case_string.d == d


def pair_types(string, n):
    """(n00, n01, n10, n11) of a string of n pairs, pair i at positions i and i + n."""
    pairs = list(zip(string[:n], string[n:]))
    return tuple(pairs.count(t) for t in ((0, 0), (0, 1), (1, 0), (1, 1)))


def least_member(n, types):
    """The least string with these pair-type counts in index order
    (position 1 first), built one position at a time: 0 wherever a
    completion still exists."""
    string = []
    for _ in range(2 * n):
        string.append(0)
        if not completable(string, n, types):
            string[-1] = 1
    return tuple(string)


def completable(prefix, n, types):
    """Whether the fixed prefix extends to a string of n pairs with these
    pair-type counts."""
    _, n01, n10, n11 = types
    slot0, slot1 = prefix[:n], prefix[n:]
    if not slot1:  # slot 1 is free, so only the number of slot-0 ones counts
        return sum(slot0) <= n10 + n11 <= sum(slot0) + n - len(slot0)
    # slot 0 holds n10 + n11 ones; the open pairs' slot 1 may still read 1
    fixed01 = sum(1 for x, y in zip(slot0, slot1) if (x, y) == (0, 1))
    fixed11 = sum(1 for x, y in zip(slot0, slot1) if (x, y) == (1, 1))
    open0, open1 = slot0[len(slot1) :].count(0), slot0[len(slot1) :].count(1)
    return fixed01 <= n01 <= fixed01 + open0 and fixed11 <= n11 <= fixed11 + open1


def test_every_key_is_the_least_string_of_its_class_past_63_positions():
    # keys are Python ints; int64 candidate indices wrap past 63 positions
    n = 32
    strategy = make_strategy("example6", n=n, k=2, p=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = list(sampling._pair_type_rows(strategy, _exact_delta(0.3)))
        est = eps_class_exact(strategy, 0.3)
    assert len(rows) == math.comb(n + 3, 3)
    seen = set()
    for key, _, _ in rows[:: len(rows) // 40] + rows[-3:]:
        string = sampling._candidate(strategy, key)
        assert string == least_member(n, pair_types(string, n))
        seen.add(pair_types(string, n))
    assert len(seen) > 40
    value, witness = sampling._worst_case(strategy, iter(rows))
    assert est.value == float(value) and est.worst_case_string.symbols == witness


def test_small_least_members_match_the_enumeration_order():
    # the least string of each class, as a brute-force minimum over all strings
    n = 4
    strategy = make_strategy("example6", n=n, k=2, p=0.3)
    least = {}
    for index in range(2 ** (2 * n)):
        string = sampling._candidate(strategy, index)
        least.setdefault(pair_types(string, n), string)
    keys = [key for key, _, _ in sampling._pair_type_rows(strategy, _exact_delta(0.3))]
    assert sorted(sampling._candidate(strategy, key) for key in keys) == sorted(least.values())
    assert all(least_member(n, types) == string for types, string in least.items())


def test_gate_charges_every_kept_count_vector_before_any_loop(monkeypatch):
    # n = 4: C(11, 7) (class, kept-count vector) pairs, each charged once
    strategy = make_strategy("example6", n=4, k=4, p=0.3)
    charge = math.comb(11, 7)
    with monkeypatch.context() as mp:
        for name in ("_window", "_tail_table", "_binomial_row"):  # the tail-count kernel
            mp.setattr(sampling, name, lambda *a: pytest.fail("counted before the gate"))
        mp.setenv("QSAMPLE_BUDGET", str(charge - 1))
        with pytest.raises(BudgetExceededError, match=f"needs {charge} evaluations"):
            eps_class_exact(strategy, 0.3)
    monkeypatch.setenv("QSAMPLE_BUDGET", str(charge))
    assert eps_class_exact(strategy, 0.3).value > 0
    # past 2n = _COUNT_LENGTH_UNIT every vector is charged twice
    monkeypatch.setattr(sampling, "_COUNT_LENGTH_UNIT", 7)
    with pytest.raises(BudgetExceededError, match=f"needs {2 * charge} evaluations"):
        eps_class_exact(strategy, 0.3)


def test_n_30_is_answered_under_the_default_budget(monkeypatch):
    # enumeration stopped at n = 8 (2^16 strings x the support); CI times n = 24.
    # Monte-Carlo on the witness, drawn through the sampler, agrees
    monkeypatch.delenv("QSAMPLE_BUDGET", raising=False)
    strategy = make_strategy("example6", n=30, k=30, p=0.3)
    est = eps_class_exact(strategy, 0.15)
    mc = eps_class_mc(strategy, est.worst_case_string, 0.15, 4000, rng_seed=7)
    assert abs(mc.value - est.value) <= mc.confidence_halfwidth
