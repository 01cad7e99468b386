"""Exact eps_class of the permutation-invariant kinds, counted per size class.

example1, example3 and example4 draw (t, s) uniformly, so ``eps_class_exact``
counts, for one representative (t, s) per size class, the weight-w strings
it accepts, instead of deciding every (t, s) of the support.  The oracle is
the enumerating path it replaced for these kinds: ``failure_probability``
(which still walks ``ts_support``) on each of the L + 1 weight-class strings
0..01..1, keeping the first maximizer.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qsample.sampling as sampling
from qsample.cli import main
from qsample.sampling import BudgetExceededError, eps_class_exact, failure_probability, make_strategy

DELTAS = st.sampled_from([0.1, 0.15, 0.25, 1 / 3, Fraction(1, 3), 0.5])


def oracle_eps(strategy, delta):
    """(max Pr[fail], first maximizing string) over the weight classes."""
    L = strategy.length
    best, witness = Fraction(-1), None
    for w in range(L + 1):
        q = (0,) * (L - w) + (1,) * w
        fail = failure_probability(strategy, q, delta)
        if fail > best:
            best, witness = fail, q
    return best, witness


@st.composite
def counted_strategies(draw):
    kind = draw(st.sampled_from(["example1", "example3", "example4"]))
    n, d = draw(st.integers(1, 10)), draw(st.sampled_from([2, 3]))
    if kind == "example3":
        return make_strategy(kind, n=n, d=d)
    return make_strategy(kind, n=n, k=draw(st.integers(1, n)), d=d)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(strategy=counted_strategies(), delta=DELTAS)
@example(strategy=make_strategy("example1", n=2, k=1), delta=0.5)
@example(strategy=make_strategy("example1", n=6, k=3), delta=Fraction(1, 3))
@example(strategy=make_strategy("example3", n=10, d=3), delta=0.25)
@example(strategy=make_strategy("example4", n=10, k=5), delta=1 / 3)
def test_counted_eps_matches_the_enumerating_oracle(strategy, delta):
    value, witness = oracle_eps(strategy, delta)
    est = eps_class_exact(strategy, delta)
    assert est.value == float(value)
    assert est.worst_case_string.symbols == witness


@pytest.mark.parametrize("kind", ["example1", "example3", "example4"])
def test_counted_kinds_draw_uniformly(kind):
    # the class probability is mult / support_size only for a uniform law
    for n in range(1, 7):
        for k in [None] if kind == "example3" else range(1, n + 1):
            strategy = make_strategy(kind, n=n) if k is None else make_strategy(kind, n=n, k=k)
            size = strategy.support_size()
            assert {p for _, _, p in strategy.ts_support()} == {Fraction(1, size)}


def test_gate_charges_every_count_vector_before_counting(monkeypatch):
    # example1 n=6 k=3: one class, cells of 3 and 3 positions, 4 * 4 vectors
    strategy = make_strategy("example1", n=6, k=3)
    with monkeypatch.context() as mp:
        mp.setattr(sampling, "_accepted_counts", lambda *a: pytest.fail("counted before the gate"))
        mp.setenv("QSAMPLE_BUDGET", "15")
        with pytest.raises(BudgetExceededError, match="16 evaluations"):
            eps_class_exact(strategy, 0.3)
    monkeypatch.setenv("QSAMPLE_BUDGET", "16")
    assert eps_class_exact(strategy, 0.3).value > 0
    # past L = _COUNT_LENGTH_UNIT a vector is charged ceil(L / unit) times
    # (here 2, on (1 + 1) * (L - 1 + 1) vectors)
    L = sampling._COUNT_LENGTH_UNIT + 1
    strategy = make_strategy("example1", n=L, k=1)
    monkeypatch.setenv("QSAMPLE_BUDGET", str(4 * L - 1))
    with pytest.raises(BudgetExceededError, match=f"{4 * L} evaluations"):
        eps_class_exact(strategy, 0.3)
    monkeypatch.setenv("QSAMPLE_BUDGET", str(4 * L))
    assert eps_class_exact(strategy, 0.3).value >= 0


def test_oversized_request_exits_2_at_once(capsys, monkeypatch):
    monkeypatch.delenv("QSAMPLE_BUDGET", raising=False)
    started = time.monotonic()
    code = main(["eps-class", "--kind", "example1", "--n", "100000", "--k", "50000", "--delta", "0.3"])
    elapsed = time.monotonic() - started
    assert code == 2
    assert "budget" in capsys.readouterr().err
    assert elapsed < 1.0
