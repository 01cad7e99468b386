"""The one budget gate in front of every exhaustive path.

``sampling._refuse`` reads the budget (``QSAMPLE_BUDGET``, its one
setting), compares the cheap factor of a cost (the string or candidate
count) before it calls the costly one (a support size that walks the (t, s)
law), and words every refusal.  Oversized
requests under the default budget must be refused at once with a short
message, however many digits their cost has.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from qsample import make_strategy, pair_symmetry_group, symmetric_group
from qsample.protocols import AdversaryModel, QkdParams, make_linear_code, qkd_sampling_view, simulate_qkd
from qsample.qsampling import accept_set, ideal_distance, is_g_symmetric, symmetric_worst_state
from qsample.quantum import make_epr_pairs
from qsample.sampling import BudgetExceededError, _refuse, custom_strategy, eps_class_exact, failure_probability


@pytest.fixture
def budget(monkeypatch):
    """Sets QSAMPLE_BUDGET, the one setting every gate reads."""
    return lambda value: monkeypatch.setenv("QSAMPLE_BUDGET", str(value))


def _message(*args, **kwargs) -> str:
    with pytest.raises(BudgetExceededError) as info:
        _refuse(*args, **kwargs)
    return str(info.value)


def test_cost_within_the_budget_is_admitted(budget):
    budget(30)
    assert _refuse("work", 10, lambda: 3) is None
    assert _refuse("work", 30) is None


def test_short_cost_is_printed_exactly(budget):
    budget(30)
    assert _message("work", 10, lambda: 4) == "work needs 40 evaluations, budget is 30; raise QSAMPLE_BUDGET"
    assert _message("exact distance", 31, instead="--mc").endswith("budget is 30; use --mc or raise QSAMPLE_BUDGET")
    budget(1)
    assert "needs 999999999999999 evaluations" in _message("work", 10 ** 15 - 1)


def test_costly_factor_is_not_called_when_the_cheap_one_is_refused(budget):
    budget(30)
    message = _message("work", 31, lambda: pytest.fail("walked the law"))
    assert "needs at least 31 evaluations" in message


@pytest.mark.parametrize("e", [16, 23, 308, 309, 4300])
def test_long_cost_is_worded_as_a_power_of_ten(e, budget):
    budget(1)
    assert f"needs at least 10^{e} evaluations" in _message("work", 10 ** e)
    assert f"needs at least 10^{e - 1} evaluations" in _message("work", 10 ** e - 1)
    assert f"needs at least 10^{e} evaluations" in _message("work", 10 ** e + 1)


def test_cost_past_the_int_string_limit_is_refused_with_the_budget_message(budget):
    budget(1)
    message = _message("work", 2 ** 8000, lambda: 10 ** 5000)
    assert "needs at least 10^2408 evaluations" in message


def test_counted_refusal_partway_through_the_law_says_at_least(monkeypatch):
    # example3 is refused in the middle of its n + 1 size classes, example1
    # (one class) with its whole cost
    monkeypatch.delenv("QSAMPLE_BUDGET", raising=False)
    with pytest.raises(BudgetExceededError) as partway:
        eps_class_exact(make_strategy("example3", n=5000), 0.3)
    assert "needs at least 270302390 evaluations" in str(partway.value)
    with pytest.raises(BudgetExceededError) as whole:
        eps_class_exact(make_strategy("example1", n=20_000, k=10_000), 0.3)
    assert "needs 2000400020 evaluations" in str(whole.value)


def _custom():
    half = Fraction(1, 2)
    return custom_strategy(3, [((1,), None, half), ((2, 3), None, half)], lambda t, qt, s: Fraction(sum(qt), len(qt)))


def _example4():
    return make_strategy("example4", n=8000, k=4000)


OVERSIZED = {
    "eps_class_exact counted": lambda: eps_class_exact(make_strategy("example1", n=100_000, k=50_000), 0.3),
    "eps_class_exact counted, example4": lambda: eps_class_exact(_example4(), 0.3),
    # example5 and example6 are counted over pair classes and pair types now, charged at once
    "eps_class_exact enumerated": lambda: eps_class_exact(make_strategy("example5", n=5000, k=1), 0.3),
    "eps_class_exact enumerated, example6": lambda: eps_class_exact(
        make_strategy("example6", n=5000, k=2, p=0.3), 0.3
    ),
    "failure_probability": lambda: failure_probability(make_strategy("example5", n=30, k=2), [0] * 60, 0.3),
    "accept_set": lambda: accept_set(make_strategy("example1", n=40, k=2), (1, 2), None, 0.3),
    "is_g_symmetric": lambda: is_g_symmetric(_example4(), symmetric_group(8000)),
    "symmetric_worst_state": lambda: symmetric_worst_state(_example4(), symmetric_group(8000), 0.3),
    "symmetric_worst_state, pairs": lambda: symmetric_worst_state(
        make_strategy("example5", n=5000, k=1), pair_symmetry_group(5000), 0.3
    ),
}


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_oversized_request_is_refused_at_once(name, monkeypatch):
    monkeypatch.delenv("QSAMPLE_BUDGET", raising=False)
    started = time.monotonic()
    with pytest.raises(BudgetExceededError) as info:
        OVERSIZED[name]()
    assert time.monotonic() - started < 1.0
    message = str(info.value)
    assert "budget" in message and len(message) < 200


# Each caller of the gate at a small size, with the work it names and its
# whole charge in evaluations.
GATED = {
    # the support size: C(4, 2) subsets
    "failure_probability": (
        "failure probability", 6, lambda: failure_probability(make_strategy("example1", n=4, k=2), [0, 0, 1, 1], 0.3)
    ),
    # 2^3 strings x 2 (t, s) of a custom table, the one kind still enumerated
    "eps_class_exact enumerated": (
        "exact enumeration", 16, lambda: eps_class_exact(_custom(), 0.3)
    ),
    # C(2 + 7, 7) (pair-type class, kept-count vector) pairs
    "eps_class_exact pair types": (
        "exact enumeration", 36, lambda: eps_class_exact(make_strategy("example6", n=2, k=2, p=0.3), 0.3)
    ),
    # one size class, cells of 3 and 3 positions: 4 * 4 count vectors
    "eps_class_exact counted": ("exact enumeration", 16, lambda: eps_class_exact(make_strategy("example1", n=6, k=3), 0.3)),
    # C(8, 3) + C(7, 3) Pascal steps and 7 * 11 table cells
    "eps_class_exact pair classes": (
        "exact enumeration", 168, lambda: eps_class_exact(make_strategy("example5", n=6, k=3), 0.3)
    ),
    # 2^3 strings
    "accept_set": ("accept set", 8, lambda: accept_set(make_strategy("example1", n=3, k=1), (1,), None, 0.3)),
    # 2^4 strings x (6 (t, s) + 1)
    "ideal_distance": (
        "accept matrix", 112, lambda: ideal_distance(make_epr_pairs(2), make_strategy("example1", n=4, k=2), 0.3)
    ),
    # 2^4 strings x (6 (t, s) + 2 generators)
    "is_g_symmetric": (
        "symmetry check", 128, lambda: is_g_symmetric(make_strategy("example1", n=4, k=2), symmetric_group(4))
    ),
    # 2000 tries x (1 + 8) error patterns of weight <= 1
    "make_linear_code": ("code search", 18000, lambda: make_linear_code(8, 4, 0.125, np.random.default_rng(49))),
    # 2^2 bases x 4^2 outcomes x C(2, 1) subsets x 2^0 hash seeds
    "simulate_qkd exact": (
        "exact distance", 128, lambda: simulate_qkd(QkdParams(2, 1), AdversaryModel(), rng_seed=3, exact=True)
    ),
    # 2^2 bases x 4^2 outcomes x 1^2 for a trivial environment
    "qkd_sampling_view": (
        "experiment comparison", 64, lambda: qkd_sampling_view(make_epr_pairs(2), QkdParams(2, 1), rng_seed=5)
    ),
}


@pytest.mark.parametrize("name", sorted(GATED))
def test_every_gate_refuses_below_its_charge_and_admits_it(name, budget):
    work, charge, call = GATED[name]
    budget(charge - 1)
    with pytest.raises(BudgetExceededError) as info:
        call()
    assert str(info.value).startswith(f"{work} needs {charge} evaluations, budget is {charge - 1}; ")
    budget(charge)
    call()
