"""The one budget gate in front of every exhaustive path.

``sampling._refuse`` reads the budget, compares the cheap factor of a cost
(the string or candidate count) before it calls the costly one (a support
size that walks the (t, s) law), and words every refusal.  Oversized
requests under the default budget must be refused at once with a short
message, however many digits their cost has.
"""

import time

import pytest

from qsample import make_strategy, pair_symmetry_group, symmetric_group
from qsample.qsampling import accept_set, is_g_symmetric, symmetric_worst_state
from qsample.sampling import BudgetExceededError, _refuse, eps_class_exact, failure_probability


def _message(*args, **kwargs) -> str:
    with pytest.raises(BudgetExceededError) as info:
        _refuse(*args, **kwargs)
    return str(info.value)


def test_cost_within_the_budget_is_admitted():
    assert _refuse("work", 10, lambda: 3, budget=30) is None
    assert _refuse("work", 30, budget=30) is None


def test_short_cost_is_printed_exactly():
    assert _message("work", 10, lambda: 4, budget=30) == (
        "work needs 40 evaluations, budget is 30; raise QSAMPLE_BUDGET"
    )
    assert _message("exact distance", 31, budget=30, instead="--mc").endswith(
        "budget is 30; use --mc or raise QSAMPLE_BUDGET"
    )
    assert "needs 999999999999999 evaluations" in _message("work", 10 ** 15 - 1, budget=1)


def test_costly_factor_is_not_called_when_the_cheap_one_is_refused():
    message = _message("work", 31, lambda: pytest.fail("walked the law"), budget=30)
    assert "needs at least 31 evaluations" in message


@pytest.mark.parametrize("e", [16, 23, 308, 309, 4300])
def test_long_cost_is_worded_as_a_power_of_ten(e):
    assert f"needs at least 10^{e} evaluations" in _message("work", 10 ** e, budget=1)
    assert f"needs at least 10^{e - 1} evaluations" in _message("work", 10 ** e - 1, budget=1)
    assert f"needs at least 10^{e} evaluations" in _message("work", 10 ** e + 1, budget=1)


def test_cost_past_the_int_string_limit_is_refused_with_the_budget_message():
    message = _message("work", 2 ** 8000, lambda: 10 ** 5000, budget=1)
    assert "needs at least 10^2408 evaluations" in message


def _example4():
    return make_strategy("example4", n=8000, k=4000)


OVERSIZED = {
    "eps_class_exact counted": lambda: eps_class_exact(make_strategy("example1", n=100_000, k=50_000), 0.3),
    "eps_class_exact counted, example4": lambda: eps_class_exact(_example4(), 0.3),
    "eps_class_exact enumerated": lambda: eps_class_exact(make_strategy("example5", n=5000, k=1), 0.3),
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
