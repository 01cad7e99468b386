"""The dense (string, (t, s)) table of a built-in kind in one product.

``sampling._reject_blocks`` decides a built-in kind's dense table by one
product per block of strings with the g rows of its columns: string z is
rejected under column j iff |z . g_j| >= ceil(delta A_j D_j), with
g = D 1_tbar - A w, since z . g = T D - E A.  The product runs in float64
while every partial sum fits 2^53, and in exact ints past that.  Its oracle
is the path it replaced, and which Monte-Carlo and custom strategies keep:
the products T and E of ``_table`` decided by ``_tie_rule``.  Every cell must
agree, and ``ideal_distance`` must read the same float, bit for bit, as it
did when it summed the oracle's blocks.
"""

from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qsample.sampling as sampling
from qsample.qsampling import _population_weights, ideal_distance
from qsample.quantum import random_pure_state
from qsample.sampling import _digits, _exact_delta, make_strategy


def oracle_blocks(strategy, columns, strings, count, bound):
    """(lo, reject) from the (T, E) blocks of _table and _tie_rule."""
    A, D, blocks = sampling._table(strategy, columns, strings, count)
    rejects = sampling._tie_rule(A, D, bound)
    for lo, T, E in blocks:
        yield lo, rejects(T, E)


def oracle_ideal_distance(state, strategy, delta):
    """ideal_distance as it read the oracle's blocks."""
    weights = _population_weights(state, strategy)
    d, L = strategy.d, strategy.length
    support = strategy.ts_support()
    blocks = oracle_blocks(strategy, support, partial(_digits, d=d, length=L), d ** L, _exact_delta(delta))
    outside = sum(weights[lo : lo + len(reject)] @ reject for lo, reject in blocks)
    probs = np.fromiter((float(p) for (_, _, p) in support), dtype=float, count=len(support))
    return float(probs @ np.sqrt(outside))


@st.composite
def dense_strategies(draw):
    """Kinds 1, 3, 4, 5 and 6 on strings of length <= 8 (<= 5 when d = 3)."""
    d = draw(st.sampled_from([2, 3]))
    max_length = 8 if d == 2 else 5
    kind = draw(st.sampled_from(["example1", "example3", "example4", "example5", "example6"]))
    n = draw(st.integers(1, max_length // 2 if kind in ("example5", "example6") else max_length))
    if kind == "example3":
        params = {"n": n}
    elif kind == "example6":
        params = {"n": n, "k": 2 * draw(st.integers(1, n)), "p": draw(st.sampled_from([0.3, 0.5]))}
    else:
        params = {"n": n, "k": draw(st.integers(1, n))}
    return make_strategy(kind, params, d=d)


# ties at delta (the small fractions, 0.25, 0.5), 1/3 exactly and as the
# float 0.333..., whose numerator 3333333333333333 once overflowed int32 A
DELTAS = st.one_of(
    st.sampled_from([0.1, 0.25, 0.5, 1 / 3, Fraction(1, 3), Fraction(2 ** 61 - 1, 2 ** 62)]),
    st.fractions(min_value=Fraction(1, 12), max_value=Fraction(11, 12), max_denominator=12),
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(strategy=dense_strategies(), delta=DELTAS, cells=st.sampled_from([1 << 18, 64, 7]), seed=st.integers(0, 99))
@example(strategy=make_strategy("example1", n=8, k=4), delta=Fraction(1, 3), cells=1 << 18, seed=0)
@example(strategy=make_strategy("example4", n=8, k=3), delta=1 / 3, cells=64, seed=1)
@example(strategy=make_strategy("example5", n=4, k=2), delta=0.25, cells=7, seed=2)
@example(strategy=make_strategy("example6", n=4, k=4, p=0.3), delta=0.1, cells=64, seed=3)
@example(strategy=make_strategy("example3", n=5, d=3), delta=0.5, cells=1 << 18, seed=4)
def test_one_product_decides_every_cell_as_the_tie_rule(strategy, delta, cells, seed):
    # small _BLOCK_CELLS split the table into many blocks, and those into
    # several products with a part-filled last one
    d, L = strategy.d, strategy.length
    bound, strings = _exact_delta(delta), partial(_digits, d=d, length=L)
    state = random_pure_state((d,) * L + (2,), np.random.default_rng(seed))
    with mock.patch.object(sampling, "_BLOCK_CELLS", cells):
        support = strategy.ts_support()
        got = list(sampling._reject_blocks(strategy, support, strings, d ** L, bound))
        want = list(oracle_blocks(strategy, support, strings, d ** L, bound))
        assert [lo for lo, _ in got] == [lo for lo, _ in want]
        for (_, new), (_, old) in zip(got, want):
            assert new.dtype == bool and np.array_equal(new, old)
        assert ideal_distance(state, strategy, delta) == oracle_ideal_distance(state, strategy, delta)


def _past_float(exponent):
    """A, D and rows R = (1_tbar; w) of two columns on four positions whose
    sums of |g| pass 2^exponent.  Column 0 has A = 1, D = 2^(e+1) + 8 and
    delta = 1/2, so c = 2^e + 4: the strings 1100 and 1110 read
    z . g = 2^e + 4 (a tie, rejected) and 2^e + 3 (accepted), which float64
    rounds to 2^e + 4 (to a multiple of 2^11 on e = 63).  Column 1 has
    random weights under the same D."""
    D = 2 ** (exponent + 1) + 8
    w = [2 ** exponent + 4, 1, 2]
    rng = np.random.default_rng(exponent)
    w1 = [int(x) for x in rng.integers(0, 2 ** 62, size=3)]
    w1 = [x * (D // 3) // 2 ** 62 for x in w1]  # sum <= D
    A = np.array([1, 1], dtype=np.int32)
    Dv = np.array([D, D], dtype=sampling._exact_dtype(D))
    R = np.array([[1, 0, 0, 0], [1, 0, 0, 0], [0, *w], [0, *w1]], dtype=Dv.dtype)
    return A, Dv, R


@pytest.mark.parametrize("exponent,dtype", [(53, np.int64), (63, object)])
def test_g_rows_past_2_53_take_the_exact_int_product(exponent, dtype):
    A, D, R = _past_float(exponent)
    bound = Fraction(1, 2)
    G = sampling._g_rows(A, D, R)
    assert int(np.abs(G).sum(axis=1).max()) >= 2 ** 53 and G.dtype == dtype
    Z = _digits(0, 16, 2, 4) != 0
    exact = Z.astype(object)
    T, E = np.split(exact @ R.astype(object).T, 2, axis=1)
    want = sampling._tie_rule(A, D, bound)(T, E)
    got = sampling._g_rule(G, A, D, bound)(Z)
    assert got.tolist() == want.tolist()
    assert got[0b1100, 0] and not got[0b1110, 0]
    # a float64 product would reject both
    c = sampling._reject_threshold(bound, A.astype(object), D.astype(object)).astype(float)
    assert (np.abs(Z.astype(float) @ G.astype(float).T) >= c)[0b1110, 0]
