"""The tail-count kernel under the counted exact paths, against brute force.

``_window`` gives the counts y in 0..top that |base + g y| < threshold
accepts, as one interval [lo, hi); ``_tail_table`` the prefix-summed
hypergeometric counts from which a window's failing draws are read.  The
oracles are a set comprehension over y and ``math.comb`` sums.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsample.sampling as sampling

HUGE = 1 << 80  # past int64, so only Python ints hold it


def accepted(base, g, threshold, top):
    return {y for y in range(top + 1) if abs(base + g * y) < threshold}


@st.composite
def windows(draw):
    """(base, g, threshold, top), the base often put where base + g y
    crosses +-threshold inside 0..top, thresholds up to past int64."""
    top, g = draw(st.integers(0, 30)), draw(st.integers(-9, 9))
    threshold = draw(st.one_of(st.integers(-3, 60), st.integers(HUGE, 2 * HUGE)))
    edge = draw(st.sampled_from([-threshold, threshold])) - g * draw(st.integers(0, top)) + draw(st.integers(-2, 2))
    base = draw(st.one_of(st.just(edge), st.integers(-3 * HUGE, 3 * HUGE), st.integers(-100, 100)))
    return base, g, threshold, top


@settings(max_examples=400, deadline=None)
@given(window=windows())
@example(window=(0, 0, 1, 5))  # every g 0: every y accepted
@example(window=(-7, 0, 7, 5))  # |base| = threshold: none
@example(window=(-HUGE, 3, HUGE, 4))  # y = 0 on the edge, past int64
def test_window_is_the_accepted_set(window):
    base, g, threshold, top = window
    lo, hi = sampling._window(base, g, threshold, top)
    assert type(lo) is int and type(hi) is int
    assert 0 <= lo <= hi <= top + 1
    assert set(range(lo, hi)) == accepted(base, g, threshold, top)


@settings(max_examples=100, deadline=None)
@given(
    bases=st.lists(st.integers(-200, 200), min_size=1, max_size=12),
    g=st.integers(-9, 9),
    threshold=st.integers(1, 60),
    top=st.integers(0, 20),
    shift=st.sampled_from([0, HUGE]),
)
def test_window_is_elementwise_on_int64_and_object_arrays(bases, g, threshold, top, shift):
    # shift takes base down and the threshold up past int64, which only an
    # object array holds, and keeps the lower edge -threshold within reach
    dtype, threshold = (object if shift else np.int64), threshold + shift
    base = np.array([b - shift for b in bases], dtype=dtype)
    lo, hi = sampling._window(base, g, threshold, top)
    assert lo.shape == hi.shape == base.shape
    for b, l, h in zip(base.tolist(), lo.tolist(), hi.tolist()):
        assert 0 <= l <= h <= top + 1
        assert set(range(l, h)) == accepted(b, g, threshold, top)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 14), c=st.integers(0, 16), window=st.data())
def test_tail_table_is_the_comb_prefix_sums(m, c, window):
    P = sampling._tail_table(m, c)
    assert P.shape == (m + 1, c + 2)
    for u in range(m + 1):
        counts = [math.comb(u, x) * math.comb(m - u, c - x) for x in range(c + 1)]
        assert P[u].tolist() == [sum(counts[:x]) for x in range(c + 2)]
        # a window's failing count, and the per-count differences
        base, g, threshold = window.draw(st.tuples(st.integers(-40, 40), st.integers(-5, 5), st.integers(1, 30)))
        lo, hi = sampling._window(base, g, threshold, c)
        failing = sum(counts[x] for x in range(c + 1) if x not in accepted(base, g, threshold, c))
        assert P[u, lo] + P[u, c + 1] - P[u, hi] == failing
        assert (P[u, 1:] - P[u, :-1]).tolist() == counts


@pytest.mark.parametrize("m, c", [(40, 20), (300, 299), (50, 7)])
def test_tail_table_shares_each_rows_total_past_its_top(m, c):
    # past x = min(u, c) + 1 a row adds only zero counts: a fresh int per
    # entry held example5's table at n = 736, k = 368 at 27 MB, not 19 MB
    P = sampling._tail_table(m, c)
    for u in range(m + 1):
        top = min(u, c) + 1
        assert all(P[u, x] is P[u, top] for x in range(top, c + 2)), u
