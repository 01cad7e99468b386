"""Property tests: each strategy's (t, s) law, written once, against the three
hand-written copies it replaced.

The oracle below enumerates, counts and samples every built-in law the way
the package did before the laws were written once: one loop per kind for the
support, one closed form per kind for its size, and one sequence of generator
calls per kind for a draw.  The support must match as a list (order and exact
Fractions), the size exactly, and the draws for the same seeds exactly.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsample.sampling import STRATEGY_KINDS, make_strategy


# ---------------------------------------------------------------------------
# the per-kind oracle
# ---------------------------------------------------------------------------


def oracle_support(strategy):
    n, k = strategy.n, strategy.k
    if strategy.kind == "example1":
        p = Fraction(1, math.comb(n, k))
        for t in itertools.combinations(range(1, n + 1), k):
            yield (t, None, p)
    elif strategy.kind == "example3":
        p = Fraction(1, 2 ** n)
        for r in range(2 ** n):
            yield (tuple(i + 1 for i in range(n) if (r >> i) & 1), None, p)
    elif strategy.kind == "example4":
        pt, ps = Fraction(1, math.comb(n, k)), Fraction(1, 2 ** k)
        for t in itertools.combinations(range(1, n + 1), k):
            for r in range(2 ** k):
                yield (t, tuple(t[i] for i in range(k) if (r >> i) & 1), pt * ps)
    elif strategy.kind == "example5":
        pt, ps = Fraction(1, 2 ** n), Fraction(1, math.comb(n, k))
        for r in range(2 ** n):
            t = tuple(sorted((i + 1) + n * ((r >> i) & 1) for i in range(n)))
            for s in itertools.combinations(range(1, n + 1), k):
                yield (t, s, pt * ps)
    elif strategy.kind == "example6":
        fp = Fraction(repr(float(strategy.p)))
        half = k // 2
        for r in range(2 ** n):
            sel = [i + 1 for i in range(n) if (r >> i) & 1]
            rest = [i + 1 for i in range(n) if not (r >> i) & 1]
            t0, t1 = tuple(sel), tuple(i + n for i in rest)
            pt = fp ** len(sel) * (1 - fp) ** len(rest)
            sz0, sz1 = min(half, len(t0)), min(half, len(t1))
            ps = Fraction(1, math.comb(len(t0), sz0) * math.comb(len(t1), sz1))
            for s0 in itertools.combinations(t0, sz0):
                for s1 in itertools.combinations(t1, sz1):
                    yield (tuple(sorted(t0 + t1)), (s0, s1), pt * ps)
    else:
        raise NotImplementedError(strategy.kind)


def oracle_support_size(strategy):
    n, k = strategy.n, strategy.k
    if strategy.kind == "example1":
        return math.comb(n, k)
    if strategy.kind == "example3":
        return 2 ** n
    if strategy.kind == "example4":
        return math.comb(n, k) * 2 ** k
    if strategy.kind == "example5":
        return 2 ** n * math.comb(n, k)
    if strategy.kind == "example6":
        return sum(
            math.comb(n, a) * math.comb(a, min(k // 2, a)) * math.comb(n - a, min(k // 2, n - a))
            for a in range(n + 1)
        )
    raise NotImplementedError(strategy.kind)


def oracle_sample_ts(strategy, rng):
    n, k = strategy.n, strategy.k
    if strategy.kind == "example1":
        return tuple(sorted(rng.choice(n, size=k, replace=False) + 1)), None
    if strategy.kind == "example2":
        draws = tuple(int(x) for x in rng.integers(1, n + 1, size=k))
        return tuple(sorted(set(draws))), draws
    if strategy.kind == "example3":
        bits = rng.integers(0, 2, size=n)
        return tuple(i + 1 for i in range(n) if bits[i]), None
    if strategy.kind == "example4":
        t = tuple(sorted(rng.choice(n, size=k, replace=False) + 1))
        keep = rng.integers(0, 2, size=k)
        return t, tuple(t[i] for i in range(k) if keep[i])
    if strategy.kind == "example5":
        slots = rng.integers(0, 2, size=n)
        t = tuple(sorted((i + 1) + n * int(slots[i]) for i in range(n)))
        return t, tuple(sorted(rng.choice(n, size=k, replace=False) + 1))
    if strategy.kind == "example6":
        half = k // 2
        bits = rng.random(n) < strategy.p
        t0 = tuple(i + 1 for i in range(n) if bits[i])
        t1 = tuple(i + 1 + n for i in range(n) if not bits[i])
        s0 = tuple(sorted(rng.choice(t0, size=min(half, len(t0)), replace=False))) if t0 else ()
        s1 = tuple(sorted(rng.choice(t1, size=min(half, len(t1)), replace=False))) if t1 else ()
        return tuple(sorted(t0 + t1)), (s0, s1)
    raise NotImplementedError(strategy.kind)


# ---------------------------------------------------------------------------
# strategies under test
# ---------------------------------------------------------------------------

P_VALUES = (0.3, 0.5, 0.123)


@st.composite
def built_in(draw, kinds, max_n):
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, max_n))
    if kind == "example3":
        return make_strategy(kind, n=n)
    if kind == "example2":
        return make_strategy(kind, n=n, k=draw(st.integers(1, 2 * n)))
    if kind == "example6":
        k = 2 * draw(st.integers(1, n))
        return make_strategy(kind, n=n, k=k, p=draw(st.sampled_from(P_VALUES)))
    return make_strategy(kind, n=n, k=draw(st.integers(1, n)))


ENUMERABLE = tuple(kind for kind in STRATEGY_KINDS if kind != "example2")


@settings(max_examples=150, deadline=None)
@given(strategy=built_in(ENUMERABLE, 6))
@example(strategy=make_strategy("example6", n=1, k=2, p=0.3))  # one pool always empty
@example(strategy=make_strategy("example6", n=4, k=8, p=0.123))  # k/2 above every pool
@example(strategy=make_strategy("example5", n=6, k=3))
@example(strategy=make_strategy("example4", n=6, k=6))
def test_support_and_its_size_match_the_per_kind_oracle(strategy):
    support = strategy.ts_support()
    expected = list(oracle_support(strategy))
    assert support == expected
    assert all(type(p) is Fraction for _, _, p in support)
    assert sum(p for _, _, p in support) == 1
    assert strategy.support_size() == len(support) == oracle_support_size(strategy)


@settings(max_examples=150, deadline=None)
@given(strategy=built_in(STRATEGY_KINDS, 40), seed=st.integers(0, 2 ** 32))
@example(strategy=make_strategy("example6", n=1, k=2, p=0.123), seed=0)
@example(strategy=make_strategy("example6", n=40, k=10, p=0.3), seed=6)
@example(strategy=make_strategy("example5", n=40, k=10), seed=5)
@example(strategy=make_strategy("example2", n=100, k=20), seed=4)
def test_draws_match_the_per_kind_oracle(strategy, seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert strategy.sample_ts(ours) == oracle_sample_ts(strategy, theirs)
    assert ours.random() == theirs.random()  # the same generator calls were made


@pytest.mark.parametrize("p", P_VALUES)
def test_empty_pools_draw_nothing(p):
    # at n = 1 every draw of example6 leaves one of its two pools empty
    strategy = make_strategy("example6", n=1, k=2, p=p)
    seen = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        t, (s0, s1) = strategy.sample_ts(rng)
        assert (s0, s1) in (((1,), ()), ((), (2,)))
        seen.add(t)
    assert seen == {(1,), (2,)}


def test_sampling_with_replacement_has_no_support():
    strategy = make_strategy("example2", n=3, k=2)
    with pytest.raises(NotImplementedError):
        strategy.ts_support()
    with pytest.raises(NotImplementedError):
        strategy.support_size()


def test_kind_flags_follow_the_kind():
    extra = {"example3": {}, "example6": {"k": 2, "p": 0.5}}  # only example6 takes p
    flags = {kind: make_strategy(kind, n=2, **extra.get(kind, {"k": 2})) for kind in STRATEGY_KINDS}
    assert {k for k, s in flags.items() if s.pair_indexed} == {"example5", "example6"}
    assert {k for k, s in flags.items() if s.permutation_invariant} == {"example1", "example3", "example4"}
    with pytest.raises(AttributeError):
        flags["example1"].permutation_invariant = False
