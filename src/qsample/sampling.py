"""Classical sampling strategies and their error probabilities.

A sampling strategy draws a subset ``t`` of positions in a length-L symbol
string ``q`` together with an auxiliary seed ``s``, and turns the observed
symbols ``q|t`` into an estimate ``f(t, q|t, s)`` for the relative Hamming
weight of the unobserved rest ``q|tbar``.  The accept set collects the strings
whose estimate is delta-close to the true value,

    B(t, s, delta) = { b : |relwt(b|tbar) - f(t, b|t, s)| < delta },

with a strict inequality, so a deviation of exactly delta is a rejection.  The
(classical) error probability is the worst case over strings of the
probability of falling outside the accept set,

    eps_class(delta) = max_q Pr[ q not in B(T, S, delta) ].

Six built-in strategy kinds are provided ("example1" .. "example6") plus a
constructor for custom strategies.  A built-in kind is its entry in
``_KINDS``, a stateless class holding all that sets it apart: the
parameters it takes and its rules on them; its flags (pair indexed,
permutation invariant, one orbit); its (t, s) law, as tuples (``law``) and
as index rows for many trials at once (``draws``); its estimator, an
integer row w over D per (t, s), f = w . z / D with z = (q != 0)
(``rows``); the form of its seed (``column``, ``stack``); its exact path
with its budget gate (``failure_rows``); and the words a Monte-Carlo trial
reads (``trial_reads``).  The true value is z . 1_tbar / |tbar|, so exact
error probabilities are integer products compared with delta in integers;
ties follow delta as written (a float 0.1 is 1/10).  A dense table of
strings x (t, s) takes one product with the row g = D 1_tbar - A w of each
(t, s), A = max(|tbar|, 1), as z . g = A D (true value - estimate); it runs
in float64 while every sum stays below 2^53, where float64 is exact.  Every
built-in kind's exact path counts classes of strings in exact Python ints
(see :func:`eps_class_exact`), on one kernel: the window of counts a test
accepts (``_window``), binomial rows, and tail tables of hypergeometric
counts (``_tail_table``).  Monte-Carlo estimation covers sizes outside the
exact budget: each block of trials draws through ``_draws`` from the trials'
raw PCG64 words (see :mod:`qsample.draws`), in the same integers and with the
same tie rule.  A trial that reads at most ``_JUMP_WORDS`` words gets them by
jump-ahead arithmetic on the whole block; a longer one seeds its own PCG64,
since numpy's per-word loop is then the cheaper.

Positions are 1-based.  Pair-indexed strategies ("example5", "example6") view
a string of length 2n as n pairs; the pair element (i, j) with i in [1..n] and
j in {0, 1} sits at flat position i + j*n.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import draws

__all__ = [
    "SymbolString",
    "SubsetIndex",
    "SamplingStrategy",
    "ErrorEstimate",
    "BudgetExceededError",
    "rel_weight",
    "restrict",
    "complement",
    "pair_position",
    "make_strategy",
    "custom_strategy",
    "estimate",
    "in_accept_set",
    "deviation",
    "failure_probability",
    "eps_class_exact",
    "eps_class_mc",
    "analytic_bound",
    "BOUND_KINDS",
    "STRATEGY_KINDS",
    "error_estimate_to_dict",
    "error_estimate_to_json",
    "mc_halfwidth",
    "resolve_budget",
]

# The adversary kinds of the two protocols (protocols.AdversaryModel), kept
# here beside the strategy and bound kinds so that the command line's parser
# and RunConfig read every declared choice without loading the protocol layer.
_QKD_KINDS = ("none", "intercept-resend", "entangling-probe", "custom-unitary")
_QOT_KINDS = ("none", "commit-flip", "open-flip", "no-measure", "delay-measure")

_DEFAULT_BUDGET = 2 ** 28

_NO_LAW = "sampling with replacement has no enumerable (t, s) support; use eps_class_mc per string"


class BudgetExceededError(RuntimeError):
    """Raised when an exact enumeration would exceed the evaluation budget."""


def resolve_budget() -> int:
    """Return the exact-enumeration budget: the ``QSAMPLE_BUDGET``
    environment variable, a decimal integer, or the default of 268435456
    (2^28) evaluations.  It is the one setting of every budget gate."""
    raw = os.environ.get("QSAMPLE_BUDGET")
    if raw is None:
        return _DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"QSAMPLE_BUDGET must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError("QSAMPLE_BUDGET must be positive")
    return value


def _refuse(
    work: str,
    cheap: int,
    rest: Callable[[], int] | None = None,
    instead: str | None = None,
    at_least: bool = False,
) -> None:
    """The budget gate of every exhaustive path: refuses ``work`` with
    BudgetExceededError when it costs more evaluations than
    :func:`resolve_budget` allows.

    The cost is cheap * rest().  ``rest``, a factor of at least 1 that may walk
    the (t, s) law, is called only once the cheap factor (the string or
    candidate count) fits.  A cost past 15 digits is worded as a power of ten,
    since str() of an int past 4300 digits raises.  ``instead`` names a
    sampled alternative.  ``at_least`` says that ``cheap`` is the cost
    counted so far, a part of the whole."""
    limit = resolve_budget()
    lower = at_least or (rest is not None and cheap > limit)  # refused on part of the cost
    cost = cheap if rest is None or lower else cheap * rest()
    if cost <= limit:
        return
    if cost < 10 ** 15:
        amount = f"at least {cost}" if lower else str(cost)
    else:
        e = math.floor(math.log10(cost))
        amount = f"at least 10^{e - (10 ** e > cost)}"  # the float log may round up past a power of ten
    hint = f"use {instead} or raise QSAMPLE_BUDGET" if instead else "raise QSAMPLE_BUDGET"
    raise BudgetExceededError(f"{work} needs {amount} evaluations, budget is {limit}; {hint}")


# ---------------------------------------------------------------------------
# strings and index sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolString:
    """A string over the alphabet {0, .., d-1} with the symbol 0 distinguished.

    Parameters
    ----------
    symbols : tuple of int
        The symbols, one per position.
    d : int
        Alphabet size, at least 2.
    """

    symbols: tuple[int, ...]
    d: int = 2

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(int(x) for x in self.symbols))
        if self.d < 2:
            raise ValueError(f"alphabet size d must be >= 2, got {self.d}")
        for x in self.symbols:
            if not 0 <= x < self.d:
                raise ValueError(f"symbol {x} outside alphabet [0, {self.d})")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)


@dataclass(frozen=True)
class SubsetIndex:
    """A strictly increasing tuple of 1-based positions inside [1..n].

    For pair-indexed strategies the universe [n] x {0, 1} is flattened, the
    element (i, j) mapping to position i + j*n.
    """

    positions: tuple[int, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(int(x) for x in self.positions))
        if self.n < 0:
            raise ValueError("universe size must be non-negative")
        prev = 0
        for x in self.positions:
            if x <= prev:
                raise ValueError(f"positions must be strictly increasing, got {self.positions}")
            prev = x
        if self.positions and self.positions[-1] > self.n:
            raise ValueError(f"position {self.positions[-1]} outside universe [1..{self.n}]")

    def complement(self) -> "SubsetIndex":
        return SubsetIndex(complement(self, self.n), self.n)

    def __len__(self) -> int:
        return len(self.positions)

    def __iter__(self):
        return iter(self.positions)


def pair_position(i: int, j: int, n: int) -> int:
    """Flat 1-based position of pair element (i, j) in a 2n universe."""
    if not 1 <= i <= n:
        raise ValueError(f"pair index {i} outside [1..{n}]")
    if j not in (0, 1):
        raise ValueError(f"pair slot must be 0 or 1, got {j}")
    return i + j * n


def _symbols(q, strategy: SamplingStrategy | None = None) -> tuple[int, ...]:
    """The symbols of q; given a strategy, checked against its length and
    its alphabet 0..d-1."""
    sym = q.symbols if isinstance(q, SymbolString) else tuple(map(int, q))
    if strategy is not None:
        if len(sym) != strategy.length:
            raise ValueError(f"string length {len(sym)} != strategy length {strategy.length}")
        if sym and not 0 <= min(sym) <= max(sym) < strategy.d:
            bad = next(x for x in sym if not 0 <= x < strategy.d)
            raise ValueError(f"symbol {bad} outside alphabet [0, {strategy.d})")
    return sym


def _symbol_row(q, strategy: SamplingStrategy) -> np.ndarray:
    """The symbols of q as one int64 row, checked as :func:`_symbols` checks
    them; an integer ndarray is checked with numpy, not as a Python tuple."""
    if not (isinstance(q, np.ndarray) and q.ndim == 1 and q.dtype.kind in "biu"):
        return np.array([_symbols(q, strategy)], dtype=np.int64)
    if len(q) != strategy.length:
        raise ValueError(f"string length {len(q)} != strategy length {strategy.length}")
    outside = (q < 0) | (q >= strategy.d)
    if outside.any():
        raise ValueError(f"symbol {int(q[outside.argmax()])} outside alphabet [0, {strategy.d})")
    return q.astype(np.int64)[None, :]


def _positions(J, n: int | None = None) -> tuple[int, ...]:
    """Normalize an index collection to a sorted tuple of flat 1-based positions."""
    if J is None:
        return ()
    if isinstance(J, SubsetIndex):
        return J.positions
    if iter(J) is J:  # a one-shot iterator: keep its items for a second pass
        J = list(J)
    try:
        flat = sorted(map(int, J))
    except TypeError:  # pair labels, or an item the loop below reports
        flat = []
        for x in J:
            if isinstance(x, tuple):
                if n is None:
                    raise ValueError("pair labels need the pair count n")
                flat.append(pair_position(x[0], x[1], n))
            else:
                flat.append(int(x))
        flat.sort()
    for a, b in zip(flat, flat[1:]):
        if a == b:
            raise ValueError(f"duplicate position {a}")
    return tuple(flat)


def rel_weight(q) -> float:
    """Relative Hamming weight: fraction of non-zero symbols; 0.0 for the empty string."""
    sym = _symbols(q)
    if not sym:
        return 0.0
    return sum(1 for x in sym if x != 0) / len(sym)


def restrict(q, J, n: int | None = None) -> tuple[int, ...]:
    """Restrict a string to the 1-based positions in J, in increasing position order."""
    sym = _symbols(q)
    pos = _positions(J, n)
    if pos and pos[-1] > len(sym):
        raise ValueError(f"position {pos[-1]} outside string of length {len(sym)}")
    return tuple(sym[i - 1] for i in pos)


def complement(J, n: int) -> tuple[int, ...]:
    """Positions of [1..n] not in J."""
    inside = set(_positions(J))
    return tuple(i for i in range(1, n + 1) if i not in inside)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


class _Enumerate:
    """Every outcome with its exact probability, in a fixed order."""

    def subset(self, pool, k):
        prob = Fraction(1, math.comb(len(pool), k))
        return [(x, prob) for x in itertools.combinations(pool, k)]

    def coins(self, pool, p=None):
        m, p = len(pool), None if p is None else _as_written(p)
        probs = [Fraction(1, 2 ** m)] * (m + 1) if p is None else [p ** a * (1 - p) ** (m - a) for a in range(m + 1)]
        kept = [()]  # outcome r keeps pool[i] when bit i of r is set
        for x in pool:
            kept += [c + (x,) for c in kept]
        return [(c, probs[len(c)]) for c in kept]


class _Count(_Enumerate):
    """One outcome per size, weighted by the number of outcomes of that size.

    The weights of the law then sum to its support size, because every later
    draw depends on an earlier outcome only through that outcome's size.
    ``comb`` counts the outcomes; a budget gate that needs only the sizes
    passes `lambda m, k: 1`, since one weight can take seconds (C(10^5, 5 10^4))."""

    def __init__(self, comb=math.comb):
        self.comb = comb

    def subset(self, pool, k):
        return [(tuple(pool[:k]), self.comb(len(pool), k))]

    def coins(self, pool, p=None):  # lazy: a budget gate may stop after a few sizes
        return ((tuple(pool[:a]), self.comb(len(pool), a)) for a in range(len(pool) + 1))


def _sizes(rows: np.ndarray) -> np.ndarray:
    """The entries of each index row that are not padding (summed in int32, twice as fast as int64)."""
    full = rows.min(initial=0) >= 0  # one pass, where rows without padding are common (pair kinds)
    return np.full(len(rows), rows.shape[1]) if full else (rows >= 0).sum(axis=1, dtype=np.int32)


def _index_rows(rows) -> np.ndarray:
    """Tuples of 1-based ints as rows of 0-based ints padded with -1."""
    columns = list(itertools.zip_longest(*rows, fillvalue=0))
    return np.array(columns, dtype=np.int64).reshape(len(columns), len(rows)).T - 1


def _inside(s: tuple, pool, where: str) -> tuple:
    """The seed s, refused unless its elements lie in ``pool`` (named
    ``where``): the estimate reads only t, or the string's pairs."""
    if not set(s) <= set(pool):
        raise ValueError(f"sample {list(s)} outside {where}")
    return s


class _Kind:
    """A built-in strategy kind: its entry in ``_KINDS``, stateless, each
    method taking the strategy.  Each kind defines its (t, s) law, as tuples
    (``law``, see ``SamplingStrategy._law``) and as index rows (``draws``).
    The defaults are a kind's that is permutation invariant, has no seed,
    draws k <= n positions and is counted exactly per size class of (t, s)."""

    takes = ("k",)  # the parameters besides n and d
    pair_indexed, permutation_invariant = False, True

    def check(self, strategy) -> None:  # the kind's own rules, after the shared ones
        if "k" in self.takes and strategy.k > strategy.n:
            raise ValueError(f"{strategy.kind} requires k <= n, got k={strategy.k}, n={strategy.n}")

    def one_orbit(self, strategy) -> bool:  # the law is uniform on one orbit of its group
        return False

    def rows(self, strategy, t: np.ndarray, s: np.ndarray | None, size: np.ndarray) -> tuple:
        """P, W and D of ``SamplingStrategy._rows``, ``size`` the sizes of
        the t rows: f is t's weight, or s's, a repeated draw read twice."""
        P = t if s is None else s
        return P, 1, np.maximum(size if s is None else _sizes(s), 1)

    def stack(self, strategy, columns) -> tuple:  # the t and s rows of SamplingStrategy._stack
        return _index_rows([t for t, *_ in columns]), None

    def column(self, strategy, t: tuple, s):  # the seed of SamplingStrategy._column under the flat t
        return s

    def failure_rows(self, strategy, bound: Fraction, instead):  # lazily, as _failure_rows gives them
        table = _class_table(strategy, bound, instead)
        totals = sum(mult for mult, _ in table) * _binomial_row(strategy.length)
        yield from zip(itertools.count(), totals - sum(mult * acc for mult, acc in table), totals)

    def trial_reads(self, strategy) -> tuple[int, int]:
        """The largest choice of a Monte-Carlo trial and the uint32 reads the
        trial takes, a whole word counting two (:func:`_trial_words`): here
        choice(n, k), Floyd's steps and then the shuffle's."""
        return strategy.k, 2 * strategy.k - 1 - (strategy.k == strategy.n)


class _Seeded(_Kind):
    """The defaults of a kind with a seed: positions inside t."""

    def stack(self, strategy, columns):
        return _index_rows([t for t, *_ in columns]), _index_rows([s for _, s, *_ in columns])

    def column(self, strategy, t, s):
        return _inside(_positions(s), t, f"the subset {t}")


class _Example1(_Kind):
    """Sampling without replacement: t is k of the n positions, uniformly."""

    def one_orbit(self, strategy):
        return True

    def law(self, strategy, pick):
        for t, w in pick.subset(range(1, strategy.n + 1), strategy.k):
            yield t, None, w

    def draws(self, strategy, source):
        return source.choice(strategy.n, strategy.k), None


class _Example2(_Seeded):
    """Sampling with replacement: s is k ordered draws, t the distinct ones."""

    permutation_invariant = False

    def check(self, strategy):  # k may exceed n
        pass

    def law(self, strategy, *_):  # no enumerable law, so no exact path: refused at the call
        raise NotImplementedError(_NO_LAW)

    failure_rows = law

    def draws(self, strategy, source):
        s = source.integers(strategy.n, strategy.k)
        X = np.sort(s, axis=1)
        X[:, 1:][X[:, 1:] == X[:, :-1]] = -1
        return X, s

    def column(self, strategy, t, s):  # in draw order: a repeat counts twice
        if not s:
            raise ValueError("example2 needs the ordered draw sequence as seed")
        return _inside(tuple(map(int, s)), t, f"the subset {t}")

    def trial_reads(self, strategy):
        return 0, strategy.k


class _Example3(_Kind):
    """A uniformly random subset: t keeps each position on a fair coin."""

    takes = ()

    def law(self, strategy, pick):
        for t, w in pick.coins(range(1, strategy.n + 1)):
            yield t, None, w

    def draws(self, strategy, source):  # t: the positions whose coin is 1, as (i + 1) coin_i - 1
        t = source.integers(2, strategy.n)
        t *= np.arange(1, strategy.n + 1)  # in place, as below: a fresh n-wide array costs more
        t -= 1
        return t, None

    def trial_reads(self, strategy):
        return 0, strategy.n


class _Example4(_Seeded):
    """Using part of the sample: s keeps each of k positions t on a coin."""

    def law(self, strategy, pick):
        for t, wt in pick.subset(range(1, strategy.n + 1), strategy.k):
            for s, ws in pick.coins(t):
                yield t, s, wt * ws

    def draws(self, strategy, source):  # s: the elements of sorted t whose coin is 1
        t = np.sort(source.choice(strategy.n, strategy.k), axis=1)
        return t, (t + 1) * source.integers(2, strategy.k) - 1

    def trial_reads(self, strategy):  # choice(n, k), then a coin per element
        picks, reads = super().trial_reads(strategy)
        return picks, reads + strategy.k


class _Example5(_Seeded):
    """Pairwise one-out-of-two: t picks a slot per pair, s reads k pairs."""

    pair_indexed, permutation_invariant = True, False

    def one_orbit(self, strategy):
        return True

    def law(self, strategy, pick):  # pair i contributes i + n when its coin is kept
        n, every = strategy.n, range(1, strategy.n + 1)
        for up, wt in pick.coins(every):
            up = set(up)
            t = tuple(sorted(i + n if i in up else i for i in every))
            for s, ws in pick.subset(every, strategy.k):
                yield t, s, wt * ws

    def draws(self, strategy, source):  # pair i gives slot 1 when its coin is 1
        n = strategy.n
        t = source.integers(2, n)
        t *= n
        t += np.arange(n)
        return t, source.choice(n, strategy.k)

    def rows(self, strategy, t, s, size):  # pair i is read at its element in t, column i
        P = t[np.arange(len(t))[:, None], s]
        P[s < 0] = -1
        return super().rows(strategy, t, P, size)

    def stack(self, strategy, columns):
        t, s = super().stack(strategy, columns)
        t[np.arange(len(t))[:, None], t % strategy.n] = t.copy()  # to pair order: pair i's element in column i
        return t, s

    def column(self, strategy, t, s):  # pairs of the string; a repeat counts twice
        n = strategy.n
        s = _inside(tuple(sorted(map(int, s))), range(1, n + 1), f"string of {n} pairs")
        if sorted((x - 1) % n for x in t) != list(range(n)):
            raise ValueError("example5 subset must pick exactly one element per pair")
        return s

    def failure_rows(self, strategy, bound, instead):
        return _pair_rows(strategy, bound, instead)

    def trial_reads(self, strategy):  # a coin per pair, then choice(n, k)
        picks, reads = super().trial_reads(strategy)
        return picks, reads + strategy.n


class _Example6(_Seeded):
    """Pairwise biased one-out-of-two: t is slot 0 of the pairs a p-coin keeps
    (t0, or t~) and slot 1 of the rest (t1); s is k/2 of each (s0, s1)."""

    takes = ("k", "p")
    pair_indexed, permutation_invariant = True, False

    def check(self, strategy):
        n, k, p = strategy.n, strategy.k, strategy.p
        if not 0.0 < p < 1.0:
            raise ValueError(f"example6 requires 0 < p < 1, got p={p}")
        if k % 2 != 0:
            raise ValueError(f"example6 requires an even k, got k={k}")
        if k // 2 > n:
            raise ValueError(f"example6 requires k/2 <= n, got k={k}, n={n}")

    def one_orbit(self, strategy):
        return strategy.n == 1 and strategy.p == 0.5

    def law(self, strategy, pick):
        n, half, every = strategy.n, strategy.k // 2, range(1, strategy.n + 1)
        for t0, wt in pick.coins(every, strategy.p):
            kept = set(t0)
            t1 = tuple(i + n for i in every if i not in kept)
            for s0, w0 in pick.subset(t0, min(half, len(t0))):
                w0 *= wt
                for s1, w1 in pick.subset(t1, min(half, len(t1))):
                    yield t0 + t1, (s0, s1), w0 * w1

    def draws(self, strategy, source):
        n = strategy.n
        kept = source.random_below(n, strategy.p)
        size0 = kept.sum(axis=1)
        order = np.argsort(~kept, axis=1, kind="stable")  # t0's pairs, then t1's, each ascending
        s = []
        for j, (pool, offset) in enumerate(((size0, 0), (n - size0, size0))):
            X = source.choice(pool, np.minimum(strategy.k // 2, pool))
            pairs = np.take_along_axis(order, np.where(X >= 0, X + np.reshape(offset, (-1, 1)), 0), axis=1)
            s.append(np.where(X >= 0, pairs + j * n, -1))
        t = n * ~kept
        t += np.arange(n)
        return t, np.hstack(s)

    def rows(self, strategy, t, s, size):
        n = strategy.n
        size0 = size - (t >= n).sum(axis=1, dtype=np.int32)  # |t~|, and |tbar_0| = n - |t~|
        slot0 = (s >= 0) & (s < n)
        c0, c1 = (np.maximum(x.sum(axis=1), 1) for x in (slot0, s >= n))
        dtype = _exact_dtype(n * int(c0.max(initial=1)) * int(c1.max(initial=1)))  # D, and E <= D
        c0, c1 = c0.astype(dtype, copy=False), c1.astype(dtype, copy=False)
        return s, np.where(slot0, ((n - size0) * c1)[:, None], (size0 * c0)[:, None]), n * c0 * c1

    def stack(self, strategy, columns):  # (s0, s1) joined
        return _index_rows([t for t, *_ in columns]), _index_rows([s0 + s1 for _, (s0, s1), *_ in columns])

    def column(self, strategy, t, s):  # (s0, s1), or flat: positions <= n are slot 0's, the rest slot 1's
        n = strategy.n
        if isinstance(s, tuple) and len(s) == 2 and all(isinstance(x, (tuple, list)) for x in s):
            s0, s1 = _positions(s[0], n), _positions(s[1], n)
            if s0 and s0[-1] > n or s1 and s1[0] <= n:
                raise ValueError(f"sample {[s0, s1]} outside the slots of t")
            s = s0 + s1
        s = _inside(_positions(s, n), t, f"the subset {t}")
        return tuple(x for x in s if x <= n), tuple(x for x in s if x > n)

    def failure_rows(self, strategy, bound, instead):
        return _pair_type_rows(strategy, bound, instead)

    def trial_reads(self, strategy):  # a whole word per pair, then two choices of at most k / 2
        n, k = strategy.n, strategy.k
        return min(k // 2, n - n // 2), 2 * n + 2 * k - 2


_KINDS = {
    "example1": _Example1(),
    "example2": _Example2(),
    "example3": _Example3(),
    "example4": _Example4(),
    "example5": _Example5(),
    "example6": _Example6(),
}
STRATEGY_KINDS = tuple(_KINDS)

# A strategy's parameters in the order they are checked: (name, what a refusal
# calls it when missing, when not taken and when below its least value; that
# value, None for a float that its kind's rule bounds).
_PARAMETERS = (
    ("n", "parameter n", None, "n", 1),
    ("d", "parameter d", None, "alphabet size d", 2),
    ("p", "the selection bias p", "selection bias p", None, None),
    ("k", "parameter k", "sample size k", "k", 1),
)


@dataclass(frozen=True)
class SamplingStrategy:
    """A sampling strategy: subset law, seed law, and estimator.

    A strategy is its definition, checked on construction: a built-in kind
    by its parameters, as :func:`make_strategy` states them, a custom one by
    its (t, s, probability) table and estimator, as :func:`custom_strategy`
    states them.  ``n`` is the pair count for pair-indexed kinds (strings
    then have length 2n) and the string length otherwise.  Seeds may
    condition on the drawn subset internally; they are exposed as one joint
    (t, s) draw.  Two strategies are equal when their definitions are.  A
    strategy is frozen: its fields cannot be assigned after construction,
    so the support and rows derived from them always match them.

    Attributes
    ----------
    kind : str
        One of the built-in kinds or "custom".
    n, k, p, d : the parameters, as int n, k, d and float p.
    pattern_invariant : bool
        Whether the estimator sees symbols only through their zero pattern:
        True on a built-in kind, False by default on a custom one.
    estimator, table : a custom strategy's estimator and its (t, s,
        probability) triples: flat 1-based subsets, seeds and exact Fractions.
    """

    kind: str
    n: int | None = None
    k: int | None = None
    p: float | None = None
    d: int = 2
    pattern_invariant: bool | None = None
    estimator: Callable | None = field(default=None, repr=False)
    table: tuple | None = field(default=None, repr=False)
    # derived, outside the definition: _draw_p set on construction, the support
    # and its rows on first use, by object.__setattr__ (reading __dict__, as
    # functools.cached_property does, slows every attribute load of the
    # instance on CPython 3.11)
    _support: list | tuple | None = field(default=None, init=False, repr=False, compare=False)
    _support_rows: tuple | None = field(default=None, init=False, repr=False, compare=False)  # (A, D, R, G)
    _draw_p: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)  # custom draws

    def __post_init__(self):
        kind, set_ = self.kind, partial(object.__setattr__, self)  # the instance is frozen
        if kind == "custom":
            if self.estimator is None or self.table is None:
                raise ValueError("a custom strategy needs a (t, s, probability) table and an estimator")
            set_("table", tuple((_positions(t), s, Fraction(prob)) for t, s, prob in self.table))
            if any(prob < 0 for *_, prob in self.table):
                raise ValueError("probabilities must be non-negative")
            total = sum(prob for *_, prob in self.table)
            if total != 1:
                raise ValueError(f"support probabilities must sum to 1, got {total}")
            weights = np.array([float(prob) for *_, prob in self.table])
            set_("_draw_p", weights / weights.sum())
        elif kind not in _KINDS:
            raise ValueError(f"unknown strategy kind {kind!r}; expected one of {STRATEGY_KINDS}")
        elif self.estimator is not None or self.table is not None or self.pattern_invariant not in (None, True):
            raise ValueError(f"{kind} takes no estimator, table or pattern_invariant=False")
        set_("pattern_invariant", kind != "custom" or bool(self.pattern_invariant))
        takes = ("n", "d", *(() if kind == "custom" else _KINDS[kind].takes))
        for name, missing, unwanted, label, least in _PARAMETERS:
            value = getattr(self, name)
            if (value is None) == (name in takes):
                raise ValueError(f"{kind} requires {missing}" if value is None else f"{kind} takes no {unwanted}")
            if value is None:
                continue
            number = float(value) if least is None else int(value)
            if least is not None and number != value:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if least is not None and number < least:
                raise ValueError(f"{label} must be >= {least}, got {number}")
            set_(name, number)
        if kind == "custom":
            for t, *_ in self.table:
                self.flatten_subset(t)
        else:
            _KINDS[kind].check(self)

    @property
    def pair_indexed(self) -> bool:
        """Whether strings are indexed by [n] x {0, 1}."""
        return self.kind != "custom" and _KINDS[self.kind].pair_indexed

    @property
    def permutation_invariant(self) -> bool:
        """Whether the per-string failure probability depends on the string
        only through its Hamming weight (enables weight-class enumeration)."""
        return self.kind != "custom" and _KINDS[self.kind].permutation_invariant

    @property
    def length(self) -> int:
        """Length of the strings the strategy samples from."""
        return 2 * self.n if self.pair_indexed else self.n

    # -- the (t, s) law -----------------------------------------------------

    def _draws(self, source) -> tuple[np.ndarray, np.ndarray | None]:
        """The built-in (t, s) laws, drawn: one row of t and of s per trial
        of ``source`` (a :class:`_Words` or :class:`_Calls`), padded with -1.
        A t row holds t's 0-based positions, on the pair-indexed kinds pair
        i's in column i; an s row the seed's 0-based positions (pairs on
        example5; None without a seed), ordered as :meth:`sample_ts` reads
        them."""
        return _KINDS[self.kind].draws(self, source)

    def _law(self, pick):
        """Yield (t, s, weight) per outcome: the laws of :meth:`_draws` as
        tuples, for ``ts_support``, support sizes and the counted classes
        (enumerating through :meth:`_draws` gave the same lists at 5 to 34
        times the cost at the benchmark's sizes: example5 n=3 k=2 took 364 us
        against 77, the counted example4 n=8 k=3 134 us against 4).  ``pick``
        interprets two draws, each yielding (outcome, weight) pairs:
        subset(pool, k), k elements of pool, uniformly, sorted; coins(pool,
        p), each element kept with probability p (fair if None).  _Enumerate
        reads the product of the weights as the exact probability of an
        outcome, _Count as a number of outcomes.  Sampling with replacement
        (example2) has no enumerable support."""
        return _KINDS[self.kind].law(self, pick)

    def support_size(self) -> int:
        """Number of (t, s) pairs with positive probability."""
        if self.kind == "custom":
            return len(self.table)
        return sum(w for _, _, w in self._law(_Count()))

    def ts_support(self) -> Sequence[tuple[tuple, object, Fraction]]:
        """All (t, s, probability) triples; probabilities are exact Fractions summing to 1."""
        if self._support is None:
            object.__setattr__(self, "_support", self.table if self.kind == "custom" else list(self._law(_Enumerate())))
        return self._support

    def sample_ts(self, rng: np.random.Generator) -> tuple[tuple, object]:
        """Draw one (t, s) pair.  A built-in kind makes the Generator calls
        that trial i of :func:`eps_class_mc` makes on
        ``default_rng((rng_seed, i))``: :meth:`_draws` on ``rng`` alone."""
        if self.kind == "custom":
            return self.table[rng.choice(len(self.table), p=self._draw_p)][:2]
        rows = self._draws(draws._Calls([rng]))
        return self._column(*(None if x is None else [i + 1 for i in x[0].tolist() if i >= 0] for x in rows))

    # -- estimation ---------------------------------------------------------

    def _rows(self, t: np.ndarray, s: np.ndarray | None) -> tuple[np.ndarray, ...]:
        """The built-in estimators: for the index rows t and s of :meth:`_draws`,
        (P, W, D, A) with f(t, q|t, s) = sum_j W[r, j] z[P[r, j]] / D[r] on
        row r and z = (q != 0), and the true value's A = max(|tbar|, 1).  P is
        t itself when f is t's weight; W is 1 when every weight is."""
        size = _sizes(t)
        return (*_KINDS[self.kind].rows(self, t, s, size), np.maximum(self.length - size, 1))

    def _column(self, t, s) -> tuple:
        """A (t, s) given by a caller or drawn by :meth:`sample_ts`, checked
        and put in the form ``ts_support`` gives: t flat and inside the
        string, a seed inside t (pairs of the string on example5, whose
        subset must pick one element per pair), split into its slots (s0,
        s1) on example6."""
        flat = self.flatten_subset(t)
        return flat, s if self.kind == "custom" else _KINDS[self.kind].column(self, flat, s)

    def _stack(self, columns) -> tuple[np.ndarray, ...]:
        """The t rows and the rows (P, W, D, A) of :meth:`_rows` for
        (t, s, ...) columns in the form ``ts_support`` gives them, unchecked:
        the package's own support, its _Count representatives, ``sample_ts``
        draws, or a caller's columns put in that form by :meth:`_column`."""
        t, s = _KINDS[self.kind].stack(self, columns)
        return (t, *self._rows(t, s))

    def estimate_frac(self, q, t, s) -> Fraction:
        """The estimate f(t, q|t, s) as an exact Fraction."""
        _, D, _, E = _cell(self, q, t, s)
        return Fraction(E[0, 0]) / int(D[0])

    def flatten_subset(self, t) -> tuple[int, ...]:
        """Normalize a subset given as positions or, on a pair-indexed kind,
        (i, j) pair labels; every position must lie in 1..length."""
        flat = _positions(t, self.n if self.pair_indexed else None)
        if flat and not 1 <= flat[0] <= flat[-1] <= self.length:
            raise ValueError(f"subset {list(flat)} outside string of length {self.length}")
        return flat


# -- constructors -----------------------------------------------------------


def make_strategy(kind: str, params: Mapping | None = None, **kwargs) -> SamplingStrategy:
    """Build one of the six built-in strategies.

    Parameters
    ----------
    kind : str
        One of "example1" .. "example6".
    params : mapping, optional
        Parameter dict with keys among {"n", "k", "p", "d"}; keyword arguments
        are merged on top.

    Raises
    ------
    ValueError
        On an unexpected key, an unknown kind or a parameter violating its
        constraint (checked by :class:`SamplingStrategy`); the message names
        the violated constraint.
    """
    merged = {**(params or {}), **kwargs}
    extra = set(merged) - {"n", "k", "p", "d"}
    if extra:
        raise ValueError(f"unexpected parameters {sorted(extra)} for {kind}")
    return SamplingStrategy(kind, **merged)


def custom_strategy(
    n: int,
    support: Iterable[tuple[Iterable[int], object, Fraction]],
    estimator: Callable,
    d: int = 2,
    pattern_invariant: bool = False,
) -> SamplingStrategy:
    """Build a strategy from an explicit (t, s, probability) table.

    ``estimator(t, q_t, s)`` receives the flat 1-based subset, the restricted
    symbols, and the seed, and returns the estimate as a number.  Exact
    enumeration iterates over all d^n strings unless ``pattern_invariant``
    declares the estimator blind to the distinction between non-zero symbols.
    Probabilities must be non-negative and sum to 1, and every subset must
    lie inside positions 1..n; both are checked when the strategy is built.
    """
    return SamplingStrategy("custom", n, d=d, pattern_invariant=pattern_invariant, estimator=estimator, table=support)


# ---------------------------------------------------------------------------
# pointwise operations
# ---------------------------------------------------------------------------


def estimate(strategy: SamplingStrategy, q, t, s=None) -> float:
    """Evaluate the estimator f(t, q|t, s)."""
    return float(strategy.estimate_frac(q, t, s))


def deviation(strategy: SamplingStrategy, q, t, s=None) -> Fraction:
    """|relwt(q|tbar) - f(t, q|t, s)| as an exact Fraction."""
    A, D, T, E = _cell(strategy, q, t, s)
    return abs(Fraction(int(T[0, 0]), int(A[0])) - Fraction(E[0, 0]) / int(D[0]))


def in_accept_set(strategy: SamplingStrategy, q, t, s, delta: float) -> bool:
    """Strict accept test: deviation < delta; a tie at exactly delta rejects."""
    A, D, T, E = _cell(strategy, q, t, s)
    return not _tie_rule(A, D, _exact_delta(delta), fractions=strategy.kind == "custom")(T, E)[0, 0]


def _cell(strategy: SamplingStrategy, q, t, s) -> tuple[np.ndarray, ...]:
    """A, D, T and E of the one-column :func:`_table` of the one string q
    under (t, s), q checked first as :func:`failure_probability` checks it,
    then (t, s) (see ``SamplingStrategy._column``)."""
    string = _symbol_row(q, strategy)
    A, D, blocks = _table(strategy, [strategy._column(t, s)], lambda lo, hi: string, 1)
    ((_, T, E),) = blocks
    return A, D, T, E


def _as_written(x) -> Fraction:
    """A delta or a bias p as written: a float 0.1 is 1/10; a Fraction is kept."""
    return x if isinstance(x, Fraction) else Fraction(repr(float(x)))


def _exact_delta(delta) -> Fraction:
    """Check 0 < delta < 1; return delta as written (:func:`_as_written`)."""
    if not 0.0 < float(delta) < 1.0:
        raise ValueError(f"delta must satisfy 0 < delta < 1, got {delta}")
    return _as_written(delta)


# The (string, (t, s)) table is built in blocks of at most this many cells, so
# its arrays stay a few MB whatever the sizes.
_BLOCK_CELLS = 1 << 18
# A built-in kind's dense table is decided in float64 products over this
# many of those blocks at once (8 MB): a product over few strings repacks the
# g rows for each, and example4 n = 12, k = 6 (59136 columns, 4 strings a
# block) took 1.36 s with start-up in products of one block, 1.1 s in fours
# (2-core Xeon, OpenBLAS).  The blocks yielded stay _BLOCK_CELLS wide.
_PRODUCT_BLOCKS = 4
# Monte-Carlo decides at most this many trials at once: capped by cells
# alone, a block on short strings would hold ~10^5 trials, several MB of
# draws (or of a custom strategy's (t, s) tuples).  Each block pays a fixed
# cost in array calls, so 700 trials (2-core Xeon, medians of 5 interleaved
# runs) took 1.59, 1.27 and 0.93 ms in blocks of 256, 512 and 1024 on
# example2 n = 100, k = 20 (12 words a trial), and 4.40, 3.81 and 3.11 ms on
# example6 n = 40, k = 10 (51 words); 2048 and 4096 were no faster there.
# At 20 000 trials 2048 was about 10% faster than 1024 on kinds 1, 2, 4, 5
# and 6, but its blocks peak at about twice the memory (2.3 MB traced on
# example6 n = 40 against 1.2 MB).
_MC_BLOCK_TRIALS = 1024


def _exact_dtype(bound: int):
    """The dtype of integer arrays whose values stay within ``bound`` in
    magnitude: int64 below 2^63, else Python ints (object), since int64
    would wrap."""
    return np.int64 if bound < 1 << 63 else object


def _dense_rows(strategy: SamplingStrategy, columns) -> tuple[np.ndarray, ...]:
    """A, D and the rows R of (t, s, ...) columns in the form ts_support()
    gives them, read unchecked (see ``SamplingStrategy._stack``): the rows
    1_tbar, then the rows w, so that a 0/1 string z has T = z . 1_tbar and
    E = z . w; in Python ints once a D reaches 2^63.  A custom estimator's
    only form is its callable: its w is 0 and D is 1."""
    m, L = len(columns), strategy.length
    if strategy.kind == "custom":
        t, D = _index_rows([t for t, *_ in columns]), np.ones(m, dtype=np.int64)
        A = np.maximum(L - _sizes(t), 1)
    else:
        t, P, W, D, A = strategy._stack(columns)
    rows = np.arange(m)[:, None]
    R = np.zeros((2 * m, L + 1), dtype=_exact_dtype(int(D.max(initial=0))))  # column L takes the padding
    R[:m] = 1  # the rows 1_tbar: ones, less one scatter of every t
    R[rows, t] = 0
    if strategy.kind != "custom":  # the rows w: one scatter-add of every row's weights
        np.add.at(R[m:], (rows, P), W)
    return A, D, R[:, :L]


def _g_rows(A: np.ndarray, D: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The row g = D 1_tbar - A w of each column of :func:`_dense_rows`, so
    that a 0/1 string z has z . g = T D - E A.  As |tbar| <= A and w sums
    to at most D, each row's sum of |g| stays within 2 A D: g is int64
    below 2^63, else Python ints."""
    m = len(A)
    dtype = _exact_dtype(2 * int(A.max(initial=0)) * int(D.max(initial=0)))
    A, D, R = (x.astype(dtype, copy=False) for x in (A, D, R))
    return D[:, None] * R[:m] - A[:, None] * R[m:]


def _rows(strategy: SamplingStrategy, columns) -> tuple[np.ndarray, ...]:
    """A, D and R of :func:`_dense_rows` and G of :func:`_g_rows` for the
    columns; those of ``ts_support()`` itself are built once and kept on
    the strategy."""
    support = columns is strategy._support
    if support and strategy._support_rows is not None:
        return strategy._support_rows
    A, D, R = _dense_rows(strategy, columns)
    rows = A, D, R, _g_rows(A, D, R)
    if support:
        object.__setattr__(strategy, "_support_rows", rows)
    return rows


def _table(strategy: SamplingStrategy, columns, strings, count: int):
    """A, D and the blocks (lo, T, E) of the exact true values T / A and
    estimates E / D of strings 0..count-1 of ``strings(lo, hi)`` (rows) under
    the (t, s, ...) columns, in the form ts_support() gives them: products
    of z with the rows R of :func:`_rows` (E <= D, see :func:`_tie_rule`);
    a custom estimator's E holds Fractions over 1."""
    A, D, R, _ = _rows(strategy, columns)
    custom = [(t, s) for t, s, *_ in columns] if strategy.kind == "custom" else None

    def blocks():
        step = max(1, _BLOCK_CELLS // max(len(columns), 1))
        for lo in range(0, count, step):
            block = strings(lo, min(lo + step, count))
            T, E = np.split((block != 0).astype(R.dtype) @ R.T, 2, axis=1)
            if custom is not None:
                E = [[Fraction(strategy.estimator(t, tuple(q[i - 1] for i in t), s)) for t, s in custom]
                     for q in block.tolist()]
                E = np.array(E, dtype=object)
            yield lo, T, E.reshape(T.shape)

    return A, D, blocks()


def _reject_threshold(bound: Fraction, A, D):
    """ceil(bound A D): for ints T and E, |T D - E A| / (A D) >= bound iff
    |T D - E A| reaches it.  Elementwise on int64 or object arrays, exact on
    Python ints."""
    return -(-bound.numerator * (A * D) // bound.denominator)


def _wide(bound: Fraction, A: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A and D in int64, or in Python ints where p A D or q (bound = p / q)
    can reach 2^63, so that :func:`_reject_threshold` and every product of
    A or D with a T <= A or an E <= D are exact."""
    dtype = _exact_dtype(max(bound.numerator * int(A.max(initial=0)) * int(D.max(initial=0)), bound.denominator))
    return A.astype(dtype, copy=False), D.astype(dtype, copy=False)


def _tie_rule(A: np.ndarray, D: np.ndarray, bound: Fraction, fractions: bool = False):
    """The reject test of true values T / A against estimates E / D: a
    function of (T, E) saying, elementwise and exactly, that the deviation is
    at least ``bound`` (a tie rejects).  ``fractions``: E holds Fractions
    over D = 1 (a custom estimator), compared with bound * A.  Otherwise
    0 <= T <= A and 0 <= E <= D (a relative weight and its estimate lie in
    [0, 1]), so T D and E A lie in [0, A D]: the test runs in int64, or in
    Python ints where p A D or q (bound = p / q) can reach 2^63.  It decides
    Monte-Carlo trials, single cells and custom strategies; the dense table
    of a built-in kind is decided by :func:`_g_rule`, whose oracle it is."""
    if fractions:
        threshold = np.array([bound * int(a) for a in A], dtype=object)
    else:
        A, D = _wide(bound, A, D)
        threshold = _reject_threshold(bound, A, D)
    return lambda T, E: (np.abs(T * D - E * A) >= threshold).astype(bool)


def _g_rule(G: np.ndarray, A: np.ndarray, D: np.ndarray, bound: Fraction):
    """The reject test of :func:`_tie_rule` in one product: a function of
    0/1 string rows Z saying, elementwise and exactly, |Z_i . g_j| >= c_j
    for the rows G of :func:`_g_rows` and c = ceil(bound A D), since
    z . g = T D - E A (a tie rejects).  Every partial sum of Z_i . g_j is
    an integer within max_j sum |g_j| in magnitude, so while that and max c
    stay below 2^53 the product runs in float64 (BLAS), exact whatever the
    order or the number of threads it sums in; past that, in int64 or
    Python ints as :func:`_exact_dtype` says."""
    c = _reject_threshold(bound, *_wide(bound, A, D))
    top = max(int(np.abs(G).sum(axis=1).max(initial=0)), int(c.max(initial=0)))
    dtype = np.float64 if top < 1 << 53 else _exact_dtype(top)
    G, c = G.T.astype(dtype), c.astype(dtype)

    def rejects(Z):
        product = Z.astype(dtype) @ G
        return np.abs(product, out=product) >= c

    return rejects


def _reject_blocks(strategy: SamplingStrategy, columns, strings, count: int, bound: Fraction):
    """Yield (lo, reject): reject[i, j] says that string lo + i of
    ``strings(lo, hi)`` deviates by at least ``bound`` under column j, the
    columns in the form ts_support() gives them, decided exactly.  A
    built-in kind decides a block of strings z in one product with its g
    rows, |z . g| >= ceil(bound A D) (:func:`_g_rule`); a custom
    estimator, whose E comes from its callable, by :func:`_table` and
    :func:`_tie_rule`."""
    if strategy.kind == "custom":
        A, D, blocks = _table(strategy, columns, strings, count)
        rejects = _tie_rule(A, D, bound, fractions=True)
        for lo, T, E in blocks:
            yield lo, rejects(T, E)
        return
    A, D, _, G = _rows(strategy, columns)
    rejects = _g_rule(G, A, D, bound)
    step = max(1, _BLOCK_CELLS // max(len(columns), 1))  # _table's blocks, which ideal_distance sums in order
    for start in range(0, count, step * _PRODUCT_BLOCKS):
        reject = rejects(strings(start, min(start + step * _PRODUCT_BLOCKS, count)) != 0)
        for i in range(0, len(reject), step):
            yield start + i, reject[i : i + step]


def failure_probability(strategy: SamplingStrategy, q, delta: float) -> Fraction:
    """Exact Pr[q not in B(T, S, delta)] for one fixed string q."""
    bound = _exact_delta(delta)
    string = _symbol_row(q, strategy)
    _refuse("failure probability", strategy.support_size())
    support = strategy.ts_support()
    ((_, reject),) = _reject_blocks(strategy, support, lambda lo, hi: string, 1, bound)
    return sum((p for (_, _, p), r in zip(support, reject[0]) if r), Fraction(0))


# ---------------------------------------------------------------------------
# error probabilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorEstimate:
    """Result of an error-probability computation.

    Attributes
    ----------
    value : float
        The error probability (exact mode: a ratio of integer counts).
    mode : str
        "exact" or "monte-carlo".
    trials : int or None
        Sample count in Monte-Carlo mode.
    confidence_halfwidth : float or None
        99% two-sided Hoeffding halfwidth sqrt(ln(2/0.01) / (2 * trials)).
    worst_case_string : SymbolString or None
        A maximizing string (exact mode only).
    """

    value: float
    mode: str
    trials: int | None = None
    confidence_halfwidth: float | None = None
    worst_case_string: SymbolString | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "monte-carlo"):
            raise ValueError(f"mode must be 'exact' or 'monte-carlo', got {self.mode!r}")
        if not -1e-12 <= self.value <= 1 + 1e-12:
            raise ValueError(f"value must lie in [0, 1], got {self.value}")


def mc_halfwidth(trials: int) -> float:
    """99% two-sided Hoeffding confidence halfwidth for a given trial count."""
    return math.sqrt(math.log(2 / 0.01) / (2 * trials))


def _digits(lo: int, hi: int, d: int, length: int) -> np.ndarray:
    """Strings lo..hi-1 of itertools.product(range(d), repeat=length), as rows."""
    index = np.arange(lo, hi, dtype=np.int64)[:, None]
    return index // d ** np.arange(length - 1, -1, -1, dtype=np.int64) % d


def _integer_weights(support) -> tuple[int, np.ndarray]:
    """P(t, s) exactly as Python-int weights over one scale: (scale, weights)."""
    scale = math.lcm(*(p.denominator for _, _, p in support))
    return scale, np.array([p.numerator * (scale // p.denominator) for _, _, p in support], dtype=object)


def _candidates(strategy: SamplingStrategy, lo: int, hi: int) -> np.ndarray:
    """Candidate strings lo..hi-1, whose maximum equals the maximum over all strings."""
    L = strategy.length
    if strategy.permutation_invariant:
        # weight classes: L+1 representatives 0..01..1 instead of d^L strings
        return (np.arange(L) >= L - np.arange(lo, hi)[:, None]).astype(np.int64)
    if strategy.pattern_invariant:
        return _digits(lo, hi, 2, L)
    return _digits(lo, hi, strategy.d, L)[:, ::-1]


def _candidate_count(strategy: SamplingStrategy) -> int:
    L = strategy.length
    if strategy.permutation_invariant:
        return L + 1
    if strategy.pattern_invariant:
        return 2 ** L
    return strategy.d ** L


def eps_class_exact(strategy: SamplingStrategy, delta: float) -> ErrorEstimate:
    """Exact worst-case error probability, maximized over all strings.

    The candidates are the Hamming-weight classes when the strategy declares
    permutation invariance, the zero patterns when the estimator is
    pattern-invariant, and all d^n strings otherwise; the witness is the
    first maximizing candidate in that order.  The kind's exact path yields
    failure rows, a row per class of strings (:func:`_failure_rows`), and
    :func:`_worst_case` takes their first maximum.  The permutation-invariant
    kinds draw (t, s) uniformly and are counted per size class of (t, s)
    (:func:`_class_table`), example5 per class of its numbers of 11 and of
    mixed pairs (:func:`_pair_rows`), example6 per class of its numbers of
    00, 01, 10 and 11 pairs (:func:`_pair_type_rows`), each from binomials
    and hypergeometric tail counts (:func:`_window`, :func:`_binomial_row`,
    :func:`_tail_table`); a custom strategy decides every (candidate, (t, s))
    cell of the integer table (:func:`_enumerated_rows`).  Every path's
    value is the float of an exact Fraction.  Refuses strategies without an
    enumerable (t, s) law and work beyond the evaluation budget, charged
    before any loop.
    """
    value, witness = _worst_case(strategy, _failure_rows(strategy, _exact_delta(delta)))
    return ErrorEstimate(
        value=float(value),
        mode="exact",
        worst_case_string=SymbolString(witness, strategy.d),
    )


def _failure_rows(strategy: SamplingStrategy, bound: Fraction, instead="eps_class_mc"):
    """The exact failure rows (key, failed, total) of eps_class_exact's
    path, its kind's entry's (a custom strategy's are enumerated):
    Pr[fail] = failed / total on a class of strings whose least is
    candidate ``key`` of :func:`_candidates`; a counted row is weight w's
    rejections among its S C(L, w) (string, (t, s)) pairs, S the support
    size.  The rows are lazy, so the gate and the work start with the
    first; a kind with no exact path (example2) refuses at the call.
    ``instead`` names a refusal's sampled alternative, if any."""
    if strategy.kind == "custom":
        return _enumerated_rows(strategy, bound, instead)
    return _KINDS[strategy.kind].failure_rows(strategy, bound, instead)


def _worst_case(strategy: SamplingStrategy, rows) -> tuple[Fraction, tuple[int, ...]]:
    """(max Pr[fail], first maximizing string) of failure rows (key,
    failed, total): the ratios are compared exactly by cross-multiplication,
    a tie going to the least key, and the witness is that key's candidate."""
    key, failed, total = None, -1, 1
    for row_key, row_failed, row_total in rows:
        # rows of one total (all of example5's, all of example6's) skip the products
        order = row_failed - failed if row_total == total else row_failed * total - failed * row_total
        if order > 0 or order == 0 and row_key < key:
            key, failed, total = row_key, row_failed, row_total
    return Fraction(failed, total), _candidate(strategy, key)


def _candidate(strategy: SamplingStrategy, index: int) -> tuple[int, ...]:
    """Candidate ``index`` of :func:`_candidates`; a zero pattern from the
    index's binary digits, which pass int64 on example5 from 32 pairs on."""
    if strategy.pattern_invariant and not strategy.permutation_invariant:
        return tuple(map(int, format(index, f"0{strategy.length}b")))
    return tuple(_candidates(strategy, index, index + 1)[0].tolist())


def _enumerated_rows(strategy: SamplingStrategy, bound: Fraction, instead="eps_class_mc"):
    """Failure rows from every cell of the (candidate, (t, s)) table: per
    block of candidates, its first maximum (index, scale * Pr[fail], scale)."""
    count = _candidate_count(strategy)
    _refuse("exact enumeration", count, strategy.support_size, instead=instead)
    support = strategy.ts_support()
    scale, weights = _integer_weights(support)
    for lo, reject in _reject_blocks(strategy, support, partial(_candidates, strategy), count, bound):
        failed = reject @ weights  # scale * Pr[fail], exact Python ints
        i = int(np.argmax(failed))
        yield lo + i, failed[i], scale


# A count vector costs a product and a sum of Python ints of ~L/3 digits:
# 0.2-0.4 us up to L = 1000 and about linear in L beyond (3 us at L = 4000,
# 2-core Xeon, Python 3.11), so each is charged ceil(L / 1000) evaluations.
_COUNT_LENGTH_UNIT = 1000


def _class_table(strategy: SamplingStrategy, bound: Fraction, instead="eps_class_mc") -> list[tuple]:
    """The exact per-class table of a permutation-invariant kind: per size
    class of (t, s), (mult, acc) with mult the class size and acc[w] =
    acc(class, w), w = 0..L, the number of weight-w strings its _Count
    representative accepts.  Its (t, s) are uniform over the support, and
    every size class is the orbit of its representative under position
    permutations, so each member accepts as many weight-w strings.  Each
    count vector is charged ceil(L / 1000) evaluations before any is summed;
    ``instead`` names the refusal's sampled alternative, if any."""
    L = strategy.length
    classes, cost, unit = [], 0, -(-L // _COUNT_LENGTH_UNIT)
    law, step = strategy._law(_Count(lambda m, k: 1)), max(1, _BLOCK_CELLS // L)
    chunk = list(itertools.islice(law, step))
    while chunk:  # a chunk ahead, to tell a running sum from the whole cost
        following = list(itertools.islice(law, step))
        for i, (cells, threshold) in enumerate(_class_cells(strategy, chunk, bound)):
            cost += math.prod(m + 1 for _, m in cells) * unit
            more = bool(following) or i + 1 < len(chunk)  # stops a long law early
            _refuse("exact enumeration", cost, instead=instead, at_least=more)
            classes.append((cells, threshold))
        chunk = following
    mults = [mult for _, _, mult in strategy._law(_Count())]
    rows = {m: _binomial_row(m) for cells, _ in classes for _, m in cells}  # once per cell size
    return [(mult, _accepted_counts(*cls, L, rows)) for mult, cls in zip(mults, classes)]


def _pair_rows(strategy: SamplingStrategy, bound: Fraction, instead="eps_class_mc"):
    """Example5's failure rows, one per pair class.  Its law is invariant
    under permuting the pairs and swapping the slots of a pair, so a 0/1
    string matters only through a, its number of 11 pairs, and b, its mixed
    pairs.  The coins pick the 1 of j ~ Bin(b, 1/2) mixed pairs, so
    u = a + j ones are picked and v = a + b - j are not; the k sampled pairs
    read X ~ Hyp(n, u, k) picked ones, and the trial fails iff
    |v k - X n| >= ceil(bound n k) (:func:`_reject_threshold` with A = n, D = k).
    With F[u, v] the number of failing k-subsets,

        Pr[fail | a, b] = sum_j C(b, j) F[a + j, a + b - j] / (2^b C(n, k)).

    F's diagonals u + v = 2a + b are read one at a time from the tail table
    of (n, k) by X's window per v (:func:`_tail_table`), so memory stays
    O(n k), and the sums run along each by Pascal's rule: b steps of
    T[i] += T[i + 1] give the sums of every class with that b, in n^3 / 3
    additions of exact ints (at n = 600 a quarter of the time that the
    n^3 / 6 products of binomials took).
    A row's key indexes the class's least string, whose ones are slot 0's
    on pairs n-a+1..n and slot 1's on pairs n-a-b+1..n; its failed and total
    are 2^n C(n, k) Pr[fail | a, b] and 2^n C(n, k)."""
    n, k = strategy.n, strategy.k
    steps = math.comb(n + 2, 3) + math.comb(n + 1, 3) + (n + 1) * (n + k + 2)  # Pascal; F and its tail table
    _refuse("exact enumeration", steps * -(-2 * n // _COUNT_LENGTH_UNIT), instead=instead)
    P = _tail_table(n, k)
    lo, hi = _window(np.arange(n + 1) * -k, n, _reject_threshold(bound, n, k), k)  # per v: |X n - v k| < threshold
    total = math.comb(n, k) << n
    for s in range(2 * n + 1):
        least = max(0, s - n)  # the least a, and the least u on the diagonal
        u = np.arange(least, min(s, n) + 1)
        T = P[u, lo[s - u]] + P[u, k + 1] - P[u, hi[s - u]]  # F[u, s - u]
        for b in range(s - 2 * least + 1):  # T[i] = sum_j C(b, j) F[least + i + j, s - least - i - j]
            a, odd = divmod(s - b, 2)
            if not odd:
                yield ((1 << a) - 1 << n) + (1 << a + b) - 1, T[a - least] << n - b, total
            T = T[:-1] + T[1:]


def _pair_type_rows(strategy: SamplingStrategy, bound: Fraction, instead="eps_class_mc"):
    """Example6's failure rows, one per pair-type class.  Its law is
    invariant under permuting the pairs (not under swapping a pair's slots:
    its coins are biased), so a 0/1 string matters only through its counts
    n_ab of pairs of type ab, slot 0 reading a and slot 1 reading b.  The
    kept counts k_ab ~ Bin(n_ab, p) fix S = |t~| = sum k_ab, the ones
    u0 = k10 + k11 on t0 and u1 = n01 + n11 - k01 - k11 on t1, and the true
    count T = n10 + n11 + k01 - k10 on tbar (A = n).  The halves s0 and s1,
    of c0 = min(k/2, S) and c1 = min(k/2, n - S) elements, read X0 ~ Hyp(S,
    u0, c0) and X1 ~ Hyp(n - S, u1, c1) ones, and the trial fails iff
    |T D - E n| >= ceil(bound n D) with D = n c0' c1', E = (n - S) c1' X0
    + S c0' X1 and c' = max(c, 1) (see ``SamplingStrategy._rows``).  With p
    = a / b as written and F the number of failing (s0, s1),

        Pr[fail | n_ab] = sum_k prod_ab C(n_ab, k_ab) H(S, T, u0, u1) / (b^n L),
        H = a^S (b - a)^(n - S) F(S, T, u0, u1) L / (C(S, c0) C(n - S, c1)),

    L the lcm over S of C(S, c0) C(n - S, c1), so every row's total is
    b^n L.  F sums over X0 the s0 with that X0 times the failing s1, read
    from two tail tables (:func:`_tail_table`), for all (T, u0, u1) of an S
    at once.  The sum over k00 is taken for every n00 at once, by Pascal's
    rule along S (H's rows over S, one step per n00), which leaves a sum
    over (k01, k10, k11) per class.  A row's key indexes the class's least
    string, whose slot-0 ones sit on pairs n-n10-n11+1..n and slot-1 ones on
    pairs n-n10-n11-n01+1..n-n10-n11 and n-n11+1..n.  Each (class,
    kept-count vector), C(n + 7, 7) in all, is charged ceil(2n / 1000)
    evaluations before any loop."""
    n, half = strategy.n, strategy.k // 2
    _refuse("exact enumeration", math.comb(n + 7, 7) * -(-2 * n // _COUNT_LENGTH_UNIT), instead=instead)
    a, b = _as_written(strategy.p).as_integer_ratio()  # p = a / b, as _Enumerate.coins reads it
    binomial = [_binomial_row(m).tolist() for m in range(n + 1)]
    tails = [_tail_table(m, min(half, m)) for m in range(n + 1)]
    sizes = [(min(half, S), min(half, n - S)) for S in range(n + 1)]
    ways = [binomial[S][c0] * binomial[n - S][c1] for S, (c0, c1) in enumerate(sizes)]
    scale = math.lcm(*ways)
    H = [[[] for _ in range(n + 1)] for _ in range(n + 1)]  # H[T][u0][S - u0][u1], S = u0..n, u1 = 0..n - S
    T = np.arange(n + 1)[:, None]  # T D and A0 c0 reach n D, far below 2^63 at any n whose H fits in memory
    for S, (c0, c1) in enumerate(sizes):
        weight = a ** S * (b - a) ** (n - S) * (scale // ways[S])
        D = n * max(c0, 1) * max(c1, 1)
        A0, A1 = n * (n - S) * max(c1, 1), n * S * max(c0, 1)  # n E = A0 X0 + A1 X1
        # per (T, X0 = x), the accepted X1 are those in [lo, hi): |A0 x - T D + A1 X1| < threshold
        lo, hi = _window(np.arange(c0 + 1) * A0 - T * D, A1, _reject_threshold(bound, n, D), c1)
        tail0, tail1 = tails[S], tails[n - S].T
        failing = tail1[lo] + tail1[c1 + 1] - tail1[hi]  # [T, x, u1]: the failing s1
        F = (tail0[:, 1:] - tail0[:, :-1]) * weight @ failing  # [T, u0, u1]; weighted first: 7 MB less at n = 50
        for rows, plane in zip(H, F.tolist()):
            for by_S, values in zip(rows, plane):
                by_S.append(values)
    total = b ** n * scale
    for n00 in range(n + 1):
        if n00:  # Pascal's rule: the rows now sum over k00 ~ C(n00, k00)
            for rows in H:
                del rows[n - n00 + 1 :]
                for u0, by_S in enumerate(rows):
                    rows[u0] = [[x + y for x, y in zip(r, r1)] for r, r1 in zip(by_S, by_S[1:])]
        for m0 in range(n - n00 + 1):  # n10 + n11: the ones in slot 0
            n01 = n - n00 - m0
            for n11 in range(m0 + 1):
                n10 = m0 - n11
                failed = 0
                for k01, w01 in enumerate(binomial[n01]):
                    for k10, w10 in enumerate(binomial[n10]):
                        rows, w = H[m0 + k01 - k10], w01 * w10
                        for k11, w11 in enumerate(binomial[n11]):
                            failed += w * w11 * rows[k10 + k11][k01][n01 + n11 - k01 - k11]
                yield ((1 << m0) - 1 << n) + ((1 << n01) - 1 << m0) + (1 << n11) - 1, failed, total


def _class_cells(strategy: SamplingStrategy, classes, bound: Fraction) -> list[tuple[list, int]]:
    """Each (t, s, ...) of ``classes`` as cells: its positions grouped by
    their coefficient g in T D - E A = g . z (see :func:`_g_rows`).
    Returns per class the (g, size) cells and the reject threshold
    ceil(bound A D) on |g . z|."""
    A, D, R = _dense_rows(strategy, classes)
    G = _g_rows(A, D, R)
    return [
        (list(Counter(g).items()), _reject_threshold(bound, a, d)) for g, a, d in zip(G.tolist(), A.tolist(), D.tolist())
    ]


def _window(base, g: int, threshold: int, top: int):
    """(lo, hi), 0 <= lo <= hi <= top + 1: y in 0..top has |base + g y| <
    threshold exactly when lo <= y < hi.  Exact on ints, and elementwise on an
    array base whose dtype (int64 or object) holds |base| + threshold + |g|."""
    if g < 0:  # |base + g y| = |-base - g y|
        base, g = -base, -g
    if g:  # -threshold < base + g y < threshold, the scalars summed first
        lo, hi = (g - threshold - base) // g, (threshold + g - 1 - base) // g
    else:
        lo, hi = base * 0, (abs(base) < threshold) * (top + 1)
    low, high = (np.maximum, np.minimum) if isinstance(base, np.ndarray) else (max, min)  # np.clip: 10x slower
    lo = high(low(lo, 0), top + 1)
    return lo, high(low(hi, lo), top + 1)


def _binomial_row(m: int) -> np.ndarray:
    """C(m, 0..m) as Python ints in an object array."""
    row = [1]
    for x in range(m):
        row.append(row[-1] * (m - x) // (x + 1))
    return np.array(row, dtype=object)


def _tail_table(m: int, c: int) -> np.ndarray:
    """P[u, x], u = 0..m, x = 0..c + 1: the c-subsets of m positions holding
    fewer than x of u given ones, in Python ints.  P[u, lo] + P[u, c + 1] -
    P[u, hi] fall outside a window [lo, hi) of :func:`_window` (top = c)."""
    P = np.zeros((m + 1, c + 2), dtype=object)
    for u in range(m + 1):  # P[u, 1 + x] = C(u, x)
        P[u, 1 : min(u, c) + 2] = _binomial_row(u)[: c + 1]
    # times C(m - u, c - x), in place: a separate table of binomials raised
    # example5's peak at n = 736 by 10 MB.  The products are their own mirror,
    # (u, x) equal to (m - u, c - x), so rows u <= m / 2 are multiplied and the
    # rest copied from them: half the products, and no copy of the whole table
    # with its old ints, which an overlapping in-place view makes (that step
    # peaked at 34 MB traced at m = 736; now the accumulate's 27 MB is the peak)
    half = m // 2 + 1
    P[:half, 1:] *= P[::-1, :0:-1][:half]
    P[::-1][: m + 1 - half, 1:] = P[: m + 1 - half, :0:-1]
    np.add.accumulate(P[:, 1:], axis=1, out=P[:, 1:])  # np.cumsum: twice the cost on small tables
    for u in range(min(c, m + 1)):  # past x = u + 1 the row's total: one object, not a fresh int each
        P[u, u + 2 :] = P[u, u + 1]
    return P


def _accepted_counts(cells, threshold: int, L: int, rows: dict) -> np.ndarray:
    """acc[w], w = 0..L: the number of weight-w 0/1 strings z with
    |g . z| < threshold over the (g, m) cells, i.e. the sum over count
    vectors x (x_c ones in cell c, sum x = w) of prod_c C(m_c, x_c).  The
    largest cell with g != 0 is innermost: its accepted counts form one
    window (:func:`_window`) per count vector of the other cells (every
    count when every g is 0).  ``rows[m]`` is the binomial row C(m, 0..m)."""
    cells = sorted(cells, key=lambda c: (c[0] != 0, c[1]))
    (g, m), others = cells[-1], cells[:-1]
    inner, outer, gs = rows[m], [rows[mc] for _, mc in others], [gc for gc, _ in others]
    acc = np.zeros(L + 1, dtype=object)
    for x in itertools.product(*(range(mc + 1) for _, mc in others)):
        lo, hi = _window(sum(map(operator.mul, gs, x)), g, threshold, m)
        if lo < hi:
            at = sum(x) + lo
            acc[at : at + hi - lo] += math.prod(map(operator.getitem, outer, x)) * inner[lo:hi]
    return acc


def _trial_words(strategy: SamplingStrategy) -> int | None:
    """The words one trial of a built-in kind reads when no draw is
    rejected, and two to spare: twice this bounds the entries per trial of
    every array :func:`_draw_block` makes, from its kind's ``trial_reads``.
    None when a trial's largest choice passes ``_FLOYD_PICKS``: it is then
    left to Generator calls."""
    picks, reads = _KINDS[strategy.kind].trial_reads(strategy)
    return None if picks > draws._FLOYD_PICKS else reads // 2 + 2


def _draw_block(strategy: SamplingStrategy, z: np.ndarray, source) -> tuple[np.ndarray, ...]:
    """T, E, A and D (as in :func:`_table`) of one block of trials of a
    built-in kind on the 0/1 string z: (t, s) drawn by ``source`` (a
    :class:`_Words` or :class:`_Calls`) through ``_draws``, and the estimator
    rows of ``_rows``, read by gathers of z."""
    t, s = strategy._draws(source)
    P, W, D, A = strategy._rows(t, s)
    z = np.append(z, 0)  # the padding -1 reads the 0 past the end
    on_t = z[t].sum(axis=1, dtype=np.int32)
    return z.sum() - on_t, on_t if P is t else (z[P] * W).sum(axis=1), A, D


def _mc_block(strategy: SamplingStrategy, z: np.ndarray, seeds: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`_draw_block` of the trials seeded by ``seeds`` (rows of
    :func:`_trial_seeds`), drawn from their raw words; the trials
    :class:`_Words` marks lost, or all when :func:`_trial_words` says so,
    are drawn again by Generator calls (:class:`_Calls`)."""
    per_trial = _trial_words(strategy)
    if per_trial is None:
        return _draw_block(strategy, z, draws._Calls(seeds))
    words = draws._Words(seeds, per_trial)
    block = _draw_block(strategy, z, words)
    lost = np.flatnonzero(words.lost)
    if not len(lost):
        return block
    again = _draw_block(strategy, z, draws._Calls(seeds[lost]))
    out = []
    for whole, part in zip(block, again):
        whole = whole.astype(np.result_type(whole, part))
        whole[lost] = part
        out.append(whole)
    return tuple(out)


def eps_class_mc(
    strategy: SamplingStrategy, q, delta: float, trials: int, rng_seed: int = 0
) -> ErrorEstimate:
    """Monte-Carlo estimate of Pr[q not in B(T, S, delta)] for one fixed string.

    Trial i draws its (t, s) as ``sample_ts`` does from
    ``np.random.default_rng((rng_seed, i))``, so the result does not depend
    on execution order; the seeds of every ``_MC_BLOCK_TRIALS`` (1024)
    trials are hashed at once (:func:`_trial_seeds`) and sliced into blocks.  A
    built-in kind draws a block with ``SamplingStrategy._draws`` from each
    trial's raw PCG64 words, numpy's bounded draws and Floyd selection
    redone as arrays (:func:`_mc_block`), and reads it with the estimator
    rows.  The words of a trial that reads at most ``_JUMP_WORDS`` come
    from jump-ahead arithmetic on the whole block, run in place chunk by
    chunk, so its scratch stays at most three chunks of ``_WORD_CELLS``
    words however many trials the block holds; those of a longer trial come
    from one PCG64 per trial, whose per-word loop is then the cheaper.
    Generator calls make only the trials that run past their words or
    choose more than ``_FLOYD_PICKS``, where numpy's own loop is faster.
    Its blocks hold at most ``_MC_BLOCK_TRIALS`` trials, fewer once twice a
    trial's words pass ``_BLOCK_CELLS / _MC_BLOCK_TRIALS``.  A custom
    strategy draws with ``sample_ts`` and decides the drawn (t, s) as
    columns of the integer table that exact mode uses, in blocks sized the
    same way by the string length.  Memory stays bounded for any trial
    count, and both paths apply exact mode's tie rule: a deviation of
    exactly delta fails.
    """
    bound = _exact_delta(delta)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    string = _symbol_row(q, strategy)
    z = (string[0] != 0).astype(np.int8)
    words = None if strategy.kind == "custom" else _trial_words(strategy)
    cells = strategy.length if words is None else 2 * words
    step = max(1, min(_MC_BLOCK_TRIALS, _BLOCK_CELLS // max(cells, 1)))
    failures = 0
    for first in range(0, trials, _MC_BLOCK_TRIALS):  # one seed hash, sliced into blocks of step trials
        chunk = draws._trial_seeds(int(rng_seed), range(first, min(first + _MC_BLOCK_TRIALS, trials)))
        for at in range(0, len(chunk), step):
            seeds = chunk[at : at + step]
            if strategy.kind == "custom":
                columns = [strategy.sample_ts(g) for g in draws._generators(seeds)]
                for _, reject in _reject_blocks(strategy, columns, lambda lo, hi: string, 1, bound):
                    failures += int(reject.sum())
            else:
                T, E, A, D = _mc_block(strategy, z, seeds)
                failures += int(_tie_rule(A, D, bound)(T, E).sum())
    return ErrorEstimate(
        value=failures / trials,
        mode="monte-carlo",
        trials=trials,
        confidence_halfwidth=mc_halfwidth(trials),
    )


# ---------------------------------------------------------------------------
# analytic bounds
# ---------------------------------------------------------------------------

BOUND_KINDS = (
    # the first two bound the sample mean against the WHOLE-string mean;
    # the strategy-specific kinds below bound the accept-set error, where the
    # reference is the mean over the unobserved rest
    "hoeffding",  # with replacement: 2 exp(-2 delta^2 k)
    "serfling",  # without replacement: 2 exp(-2 delta^2 k n / (n - k + 1))
    "example1-general",  # 2 exp(-2 (1 - k/n)^2 delta^2 k)
    "example1-simple",  # 2 exp(-delta^2 k / 2), needs k <= n/2
    "example1-serfling",  # 2 exp(-delta^2 k n / (n + 2)), needs k <= n/2
    "example3",  # 4 exp(-n delta^2 / 32)
    "example4",  # 6 exp(-k delta^2 / 50), needs k <= n/2
    "example5",  # 2 exp(-delta^2 k / 6)
    "example6",  # four-term bound, free parameters (eps, beta)
)


def _need(params: Mapping, kind: str, *names: str) -> list:
    out = []
    for name in names:
        if name not in params or params[name] is None:
            raise ValueError(f"bound {kind} requires parameter {name}")
        out.append(params[name])
    return out


def analytic_bound(kind: str, params: Mapping, delta: float) -> float:
    """Evaluate a closed-form error-probability bound.

    Values above 1 are returned as-is.  Side-condition violations raise a
    ValueError naming the condition.  For "example6" the free parameters may
    be supplied as ``eps`` and ``beta``; when omitted, the bound is minimized
    over a 10 x 10 grid of admissible (eps, beta) values.
    """
    delta = float(delta)
    if not 0 <= delta < math.inf:  # NaN fails both
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    if kind == "hoeffding":
        (k,) = _need(params, kind, "k")
        return 2 * math.exp(-2 * delta ** 2 * k)
    if kind == "serfling":
        n, k = _need(params, kind, "n", "k")
        if not 1 <= k <= n:
            raise ValueError(f"serfling requires 1 <= k <= n, got k={k}, n={n}")
        return 2 * math.exp(-2 * delta ** 2 * k * n / (n - k + 1))
    if kind == "example1-general":
        n, k = _need(params, kind, "n", "k")
        if not 1 <= k <= n:
            raise ValueError(f"example1-general requires 1 <= k <= n, got k={k}, n={n}")
        return 2 * math.exp(-2 * (1 - k / n) ** 2 * delta ** 2 * k)
    if kind == "example1-simple":
        n, k = _need(params, kind, "n", "k")
        if 2 * k > n:
            raise ValueError(f"example1-simple requires k <= n/2, got k={k}, n={n}")
        return 2 * math.exp(-delta ** 2 * k / 2)
    if kind == "example1-serfling":
        n, k = _need(params, kind, "n", "k")
        if 2 * k > n:
            raise ValueError(f"example1-serfling requires k <= n/2, got k={k}, n={n}")
        return 2 * math.exp(-delta ** 2 * k * n / (n + 2))
    if kind == "example3":
        (n,) = _need(params, kind, "n")
        return 4 * math.exp(-n * delta ** 2 / 32)
    if kind == "example4":
        n, k = _need(params, kind, "n", "k")
        if 2 * k > n:
            raise ValueError(f"example4 requires k <= n/2, got k={k}, n={n}")
        return 6 * math.exp(-k * delta ** 2 / 50)
    if kind == "example5":
        (k,) = _need(params, kind, "k")
        return 2 * math.exp(-delta ** 2 * k / 6)
    if kind == "example6":
        return _example6_bound(params, delta)
    raise ValueError(f"unknown bound kind {kind!r}; expected one of {BOUND_KINDS}")


def _example6_terms(n: int, k: int, p: float, delta: float, eps: float, beta: float) -> float:
    if not 0 < beta < min(p, 1 - p):
        raise ValueError(
            f"example6 requires 0 < beta < min(p, 1-p), got beta={beta}, p={p}"
        )
    if not 0 < eps < delta:
        raise ValueError(f"example6 requires 0 < eps < delta, got eps={eps}, delta={delta}")
    return (
        2 * math.exp(-2 * n * eps ** 2 * (1 - p - beta) ** 2 * (p - beta))
        + 2 * math.exp(-2 * n * eps ** 2 * (p - beta) ** 2 * (1 - p - beta))
        + 4 * math.exp(-k * (delta - eps) ** 2)
        + 2 * math.exp(-2 * beta ** 2 * n)
    )


def _example6_bound(params: Mapping, delta: float) -> float:
    n, k, p = _need(params, "example6", "n", "k", "p")
    if not 0 < p < 1:
        raise ValueError(f"example6 requires 0 < p < 1, got p={p}")
    eps = params.get("eps")
    beta = params.get("beta")
    if (eps is None) != (beta is None):
        raise ValueError("example6 takes eps and beta together, or neither")
    if eps is not None:
        return _example6_terms(n, k, p, delta, float(eps), float(beta))
    if delta <= 0:
        raise ValueError("example6 grid minimization requires delta > 0")
    beta_cap = min(p, 1 - p)
    best = math.inf
    for i in range(1, 11):  # 10 x 10 interior grid over (0, delta) x (0, beta_cap)
        for j in range(1, 11):
            value = _example6_terms(
                n, k, p, delta, delta * i / 11, beta_cap * j / 11
            )
            best = min(best, value)
    return best


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def error_estimate_to_dict(est: ErrorEstimate) -> dict:
    """An ErrorEstimate with all fields as JSON data."""
    wcs = None
    if est.worst_case_string is not None:
        wcs = {"symbols": list(est.worst_case_string.symbols), "d": est.worst_case_string.d}
    return {
        "value": est.value,
        "mode": est.mode,
        "trials": est.trials,
        "confidence_halfwidth": est.confidence_halfwidth,
        "worst_case_string": wcs,
    }


def error_estimate_to_json(est: ErrorEstimate) -> str:
    """Serialize an ErrorEstimate with all fields."""
    return json.dumps(error_estimate_to_dict(est), sort_keys=True)
