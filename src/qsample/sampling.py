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
constructor for custom strategies.  Each built-in (t, s) is one integer row w
over D, f = w . z / D with z = (q != 0), and the true value is z . 1_tbar /
|tbar|, so exact error probabilities are int64 matrix products compared with
delta in integers; ties follow delta as written (a float 0.1 is 1/10).
The permutation-invariant kinds ("example1", "example3", "example4") draw
(t, s) uniformly, so their exact error probability is counted instead: per
size class of (t, s), the number of weight-w strings one representative
accepts, a sum of products of binomials over its cells (the positions with
equal coefficients in the row), in exact Python ints.  Monte-Carlo
estimation covers sizes outside the exact budget: it decides its drawn
(t, s) as columns of the same integer table, in blocks of bounded size, with
the same tie rule.

Positions are 1-based.  Pair-indexed strategies ("example5", "example6") view
a string of length 2n as n pairs; the pair element (i, j) with i in [1..n] and
j in {0, 1} sits at flat position i + j*n.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Mapping

import numpy as np

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
    "position_pair",
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
    "strategy_to_json",
    "strategy_from_json",
    "error_estimate_to_json",
    "mc_halfwidth",
    "resolve_budget",
]

STRATEGY_KINDS = (
    "example1",  # random sampling without replacement
    "example2",  # random sampling with replacement
    "example3",  # uniformly random subset
    "example4",  # without replacement, using only part of the sample
    "example5",  # pairwise one-out-of-two, using only part of the sample
    "example6",  # pairwise biased one-out-of-two
)

_DEFAULT_BUDGET = 2 ** 28


class BudgetExceededError(RuntimeError):
    """Raised when an exact enumeration would exceed the evaluation budget."""


def resolve_budget(budget: int | None = None) -> int:
    """Return the exact-enumeration budget.

    Priority: explicit argument, then the ``QSAMPLE_BUDGET`` environment
    variable, then the default of 2**28 evaluations.
    """
    if budget is not None:
        if budget <= 0:
            raise ValueError("budget must be positive")
        return budget
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
    work: str, cheap: int, rest: Callable[[], int] | None = None, budget: int | None = None, instead: str | None = None
) -> None:
    """The budget gate of every exhaustive path: refuses ``work`` with
    BudgetExceededError when it costs more evaluations than
    :func:`resolve_budget` allows.

    The cost is cheap * rest().  ``rest``, a factor of at least 1 that may walk
    the (t, s) law, is called only once the cheap factor (the string or
    candidate count) fits.  A cost past 15 digits is worded as a power of ten,
    since str() of an int past 4300 digits raises.  ``instead`` names a
    sampled alternative."""
    limit = resolve_budget(budget)
    lower = rest is not None and cheap > limit  # refused on the cheap factor alone
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


def position_pair(pos: int, n: int) -> tuple[int, int]:
    """Inverse of :func:`pair_position`."""
    if not 1 <= pos <= 2 * n:
        raise ValueError(f"position {pos} outside [1..{2 * n}]")
    return (pos, 0) if pos <= n else (pos - n, 1)


def _symbols(q, length: int | None = None) -> tuple[int, ...]:
    sym = q.symbols if isinstance(q, SymbolString) else tuple(map(int, q))
    if length is not None and len(sym) != length:
        raise ValueError(f"string length {len(sym)} != strategy length {length}")
    return sym


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
    return tuple(i + 1 for i in _tbar(_positions(J), n))


def _tbar(t, length: int) -> list[int]:
    """0-based indices of the positions of [1..length] outside the flat subset t."""
    inside = set(t)
    return [i for i in range(length) if i + 1 not in inside]


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


class _Enumerate:
    """Every outcome with its exact probability, in a fixed order."""

    def subset(self, pool, k):
        prob = Fraction(1, math.comb(len(pool), k))
        return [(x, prob) for x in itertools.combinations(pool, k)]

    def coins(self, pool, p=None):
        m, fair = len(pool), Fraction(1, 2 ** len(pool))
        p = p if p is None else Fraction(repr(float(p)))  # p as written: 0.3 is 3/10
        probs = [fair if p is None else p ** a * (1 - p) ** (m - a) for a in range(m + 1)]
        kept = [()]  # outcome r keeps pool[i] when bit i of r is set
        for x in pool:
            kept += [c + (x,) for c in kept]
        return [(c, probs[len(c)]) for c in kept]

    def draws(self, pool, k):
        raise NotImplementedError(
            "sampling with replacement has no enumerable (t, s) support; use eps_class_mc per string"
        )


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


class _Sample:
    """One random draw from ``rng``, taken when the primitive is called."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def subset(self, pool, k):  # an empty pool leaves the generator untouched
        index = self.rng.choice(len(pool), size=k, replace=False).tolist() if pool else ()
        return [(tuple(sorted(pool[i] for i in index)), 1)]

    def coins(self, pool, p=None):
        m = len(pool)
        keep = self.rng.integers(0, 2, size=m) if p is None else self.rng.random(m) < p
        return [(tuple(x for x, b in zip(pool, keep.tolist()) if b), 1)]

    def draws(self, pool, k):
        return [(tuple(pool[i] for i in self.rng.integers(0, len(pool), size=k).tolist()), 1)]


@dataclass
class SamplingStrategy:
    """A sampling strategy: subset law, seed law, and estimator.

    Instances are produced by :func:`make_strategy` or :func:`custom_strategy`.
    ``n`` is the pair count for pair-indexed kinds (strings then have length
    2n) and the string length otherwise.  Seeds may condition on the drawn
    subset internally; they are exposed as one joint (t, s) draw.

    Attributes
    ----------
    kind : str
        One of the built-in kinds or "custom".
    n, k, p, d : parameters as supplied to the constructor.
    pattern_invariant : bool
        Whether the estimator sees symbols only through their zero pattern.
    """

    kind: str
    n: int
    k: int | None = None
    p: float | None = None
    d: int = 2
    pattern_invariant: bool = True
    estimator: Callable | None = field(default=None, repr=False)
    _support: list | None = field(default=None, repr=False)
    _draw_p: np.ndarray | None = field(default=None, repr=False, compare=False)  # custom draws

    @property
    def pair_indexed(self) -> bool:
        """Whether strings are indexed by [n] x {0, 1}."""
        return self.kind in ("example5", "example6")

    @property
    def permutation_invariant(self) -> bool:
        """Whether the per-string failure probability depends on the string
        only through its Hamming weight (enables weight-class enumeration)."""
        return self.kind in ("example1", "example3", "example4")

    @property
    def length(self) -> int:
        """Length of the strings the strategy samples from."""
        return 2 * self.n if self.pair_indexed else self.n

    # -- the (t, s) law -----------------------------------------------------

    def _law(self, pick):
        """Yield (t, s, weight) per outcome; the only definition of the built-in
        (t, s) laws.  ``pick`` interprets three draws, each yielding (outcome,
        weight) pairs: subset(pool, k), k elements of pool, uniformly, sorted;
        coins(pool, p), each element kept with probability p (fair if None);
        draws(pool, k), k ordered draws with replacement.  The law multiplies
        the weights: _Enumerate reads them as exact probabilities of every
        outcome, _Sample as one random draw, _Count as numbers of outcomes."""
        n, k, every = self.n, self.k, range(1, self.n + 1)
        if self.kind == "example1":
            for t, w in pick.subset(every, k):
                yield t, None, w
        elif self.kind == "example2":  # s is the ordered draw sequence
            for s, w in pick.draws(every, k):
                yield tuple(sorted(set(s))), s, w
        elif self.kind == "example3":
            for t, w in pick.coins(every):
                yield t, None, w
        elif self.kind == "example4":  # s keeps each element of t on a fair coin
            for t, wt in pick.subset(every, k):
                for s, ws in pick.coins(t):
                    yield t, s, wt * ws
        elif self.kind == "example5":  # pair i contributes i + n when its coin is kept
            for up, wt in pick.coins(every):
                up = set(up)
                t = tuple(sorted(i + n if i in up else i for i in every))
                for s, ws in pick.subset(every, k):
                    yield t, s, wt * ws
        elif self.kind == "example6":  # t~ = t0: slot 0 of the kept pairs, slot 1 of the rest
            for t0, wt in pick.coins(every, self.p):
                kept = set(t0)
                t1 = tuple(i + n for i in every if i not in kept)
                for s0, w0 in pick.subset(t0, min(k // 2, len(t0))):
                    w0 *= wt
                    for s1, w1 in pick.subset(t1, min(k // 2, len(t1))):
                        yield t0 + t1, (s0, s1), w0 * w1
        else:
            raise NotImplementedError(f"{self.kind} has no (t, s) law in this implementation")

    def support_size(self) -> int:
        """Number of (t, s) pairs with positive probability."""
        if self.kind == "custom":
            return len(self._support)
        return sum(w for _, _, w in self._law(_Count()))

    def ts_support(self) -> list[tuple[tuple, object, Fraction]]:
        """All (t, s, probability) triples; probabilities are exact Fractions summing to 1."""
        if self._support is None:
            self._support = list(self._law(_Enumerate()))
        return self._support

    def sample_ts(self, rng: np.random.Generator) -> tuple[tuple, object]:
        """Draw one (t, s) pair."""
        if self.kind == "custom":
            t, s, _ = self._support[rng.choice(len(self._draw_p), p=self._draw_p)]
        else:
            t, s, _ = next(self._law(_Sample(rng)))
        return t, s

    # -- estimation ---------------------------------------------------------

    def estimate_frac(self, q, t, s) -> Fraction:
        """The estimate f(t, q|t, s) as an exact Fraction."""
        return self._estimate(_symbols(q, self.length), self.flatten_subset(t), s)

    def _estimate(self, sym, t, s) -> Fraction:
        """:meth:`estimate_frac` of checked symbols under a flat subset t."""
        if self.kind == "custom":
            value = self.estimator(t, restrict(sym, t), s)
            return value if isinstance(value, Fraction) else Fraction(value)
        terms, den = self._estimator_row(t, s)
        return Fraction(sum(w for i, w in terms if sym[i]), den)

    def _estimator_row(self, t, s) -> tuple[list[tuple[int, int]], int]:
        """The built-in estimator as one integer row w over a denominator D:
        f(t, q|t, s) = w . z / D, given as w's (0-based position, weight)
        terms, for a flat subset t (see :meth:`flatten_subset`).  This is the
        only definition of the built-in estimators."""
        n, L = self.n, self.length
        if self.kind == "example6":
            if isinstance(s, tuple) and len(s) == 2 and all(isinstance(x, (tuple, list)) for x in s):
                s0, s1 = _positions(s[0], n), _positions(s[1], n)
            else:  # a flat seed: positions <= n are slot 0, the rest slot 1
                flat = _positions(s, n)
                s0, s1 = [x for x in flat if x <= n], [x for x in flat if x > n]
            size_tilde = sum(1 for x in t if x <= n)
            c0, c1 = max(len(s0), 1), max(len(s1), 1)
            # ((n - |t~|) w0 + |t~| w1) / n with w_j the weight of q on s_j,
            # since |tbar_0| = n - |t~| and |tbar_1| = |t~|
            terms = [(p - 1, (n - size_tilde) * c1) for p in s0] + [(p - 1, size_tilde * c0) for p in s1]
            den = n * c0 * c1
        else:
            if self.kind in ("example1", "example3"):
                picked = t
            elif self.kind == "example2":
                if not s:
                    raise ValueError("example2 needs the ordered draw sequence as seed")
                picked = [int(j) for j in s]  # a position drawn twice counts twice
            elif self.kind == "example4":
                picked = _positions(s)
            elif self.kind == "example5":
                tset = set(t)
                if any((i in tset) == (i + n in tset) for i in range(1, n + 1)):
                    raise ValueError("example5 subset must pick exactly one element per pair")
                pairs = [int(i) for i in s]
                if any(not 1 <= i <= n for i in pairs):
                    raise ValueError(f"sample pairs {pairs} outside string of {n} pairs")
                picked = [i if i in tset else i + n for i in pairs]
            else:
                raise NotImplementedError(f"estimator not implemented for kind {self.kind}")
            terms, den = [(p - 1, 1) for p in picked], max(len(picked), 1)
        if any(not 0 <= i < L for i, _ in terms):
            raise ValueError(f"sample {[i + 1 for i, _ in terms]} outside string of length {L}")
        return terms, den

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
        On an unknown kind or a parameter violating its constraint; the
        message names the violated constraint.
    """
    merged = dict(params or {})
    merged.update(kwargs)
    if kind not in STRATEGY_KINDS:
        raise ValueError(f"unknown strategy kind {kind!r}; expected one of {STRATEGY_KINDS}")
    allowed = {"n", "k", "p", "d"}
    extra = set(merged) - allowed
    if extra:
        raise ValueError(f"unexpected parameters {sorted(extra)} for {kind}")

    n = merged.get("n")
    if n is None:
        raise ValueError(f"{kind} requires parameter n")
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    d = int(merged.get("d", 2))
    if d < 2:
        raise ValueError(f"alphabet size d must be >= 2, got {d}")

    k = merged.get("k")
    p = merged.get("p")

    if kind == "example3":
        if k is not None:
            raise ValueError("example3 takes no sample size k")
        return SamplingStrategy(kind, n, d=d)

    if k is None:
        raise ValueError(f"{kind} requires parameter k")
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    if kind in ("example1", "example4", "example5") and k > n:
        raise ValueError(f"{kind} requires k <= n, got k={k}, n={n}")
    if kind != "example6":
        return SamplingStrategy(kind, n, k=k, d=d)
    # example6
    if p is None:
        raise ValueError("example6 requires the selection bias p")
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"example6 requires 0 < p < 1, got p={p}")
    if k % 2 != 0:
        raise ValueError(f"example6 requires an even k, got k={k}")
    if k // 2 > n:
        raise ValueError(f"example6 requires k/2 <= n, got k={k}, n={n}")
    return SamplingStrategy(kind, n, k=k, p=p, d=d)


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
    """
    table = []
    total = Fraction(0)
    for t, s, prob in support:
        prob = prob if isinstance(prob, Fraction) else Fraction(prob)
        if prob < 0:
            raise ValueError("probabilities must be non-negative")
        table.append((tuple(_positions(t)), s, prob))
        total += prob
    if total != 1:
        raise ValueError(f"support probabilities must sum to 1, got {total}")
    weights = np.array([float(p) for _, _, p in table])
    return SamplingStrategy(
        "custom",
        int(n),
        d=int(d),
        pattern_invariant=bool(pattern_invariant),
        estimator=estimator,
        _support=table,
        _draw_p=weights / weights.sum(),
    )


# ---------------------------------------------------------------------------
# pointwise operations
# ---------------------------------------------------------------------------


def estimate(strategy: SamplingStrategy, q, t, s=None) -> float:
    """Evaluate the estimator f(t, q|t, s)."""
    return float(strategy.estimate_frac(q, t, s))


def deviation(strategy: SamplingStrategy, q, t, s=None) -> Fraction:
    """|relwt(q|tbar) - f(t, q|t, s)| as an exact Fraction."""
    sym = _symbols(q, strategy.length)
    t = strategy.flatten_subset(t)
    tbar = _tbar(t, strategy.length)
    true = Fraction(sum(1 for i in tbar if sym[i]), max(len(tbar), 1))
    return abs(true - strategy._estimate(sym, t, s))


def in_accept_set(strategy: SamplingStrategy, q, t, s, delta: float) -> bool:
    """Strict accept test: deviation < delta; a tie at exactly delta rejects."""
    return deviation(strategy, q, t, s) < _exact_delta(delta)


def _exact_delta(delta) -> Fraction:
    """Check 0 < delta < 1; return delta as written (a float 0.1 is 1/10)."""
    if not 0.0 < float(delta) < 1.0:
        raise ValueError(f"delta must satisfy 0 < delta < 1, got {delta}")
    return delta if isinstance(delta, Fraction) else Fraction(repr(float(delta)))


# The (string, (t, s)) table is built in blocks of at most this many cells, so
# its int64 arrays stay a few MB whatever the sizes.
_BLOCK_CELLS = 1 << 18
# Monte-Carlo decides at most this many drawn (t, s) columns at once: capped
# by table cells alone, a block on short strings would hold ~10^5 trials'
# (t, s) tuples, several MB of Python objects.
_MC_BLOCK_TRIALS = 256


def _table(strategy: SamplingStrategy, columns, strings, count: int):
    """A, D and the blocks (lo, T, E) of the exact true values T / A and
    estimates E / D of strings 0..count-1 of ``strings(lo, hi)`` (rows) under
    the (t, s, ...) columns, e.g. ts_support(): int64 products of z with the
    rows 1_tbar and w.  A custom estimator's only form is its callable, so
    its E holds Fractions over D = 1."""
    m, L = len(columns), strategy.length
    flat = [strategy.flatten_subset(t) for t, *_ in columns]
    sizes = np.array([len(t) for t in flat], dtype=np.int64)
    R = np.zeros((2 * m, L), dtype=np.int64)
    R[:m] = 1  # the rows 1_tbar: ones, less one scatter of every t
    R[np.repeat(np.arange(m), sizes), np.fromiter(itertools.chain.from_iterable(flat), np.int64) - 1] = 0
    D = np.ones(m, dtype=np.int64)
    if strategy.kind != "custom":  # the rows w: one scatter-add of every row's terms
        rows = [strategy._estimator_row(t, s) for t, (_, s, *_) in zip(flat, columns)]
        D[:] = [den for _, den in rows]
        terms = np.fromiter(itertools.chain.from_iterable(x for row, _ in rows for x in row), np.int64).reshape(-1, 2)
        np.add.at(R, (np.repeat(np.arange(m, 2 * m), [len(row) for row, _ in rows]), terms[:, 0]), terms[:, 1])

    def blocks():
        step = max(1, _BLOCK_CELLS // max(m, 1))
        for lo in range(0, count, step):
            block = strings(lo, min(lo + step, count))
            T, E = np.split((block != 0).astype(np.int64) @ R.T, 2, axis=1)
            if strategy.kind == "custom":
                E = [[strategy.estimate_frac(q, t, s) for t, s, *_ in columns] for q in block.tolist()]
                E = np.array(E, dtype=object)
            yield lo, T, E.reshape(T.shape)

    return np.maximum(L - sizes, 1), D, blocks()


def _reject_blocks(strategy: SamplingStrategy, columns, strings, count: int, bound: Fraction):
    """Yield (lo, reject): reject[i, j] says that string lo + i deviates by
    at least ``bound`` under column j, decided exactly."""
    A, D, blocks = _table(strategy, columns, strings, count)
    # |T D - E A| / (A D) >= p / q  <=>  |T D - E A| >= ceil(p A D / q) for ints,
    # with the threshold in Python ints: |T D - E A| q can wrap around in int64
    threshold = np.array([-(-bound.numerator * int(x) // bound.denominator) for x in A * D])
    if strategy.kind == "custom":  # D = 1 and E holds Fractions: compare with bound * A exactly
        threshold = np.array([bound * int(a) for a in A], dtype=object)
    for lo, T, E in blocks:
        yield lo, (np.abs(T * D - E * A) >= threshold).astype(bool)


def failure_probability(strategy: SamplingStrategy, q, delta: float) -> Fraction:
    """Exact Pr[q not in B(T, S, delta)] for one fixed string q."""
    bound = _exact_delta(delta)
    string = np.array([_symbols(q, strategy.length)], dtype=np.int64)
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


def eps_class_exact(
    strategy: SamplingStrategy, delta: float, budget: int | None = None
) -> ErrorEstimate:
    """Exact worst-case error probability, maximized over all strings.

    Enumerates Hamming-weight classes when the strategy declares permutation
    invariance, zero patterns when the estimator is pattern-invariant, and all
    d^n strings otherwise.  The witness is the first maximizing candidate in
    that order.  The permutation-invariant kinds draw (t, s) uniformly, so
    their weight classes are counted, not enumerated: one representative
    (t, s) per size class and, per weight w, the number of weight-w strings
    it accepts, summed over count vectors (see :func:`_accepted_counts`).
    The other kinds decide every (candidate, (t, s)) cell of the integer
    table.  Either way the value is the float of an exact Fraction.  Refuses
    strategies without an enumerable (t, s) law and work beyond the
    evaluation budget, charged before any loop.
    """
    bound = _exact_delta(delta)
    if strategy.permutation_invariant:
        value, index = _eps_class_counted(strategy, bound, budget)
    else:
        value, index = _eps_class_enumerated(strategy, bound, budget)
    witness = _candidates(strategy, index, index + 1)[0]
    return ErrorEstimate(
        value=float(value),
        mode="exact",
        worst_case_string=SymbolString(tuple(witness.tolist()), strategy.d),
    )


def _eps_class_enumerated(strategy: SamplingStrategy, bound: Fraction, budget: int | None) -> tuple[Fraction, int]:
    """(max Pr[fail], index of the first maximizing candidate), from every cell
    of the (candidate, (t, s)) table."""
    count = _candidate_count(strategy)
    _refuse("exact enumeration", count, strategy.support_size, budget, instead="eps_class_mc")
    support = strategy.ts_support()
    scale, weights = _integer_weights(support)
    best, best_index = -1, 0
    for lo, reject in _reject_blocks(strategy, support, partial(_candidates, strategy), count, bound):
        failed = reject @ weights  # scale * Pr[fail], exact Python ints
        i = int(np.argmax(failed))
        if failed[i] > best:
            best, best_index = failed[i], lo + i
    return Fraction(best, scale), best_index


# A count vector costs a product and a sum of Python ints of ~L/3 digits:
# 0.2-0.4 us up to L = 1000 and about linear in L beyond (3 us at L = 4000,
# 2-core Xeon, Python 3.11), so each is charged ceil(L / 1000) evaluations.
_COUNT_LENGTH_UNIT = 1000


def _eps_class_counted(strategy: SamplingStrategy, bound: Fraction, budget: int | None) -> tuple[Fraction, int]:
    """(max Pr[fail], first maximizing weight) for a permutation-invariant
    kind.  Its (t, s) are uniform over the support, and every size class is
    the orbit of its _Count representative under position permutations, so
    with mult the class size and S = sum mult the support size,

        Pr[fail | weight w] = 1 - sum_class mult * acc(class, w) / (S C(L, w)),

    acc(class, w) being the number of weight-w strings the representative
    accepts."""
    L = strategy.length
    classes, cost, unit = [], 0, -(-L // _COUNT_LENGTH_UNIT)
    for t, s, _ in strategy._law(_Count(lambda m, k: 1)):
        cells, threshold = _class_cells(strategy, t, s, bound)
        cost += math.prod(m + 1 for _, m in cells) * unit
        _refuse("exact enumeration", cost, budget=budget, instead="eps_class_mc")  # stops a long law early
        classes.append((cells, threshold))
    mults = [mult for _, _, mult in strategy._law(_Count())]
    support = sum(mults)
    rows = {m: _binomial_row(m) for cells, _ in classes for _, m in cells}  # once per cell size
    accepted = sum(mult * _accepted_counts(*cls, L, rows) for mult, cls in zip(mults, classes))
    best, best_total, weight = -1, 1, 0
    for w, c in enumerate(_binomial_row(L)):
        total = support * c
        failed = total - accepted[w]  # rejections among the S C(L, w) pairs
        if failed * best_total > best * total:  # strictly: the first maximizer
            best, best_total, weight = failed, total, w
    return Fraction(best, best_total), weight


def _class_cells(strategy: SamplingStrategy, t, s, bound: Fraction) -> tuple[list[tuple[int, int]], int]:
    """One (t, s) as cells: its positions grouped by their coefficient g in
    T D - E A = g . z, with g = D 1_tbar - A w (the integer table's terms,
    see :func:`_table`).  Returns the (g, size) cells and the reject
    threshold ceil(bound A D) on |g . z|."""
    L = strategy.length
    t = strategy.flatten_subset(t)
    terms, D = strategy._estimator_row(t, s)
    A = max(L - len(t), 1)
    weight: dict[int, int] = {}
    for i, w in terms:
        weight[i] = weight.get(i, 0) + w
    cells = {0: len(t), D: L - len(t)}  # g with no weight yet: 0 on t, D on tbar
    inside = set(t)
    for i, w in weight.items():  # move each weighted position to its cell
        g = 0 if i + 1 in inside else D
        cells[g] -= 1
        cells[g - A * w] = cells.get(g - A * w, 0) + 1
    return [(g, m) for g, m in cells.items() if m], -(-bound.numerator * A * D // bound.denominator)


def _binomial_row(m: int) -> np.ndarray:
    """C(m, 0..m) as Python ints in an object array."""
    row = [1]
    for x in range(m):
        row.append(row[-1] * (m - x) // (x + 1))
    return np.array(row, dtype=object)


def _accepted_counts(cells, threshold: int, L: int, rows: dict) -> np.ndarray:
    """acc[w], w = 0..L: the number of weight-w 0/1 strings z with
    |g . z| < threshold over the (g, m) cells, i.e. the sum over count
    vectors x (x_c ones in cell c, sum x = w) of prod_c C(m_c, x_c).  The
    largest cell with g != 0 is innermost: its accepted counts form one
    interval per count vector of the other cells.  ``rows[m]`` is the
    binomial row C(m, 0..m)."""
    cells = sorted(cells, key=lambda c: (c[0] != 0, c[1]))
    (g, m), prefix = cells[-1], cells[:-1]
    if g < 0:  # |g . z| is blind to the sign
        g, prefix = -g, [(-gc, mc) for gc, mc in prefix]
    inner, outer = rows[m], [rows[mc] for _, mc in prefix]
    acc = np.zeros(L + 1, dtype=object)
    for x in itertools.product(*(range(mc + 1) for _, mc in prefix)):
        base = sum(gc * xc for (gc, _), xc in zip(prefix, x))
        # -threshold < base + g y < threshold, for y in 0..m; g = 0 only if
        # every g is, and then base = 0 and every y is accepted
        lo, hi = (max(0, (-threshold - base) // g + 1), min(m, (threshold - base - 1) // g)) if g else (0, m)
        if lo <= hi:
            at = sum(x) + lo
            acc[at : at + hi - lo + 1] += math.prod(row[xc] for row, xc in zip(outer, x)) * inner[lo : hi + 1]
    return acc


def eps_class_mc(
    strategy: SamplingStrategy, q, delta: float, trials: int, rng_seed: int = 0
) -> ErrorEstimate:
    """Monte-Carlo estimate of Pr[q not in B(T, S, delta)] for one fixed string.

    Each trial draws its own generator from (rng_seed, trial index), so the
    result does not depend on execution order.  The drawn (t, s) are decided
    as columns of the integer table that exact mode uses, with the same tie
    rule (a deviation of exactly delta fails), in blocks of at most
    ``_MC_BLOCK_TRIALS`` trials (fewer on strings longer than
    ``_BLOCK_CELLS / _MC_BLOCK_TRIALS``), so memory stays bounded for any
    trial count.
    """
    bound = _exact_delta(delta)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    string = np.array([_symbols(q, strategy.length)], dtype=np.int64)
    step = max(1, min(_MC_BLOCK_TRIALS, _BLOCK_CELLS // max(strategy.length, 1)))
    failures = 0
    for first in range(0, trials, step):
        trial_range = range(first, min(first + step, trials))
        columns = [strategy.sample_ts(np.random.default_rng((int(rng_seed), i))) for i in trial_range]
        for _, reject in _reject_blocks(strategy, columns, lambda lo, hi: string, 1, bound):
            failures += int(reject.sum())
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
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
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


def strategy_to_json(strategy: SamplingStrategy) -> str:
    """Serialize a built-in strategy as a JSON object {kind, n, k?, p?}."""
    if strategy.kind == "custom":
        raise ValueError("custom strategies have no JSON form")
    obj: dict = {"kind": strategy.kind, "n": strategy.n}
    if strategy.k is not None:
        obj["k"] = strategy.k
    if strategy.p is not None:
        obj["p"] = strategy.p
    if strategy.d != 2:
        obj["d"] = strategy.d
    return json.dumps(obj, sort_keys=True)


def strategy_from_json(text: str) -> SamplingStrategy:
    """Inverse of :func:`strategy_to_json`."""
    obj = json.loads(text)
    kind = obj.pop("kind", None)
    if kind is None:
        raise ValueError("strategy JSON needs a 'kind' field")
    return make_strategy(kind, obj)


def error_estimate_to_json(est: ErrorEstimate) -> str:
    """Serialize an ErrorEstimate with all fields."""
    wcs = None
    if est.worst_case_string is not None:
        wcs = {"symbols": list(est.worst_case_string.symbols), "d": est.worst_case_string.d}
    return json.dumps(
        {
            "value": est.value,
            "mode": est.mode,
            "trials": est.trials,
            "confidence_halfwidth": est.confidence_halfwidth,
            "worst_case_string": wcs,
        },
        sort_keys=True,
    )
