"""Accept-set subspaces, optimal-projection distances, and the tightness
construction.

For a sampling strategy and a joint state of the sampled population with an
environment, each (t, s) pair defines the subspace spanned by the accepted
basis strings tensored with the environment.  The minimal distance between
the real state and any ideal state supported on those subspaces is

    sum_{t,s} P(t,s) * sqrt(1 - inside_weight(t,s)),

which never exceeds the square root of the classical error probability.  For
strategies symmetric under a permutation group G of the index universe, the
uniform superposition over the orbit of a worst-case string (the normalised
indicator of that orbit) attains the square root exactly.  A group is held as
its generators; the dense symmetry test (integer histograms of keys read from
the estimator table) and the worst state read only its orbits on strings,
labelled from the generators' images.  Where a built-in law is one orbit
(example1, example5), that distance is sqrt(eps_class), with no d^L vector;
on the counted kinds, the class table gives the distance of any state whose
population law depends only on the weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .quantum import PureState
from .sampling import (
    SamplingStrategy,
    SymbolString,
    _KINDS,
    _binomial_row,
    _class_table,
    _digits,
    _exact_delta,
    _failure_rows,
    _integer_weights,
    _refuse,
    _reject_blocks,
    _table,
    _worst_case,
    eps_class_exact,
)

__all__ = [
    "SubspaceWeight",
    "PermutationGroup",
    "accept_set",
    "project_onto_accept",
    "ideal_distance",
    "symmetric_ideal_distance",
    "check_sqrt_bound",
    "symmetric_worst_state",
    "is_g_symmetric",
    "symmetric_group",
    "pair_symmetry_group",
    "NotSymmetricError",
]


class NotSymmetricError(ValueError):
    """The strategy is not symmetric under the group, so it has no
    canonical symmetric worst-case state."""


# ---------------------------------------------------------------------------
# accept sets and projections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubspaceWeight:
    """Overlap of a state with one accept subspace.

    ``inside_weight`` is the squared overlap with span(accepted strings)
    tensored with the environment; ``projected_state`` is the re-normalized
    projection, absent when the overlap is below 1e-12.
    """

    t: tuple
    s: object
    inside_weight: float
    projected_state: PureState | None

    @property
    def outside_weight(self) -> float:
        return 1.0 - self.inside_weight


def _accept_masks(strategy: SamplingStrategy, columns, delta: float) -> np.ndarray:
    """Accept masks of a caller's (t, s, ...) columns over all d^L basis
    strings, each (t, s) checked first (see ``SamplingStrategy._column``)."""
    d, L = strategy.d, strategy.length
    columns = [strategy._column(t, s) for t, s, *_ in columns]
    blocks = _reject_blocks(strategy, columns, partial(_digits, d=d, length=L), d ** L, _exact_delta(delta))
    return ~np.concatenate([reject for _, reject in blocks])


def accept_set(strategy: SamplingStrategy, t, s, delta: float):
    """The strings whose estimate is delta-close to their remaining weight:
    exactly those spanning the accept subspace, as a set of SymbolString."""
    _exact_delta(delta)
    _refuse("accept set", strategy.d ** strategy.length)
    mask = _accept_masks(strategy, [(t, s)], delta)[:, 0]
    strings = _digits(0, strategy.d ** strategy.length, strategy.d, strategy.length)
    return {SymbolString(q, strategy.d) for q in strings[mask].tolist()}


def _population_weights(state: PureState, strategy: SamplingStrategy) -> np.ndarray:
    """Probability of each population basis string under computational
    measurement (environment traced out)."""
    if state.population_count != strategy.length:
        raise ValueError(
            f"state has {state.population_count} population subsystems, "
            f"strategy needs {strategy.length}"
        )
    if state.population_count and state.population_dim != strategy.d:
        raise ValueError(
            f"state qudit dimension {state.population_dim} != strategy alphabet {strategy.d}"
        )
    block = state.amps.reshape(strategy.d ** strategy.length, state.dim_E)
    return (np.abs(block) ** 2).sum(axis=1)


def project_onto_accept(
    state: PureState, strategy: SamplingStrategy, t, s, delta: float
) -> SubspaceWeight:
    """Project the state onto span(accepted strings) tensor the environment;
    (t, s) are reported in the form ``ts_support`` gives them."""
    _exact_delta(delta)
    weights = _population_weights(state, strategy)
    t, s = strategy._column(t, s)
    mask = _accept_masks(strategy, [(t, s)], delta)[:, 0]
    inside = float(weights[mask].sum())
    projected = None
    if inside >= 1e-12:
        block = state.amps.reshape(-1, state.dim_E).copy()
        block[~mask, :] = 0.0
        projected = PureState(block.reshape(-1) / math.sqrt(inside), state.dims)
    return SubspaceWeight(t=t, s=s, inside_weight=inside, projected_state=projected)


def ideal_distance(state: PureState, strategy: SamplingStrategy, delta: float) -> float:
    """Exact minimum distance between the (t, s)-indexed real state and any
    ideal state confined to the accept subspaces:
    sum_{t,s} P(t,s) sqrt(1 - inside_weight(t,s)).  Each outside weight is
    summed over the rejected strings: 1 - inside in floats leaves an ulp
    where a (t, s) accepts all the weight, and its square root (1e-8).  The
    rejected strings come from ``sampling._reject_blocks``: on a built-in
    kind, one exact product per block of strings with the g rows of the
    support, built once per strategy from its own law.  Charged d^L
    (support + 1) evaluations."""
    bound = _exact_delta(delta)
    weights = _population_weights(state, strategy)
    d, L = strategy.d, strategy.length
    _refuse("accept matrix", d ** L, lambda: strategy.support_size() + 1)
    support = strategy.ts_support()
    blocks = _reject_blocks(strategy, support, partial(_digits, d=d, length=L), d ** L, bound)
    outside = sum(weights[lo : lo + len(reject)] @ reject for lo, reject in blocks)
    probs = np.fromiter((float(p) for (_, _, p) in support), dtype=float, count=len(support))
    return float(probs @ np.sqrt(outside))


def symmetric_ideal_distance(strategy: SamplingStrategy, weight_law, delta: float) -> float:
    """:func:`ideal_distance` of a permutation-symmetric state of a counted
    kind (example1, example3, example4) whose population has weight w with
    probability ``weight_law[w]``, w = 0..L, its zero pattern uniform among
    the C(L, w) of that weight (the Dicke state of weight w has weight_law
    e_w).  Every member of a size class of (t, s) then sees the same inside
    weight, so from the counted class table (``sampling._class_table``),

        sum_class (mult / S) sqrt(sum_w weight_law[w] fail(class, w) / C(L, w)),

    with fail = C(L, w) - acc(class, w) in exact ints.  No d^L vector is
    formed, and 1 - inside is never taken in floats, where a small distance
    is lost: sqrt(eps_class) is 4.70e-11 at example1 n = 1000, k = 500,
    delta = 0.3.  Charged as exact ``eps_class_exact`` is."""
    bound = _exact_delta(delta)
    if not strategy.permutation_invariant:
        raise ValueError(f"{strategy.kind} is not a counted kind; use ideal_distance")
    law, L = np.asarray(weight_law, dtype=float), strategy.length
    if law.shape != (L + 1,) or not (law >= 0).all() or not abs(law.sum() - 1) <= 1e-9:
        raise ValueError(f"weight_law must be {L + 1} nonnegative probabilities summing to 1")
    table, comb = _class_table(strategy, bound, instead=None), _binomial_row(L)
    support = sum(mult for mult, _ in table)
    terms = [(p, w) for w, p in enumerate(law.tolist()) if p]
    return math.fsum(
        mult / support * math.sqrt(math.fsum(p * ((comb[w] - acc[w]) / comb[w]) for p, w in terms))
        for mult, acc in table
    )


def _sqrt_check(ideal: float, eps: float) -> dict:
    sqrt_eps = math.sqrt(eps)
    return {
        "ideal_distance": ideal,
        "sqrt_eps_class": sqrt_eps,
        "holds": ideal <= sqrt_eps + 1e-9,
    }


def check_sqrt_bound(state: PureState, strategy: SamplingStrategy, delta: float) -> dict:
    """Compare the optimal-projection distance against sqrt(eps_class)."""
    return _sqrt_check(ideal_distance(state, strategy, delta), eps_class_exact(strategy, delta).value)


# ---------------------------------------------------------------------------
# permutation groups
# ---------------------------------------------------------------------------


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # (a . b)(i) = a(b(i))
    return tuple(a[b[i] - 1] for i in range(len(b)))


@dataclass(frozen=True)
class PermutationGroup:
    """The group of permutations of positions 1..n generated by ``generators``.

    A group is its generators: the symmetry test and the worst state need
    only its orbits on strings, which ``_orbit_labels`` finds from them.
    ``elements`` and ``order`` close the generators on first use.
    """

    generators: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self):
        n = int(self.n)
        generators = tuple(tuple(int(x) for x in p) for p in self.generators)
        for p in generators:
            if len(p) != n or sorted(p) != list(range(1, n + 1)):
                raise ValueError(f"{p} is not a permutation of 1..{n}")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "n", n)

    @cached_property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """Every element, sorted: the closure of the generators under composition."""
        identity = tuple(range(1, self.n + 1))
        closure = {identity}
        frontier = [identity]
        while frontier:
            base = frontier.pop()
            for g in self.generators:
                new = _compose(g, base)
                if new not in closure:
                    closure.add(new)
                    frontier.append(new)
        return tuple(sorted(closure))

    @cached_property
    def order(self) -> int:
        return len(self.elements)


def symmetric_group(n: int) -> PermutationGroup:
    """All n! permutations of 1..n, generated by (1 2) and (1 2 ... n)."""
    if n < 2:
        return PermutationGroup((), n)
    return PermutationGroup(((2, 1) + tuple(range(3, n + 1)), tuple(range(2, n + 1)) + (1,)), n)


def pair_symmetry_group(n: int) -> PermutationGroup:
    """Permutations of the flattened pair universe [n] x {0, 1} that permute
    the pairs and may swap the two elements inside each pair (order 2^n n!):
    S_n's generators acting on both slots, plus the swap inside pair 1."""
    lifted = tuple(p + tuple(i + n for i in p) for p in symmetric_group(n).generators)
    swap = (n + 1,) + tuple(range(2, n + 1)) + (1,) + tuple(range(n + 2, 2 * n + 1))
    return PermutationGroup(lifted + (swap,), 2 * n)


def _orbit_labels(G: PermutationGroup, d: int) -> np.ndarray:
    """Label each of the d^n strings (in _digits order) by the least index in
    its orbit under G.  Each round gives every string the least label of its
    label and of its generator images; a fixed point is constant along every
    generator's cycles, so on each orbit, where it is the least member."""
    strings = _digits(0, d ** G.n, d, G.n)
    images = []  # images[g][i]: the index of generator g applied to string i
    for perm in G.generators:
        image = np.empty_like(strings)
        image[:, np.asarray(perm) - 1] = strings
        images.append(image @ d ** np.arange(G.n - 1, -1, -1))
    label, previous = np.arange(d ** G.n), None
    while previous is None or (label != previous).any():
        label, previous = np.minimum.reduce([label[label]] + [label[image] for image in images]), label
    return label


# ---------------------------------------------------------------------------
# symmetry test and the tightness construction
# ---------------------------------------------------------------------------


def _symmetric_orbits(strategy: SamplingStrategy, G: PermutationGroup) -> np.ndarray | None:
    """The labels of :func:`_orbit_labels` if the strategy is G-symmetric
    (see :func:`is_g_symmetric`), else None."""
    if G.n != strategy.length:
        raise ValueError(f"group acts on {G.n} positions, strategy strings have length {strategy.length}")
    d, L = strategy.d, strategy.length
    _refuse("symmetry check", d ** L, lambda: strategy.support_size() + len(G.generators))
    support = strategy.ts_support()
    A, D, blocks = _table(strategy, support, partial(_digits, d=d, length=L), d ** L)
    T, E = (np.concatenate(parts) for parts in zip(*((T, E) for _, T, E in blocks)))

    def packed(X, Y):  # X / Y in lowest terms as one int64, for 0 <= X <= Y
        g = np.gcd(X, Y)
        return X // g * (Y.max() + 1) + Y // g

    # one key per cell; a custom E holds Fractions over D = 1: number them
    estimate = np.unique(E, return_inverse=True)[1].reshape(E.shape) if strategy.kind == "custom" else packed(E, D)
    key = np.unique(packed(T, A) * (estimate.max() + 1) + estimate, return_inverse=True)[1].reshape(T.shape)
    keys = int(key.max()) + 1  # the distinct keys, numbered 0..keys-1
    scale, weights = _integer_weights(support)
    law = np.zeros((d ** L, keys), dtype=object)  # law[i, x]: scale * Pr[string i's cell has key x]
    np.add.at(law, (np.arange(d ** L)[:, None], key), weights)
    # A uniformly random element of G maps q uniformly onto its orbit, so the
    # orbit statistics at (t0, s0) are those of a uniform member of q's orbit.
    label = _orbit_labels(G, d)
    if (law != law[label]).any():  # some string's law is not its orbit root's
        return None
    # Column j fits when on each orbit, every key there is held by (orbit size)
    # x (root's law of the key) members; both laws sum to one, so none is
    # missed.  The codes fit int64 while the cost is below 2^31.
    m = len(support)
    cells, count = np.unique((label[:, None] * m + np.arange(m)) * keys + key, return_counts=True)
    root, column, x = cells // (m * keys), cells // keys % m, cells % keys
    matches = count.astype(object) * scale == np.bincount(label)[root] * law[root, x]
    return label if len(np.unique(column[~matches])) < m else None


def is_g_symmetric(strategy: SamplingStrategy, G: PermutationGroup) -> bool:
    """Whether some fixed (t0, s0) makes the orbit statistics match.

    True iff there is a (t0, s0) in the support such that for every string q,
    the distribution of (remaining weight, estimate) under the strategy's
    (T, S) draw equals the distribution of the same pair at (t0, s0) for a
    uniformly random group element applied to q.  Comparison is exact.
    """
    return _symmetric_orbits(strategy, G) is not None


def symmetric_worst_state(strategy: SamplingStrategy, G: PermutationGroup, delta: float) -> PureState:
    """Uniform superposition over the orbit of a worst-case string: the
    normalised indicator of that orbit.  The environment is trivial
    (dimension 1)."""
    _exact_delta(delta)
    label = _symmetric_orbits(strategy, G)
    if label is None:
        raise NotSymmetricError("strategy is not symmetric under the given group")
    witness = eps_class_exact(strategy, delta).worst_case_string
    d, L = strategy.d, strategy.length
    orbit = label == label[int(np.dot(witness.symbols, d ** np.arange(L - 1, -1, -1)))]
    return PureState(orbit / math.sqrt(np.count_nonzero(orbit)), (d,) * L + (1,))


def _symmetric_sqrt_bound(strategy: SamplingStrategy, delta: float) -> dict:
    """:func:`check_sqrt_bound` of the symmetric worst state, with no state
    vector, for a built-in law uniform on one orbit of its group (position
    permutations; pair permutations and slot swaps on the pair kinds):
    example1, example5, and example6 at n = 1 and p = 1/2, the only kinds
    the dense :func:`is_g_symmetric` accepts up to 10 positions.  Every
    (t, s) then sees that state fail with probability exactly eps_class, so
    its distance is sqrt(eps_class), read from the exact failure rows.  Any
    other kind is refused at once, with the CLI's NotSymmetricError message,
    or, by its entry's exact path, example2's lack of an enumerable law."""
    bound = _exact_delta(delta)
    rows = _failure_rows(strategy, bound, instead=None)  # refused here with no exact path; lazy otherwise
    if strategy.kind == "custom" or not _KINDS[strategy.kind].one_orbit(strategy):
        raise NotSymmetricError(f"{strategy.kind} has no canonical symmetric worst case; provide --state")
    eps = float(_worst_case(strategy, rows)[0])
    return _sqrt_check(math.sqrt(eps), eps)
