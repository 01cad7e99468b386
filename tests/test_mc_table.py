"""Monte-Carlo in blocks, against the per-trial deviation loop.

``eps_class_mc`` decides a block of built-in-kind trials from each trial's
raw PCG64 words.  A trial that reads at most ``draws._JUMP_WORDS`` words
gets them from ``draws._pcg64_words``, jump-ahead arithmetic on the whole
block in place, chunk by chunk, checked bit for bit against one PCG64 per
trial on both sides of every chunk edge; a longer trial
seeds that PCG64 itself, as numpy's per-word loop is then the cheaper, and
the draws are checked on both sides of the crossover.  ``draws._Words``
redoes numpy's draws on the words as array
operations (Lemire's bounded draws, Floyd's selection),
``SamplingStrategy._draws`` makes them the index rows of every trial's
(t, s), and ``_draw_block`` reads those with the estimator rows of
``SamplingStrategy._rows``.  ``draws._Calls`` makes the same draws by
Generator calls; it makes the trials the words leave (a choice of over 128
picks, which holds numpy's partial Fisher-Yates branch, or a trial past its
words) and ``sample_ts`` (``_draws`` on one Generator), and is the oracle
of the draws below, compared call by call, trial by trial as (t, s) and
kernel by kernel.  A custom strategy's drawn (t, s) are decided as
columns of the integer table that exact mode uses.  The seeds of every
``_MC_BLOCK_TRIALS`` trials are hashed at once (``_trial_seeds``) and
sliced into blocks.  The oracle of the whole is the
per-trial loop all of this replaced: one ``default_rng((seed, i))`` per
trial, one exact ``deviation`` per draw.  The two must agree exactly, ties at delta
included, on either side of every block edge.  ``_positions`` keeps its old
pair-label loop as the oracle of its plain-int path.
"""

import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qsample.draws as draws
import qsample.sampling as sampling
from qsample.sampling import (
    SubsetIndex,
    custom_strategy,
    deviation,
    eps_class_mc,
    make_strategy,
    pair_position,
)


# ---------------------------------------------------------------------------
# Monte-Carlo against the per-trial loop
# ---------------------------------------------------------------------------


def oracle_mc(strategy, q, delta, trials, rng_seed=0):
    """Pr[fail] estimated one trial at a time with the exact deviation."""
    bound = delta if isinstance(delta, Fraction) else Fraction(repr(float(delta)))
    sym = tuple(int(x) for x in q)
    failures = 0
    for i in range(trials):
        t, s = strategy.sample_ts(np.random.default_rng((int(rng_seed), i)))
        if deviation(strategy, sym, t, s) >= bound:
            failures += 1
    return failures / trials


BLOCK = 4  # trials per block while the property runs
CELLS = 24  # cells per block then: a trial with more than CELLS / BLOCK gets fewer per block
TRIALS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 2]
DELTAS = [0.1, 0.15, 0.25, Fraction(1, 3), 0.5]


def _custom(n, d, subsets, weights, by_symbol):
    total = sum(weights)
    support = [(t, i % 3, Fraction(w, total)) for i, (t, w) in enumerate(zip(subsets, weights))]
    if by_symbol:  # reads the symbols' values, not only their zero pattern
        estimator = lambda t, qt, s: Fraction(sum(qt) + s, (d - 1) * len(qt) + 2) if qt else Fraction(s, 3)
    else:
        estimator = lambda t, qt, s: Fraction(sum(1 for x in qt if x), len(qt)) if qt else 0.5
    return custom_strategy(n, support, estimator, d=d)


@st.composite
def mc_cases(draw):
    kind = draw(st.sampled_from(["example1", "example2", "example3", "example4", "example5", "example6", "custom"]))
    d = draw(st.sampled_from([2, 3]))
    if kind == "custom":
        n = draw(st.integers(2, 5))
        subsets = draw(st.lists(st.sets(st.integers(1, n)).map(sorted), min_size=1, max_size=4))
        weights = draw(st.lists(st.integers(1, 3), min_size=len(subsets), max_size=len(subsets)))
        strategy = _custom(n, d, subsets, weights, draw(st.booleans()))
    elif kind == "example3":
        strategy = make_strategy(kind, n=draw(st.integers(1, 8)), d=d)
    elif kind in ("example5", "example6"):
        n = draw(st.integers(1, 5))
        if kind == "example5":
            strategy = make_strategy(kind, n=n, k=draw(st.integers(1, n)), d=d)
        else:
            p = draw(st.sampled_from([0.3, 0.5]))
            strategy = make_strategy(kind, n=n, k=2 * draw(st.integers(1, n)), p=p, d=d)
    else:
        n = draw(st.integers(1, 8))
        k = draw(st.integers(1, n + 2 if kind == "example2" else n))
        strategy = make_strategy(kind, n=n, k=k, d=d)
    q = draw(st.lists(st.integers(0, d - 1), min_size=strategy.length, max_size=strategy.length))
    return strategy, q


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    case=mc_cases(),
    delta=st.sampled_from(DELTAS),
    trials=st.sampled_from(TRIALS),
    seed=st.integers(0, 2 ** 32),
)
def test_mc_matches_the_per_trial_deviation_loop(case, delta, trials, seed):
    strategy, q = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "_MC_BLOCK_TRIALS", BLOCK)
        mp.setattr(sampling, "_BLOCK_CELLS", CELLS)
        est = eps_class_mc(strategy, q, delta, trials, rng_seed=seed)
    assert est.value == oracle_mc(strategy, q, delta, trials, rng_seed=seed)
    assert est.trials == trials


# on each string a trial among the first three (seed 7) deviates by exactly
# delta; e.g. example1 n=3 k=1 on 100 deviates by 1/2 or 1
TIES = [
    ("example1", {"n": 3, "k": 1}, (1, 0, 0), Fraction(1, 2)),
    ("example3", {"n": 4}, (1, 0, 0, 0), Fraction(1, 4)),
    ("example5", {"n": 2, "k": 1}, (1, 0, 0, 0), Fraction(1, 2)),
    ("example6", {"n": 2, "k": 2, "p": 0.5}, (1, 0, 0, 0), Fraction(1, 2)),
]


@pytest.mark.parametrize("kind,params,q,tie", TIES, ids=[case[0] for case in TIES])
@pytest.mark.parametrize("trials", [BLOCK - 1, BLOCK, BLOCK + 1])
def test_mc_hits_ties_at_delta_on_block_edges(monkeypatch, trials, kind, params, q, tie):
    # a tie fails whether delta is the float or the Fraction
    strategy = make_strategy(kind, params)
    monkeypatch.setattr(sampling, "_MC_BLOCK_TRIALS", BLOCK)
    for delta in (float(tie), tie):
        value = eps_class_mc(strategy, q, delta, trials, rng_seed=7).value
        assert value == oracle_mc(strategy, q, delta, trials, rng_seed=7)
    assert any(
        deviation(strategy, q, *strategy.sample_ts(np.random.default_rng((7, i)))) == tie
        for i in range(trials)
    )


@pytest.mark.parametrize("kind,params", [
    ("example1", {"n": 1100, "k": 30}),
    ("example2", {"n": 1100, "k": 30}),
    ("example3", {"n": 1100}),
    ("example4", {"n": 1100, "k": 30}),
    ("example5", {"n": 550, "k": 30}),
    ("example6", {"n": 550, "k": 30, "p": 0.3}),
])
def test_mc_on_strings_longer_than_a_full_block(kind, params):
    # L > _BLOCK_CELLS / _MC_BLOCK_TRIALS; a block of a built-in kind is
    # sized by twice a trial's words instead where that is smaller: 225 to
    # 428 trials for kinds 3, 5 and 6 here, while kinds 1, 2 and 4 read 17 to
    # 46 words and take _MC_BLOCK_TRIALS (1024), so 1100 trials end in a part
    # block on every kind
    strategy = make_strategy(kind, params)
    assert strategy.length * sampling._MC_BLOCK_TRIALS > sampling._BLOCK_CELLS
    assert 1100 % min(sampling._MC_BLOCK_TRIALS, sampling._BLOCK_CELLS // (2 * sampling._trial_words(strategy)))
    q = [int(x) for x in np.random.default_rng(5).integers(0, 2, size=strategy.length)]
    est = eps_class_mc(strategy, q, 0.05, 1100, rng_seed=11)
    assert est.value == oracle_mc(strategy, q, 0.05, 1100, rng_seed=11)


def test_mc_hashes_the_seeds_once_per_block_trials(monkeypatch):
    # a choice of 500 picks is made by Generator calls, so a block is sized
    # by the 2000 positions: 131 trials; the seeds are still hashed once per
    # _MC_BLOCK_TRIALS trials and sliced
    strategy = make_strategy("example1", {"n": 2000, "k": 500})
    hashed, trial_seeds = [], draws._trial_seeds
    monkeypatch.setattr(draws, "_trial_seeds", lambda seed, trials: hashed.append(trials) or trial_seeds(seed, trials))
    q = [int(x) for x in np.random.default_rng(8).integers(0, 2, size=strategy.length)]
    block = sampling._MC_BLOCK_TRIALS
    est = eps_class_mc(strategy, q, 0.02, block + 44, rng_seed=3)
    assert sampling._trial_words(strategy) is None and sampling._BLOCK_CELLS // strategy.length == 131
    assert hashed == [range(0, block), range(block, block + 44)]
    assert est.value == oracle_mc(strategy, q, 0.02, block + 44, rng_seed=3)


SEEDS = [0, 1, 2 ** 31 - 2, 2 ** 32 + 5, 2 ** 64 + 3, 2 ** 100]  # one to four entropy words


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trials", [range(3001), range(2 ** 32 - 1, 2 ** 32 + 1)])
def test_trial_generators_load_the_states_of_default_rng(seed, trials):
    # indices from 2^32 on are two entropy words; with four seed words the
    # entropy runs past SeedSequence's pool
    got = []
    for rng in draws._generators(draws._trial_seeds(seed, trials)):
        got.append(rng.bit_generator.state)
        rng.integers(0, 5, size=3, dtype=np.int32)  # leaves a buffered half-word
    assert got == [np.random.default_rng((seed, i)).bit_generator.state for i in trials]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trials", [range(300), range(2 ** 32 - 5, 2 ** 32 + 5)])
def test_jump_ahead_words_are_those_of_a_pcg64_per_trial(seed, trials):
    seeds = draws._trial_seeds(seed, trials)
    want = np.array([draws._pcg64(row).random_raw(draws._JUMP_WORDS) for row in seeds])
    for count in range(1, draws._JUMP_WORDS + 1):
        got = draws._pcg64_words(seeds, count)
        assert got.dtype == np.uint64 and (got == want[:, :count]).all()


@pytest.mark.parametrize("seed", [2 ** 32 + 5, 2 ** 64 + 3])
def test_jump_ahead_words_are_exact_where_the_chunks_meet(seed):
    # _pcg64_words runs on chunks of h = _WORD_CELLS // count rows: a block
    # of 1, h - 1, h, h + 1 and 1024 rows, at every count
    heights = [max(1, draws._WORD_CELLS // count) for count in range(1, draws._JUMP_WORDS + 1)]
    seeds = draws._trial_seeds(seed, range(max(max(heights) + 1, 1024)))
    want = np.array([draws._pcg64(row).random_raw(draws._JUMP_WORDS) for row in seeds])
    for count, h in zip(range(1, draws._JUMP_WORDS + 1), heights):
        for rows in sorted({1, h - 1, h, h + 1, 1024} - {0}):
            got = draws._pcg64_words(seeds[:rows], count)
            assert got.shape == (rows, count) and (got == want[:rows, :count]).all(), (count, rows)


# Peak traced allocation of one 1024 x 64 _pcg64_words call: the 512 KB
# output, three 128 KB scratch chunks and numpy's 128 KB of buffers for a
# broadcast product, 1.06 MB in all.  The same
# arithmetic on whole-block temporaries peaked at 3.7 MB, about 7 times the
# output.
WORDS_PEAK_LIMIT_BYTES = 1_300_000


def test_jump_ahead_words_take_flat_scratch_memory():
    seeds = draws._trial_seeds(2 ** 32 + 5, range(1024))
    draws._pcg64_words(seeds, 64)  # the jump constants stay out of the peak
    tracemalloc.start()
    try:
        draws._pcg64_words(seeds, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < WORDS_PEAK_LIMIT_BYTES


@pytest.mark.parametrize("per_trial", [1, draws._JUMP_WORDS, draws._JUMP_WORDS + 1, 3 * draws._JUMP_WORDS])
def test_words_take_the_jump_ahead_only_up_to_the_crossover(monkeypatch, per_trial):
    jumped, pcg64_words = [], draws._pcg64_words
    monkeypatch.setattr(draws, "_pcg64_words", lambda seeds, count: jumped.append(count) or pcg64_words(seeds, count))
    seeds = draws._trial_seeds(6, range(5))
    got = draws._Words(seeds, per_trial)._words()
    assert jumped == ([per_trial] if per_trial <= draws._JUMP_WORDS else [])
    assert got.tolist() == [draws._pcg64(row).random_raw(per_trial).tolist() for row in seeds]


def test_jump_constants_are_built_at_the_first_draw_not_at_import():
    path = os.path.dirname(os.path.dirname(sampling.__file__))  # the qsample under test
    code = (
        f"import sys; sys.path.insert(0, {path!r}); import qsample.cli; import qsample.draws as d; "
        "print(d._jumps.cache_info().currsize)"
    )
    assert subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout == "0\n"


def test_importing_qsample_leaves_numpy_random_as_importing_numpy_does():
    # draws._entropy_type imports numpy.random at first use, which keeps it
    # out of every start-up that draws nothing
    def loads_numpy_random(module):
        path = os.path.dirname(os.path.dirname(sampling.__file__))  # the qsample under test
        code = f"import sys; sys.path.insert(0, {path!r}); import {module}; print('numpy.random' in sys.modules)"
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout == "True\n"

    assert loads_numpy_random("qsample") <= loads_numpy_random("numpy")


# ---------------------------------------------------------------------------
# raw-word draws against the Generator calls
# ---------------------------------------------------------------------------

# (pool, size) on both sides of the 128 picks past which the words leave a
# choice to the Generator call, and of numpy's partial Fisher-Yates branch
# (pool > 10000 and size > pool // 50) past it
FLOYD_EDGE = [(20000, 128), (20000, 129), (200, 128), (200, 129), (10001, 200), (10001, 201), (20000, 401)]


@st.composite
def draw_programs(draw):
    """A few trials' draw calls, in the order a kernel makes them: perhaps
    random(n) < p first, then choice and integers calls; a choice's pool and
    size may differ per trial."""
    rows = draw(st.integers(1, 4))
    bias = st.floats(0, 1, exclude_min=True, exclude_max=True) | st.sampled_from([0.3, 0.5, 2 ** -53, 1 - 2 ** -53])
    calls = [("random_below", draw(st.integers(1, 5)), draw(bias))] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            small = st.integers(0, 30).flatmap(lambda p: st.tuples(st.just(p), st.sampled_from([0, p]) | st.integers(0, p)))
            pairs = draw(st.lists(small | st.sampled_from(FLOYD_EDGE), min_size=rows, max_size=rows))
            calls.append(("choice", np.array([p for p, _ in pairs]), np.array([s for _, s in pairs])))
        else:  # odd counts leave half a word for the next call
            m = draw(st.integers(1, 6) | st.integers(2 ** 31, 2 ** 32) | st.integers(1, 2 ** 32))
            calls.append(("integers", m, draw(st.integers(0, 7))))
    return rows, calls


@settings(max_examples=150, deadline=None)
@given(program=draw_programs(), seed=st.integers(0, 2 ** 32), data=st.data())
def test_raw_word_draws_match_the_generator_calls(program, seed, data):
    # choice is compared as a set, the only thing the kernels read of it.
    # The words come from the jump-ahead arithmetic up to _JUMP_WORDS a
    # trial, where a trial may run past them, or from one PCG64 per trial
    # past it, with room for rejections
    rows, calls = program
    seeds = draws._trial_seeds(seed, range(rows))
    reads = sum(2 * int(np.max(c[2])) if c[0] == "choice" else c[2] for c in calls if c[0] != "random_below")
    whole = sum(c[1] for c in calls if c[0] == "random_below")
    per_trial = data.draw(st.integers(whole + 1, draws._JUMP_WORDS) | st.just(whole + 2 * reads + draws._JUMP_WORDS), label="words")
    words, oracle = draws._Words(seeds, per_trial), draws._Calls(seeds)
    replayed = np.zeros(rows, dtype=bool)
    for op, *args in calls:
        got, want = getattr(words, op)(*args), getattr(oracle, op)(*args)
        if op == "choice":
            replayed |= args[1] > 128  # left to the Generator call
            got, want = np.sort(got, axis=1), np.sort(want, axis=1)
        assert got.shape == want.shape
        assert (got[~words.lost] == want[~words.lost]).all()
    # a trial runs past its words iff its Generator read more than per_trial:
    # the next word it would read is not among the first per_trial + 1
    ran_out = [
        g.bit_generator.random_raw() not in draws._pcg64(row).random_raw(per_trial + 1)
        for g, row in zip(oracle.generators, seeds)
    ]
    assert words.lost.tolist() == (replayed | ran_out).tolist()


def test_bounded_draw_rejects_as_numpy_does():
    # a range of 3 * 2^30 rejects x m mod 2^32 < 2^30: a quarter of the draws
    m, size = 3 * 2 ** 30, 400
    seeds = draws._trial_seeds(9, range(8))
    words = draws._Words(seeds, size)
    got = words.integers(m, size)
    want = [np.random.default_rng((9, i)).integers(0, m, size=size) for i in range(8)]
    assert not words.lost.any()
    assert got.tolist() == [w.tolist() for w in want]
    assert 1.25 < words.at.mean() / size < 1.42  # 4/3 reads per draw


def test_a_trial_past_its_words_is_lost_and_replayed(monkeypatch):
    # one word holds two uint32 reads, so a third draw runs out
    words = draws._Words(draws._trial_seeds(2, range(6)), 1)
    words.integers(7, 3)
    assert words.lost.all()
    # example6 reads a whole word per pair for its coins, then 3 uint32 for
    # its two choices of 2 of 8 pairs when at most one pair is kept, and 5
    # or 6 otherwise, so with two words more the trials that keep 3 to 5
    # pairs run out before their second choice's last pick
    monkeypatch.setattr(sampling, "_trial_words", lambda strategy: strategy.n + 2)
    strategy = make_strategy("example6", n=8, k=4, p=0.3)
    seeds = draws._trial_seeds(4, range(60))
    z = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1])
    words = draws._Words(seeds, strategy.n + 2)
    raw = sampling._draw_block(strategy, z, words)
    want = sampling._draw_block(strategy, z, draws._Calls(seeds))
    assert 0 < words.lost.sum() < len(seeds)
    assert any((x != y)[words.lost].any() for x, y in zip(raw, want))
    block = sampling._mc_block(strategy, z, seeds)
    assert [x.tolist() for x in block] == [x.tolist() for x in want]


@st.composite
def kernel_cases(draw):
    kind = draw(st.sampled_from(["example1", "example2", "example3", "example4", "example5", "example6"]))
    if kind in ("example1", "example4", "example5") and draw(st.integers(0, 3)) == 0:
        n, k = draw(st.sampled_from(FLOYD_EDGE))  # on either side of a branch
    else:
        n = draw(st.integers(1, 12))
        k = draw(st.integers(1, n) | st.just(n))
    if kind == "example3":
        return make_strategy(kind, n=n)
    if kind == "example6":
        return make_strategy(kind, n=n, k=2 * draw(st.integers(1, n)), p=draw(st.sampled_from([0.1, 0.5, 0.9])))
    return make_strategy(kind, n=n, k=draw(st.integers(1, 2 * n)) if kind == "example2" else k)


@settings(max_examples=60, deadline=None)
@given(strategy=kernel_cases(), trials=st.integers(1, 6), seed=st.integers(0, 2 ** 32))
def test_raw_word_blocks_match_the_generator_calls_of_each_kind(strategy, trials, seed):
    seeds = draws._trial_seeds(seed, range(trials))
    z = np.random.default_rng(seed).integers(0, 2, size=strategy.length)
    block = sampling._mc_block(strategy, z, seeds)
    want = sampling._draw_block(strategy, z, draws._Calls(seeds))
    assert [x.tolist() for x in block] == [x.tolist() for x in want]


def as_tuples(strategy, t, s):
    """One trial's index rows of ``_draws`` as the (t, s) tuples of a draw:
    t sorted; a seed sorted, but example2's draws in order and example6's
    split into its two slots."""
    t = tuple(sorted(int(x) + 1 for x in t if x >= 0))
    if s is None:
        return t, None
    s = [int(x) + 1 for x in s if x >= 0]
    if strategy.kind == "example2":
        return t, tuple(s)
    if strategy.kind == "example6":
        return t, (tuple(sorted(x for x in s if x <= strategy.n)), tuple(sorted(x for x in s if x > strategy.n)))
    return t, tuple(sorted(s))


def estimator_terms(rows, r):
    """Row r of _stack's (t, P, W, D, A): t as a set, w as {position: weight}, D and A."""
    t, P, W, D, A = rows
    weights = {}
    for p, w in zip(P[r].tolist(), np.broadcast_to(W, P.shape)[r].tolist()):
        if p >= 0:
            weights[p] = weights.get(p, 0) + w
    return sorted(x for x in t[r].tolist() if x >= 0), weights, int(D[r]), int(A[r])


@settings(max_examples=60, deadline=None)
@given(strategy=kernel_cases(), trials=st.integers(1, 6), seed=st.integers(0, 2 ** 32))
@example(strategy=make_strategy("example6", n=8, k=8, p=0.5), trials=3, seed=5)  # halves drawn out of order
@example(strategy=make_strategy("example2", n=4, k=8), trials=4, seed=1)  # repeated draws
@example(strategy=make_strategy("example5", n=6, k=3), trials=4, seed=2)
def test_one_array_law_serves_sample_ts_and_both_draw_sources(strategy, trials, seed):
    # the law is written once, in _draws: on the Generator calls of trial i
    # it is sample_ts on default_rng((seed, i)), and on raw words it draws
    # the same (t, s) on every trial the words do not leave
    seeds = draws._trial_seeds(seed, range(trials))
    t, s = strategy._draws(draws._Calls(seeds))
    calls = [as_tuples(strategy, t[i], None if s is None else s[i]) for i in range(trials)]
    assert calls == [strategy.sample_ts(np.random.default_rng((seed, i))) for i in range(trials)]
    per_trial = sampling._trial_words(strategy)
    if per_trial is not None:
        words = draws._Words(seeds, per_trial)
        t, s = strategy._draws(words)
        kept = np.flatnonzero(~words.lost)
        assert [as_tuples(strategy, t[i], None if s is None else s[i]) for i in kept] == [calls[i] for i in kept]


@settings(max_examples=60, deadline=None)
@given(strategy=kernel_cases(), trials=st.integers(1, 6), seed=st.integers(0, 2 ** 32))
@example(strategy=make_strategy("example6", n=4, k=4, p=0.5), trials=6, seed=2)  # halves of several sizes
@example(strategy=make_strategy("example4", n=6, k=4), trials=6, seed=3)
@example(strategy=make_strategy("example3", n=5), trials=6, seed=4)
def test_estimator_rows_of_a_stack_are_those_of_each_column(strategy, trials, seed):
    # stacking pads the rows to one width; each row's terms stay its own,
    # for columns given as tuples and for the index rows of _draws
    columns = [strategy.sample_ts(np.random.default_rng((seed, i))) for i in range(trials)]
    stacked = strategy._stack(columns)
    assert [estimator_terms(stacked, r) for r in range(trials)] == [
        estimator_terms(strategy._stack([column]), 0) for column in columns
    ]
    t, s = strategy._draws(draws._Calls(draws._trial_seeds(seed, range(trials))))
    stacked = (t, *strategy._rows(t, s))
    alone = [(t[r : r + 1], *strategy._rows(t[r : r + 1], None if s is None else s[r : r + 1])) for r in range(trials)]
    assert [estimator_terms(stacked, r) for r in range(trials)] == [estimator_terms(rows, 0) for rows in alone]


@pytest.mark.parametrize("k", [500, 5000])
def test_mc_on_pools_past_floyd_matches_the_per_trial_loop(k):
    # choice(20000, k) takes numpy's partial Fisher-Yates branch for k > 400,
    # so every trial is replayed by its Generator calls
    strategy = make_strategy("example1", n=20_000, k=k)
    q = [int(x) for x in np.random.default_rng(4).integers(0, 2, size=strategy.length)]
    est = eps_class_mc(strategy, q, 0.01, 12, rng_seed=3)
    assert est.value == oracle_mc(strategy, q, 0.01, 12, rng_seed=3)


def test_negative_seed_raises_the_error_of_default_rng():
    with pytest.raises(ValueError) as new:
        eps_class_mc(make_strategy("example1", n=4, k=2), (1, 0, 1, 0), 0.2, 10, rng_seed=-1)
    with pytest.raises(ValueError) as old:
        np.random.default_rng((-1, 0))
    assert str(new.value) == str(old.value)


def test_mc_custom_estimator_sees_symbol_values():
    # the estimate is q_1 / 2, so on q = 21 it is exact only if the
    # estimator gets the symbol 2, not the zero pattern 1
    strategy = custom_strategy(2, [((1,), None, Fraction(1))], lambda t, qt, s: Fraction(qt[0], 2), d=3)
    assert eps_class_mc(strategy, (2, 1), 0.25, 3).value == oracle_mc(strategy, (2, 1), 0.25, 3) == 0.0
    assert eps_class_mc(strategy, (1, 1), 0.25, 3).value == oracle_mc(strategy, (1, 1), 0.25, 3) == 1.0


def test_custom_draws_match_the_per_draw_weights():
    # sample_ts once rebuilt and renormalised the float weights on every
    # draw; the array a custom strategy computes once must give the same draws
    def per_draw(strategy, rng):
        weights = np.array([float(p) for (_, _, p) in strategy.table])
        t, s, _ = strategy.table[rng.choice(len(weights), p=weights / weights.sum())]
        return t, s

    strategy = _custom(5, 2, [[1], [2, 3], [1, 4, 5], [], [2, 5]], [1, 2, 3, 7, 11], False)
    for seed in range(20):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        assert [strategy.sample_ts(new) for _ in range(10)] == [per_draw(strategy, old) for _ in range(10)]


def test_mc_string_of_the_wrong_length_raises_the_old_error():
    strategy = make_strategy("example5", n=2, k=1)
    with pytest.raises(ValueError) as new:
        eps_class_mc(strategy, (1, 0, 1), 0.2, 10)
    with pytest.raises(ValueError) as old:
        oracle_mc(strategy, (1, 0, 1), 0.2, 10)
    assert str(new.value) == str(old.value) == "string length 3 != strategy length 4"


def test_tie_rule_decides_products_past_int64_exactly():
    # A = n and D = n c0 c1 of example6 at n = k = 10^6: T D and E A reach
    # 10^22, so T D - E A wraps in int64; two cells of each row sit exactly
    # on delta and just inside it
    bound = Fraction(1, 10 ** 4)
    A = np.array([10 ** 6, 999_999, 10 ** 6, 10 ** 6])
    D = np.array([6 * 10 ** 16, 10 ** 16 + 7, 6 * 10 ** 16, 6 * 10 ** 16])
    rng = np.random.default_rng(3)
    T = rng.integers(0, A + 1, size=(40, 4))
    E = rng.integers(0, D + 1, size=(40, 4))
    T[:, 2:] = 500_000
    E[:, 2] = 3 * 10 ** 16 - 6 * 10 ** 12  # D (T / A - delta): a tie, rejected
    E[:, 3] = E[:, 2] + 1
    got = sampling._tie_rule(A, D, bound)(T, E)
    want = [
        [abs(Fraction(int(t), int(a)) - Fraction(int(e), int(d))) >= bound for t, e, a, d in zip(*row, A, D)]
        for row in zip(T, E)
    ]
    assert got.tolist() == want
    assert got[:, 2].all() and not got[:, 3].any()


def test_mc_past_int64_matches_the_per_trial_deviation():
    # the per-trial deviation (oracle_mc, about 15 s here) rejects 4 of these
    # 5 draws; deciding in int64 wrapped and read 0.0
    n = 10 ** 6
    q = np.random.default_rng(0).integers(0, 2, 2 * n)
    estimate = eps_class_mc(make_strategy("example6", n=n, k=n, p=0.5), q, 1e-4, 5, rng_seed=0)
    assert estimate.value == 0.8


# Peak traced allocation of one call, 20 000 trials, under a limit per kind.
# Blocks of at most _MC_BLOCK_TRIALS (1024) peak at about 0.86, 0.21 and
# 0.86 MB.  Blocks sized by twice a trial's words alone (10922, 65536 and
# 10922 trials) peak at about 7.4, 2.50 and 7.4 MB, so every case catches
# them with room on both sides.
PEAK_LIMIT_BYTES = {"example2": 2_500_000, "example5": 1_000_000}


@pytest.mark.parametrize("kind,params,q", [
    ("example2", {"n": 100, "k": 20}, (1, 0) * 50),
    ("example5", {"n": 1, "k": 1}, (1, 0)),
    ("example2", {"n": 10, "k": 20}, (1, 0) * 5),
])
def test_mc_block_memory_is_bounded(kind, params, q):
    strategy = make_strategy(kind, params)
    eps_class_mc(strategy, q, 0.1, 10)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        eps_class_mc(strategy, q, 0.1, 20_000, rng_seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_LIMIT_BYTES[kind]


# ---------------------------------------------------------------------------
# _positions against its pair-label loop
# ---------------------------------------------------------------------------


def oracle_positions(J, n=None):
    if J is None:
        return ()
    if isinstance(J, SubsetIndex):
        return J.positions
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


def _outcome(fn, J, n):
    try:
        return "ok", fn(J, n)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


POSITION_CASES = [
    ((3, 1, 2), None),
    ([5], None),
    ([np.int64(4), 2, np.int32(1)], None),
    (np.array([3, 1]), None),
    ([2.0, 1.0, 3.7], None),
    ((1, 3, 1), None),
    ([2.0, 2], None),
    ((), None),
    ([], 3),
    (None, None),
    (SubsetIndex((1, 3), 4), None),
    (SubsetIndex((), 0), 2),
    ([(1, 0), (2, 1)], 2),
    ([(2, 1), (1, 0)], None),
    ([1, (2, 1)], 3),
    ([(1, 1), 4], 3),
    ([1, (1, 0)], 2),
    ([(3, 0)], 2),
    ([(1, 2)], 2),
    (["a", (1, 0)], 2),
    ([(1, 0), "a"], 2),
    (["2", "1"], None),
    ([None, 1], None),
    ([1, None], None),
    (5, None),
    ("312", None),
]


@pytest.mark.parametrize("J,n", POSITION_CASES)
def test_positions_match_the_pair_label_loop(J, n):
    assert _outcome(sampling._positions, J, n) == _outcome(oracle_positions, J, n)


@pytest.mark.parametrize("J,n", [([3, 1, 2], None), ([(1, 1), 1], 2), ([2, 2], None)])
def test_positions_read_a_one_shot_iterator_once(J, n):
    assert _outcome(sampling._positions, iter(J), n) == _outcome(oracle_positions, iter(J), n)


@settings(max_examples=100, deadline=None)
@given(
    items=st.lists(
        st.one_of(
            st.integers(-1, 8),
            st.integers(0, 8).map(float),
            st.integers(0, 8).map(np.int64),
            st.tuples(st.integers(0, 4), st.integers(0, 2)),
        ),
        max_size=6,
    ),
    n=st.one_of(st.none(), st.integers(1, 4)),
)
def test_positions_match_the_loop_on_mixed_items(items, n):
    assert _outcome(sampling._positions, items, n) == _outcome(oracle_positions, items, n)
