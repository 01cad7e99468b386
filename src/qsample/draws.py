"""numpy's Generator draws for blocks of seeded Monte-Carlo trials, redone
on raw PCG64 words.

Trial i of a Monte-Carlo run draws from ``np.random.default_rng((seed, i))``.
Seeding one Generator per trial, and one Generator call per draw, costs
microseconds of interpreter work each.  Here the seeds of a block of trials
come from one batched SeedSequence hash (:func:`_trial_seeds`).  A trial
that reads at most ``_JUMP_WORDS`` words gets them by jump-ahead arithmetic
on the whole block (:func:`_pcg64_words`): PCG64 is a 128-bit LCG, so each
word is one multiply-add from the seed.  The arithmetic runs in place on
chunks of the block, so its memory past the words stays at most three
chunks of ``_WORD_CELLS`` words however many trials a block holds (up to
1024, ``sampling._MC_BLOCK_TRIALS``).  It costs about 8 times as much per word as numpy's own
loop, so a longer trial seeds one PCG64 and reads its words with one
``random_raw`` call instead.  :class:`_Words` makes the
draws numpy would make from those words, as array operations on the whole
block: ``random`` compared with a bias, bounded ``integers`` by Lemire's
method, and ``choice`` without replacement by Floyd's algorithm.
:class:`_Calls` makes them by Generator calls, for the trials :class:`_Words`
leaves and for ``sample_ts``, and is its test oracle.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx)
_HASH_INIT_A, _HASH_MULT_A, _HASH_INIT_B, _HASH_MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _POOL_WORDS = 0xCA01F9DD, 0x4973F715, 4
_WORD = (1 << 32) - 1


def _hash_seeds(seed_words: list[int], index_words: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(seed_words + the index words of row r).generate_state(4,
    uint64)`` for every row r of ``index_words``, as rows of 4 words:
    SeedSequence's pool hash and mix on uint32 arrays with one entry per
    row.  The multipliers of the hash depend only on the entropy length, so
    they advance in Python ints."""
    rows = len(index_words[0])
    entropy = [np.full(rows, w, dtype=np.uint32) for w in seed_words] + index_words
    const = _HASH_INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _HASH_MULT_A & _WORD
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ (value >> np.uint32(16))

    zero = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_WORDS:]:  # entropy past the pool: each word into every pool word
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, out = _HASH_INIT_B, np.empty((rows, 8), dtype="<u4")  # 8 words cycling the pool
    for i in range(8):
        value = pool[i % _POOL_WORDS] ^ np.uint32(const)
        const = const * _HASH_MULT_B & _WORD
        value = value * np.uint32(const)
        out[:, i] = value ^ (value >> np.uint32(16))
    return out.view("<u8").astype(np.uint64)  # word pairs, low half first


@functools.cache
def _entropy_type() -> type:
    """The seed sequence of :func:`_pcg64`, made at first use: importing
    qsample leaves numpy.random unloaded, as importing numpy does."""
    from numpy.random.bit_generator import ISeedSequence

    class Entropy(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Entropy


def _pcg64(words: np.ndarray) -> np.random.PCG64:
    """A PCG64 seeded with one row of :func:`_hash_seeds`, as it stands in
    ``default_rng((seed, i))``, in about a microsecond: PCG64 asks its seed
    sequence for generate_state(4, uint64) and runs its own srandom on the
    answer.  It makes the Generators of :class:`_Calls` and the words of a
    trial too long for :func:`_pcg64_words`, and is that function's test
    oracle."""
    return np.random.PCG64(_entropy_type()(words))


# PCG64's LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_WORD64, _STATE = (1 << 64) - 1, (1 << 128) - 1

# A jump-ahead word costs about 23 ns of array arithmetic, some 8 times a
# word of numpy's own loop, so the arithmetic wins only while the 2 us of
# seeding one PCG64 per trial dominates.  At 1024 trials (2-core Xeon,
# medians of 7 interleaved runs, against one PCG64 and random_raw per
# trial): 12 words 0.38 ms against 2.12 ms, 51 words 1.38 against 2.22, 64
# words 1.62 against 2.21, 80 words 2.03 against 2.33, 88 words 2.22 against
# 2.31, 96 words 2.40 against 2.29, 128 words 3.13 against 2.45; at 256
# trials 80 words 0.53 ms against 0.58 and 96 words 0.60 against 0.60.  A
# trial that reads more is seeded as its own PCG64.
_JUMP_WORDS = 80


@functools.cache
def _jumps() -> np.ndarray:
    """Rows a_hi, a_lo, b_hi, b_lo of the 128-bit (a, b) = (M^(j+1), G_(j+2))
    for j = 1 .. ``_JUMP_WORDS``, split into 64-bit halves, then the 32-bit
    limbs of a_lo and b_lo: built at the first jump, not at import."""
    rows, a, g = [], _PCG_MULT ** 2 & _STATE, 1 + _PCG_MULT + _PCG_MULT ** 2
    for _ in range(_JUMP_WORDS):
        rows.append([a >> 64, a & _WORD64, g >> 64 & _WORD64, g & _WORD64])
        a = a * _PCG_MULT & _STATE
        g = g + a & _STATE  # G_(m+1) = G_m + M^m
    a_hi, a_lo, b_hi, b_lo = np.array(rows, dtype=np.uint64).T
    out = np.array([a_hi, a_lo, b_hi, b_lo, a_lo & _WORD, a_lo >> 32, b_lo & _WORD, b_lo >> 32])
    out.flags.writeable = False  # one array serves every block
    return out


def _mulhi(hi: np.ndarray, c0: np.ndarray, c1: np.ndarray, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """hi += the high 64 bits of c x, c = c1 2^32 + c0, in 32-bit limbs whose
    partial sums stay below 2^64 (Hacker's Delight, 8-2); u and v, of hi's
    shape, are scratch."""
    x0, x1 = x & np.uint64(_WORD), x >> np.uint64(32)
    np.multiply(c0, x0, out=u)
    u >>= np.uint64(32)
    np.multiply(c1, x0, out=v)
    u += v  # u = c1 x0 + (c0 x0 >> 32)
    np.bitwise_and(u, np.uint64(_WORD), out=v)
    u >>= np.uint64(32)
    hi += u
    np.multiply(c0, x1, out=u)
    v += u  # v = c0 x1 + (u & (2^32 - 1))
    v >>= np.uint64(32)
    hi += v
    np.multiply(c1, x1, out=u)
    hi += u


# _pcg64_words runs on chunks of rows of about this many words each, in three
# scratch arrays of one chunk that every chunk reuses, so its memory past
# the output stays flat however many trials a block holds.  At 1024 trials
# (2-core Xeon, medians of 5 interleaved runs), chunks of 2^13, 2^14, 2^15,
# 2^16 words and the whole block took 0.45, 0.37, 0.49, 0.51, 0.50 ms at 12
# words a trial, 1.58, 1.36, 1.26, 1.22, 1.22 ms at 51, and 1.91, 1.57,
# 1.46, 1.50, 1.55 ms at 64; a 1024 x 64 call peaks at 1.06 MB of traced
# memory, where the same arithmetic on whole-block temporaries took 2.95 ms
# and peaked at 3.7 MB.
_WORD_CELLS = 1 << 14


def _pcg64_words(seeds: np.ndarray, count: int) -> np.ndarray:
    """``_pcg64(row).random_raw(count)`` for every row of ``seeds``
    (:func:`_trial_seeds`), ``count`` up to ``_JUMP_WORDS``, as uint64
    arithmetic on the whole block with no PCG64 made.

    PCG64 is the 128-bit LCG S -> M S + inc with the XSL-RR output
    rotr64(hi ^ lo, hi >> 58) of each new state.  Its srandom on the seed
    words (w0, w1, w2, w3) sets init = w0 2^64 + w1 and inc = 2 (w2 2^64 +
    w3) + 1, steps from 0, adds init and steps again, so word j >= 1 is the
    output of S_j = M^(j+1) init + G_(j+2) inc mod 2^128, with G_m = 1 + M +
    ... + M^(m-1) (Brown, "Random Number Generation with Arbitrary Strides",
    1994): two 128-bit products per word, from the constants of
    :func:`_jumps`.  The products run in place, chunk by chunk of
    ``_WORD_CELLS`` words, with each chunk's low halves in the output."""
    a_hi, a_lo, b_hi, b_lo, a0, a1, b0, b1 = _jumps()[:, :count]
    out, step = np.empty((len(seeds), count), dtype=np.uint64), max(1, _WORD_CELLS // count)
    scratch = np.empty((3, min(len(seeds), step), count), dtype=np.uint64)
    for first in range(0, len(seeds), step):
        w0, w1, w2, w3 = (seeds[first : first + step, i : i + 1] for i in range(4))
        c_hi, c_lo = w2 << np.uint64(1) | w3 >> np.uint64(63), w3 << np.uint64(1) | np.uint64(1)
        lo = out[first : first + step]
        hi, u, v = scratch[:, : len(lo)]
        np.multiply(a_lo, w1, out=u)
        np.multiply(b_lo, c_lo, out=lo)
        lo += u
        np.less(lo, u, out=hi)  # the carry out of the low half
        _mulhi(hi, a0, a1, w1, u, v)
        _mulhi(hi, b0, b1, c_lo, u, v)
        for c, x in ((a_lo, w0), (a_hi, w1), (b_lo, c_hi), (b_hi, c_lo)):
            np.multiply(c, x, out=u)
            hi += u
        lo ^= hi
        hi >>= np.uint64(58)  # the rotation r
        np.negative(hi, out=u)
        u &= np.uint64(63)
        np.left_shift(lo, u, out=v)
        lo >>= hi
        lo |= v  # rotr64(lo, r) = lo >> r | lo << (-r & 63)
    return out


def _trial_seeds(seed: int, trials: range) -> np.ndarray:
    """The seed words of ``np.random.default_rng((seed, i))`` for each trial
    index i of ``trials`` (below 2^64), at a fraction of its cost: one
    batched SeedSequence hash (see :func:`_hash_seeds`), one row per
    trial."""
    if seed < 0:
        np.random.default_rng((seed, 0))  # raises numpy's own error
    seed_words = [seed >> s & _WORD for s in range(0, max(seed.bit_length(), 1), 32)]
    out = [np.empty((0, 4), dtype=np.uint64)]
    # an index below 2^32 is one entropy word, a larger one two
    for part in (range(trials.start, min(trials.stop, 1 << 32)), range(max(trials.start, 1 << 32), trials.stop)):
        if not part:
            continue
        index = np.arange(part.start, part.stop, dtype=np.uint64)
        words = [(index & np.uint64(_WORD)).astype(np.uint32)]
        if part.start >> 32:
            words.append((index >> np.uint64(32)).astype(np.uint32))
        out.append(_hash_seeds(seed_words, words))
    return np.concatenate(out)


def _generators(seeds: np.ndarray) -> list[np.random.Generator]:
    """A fresh Generator per row of :func:`_trial_seeds`: row i of
    ``_trial_seeds(seed, trials)`` gives one equal to
    ``np.random.default_rng((seed, trials[i]))``."""
    return [np.random.Generator(_pcg64(words)) for words in seeds]


# Floyd's set costs the array form about 0.1-0.2 us a pick against 20-40 ns
# in numpy's own loop, a gap that passes the 10 us of a Generator call near
# 100 picks (2-core Xeon), so a larger choice is left to the Generator call.
# That covers numpy's one other branch too: a partial Fisher-Yates shuffle of
# arange(pop), taken when pop > 10000 and size > pop // 50, so size > 200
# (numpy/random/_generator.pyx).
_FLOYD_PICKS = 128


class _Words:
    """The draws of a block of trials, made from each trial's raw PCG64
    words as numpy's Generator makes them, on every trial at once.

    Each draw method returns one row per trial, as the Generator call it
    names would give on that trial's state (``choice`` gives the picked set,
    not its order).  The first draw reads ``words`` words of every trial:
    by :func:`_pcg64_words` on the whole block up to ``_JUMP_WORDS``, where
    the fixed cost of seeding a PCG64 per trial dominates, and past it by
    one PCG64 seeded and one ``random_raw`` per trial, whose per-word C loop
    is then the cheaper.  ``random_below`` reads whole words; the bounded
    draws read the uint32 stream of the words after them, the low half of
    each word, then the high half.  ``lost`` marks the
    trials this cannot make, those that run past their words or whose
    ``choice`` picks more than ``_FLOYD_PICKS``, for :class:`_Calls` to
    make."""

    def __init__(self, seeds: np.ndarray, words: int):
        self.seeds, self.per_trial = seeds, words
        self.lost = np.zeros(len(seeds), dtype=bool)
        self.words = self.stream = None
        self.read = 0  # whole words read by random_below

    def _words(self) -> np.ndarray:
        """The words of every trial, read at the first draw."""
        if self.words is None:
            if self.per_trial <= _JUMP_WORDS:
                self.words = _pcg64_words(self.seeds, self.per_trial)
            else:
                self.words = np.empty((len(self.seeds), self.per_trial), dtype=np.uint64)
                for row, seed in zip(self.words, self.seeds):
                    row[:] = _pcg64(seed).random_raw(self.per_trial)
        return self.words

    def random_below(self, n: int, p: float) -> np.ndarray:
        """Generator.random(n) < p, made before any bounded draw.  A draw is
        (w >> 11) 2^-53 of a whole word w, below p iff w < ceil(p 2^53) 2^11."""
        below = self._words()[:, self.read : self.read + n] < np.uint64(math.ceil(p * 2.0 ** 53) << 11)
        self.read += n
        return below

    def integers(self, m: int, size: int) -> np.ndarray:
        return self._bounded(np.full((1, size), m, dtype=np.uint64))

    def choice(self, pop, size) -> np.ndarray:
        """Floyd's set: step i draws v in [0, j] for j = pop - size + i, and
        takes j instead when v is taken; the shuffle's draws that follow, in
        [0, i] for i = size - 1 .. 1, are only read.  pop and size are one
        number for every trial, or one per trial; rows are padded to the
        largest size with -1."""
        pop, size = (np.reshape(x, (-1, 1)).astype(np.int64) for x in (pop, size))
        width, base = int(size.max(initial=0)), pop - size
        self.lost |= size[:, 0] > _FLOYD_PICKS
        step = np.arange(width)
        inside = step < size
        shuffle = np.where(step[:-1] < size - 1, size - step[:-1], 1)  # a range of 1 reads nothing
        v = self._bounded(np.hstack([np.where(inside, base + 1 + step, 1), shuffle]).astype(np.uint64))
        v = np.where(inside, v[:, :width], -1 - step)  # the padding repeats nothing
        # step i repeats a taken value iff v_i is an earlier draw (the same
        # value at a lower step, sorted first by the step in the low bits), or
        # is the j of an earlier repeating step l = v_i - base < i.  So it
        # repeats iff some step on its chain i, l, ... repeats an earlier
        # draw: pointer doubling ORs along the chains, which end in column
        # ``width``.
        bits = width.bit_length()
        keys = np.sort(v << bits | step, axis=1)
        row, col = np.nonzero(keys[:, 1:] >> bits == keys[:, :-1] >> bits)
        repeat = np.zeros((len(v), width + 1), dtype=bool)
        repeat[row, keys[row, col + 1] & ((1 << bits) - 1)] = True
        link = np.full(repeat.shape, width)
        link[:, :width] = np.where(inside & (v >= base) & (v < base + step), v - base, width)
        while (link < width).any():
            repeat |= np.take_along_axis(repeat, link, axis=1)
            link = np.take_along_axis(link, link, axis=1)
        repeat = repeat[:, :width]
        return np.where(inside, np.where(repeat, base + step, v), -1)

    def _bounded(self, ranges: np.ndarray) -> np.ndarray:
        """Generator.integers(0, m) for each entry m of ``ranges`` (rows of
        ranges up to 2^32, or one row for every trial), drawn in row order
        from each trial's uint32 stream by Lemire's method: x m >> 32, with x
        rejected while x m mod 2^32 < (2^32 - m) mod m.  A range of 1 reads
        nothing."""
        if self.stream is None:
            self.stream = np.ascontiguousarray(self._words()[:, self.read :]).astype("<u8", copy=False).view("<u4")
            self.words = None  # whole words are read first: a copied stream leaves them unread
            self.at = np.zeros(len(self.seeds), dtype=np.int64)
        width, rows, stream, at = self.stream.shape[1], np.arange(len(self.seeds)), self.stream, self.at.copy()
        if len(ranges) == 1 and (at == at[0]).all():  # every trial at the same read: one row of positions
            at = at[:1]
        reads, product = (ranges > 1).astype(np.int64), None
        while True:  # a rejection reads again: each pass settles the first rejection of each row that has one
            last = at[:, None] + np.cumsum(reads, axis=1) - 1  # the read each draw keeps
            x = _gather(stream, last) * ranges
            if product is None:
                product = x
            else:
                product[rows] = x
            # x m mod 2^32 < m bounds the rejections, so the threshold is
            # taken only where that holds (rarely, unless m nears 2^32)
            row, col = np.nonzero((x & np.uint64(_WORD)) < ranges)
            m, at_end = (np.broadcast_to(a, x.shape)[row, col] for a in (ranges, last))
            reject = ((x[row, col] & np.uint64(_WORD)) < (np.uint64(1 << 32) - m) % m) & (m > 1) & (at_end < width)
            row, col = row[reject], col[reject]
            again = np.zeros(len(x), dtype=bool)
            again[row] = True
            done = rows[~again]
            self.at[done] += np.broadcast_to(reads.sum(axis=1), again.shape)[~again]
            self.lost[done] |= np.broadcast_to(((last >= width) & (reads > 0)).any(axis=1), again.shape)[~again]
            if not len(row):
                product >>= np.uint64(32)
                return product.view(np.int64)
            first = np.unique(row, return_index=True)[1]  # row-major: the first rejection of each row
            rows, at, stream = rows[again], np.broadcast_to(at, again.shape)[again], stream[again]
            reads, ranges = (np.broadcast_to(a, x.shape)[again] for a in (reads, ranges))
            reads[np.arange(len(rows)), col[first]] += 1


def _gather(stream: np.ndarray, last: np.ndarray) -> np.ndarray:
    """stream[r, last[r, i]] for every row r of the stream, from one row of
    ``last`` shared by all or one per row; positions past the stream read
    its last entry."""
    width = stream.shape[1]
    if len(last) > 1:
        return np.take_along_axis(stream, np.clip(last, 0, width - 1), axis=1)
    (last,) = last
    if len(last) and 0 <= last[0] and last[-1] < width and last[-1] - last[0] == len(last) - 1:
        return stream[:, last[0] : last[-1] + 1]  # consecutive reads
    return stream[:, np.clip(last, 0, width - 1)]


class _Calls:
    """The draws of :class:`_Words` by Generator calls, one Generator per row
    of ``seeds`` (:func:`_trial_seeds`) or per Generator given: it makes the
    lost trials and ``sample_ts``'s draw, and is the test oracle of the words."""

    def __init__(self, seeds):
        self.generators = _generators(seeds) if isinstance(seeds, np.ndarray) else list(seeds)

    def random_below(self, n: int, p: float) -> np.ndarray:
        return np.array([g.random(n) < p for g in self.generators]).reshape(len(self.generators), n)

    def integers(self, m: int, size: int) -> np.ndarray:
        draws = [g.integers(0, m, size=size) for g in self.generators]
        return np.array(draws, dtype=np.int64).reshape(len(self.generators), size)

    def choice(self, pop, size) -> np.ndarray:
        pop, size = (np.broadcast_to(x, (len(self.generators),)).tolist() for x in (pop, size))
        out = np.full((len(pop), max(size, default=0)), -1, dtype=np.int64)
        for row, g, p, k in zip(out, self.generators, pop, size):
            if p:  # an empty pool leaves the generator untouched
                row[:k] = g.choice(p, size=k, replace=False)
        return out
