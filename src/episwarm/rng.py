"""Every random draw of a run, behind ``Draws(seed)``: the one holder of the
substream scheme. A draw comes from the substream of a domain tag plus keys:
the task (none), founder i's prior (i), and by agent id its rating noise, its
prior mutation as a child and its async update steps, so no stream depends on
iteration order or population size. Rating noise is drawn ``NOISE_BLOCK``
values per call into a row of one array, reached through a row number indexed
by agent id; a dead agent's generator and row are dropped, and the rows are
compacted once the dropped outnumber the rest. A seed's bytes depend on the
tags, keys, block size and draw order.

Entropy: the seed (mod 2^64), domain and keys, each as little-endian 32-bit
words (as many as it needs, one for 0), in one uint32 array, which
``SeedSequence`` reads as it would the tuple ``(seed, domain, *keys)``.

``substreams`` builds a batch of keys' generators. Their seed words come from
one pass over uint32 columns that equals ``SeedSequence``'s: it mixes each
key's entropy into a 4-word pool and derives the pool's
``generate_state(4, np.uint64)``, the words ``PCG64`` seeds from. Each call
works out its hash constants anew, in the order ``SeedSequence`` uses them. Each
generator is seeded through ``SeedWords``, an ``ISeedSequence`` (numpy's hook
in ``numpy.random.bit_generator``) that hands those words over and answers any
other request from its pool as ``SeedSequence`` would. ``substream`` is the
1-key call; each ``Draws`` method makes one call per step for its new keys.
``tests/test_rng.py::TestBatchedSeedSequence`` pins the pass bit for bit.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .ledger import grown

DOMAIN_TASK, DOMAIN_PRIOR, DOMAIN_RATING, DOMAIN_MUTATION, DOMAIN_SCHEDULE = 1, 2, 3, 4, 5
NOISE_BLOCK = 64  # rating-noise values drawn per call of an agent's generator

# SeedSequence's hash constants and pool size (O'Neill's seed_seq design)
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
POOL_SIZE = 4
# 0-d uint32 arrays: numpy applies them to an array faster than it does scalars
MIX_MULT_L, MIX_MULT_R, XSHIFT = (np.array(c, np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The (2, n, 1) uint32 hash constants before and after each of n successive
    ``hashmix`` calls: init * mult^i and init * mult^(i + 1) mod 2^32."""
    c = [init]
    for _ in range(n):
        c.append(c[-1] * mult & 0xFFFFFFFF)
    return np.array([c[:-1], c[1:]], np.uint32)[..., None]


def _hashmix(v: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of ``v`` under each row's hash constants."""
    v = (v ^ before) * after
    return v ^ (v >> XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of a pool word ``x`` with a hashed word ``y``."""
    r = x * MIX_MULT_L - y * MIX_MULT_R
    return r ^ (r >> XSHIFT)


def _mixed_pools(entropy: np.ndarray) -> np.ndarray:
    """The (4, n) pools ``SeedSequence`` mixes from the (L, n) uint32 entropy
    columns of n keys. Like every uint32 pass here, it wraps on purpose: the
    caller ignores overflow."""
    length, n = entropy.shape
    consts = _hash_consts(INIT_A, MULT_A, POOL_SIZE * (POOL_SIZE + max(length - POOL_SIZE, 0)))
    pool = np.zeros((POOL_SIZE, n), np.uint32)
    pool[:length] = entropy[:POOL_SIZE]
    pool, k = _hashmix(pool, *consts[:, :POOL_SIZE]), POOL_SIZE
    # each pool word into the others, so late words reach early ones
    for src in range(POOL_SIZE):
        dst = [d for d in range(POOL_SIZE) if d != src]
        pool[dst] = _mix(pool.take(dst, axis=0), _hashmix(pool[src], *consts[:, k:k + len(dst)]))
        k += len(dst)
    for word in entropy[POOL_SIZE:]:  # into every pool word
        pool = _mix(pool, _hashmix(word, *consts[:, k:k + POOL_SIZE]))
        k += POOL_SIZE
    return pool


def _state_words(pools: np.ndarray, n_words: int, dtype=np.uint32) -> np.ndarray:
    """The (n, n_words) ``generate_state(n_words, dtype)`` of each of the (4, n) pools."""
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.uint32), np.dtype(np.uint64)):
        raise ValueError("only support uint32 or uint64")
    n32 = n_words * (dtype.itemsize // 4)
    words = _hashmix(pools[np.arange(n32) % POOL_SIZE], *_hash_consts(INIT_B, MULT_B, n32))
    # little-endian word pairs make a uint64, whatever the byte order
    words = np.ascontiguousarray(words.T, dtype="<u4")
    return words if dtype.itemsize == 4 else words.view("<u8").astype(np.uint64, copy=False)


def _words(*values: int) -> List[int]:
    """Non-negative ints' little-endian 32-bit words in order, one for a 0."""
    out = []
    for v in map(int, values):
        if v < 0:
            raise ValueError(f"substream keys must be non-negative, got {v}")
        out.append(v & 0xFFFFFFFF)
        while v >> 32:
            v >>= 32
            out.append(v & 0xFFFFFFFF)
    return out


class SeedWords(ISeedSequence):
    """A substream's seed: its mixed ``pool`` and, precomputed and read-only,
    the ``generate_state(4, np.uint64)`` words ``PCG64`` seeds from."""

    def __init__(self, pool: np.ndarray, pcg64_words: np.ndarray):
        self.pool, self._pcg64_words = pool, pcg64_words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        """``SeedSequence(entropy).generate_state(n_words, dtype)`` for this key's entropy."""
        if n_words == 4 and dtype is np.uint64:
            return self._pcg64_words
        with np.errstate(over="ignore"):
            return _state_words(self.pool[:, None], n_words, dtype)[0]


def substreams(seed: int, domain: int,
               keys: Sequence[Tuple[int, ...]]) -> Iterator[np.random.Generator]:
    """The generator of each key tuple's (domain, *key) substream of a master
    seed, every key's seed words derived in one pass. Keys are tuples of
    non-negative Python ints. Each generator is built when the iterator reaches
    it, so a caller that draws and drops them holds one at a time."""
    if not keys:
        return iter(())
    prefix = _words(int(seed) & 0xFFFFFFFFFFFFFFFF, domain)
    by_count: Dict[int, List[int]] = {}  # keys of one word count mix as one matrix
    entropy = [prefix + _words(*key) for key in keys]
    for i, words in enumerate(entropy):
        by_count.setdefault(len(words), []).append(i)
    pools = np.empty((POOL_SIZE, len(keys)), np.uint32)
    with np.errstate(over="ignore"):
        for rows in by_count.values():
            pools[:, rows] = _mixed_pools(np.array([entropy[i] for i in rows], np.uint32).T)
        pcg64_words = _state_words(pools, 4, np.uint64)
    pcg64_words.flags.writeable = False  # each key's row is handed over, not copied
    return (np.random.Generator(np.random.PCG64(SeedWords(pool, words)))
            for pool, words in zip(np.ascontiguousarray(pools.T), pcg64_words))


def substream(seed: int, domain: int, *keys: int) -> np.random.Generator:
    """Generator for the (domain, *keys) substream of a master seed."""
    return next(substreams(seed, domain, [tuple(map(int, keys))]))


class Draws:
    """The draws of one run. Only rating noise keeps state: each drawing agent's
    generator, and its block in row ``_row[id] - 1`` of ``_noise`` (``_row[id]``
    0: none), with ``_left`` of the row's values unread and ``_owner`` its agent
    (-1 once dropped). The first ``_used`` rows are in use."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rating: Dict[int, np.random.Generator] = {}
        self._row = np.empty(0, dtype=np.int64)
        self._noise, self._used = np.empty((0, NOISE_BLOCK)), 0
        self._left, self._owner = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    @cached_property
    def task(self) -> np.random.Generator:
        """The generator a model's ``emit`` draws observations from, built on first use."""
        return substream(self.seed, DOMAIN_TASK)

    def priors(self, n: int, alpha: np.ndarray) -> np.ndarray:
        """The (n, K) founders' Dirichlet(alpha) rows."""
        gens = substreams(self.seed, DOMAIN_PRIOR, [(i,) for i in range(n)])
        return np.array([g.dirichlet(alpha) for g in gens]).reshape(n, len(alpha))

    def rating_noise(self, ids: np.ndarray, sigma: float) -> np.ndarray:
        """Each agent's next N(0, sigma) value, as one ``normal`` call per agent
        and step would draw it."""
        self._row = grown(self._row, int(ids.max(initial=-1)) + 1)
        new = ids[self._row[ids] == 0]
        if len(new):  # each takes the next row, its block not yet drawn
            rows = np.arange(self._used, self._used + len(new))
            self._used += len(new)
            self._noise, self._left, self._owner = (
                grown(a, self._used) for a in (self._noise, self._left, self._owner))
            self._row[new], self._left[rows], self._owner[rows] = rows + 1, 0, new
            keys = new.tolist()
            self._rating.update(zip(keys, substreams(self.seed, DOMAIN_RATING,
                                                     [(a,) for a in keys])))
        rows = self._row[ids] - 1
        refill = self._left[rows] == 0
        for aid, row in zip(ids[refill].tolist(), rows[refill].tolist()):
            self._noise[row] = self._rating[aid].normal(0.0, sigma, size=NOISE_BLOCK)
            self._left[row] = NOISE_BLOCK
        self._left[rows] -= 1
        return self._noise[rows, NOISE_BLOCK - 1 - self._left[rows]]

    def drop(self, ids: Iterable[int]) -> None:
        """Free the rating generators and noise rows of dead agents (ids are
        never reused). Once dropped rows outnumber the rest, the rest move to
        the front and the row arrays shrink to them."""
        gone = [aid for aid in ids if self._rating.pop(aid, None) is not None]
        self._owner[self._row[gone] - 1] = -1
        self._row[gone] = 0
        live = np.flatnonzero(self._owner[:self._used] >= 0)
        if self._used > 2 * len(live):
            self._noise, self._left, self._owner = (
                a[live] for a in (self._noise, self._left, self._owner))
            self._row[self._owner] = np.arange(1, len(live) + 1)
            self._used = len(live)

    def mutation(self, child_ids: np.ndarray, k: int) -> np.ndarray:
        """The (n, k) unit normals that tilt the children's priors."""
        keys = [(cid,) for cid in np.asarray(child_ids).tolist()]
        gens = substreams(self.seed, DOMAIN_MUTATION, keys)
        return np.array([g.standard_normal(k) for g in gens]).reshape(len(keys), k)

    def update_steps(self, ids: Iterable[int], start: int, horizon: int,
                     bound: int) -> List[Tuple[int, ...]]:
        """Each agent's update steps below ``horizon``, the first in [start, start +
        bound): step k is start + k + the sum of one call's first k + 1 draws from [0, bound)."""
        keys = [(int(aid),) for aid in ids]
        runs = (start - 1 + np.cumsum(1 + g.integers(0, bound, size=max(horizon - start, 0) + 1))
                for g in substreams(self.seed, DOMAIN_SCHEDULE, keys))
        return [tuple(steps[steps < horizon].tolist()) for steps in runs]
