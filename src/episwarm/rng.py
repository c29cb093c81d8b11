"""Every random draw of a run, behind ``Draws(seed)``: the one holder of the
substream scheme. A draw comes from the substream of a domain tag plus keys:
the task (none), founder i's prior (i), and by agent id its rating noise, its
prior mutation as a child and its async update steps, so no stream depends on
iteration order or population size. Rating noise is drawn ``NOISE_BLOCK``
values per call into an array indexed by agent id; a dead agent's generator is
dropped. A seed's bytes depend on the tags, keys, block size and draw order.

Entropy: the seed (mod 2^64), domain and keys, each as little-endian 32-bit
words (as many as it needs, one for 0), in one uint32 array, which
``SeedSequence`` reads as it would the tuple ``(seed, domain, *keys)``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .ledger import grown

DOMAIN_TASK, DOMAIN_PRIOR, DOMAIN_RATING, DOMAIN_MUTATION, DOMAIN_SCHEDULE = 1, 2, 3, 4, 5
NOISE_BLOCK = 64  # rating-noise values drawn per call of an agent's generator


def substream(seed: int, domain: int, *keys: int) -> np.random.Generator:
    """Generator for the (domain, *keys) substream of a master seed."""
    words = b"".join(v.to_bytes(4 * max(1, (v.bit_length() + 31) // 32), "little")
                     for v in (int(seed) & 0xFFFFFFFFFFFFFFFF, int(domain), *map(int, keys)))
    entropy = np.frombuffer(words, dtype="<u4")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


class Draws:
    """The draws of one run. Only rating noise keeps state: each drawing agent's
    generator, and its block as row ``id`` of ``_noise``, ``_left[id]`` unread."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rating: Dict[int, np.random.Generator] = {}
        self._noise, self._left = np.empty((0, NOISE_BLOCK)), np.empty(0, dtype=np.int64)

    @cached_property
    def task(self) -> np.random.Generator:
        """The generator a model's ``emit`` draws observations from, built on first use."""
        return substream(self.seed, DOMAIN_TASK)

    def priors(self, n: int, alpha: np.ndarray) -> np.ndarray:
        """The (n, K) founders' Dirichlet(alpha) rows."""
        return np.array([substream(self.seed, DOMAIN_PRIOR, i).dirichlet(alpha) for i in range(n)])

    def rating_noise(self, ids: np.ndarray, sigma: float) -> np.ndarray:
        """Each agent's next N(0, sigma) value, as one ``normal`` call per agent
        and step would draw it."""
        self._noise = grown(self._noise, int(ids.max()) + 1)
        self._left = grown(self._left, len(self._noise))
        for aid in ids[self._left[ids] == 0].tolist():
            if aid not in self._rating:
                self._rating[aid] = substream(self.seed, DOMAIN_RATING, aid)
            self._noise[aid] = self._rating[aid].normal(0.0, sigma, size=NOISE_BLOCK)
            self._left[aid] = NOISE_BLOCK
        self._left[ids] -= 1
        return self._noise[ids, NOISE_BLOCK - 1 - self._left[ids]]

    def drop(self, ids: Iterable[int]) -> None:
        """Free the rating generators of dead agents (ids are never reused)."""
        for aid in ids:
            self._rating.pop(aid, None)

    def mutation(self, child_ids: np.ndarray, k: int) -> np.ndarray:
        """The (n, k) unit normals that tilt the children's priors."""
        return np.array([substream(self.seed, DOMAIN_MUTATION, cid).standard_normal(k)
                         for cid in np.asarray(child_ids).tolist()])

    def update_steps(self, ids: Iterable[int], start: int, horizon: int,
                     bound: int) -> List[Tuple[int, ...]]:
        """Each agent's update steps below ``horizon``, the first in [start, start +
        bound): step k is start + k + the sum of one call's first k + 1 draws from [0, bound)."""
        runs = (start - 1 + np.cumsum(1 + substream(self.seed, DOMAIN_SCHEDULE, aid).integers(
            0, bound, size=max(horizon - start, 0) + 1)) for aid in ids)
        return [tuple(steps[steps < horizon].tolist()) for steps in runs]
