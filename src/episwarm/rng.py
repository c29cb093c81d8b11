"""Named, counter-keyed RNG substreams derived from one master seed.

Every random draw in a run comes from a substream addressed by a domain tag
plus integer keys (agent id, child id, ...). Streams are therefore independent
of iteration order and of population size, which is what makes runs with the
same seed byte-identical.

Entropy: the seed (mod 2^64), domain and keys, each as little-endian 32-bit
words (as many as it needs, one for 0), in one uint32 array. ``SeedSequence``
coerces a tuple of non-negative ints by that rule, so this gives the streams
of the tuple ``(seed, domain, *keys)`` without its per-element conversion.
"""

from __future__ import annotations

import numpy as np

# Domain tags for substream derivation. Stable across versions: changing them
# changes every seeded trajectory.
DOMAIN_TASK = 1
DOMAIN_PRIOR = 2
DOMAIN_RATING = 3
DOMAIN_MUTATION = 4
DOMAIN_SCHEDULE = 5


def substream(seed: int, domain: int, *keys: int) -> np.random.Generator:
    """Generator for the (domain, *keys) substream of a master seed."""
    words = b"".join(v.to_bytes(4 * max(1, (v.bit_length() + 31) // 32), "little")
                     for v in (int(seed) & 0xFFFFFFFFFFFFFFFF, int(domain), *map(int, keys)))
    entropy = np.frombuffer(words, dtype="<u4")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
