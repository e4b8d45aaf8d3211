"""Randomized problem instances for verification sweeps.

Instances follow one fixed distribution: 2 to 6 players, sample counts
uniform on [1, 100) (reals), and both population constants uniform on
(0.01, 50].  Instance ``index`` of a sweep at ``seed`` is a pure function
of the pair: its nine uniforms come from one BLAKE2b digest of
(seed, index), a counter-based generator in the manner of Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3" (SC 2011).  Sweeps are
therefore order- and parallelism-independent, and they replay bit for bit
on every platform and Python version, with or without numpy.
"""

from __future__ import annotations

import struct
from itertools import compress, repeat
from operator import add, eq, mul, sub
from typing import Iterator, Sequence

from .model import Coalition, PopulationParams, check_integer

# Uniforms per instance: the player count, six sizes (the first k are
# used) and the two constants.  Each comes from its own 56-bit word of a
# 63-byte digest, keeping the word's top 53 bits.
DRAWS = 9
_WORD_BYTES = 7
_UNIT = 2.0**-53
_MANTISSA = 2**53 - 1
# Word i is bits [56 i, 56 i + 56) of the digest read as one little-endian
# integer, so its top 53 bits start at bit 56 i + 3.
_SHIFTS = tuple(range(3, DRAWS * 8 * _WORD_BYTES, 8 * _WORD_BYTES))
# Clears a word's low 3 bits, so that (w & ~7) * 2**-56 = (w >> 3) * 2**-53.
_LOW_BITS_CLEARED = bytes(b & ~7 for b in range(256))
# The ids ``Coalition.from_sizes`` gives an instance's players.  At most
# six, so id order is draw order.
INSTANCE_IDS = ("p1", "p2", "p3", "p4", "p5", "p6")
# Instances a sweep draws and checks at once, which bounds its memory.
BLOCK_SIZE = 1024


def instance_rng(seed: int, index: int) -> tuple[float, ...]:
    """The nine uniforms on [0, 1) of instance ``index`` of the sweep at
    ``seed``, each of them in [0, 2**64) by ``check_integer``: the per-index
    reference decode."""
    # Imported here so that importing the package does not load hashlib.
    import hashlib

    seed, index = check_integer("seed", seed, 0), check_integer("index", index, 0)
    key = seed.to_bytes(8, "little") + index.to_bytes(8, "little")
    digest = hashlib.blake2b(key, digest_size=DRAWS * _WORD_BYTES).digest()
    words = int.from_bytes(digest, "little")
    return tuple((words >> shift & _MANTISSA) * _UNIT for shift in _SHIFTS)


def _instances(uniforms: Sequence[float]) -> tuple[list, list, list, list]:
    """The player counts, mu_e, sigma_sq and six size columns of a batch whose
    instances take ``DRAWS`` uniforms u each, in turn: k = 2 + floor(5 u_0)
    players with sizes n_i = 1 + 99 u_i (the first k), mu_e = 50 - 49.99 u_7
    and sigma_sq = 50 - 49.99 u_8."""
    u = [uniforms[w::DRAWS] for w in range(DRAWS)]
    counts = list(map(add, repeat(2), map(int, map(mul, u[0], repeat(5.0)))))
    # Each u is in [0, 1), so each size is a valid count in [1, 100).
    sizes = [list(map(add, repeat(1.0), map(mul, repeat(99.0), n))) for n in u[1:7]]
    mu_e, sigma_sq = (list(map(sub, repeat(50.0), map(mul, repeat(49.99), c)))
                      for c in u[7:])
    return counts, mu_e, sigma_sq, sizes


def random_instance(draw: tuple[float, ...]) -> tuple[PopulationParams, Coalition]:
    """The params and the coalition of one ``instance_rng`` draw:
    ``_instances`` as a batch of one."""
    (k,), mu_e, sigma_sq, sizes = _instances(draw)
    coalition = Coalition.from_sizes(n for n, in sizes[:k])
    return PopulationParams(*mu_e, *sigma_sq), coalition


def instance_groups(count: int, seed: int) -> Iterator[tuple[list, ...]]:
    """The first ``count`` instances of the sweep at ``seed`` as columns
    (indices, mu_e, sigma_sq, n_1, ..., n_k): each block of ``BLOCK_SIZE``
    indices, split by player count k in increasing order.  By ``check_integer``,
    a count below 1 (a sweep with no checks) or a bad seed raises ``ValueError``."""
    count = check_integer("instance count", count, 1)
    seed = check_integer("seed", seed, 0)
    import hashlib

    # A copy of this state, which has read the seed, digests each index.
    seeded = hashlib.blake2b(seed.to_bytes(8, "little"),
                             digest_size=DRAWS * _WORD_BYTES)
    for start in range(0, count, BLOCK_SIZE):
        indices, digest = range(start, min(start + BLOCK_SIZE, count)), bytearray()
        for index in indices:
            state = seeded.copy()
            state.update(index.to_bytes(8, "little"))
            digest += state.digest()
        # Word w of instance i is the 7 bytes at 7 (9 i + w): widened to
        # 8-byte lanes, one unpack reads every word.
        lanes = bytearray(len(digest) // _WORD_BYTES * 8)
        lanes[0::8] = digest[0::_WORD_BYTES].translate(_LOW_BITS_CLEARED)
        for byte in range(1, _WORD_BYTES):
            lanes[byte::8] = digest[byte::_WORD_BYTES]
        words = struct.unpack(f"<{len(lanes) // 8}Q", lanes)
        uniforms = list(map(mul, words, repeat(_UNIT / 8)))
        del digest, lanes, words  # before the columns are built, for peak memory
        k, mu_e, sigma_sq, sizes = _instances(uniforms)
        del uniforms  # only the columns outlive the decode
        for players in sorted(set(k)):
            chosen = list(map(eq, k, repeat(players)))
            group = (indices, mu_e, sigma_sq, *sizes[:players])
            yield tuple(list(compress(column, chosen)) for column in group)
