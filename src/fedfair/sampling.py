"""Randomized problem instances for verification sweeps.

Instances follow one fixed distribution: 2 to 6 players, sample counts
uniform on [1, 100] (reals), and both population constants uniform on
(0.01, 50].  Instance ``index`` of a sweep at ``seed`` is a pure function
of the pair: its nine uniforms come from one BLAKE2b digest of
(seed, index), a counter-based generator in the manner of Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3" (SC 2011).  Sweeps are
therefore order- and parallelism-independent, and they replay bit for bit
on every platform and Python version, with or without numpy.
"""

from __future__ import annotations

from typing import Iterator

from .model import Coalition, PopulationParams

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
# The ids ``Coalition.from_sizes`` gives an instance's players.  At most
# six, so id order is draw order.
INSTANCE_IDS = ("p1", "p2", "p3", "p4", "p5", "p6")
# Instances a sweep draws and checks at once, which bounds its memory.
BLOCK_SIZE = 1024


def instance_rng(seed: int, index: int) -> tuple[float, ...]:
    """The nine uniforms on [0, 1) of instance ``index`` of the sweep at
    ``seed``; needs 0 <= seed, index < 2**64."""
    # Imported here so that importing the package does not load hashlib.
    import hashlib

    try:
        key = seed.to_bytes(8, "little") + index.to_bytes(8, "little")
    except OverflowError:
        raise ValueError(
            f"seed and index must be in [0, 2**64), got seed={seed}, index={index}"
        ) from None
    digest = hashlib.blake2b(key, digest_size=DRAWS * _WORD_BYTES).digest()
    words = int.from_bytes(digest, "little")
    return tuple((words >> shift & _MANTISSA) * _UNIT for shift in _SHIFTS)


def instance_sizes(
    draw: tuple[float, ...]
) -> tuple[PopulationParams, tuple[float, ...]]:
    """The params and the sizes, in id order, of one ``instance_rng`` draw
    u: k = 2 + floor(5 u_0) players p1..pk with n_i = 1 + 99 u_i,
    mu_e = 50 - 49.99 u_7 and sigma_sq = 50 - 49.99 u_8."""
    k = 2 + int(draw[0] * 5.0)
    # Each u is in [0, 1), so each size is a valid count in [1, 100).
    sizes = tuple(1.0 + 99.0 * u for u in draw[1 : 1 + k])
    return PopulationParams(50.0 - 49.99 * draw[7], 50.0 - 49.99 * draw[8]), sizes


def random_instance(draw: tuple[float, ...]) -> tuple[PopulationParams, Coalition]:
    """``instance_sizes`` of a draw, with the sizes as a coalition."""
    params, sizes = instance_sizes(draw)
    return params, Coalition.from_sizes(sizes)


def instance_groups(count: int, seed: int) -> Iterator[tuple[tuple, tuple, tuple]]:
    """The first ``count`` instances of the sweep at ``seed`` as (indices,
    params, sizes) groups: each block of ``BLOCK_SIZE`` consecutive indices,
    split by player count.  A count below 1 would make a sweep pass with no
    checks, so it raises ``ValueError``."""
    if count < 1:
        raise ValueError(f"instance count must be >= 1, got {count!r}")
    for start in range(0, count, BLOCK_SIZE):
        groups: dict[int, list] = {}
        for index in range(start, min(start + BLOCK_SIZE, count)):
            params, sizes = instance_sizes(instance_rng(seed, index))
            groups.setdefault(len(sizes), []).append((index, params, sizes))
        for players in sorted(groups):
            yield tuple(zip(*groups.pop(players)))


def describe_instance(params: PopulationParams, coalition: Coalition) -> dict:
    """JSON-ready record of an instance, for counterexample replay and the
    CLI's ``--dump-scenario``; players are listed in id order."""
    return {**params._asdict(), "players": [p._asdict() for p in coalition.players]}
