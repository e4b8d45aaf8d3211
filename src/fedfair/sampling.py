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

from .model import Coalition, Player, PopulationParams

# Uniforms per instance: the player count, six sizes (the first k are
# used) and the two constants.  Each comes from its own 56-bit word of a
# 63-byte digest, keeping the word's top 53 bits.
DRAWS = 9
_WORD_BYTES = 7
_UNIT = 2.0**-53


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
    return tuple(
        (int.from_bytes(digest[i : i + _WORD_BYTES], "little") >> 3) * _UNIT
        for i in range(0, DRAWS * _WORD_BYTES, _WORD_BYTES)
    )


def random_instance(draw: tuple[float, ...]) -> tuple[PopulationParams, Coalition]:
    """The (params, coalition) verification instance of one ``instance_rng``
    draw u: k = 2 + floor(5 u_0) players p1..pk with n_i = 1 + 99 u_i,
    mu_e = 50 - 49.99 u_7 and sigma_sq = 50 - 49.99 u_8."""
    k = 2 + int(draw[0] * 5.0)
    players = tuple(
        Player(f"p{i + 1}", 1.0 + 99.0 * u) for i, u in enumerate(draw[1 : 1 + k])
    )
    params = PopulationParams(50.0 - 49.99 * draw[7], 50.0 - 49.99 * draw[8])
    return params, Coalition(players)


def describe_instance(params: PopulationParams, coalition: Coalition) -> dict:
    """JSON-ready record of an instance, for counterexample replay and the
    CLI's ``--dump-scenario``; players are listed in id order."""
    return {
        "mu_e": params.mu_e,
        "sigma_sq": params.sigma_sq,
        "players": [{"id": p.id, "n": p.n} for p in coalition.players],
    }
