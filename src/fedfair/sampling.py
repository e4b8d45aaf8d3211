"""Randomized problem instances for verification sweeps.

Instances follow one fixed distribution so every sweep in the package and
the CLI replays identically: 2 to 6 players, sample counts uniform on
[1, 100] (reals), and both population constants uniform on (0.01, 50].
Per-instance generators derive from (master seed, instance index), so
sweeps are order- and parallelism-independent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .model import Coalition, Player, PopulationParams

if TYPE_CHECKING:
    import numpy as np


def instance_rng(seed: int, index: int) -> np.random.Generator:
    """Deterministic sub-generator for one instance of a seeded sweep."""
    # Imported here so that importing the package does not load numpy.
    import numpy as np

    return np.random.default_rng([seed, index])


def random_instance(rng: np.random.Generator) -> tuple[PopulationParams, Coalition]:
    """Draw one (params, coalition) verification instance."""
    k = int(rng.integers(2, 7))
    sizes = rng.uniform(1.0, 100.0, size=k)
    mu_e = float(rng.uniform(0.01, 50.0))
    sigma_sq = float(rng.uniform(0.01, 50.0))
    players = tuple(Player(f"p{i + 1}", float(n)) for i, n in enumerate(sizes))
    return PopulationParams(mu_e, sigma_sq), Coalition(players)


def describe_instance(params: PopulationParams, coalition: Coalition) -> dict:
    """JSON-ready record of an instance, for counterexample replay and the
    CLI's ``--dump-scenario``; players are listed in id order."""
    return {
        "mu_e": params.mu_e,
        "sigma_sq": params.sigma_sq,
        "players": [{"id": p.id, "n": p.n} for p in coalition.players],
    }
