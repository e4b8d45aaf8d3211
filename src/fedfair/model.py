"""Core domain types for the mean-estimation federation game.

A problem instance is a pair of population constants plus a coalition of
players.  The constants are ``mu_e`` (expected sampling-noise variance) and
``sigma_sq`` (variance of the true means across players); every closed form
in this package depends on the population only through these two moments.

All types are immutable after construction and validate their invariants in
``__post_init__``, so a constructed value is always safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .exceptions import (
    DuplicatePlayerId,
    EmptyCoalition,
    NegativeVariance,
    NonPositiveSamples,
)

# Tolerance policy for closed-form cross-checks: purely relative, so every
# verdict is invariant under rescaling (mu_e, sigma_sq).  Exact zeros (the
# zero-noise and zero-bias cases) still compare equal.
REL_TOL = 1e-9


def check_size(player_id: str, n: float) -> float:
    """``n``, once it is a finite positive sample count for ``player_id``."""
    if not math.isfinite(n) or n <= 0:
        raise NonPositiveSamples(
            f"player {player_id!r}: n must be finite and > 0, got {n!r}"
        )
    return n


def close(a: float, b: float) -> bool:
    """True when a and b agree to the package-wide relative tolerance."""
    return math.isclose(a, b, rel_tol=REL_TOL)


class FederationMethod(str, Enum):
    """How a player's estimate is assembled from the coalition's local means."""

    LOCAL = "local"
    UNIFORM = "uniform"
    FINE_GRAINED = "fine_grained"


@dataclass(frozen=True)
class PopulationParams:
    """Population constants: noise level ``mu_e`` and mean-spread ``sigma_sq``.

    ``mu_e`` is the expected variance of a single sample around its player's
    true mean; ``sigma_sq`` is the variance of the true means themselves.
    Both are in squared target units.
    """

    mu_e: float
    sigma_sq: float

    def __post_init__(self) -> None:
        for name, value in (("mu_e", self.mu_e), ("sigma_sq", self.sigma_sq)):
            if not math.isfinite(value) or value < 0:
                raise NegativeVariance(
                    f"{name} must be finite and nonnegative, got {value!r}"
                )


@dataclass(frozen=True)
class Player:
    """One agent, identified by ``id`` and contributing ``n`` samples.

    Sample counts are positive reals, not integers: every closed form,
    derivative-based check and the simulation oracle treat n continuously.
    """

    id: str
    n: float

    def __post_init__(self) -> None:
        check_size(self.id, self.n)


@dataclass(frozen=True)
class Coalition:
    """A nonempty group of players federating together, with distinct ids.

    ``players`` is stored sorted by id, whatever order they are given in:
    a coalition is a set, so two coalitions with the same members are
    equal, and every sum over the players runs in this one order, which
    makes repeated evaluations bit-identical.
    """

    players: tuple[Player, ...]

    def __post_init__(self) -> None:
        players = tuple(sorted(self.players, key=lambda p: p.id))
        if not players:
            raise EmptyCoalition("a coalition needs at least one player")
        for previous, p in zip(players, players[1:]):
            if p.id == previous.id:
                raise DuplicatePlayerId(f"duplicate player id {p.id!r}")
        object.__setattr__(self, "players", players)

    @classmethod
    def from_sizes(cls, sizes: Iterable[float]) -> "Coalition":
        """Build a coalition from bare sample counts with ids p1, p2, ..."""
        return cls(tuple(Player(f"p{i + 1}", float(n)) for i, n in enumerate(sizes)))

    def ordered(self) -> tuple[Player, ...]:
        """The players in id order, the same tuple as ``players``."""
        return self.players

    def ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.players)

    def sizes(self) -> tuple[float, ...]:
        """Sample counts in id order, aligned with ``ids()``."""
        return tuple(p.n for p in self.players)

    def player(self, player_id: str) -> Player:
        for p in self.players:
            if p.id == player_id:
                return p
        raise KeyError(player_id)

    def __contains__(self, player_id: str) -> bool:
        return any(p.id == player_id for p in self.players)

    def __len__(self) -> int:
        return len(self.players)

    @property
    def total(self) -> float:
        """Total sample count."""
        return sum(p.n for p in self.players)

    @property
    def sum_sq(self) -> float:
        """Sum of squared sample counts."""
        return sum(p.n * p.n for p in self.players)
