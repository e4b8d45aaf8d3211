"""Core domain types for the mean-estimation federation game.

A problem instance is a pair of population constants plus a coalition of
players.  The constants are ``mu_e`` (expected sampling-noise variance) and
``sigma_sq`` (variance of the true means across players); every closed form
in this package depends on the population only through these two moments.

All types are immutable and validate their invariants in ``__new__``
(``__init__`` for ``Coalition``), which copy, pickle and ``_replace`` go
through too, so a constructed value is always safe to share.
"""

from __future__ import annotations

import math
import operator
import sys
from enum import Enum
from typing import Iterable, NamedTuple

from .exceptions import (
    DuplicatePlayerId,
    EmptyCoalition,
    NegativeVariance,
    NonPositiveSamples,
    TargetNotInCoalition,
)

# Tolerance policy for closed-form cross-checks: purely relative, so every
# verdict is invariant under rescaling (mu_e, sigma_sq).  Exact zeros (the
# zero-noise and zero-bias cases) still compare equal.
REL_TOL = 1e-9
# A bound by the largest float: unlike math.isfinite, it never raises on a huge int.
FLOAT_MAX = sys.float_info.max
# Every seed, count and index is below it: an unsigned 64-bit integer.
INT_LIMIT = 2**64


def compare(a: float, b: float) -> int:
    """The one verdict rule: 0 when a and b agree to the relative tolerance
    ``REL_TOL``, else the sign of a - b.  Against 0.0 it is the exact sign;
    inf ties with inf and tops any float."""
    if math.isclose(a, b, rel_tol=REL_TOL):
        return 0
    return 1 if a > b else -1


class FederationMethod(str, Enum):
    """How a player's estimate is assembled from the coalition's local means."""

    LOCAL = "local"
    UNIFORM = "uniform"
    FINE_GRAINED = "fine_grained"


class PopulationParams(
    NamedTuple("PopulationParams", [("mu_e", float), ("sigma_sq", float)])
):
    """Population constants: noise level ``mu_e`` and mean-spread ``sigma_sq``.

    ``mu_e`` is the expected variance of a single sample around its player's
    true mean; ``sigma_sq`` is the variance of the true means themselves.
    Both are in squared target units, stored as ``value + 0``: -0.0 as 0.0.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, mu_e: float, sigma_sq: float) -> PopulationParams:
        for name, value in (("mu_e", mu_e), ("sigma_sq", sigma_sq)):
            if not 0 <= value <= FLOAT_MAX:
                raise NegativeVariance(
                    f"{name} must be finite and nonnegative, got {value!r}"
                )
        return super().__new__(cls, mu_e + 0, sigma_sq + 0)


def check_integer(field: str, value: object, low: int) -> int:
    """The integer rule of every seed, count and index: ``value`` as an int if
    it is a non-bool integer in [``low``, 2**64), else ``ValueError``."""
    try:
        integer = low - 1 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        integer = low - 1
    if not low <= integer < INT_LIMIT:
        raise ValueError(f"{field} must be an integer in [{low}, 2**64), got {value!r}")
    return integer


def check_sizes(id: str, sizes: Iterable[float]) -> None:
    """The sample-count rule of player ``id`` over a column of its sizes:
    raise ``NonPositiveSamples`` at the first that is not finite and > 0."""
    for n in sizes:
        if not 0 < n <= FLOAT_MAX:
            raise NonPositiveSamples(
                f"player {id!r}: n must be finite and > 0, got {n!r}"
            )


class Player(NamedTuple("Player", [("id", str), ("n", float)])):
    """One agent, identified by ``id`` and contributing ``n`` samples.

    Sample counts are positive reals, not integers: every closed form,
    derivative-based check and the simulation oracle treat n continuously.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, id: str, n: float) -> Player:
        check_sizes(id, (n,))
        return super().__new__(cls, id, n)


class Coalition:
    """A nonempty set of players federating together, with distinct ids;
    ``len()`` counts them and ``in`` tests an id.

    ``players`` is stored sorted by id, whatever order they are given in:
    two coalitions with the same members are equal, and every sum over
    the players runs in this one order, which makes repeated evaluations
    bit-identical.
    """

    __slots__ = ("players",)
    players: tuple[Player, ...]

    def __init__(self, players: Iterable[Player]) -> None:
        players = tuple(sorted(players, key=lambda p: p.id))
        if not players:
            raise EmptyCoalition("a coalition needs at least one player")
        for previous, p in zip(players, players[1:]):
            if p.id == previous.id:
                raise DuplicatePlayerId(f"duplicate player id {p.id!r}")
        object.__setattr__(self, "players", players)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.players == other.players

    def __hash__(self) -> int:
        return hash((self.players,))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(players={self.players!r})"

    def __reduce__(self) -> tuple:
        return self.__class__, (self.players,)

    @classmethod
    def from_sizes(cls, sizes: Iterable[float]) -> Coalition:
        """Build a coalition from bare sample counts with ids p1, p2, ...
        (``Player`` rejects a count past the float range as given)."""
        sizes = (float(n) if abs(n) <= FLOAT_MAX else n for n in sizes)
        return cls(tuple(Player(f"p{i + 1}", n) for i, n in enumerate(sizes)))

    def ordered(self) -> tuple[Player, ...]:
        """The players in id order, the same tuple as ``players``."""
        return self.players

    def ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.players)

    def sizes(self) -> tuple[float, ...]:
        """Sample counts in id order, aligned with ``ids()``."""
        return tuple(p.n for p in self.players)

    def index(self, player_id: str) -> int:
        """The member's position in id order, or ``TargetNotInCoalition``."""
        if player_id not in self:
            raise TargetNotInCoalition(f"target {player_id!r} not in coalition")
        return self.ids().index(player_id)

    def __contains__(self, player_id: str) -> bool:
        return any(p.id == player_id for p in self.players)

    def __len__(self) -> int:
        return len(self.players)


def describe_instance(params: PopulationParams, coalition: Coalition) -> dict:
    """JSON-ready record of an instance, for counterexample replay and the
    CLI's ``--dump-scenario``; players are listed in id order."""
    return {**params._asdict(), "players": [p._asdict() for p in coalition.players]}
