"""Domain type invariants."""

import math

import pytest

from fedfair import (
    Coalition,
    Player,
    PopulationParams,
)
from fedfair.exceptions import (
    DuplicatePlayerId,
    EmptyCoalition,
    NegativeVariance,
    NonPositiveSamples,
)


class TestPopulationParams:
    def test_motivating_params_valid(self):
        params = PopulationParams(mu_e=10.0, sigma_sq=1.0)
        assert (params.mu_e, params.sigma_sq) == (10.0, 1.0)

    def test_degenerate_zero_params_are_legal(self):
        params = PopulationParams(mu_e=0.0, sigma_sq=0.0)
        assert params.mu_e == 0.0

    @pytest.mark.parametrize("mu_e,sigma_sq", [(-1.0, 1.0), (1.0, -0.5)])
    def test_negative_params_rejected(self, mu_e, sigma_sq):
        with pytest.raises(NegativeVariance):
            PopulationParams(mu_e, sigma_sq)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_params_rejected(self, bad):
        with pytest.raises(NegativeVariance):
            PopulationParams(bad, 1.0)


class TestPlayer:
    def test_real_valued_counts_allowed(self):
        """Closed forms treat n continuously, so fractional n is legal."""
        assert Player("a", 2.5).n == 2.5

    @pytest.mark.parametrize("bad", [0.0, -3.0, math.nan, math.inf])
    def test_nonpositive_counts_rejected(self, bad):
        with pytest.raises(NonPositiveSamples):
            Player("a", bad)


class TestCoalition:
    def test_totals_from_motivating_pair(self):
        coalition = Coalition((Player("s", 6.0), Player("l", 20.0)))
        assert coalition.total == 26.0
        assert coalition.sum_sq == 436.0
        assert coalition.total**2 >= coalition.sum_sq

    def test_empty_rejected(self):
        with pytest.raises(EmptyCoalition):
            Coalition(())

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicatePlayerId):
            Coalition((Player("a", 1.0), Player("a", 2.0)))

    @pytest.mark.parametrize("ids", [("a", "b", "a"), ("b", "a", "c", "a")])
    def test_duplicate_ids_rejected_in_any_position(self, ids):
        with pytest.raises(DuplicatePlayerId):
            Coalition(tuple(Player(pid, 1.0) for pid in ids))

    def test_equal_sizes_with_distinct_ids_allowed(self):
        """Symmetric test cases need two players with the same n."""
        coalition = Coalition((Player("a", 5.0), Player("b", 5.0)))
        assert len(coalition) == 2

    def test_ordered_is_sorted_by_id(self):
        coalition = Coalition((Player("z", 1.0), Player("a", 2.0)))
        assert [p.id for p in coalition.ordered()] == ["a", "z"]

    def test_equality_ignores_listing_order(self):
        a, b = Player("a", 1.0), Player("b", 2.0)
        assert Coalition((b, a)) == Coalition((a, b))
        assert hash(Coalition((b, a))) == hash(Coalition((a, b)))

    def test_players_stored_in_id_order(self):
        coalition = Coalition((Player("z", 1.0), Player("a", 2.0), Player("m", 3.0)))
        assert [p.id for p in coalition.players] == ["a", "m", "z"]
        assert coalition.ordered() == coalition.players

    def test_from_sizes_with_ten_players_in_id_order(self):
        coalition = Coalition.from_sizes(range(1, 12))
        assert coalition.ids()[:5] == ("p1", "p10", "p11", "p2", "p3")
        assert [p.n for p in coalition.players][:5] == [1.0, 10.0, 11.0, 2.0, 3.0]

    def test_from_sizes_generates_ids(self):
        coalition = Coalition.from_sizes([6, 20])
        assert coalition.ids() == ("p1", "p2")
        assert coalition.player("p2").n == 20.0

    def test_membership_and_lookup(self):
        coalition = Coalition.from_sizes([1, 2])
        assert "p1" in coalition and "missing" not in coalition
        with pytest.raises(KeyError):
            coalition.player("missing")
