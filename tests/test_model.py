"""Domain type invariants and the value-type contract."""

import copy
import math
import pickle
import re

import pytest

from fedfair import (
    Coalition,
    FederationMethod,
    Player,
    PopulationParams,
    SimulationSpec,
    audit_egalitarian,
    classify_proportionality,
    local_error,
    tightness_search,
    weighted_error,
)
from fedfair.egalitarian import egalitarian_bound
from fedfair.exceptions import (
    DuplicatePlayerId,
    EmptyCoalition,
    FedFairError,
    InvalidNoiseList,
    NegativeVariance,
    NonPositiveSamples,
    NonUnitSum,
    TargetNotInCoalition,
)
from fedfair.model import compare


@pytest.mark.parametrize(
    "a, b, sign",
    [
        (1.0, 1.0 + 1e-12, 0),
        (1.0, 1.0 + 1e-7, -1),
        (math.inf, math.inf, 0),
        (math.inf, 1.0, 1),
        (0.0, 1e-300, -1),
        (-0.0, 0.0, 0),
    ],
)
def test_compare_bands_ties_and_exact_signs(a, b, sign):
    """Ties within the relative band, exact against zero, and the reverse
    order gives the opposite sign."""
    assert compare(a, b) == sign
    assert compare(b, a) == -sign


@pytest.mark.parametrize(
    "build, error, field",
    [
        (lambda: PopulationParams(10**400, 1.0), NegativeVariance, "mu_e"),
        (lambda: PopulationParams(1.0, -(10**400)), NegativeVariance, "sigma_sq"),
        (lambda: Player("a", 10**400), NonPositiveSamples, "player 'a': n"),
        (lambda: Coalition.from_sizes([1, 10**400]), NonPositiveSamples,
         "player 'p2': n"),
        (
            lambda: weighted_error(
                PAIR, "s", {"l": 1.0, "s": 10**400}, PopulationParams(10.0, 1.0)
            ),
            NonUnitSum,
            "weight for 's'",
        ),
    ],
    ids=["mu_e", "sigma_sq", "Player", "from_sizes", "weighted_error"],
)
def test_ints_past_the_float_range_are_rejected_by_field(build, error, field):
    """An int too large for a float is a bad value of its field, not an
    ``OverflowError`` from converting it."""
    with pytest.raises(error, match=f"^{re.escape(field)} "):
        build()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda x: egalitarian_bound(x, PopulationParams(10.0, 1.0)), NonPositiveSamples),
        (lambda x: tightness_search(x, 0.1), ValueError),
        (lambda x: tightness_search(1.0, x), None),
        (
            lambda x: SimulationSpec(PAIR, "s", PopulationParams(10.0, 1.0),
                                     FederationMethod.UNIFORM, noise_variances=(x, 1.0)),
            InvalidNoiseList,
        ),
    ],
    ids=["egalitarian_bound-n_max", "tightness_search-c", "tightness_search-epsilon",
         "SimulationSpec-noise_variances"],
)
def test_ints_past_the_float_range_are_judged_as_infinity(call, error):
    """An int too large for a float meets the same rule as inf: the same
    named error (``error``) or, where inf is admitted, the same result;
    never an ``OverflowError`` from converting it."""

    def outcome(value):
        try:
            return call(value)
        except (FedFairError, ValueError) as raised:
            return type(raised), str(raised).replace(repr(value), "<value>")

    expected = outcome(math.inf)
    assert outcome(10**400) == expected
    if error is not None:
        assert expected[0] is error


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

    @pytest.mark.parametrize("field", ["mu_e", "sigma_sq"])
    def test_negative_zero_is_stored_as_zero(self, field):
        """-0.0 passes 0 <= value; stored as 0.0, it never reaches an error
        as -0.0.  Every other value keeps its type."""
        values = {"mu_e": 2, "sigma_sq": 3, field: -0.0}
        params = PopulationParams(**values)
        assert [math.copysign(1.0, v) for v in params] == [1.0, 1.0]
        assert list(map(type, params)) == list(map(type, values.values()))
        assert math.copysign(1.0, local_error(Player("a", 2.0), params)) == 1.0

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

    def test_never_equal_to_another_type(self):
        """Not even to the tuple of its own players."""
        coalition = Coalition((Player("a", 1.0), Player("b", 2.0)))
        assert coalition != coalition.players
        assert coalition != "a coalition"

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
        assert coalition.sizes()[coalition.index("p2")] == 20.0

    def test_membership_and_lookup(self):
        coalition = Coalition.from_sizes([1, 2])
        assert "p1" in coalition and "missing" not in coalition
        with pytest.raises(TargetNotInCoalition):
            coalition.index("missing")

    def test_index_is_the_position_in_id_order(self):
        coalition = Coalition((Player("b", 1.0), Player("a", 2.0)))
        assert [coalition.index(pid) for pid in coalition.ids()] == [0, 1]
        assert coalition.index("b") == 1
        with pytest.raises(TargetNotInCoalition, match="^target 'x' not in coalition$"):
            coalition.index("x")


PAIR = Coalition((Player("s", 6.0), Player("l", 20.0)))
# One valid value of each type, by keyword and positional arguments that
# equal the valid ones except for one bad field, and the error they raise.
VALUE_TYPES = [
    (
        PopulationParams(10.0, 1.0),
        PopulationParams,
        (10.0, -1.0),
        {"mu_e": 10.0, "sigma_sq": -1.0},
        NegativeVariance,
    ),
    (Player("a", 2.0), Player, ("a", 0.0), {"id": "a", "n": 0.0}, NonPositiveSamples),
    (PAIR, Coalition, ((),), {"players": ()}, EmptyCoalition),
]
IDS = [case[1].__name__ for case in VALUE_TYPES]


def unvalidated(cls, args):
    """An instance of ``cls`` holding ``args`` that skipped validation."""
    if cls is Coalition:
        bad = object.__new__(Coalition)
        object.__setattr__(bad, "players", *args)
        return bad
    return tuple.__new__(cls, args)


class TestValueTypeContract:
    @pytest.mark.parametrize("value,cls,args,kwargs,error", VALUE_TYPES, ids=IDS)
    def test_bad_values_rejected_positionally_and_by_keyword(
        self, value, cls, args, kwargs, error
    ):
        with pytest.raises(error):
            cls(*args)
        with pytest.raises(error):
            cls(**kwargs)

    @pytest.mark.parametrize("value", [case[0] for case in VALUE_TYPES], ids=IDS)
    def test_immutable(self, value):
        field = "players" if isinstance(value, Coalition) else "id"
        for name in (field, "mu_e", "new_attribute"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1.0)

    @pytest.mark.parametrize("value", [case[0] for case in VALUE_TYPES], ids=IDS)
    def test_equal_values_compare_and_hash_equal(self, value):
        twin = pickle.loads(pickle.dumps(value))
        assert twin == value and twin is not value
        assert hash(twin) == hash(value)

    @pytest.mark.parametrize("value,cls,args,kwargs,error", VALUE_TYPES, ids=IDS)
    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_equal_and_revalidated(
        self, value, cls, args, kwargs, error, round_trip
    ):
        twin = round_trip(value)
        assert twin == value and type(twin) is cls
        with pytest.raises(error):
            round_trip(unvalidated(cls, args))

    def test_replace_revalidates(self):
        assert Player("a", 1.0)._replace(n=2.0) == Player("a", 2.0)
        with pytest.raises(NonPositiveSamples):
            Player("a", 1.0)._replace(n=-2.0)
        with pytest.raises(NegativeVariance):
            PopulationParams(1.0, 1.0)._replace(mu_e=math.nan)

    def test_coalition_is_a_set_of_players_not_a_tuple(self):
        assert not isinstance(PAIR, tuple)
        assert len(PAIR) == 2
        assert "s" in PAIR and "x" not in PAIR
        assert Player("s", 6.0) not in PAIR  # membership is by id

    def test_reprs_name_their_fields(self):
        assert repr(Player("a", 2.0)) == "Player(id='a', n=2.0)"
        assert repr(PopulationParams(10.0, 1.0)) == (
            "PopulationParams(mu_e=10.0, sigma_sq=1.0)"
        )
        assert repr(PAIR) == (
            "Coalition(players=(Player(id='l', n=20.0), Player(id='s', n=6.0)))"
        )
        params = PopulationParams(10.0, 1.0)
        audit = audit_egalitarian(PAIR, FederationMethod.UNIFORM, params)
        assert repr(audit) == (
            "FairnessAudit(method='uniform', max_ratio=3.1927710843373496, "
            "worst_pair=('s', 'l'), c_value=2.0, bound=5.0, satisfied=True)"
        )

    def test_records_unpack_and_index(self):
        report = classify_proportionality(
            PAIR, FederationMethod.UNIFORM, PopulationParams(10.0, 1.0)
        )
        method, pairs, label = report
        assert report[2] is label is report.label
        assert report == (method, pairs, label)
        mu_e, sigma_sq = PopulationParams(10.0, 1.0)
        assert (mu_e, sigma_sq) == (10.0, 1.0)
