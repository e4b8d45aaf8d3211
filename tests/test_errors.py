"""Closed-form error values, the optimal-weight formulas, and their
structural invariants (reduction, consistency, optimality, dominance)."""

import math
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_exact_reference import exact_error, exact_weights, in_band

import fedfair.errors
from fedfair import (
    Coalition,
    FederationMethod,
    Player,
    PopulationParams,
    expected_error,
    fine_grained_error,
    fine_grained_weights,
    local_error,
    uniform_error,
    weighted_error,
)
from fedfair.cli import main
from fedfair.egalitarian import (
    PAIR_SIZES,
    PARAM_LEVELS,
    THIRD_SIZES,
    _grid_errors,
    audit_egalitarian,
    bound_sweep,
    check_modularity,
    inverse_size_error,
)
from fedfair.errors import _errors, _one, _total, _weights, in_order, range_failure
from fedfair.exceptions import (
    DegenerateParams,
    FedFairError,
    NonUnitSum,
    OutOfFloatRange,
    TargetNotInCoalition,
    WeightDomainMismatch,
)
from fedfair.proportionality import (
    _thresholds,
    defection_threshold,
    subproportionality_threshold,
    verify_propstab,
)
from fedfair.sampling import INSTANCE_IDS, instance_rng, random_instance

PARAMS = PopulationParams(mu_e=10.0, sigma_sq=1.0)


def pair(n_s: float, n_l: float) -> Coalition:
    return Coalition((Player("s", n_s), Player("l", n_l)))


def exact_weight_map(coalition, target, params):
    """``fine_grained_weights`` by id, after checking each weight is its
    exact value rounded once."""
    got = fine_grained_weights(coalition, target, params)
    j = coalition.ids().index(target)
    exact = exact_weights(FederationMethod.FINE_GRAINED, params, coalition, j)
    assert list(got.values()) == [float(w) for w in exact]
    return got


class TestLocalError:
    def test_forty_samples(self):
        assert local_error(Player("l", 40.0), PARAMS) == 0.25

    def test_zero_noise(self):
        assert local_error(Player("a", 1.0), PopulationParams(0.0, 1.0)) == 0.0

    def test_direct_division(self):
        assert local_error(Player("a", 4.0), PopulationParams(2.0, 0.0)) == 0.5


class TestUniformError:
    def test_motivating_small_player(self):
        # 10/26 + (400 + 400)/26^2 = 1060/676
        assert math.isclose(uniform_error(pair(6, 20), "s", PARAMS), 1060 / 676)

    def test_motivating_large_player_nl40(self):
        # 10/46 + (36 + 36)/46^2 = 532/2116
        assert math.isclose(uniform_error(pair(6, 40), "l", PARAMS), 532 / 2116)

    def test_singleton_reduces_to_local_exactly(self):
        coalition = Coalition((Player("only", 7.0),))
        assert uniform_error(coalition, "only", PARAMS) == local_error(
            Player("only", 7.0), PARAMS
        )

    def test_symmetric_zero_noise_pair(self):
        coalition = pair(10, 10)
        params = PopulationParams(0.0, 1.0)
        assert uniform_error(coalition, "s", params) == 0.5
        assert uniform_error(coalition, "l", params) == 0.5

    def test_unknown_target(self):
        with pytest.raises(TargetNotInCoalition):
            uniform_error(pair(6, 20), "nope", PARAMS)


class TestWeightedError:
    def test_overflowing_error_is_out_of_range(self):
        """mu_e v_1^2 / n_1 = 1e300 * 0.25 / 1e-300 is about 2.5e599: an
        input error, not inf."""
        coalition = Coalition.from_sizes([1e-300, 1.0])
        weights = {"p1": 0.5, "p2": 0.5}
        with pytest.raises(OutOfFloatRange, match="a weighted error .*'p1': 1e-300"):
            weighted_error(coalition, "p1", weights, PopulationParams(1e300, 1.0))

    def test_self_weight_only_is_local(self):
        coalition = pair(6, 20)
        weights = {"s": 1.0, "l": 0.0}
        assert math.isclose(
            weighted_error(coalition, "s", weights, PARAMS),
            local_error(Player("s", 6.0), PARAMS),
            rel_tol=1e-9,
        )

    def test_proportional_weights_match_uniform_error(self):
        """The general formula at v_i = n_i/T agrees with the pooled form."""
        coalition = pair(6, 20)
        weights = {"s": 6 / 26, "l": 20 / 26}
        assert math.isclose(
            weighted_error(coalition, "s", weights, PARAMS),
            uniform_error(coalition, "s", PARAMS),
            rel_tol=1e-9,
        )

    def test_optimal_weights_reach_the_optimal_error(self):
        coalition = pair(6, 20)
        weights = fine_grained_weights(coalition, "l", PARAMS)
        assert math.isclose(weighted_error(coalition, "l", weights, PARAMS), 0.44)

    def test_domain_mismatch(self):
        with pytest.raises(WeightDomainMismatch):
            weighted_error(pair(6, 20), "s", {"s": 1.0}, PARAMS)

    def test_non_unit_sum_rejected(self):
        with pytest.raises(NonUnitSum):
            weighted_error(pair(6, 20), "s", {"s": 0.7, "l": 0.7}, PARAMS)

    def test_non_finite_weight_rejected(self):
        with pytest.raises(NonUnitSum):
            weighted_error(pair(6, 20), "s", {"s": math.inf, "l": 1.0}, PARAMS)

    def test_unknown_target(self):
        with pytest.raises(TargetNotInCoalition):
            weighted_error(pair(6, 20), "x", {"x": 1.0}, PARAMS)

    @pytest.mark.parametrize(
        "target, weights, error, message",
        [
            ("x", {"s": math.nan}, TargetNotInCoalition, "target 'x' not in coalition"),
            ("s", {"s": math.nan}, WeightDomainMismatch,
             "weights cover ['s'], coalition is ['l', 's']"),
            ("s", {"s": math.nan, "l": 5.0}, NonUnitSum,
             "weight for 's' is not finite: nan"),
            ("s", {"s": 0.7, "l": 0.7}, NonUnitSum, "weights sum to 1.4, expected 1"),
        ],
    )
    def test_checks_run_in_order(self, target, weights, error, message):
        """Target, domain, finiteness, unit sum: each case also fails every
        later check, and the first one it fails names it."""
        with pytest.raises(error) as raised:
            weighted_error(pair(6, 20), target, weights, PARAMS)
        assert str(raised.value) == message


class TestFineGrainedWeights:
    def test_zero_noise_keeps_self_estimate(self):
        weights = fine_grained_weights(pair(6, 20), "l", PopulationParams(0.0, 1.0))
        assert weights == {"l": 1.0, "s": 0.0}

    def test_unknown_target(self):
        with pytest.raises(TargetNotInCoalition):
            fine_grained_weights(pair(6, 20), "nope", PARAMS)

    def test_motivating_large_player(self):
        # V_s = 8/3, V_l = 3/2: v_ll = 1.375/1.5625, v_ls = 0.1875/1.5625
        weights = fine_grained_weights(pair(6, 20), "l", PARAMS)
        assert math.isclose(weights["l"], 0.88)
        assert math.isclose(weights["s"], 0.12)

    def test_motivating_small_player(self):
        # Grid minimization of the general-weight error puts the optimum
        # at v_l = 0.4 (oracle: 2e6-point scan over [0, 0.9]).
        weights = fine_grained_weights(pair(6, 20), "s", PARAMS)
        assert math.isclose(weights["s"], 0.6)
        assert math.isclose(weights["l"], 0.4)

    def test_equal_players_at_matched_noise(self):
        """With mu_e/n = sigma_sq, V = 2 sigma_sq and the self-weight is 3/4."""
        coalition = Coalition((Player("a", 10.0), Player("b", 10.0)))
        weights = fine_grained_weights(coalition, "a", PopulationParams(10.0, 1.0))
        assert math.isclose(weights["a"], 0.75)
        assert math.isclose(weights["b"], 0.25)

    def test_degenerate_params_rejected(self):
        with pytest.raises(DegenerateParams):
            fine_grained_weights(pair(6, 20), "l", PopulationParams(0.0, 0.0))

    def test_underflowing_v_rejected_like_the_error(self):
        """V_p1 = 0 + 1e-320 / 1e10 underflows to zero in floats: the weights
        and the error are the exact values, rounded once.  At sigma_sq = 0
        the weights are the size shares n_i / T."""
        coalition = Coalition.from_sizes([1e10, 1.0])
        params = PopulationParams(1e-320, 0.0)
        shares = {"p1": 1e10 / (1e10 + 1), "p2": 1 / (1e10 + 1)}
        assert exact_weight_map(coalition, "p1", params) == shares
        assert fine_grained_error(coalition, "p1", params) == float(
            exact_error(FederationMethod.FINE_GRAINED, params, coalition, 0)
        )

    def test_overflowing_inverse_v_rejected(self):
        """V = 1e-320 is positive but 1/V overflows in floats, which made the
        weights NaN; the exact weights are 1/2 each."""
        coalition = Coalition.from_sizes([1.0, 1.0])
        params = PopulationParams(1e-320, 0.0)
        assert exact_weight_map(coalition, "p1", params) == {"p1": 0.5, "p2": 0.5}

    def test_overflowing_denominator_is_out_of_range(self):
        """For c, 1 + V_c * S_c overflows in floats, which rounded every
        weight to 0.  At sigma_sq = 0 the weights are the size shares n_i / T
        for every target: a's rounds to 1.0 and c's, about 9e-437, to 0.0."""
        coalition = Coalition((
            Player("a", 5.1656149016491354e244),
            Player("b", 0.051232816207198995),
            Player("c", 4.836641475429374e-192),
        ))
        params = PopulationParams(1.0362991679087545e59, 0.0)
        for target in ("a", "b", "c"):
            weights = exact_weight_map(coalition, target, params)
            assert weights["a"] == 1.0 and weights["c"] == 0.0


class TestFineGrainedError:
    def test_motivating_values(self):
        coalition = pair(6, 20)
        assert math.isclose(fine_grained_error(coalition, "l", PARAMS), 0.44)
        assert math.isclose(fine_grained_error(coalition, "s", PARAMS), 1.0)

    def test_overflowing_inverse_v_is_not_a_zero_error(self):
        """The exact error is mu_e / n = 1e-320; the float kernel gave 0.0."""
        coalition = Coalition.from_sizes([1.0])
        params = PopulationParams(1e-320, 0.0)
        assert fine_grained_error(coalition, "p1", params) == 1e-320

    def test_two_player_ratio_closed_form(self):
        """err_s/err_l = (2 sigma_sq n_l + mu_e) / (2 sigma_sq n_s + mu_e)."""
        coalition = pair(6, 20)
        ratio = fine_grained_error(coalition, "s", PARAMS) / fine_grained_error(
            coalition, "l", PARAMS
        )
        assert math.isclose(ratio, 50 / 22, rel_tol=1e-9)

    def test_zero_noise_is_errorless(self):
        assert fine_grained_error(pair(6, 20), "l", PopulationParams(0.0, 1.0)) == 0.0

    def test_degenerate_params_rejected(self):
        with pytest.raises(DegenerateParams):
            fine_grained_error(pair(6, 20), "l", PopulationParams(0.0, 0.0))


class TestDispatch:
    def test_local(self):
        coalition = pair(6, 40)
        assert expected_error(coalition, "l", FederationMethod.LOCAL, PARAMS) == 0.25

    def test_uniform(self):
        coalition = pair(6, 30)
        err = expected_error(coalition, "l", FederationMethod.UNIFORM, PARAMS)
        assert math.isclose(err, 1 / 3)

    def test_fine_grained_zero_noise(self):
        err = expected_error(
            pair(6, 20), "l", FederationMethod.FINE_GRAINED, PopulationParams(0.0, 2.0)
        )
        assert err == 0.0

    def test_unknown_method_rejected(self):
        """The method's name is not the method: a string is refused."""
        with pytest.raises(ValueError, match="unknown federation method"):
            expected_error(pair(6, 20), "l", "uniform", PARAMS)


def test_grid_minimization_oracle_confirms_optimum():
    """Brute-force scan of the unit-sum weight line for {6,20}, target l.

    The oracle evaluates the general-weight error directly (no package
    code) on a fine grid; it must land on the closed-form optimum.
    """
    mu_e, sigma_sq = 10.0, 1.0
    best_err, best_v_s = math.inf, None
    steps = 200_000
    for i in range(steps + 1):
        v_s = 0.3 * i / steps
        v_l = 1.0 - v_s
        err = mu_e * (v_l * v_l / 20.0 + v_s * v_s / 6.0) + sigma_sq * (
            v_s * v_s + v_s * v_s
        )
        if err < best_err:
            best_err, best_v_s = err, v_s
    assert abs(best_err - 0.44) < 1e-9
    assert abs(best_v_s - 0.12) < 1e-5
    weights = fine_grained_weights(pair(6, 20), "l", PARAMS)
    assert abs(weights["s"] - best_v_s) < 1e-5
    assert math.isclose(fine_grained_error(pair(6, 20), "l", PARAMS), best_err)


class TestRandomizedInvariants:
    """Structural invariants on seeded random instances."""

    def _instances(self, count, seed):
        for index in range(count):
            yield random_instance(instance_rng(seed, index))

    def test_fine_grained_consistency(self):
        """Closed-form optimal error equals the general formula at the
        closed-form optimal weights, to 1e-9 relative."""
        for params, coalition in self._instances(300, 11):
            for p in coalition.players:
                direct = fine_grained_error(coalition, p.id, params)
                weights = fine_grained_weights(coalition, p.id, params)
                via_weights = weighted_error(coalition, p.id, weights, params)
                assert math.isclose(direct, via_weights, rel_tol=1e-9, abs_tol=1e-12)

    def test_dominance_over_local_and_uniform(self):
        """Both the self-only and the proportional weighting are feasible,
        so the optimum can beat neither by less than zero."""
        for params, coalition in self._instances(300, 12):
            for p in coalition.players:
                fg = fine_grained_error(coalition, p.id, params)
                assert fg <= local_error(p, params) + 1e-12
                assert fg <= uniform_error(coalition, p.id, params) + 1e-12

    def test_optimal_weights_beat_unit_sum_perturbations(self):
        rng = np.random.default_rng(13)
        for params, coalition in self._instances(150, 14):
            ids = [p.id for p in coalition.ordered()]
            for p in coalition.players:
                optimal = fine_grained_weights(coalition, p.id, params)
                base = weighted_error(coalition, p.id, optimal, params)
                vec = np.array([optimal[i] for i in ids])
                for _ in range(4):
                    direction = rng.normal(size=len(ids))
                    direction -= direction.mean()
                    norm = np.linalg.norm(direction)
                    if norm == 0.0:
                        continue
                    magnitude = 10.0 ** rng.uniform(-3, -1)
                    moved = vec + direction * (magnitude / norm)
                    perturbed = dict(zip(ids, moved))
                    assert (
                        weighted_error(coalition, p.id, perturbed, params)
                        >= base - 1e-12
                    )

    def test_uniform_gap_identity(self):
        """err_s - err_l = 2 sigma_sq (n_l - n_s) / T for any coalition."""
        for params, coalition in self._instances(300, 15):
            players = sorted(coalition.players, key=lambda p: (p.n, p.id))
            total = sum(coalition.sizes())
            for a in range(len(players)):
                for b in range(a + 1, len(players)):
                    small, large = players[a], players[b]
                    gap = uniform_error(coalition, small.id, params) - uniform_error(
                        coalition, large.id, params
                    )
                    predicted = 2.0 * params.sigma_sq * (large.n - small.n) / total
                    assert math.isclose(gap, predicted, rel_tol=1e-9, abs_tol=1e-12)

    @pytest.mark.parametrize(
        "method", [FederationMethod.UNIFORM, FederationMethod.FINE_GRAINED]
    )
    def test_monotone_ordering(self, method):
        """Larger players never do worse, strictly better when larger."""
        for params, coalition in self._instances(200, 16):
            players = sorted(coalition.players, key=lambda p: (p.n, p.id))
            errs = [expected_error(coalition, p.id, method, params) for p in players]
            for a in range(len(players) - 1):
                if players[a].n < players[a + 1].n:
                    assert errs[a] > errs[a + 1]
                else:
                    assert math.isclose(errs[a], errs[a + 1], rel_tol=1e-9)

    def test_singleton_reduction_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = float(rng.uniform(1, 100))
            params = PopulationParams(
                float(rng.uniform(0.01, 50)), float(rng.uniform(0.01, 50))
            )
            coalition = Coalition((Player("x", n),))
            assert uniform_error(coalition, "x", params) == local_error(
                Player("x", n), params
            )


def _scalar_errors(sizes, method, params):
    """The closed forms one coalition at a time, each sum a left fold over
    the member-ordered list, as a per-coalition loop writes them."""

    def fold(values):
        return reduce(add, values, 0)

    def leave_one_out(values):
        return [fold(values[:j] + values[j + 1 :]) for j in range(len(values))]

    mu_e, sigma_sq = params
    if method is FederationMethod.LOCAL:
        return [mu_e / n for n in sizes]
    if method is FederationMethod.UNIFORM:
        total = fold(sizes)
        off_sq = leave_one_out([n * n for n in sizes])
        return [
            mu_e / total + sigma_sq * (sq + s * s) / (total * total)
            for s, sq in zip(leave_one_out(sizes), off_sq)
        ]
    v = [sigma_sq + mu_e / n for n in sizes]
    inverse = [1.0 / v_i for v_i in v]
    t_sum = fold(inverse)
    return [
        (mu_e / n) / (v_j * t_sum) * (1.0 + sigma_sq * s)
        for n, v_j, s in zip(sizes, v, leave_one_out(inverse))
    ]


def _batches(instances):
    """(ids, columns, mu_e, sigma_sq, instances) per player count, in order
    of first appearance: the batches a sweep hands the column kernel."""
    groups = {}
    for params, sizes in instances:
        groups.setdefault(len(sizes), []).append((params, sizes))
    for k, group in groups.items():
        mu_e, sigma_sq = (list(c) for c in zip(*(params for params, _ in group)))
        columns = [list(c) for c in zip(*(sizes for _, sizes in group))]
        yield INSTANCE_IDS[:k], columns, mu_e, sigma_sq, group


def _thresholds_alone(params, sizes):
    """The thresholds of the rest coalition ``sizes``, each by its public
    call, the defection threshold first: a batch row with ``wanted`` =
    [None, 0, 1, ...], or the first failure of this in-order loop."""
    rest = Coalition.from_sizes(sizes)
    return [defection_threshold(rest, params),
            *(subproportionality_threshold(rest, pid, params) for pid in rest.ids())]


METHODS = st.sampled_from(list(FederationMethod))
COLUMN_SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)
IN_RANGE = st.tuples(
    st.builds(PopulationParams, st.floats(0.0, 50.0), st.floats(0.01, 50.0)),
    st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=6),
)
# Extreme sizes and constants: many instances leave the float range.
ANY_RANGE = st.tuples(
    st.builds(
        PopulationParams,
        st.sampled_from([0.0, 1e-320, 1.0, 1e300]),
        st.sampled_from([0.0, 1e-320, 1.0, 1e300]),
    ),
    st.lists(st.sampled_from([5e-324, 1e-300, 1.0, 1e300, 1e308]), min_size=1, max_size=6),
)


class TestColumnKernel:
    """A batch of instances through the column kernel gives what evaluating
    each coalition alone gives: the same bits, or the same first failure."""

    @COLUMN_SETTINGS
    @given(instances=st.lists(IN_RANGE, min_size=1, max_size=12), method=METHODS)
    def test_batch_equals_per_coalition_bit_for_bit(self, instances, method):
        for ids, columns, mu_e, sigma_sq, group in _batches(instances):
            got = zip(*_errors(columns, method, mu_e, sigma_sq, ids))
            for row, (params, sizes) in zip(got, group):
                coalition = Coalition.from_sizes(sizes)
                alone = [expected_error(coalition, pid, method, params) for pid in ids]
                assert [e.hex() for e in row] == [e.hex() for e in alone]
                if in_band(*params, *sizes):
                    scalar = _scalar_errors(sizes, method, params)
                    assert [e.hex() for e in row] == [e.hex() for e in scalar]

    @COLUMN_SETTINGS
    @given(
        instances=st.lists(st.one_of(IN_RANGE, ANY_RANGE), min_size=1, max_size=12),
        method=METHODS,
    )
    def test_batch_raises_the_first_failure_of_an_in_order_loop(
        self, instances, method
    ):
        for ids, columns, mu_e, sigma_sq, group in _batches(instances):
            alone, first = [], None
            for params, sizes in group:
                coalition = Coalition.from_sizes(sizes)
                try:
                    alone.append(
                        [expected_error(coalition, pid, method, params) for pid in ids]
                    )
                except FedFairError as exc:
                    first = exc
                    break
            if first is None:
                got = list(zip(*_errors(columns, method, mu_e, sigma_sq, ids)))
                assert [[e.hex() for e in r] for r in got] == [
                    [e.hex() for e in r] for r in alone
                ]
            else:
                with pytest.raises(type(first)) as info:
                    _errors(columns, method, mu_e, sigma_sq, ids)
                assert str(info.value) == str(first)

    @COLUMN_SETTINGS
    @given(instances=st.lists(IN_RANGE, min_size=1, max_size=12))
    def test_thresholds_batch_equals_per_coalition_bit_for_bit(self, instances):
        for ids, columns, mu_e, sigma_sq, group in _batches(instances):
            wanted = [None, *range(len(ids))]
            got = zip(*_thresholds(columns, wanted, mu_e, sigma_sq, ids))
            for row, (params, sizes) in zip(got, group):
                alone = _thresholds_alone(params, sizes)
                assert [t.hex() for t in row] == [t.hex() for t in alone]

    @COLUMN_SETTINGS
    @given(instances=st.lists(st.one_of(IN_RANGE, ANY_RANGE), min_size=1, max_size=12))
    def test_thresholds_batch_raises_the_first_failure_of_an_in_order_loop(
        self, instances
    ):
        for ids, columns, mu_e, sigma_sq, group in _batches(instances):
            wanted = [None, *range(len(ids))]
            alone, first = [], None
            for params, sizes in group:
                try:
                    alone.append(_thresholds_alone(params, sizes))
                except FedFairError as exc:
                    first = exc
                    break
            if first is None:
                got = list(zip(*_thresholds(columns, wanted, mu_e, sigma_sq, ids)))
                assert [[t.hex() for t in r] for r in got] == [
                    [t.hex() for t in r] for r in alone
                ]
            else:
                with pytest.raises(type(first)) as info:
                    _thresholds(columns, wanted, mu_e, sigma_sq, ids)
                assert str(info.value) == str(first)

    @COLUMN_SETTINGS
    @given(instances=st.lists(st.one_of(IN_RANGE, ANY_RANGE), min_size=1, max_size=12))
    def test_threshold_failures_name_only_finite_inputs(self, instances):
        """A threshold past the float range names mu_e, sigma_sq and the
        sizes as given, never a sum of them that overflowed in floats."""
        for params, sizes in instances:
            rest = Coalition.from_sizes(sizes)
            for s in [None, *rest.ids()]:
                try:
                    if s is None:
                        defection_threshold(rest, params)
                    else:
                        subproportionality_threshold(rest, s, params)
                except OutOfFloatRange as exc:
                    assert "inf" not in str(exc) and "nan" not in str(exc)

    def test_later_failure_does_not_mask_an_earlier_one(self):
        """Local: the second instance overflows its error and the third
        underflows.  Fine-grained: the first overflows its errors and the
        second is degenerate (mu_e = sigma_sq = 0), which a whole-batch
        evaluation would report first.  The batch names the instance with
        mu_e = 1e300, the first failure an in-order loop reaches."""
        cases = [
            (FederationMethod.LOCAL, [[1.0, 1e-310, 1e-320], [2.0, 3.0, 4.0]],
             [1.0, 1e300, 1.0], [1.0, 1.0, 1.0], "'p1': 1e-310"),
            (FederationMethod.FINE_GRAINED, [[1e-10, 1e300], [1e-10, 1.0]],
             [1e300, 0.0], [0.0, 0.0], "'p1': 1e-10"),
        ]
        for method, columns, mu_e, sigma_sq, size in cases:
            with pytest.raises(OutOfFloatRange) as info:
                _errors(columns, method, mu_e, sigma_sq, ("p1", "p2"))
            assert "mu_e=1e+300" in str(info.value)
            assert size in str(info.value)


def reference_weighted_error(mu_e, sigma_sq, sizes, weights, j):
    """The scalar kernel ``weighted_error`` and ``inverse_size_error`` ran
    member by member before the column function: member j's error under
    unit-sum weights, each sum a left fold from 0."""
    others = weights[:j] + weights[j + 1 :]
    noise = reduce(add, (w * w / n for n, w in zip(sizes, weights)), 0)
    off_sum = reduce(add, others, 0)
    off_sq = reduce(add, (w * w for w in others), 0)
    return mu_e * noise + sigma_sq * (off_sq + off_sum * off_sum)


def reference_weighted(coalition, target, weights, params):
    """``weighted_error`` of valid weights through the scalar kernel, under
    ``in_order`` as before."""
    j, ids = coalition.index(target), coalition.ids()
    k, aligned = len(ids), [weights[pid] for pid in ids]

    def evaluate(mu_e, sigma_sq, *values):
        rows = zip(mu_e, sigma_sq, *values)
        return [[reference_weighted_error(m, s, row[:k], row[k:], j) for m, s, *row in rows]]

    values = (*params, *coalition.sizes(), *aligned)
    fail = range_failure("a weighted error", ids)
    return in_order(evaluate, *([v] for v in values), fail=fail)[0][0]


def reference_inverse_size(columns, mu_e, sigma_sq, ids):
    """``inverse_size_error`` through the scalar kernel, row by row."""

    def evaluate(mu_e, sigma_sq, *columns):
        errors = [[] for _ in columns]
        for mu, sigma, total, *sizes in zip(mu_e, sigma_sq, _total(columns), *columns):
            scale = (len(sizes) - 1) * total
            weights = [(total - n) / scale for n in sizes] if len(sizes) > 1 else [1]
            for j, column in enumerate(errors):
                column.append(reference_weighted_error(mu, sigma, sizes, weights, j))
        return errors

    fail = range_failure("an inverse_size error", ids)
    return in_order(evaluate, mu_e, sigma_sq, *columns, fail=fail)


def outcome(call, *args):
    """``call(*args)`` as bits, nested as returned: a float's hex, a complex
    number's two, an exact value itself; or what it raised."""

    def bits(value):
        if isinstance(value, list):
            return [bits(v) for v in value]
        if isinstance(value, complex):
            return value.real.hex(), value.imag.hex()
        return value.hex() if isinstance(value, float) else value

    try:
        return bits(call(*args))
    except FedFairError as exc:
        return type(exc), str(exc)


# Weights for up to six members: the last one makes the sum 1.
WEIGHTS = st.lists(
    st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324])),
    min_size=5, max_size=5,
)


class TestWeightedErrorColumns:
    """``weighted_error`` and ``inverse_size_error`` evaluate one column
    function for every member; each gives the scalar kernel's bits, or its
    failure."""

    @COLUMN_SETTINGS
    @given(instances=st.lists(st.tuples(st.one_of(IN_RANGE, ANY_RANGE), WEIGHTS),
                              min_size=1, max_size=12))
    def test_weighted_error_matches_the_scalar_kernel(self, instances):
        for (params, sizes), drawn in instances:
            coalition = Coalition.from_sizes(sizes)
            rest = drawn[: len(sizes) - 1]
            values = [*rest, 1.0 - reduce(add, rest, 0)]
            weights = dict(zip(coalition.ids(), values))
            for pid in coalition.ids():
                args = (coalition, pid, weights, params)
                assert outcome(weighted_error, *args) == outcome(reference_weighted, *args)

    @COLUMN_SETTINGS
    @given(instances=st.lists(st.one_of(IN_RANGE, ANY_RANGE), min_size=1, max_size=12))
    def test_inverse_size_error_matches_the_scalar_kernel(self, instances):
        for ids, columns, mu_e, sigma_sq, _ in _batches(instances):
            args = (columns, mu_e, sigma_sq, ids)
            assert outcome(inverse_size_error, *args) == outcome(reference_inverse_size, *args)

    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(instances=st.lists(IN_RANGE, min_size=1, max_size=3))
    def test_fraction_columns_match_exactly(self, instances):
        for ids, columns, mu_e, sigma_sq, _ in _batches(instances):
            exact = [list(map(Fraction, c)) for c in (mu_e, sigma_sq, *columns)]
            args = (exact[2:], exact[0], exact[1], ids)
            assert inverse_size_error(*args) == reference_inverse_size(*args)

    def test_complex_step_columns_match(self):
        """The modularity grid's complex-step columns, for each size."""
        grid = [PopulationParams(m, s) for m in PARAM_LEVELS for s in PARAM_LEVELS]
        pairs = [(p, a, b) for p in grid for a in PAIR_SIZES for b in PAIR_SIZES if a <= b]
        trios = [(*case, n_k) for case in pairs for n_k in THIRD_SIZES]
        for cases in (pairs, trios):
            for at in range(len(cases[0]) - 1):
                new, old = (
                    outcome(lambda: [list(e.values()) for e in _grid_errors(method, cases, at)])
                    for method in (inverse_size_error, reference_inverse_size)
                )
                assert new == old

    def test_lone_member(self):
        coalition = Coalition.from_sizes([3.0])
        args = (coalition, "p1", {"p1": 1.0}, PARAMS)
        assert outcome(weighted_error, *args) == outcome(reference_weighted, *args)
        args = ([[3.0, 1e-300]], [10.0, 1e300], [1.0, 1.0], ("p1",))
        assert outcome(inverse_size_error, *args) == outcome(reference_inverse_size, *args)

    def test_only_the_target_column_is_rounded(self):
        """p2's error under these weights, about 2.8e308, overflows; p1's
        does not, and p1's call must not round p2's."""
        coalition, weights = Coalition.from_sizes([1.0, 1.0]), {"p1": 0.9, "p2": 0.1}
        params = PopulationParams(1.0, 1.7e308)
        assert repr(weighted_error(coalition, "p1", weights, params)) == "3.4e+306"
        with pytest.raises(OutOfFloatRange, match="a weighted error"):
            weighted_error(coalition, "p2", weights, params)


class TestFloatRangeRule:
    """``in_order``'s exact fallback is for inputs outside the float band;
    realistic inputs never take it."""

    def test_no_exact_fallback_in_the_benchmark_ranges(self, monkeypatch, tmp_path):
        """Both sweeps at three seeds, the modularity grid of all three
        methods, and every public closed form, the oracle weights and the
        CLI scan at the corners of the benchmark's inputs: constants 0.01
        and 50, sizes 1 to 15,045 (its largest scan row)."""
        calls = []
        exactly = fedfair.errors._exactly
        monkeypatch.setattr(
            fedfair.errors, "_exactly", lambda *args: calls.append(args) or exactly(*args)
        )
        for seed in (0, 42, 2**64 - 1):
            assert bound_sweep(10_000, seed).passed
            assert verify_propstab(10_000, seed).passed
        for method in (*FederationMethod, inverse_size_error):
            check_modularity(method)
        corners = (0.01, 50.0)
        for params in map(PopulationParams._make, product(corners, repeat=2)):
            for k in (1, 2, 3):
                for sizes in product((1.0, 15_045.0), repeat=k):
                    coalition = Coalition.from_sizes(sizes)
                    defection_threshold(coalition, params)
                    for method in FederationMethod:
                        audit_egalitarian(coalition, method, params)
                    for pid in coalition.ids():
                        subproportionality_threshold(coalition, pid, params)
                        fine_grained_weights(coalition, pid, params)
                        for method in FederationMethod:
                            expected_error(coalition, pid, method, params)
                            _one(_weights, coalition, params, method,
                                 [coalition.index(pid)])
            for n_s in ("1", "20"):
                argv = ["--out", str(tmp_path / "scan.csv"), "scan", "--ns", n_s,
                        "--nl-start", "1", "--nl-stop", "15045", "--nl-step", "15044",
                        "--mu-e", repr(params.mu_e), "--sigma-sq", repr(params.sigma_sq)]
                assert main(argv) == 0
        assert calls == []
        local_error(Player("x", 1e300), PARAMS)  # out of band: counted
        assert len(calls) == 1
