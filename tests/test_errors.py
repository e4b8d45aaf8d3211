"""Closed-form error values, the optimal-weight formulas, and their
structural invariants (reduction, consistency, optimality, dominance)."""

import math

import numpy as np
import pytest

from fedfair import (
    Coalition,
    FederationMethod,
    Player,
    PopulationParams,
    WeightVector,
    expected_error,
    fine_grained_error,
    fine_grained_weights,
    local_error,
    uniform_error,
    weighted_error,
)
from fedfair.exceptions import (
    DegenerateParams,
    NonUnitSum,
    OutOfFloatRange,
    TargetNotInCoalition,
    WeightDomainMismatch,
)
from fedfair.sampling import random_instance

PARAMS = PopulationParams(mu_e=10.0, sigma_sq=1.0)


def pair(n_s: float, n_l: float) -> Coalition:
    return Coalition((Player("s", n_s), Player("l", n_l)))


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
    def test_self_weight_only_is_local(self):
        coalition = pair(6, 20)
        weights = WeightVector("s", {"s": 1.0, "l": 0.0})
        assert math.isclose(
            weighted_error(coalition, weights, PARAMS),
            local_error(Player("s", 6.0), PARAMS),
            rel_tol=1e-9,
        )

    def test_proportional_weights_match_uniform_error(self):
        """The general formula at v_i = n_i/T agrees with the pooled form."""
        coalition = pair(6, 20)
        weights = WeightVector("s", {"s": 6 / 26, "l": 20 / 26})
        assert math.isclose(
            weighted_error(coalition, weights, PARAMS),
            uniform_error(coalition, "s", PARAMS),
            rel_tol=1e-9,
        )

    def test_optimal_weights_reach_the_optimal_error(self):
        coalition = pair(6, 20)
        weights = fine_grained_weights(coalition, "l", PARAMS)
        assert math.isclose(weighted_error(coalition, weights, PARAMS), 0.44)

    def test_domain_mismatch(self):
        with pytest.raises(WeightDomainMismatch):
            weighted_error(pair(6, 20), WeightVector("s", {"s": 1.0}), PARAMS)

    def test_non_unit_sum_rejected(self):
        with pytest.raises(NonUnitSum):
            WeightVector("s", {"s": 0.7, "l": 0.7})

    def test_non_finite_weight_rejected(self):
        with pytest.raises(NonUnitSum):
            WeightVector("s", {"s": math.inf, "l": 1.0})


class TestFineGrainedWeights:
    def test_zero_noise_keeps_self_estimate(self):
        weights = fine_grained_weights(pair(6, 20), "l", PopulationParams(0.0, 1.0))
        assert weights.weights == {"l": 1.0, "s": 0.0}

    def test_motivating_large_player(self):
        # V_s = 8/3, V_l = 3/2: v_ll = 1.375/1.5625, v_ls = 0.1875/1.5625
        weights = fine_grained_weights(pair(6, 20), "l", PARAMS)
        assert math.isclose(weights.weights["l"], 0.88)
        assert math.isclose(weights.weights["s"], 0.12)

    def test_motivating_small_player(self):
        # Grid minimization of the general-weight error puts the optimum
        # at v_l = 0.4 (oracle: 2e6-point scan over [0, 0.9]).
        weights = fine_grained_weights(pair(6, 20), "s", PARAMS)
        assert math.isclose(weights.weights["s"], 0.6)
        assert math.isclose(weights.weights["l"], 0.4)

    def test_equal_players_at_matched_noise(self):
        """With mu_e/n = sigma_sq, V = 2 sigma_sq and the self-weight is 3/4."""
        coalition = Coalition((Player("a", 10.0), Player("b", 10.0)))
        weights = fine_grained_weights(coalition, "a", PopulationParams(10.0, 1.0))
        assert math.isclose(weights.weights["a"], 0.75)
        assert math.isclose(weights.weights["b"], 0.25)

    def test_degenerate_params_rejected(self):
        with pytest.raises(DegenerateParams):
            fine_grained_weights(pair(6, 20), "l", PopulationParams(0.0, 0.0))

    def test_underflowing_v_rejected_like_the_error(self):
        """V_p1 = 0 + 1e-320 / 1e10 underflows to zero: the weights name the
        inputs exactly as the error does, rather than dividing by zero."""
        coalition = Coalition.from_sizes([1e10, 1.0])
        params = PopulationParams(1e-320, 0.0)
        with pytest.raises(OutOfFloatRange) as weights_exc:
            fine_grained_weights(coalition, "p1", params)
        with pytest.raises(OutOfFloatRange) as error_exc:
            fine_grained_error(coalition, "p1", params)
        assert str(weights_exc.value) == str(error_exc.value)
        assert "'p1': 10000000000.0" in str(weights_exc.value)

    def test_overflowing_inverse_v_rejected(self):
        """V = 1e-320 is positive but 1/V overflows, so the weights would be
        NaN; the rejection is a check, not an assert, and holds under -O."""
        coalition = Coalition.from_sizes([1.0, 1.0])
        with pytest.raises(OutOfFloatRange) as exc:
            fine_grained_weights(coalition, "p1", PopulationParams(1e-320, 0.0))
        message = str(exc.value)
        assert "mu_e=1e-320" in message and "sigma_sq=0.0" in message
        assert "'p1': 1.0" in message and "'p2': 1.0" in message


class TestFineGrainedError:
    def test_motivating_values(self):
        coalition = pair(6, 20)
        assert math.isclose(fine_grained_error(coalition, "l", PARAMS), 0.44)
        assert math.isclose(fine_grained_error(coalition, "s", PARAMS), 1.0)

    def test_overflowing_inverse_v_is_not_a_zero_error(self):
        """The exact error is mu_e / n = 1e-320; the kernel returned 0.0."""
        coalition = Coalition.from_sizes([1.0])
        with pytest.raises(OutOfFloatRange, match="fine_grained error"):
            fine_grained_error(coalition, "p1", PopulationParams(1e-320, 0.0))

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
    assert abs(weights.weights["s"] - best_v_s) < 1e-5
    assert math.isclose(fine_grained_error(pair(6, 20), "l", PARAMS), best_err)


class TestRandomizedInvariants:
    """Structural invariants on seeded random instances."""

    def _instances(self, count, seed):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            yield random_instance(rng)

    def test_fine_grained_consistency(self):
        """Closed-form optimal error equals the general formula at the
        closed-form optimal weights, to 1e-9 relative."""
        for params, coalition in self._instances(300, 11):
            for p in coalition.players:
                direct = fine_grained_error(coalition, p.id, params)
                via_weights = weighted_error(
                    coalition, fine_grained_weights(coalition, p.id, params), params
                )
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
                base = weighted_error(coalition, optimal, params)
                vec = np.array([optimal.weights[i] for i in ids])
                for _ in range(4):
                    direction = rng.normal(size=len(ids))
                    direction -= direction.mean()
                    norm = np.linalg.norm(direction)
                    if norm == 0.0:
                        continue
                    magnitude = 10.0 ** rng.uniform(-3, -1)
                    moved = vec + direction * (magnitude / norm)
                    perturbed = WeightVector(p.id, dict(zip(ids, moved)))
                    assert (
                        weighted_error(coalition, perturbed, params) >= base - 1e-12
                    )

    def test_uniform_gap_identity(self):
        """err_s - err_l = 2 sigma_sq (n_l - n_s) / T for any coalition."""
        for params, coalition in self._instances(300, 15):
            players = sorted(coalition.players, key=lambda p: (p.n, p.id))
            total = coalition.total
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
