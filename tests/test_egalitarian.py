"""Pairwise ratio audits, the 2c+1 bound, the five structural properties,
and the near-tightness construction."""

import math

import numpy as np
import pytest

from fedfair import (
    Coalition,
    FederationMethod,
    Player,
    PopulationParams,
    audit_egalitarian,
    bound_sweep,
    check_modularity,
    error_ratio,
    inverse_size_error,
    local_error,
    tightness_search,
    uniform_error,
)
from fedfair.egalitarian import egalitarian_bound
from fedfair.exceptions import OutOfFloatRange, UndefinedBound, ZeroDenominator
from fedfair.sampling import instance_rng, random_instance

PARAMS = PopulationParams(mu_e=10.0, sigma_sq=1.0)


def pair(n_s: float, n_l: float) -> Coalition:
    return Coalition((Player("s", n_s), Player("l", n_l)))


def uniform_pair_ratio(n_s, n_l, mu_e, sigma_sq):
    """Two-player ratio written directly from the pooled-average algebra:
    (mu_e (n_s + n_l) + 2 sigma_sq n_l^2) / (mu_e (n_s + n_l) + 2 sigma_sq n_s^2).
    """
    return (mu_e * (n_s + n_l) + 2 * sigma_sq * n_l * n_l) / (
        mu_e * (n_s + n_l) + 2 * sigma_sq * n_s * n_s
    )


class TestErrorRatio:
    def test_motivating_pair(self):
        ratio = error_ratio(pair(6, 20), "s", "l", FederationMethod.UNIFORM, PARAMS)
        assert math.isclose(ratio, 3.1927710843373496)

    def test_equal_players_ratio_one(self):
        coalition = Coalition((Player("a", 9.0), Player("b", 9.0)))
        for method in FederationMethod:
            assert error_ratio(coalition, "a", "b", method, PARAMS) == 1.0

    def test_fine_grained_two_player_ratio(self):
        ratio = error_ratio(
            pair(6, 20), "s", "l", FederationMethod.FINE_GRAINED, PARAMS
        )
        assert math.isclose(ratio, 50 / 22, rel_tol=1e-9)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            error_ratio(
                pair(6, 20), "s", "l", FederationMethod.LOCAL, PopulationParams(0, 1)
            )


class TestAuditEgalitarian:
    def test_motivating_nl20(self):
        audit = audit_egalitarian(pair(6, 20), FederationMethod.UNIFORM, PARAMS)
        assert math.isclose(audit.max_ratio, 3.1927710843373496)
        assert audit.worst_pair == ("s", "l")
        assert audit.c_value == 2.0
        assert audit.bound == 5.0
        assert audit.satisfied

    def test_motivating_nl40(self):
        audit = audit_egalitarian(pair(6, 40), FederationMethod.UNIFORM, PARAMS)
        assert math.isclose(audit.max_ratio, 915 / 133)  # 6.8797..., quoted as 6.89
        assert audit.bound == 9.0
        assert audit.satisfied

    def test_singleton(self):
        audit = audit_egalitarian(
            Coalition((Player("x", 4.0),)), FederationMethod.UNIFORM, PARAMS
        )
        assert audit.max_ratio == 1.0
        assert audit.satisfied

    @pytest.mark.parametrize("mu_e,sigma_sq", [(0.0, 1.0), (1.0, 0.0)])
    def test_undefined_bound(self, mu_e, sigma_sq):
        with pytest.raises(UndefinedBound):
            audit_egalitarian(
                pair(6, 20), FederationMethod.UNIFORM, PopulationParams(mu_e, sigma_sq)
            )

    @pytest.mark.parametrize("mu_e,sigma_sq", [(0.0, 1.0), (1.0, 0.0)])
    def test_bound_refuses_its_undefined_domain(self, mu_e, sigma_sq):
        """egalitarian_bound owns its domain: mu_e = 0 would divide by zero
        and sigma_sq = 0 would give a meaningless bound of 1."""
        with pytest.raises(UndefinedBound):
            egalitarian_bound(10.0, PopulationParams(mu_e, sigma_sq))

    def test_undefined_bound_before_degenerate_errors(self):
        """At mu_e = sigma_sq = 0 the fine-grained errors are degenerate too;
        the audit reports the bound's domain first."""
        with pytest.raises(UndefinedBound):
            audit_egalitarian(
                pair(6, 20), FederationMethod.FINE_GRAINED, PopulationParams(0, 0)
            )

    def test_bound_out_of_range_before_the_errors(self):
        """Where the bound and an error both overflow, the bound is named."""
        params = PopulationParams(1e-300, 1.7e308)
        with pytest.raises(OutOfFloatRange, match="the 2c\\+1 bound"):
            audit_egalitarian(pair(6, 20), FederationMethod.UNIFORM, params)


class TestTwoPlayerClosedForms:
    def test_uniform_ratio_matches_general_formula(self):
        """The pooled-form ratio and the direct algebra agree everywhere."""
        rng = np.random.default_rng(21)
        for _ in range(500):
            n_s, n_l = sorted(rng.uniform(1, 100, size=2))
            params = PopulationParams(
                float(rng.uniform(0.01, 50)), float(rng.uniform(0.01, 50))
            )
            via_errors = error_ratio(
                pair(n_s, n_l), "s", "l", FederationMethod.UNIFORM, params
            )
            direct = uniform_pair_ratio(n_s, n_l, params.mu_e, params.sigma_sq)
            assert math.isclose(via_errors, direct, rel_tol=1e-9)

    def test_fine_grained_ratio_closed_form(self):
        rng = np.random.default_rng(22)
        for _ in range(500):
            n_s, n_l = sorted(rng.uniform(1, 100, size=2))
            params = PopulationParams(
                float(rng.uniform(0.01, 50)), float(rng.uniform(0.01, 50))
            )
            via_errors = error_ratio(
                pair(n_s, n_l), "s", "l", FederationMethod.FINE_GRAINED, params
            )
            direct = (2 * params.sigma_sq * n_l + params.mu_e) / (
                2 * params.sigma_sq * n_s + params.mu_e
            )
            assert math.isclose(via_errors, direct, rel_tol=1e-9)


class TestModularity:
    def test_uniform_is_modular(self):
        report = check_modularity(FederationMethod.UNIFORM)
        assert len(report.properties) == 5
        assert report.all_passed, [p for p in report.properties if not p.passed]

    def test_fine_grained_is_modular(self):
        report = check_modularity(FederationMethod.FINE_GRAINED)
        assert len(report.properties) == 5
        assert report.all_passed, [p for p in report.properties if not p.passed]

    def test_inverse_size_weighting_fails_ordering(self):
        """Weighting players by T - n_i favors the small player, so the
        ordering property must fail and name a concrete scenario."""
        report = check_modularity(inverse_size_error)
        first = report.result(1)
        assert not first.passed
        assert first.counterexample is not None
        assert first.counterexample["err_small"] < first.counterexample["err_large"]

    def test_limit_catches_a_relative_miss_of_1e_6(self):
        """A two-player error 1e-6 too large for s moves the limiting ratio
        by about 3e-6, which property 5 must not excuse."""

        def skewed(coalition, target, params):
            err = uniform_error(coalition, target, params)
            return err * (1 + 1e-6) if target == "s" and len(coalition) == 2 else err

        fifth = check_modularity(skewed).result(5)
        assert not fifth.passed
        assert fifth.counterexample["ratio"] == 3.000002999998181
        assert fifth.counterexample["limit"] == 3.0

    def test_inverse_size_weighting_fails_on_a_two_player_instance(self):
        err_s = inverse_size_error(pair(6, 20), "s", PARAMS)
        err_l = inverse_size_error(pair(6, 20), "l", PARAMS)
        assert err_s < err_l  # the larger player is worse off: P1 violated

    def test_inverse_size_weighting_of_a_singleton_is_local(self):
        alone = Coalition((Player("x", 7.0),))
        assert math.isclose(
            inverse_size_error(alone, "x", PARAMS),
            local_error(Player("x", 7.0), PARAMS),
            rel_tol=1e-15,
        )


class TestTightness:
    def test_c2_reaches_499(self):
        result = tightness_search(c=2.0, epsilon=0.01)
        assert 4.99 <= result.ratio <= 5.0
        assert result.n_s == 1.0 and result.sigma_sq == 1.0
        assert result.n_l == result.c_value * result.mu_e

    def test_c4_reaches_89(self):
        result = tightness_search(c=4.0, epsilon=0.1)
        assert 8.9 <= result.ratio <= 9.0
        audit = audit_egalitarian(
            pair(result.n_s, result.n_l),
            FederationMethod.UNIFORM,
            PopulationParams(result.mu_e, result.sigma_sq),
        )
        assert audit.bound == pytest.approx(9.0)
        assert audit.satisfied

    def test_loose_target_is_immediate(self):
        result = tightness_search(c=1.0, epsilon=2.0)
        assert result.ratio >= 1.0

    def test_never_exceeds_the_bound(self):
        for c in (0.5, 1.0, 2.0, 3.0, 8.0):
            result = tightness_search(c=c, epsilon=1e-3)
            assert 2 * c + 1 - 1e-3 <= result.ratio <= 2 * c + 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            tightness_search(c=0.0, epsilon=0.1)
        with pytest.raises(ValueError):
            tightness_search(c=1.0, epsilon=0.0)


class TestBoundSweep:
    def test_small_sweep_clean(self):
        result = bound_sweep(instance_count=800, seed=3)
        assert result.passed
        assert result.checks == 1600
        assert 0.0 < result.max_quotient < 1.0

    def test_sweep_is_deterministic(self):
        a = bound_sweep(instance_count=50, seed=9)
        b = bound_sweep(instance_count=50, seed=9)
        assert a.max_quotient == b.max_quotient

    def test_ratio_at_least_one_on_random_instances(self):
        for index in range(200):
            params, coalition = random_instance(instance_rng(23, index))
            for method in (FederationMethod.UNIFORM, FederationMethod.FINE_GRAINED):
                audit = audit_egalitarian(coalition, method, params)
                assert audit.max_ratio >= 1.0 - 1e-12
