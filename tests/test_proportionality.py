"""Proportionality classification, individual rationality, and the two
joining-size thresholds."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fedfair import (
    Coalition,
    CoalitionLabel,
    FederationMethod,
    Player,
    PopulationParams,
    classify_proportionality,
    defection_threshold,
    individually_rational,
    subproportionality_threshold,
    verify_propstab,
)
from fedfair.exceptions import OutOfFloatRange, TargetNotInCoalition
from fedfair.proportionality import _labels
from fedfair.sampling import instance_rng, random_instance

PARAMS = PopulationParams(mu_e=10.0, sigma_sq=1.0)


def pair(n_s: float, n_l: float) -> Coalition:
    return Coalition((Player("s", n_s), Player("l", n_l)))


def pair_label(n_i, err_i, n_j, err_j):
    """The label ``_labels`` gives n_i * err_i against n_j * err_j in these
    roles: at equal sizes of 1 the id order i < j keeps them, and each
    product is unchanged."""
    pairs, _ = _labels(("i", "j"), [[1.0], [1.0]], [[n_i * err_i], [n_j * err_j]])
    [label] = pairs[0]
    return label


class TestClassification:
    @pytest.mark.parametrize(
        "n_l,expected",
        [
            (20, CoalitionLabel.SUB),  # ratio 3.19 < size ratio 3.33
            (30, CoalitionLabel.EXACT),  # ratio 5 = size ratio 5
            (40, CoalitionLabel.SUPER),  # ratio 6.88 > size ratio 6.67
        ],
    )
    def test_motivating_rows(self, n_l, expected):
        report = classify_proportionality(
            pair(6, n_l), FederationMethod.UNIFORM, PARAMS
        )
        assert report.label is expected
        assert len(report.pairs) == 1
        assert report.pairs[0].small_id == "s"

    @pytest.mark.parametrize(
        "gap, below, above",
        [
            (1e-7, CoalitionLabel.SUB, CoalitionLabel.SUPER),
            (1e-12, CoalitionLabel.EXACT, CoalitionLabel.EXACT),
        ],
    )
    def test_pair_label_at_a_relative_gap(self, gap, below, above):
        """Scaled errors 1e-7 apart differ; 1e-12 apart they tie."""
        assert pair_label(2.0, 1.5, 4.0, 0.75 * (1 + gap)) is below
        assert pair_label(2.0, 1.5 * (1 + gap), 4.0, 0.75) is above

    def test_equal_players_exact(self):
        coalition = Coalition((Player("a", 7.0), Player("b", 7.0)))
        report = classify_proportionality(coalition, FederationMethod.UNIFORM, PARAMS)
        assert report.label is CoalitionLabel.EXACT

    def test_local_learning_is_exactly_proportional(self):
        """Under local learning n_i * err_i = mu_e for everyone."""
        coalition = Coalition.from_sizes([3, 11, 40])
        report = classify_proportionality(coalition, FederationMethod.LOCAL, PARAMS)
        assert report.label is CoalitionLabel.EXACT

    def test_singleton_has_no_pairs(self):
        report = classify_proportionality(
            Coalition.from_sizes([5]), FederationMethod.UNIFORM, PARAMS
        )
        assert report.pairs == ()
        assert report.label is CoalitionLabel.EXACT

    def test_pairwise_classification_is_antisymmetric(self):
        """Swapping the comparison roles never yields sub both ways."""
        for index in range(300):
            params, coalition = random_instance(instance_rng(31, index))
            report = classify_proportionality(
                coalition, FederationMethod.UNIFORM, params
            )
            sizes = dict(zip(coalition.ids(), coalition.sizes()))
            for judged in report.pairs:
                swapped = pair_label(
                    sizes[judged.large_id],
                    judged.scaled_large / sizes[judged.large_id],
                    sizes[judged.small_id],
                    judged.scaled_small / sizes[judged.small_id],
                )
                if judged.classification is CoalitionLabel.SUB:
                    assert swapped is CoalitionLabel.SUPER
                elif judged.classification is CoalitionLabel.SUPER:
                    assert swapped is CoalitionLabel.SUB
                else:
                    assert swapped is CoalitionLabel.EXACT


@pytest.mark.parametrize("n_l", [30.0, 40.0])
def test_verdicts_do_not_depend_on_units(n_l):
    """Errors are homogeneous of degree 1 in (mu_e, sigma_sq), so scaling
    both must leave every verdict alone, however small or large."""
    verdicts = set()
    for scale in (1.0, 1e-13, 1e13):
        params = PopulationParams(10.0 * scale, 1.0 * scale)
        report = classify_proportionality(pair(6, n_l), FederationMethod.UNIFORM, params)
        rationality = individually_rational(pair(6, n_l), FederationMethod.UNIFORM, params)
        verdicts.add((report.label, rationality.individually_rational))
    assert len(verdicts) == 1


class TestIndividualRationality:
    def test_super_proportional_row_is_not_rational(self):
        report = individually_rational(pair(6, 40), FederationMethod.UNIFORM, PARAMS)
        assert not report.individually_rational
        large = next(r for r in report.players if r.player_id == "l")
        assert large.local_error == 0.25
        assert large.coalition_error > large.local_error
        assert large.prefers_local

    def test_sub_proportional_row_is_rational(self):
        # err_s = 1.568 < 10/6, err_l = 0.491 < 0.5
        report = individually_rational(pair(6, 20), FederationMethod.UNIFORM, PARAMS)
        assert report.individually_rational
        assert not any(r.prefers_local for r in report.players)

    def test_boundary_row_is_weakly_rational(self):
        """At n_l = 30 the large player's two options tie to within 1e-9."""
        report = individually_rational(pair(6, 30), FederationMethod.UNIFORM, PARAMS)
        assert report.individually_rational
        large = next(r for r in report.players if r.player_id == "l")
        assert math.isclose(large.coalition_error, large.local_error, rel_tol=1e-9)

    def test_fine_grained_is_always_rational(self):
        """Optimal unit-sum weights dominate the self-only weighting."""
        for index in range(300):
            params, coalition = random_instance(instance_rng(32, index))
            report = individually_rational(
                coalition, FederationMethod.FINE_GRAINED, params
            )
            assert report.individually_rational


class TestThresholds:
    def test_single_small_player(self):
        rest = Coalition((Player("s", 6.0),))
        # denominator 1*(36/36) + 1 - 10/6 = 1/3; threshold 10/(1/3) = 30
        assert math.isclose(defection_threshold(rest, PARAMS), 30.0)
        # (-12 + 10 + 12)/(1/3) = 30
        assert math.isclose(subproportionality_threshold(rest, "s", PARAMS), 30.0)

    def test_non_member_is_named_like_any_other_target(self):
        """The membership rule of ``expected_error`` and the rest: a
        ``FedFairError`` naming the id, not a bare ``KeyError``."""
        rest = Coalition.from_sizes([6, 20])
        with pytest.raises(TargetNotInCoalition, match="^target 'x' not in coalition$"):
            subproportionality_threshold(rest, "x", PARAMS)

    def test_tiny_player_never_defects(self):
        rest = Coalition((Player("s", 1.0),))
        assert defection_threshold(rest, PARAMS) == math.inf

    def test_boundary_noise_to_bias(self):
        """n_s = mu_e / (2 sigma_sq) sits exactly on the impossible side."""
        rest = Coalition((Player("s", 5.0),))
        assert subproportionality_threshold(rest, "s", PARAMS) == math.inf

    def test_two_member_rest_orders_strictly(self):
        rest = Coalition((Player("a", 6.0), Player("b", 6.0)))
        defect = defection_threshold(rest, PARAMS)
        violate = subproportionality_threshold(rest, "a", PARAMS)
        assert math.isclose(defect, 15.0)
        assert math.isclose(violate, 96.0)
        assert defect < violate

    def test_singleton_thresholds_coincide(self):
        """For rest = {s} both bounds are mu_e / (2 sigma_sq - mu_e/n_s)."""
        rng = np.random.default_rng(33)
        for _ in range(400):
            n = float(rng.uniform(1, 100))
            params = PopulationParams(
                float(rng.uniform(0.01, 50)), float(rng.uniform(0.01, 50))
            )
            rest = Coalition((Player("s", n),))
            defect = defection_threshold(rest, params)
            violate = subproportionality_threshold(rest, "s", params)
            denom = 2 * params.sigma_sq - params.mu_e / n
            if denom <= 0:
                assert defect == math.inf and violate == math.inf
            else:
                expected = params.mu_e / denom
                assert math.isclose(defect, expected, rel_tol=1e-9)
                assert math.isclose(violate, expected, rel_tol=1e-9)

    def test_defection_matches_direct_error_comparison(self):
        """Joining at the threshold size leaves the newcomer indifferent
        between federating and local learning (checked via the errors)."""
        rest = Coalition((Player("s", 6.0),))
        threshold = defection_threshold(rest, PARAMS)
        joined = Coalition((Player("s", 6.0), Player("l", threshold)))
        from fedfair import local_error, uniform_error

        fed = uniform_error(joined, "l", PARAMS)
        loc = local_error(Player("l", threshold), PARAMS)
        assert math.isclose(fed, loc, rel_tol=1e-9)

    def test_defection_range_error_names_total_and_sum_sq(self):
        """T^2 underflows to zero in floats.  Exactly, the singleton form
        mu_e / (2 sigma_sq - mu_e/n_s) has a negative denominator here, so
        the newcomer never defects: inf, not a range error."""
        rest = Coalition((Player("s", 1e-320),))
        assert 2 * 1 - 10 / Fraction(1e-320) < 0
        assert defection_threshold(rest, PARAMS) == math.inf

    def test_subproportionality_range_error_names_n_s(self):
        """(sigma_sq/n_s)(S + T^2) overflows against -2 sigma_sq T in floats,
        which gave NaN; the threshold is the exact singleton form, rounded
        once."""
        rest = Coalition((Player("s", 1e10),))
        exact = 1 / (2 * Fraction(1e300) - 1 / Fraction(1e10))
        got = subproportionality_threshold(rest, "s", PopulationParams(1.0, 1e300))
        assert got == float(exact)

    def test_overflowing_threshold_names_each_size_by_id(self):
        """With mu_e one ulp below 2 sigma_sq n_s, the singleton form
        mu_e n_s / (2 sigma_sq n_s - mu_e) is about 7.7e315: exactly past the
        float range, so both thresholds raise, naming each member's n by
        id, as an error does.  The rest's sum of squares, 1e600, is no
        float: the message names no infinite input."""
        rest = Coalition((Player("s", 1e300),))
        params = PopulationParams(math.nextafter(2e300, 0.0), 1.0)
        with pytest.raises(OutOfFloatRange) as info:
            defection_threshold(rest, params)
        message = str(info.value)
        assert "the defection threshold is outside" in message
        assert "n={'s': 1e+300}" in message and "inf" not in message
        with pytest.raises(OutOfFloatRange) as info:
            subproportionality_threshold(rest, "s", params)
        message = str(info.value)
        assert "the subproportionality threshold against 's' is outside" in message
        assert "n={'s': 1e+300}" in message and "inf" not in message


class TestVerifyPropstab:
    def test_seeded_sweep_finds_no_counterexamples(self):
        result = verify_propstab(instance_count=1500, seed=7)
        assert result.passed, result.counterexamples[:3]
        assert result.instances == 1500

    def test_sweep_is_deterministic(self):
        a = verify_propstab(instance_count=60, seed=5)
        b = verify_propstab(instance_count=60, seed=5)
        assert a == b

    def test_super_but_irrational_pair_is_not_a_counterexample(self):
        """The n_l=40 pair is super-proportional yet not individually
        rational, so the guarantee has nothing to say about it."""
        coalition = pair(6, 40)
        rationality = individually_rational(
            coalition, FederationMethod.UNIFORM, PARAMS
        )
        report = classify_proportionality(coalition, FederationMethod.UNIFORM, PARAMS)
        assert report.label is CoalitionLabel.SUPER
        assert not rationality.individually_rational

    def test_boundary_pair_is_rational_and_exact(self):
        """The n_l=30 pair ties on both comparisons: weakly rational and
        exactly proportional, which the guarantee accepts."""
        coalition = pair(6, 30)
        rationality = individually_rational(
            coalition, FederationMethod.UNIFORM, PARAMS
        )
        report = classify_proportionality(coalition, FederationMethod.UNIFORM, PARAMS)
        assert report.label is CoalitionLabel.EXACT
        assert rationality.individually_rational

    def test_super_proportional_instances_are_never_rational(self):
        """The direct statement: whenever a random uniform-federation
        coalition shows a super pair, someone prefers local learning."""
        seen_super = 0
        for index in range(400):
            params, coalition = random_instance(instance_rng(34, index))
            report = classify_proportionality(
                coalition, FederationMethod.UNIFORM, params
            )
            if report.label in (CoalitionLabel.SUPER, CoalitionLabel.MIXED):
                seen_super += 1
                rationality = individually_rational(
                    coalition, FederationMethod.UNIFORM, params
                )
                assert not rationality.individually_rational
        assert seen_super > 0  # the sweep actually exercised the super case

    def test_rational_instances_are_never_super_proportional(self):
        """The paper's second claim, checked on instances aimed at it.
        With mu_e uniform on (0.01, 50] the largest member almost always
        prefers local learning, so few sweep instances are rational.  Here
        mu_e is rescaled so that c = n_max * sigma_sq / mu_e is uniform on
        [0.5, 2]: about half the coalitions are rational, and every one of
        them must be sub- or exactly proportional."""
        rational = rational_above_one = 0
        for index in range(2000):
            draw = instance_rng(35, index)
            params, coalition = random_instance(draw)
            c = 0.5 + 1.5 * draw[7]
            n_max = max(p.n for p in coalition.players)
            params = PopulationParams(n_max * params.sigma_sq / c, params.sigma_sq)
            rationality = individually_rational(
                coalition, FederationMethod.UNIFORM, params
            )
            if not rationality.individually_rational:
                continue
            rational += 1
            rational_above_one += c > 1.0
            report = classify_proportionality(
                coalition, FederationMethod.UNIFORM, params
            )
            assert report.label in (CoalitionLabel.SUB, CoalitionLabel.EXACT), index
        # 1,045 of 2,000 are rational at this seed, 385 of them with c > 1.
        assert rational >= 800 and rational_above_one >= 200
