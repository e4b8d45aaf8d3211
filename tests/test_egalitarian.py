"""Pairwise ratio audits, the 2c+1 bound, the five structural properties,
and the near-tightness construction."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

import fedfair.egalitarian
from fedfair import (
    Coalition,
    FederationMethod,
    Player,
    PopulationParams,
    audit_egalitarian,
    bound_sweep,
    check_modularity,
    expected_error,
    inverse_size_error,
    local_error,
    tightness_search,
)
from fedfair.egalitarian import (
    PAIR_SIZES,
    PARAM_LEVELS,
    THIRD_SIZES,
    TightnessResult,
    _grid_slopes,
    _ratio,
    egalitarian_bound,
)
from fedfair.errors import _errors
from fedfair.exceptions import (NonPositiveSamples, OutOfFloatRange, UndefinedBound,
                                ZeroDenominator)
from fedfair.sampling import instance_rng, random_instance

PARAMS = PopulationParams(mu_e=10.0, sigma_sq=1.0)


def pair(n_s: float, n_l: float) -> Coalition:
    return Coalition((Player("s", n_s), Player("l", n_l)))


def member_ratio(coalition, i, j, method, params):
    """err_i / err_j of two members, divided by ``_ratio`` as the audits do."""
    return _ratio(expected_error(coalition, i, method, params),
                  expected_error(coalition, j, method, params), i, j)


def uniform_pair_ratio(n_s, n_l, mu_e, sigma_sq):
    """Two-player ratio written directly from the pooled-average algebra:
    (mu_e (n_s + n_l) + 2 sigma_sq n_l^2) / (mu_e (n_s + n_l) + 2 sigma_sq n_s^2).
    """
    return (mu_e * (n_s + n_l) + 2 * sigma_sq * n_l * n_l) / (
        mu_e * (n_s + n_l) + 2 * sigma_sq * n_s * n_s
    )


def fine_grained_pair_ratio(n_s, n_l, mu_e, sigma_sq):
    """Two-player fine-grained ratio in closed form:
    (2 sigma_sq n_l + mu_e) / (2 sigma_sq n_s + mu_e)."""
    return (2 * sigma_sq * n_l + mu_e) / (2 * sigma_sq * n_s + mu_e)


def inverse_size_ratio(*args):
    """err_s / err_l of ``inverse_size_error`` for sizes (n_s, n_l[, n_k])
    followed by mu_e and sigma_sq; ids sort k < l < s."""
    *sizes, mu_e, sigma_sq = args
    ids = "kls"[3 - len(sizes) :]
    errors = inverse_size_error([[n] for n in sizes[::-1]], [mu_e], [sigma_sq], ids)
    err = {pid: column[0] for pid, column in zip(ids, errors)}
    return err["s"] / err["l"]


class Dual:
    """a + b e with e^2 = 0 and exact ``Fraction`` parts: pushed through
    +, -, * and /, b carries the exact derivative."""

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    @staticmethod
    def lift(x):
        return x if isinstance(x, Dual) else Dual(x)

    def __add__(self, other):
        other = Dual.lift(other)
        return Dual(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -1 * Dual.lift(other)

    def __rsub__(self, other):
        return Dual.lift(other) - self

    def __mul__(self, other):
        other = Dual.lift(other)
        return Dual(self.a * other.a, self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Dual.lift(other)
        slope = (self.b * other.a - self.a * other.b) / (other.a * other.a)
        return Dual(self.a / other.a, slope)

    def __rtruediv__(self, other):
        return Dual.lift(other) / self


def exact_slope(ratio, mu_e, sigma_sq, sizes, at):
    """The derivative of ``ratio(*sizes, mu_e, sigma_sq)`` in ``sizes[at]``,
    exact on the given floats."""
    args = [Fraction(n) for n in sizes]
    args[at] = Dual(args[at], 1)
    return ratio(*args, Fraction(mu_e), Fraction(sigma_sq)).b


def sign(x):
    return (x > 0) - (x < 0)


class TestErrorRatio:
    def test_motivating_pair(self):
        ratio = member_ratio(pair(6, 20), "s", "l", FederationMethod.UNIFORM, PARAMS)
        assert math.isclose(ratio, 3.1927710843373496)

    def test_equal_players_ratio_one(self):
        coalition = Coalition((Player("a", 9.0), Player("b", 9.0)))
        for method in FederationMethod:
            assert member_ratio(coalition, "a", "b", method, PARAMS) == 1.0

    def test_fine_grained_two_player_ratio(self):
        ratio = member_ratio(
            pair(6, 20), "s", "l", FederationMethod.FINE_GRAINED, PARAMS
        )
        assert math.isclose(ratio, 50 / 22, rel_tol=1e-9)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            member_ratio(
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
        assert audit.worst_pair == ("x", "x")
        assert audit.satisfied

    @pytest.mark.parametrize("method", list(FederationMethod), ids=lambda m: m.value)
    def test_tied_errors_name_two_members(self, method):
        """Equal sizes tie every error: the pair is the first member and
        the next, never one member twice."""
        coalition = Coalition.from_sizes([6, 6, 6])
        audit = audit_egalitarian(coalition, method, PARAMS)
        assert audit.max_ratio == 1.0
        assert audit.worst_pair == ("p1", "p2")

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

    @pytest.mark.parametrize("n_max", [math.inf, math.nan, -1.0, 0.0])
    def test_bound_refuses_a_size_that_is_not_finite_and_positive(self, n_max):
        with pytest.raises(NonPositiveSamples, match=f"n_max .*got {n_max!r}"):
            egalitarian_bound(n_max, PopulationParams(1.0, 1.0))

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

    def test_overflowing_worst_ratio_names_both_errors(self):
        """Local errors 1/1e-300 and 1e-300 are finite, their exact ratio
        about 1e600 is not (2c+1 is 2e290): the audit and ``_ratio`` both
        refuse it, naming each player's error, where inf was reported."""
        coalition, params = pair(1e-300, 1e300), PopulationParams(1.0, 1e-10)
        big, small = 1 / 1e-300, 1e-300
        message = (f"the ratio s/l is outside the floating-point range at "
                   f"s={big!r}, l={small!r}")
        with pytest.raises(OutOfFloatRange) as audited:
            audit_egalitarian(coalition, FederationMethod.LOCAL, params)
        with pytest.raises(OutOfFloatRange) as divided:
            member_ratio(coalition, "s", "l", FederationMethod.LOCAL, params)
        assert str(audited.value) == str(divided.value) == message
        assert member_ratio(coalition, "l", "s", FederationMethod.LOCAL, params) == (
            small / big
        )

    def test_singleton_with_a_vanishing_error_has_ratio_one(self):
        """The exact error 1e-400 rounds to 0.0; a lone member's worst ratio
        is still 1, not an undefined quotient."""
        coalition = Coalition((Player("x", 1e100),))
        audit = audit_egalitarian(
            coalition, FederationMethod.LOCAL, PopulationParams(1e-300, 1e-300)
        )
        assert audit.max_ratio == 1.0 and audit.worst_pair == ("x", "x")
        assert audit.satisfied


class TestTwoPlayerClosedForms:
    def test_uniform_ratio_matches_general_formula(self):
        """The pooled-form ratio and the direct algebra agree everywhere."""
        rng = np.random.default_rng(21)
        for _ in range(500):
            n_s, n_l = sorted(rng.uniform(1, 100, size=2))
            params = PopulationParams(
                float(rng.uniform(0.01, 50)), float(rng.uniform(0.01, 50))
            )
            via_errors = member_ratio(
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
            via_errors = member_ratio(
                pair(n_s, n_l), "s", "l", FederationMethod.FINE_GRAINED, params
            )
            direct = fine_grained_pair_ratio(n_s, n_l, *params)
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

    @pytest.mark.parametrize("method", ["uniform", None, 3])
    def test_only_a_method_or_a_callable_is_checked(self, monkeypatch, method):
        """Anything else is rejected by name before the grid is evaluated,
        never a raw TypeError from calling it on the grid."""

        def evaluated(*args):
            raise AssertionError("a grid case was evaluated")

        monkeypatch.setattr(fedfair.egalitarian, "_grid_errors", evaluated)
        with pytest.raises(ValueError, match=re.escape(
                f"unknown federation method: {method!r}")):
            check_modularity(method)

    def test_limit_catches_a_relative_miss_of_1e_6(self):
        """A two-player error 1e-6 too large for s moves the limiting ratio
        by about 3e-6, which property 5 must not excuse."""

        def skewed(columns, mu_e, sigma_sq, ids):
            errors = _errors(columns, FederationMethod.UNIFORM, mu_e, sigma_sq, ids)
            if len(ids) == 2:  # ids "ls": s is the last column
                errors[1] = [e * (1 + 1e-6) for e in errors[1]]
            return errors

        fifth = check_modularity(skewed).result(5)
        assert not fifth.passed
        assert fifth.counterexample["ratio"] == 3.000002999998181
        assert fifth.counterexample["limit"] == 3.0

    def test_inverse_size_weighting_fails_on_a_two_player_instance(self):
        # Columns in id order: l (n = 20), then s (n = 6).
        (err_l,), (err_s,) = inverse_size_error([[20.0], [6.0]], [10.0], [1.0], "ls")
        assert err_s < err_l  # the larger player is worse off: P1 violated

    def test_inverse_size_weighting_of_a_singleton_is_local(self):
        ((err,),) = inverse_size_error([[7.0]], [PARAMS.mu_e], [PARAMS.sigma_sq], "x")
        assert math.isclose(err, local_error(Player("x", 7.0), PARAMS), rel_tol=1e-15)


@pytest.fixture(scope="module")
def inverse_size_report():
    return check_modularity(inverse_size_error)


class TestExactSlopes:
    """Properties 2-4 read each slope from a complex-step evaluation.  It
    must agree with the exact derivative (forward-mode duals over
    ``Fraction``) of the same ratio on the given floats."""

    @pytest.mark.parametrize(
        "prop, key, at, exact",
        [
            (2, "derivative_in_third", 2, Fraction(-6, 1369)),  # -0.0043827611395179
            (3, "derivative_in_large", 1, Fraction(-1)),
            (4, "derivative_in_small", 0, Fraction(1)),
        ],
    )
    def test_inverse_size_counterexample_slopes(
        self, inverse_size_report, prop, key, at, exact
    ):
        found = inverse_size_report.result(prop).counterexample
        names = ("n_small", "n_large", "n_third")[: 3 if prop == 2 else 2]
        sizes = [found[name] for name in names]
        params = found["mu_e"], found["sigma_sq"]
        assert exact_slope(inverse_size_ratio, *params, sizes, at) == exact
        assert math.isclose(found[key], float(exact), rel_tol=1e-12)

    @pytest.mark.parametrize(
        "method, ratio",
        [
            (FederationMethod.UNIFORM, uniform_pair_ratio),
            (FederationMethod.FINE_GRAINED, fine_grained_pair_ratio),
        ],
        ids=["uniform", "fine_grained"],
    )
    def test_honest_slopes_are_exact(self, method, ratio):
        """Every property 3 and 4 slope has the exact derivative's sign and
        is within 1e-9 of it; every property 2 slope at n_s = n_l is 0."""
        pairs = [
            (PopulationParams(mu_e, sigma_sq), n_s, n_l)
            for mu_e in PARAM_LEVELS
            for sigma_sq in PARAM_LEVELS
            for n_s in PAIR_SIZES
            for n_l in PAIR_SIZES
            if n_s <= n_l
        ]
        for at in (0, 1):
            for (params, *sizes), got in zip(pairs, _grid_slopes(method, pairs, at)):
                exact = float(exact_slope(ratio, *params, sizes, at))
                assert sign(got) == sign(exact), (params, sizes, at, got, exact)
                assert math.isclose(got, exact, rel_tol=1e-9), (params, sizes, at)
        trios = [(*pair, n_k) for pair in pairs for n_k in THIRD_SIZES]
        slopes = _grid_slopes(method, trios, 2)
        level = [d for (_, n_s, n_l, _), d in zip(trios, slopes) if n_s == n_l]
        assert len(level) == 162 and set(level) == {0.0}


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

    def test_closed_form_matches_the_doubling_search(self):
        """The closed form gives what doubling mu_e from 1 until the float
        test passes gave, on a (c, epsilon) grid.  It holds where no root
        exceeds 1 (epsilon >= 2c+1 among them), where rounding puts the
        root just above the answer (c = 1e4, epsilon = 1e-12: 2**40), and
        where epsilon dwarfs 2c, so the textbook root formula cancels
        (c = 1e-300, epsilon = 1e-3: 2**11)."""
        cs = [1e-300, 1e-12, 1e-8] + [10.0**k for k in range(-4, 5)]
        cs += [1 / 3, 0.25, 0.3, 0.5, 0.7, 0.9, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0]
        cs += [7.0, 8.0, 12.0, 20.0, 33.0, 50.0, 64.0]
        epsilons = [10.0**k for k in range(-12, 2)]
        epsilons += [9e-11, 2.5e-7, 3e-5, 1e-3 / 3, 0.007, 0.03, 0.2, 0.25, 0.5]
        epsilons += [1.5, 2.0, 3.0, 4.1, 5.0, 7.0, 20.0]
        for c in cs:
            for epsilon in epsilons:
                assert tightness_search(c, epsilon) == doubling_search(c, epsilon), (
                    c,
                    epsilon,
                )
        assert tightness_search(1e4, 1e-12).mu_e == 2.0**40
        assert tightness_search(1e-300, 1e-3).mu_e == 2.0**11
        assert tightness_search(0.25, 2.0).mu_e == 1.0

    def test_epsilon_below_the_float_resolution_is_refused(self):
        """At c = 2e4 the float ratio is 2c+1 = 40001 to within an ulp of
        7.3e-12, so epsilon = 1e-12 cannot be confirmed near the root.  The
        doubling search returned mu_e = 2**38, where the exact ratio falls
        7.3e-12 short of 2c+1: it passed by rounding alone."""
        with pytest.raises(ValueError, match="finer than the float ratio"):
            tightness_search(2e4, 1e-12)
        assert doubling_search(2e4, 1e-12).mu_e == 2.0**38

    def test_root_where_an_intermediate_overflowed(self):
        """Past c of about 3e153, b*b - 4 epsilon c k overflowed, the root
        became inf, and frexp(inf)'s exponent 0 made the candidates 1, 1 and
        2: at (1e200, 1e-10) mu_e = 1 passed in floats, where the exact ratio
        falls about 6 short of 2c+1.  The roots are about 2/epsilon = 2e10
        and 1 + sqrt(5).  A root in [2**1023, FLOAT_MAX] made ldexp raise
        OverflowError; its candidate 2**1023 is a float."""
        assert 2.0**34 <= tightness_search(1e200, 1e-10).mu_e <= 2.0**36
        assert tightness_search(1e160, 1.0).mu_e in (2.0, 4.0, 8.0)
        assert tightness_search(3.672717845150215e-119, 1.430206535722879e-308).mu_e == (
            2.0**1023
        )

    def test_no_candidate_past_the_float_range(self):
        """At (1e200, 1e-300) the root is about 2e300, so c * mu_e overflows
        for every candidate: refused by c and epsilon, never as
        ``NonPositiveSamples`` about n_max = inf."""
        match = r"epsilon=1e-300 is finer than the float ratio resolves at c=1e\+200"
        with pytest.raises(ValueError, match=match):
            tightness_search(1e200, 1e-300)

    def test_invalid_arguments(self):
        for c, epsilon in [(0.0, 0.1), (1.0, 0.0), (math.nan, 0.1), (math.inf, 0.1),
                           (-1.0, 0.1), (1.0, math.nan), (1.0, -0.1)]:
            match = rf"c must be finite and > 0 .*c={c!r}, epsilon={epsilon!r}"
            with pytest.raises(ValueError, match=match):
                tightness_search(c=c, epsilon=epsilon)


def doubling_search(c, epsilon):
    """The search ``tightness_search`` replaced: double mu_e from 1 until
    the float ratio clears 2c+1 - epsilon."""
    mu_e = 1.0
    for _ in range(600):
        params = PopulationParams(mu_e, 1.0)
        n_l = c * mu_e
        c_value, bound = egalitarian_bound(n_l, params)
        ratio = member_ratio(pair(1.0, n_l), "s", "l", FederationMethod.UNIFORM, params)
        if ratio >= bound - epsilon:
            return TightnessResult(1.0, n_l, mu_e, 1.0, ratio, c_value, bound)
        mu_e *= 2.0
    raise ArithmeticError("target not reached within 600 doublings")


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
