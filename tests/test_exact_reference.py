"""The closed forms against an exact rational evaluation.

Every float is a rational number, so ``fractions.Fraction`` evaluates the
local, uniform and fine-grained errors of a drawn instance with no
rounding at all.  The exact fine-grained error is taken from the general
weighted-error formula at the exact optimal weights, not from the
kernel's shortcut, so the two share no arithmetic.

Draws are log-uniform: 1 to 6 players with n on [1e-3, 1e12], and mu_e and
sigma_sq on [1e-12, 1e12], with sigma_sq = 0 in 5% of draws.  Every
evaluation must return a finite float within ``ULP_BOUND`` units in the
last place of the exact value.  Over the whole float range, subnormals
and 0 included, the float-range rule of ``fedfair.errors.in_order``
holds: in its band the same bound, outside it the correctly rounded
exact value, or ``OutOfFloatRange`` exactly where that value overflows.

The column functions are also run on ``Fraction`` columns, where they
must be exact: the errors against the same independent rationals, each
threshold against its definition in exact uniform errors, the two
thresholds against each other on a singleton (the identity
``verify_propstab`` relies on), the uniform error ratio against 2c+1 at
an empty small player, and all of them past the float range.
"""

import math
import random
from fractions import Fraction
from functools import partial

import pytest

from fedfair import (
    Coalition,
    FederationMethod,
    Player,
    PopulationParams,
    expected_error,
    fine_grained_weights,
)
from fedfair.egalitarian import _bounds, egalitarian_bound
from fedfair.errors import BAND_HIGH, BAND_LOW, _errors
from fedfair.exceptions import DegenerateParams, OutOfFloatRange
from fedfair.proportionality import (
    _thresholds,
    defection_threshold,
    subproportionality_threshold,
)

DRAWS = 2000
# The worst seen over 10,000 draws, every member a target: 0.5 ulp local,
# 6.6 uniform and 6.0 fine-grained.
ULP_BOUND = 8
SEED = 20_260_418


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def draw(rng: random.Random) -> tuple[PopulationParams, Coalition]:
    ns = [log_uniform(rng, 1e-3, 1e12) for _ in range(rng.randint(1, 6))]
    mu_e = log_uniform(rng, 1e-12, 1e12)
    sigma_sq = 0.0 if rng.random() < 0.05 else log_uniform(rng, 1e-12, 1e12)
    coalition = Coalition.from_sizes(ns)
    return PopulationParams(mu_e, sigma_sq), coalition


def exact_weights(method, params, coalition, j):
    """Member j's combination weights v under ``method``, in exact rationals."""
    mu_e, sigma_sq = Fraction(params.mu_e), Fraction(params.sigma_sq)
    ns = [Fraction(n) for n in coalition.sizes()]
    if method is FederationMethod.LOCAL:
        v = [Fraction(int(i == j)) for i in range(len(ns))]
    elif method is FederationMethod.UNIFORM:
        v = [n / sum(ns) for n in ns]
    else:
        # The unit-sum optimum (Donahue and Kleinberg): with
        # V_i = sigma_sq + mu_e / n_i and S = sum_{i != j} 1/V_i,
        # v_j = (1 + sigma_sq S) / (1 + V_j S) and, for k != j,
        # v_k = (1/V_k) (V_j - sigma_sq) / (1 + V_j S).
        big_v = [sigma_sq + mu_e / n for n in ns]
        s = sum(1 / x for i, x in enumerate(big_v) if i != j)
        denom = 1 + big_v[j] * s
        v = [
            (1 + sigma_sq * s) / denom if i == j else (big_v[j] - sigma_sq) / (x * denom)
            for i, x in enumerate(big_v)
        ]
    assert sum(v) == 1
    return v


def exact_error(method, params, coalition, j):
    """Member j's error in exact rationals, from its weights v:
    mu_e sum_i v_i^2 / n_i + sigma_sq (sum_{i!=j} v_i^2 + (sum_{i!=j} v_i)^2)."""
    mu_e, sigma_sq = Fraction(params.mu_e), Fraction(params.sigma_sq)
    ns = [Fraction(n) for n in coalition.sizes()]
    v = exact_weights(method, params, coalition, j)
    noise = sum(w * w / n for w, n in zip(v, ns))
    off = [w for i, w in enumerate(v) if i != j]
    return mu_e * noise + sigma_sq * (sum(w * w for w in off) + sum(off) ** 2)


def ulps(value: float, exact: Fraction) -> Fraction:
    return abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))


@pytest.mark.parametrize("method", list(FederationMethod), ids=lambda m: m.value)
def test_closed_forms_are_near_exact_at_realistic_ranges(method):
    rng = random.Random(f"{SEED}-{method.value}")
    for _ in range(DRAWS):
        params, coalition = draw(rng)
        ids = coalition.ids()
        j = rng.randrange(len(ids))
        value = expected_error(coalition, ids[j], method, params)
        exact = exact_error(method, params, coalition, j)
        distance = ulps(value, exact)
        assert math.isfinite(value) and distance <= ULP_BOUND, (
            params,
            coalition,
            ids[j],
            value,
            float(exact),
            float(distance),
        )


@pytest.mark.parametrize("method", list(FederationMethod), ids=lambda m: m.value)
def test_kernel_is_exact_on_fraction_columns(method):
    """The same column kernel, given ``Fraction`` columns, returns each
    member's exact error as a ``Fraction``: no float enters anywhere, also
    for a lone member, whose leave-one-out sums are the kernel's zeros."""
    rng = random.Random(f"{SEED}-exact-{method.value}")
    for _ in range(DRAWS):
        params, coalition = draw(rng)
        columns = [[Fraction(n)] for n in coalition.sizes()]
        mu_e, sigma_sq = ([Fraction(v)] for v in params)
        errors = _errors(columns, method, mu_e, sigma_sq, coalition.ids())
        for j, (e,) in enumerate(errors):
            exact = exact_error(method, params, coalition, j)
            assert type(e) is Fraction and e == exact, (params, coalition, j)


UNIFORM = FederationMethod.UNIFORM
THRESHOLD_DRAWS = 2000


def rational(rng: random.Random, top: int, below: int) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, below))


def rational_rest(rng: random.Random) -> tuple[list[Fraction], Fraction, Fraction]:
    """1 to 5 rational sizes on [1/4, 200], mu_e on [1/20, 500] and
    sigma_sq on [1/20, 100]: over 90% of the thresholds come out finite."""
    sizes = [rational(rng, 200, 4) for _ in range(rng.randint(1, 5))]
    return sizes, rational(rng, 500, 20), rational(rng, 100, 20)


def joined(sizes, n_l, mu_e, sigma_sq) -> tuple[PopulationParams, Coalition]:
    """``rest`` (ids r0, r1, ...) with a newcomer x of size ``n_l``, which
    sorts last, in exact rationals."""
    players = [Player(f"r{i}", n) for i, n in enumerate(sizes)] + [Player("x", n_l)]
    return PopulationParams(mu_e, sigma_sq), Coalition(players)


def test_newcomer_meets_its_local_error_at_the_defection_threshold():
    """At n_l = the defection threshold of ``rest``, the newcomer's exact
    uniform error equals its local error mu_e / n_l: the threshold is where
    it starts weakly preferring local learning."""
    rng = random.Random(f"{SEED}-defection")
    held = 0
    for _ in range(THRESHOLD_DRAWS):
        sizes, mu_e, sigma_sq = rational_rest(rng)
        ids = [f"r{i}" for i in range(len(sizes))]
        ((n_l,),) = _thresholds([[n] for n in sizes], [None], [mu_e], [sigma_sq], ids)
        if n_l == math.inf:
            continue
        params, coalition = joined(sizes, n_l, mu_e, sigma_sq)
        assert exact_error(UNIFORM, params, coalition, len(sizes)) == mu_e / n_l
        held += 1
    assert held > THRESHOLD_DRAWS // 10


def test_pair_is_exactly_proportional_at_the_subproportionality_threshold():
    """At n_l = the subproportionality threshold of ``rest`` against s,
    n_s * err_s equals n_l * err_l exactly in the joined coalition.  A
    finite threshold is positive: its numerator is at least mu_e T / n_s,
    since n_s + T^2/n_s >= 2T."""
    rng = random.Random(f"{SEED}-subproportionality")
    held = 0
    for _ in range(THRESHOLD_DRAWS):
        sizes, mu_e, sigma_sq = rational_rest(rng)
        s = rng.randrange(len(sizes))
        ids = [f"r{i}" for i in range(len(sizes))]
        ((n_l,),) = _thresholds([[n] for n in sizes], [s], [mu_e], [sigma_sq], ids)
        if n_l == math.inf:
            continue
        params, coalition = joined(sizes, n_l, mu_e, sigma_sq)
        err_s = exact_error(UNIFORM, params, coalition, s)
        err_l = exact_error(UNIFORM, params, coalition, len(sizes))
        assert sizes[s] * err_s == n_l * err_l
        held += 1
    assert held > THRESHOLD_DRAWS // 10


def test_singleton_thresholds_are_one_formula():
    """For rest = {s}, T = n_s and S = n_s^2, so both thresholds are
    mu_e / (2 sigma_sq - mu_e/n_s), and inf where n_s <= mu_e / (2 sigma_sq):

        defection denominator:      sigma_sq n_s^2/n_s^2 + sigma_sq - mu_e/n_s
        subproportionality numer:   -2 sigma_sq n_s + mu_e + (sigma_sq/n_s) 2 n_s^2

    The first is 2 sigma_sq - mu_e/n_s, the second's denominator; the
    second is mu_e, the first's numerator.  ``verify_propstab`` relies on
    this and evaluates no singleton.  Every tenth draw puts n_s exactly
    on mu_e / (2 sigma_sq), where both denominators are 0.
    """
    rng = random.Random(f"{SEED}-singleton")
    n_s, mu_e, sigma_sq = [], [], []
    for draw_index in range(3 * THRESHOLD_DRAWS):
        mu, sigma = rational(rng, 500, 20), rational(rng, 100, 20)
        n_s.append(mu / (2 * sigma) if draw_index % 10 == 0 else rational(rng, 200, 4))
        mu_e.append(mu)
        sigma_sq.append(sigma)
    defect, violate = _thresholds([n_s], (None, 0), mu_e, sigma_sq, ("s",))
    assert defect == violate
    denoms = [2 * sigma - mu / n for n, mu, sigma in zip(n_s, mu_e, sigma_sq)]
    assert defect == [
        mu / d if d > 0 else math.inf for mu, d in zip(mu_e, denoms)
    ]
    finite = sum(type(d) is Fraction for d in defect)
    assert min(finite, len(defect) - finite) > len(defect) // 10


def test_uniform_ratio_meets_the_bound_exactly_at_an_empty_small_player():
    """The 2c+1 bound is tight under uniform federation: with n_s = 0 the
    pooled estimate is l's own, so e_l = mu_e/n_l and e_s = mu_e/n_l +
    2 sigma_sq, whose ratio is 1 + 2 n_l sigma_sq/mu_e = 2c+1 exactly, as
    ``_bounds`` gives it.  Property 5 probes this limit only at a tiny
    positive n_s, within the tolerance band."""
    rng = random.Random(f"{SEED}-tight")
    for _ in range(200):
        n_l = [rational(rng, 200, 4)]
        mu_e, sigma_sq = [rational(rng, 500, 20)], [rational(rng, 100, 20)]
        (e_l,), (e_s,) = _errors([n_l, [Fraction(0)]], UNIFORM, mu_e, sigma_sq, "ls")
        _, (bound,) = _bounds(n_l, mu_e, sigma_sq)
        assert type(e_s / e_l) is Fraction and e_s / e_l == bound


# Past the float range: math.isfinite of this raises OverflowError.
HUGE = Fraction(10**400)


@pytest.mark.parametrize(
    "method, want",
    [
        (FederationMethod.LOCAL, (Fraction(5, 3), Fraction(1, 3))),
        (FederationMethod.UNIFORM, (Fraction(5, 3), Fraction(1, 3))),
        (FederationMethod.FINE_GRAINED, (Fraction(35, 36), Fraction(11, 36))),
    ],
    ids=["local", "uniform", "fine_grained"],
)
def test_kernel_is_exact_past_the_float_range(method, want):
    """Errors are linear in (mu_e, sigma_sq): the (6, 30) errors at
    mu_e = 10, sigma_sq = 1, each times 10**400.  Float inputs whose errors
    overflow still raise ``OutOfFloatRange`` (tests/test_errors.py)."""
    columns = [[Fraction(6)], [Fraction(30)]]
    errors = _errors(columns, method, [10 * HUGE], [HUGE], ("s", "l"))
    assert errors == [[w * HUGE] for w in want]
    assert {type(e) for e, in errors} == {Fraction}


def test_thresholds_and_bounds_are_exact_past_the_float_range():
    """rest = (6, 6) at mu_e = 10, sigma_sq = 1 has thresholds 15 and 96
    against either member; sizes and mu_e scaled by 10**400 scale both.
    c = n_max sigma_sq / mu_e is linear in n_max."""
    rest, one = [[6 * HUGE], [6 * HUGE]], [Fraction(1)]
    thresholds = _thresholds(rest, (None, 0, 1), [10 * HUGE], one, ("a", "b"))
    assert thresholds == [[15 * HUGE], [96 * HUGE], [96 * HUGE]]
    assert _bounds([HUGE], [Fraction(10)], one) == ([HUGE / 10], [HUGE / 5 + 1])


def test_exact_batch_with_zero_n_raises_zero_division():
    """n = 0 divides by zero on ``Fraction`` columns as it does on floats:
    no column function guards against it, and every public caller rejects
    n = 0 before it gets there."""
    local = FederationMethod.LOCAL
    with pytest.raises(ZeroDivisionError):
        _errors([[Fraction(0)]], local, [HUGE], [Fraction(1)], "a")
    with pytest.raises(ZeroDivisionError):
        _errors([[0.0]], local, [1.0], [1.0], "a")


WHOLE_RANGE_DRAWS = 300


def magnitude(rng: random.Random, band: bool) -> float:
    """Log-uniform over the band [2^-128, 2^128), or over every positive
    float from the least subnormal up."""
    low, high = (-128, 127) if band else (-1074, 1023)
    return math.ldexp(rng.uniform(1, 2), rng.randint(low, high))


def whole_range_draw(rng: random.Random) -> tuple[PopulationParams, Coalition]:
    """1 to 6 players; three draws in ten keep every magnitude in the band.
    mu_e and sigma_sq are 0 one time in ten each, and a size of 1 or more
    is an int one time in three."""
    band = rng.random() < 0.3
    mu_e, sigma_sq = (
        0.0 if rng.random() < 0.1 else magnitude(rng, band) for _ in range(2)
    )
    sizes = [magnitude(rng, band) for _ in range(rng.randint(1, 6))]
    sizes = [int(n) if n >= 1 and rng.random() < 1 / 3 else n for n in sizes]
    players = [Player(f"p{i}", n) for i, n in enumerate(sizes)]
    return PopulationParams(mu_e, sigma_sq), Coalition(players)


def in_band(*values: float) -> bool:
    return all(v == 0 or BAND_LOW <= abs(v) <= BAND_HIGH for v in values)


def overflows(exact: Fraction) -> bool:
    try:
        float(exact)
    except OverflowError:
        return True
    return False


def assert_follows_the_rule(call, exact, band, bounded=True, others=()):
    """``call()`` against the exact value: in the band, finite and within
    ``ULP_BOUND`` (``bounded``) or at least not NaN; outside it, the
    correctly rounded exact value, or ``OutOfFloatRange`` exactly when that
    value or one of ``others``, which the same call evaluates, overflows.
    Only a threshold's exact value is inf."""
    rejected = any(map(overflows, (exact, *others)))
    try:
        got = call()
    except OutOfFloatRange:
        assert rejected and not (band and bounded), float(exact)
        return
    assert not rejected, exact
    if band:
        assert not math.isnan(got)
        if bounded:
            assert math.isfinite(got) and ulps(got, exact) <= ULP_BOUND, (got, exact)
    else:
        assert got == float(exact), (got, exact)
        assert math.isfinite(got) or exact == math.inf


def exact_thresholds(params, rest, s):
    """The defection threshold of ``rest`` and its subproportionality
    threshold against member s, restated in exact rationals (the module
    docstring of ``fedfair.proportionality``)."""
    mu_e, sigma_sq = Fraction(params.mu_e), Fraction(params.sigma_sq)
    ns = [Fraction(n) for n in rest.sizes()]
    total, sum_sq, n_s = sum(ns), sum(n * n for n in ns), ns[s]
    defect = (mu_e, sigma_sq * sum_sq / total**2 + sigma_sq - mu_e / total)
    violate = (
        -2 * sigma_sq * total + mu_e / n_s * total + sigma_sq / n_s * (sum_sq + total**2),
        2 * sigma_sq - mu_e / n_s,
    )
    return [q / d if d > 0 else math.inf for q, d in (defect, violate)]


def test_whole_float_range_is_exact_or_rejected():
    """The float-range rule over the whole float range, 0 and subnormals
    included: every error, fine-grained weight, threshold and 2c+1 of an
    out-of-band instance is its correctly rounded exact value, or raises
    ``OutOfFloatRange`` exactly when that value overflows; in the band,
    errors, weights and bounds stay within ``ULP_BOUND`` of exact."""
    rng = random.Random(f"{SEED}-whole-range")
    for _ in range(WHOLE_RANGE_DRAWS):
        params, coalition = whole_range_draw(rng)
        ids, sizes = coalition.ids(), coalition.sizes()
        j = rng.randrange(len(ids))
        band = in_band(*params, *sizes)
        for method in FederationMethod:
            if method is FederationMethod.FINE_GRAINED and not any(params):
                with pytest.raises(DegenerateParams):
                    expected_error(coalition, ids[j], method, params)
                continue
            exact = [exact_error(method, params, coalition, i) for i in range(len(ids))]
            call = partial(expected_error, coalition, ids[j], method, params)
            assert_follows_the_rule(call, exact[j], band, others=exact)
        if any(params):
            weights = fine_grained_weights(coalition, ids[j], params)
            exact = exact_weights(FederationMethod.FINE_GRAINED, params, coalition, j)
            for pid, w in zip(ids, exact):
                assert_follows_the_rule(lambda: weights[pid], w, band)
        defect, violate = exact_thresholds(params, coalition, j)
        call = partial(defection_threshold, coalition, params)
        assert_follows_the_rule(call, defect, band, bounded=False)
        call = partial(subproportionality_threshold, coalition, ids[j], params)
        assert_follows_the_rule(call, violate, band, bounded=False)
        n_max = max(sizes)
        if all(params):
            mu_e, sigma_sq = (Fraction(v) for v in params)
            c = Fraction(n_max) * sigma_sq / mu_e
            bound = in_band(n_max, *params)
            call = partial(egalitarian_bound, n_max, params)
            assert_follows_the_rule(lambda: call()[1], 2 * c + 1, bound)
            assert_follows_the_rule(lambda: call()[0], c, bound, others=[2 * c + 1])
