"""The closed forms against an exact rational evaluation at realistic ranges.

Every float is a rational number, so ``fractions.Fraction`` evaluates the
local, uniform and fine-grained errors of a drawn instance with no
rounding at all.  The exact fine-grained error is taken from the general
weighted-error formula at the exact optimal weights, not from the
kernel's shortcut, so the two share no arithmetic.

Draws are log-uniform: 1 to 6 players with n on [1e-3, 1e12], and mu_e and
sigma_sq on [1e-12, 1e12], with sigma_sq = 0 in 5% of draws.  Every
evaluation must return a finite float within ``ULP_BOUND`` units in the
last place of the exact value.  The whole float range is not covered:
there, products of tiny and huge values round through subnormals and
the kernel can land far from the exact value.
"""

import math
import random
from fractions import Fraction

import pytest

from fedfair import (
    Coalition,
    FederationMethod,
    PopulationParams,
    expected_error,
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


def exact_error(method, params, coalition, j):
    """Member j's error in exact rationals, from its weights v:
    mu_e sum_i v_i^2 / n_i + sigma_sq (sum_{i!=j} v_i^2 + (sum_{i!=j} v_i)^2)."""
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
