"""Metamorphic properties of the closed forms: how errors and verdicts must
respond to rescaling the constants, rescaling samples with noise,
renaming or reordering players, and shrinking a coalition to one member.

Scale factors are powers of two, so every relation that holds in exact
arithmetic also holds bit for bit in floating point.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from fedfair import (
    Coalition,
    FederationMethod,
    Player,
    PopulationParams,
    audit_egalitarian,
    classify_proportionality,
    expected_error,
    individually_rational,
    local_error,
    uniform_error,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=120)

sizes = st.lists(st.floats(1.0, 1000.0), min_size=1, max_size=6)
constants = st.floats(0.01, 50.0)
powers_of_two = st.integers(-40, 40).map(lambda m: 2.0**m)


def coalition_of(ns, ids=None):
    ids = ids or [f"p{i + 1}" for i in range(len(ns))]
    return Coalition(tuple(Player(pid, n) for pid, n in zip(ids, ns)))


def all_errors(coalition, params):
    return {
        method: {
            p.id: expected_error(coalition, p.id, method, params)
            for p in coalition.players
        }
        for method in FederationMethod
    }


def verdicts(coalition, params):
    out = []
    for method in (FederationMethod.UNIFORM, FederationMethod.FINE_GRAINED):
        audit = audit_egalitarian(coalition, method, params)
        out += [
            classify_proportionality(coalition, method, params).label,
            individually_rational(coalition, method, params).individually_rational,
            audit.max_ratio,
            audit.worst_pair,
            audit.bound,
            audit.satisfied,
        ]
    return out


@SETTINGS
@given(sizes, constants, constants, powers_of_two)
def test_scaling_both_constants_scales_errors_and_keeps_verdicts(ns, mu_e, sigma_sq, k):
    coalition = coalition_of(ns)
    base = PopulationParams(mu_e, sigma_sq)
    scaled = PopulationParams(k * mu_e, k * sigma_sq)
    before, after = all_errors(coalition, base), all_errors(coalition, scaled)
    for method in FederationMethod:
        for pid, err in before[method].items():
            assert after[method][pid] == k * err
    assert verdicts(coalition, scaled) == verdicts(coalition, base)


@SETTINGS
@given(sizes, constants, constants, powers_of_two)
def test_scaling_samples_with_noise_keeps_errors(ns, mu_e, sigma_sq, k):
    before = all_errors(coalition_of(ns), PopulationParams(mu_e, sigma_sq))
    after = all_errors(
        coalition_of([k * n for n in ns]), PopulationParams(k * mu_e, sigma_sq)
    )
    assert after == before


@SETTINGS
@given(
    sizes.flatmap(lambda ns: st.tuples(st.just(ns), st.permutations(range(len(ns))))),
    constants,
    constants,
)
def test_relabelling_and_reordering_permute_errors(ns_and_order, mu_e, sigma_sq):
    ns, order = ns_and_order
    params = PopulationParams(mu_e, sigma_sq)
    original = coalition_of(ns)
    # Player i is renamed to the order[i]-th new id, which changes the
    # id-sorted summation order, and the tuple is listed in a new order.
    renamed = {f"p{i + 1}": f"q{order[i]}" for i in range(len(ns))}
    reordered = Coalition(
        tuple(Player(renamed[p.id], p.n) for p in reversed(original.players))
    )
    before, after = all_errors(original, params), all_errors(reordered, params)
    for method in FederationMethod:
        for pid, err in before[method].items():
            assert math.isclose(after[method][renamed[pid]], err, rel_tol=1e-12)
    # Listing the same players in another order changes nothing at all.
    shuffled = Coalition(tuple(original.players[i] for i in order))
    assert all_errors(shuffled, params) == before


@SETTINGS
@given(sizes, constants, constants)
def test_fine_grained_beats_local_and_uniform(ns, mu_e, sigma_sq):
    coalition = coalition_of(ns)
    params = PopulationParams(mu_e, sigma_sq)
    errors = all_errors(coalition, params)
    for pid, fine in errors[FederationMethod.FINE_GRAINED].items():
        best = min(errors[FederationMethod.LOCAL][pid], errors[FederationMethod.UNIFORM][pid])
        assert fine <= best * (1.0 + 1e-12)


@SETTINGS
@given(st.floats(1e-3, 1e6), constants, constants)
def test_singleton_error_is_local_error(n, mu_e, sigma_sq):
    player = Player("only", n)
    params = PopulationParams(mu_e, sigma_sq)
    errors = all_errors(Coalition((player,)), params)
    local = local_error(player, params)
    assert errors[FederationMethod.LOCAL]["only"] == local
    assert errors[FederationMethod.UNIFORM]["only"] == local
    assert math.isclose(errors[FederationMethod.FINE_GRAINED]["only"], local, rel_tol=1e-15)


def test_leave_one_out_sums_do_not_cancel():
    """The large player's off-diagonal sums are the small player's n and
    n^2 = 1.  Taken as the total minus the own term, 1e18 + 1 - 1e18
    rounds to 0 and the bias term comes out half its size."""
    mu_e, sigma_sq = 1e-10, 1.0
    coalition = coalition_of([1e9, 1.0])
    total = 1e9 + 1.0
    expected = mu_e / total + 2.0 * sigma_sq / (total * total)
    got = uniform_error(coalition, "p1", PopulationParams(mu_e, sigma_sq))
    assert math.isclose(got, expected, rel_tol=1e-12)
