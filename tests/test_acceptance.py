"""Acceptance gate: the eight go/no-go criteria, each at its stated
tolerance and runtime budget, printing one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import contextlib
import io
import math
import operator
import time
from fractions import Fraction

import numpy as np

from fedfair import (
    Coalition,
    FederationMethod,
    Player,
    PopulationParams,
    bound_sweep,
    check_modularity,
    default_suite,
    fine_grained_error,
    fine_grained_weights,
    individually_rational,
    inverse_size_error,
    local_error,
    simulate_suite,
    tightness_search,
    uniform_error,
    verify_propstab,
    weighted_error,
)
from fedfair.cli import CELL_REL_TOL, REFERENCE_MOTIVATING, main
from fedfair.proportionality import _thresholds
from fedfair.sampling import instance_groups, instance_rng, random_instance

PARAMS = PopulationParams(mu_e=10.0, sigma_sq=1.0)


def _report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_table_reproduction():
    """All 15 motivating-table cells at 3-significant-figure precision."""
    start = time.perf_counter()
    cells_ok = True
    for n_l, reference in REFERENCE_MOTIVATING.items():
        coalition = Coalition((Player("s", 6.0), Player("l", float(n_l))))
        err_s = uniform_error(coalition, "s", PARAMS)
        err_l = uniform_error(coalition, "l", PARAMS)
        computed = (err_s, err_l, err_s / err_l, 2.0 * n_l / 10.0 + 1.0, n_l / 6.0)
        for got, want in zip(computed, reference):
            cells_ok = cells_ok and abs(got - want) <= CELL_REL_TOL * abs(want)
    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = main(["--format", "csv", "reproduce", "motivating"])
    elapsed = time.perf_counter() - start
    passed = cells_ok and exit_code == 0 and elapsed < 1.0
    _report(
        1,
        passed,
        f"15/15 cells match the published table at 3 s.f., "
        f"reproduce exit={exit_code} ({elapsed:.2f}s)",
    )


def test_criterion_2_local_vs_federated_boundary():
    """n_l=40: local strictly beats federating and IR fails; n_l=30 ties."""
    start = time.perf_counter()
    wide = Coalition((Player("s", 6.0), Player("l", 40.0)))
    local_40 = local_error(Player("l", 40.0), PARAMS)
    federated_40 = uniform_error(wide, "l", PARAMS)
    strictly_better = local_40 == 0.25 and local_40 < federated_40
    not_rational = not individually_rational(
        wide, FederationMethod.UNIFORM, PARAMS
    ).individually_rational

    boundary = Coalition((Player("s", 6.0), Player("l", 30.0)))
    local_30 = local_error(Player("l", 30.0), PARAMS)
    federated_30 = uniform_error(boundary, "l", PARAMS)
    ties = math.isclose(local_30, federated_30, rel_tol=1e-9)
    elapsed = time.perf_counter() - start
    passed = strictly_better and not_rational and ties and elapsed < 1.0
    _report(
        2,
        passed,
        f"local 0.25 < federated {federated_40:.6f}, IR=False at n_l=40; "
        f"equal within 1e-9 at n_l=30 ({elapsed:.2f}s)",
    )


def test_criterion_3_egalitarian_bound_sweep():
    """10,000 instances, both methods: no worst ratio above 2c+1 by
    ``compare``, which ties values within a relative 1e-9."""
    start = time.perf_counter()
    result = bound_sweep(instance_count=10_000, seed=42)
    elapsed = time.perf_counter() - start
    passed = result.passed and result.checks == 20_000 and elapsed < 10.0
    _report(
        3,
        passed,
        f"{result.checks} checks, {len(result.violations)} violations, "
        f"max ratio/bound {result.max_quotient:.4f} ({elapsed:.2f}s)",
    )


def test_criterion_4_tightness():
    """The doubling construction lands within epsilon of 2c+1."""
    start = time.perf_counter()
    at_c2 = tightness_search(c=2.0, epsilon=0.01)
    at_c4 = tightness_search(c=4.0, epsilon=0.1)
    elapsed = time.perf_counter() - start
    passed = (
        4.99 <= at_c2.ratio <= 5.0
        and 8.9 <= at_c4.ratio <= 9.0
        and elapsed < 1.0
    )
    _report(
        4,
        passed,
        f"c=2: ratio {at_c2.ratio:.4f} in [4.99, 5]; "
        f"c=4: ratio {at_c4.ratio:.4f} in [8.9, 9] ({elapsed:.2f}s)",
    )


def test_criterion_5_modularity():
    """Five properties hold for both honest methods; the inverse-size
    weighting is caught on property 1 with a concrete counterexample."""
    start = time.perf_counter()
    uniform = check_modularity(FederationMethod.UNIFORM)
    fine = check_modularity(FederationMethod.FINE_GRAINED)
    adversarial = check_modularity(inverse_size_error)
    elapsed = time.perf_counter() - start
    caught = (
        not adversarial.result(1).passed
        and adversarial.result(1).counterexample is not None
    )
    passed = uniform.all_passed and fine.all_passed and caught and elapsed < 10.0
    _report(
        5,
        passed,
        f"uniform 5/5, fine-grained 5/5, inverse-size weighting fails P1 "
        f"with counterexample ({elapsed:.2f}s)",
    )


def test_criterion_6_rationality_implies_subproportionality():
    """10,000 instances: no IR-but-super coalitions; threshold ordering
    holds with equality exactly on singletons.  ``verify_propstab`` checks
    the coalitions; the singleton equality is checked here, once, exactly:
    both thresholds of each member's rest = {s} of the same seed-42
    instances, on ``Fraction`` columns of each block, must be equal."""
    start = time.perf_counter()
    result = verify_propstab(instance_count=10_000, seed=42)
    singletons = equal = 0
    for _, *values in instance_groups(10_000, 42):
        mu_e, sigma_sq, *columns = ([Fraction(v) for v in c] for c in values)
        for n in columns:
            defect, violate = _thresholds([n], (None, 0), mu_e, sigma_sq, ("s",))
            singletons += len(n)
            equal += sum(map(operator.eq, defect, violate))
    elapsed = time.perf_counter() - start
    passed = result.passed and equal == singletons and elapsed < 10.0
    _report(
        6,
        passed,
        f"{result.instances} instances, "
        f"{len(result.counterexamples)} counterexamples, "
        f"{equal}/{singletons} singleton thresholds exactly equal ({elapsed:.2f}s)",
    )


def test_criterion_7_fine_grained_consistency():
    """1,000 instances: closed form vs general formula to 1e-9 relative,
    dominance within 1e-12, perturbations never beat the optimum."""
    start = time.perf_counter()
    rng = np.random.default_rng(777)  # perturbation directions only
    consistent = dominant = optimal = True
    for index in range(1_000):
        params, coalition = random_instance(instance_rng(777, index))
        ids = [p.id for p in coalition.ordered()]
        for p in coalition.players:
            direct = fine_grained_error(coalition, p.id, params)
            weights = fine_grained_weights(coalition, p.id, params)
            via = weighted_error(coalition, p.id, weights, params)
            consistent = consistent and math.isclose(
                direct, via, rel_tol=1e-9, abs_tol=1e-12
            )
            dominant = dominant and direct <= local_error(p, params) + 1e-12
            dominant = (
                dominant
                and direct <= uniform_error(coalition, p.id, params) + 1e-12
            )
        target = coalition.players[0]
        weights = fine_grained_weights(coalition, target.id, params)
        base = weighted_error(coalition, target.id, weights, params)
        vec = np.array([weights[i] for i in ids])
        for _ in range(3):
            direction = rng.normal(size=len(ids))
            direction -= direction.mean()
            norm = float(np.linalg.norm(direction))
            if norm == 0.0:
                continue
            magnitude = 10.0 ** rng.uniform(-3, -1)
            perturbed = dict(zip(ids, vec + direction * (magnitude / norm)))
            optimal = optimal and (
                weighted_error(coalition, target.id, perturbed, params) >= base - 1e-12
            )
    elapsed = time.perf_counter() - start
    passed = consistent and dominant and optimal and elapsed < 5.0
    _report(
        7,
        passed,
        f"1000 instances: consistency={consistent}, dominance={dominant}, "
        f"optimality={optimal} ({elapsed:.2f}s)",
    )


def test_criterion_8_monte_carlo_oracle():
    """Default suite at 1e6 trials: every |z| <= 4, and the results are
    bit-identical across thread counts."""
    start = time.perf_counter()
    suite = default_suite(trials=1_000_000)
    serial = simulate_suite(suite, z_threshold=4.0, threads=1)
    threaded = simulate_suite(suite, z_threshold=4.0, threads=4)
    identical = all(
        a.result.empirical_mse == b.result.empirical_mse
        and a.result.standard_error == b.result.standard_error
        for a, b in zip(serial.entries, threaded.entries)
    )
    elapsed = time.perf_counter() - start
    passed = serial.passed and threaded.passed and identical and elapsed < 60.0
    _report(
        8,
        passed,
        f"{len(suite)} specs x 1e6 trials, max|z|={serial.max_abs_z:.2f}, "
        f"bit-identical at 1 and 4 threads ({elapsed:.1f}s)",
    )
