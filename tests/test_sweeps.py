"""The two randomized sweeps against the public per-coalition functions:
the same verdicts and numbers on every instance, the same records when an
instance fails, and pinned summaries at the default size."""

import math
import re
import sys
import tracemalloc

import pytest

import fedfair.egalitarian
import fedfair.proportionality
from fedfair.egalitarian import audit_egalitarian, bound_sweep
from fedfair.model import FederationMethod, compare, describe_instance
from fedfair.proportionality import (
    CoalitionLabel,
    classify_proportionality,
    defection_threshold,
    individually_rational,
    subproportionality_threshold,
    verify_propstab,
)
from fedfair.sampling import instance_rng, random_instance

UNIFORM, FINE = FederationMethod.UNIFORM, FederationMethod.FINE_GRAINED
SEEDS = [0, 42, 2**64 - 1]
INSTANCES = 500


def instance(seed, index):
    return random_instance(instance_rng(seed, index))


def reference_bound_sweep(seed, count):
    """``bound_sweep`` from ``audit_egalitarian`` on each coalition."""
    violations, max_quotient = [], 0.0
    for index in range(count):
        params, coalition = instance(seed, index)
        for method in (UNIFORM, FINE):
            audit = audit_egalitarian(coalition, method, params)
            ratio, bound = audit.max_ratio, audit.bound
            max_quotient = max(max_quotient, ratio / bound)
            if compare(ratio, bound) > 0:
                violations.append(
                    {
                        "index": index,
                        "method": method.value,
                        "max_ratio": ratio,
                        "bound": bound,
                        **describe_instance(params, coalition),
                    }
                )
    return 2 * count, violations, max_quotient


def reference_propstab(seed, count):
    """``verify_propstab`` from the public verdicts and thresholds."""
    found = []
    for index in range(count):
        params, coalition = instance(seed, index)
        record = {"index": index, **describe_instance(params, coalition)}
        if individually_rational(coalition, UNIFORM, params).individually_rational:
            label = classify_proportionality(coalition, UNIFORM, params).label
            if label not in (CoalitionLabel.SUB, CoalitionLabel.EXACT):
                found.append({**record, "kind": "rational_but_super", "label": label.value})
        defect = defection_threshold(coalition, params)
        for p in coalition.players:
            violate = subproportionality_threshold(coalition, p.id, params)
            if math.isinf(violate):
                ordered = True
            elif math.isinf(defect):
                ordered = False
            else:
                ordered = defect <= violate or compare(defect, violate) == 0
            if not ordered:
                found.append({**record, "kind": "threshold_order", "s": p.id,
                              "defection": defect, "subproportionality": violate})
            finite = math.isfinite(defect) and math.isfinite(violate)
            if len(coalition) > 1 and finite and compare(defect, violate) == 0:
                found.append({**record, "kind": "equality_without_singleton",
                              "s": p.id, "threshold": defect})
    return found


@pytest.mark.parametrize("seed", SEEDS)
class TestSweepsMatchPerCoalitionFunctions:
    def test_bound_sweep(self, seed):
        checks, violations, max_quotient = reference_bound_sweep(seed, INSTANCES)
        result = bound_sweep(INSTANCES, seed)
        assert result.checks == checks
        assert list(result.violations) == violations
        assert result.max_quotient.hex() == max_quotient.hex()

    def test_verify_propstab(self, seed):
        result = verify_propstab(INSTANCES, seed)
        assert result.instances == INSTANCES
        assert list(result.counterexamples) == reference_propstab(seed, INSTANCES)

    def test_sizes_are_in_id_order(self, seed):
        """At most six players, so ids p1..pk sort in draw order and the
        coalition's sizes are the draw's sizes in the same order."""
        for index in range(INSTANCES):
            draw = instance_rng(seed, index)
            _, coalition = random_instance(draw)
            k = len(coalition)
            assert coalition.ids() == tuple(f"p{i + 1}" for i in range(k))
            assert coalition.sizes() == tuple(1.0 + 99.0 * u for u in draw[1 : 1 + k])


def fixed_bound(bound):
    """A stand-in for ``egalitarian._bounds`` that puts every 2c+1 at ``bound``."""
    return lambda n_max, mu_e, sigma_sq: ([0.0] * len(n_max), [bound] * len(n_max))


def forced_thresholds(defect=None, violate=None):
    """A stand-in for ``proportionality._thresholds`` that puts every
    defection threshold at ``defect`` and every subproportionality
    threshold at ``violate``; None keeps the real ones."""
    real = fedfair.proportionality._thresholds

    def thresholds(columns, wanted, mu_e, sigma_sq, ids):
        got = real(columns, wanted, mu_e, sigma_sq, ids)
        forced = [defect if s is None else violate for s in wanted]
        return [column if value is None else [value] * len(mu_e)
                for column, value in zip(got, forced)]

    return thresholds


def expected_record(seed, index, **fields):
    """A record as the sweeps document it, built from the public objects."""
    return {"index": index, **describe_instance(*instance(seed, index)), **fields}


def assert_same_records(got, want):
    assert [list(r) for r in got] == [list(r) for r in want]  # key order
    assert [r["players"] for r in got] == [r["players"] for r in want]  # id order
    assert list(got) == want


class TestFailingInstancesGetFullRecords:
    """A failing instance is described from its players, as the public
    builders describe it, even though passing ones build no players."""

    SEED, COUNT = 7, 4

    def test_bound_violation_records(self, monkeypatch):
        monkeypatch.setattr(fedfair.egalitarian, "_bounds", fixed_bound(0.5))
        want = []
        for index in range(self.COUNT):
            params, coalition = instance(self.SEED, index)
            for method in (UNIFORM, FINE):
                ratio = audit_egalitarian(coalition, method, params).max_ratio
                want.append(
                    {
                        "index": index,
                        "method": method.value,
                        "max_ratio": ratio,
                        "bound": 0.5,
                        **describe_instance(params, coalition),
                    }
                )
        result = bound_sweep(self.COUNT, self.SEED)
        assert not result.passed
        assert_same_records(result.violations, want)

    @pytest.mark.parametrize("below, violated", [(1e-12, False), (1e-6, True)])
    def test_audit_and_sweep_share_the_bound_verdict(
        self, monkeypatch, below, violated
    ):
        """A bound 1e-12 relative below the worst ratio ties with it in
        both the audit and the sweep; 1e-6 below, both report it."""
        params, coalition = instance(self.SEED, 0)
        ratios = {m: audit_egalitarian(coalition, m, params).max_ratio
                  for m in (UNIFORM, FINE)}
        method = max(ratios, key=ratios.get)
        bound = ratios[method] * (1 - below)
        monkeypatch.setattr(fedfair.egalitarian, "_bounds", fixed_bound(bound))
        assert audit_egalitarian(coalition, method, params).satisfied is not violated
        flagged = {v["method"] for v in bound_sweep(1, self.SEED).violations}
        assert (method.value in flagged) is violated

    def test_audit_and_sweep_read_one_worst_ratio(self, monkeypatch):
        """Scaling the worst ratio by 100 in ``_worst_ratios`` alone, in
        every module that binds it, moves the audit and the sweep alike:
        here the fine-grained ratio goes to about 1.08 times its bound and
        the uniform one to about 0.97."""
        real = fedfair.egalitarian._worst_ratios
        for name, module in list(sys.modules.items()):
            binding = getattr(module, "_worst_ratios", None)
            if name.startswith("fedfair") and binding is real:
                monkeypatch.setattr(module, "_worst_ratios",
                                    lambda *args: [100 * r for r in real(*args)])
        params, coalition = instance(self.SEED, 0)
        audits = {m.value: audit_egalitarian(coalition, m, params)
                  for m in (UNIFORM, FINE)}
        failed = {name for name, audit in audits.items() if not audit.satisfied}
        assert failed == {FINE.value}
        (violation,) = bound_sweep(1, self.SEED).violations
        assert violation["method"] == FINE.value
        assert violation["max_ratio"] == audits[FINE.value].max_ratio

    def test_threshold_records(self, monkeypatch):
        monkeypatch.setattr(
            fedfair.proportionality, "_thresholds", forced_thresholds(violate=0.0)
        )
        want = []
        for index in range(self.COUNT):
            params, coalition = instance(self.SEED, index)
            defect = defection_threshold(coalition, params)
            for p in coalition.players:
                want.append(
                    expected_record(self.SEED, index, kind="threshold_order", s=p.id,
                                    defection=defect, subproportionality=0.0)
                )
        result = verify_propstab(self.COUNT, self.SEED)
        assert not result.passed
        assert_same_records(result.counterexamples, want)

    @pytest.mark.parametrize(
        "defect, violate, kinds",
        [
            # Defection never happens, yet the pair turns super-proportional:
            # the proof rules this out.
            (math.inf, 1.0, ("threshold_order",)),
            # Finite thresholds equal within tolerance on several players.
            (2.0, 2.0 * (1 + 1e-12), ("equality_without_singleton",)),
            # Neither event happens.
            (math.inf, math.inf, ()),
            # Finite thresholds 1e-7 apart, beyond the relative band: ordered.
            (2.0, 2.0 * (1 + 1e-7), ()),
        ],
    )
    def test_forced_threshold_records(self, monkeypatch, defect, violate, kinds):
        """Every drawn coalition here has four or five players."""
        monkeypatch.setattr(
            fedfair.proportionality, "_thresholds", forced_thresholds(defect, violate)
        )
        fields = {
            "threshold_order": {"defection": defect, "subproportionality": violate},
            "equality_without_singleton": {"threshold": defect},
        }
        want = [
            expected_record(self.SEED, index, kind=kind, s=pid, **fields[kind])
            for index in range(self.COUNT)
            for pid in instance(self.SEED, index)[1].ids()
            for kind in kinds
        ]
        result = verify_propstab(self.COUNT, self.SEED)
        assert result.passed == (not kinds)
        assert_same_records(result.counterexamples, want)

    def test_rational_but_super_record(self, monkeypatch):
        """Only about 1% of instances are rational: find the first one."""

        def rational(index):
            params, coalition = instance(self.SEED, index)
            return individually_rational(coalition, UNIFORM, params).individually_rational

        index = next(i for i in range(10_000) if rational(i))
        labels = fedfair.proportionality._labels

        def super_labels(*args):
            pairs, judged = labels(*args)
            return pairs, [CoalitionLabel.SUPER] * len(judged)

        monkeypatch.setattr(fedfair.proportionality, "_labels", super_labels)
        result = verify_propstab(index + 1, self.SEED)
        want = [expected_record(self.SEED, index, kind="rational_but_super",
                                label="super")]
        assert_same_records(result.counterexamples, want)


@pytest.mark.parametrize("sweep", [bound_sweep, verify_propstab])
@pytest.mark.parametrize("count", [0, -5])
def test_sweep_without_instances_is_rejected(sweep, count):
    """Zero instances would pass with zero checks: a vacuous PASS."""
    with pytest.raises(ValueError, match=re.escape(
            f"instance count must be an integer in [1, 2**64), got {count}")):
        sweep(count)


def test_default_sweep_summaries_are_pinned():
    """Any change to the sweep arithmetic moves these."""
    bound = bound_sweep(10_000, 42)
    assert bound.max_quotient.hex() == "0x1.fcc1df4907fdep-1"  # 0.9936666275643764
    assert bound.checks == 20_000
    assert bound.violations == ()
    assert verify_propstab(10_000, 42).counterexamples == ()


class TestBlocks:
    """The sweeps draw and check their instances in blocks of
    ``BLOCK_SIZE`` = 1,024, grouped by player count, yet report exactly
    what checking each coalition alone in index order reports."""

    SEED = 7

    @pytest.mark.parametrize("count", [1023, 1024, 1025, 2049])
    def test_bound_sweep_across_block_boundaries(self, monkeypatch, count):
        """Every check fails against a bound of 0.5, so every record of
        every block and group must come out, in index then method order."""
        result = bound_sweep(count, self.SEED)
        assert result.max_quotient.hex() == (
            reference_bound_sweep(self.SEED, count)[2].hex()
        )
        monkeypatch.setattr(fedfair.egalitarian, "_bounds", fixed_bound(0.5))
        checks, violations, max_quotient = reference_bound_sweep(self.SEED, count)
        result = bound_sweep(count, self.SEED)
        assert result.checks == checks == 2 * count
        assert_same_records(result.violations, violations)
        assert result.max_quotient.hex() == max_quotient.hex()

    @pytest.mark.parametrize("count", [1023, 1024, 1025, 2049])
    def test_propstab_across_block_boundaries(self, monkeypatch, count):
        """A zero subproportionality threshold fails the order check on
        every member, so records come out in index, then player order."""
        assert verify_propstab(count, self.SEED).counterexamples == ()
        monkeypatch.setattr(
            fedfair.proportionality, "_thresholds", forced_thresholds(violate=0.0)
        )
        want = reference_propstab(self.SEED, count)
        assert len(want) == sum(
            len(instance(self.SEED, index)[1]) for index in range(count)
        )
        assert_same_records(verify_propstab(count, self.SEED).counterexamples, want)


# CPython keeps up to 2,000 freed tuples of each small size for reuse, and
# tracemalloc counts those allocated while it traces, so a sweep's peak
# depends on what ran before it: two 4,096-instance bound_sweeps in one
# process peaked at 0.46 and 0.87 MB.  In this suite the 4,096-instance
# peaks sit 0.24 MB (bound_sweep) and 0.06 MB (verify_propstab) above the
# 1,025-instance ones; holding all 4,096 instances at once adds 1.4 MB.
MEMORY_SLACK = 768 * 1024


@pytest.mark.parametrize("sweep", [bound_sweep, verify_propstab])
def test_sweep_memory_does_not_grow_with_instances(sweep):
    def peak(count):
        tracemalloc.start()
        try:
            sweep(count, 42)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sweep(4096, 1)  # fills the free lists before any tracing
    assert peak(4096) <= peak(1025) + MEMORY_SLACK
