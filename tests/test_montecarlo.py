"""Simulation oracle: agreement with the closed forms, determinism, and
spec validation."""

import math
import tracemalloc

import numpy as np
import pytest

from fedfair import (
    Coalition,
    FederationMethod,
    MeanDistribution,
    Player,
    PopulationParams,
    SimulationSpec,
    WeightVector,
    default_suite,
    fine_grained_error,
    simulate_error,
    simulate_suite,
    uniform_error,
)
from fedfair import montecarlo
from fedfair.exceptions import InvalidNoiseList, TargetNotInCoalition

PARAMS = PopulationParams(mu_e=10.0, sigma_sq=1.0)
PAIR = Coalition((Player("s", 6.0), Player("l", 20.0)))
TRIALS = 60_000


def spec(**kwargs) -> SimulationSpec:
    base = dict(
        coalition=PAIR,
        target="s",
        params=PARAMS,
        method=FederationMethod.UNIFORM,
        trials=TRIALS,
        seed=1234,
    )
    base.update(kwargs)
    return SimulationSpec(**base)


class TestAgreementWithClosedForms:
    def test_motivating_uniform_small_player(self):
        result = simulate_error(spec())
        assert math.isclose(result.closed_form, 1060 / 676)
        assert abs(result.z_score) <= 4.0

    def test_singleton_local(self):
        """A 10-sample mean under noise 10 has variance 1."""
        coalition = Coalition((Player("x", 10.0),))
        result = simulate_error(
            spec(coalition=coalition, target="x", method=FederationMethod.LOCAL)
        )
        assert result.closed_form == 1.0
        assert abs(result.z_score) <= 4.0

    def test_zero_bias_pool(self):
        """With a shared true mean the pooled mean of 8 draws has error mu_e/8."""
        coalition = Coalition.from_sizes([4, 4])
        result = simulate_error(
            spec(
                coalition=coalition,
                target="p1",
                params=PopulationParams(8.0, 0.0),
            )
        )
        assert result.closed_form == 1.0
        assert abs(result.z_score) <= 4.0

    def test_fine_grained_matches_optimal_closed_form(self):
        result = simulate_error(
            spec(target="l", method=FederationMethod.FINE_GRAINED)
        )
        assert math.isclose(result.closed_form, 0.44)
        assert math.isclose(
            result.closed_form, fine_grained_error(PAIR, "l", PARAMS)
        )
        assert abs(result.z_score) <= 4.0

    def test_both_mean_distributions_match_the_same_closed_form(self):
        """The expected error depends on the mean distribution only through
        its variance."""
        gauss = simulate_error(spec(mean_distribution=MeanDistribution.GAUSSIAN))
        flat = simulate_error(spec(mean_distribution=MeanDistribution.UNIFORM))
        assert gauss.closed_form == flat.closed_form
        assert abs(gauss.z_score) <= 4.0
        assert abs(flat.z_score) <= 4.0

    def test_heterogeneous_noise_with_matching_average(self):
        """Noise variances drawn from {5, 15} (mean 10) leave the expected
        error at the mu_e = 10 closed form."""
        result = simulate_error(spec(noise_variances=(5.0, 15.0)))
        assert result.closed_form == 1060 / 676
        assert abs(result.z_score) <= 4.0

    def test_non_integer_samples_accepted(self):
        """n is a positive real, as in the closed forms: the local mean is
        drawn as N(0, v/n), which needs no integer n."""
        coalition = Coalition((Player("s", 6.5), Player("l", 20.25)))
        result = simulate_error(spec(coalition=coalition))
        assert result.closed_form == uniform_error(coalition, "s", PARAMS)
        assert abs(result.z_score) <= 4.0

    def test_zero_noise_local_is_exact(self):
        coalition = Coalition.from_sizes([10, 10])
        result = simulate_error(
            spec(
                coalition=coalition,
                target="p1",
                params=PopulationParams(0.0, 1.0),
                method=FederationMethod.LOCAL,
            )
        )
        assert result.empirical_mse == 0.0
        assert result.standard_error == 0.0
        assert result.z_score == 0.0


def per_sample_reference(spec: SimulationSpec, seed: int) -> tuple[float, float]:
    """Mean and standard error of the squared error, drawn the literal way:
    n individual noisy samples per player, then their average."""
    rng = np.random.default_rng(seed)
    ordered = spec.coalition.ordered()
    players = len(ordered)
    target_idx = [p.id for p in ordered].index(spec.target)
    size = spec.trials
    if spec.mean_distribution is MeanDistribution.GAUSSIAN:
        means = rng.standard_normal((size, players)) * math.sqrt(spec.params.sigma_sq)
    else:
        half = math.sqrt(3.0 * spec.params.sigma_sq)
        means = rng.uniform(-half, half, size=(size, players))
    if spec.noise_variances is None:
        variances = np.full((size, players), spec.params.mu_e)
    else:
        variances = rng.choice(np.array(spec.noise_variances), size=(size, players))
    estimates = np.empty((size, players))
    for idx, player in enumerate(ordered):
        samples = rng.standard_normal((size, int(player.n)))
        samples *= np.sqrt(variances[:, idx : idx + 1])
        estimates[:, idx] = (means[:, idx : idx + 1] + samples).mean(axis=1)
    squared = (estimates @ spec.resolved_weights() - means[:, target_idx]) ** 2
    return float(squared.mean()), float(squared.std(ddof=1) / math.sqrt(size))


class TestPerSampleReference:
    """The oracle draws each local mean as one normal.  It must agree in
    distribution with averaging n individually drawn samples."""

    SMALL = Coalition((Player("a", 3.0), Player("b", 7.0)))

    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"mean_distribution": MeanDistribution.UNIFORM},
            {"noise_variances": (2.0, 18.0)},
        ],
        ids=["gaussian-means", "uniform-means", "noise-variances"],
    )
    def test_agrees_with_literal_draw(self, options):
        case = spec(coalition=self.SMALL, target="a", trials=20_000, **options)
        oracle = simulate_error(case)
        ref_mean, ref_error = per_sample_reference(case, seed=2024)
        z = (oracle.empirical_mse - ref_mean) / math.hypot(
            oracle.standard_error, ref_error
        )
        assert abs(z) <= 4.0, (oracle.empirical_mse, ref_mean, z)


class TestMemory:
    def test_chunk_memory_does_not_grow_with_sample_count(self):
        """Drawing n samples per player would allocate trials * n * 8 bytes
        (164 MB here); drawing the mean directly needs well under 8 MB."""
        case = spec(
            coalition=Coalition((Player("x", 5000.0),)),
            target="x",
            method=FederationMethod.LOCAL,
            trials=4096,
        )
        tracemalloc.start()
        try:
            result = simulate_error(case)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(result.z_score) <= 4.0
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_memory_does_not_grow_with_chunk_count(self, monkeypatch):
        """Only one chunk per thread is in flight, so 2,000 chunks cost no
        more memory than a few; seeding and submitting every chunk up front
        would hold about 2 KB per chunk."""
        monkeypatch.setattr(montecarlo, "CHUNK_TRIALS", 2)
        simulate_error(spec(trials=4), threads=2)  # first-call allocations
        tracemalloc.start()
        try:
            result = simulate_error(spec(trials=4000), threads=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.trials == 4000
        assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = simulate_error(spec())
        b = simulate_error(spec())
        assert a.empirical_mse == b.empirical_mse
        assert a.standard_error == b.standard_error

    def test_different_seed_differs(self):
        a = simulate_error(spec())
        b = simulate_error(spec(seed=4321))
        assert a.empirical_mse != b.empirical_mse

    def test_thread_count_does_not_change_bits(self):
        serial = simulate_error(spec(trials=200_000))
        for threads in (2, 4):
            threaded = simulate_error(spec(trials=200_000), threads=threads)
            assert threaded.empirical_mse == serial.empirical_mse
            assert threaded.standard_error == serial.standard_error

    def test_explicit_uniform_weights_reproduce_method_exactly(self):
        """Same seed, same draws: spelling the uniform weights out changes
        nothing, bit for bit."""
        total = PAIR.total
        explicit = WeightVector("s", {"s": 6.0 / total, "l": 20.0 / total})
        by_method = simulate_error(spec())
        by_weights = simulate_error(spec(method=None, weights=explicit))
        assert by_method.empirical_mse == by_weights.empirical_mse
        assert by_method.standard_error == by_weights.standard_error

    def test_explicit_optimal_weights_reproduce_fine_grained_exactly(self):
        from fedfair import fine_grained_weights

        explicit = fine_grained_weights(PAIR, "l", PARAMS)
        by_method = simulate_error(spec(target="l", method=FederationMethod.FINE_GRAINED))
        by_weights = simulate_error(spec(target="l", method=None, weights=explicit))
        assert by_method.empirical_mse == by_weights.empirical_mse
        assert math.isclose(by_weights.closed_form, 0.44)


def skew_closed_form(monkeypatch, target: str | None = None) -> None:
    """Make the analytic reference 10% too high (for ``target`` only, when
    given), so the library's z and the suite's verdicts see a wrong value."""
    honest = SimulationSpec.analytic_error

    def skewed(self: SimulationSpec) -> float:
        value = honest(self)
        return value * 1.1 if target in (None, self.target) else value

    monkeypatch.setattr(SimulationSpec, "analytic_error", skewed)


class TestCalibration:
    def test_wrong_closed_form_is_flagged(self, monkeypatch):
        honest = simulate_error(spec())
        skew_closed_form(monkeypatch)
        skewed = simulate_error(spec())
        assert skewed.closed_form == honest.closed_form * 1.1
        assert abs(honest.z_score) <= 4.0
        assert abs(skewed.z_score) > 4.0

    def test_suite_fails_on_injected_closed_form(self, monkeypatch):
        specs = [spec(), spec(target="l")]
        clean = simulate_suite(specs)
        assert clean.passed
        skew_closed_form(monkeypatch, target="l")
        rigged = simulate_suite(specs)
        assert not rigged.passed
        assert rigged.entries[0].passed and not rigged.entries[1].passed


class TestSpecValidation:
    def test_noise_list_length_must_match(self):
        with pytest.raises(InvalidNoiseList):
            spec(noise_variances=(5.0, 10.0, 15.0))

    def test_noise_list_average_must_be_mu_e(self):
        with pytest.raises(InvalidNoiseList):
            spec(noise_variances=(5.0, 14.0))

    def test_trials_lower_bound(self):
        with pytest.raises(ValueError):
            spec(trials=1)

    def test_method_weights_exclusivity(self):
        weights = WeightVector("s", {"s": 0.5, "l": 0.5})
        with pytest.raises(ValueError):
            spec(weights=weights)  # method also set
        with pytest.raises(ValueError):
            spec(method=None)  # neither set

    def test_target_must_be_member(self):
        with pytest.raises(TargetNotInCoalition):
            spec(target="ghost")

    def test_seed_range(self):
        with pytest.raises(ValueError):
            spec(seed=-1)
        with pytest.raises(ValueError):
            spec(seed=2**64)


class TestDefaultSuite:
    def test_composition(self):
        specs = default_suite(trials=1000)
        labels = [s.label for s in specs]
        assert len(labels) == len(set(labels))
        methods = {s.method for s in specs}
        assert methods == set(FederationMethod)
        assert any(s.params.sigma_sq == 0.0 for s in specs)
        assert any(s.params.mu_e == 0.0 for s in specs)
        assert any(
            s.mean_distribution is MeanDistribution.UNIFORM for s in specs
        )
        assert all(s.trials == 1000 for s in specs)

    def test_seeds_are_distinct(self):
        specs = default_suite(trials=1000)
        seeds = [s.seed for s in specs]
        assert len(seeds) == len(set(seeds))

    def test_small_run_passes(self):
        result = simulate_suite(default_suite(trials=20_000), threads=2)
        assert result.passed, [
            (e.label, e.result.z_score) for e in result.entries if not e.passed
        ]
