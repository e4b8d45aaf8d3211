"""Simulation oracle: agreement with the closed forms, determinism, and
spec validation."""

import math
import pickle
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import fedfair.errors
from fedfair import (
    Coalition,
    FederationMethod,
    MeanDistribution,
    Player,
    PopulationParams,
    SimulationSpec,
    default_suite,
    fine_grained_error,
    simulate_error,
    simulate_suite,
    uniform_error,
)
from fedfair import montecarlo
from fedfair.errors import _one, _weights
from fedfair.exceptions import (
    InvalidNoiseList,
    OutOfFloatRange,
    TargetNotInCoalition,
)

PARAMS = PopulationParams(mu_e=10.0, sigma_sq=1.0)
PAIR = Coalition((Player("s", 6.0), Player("l", 20.0)))
SIX = Coalition.from_sizes([6, 20, 2.5, 40, 6, 13.75])
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
    weights = _one(_weights, spec.coalition, spec.params, spec.method, [target_idx])
    squared = (estimates @ np.array(weights, dtype=np.float64) - means[:, target_idx]) ** 2
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


class TestSetup:
    @pytest.mark.parametrize("method", list(FederationMethod))
    def test_one_evaluation_each_for_the_closed_forms_and_the_weights(
        self, monkeypatch, method
    ):
        """Every target's closed form comes from one ``_errors`` call and all
        their weights from one ``_weights`` call: two column-function
        evaluations at any player count, where one pair per target made 2k."""
        calls, in_order = [], fedfair.errors.in_order
        monkeypatch.setattr(fedfair.errors, "in_order",
                            lambda *args, **kw: calls.append(args) or in_order(*args, **kw))
        coalition = Coalition.from_sizes([6, 20, 2.5, 40, 6, 13.75])
        montecarlo._simulate([spec(coalition=coalition, target=pid, method=method, trials=16)
                              for pid in coalition.ids()])
        assert len(calls) == 2


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

    def test_chunk_holds_its_means_and_one_noise_block(self):
        """A chunk's buffers are its means (trials x players), one 4,096-row
        noise block, one 4,096-row block of a target's offsets and one
        4,096-row column of errors, allocated once per simulation: 10 MiB
        of means here and about 1.3 MiB besides.
        Whole-chunk noise and estimate arrays would add another 10 MiB or
        more."""
        case = spec(
            coalition=Coalition.from_sizes(range(1, 21)),
            target="p1",
            method=FederationMethod.FINE_GRAINED,
            trials=65_536,
        )
        simulate_error(case._replace(trials=4))  # first-call allocations
        tracemalloc.start()
        try:
            result = simulate_error(case)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(result.z_score) <= 4.0
        means = 65_536 * 20 * 8
        assert peak < means + 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_uniform_means_are_drawn_in_place(self):
        """Uniform means fill the chunk's buffer as Gaussian means do: a
        whole-chunk temporary of the uniforms (10 MiB here) would raise the
        peak far above the Gaussian run's, where one noise block may not."""
        case = spec(
            coalition=Coalition.from_sizes(range(1, 21)),
            target="p1",
            method=FederationMethod.FINE_GRAINED,
            trials=65_536,
        )
        peaks = []
        for means in MeanDistribution:
            drawn = case._replace(mean_distribution=means)
            simulate_error(drawn._replace(trials=4))  # first-call allocations
            tracemalloc.start()
            try:
                simulate_error(drawn)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        gaussian, uniform = peaks
        block = montecarlo.BLOCK_ROWS * 20 * 8
        assert uniform <= gaussian + block, f"{uniform - gaussian} bytes above"

    def test_memory_does_not_grow_with_chunk_count(self, monkeypatch):
        """A simulation holds one chunk at a time, so 2,000 chunks cost no
        more memory than a few; seeding every chunk up front would hold
        about 2 KB per chunk."""
        monkeypatch.setattr(montecarlo, "CHUNK_TRIALS", 2)
        simulate_error(spec(trials=4))  # first-call allocations
        tracemalloc.start()
        try:
            result = simulate_error(spec(trials=4000))
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
        specs = [spec(trials=200_000), spec(trials=200_000, seed=4321)]
        serial = simulate_suite(specs, threads=1)
        for threads in (2, 4):
            assert simulate_suite(specs, threads=threads) == serial

    @pytest.mark.parametrize(
        "coalition, target, method, means, noise, pinned",
        [
            (PAIR, "l", FederationMethod.UNIFORM, MeanDistribution.UNIFORM, None,
             ("0x1.f717d112a3d22p-2", "0x1.55e904a676726p-9")),
            (PAIR, "s", FederationMethod.FINE_GRAINED, MeanDistribution.GAUSSIAN,
             (4.0, 16.0), ("0x1.029012b6fa34ep+0", "0x1.8271aca1209dfp-8")),
            (Coalition((Player("a", 2.5), Player("b", 6.0), Player("c", 40.0))), "a",
             FederationMethod.FINE_GRAINED, MeanDistribution.UNIFORM, (0.0, 10.0, 20.0),
             ("0x1.48e77fbfd6a47p+0", "0x1.be9630af2c7e9p-8")),
        ],
        ids=["uniform-means", "noise-list", "uniform-means-noise-list"],
    )
    def test_paths_no_command_reaches_are_pinned(
        self, coalition, target, method, means, noise, pinned
    ):
        """Uniform means and noise lists, which ``simulate`` never draws,
        over 69,633 trials: two chunks, the second ending in a one-row noise
        block.  Any change to the draws or their arithmetic moves these."""
        result = simulate_error(spec(
            coalition=coalition, target=target, method=method, mean_distribution=means,
            noise_variances=noise, trials=69_633, seed=7,
        ))
        assert (result.empirical_mse.hex(), result.standard_error.hex()) == pinned

    @pytest.mark.parametrize(
        "case, pinned",
        [
            (spec(method=FederationMethod.FINE_GRAINED, trials=4097, seed=0),
             ("0x1.fd127a199c301p-1", "0x1.71e3c04bed7d5p-6")),
            (spec(target="l", trials=4097, seed=2**64 - 1),
             ("0x1.f9b3d7578cd5ep-2", "0x1.5fcc91543f96fp-7")),
            (spec(coalition=SIX, target="p3", method=FederationMethod.FINE_GRAINED,
                  trials=70_000, seed=7),
             ("0x1.04f2fc8833557p+0", "0x1.40c218efadea4p-8")),
            (spec(coalition=SIX, target="p1", noise_variances=(0, 4, 8, 12, 16, 20),
                  trials=4097, seed=2**64 - 1),
             ("0x1.3fbf842d855e0p+0", "0x1.7d7c4b2055f74p-6")),
            *((s, pinned) for s in default_suite(20_000) for label, pinned in (
                ("uniform-means-uniform-s", ("0x1.9097f2558ff16p+0", "0x1.d1fff965c3e5ep-7")),
                ("uniform-means-fine-l", ("0x1.b986baf2a93b8p-2", "0x1.1972496f10934p-8")),
            ) if s.label == label),
        ],
        ids=["pair-fine", "pair-uniform-top-seed", "six-two-chunks", "six-noise-list",
             "suite-uniform-s", "suite-fine-l"],
    )
    def test_uniform_means_are_the_generators_uniform_draws(self, case, pinned):
        """The means are filled in place as u * 2 half - half from the
        generator's doubles u, the arithmetic of ``Generator.uniform(-half,
        half)``: these bits are those the loop gave when it drew each chunk's
        means as one ``uniform(-half, half, size=...)`` array."""
        result = simulate_error(case._replace(mean_distribution=MeanDistribution.UNIFORM))
        assert (result.empirical_mse.hex(), result.standard_error.hex()) == pinned


def skew_closed_form(monkeypatch, target: str | None = None) -> None:
    """Make the analytic reference 10% too high (for ``target`` only, when
    given), so the library's z and the suite's verdicts see a wrong value."""
    honest = montecarlo._errors

    def skewed(columns, method, mu_e, sigma_sq, ids):
        errors = honest(columns, method, mu_e, sigma_sq, ids)
        return [[e * 1.1 for e in column] if target in (None, pid) else column
                for pid, column in zip(ids, errors)]

    monkeypatch.setattr(montecarlo, "_errors", skewed)


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

    @pytest.mark.parametrize("reference, z", [(1.0, -math.inf), (-1.0, math.inf)])
    def test_zero_standard_error_gives_an_infinite_z_off_the_closed_form(
        self, monkeypatch, reference, z
    ):
        """With mu_e = sigma_sq = 0 every squared error is 0, so the standard
        error is 0: z is 0 against the honest closed form, and an infinite
        z of the sign of mean - closed form against any other."""
        zero = spec(coalition=Coalition.from_sizes([4, 4]), target="p1",
                    params=PopulationParams(0.0, 0.0), trials=16)
        honest = simulate_error(zero)
        assert (honest.empirical_mse, honest.standard_error, honest.z_score) == (0, 0, 0)
        monkeypatch.setattr(montecarlo, "_errors",
                            lambda columns, *rest: [[reference] for _ in columns])
        result = simulate_error(zero)
        assert (result.standard_error, result.closed_form) == (0, reference)
        assert result.z_score == z


class TestSpecValidation:
    def test_noise_list_length_must_match(self):
        with pytest.raises(InvalidNoiseList):
            spec(noise_variances=(5.0, 10.0, 15.0))

    @pytest.mark.parametrize(
        "noise", [(-5.0, 25.0), (math.inf, 10.0), (math.nan, 10.0)]
    )
    def test_noise_variances_must_be_finite_and_nonnegative(self, noise):
        with pytest.raises(InvalidNoiseList, match="finite and >= 0"):
            spec(noise_variances=noise)

    def test_noise_list_average_must_be_mu_e(self):
        with pytest.raises(InvalidNoiseList):
            spec(noise_variances=(5.0, 14.0))

    def test_noise_list_is_checked_at_any_scale(self):
        """The average must match mu_e relatively, even below 1e-12."""
        with pytest.raises(InvalidNoiseList):
            spec(params=PopulationParams(1e-13, 1.0), noise_variances=(0.0, 0.0))
        tiny = 2.0**-60
        scaled = (5.0 * tiny, 15.0 * tiny)
        spec(params=PopulationParams(10 * tiny, 1.0), noise_variances=scaled)
        spec(params=PopulationParams(0.0, 1.0), noise_variances=(0.0, 0.0))

    def test_noise_list_average_fits_where_its_sum_overflows(self):
        """Finite variances average to a finite value even where their float
        sum overflows: the largest float three times averages to itself,
        where a sum of thirds would round up to inf."""
        spec(params=PopulationParams(1e308, 1.0), noise_variances=(1e308, 1e308))
        top = sys.float_info.max
        spec(coalition=Coalition.from_sizes([1, 2, 3]), target="p1",
             params=PopulationParams(top, 1.0), noise_variances=(top,) * 3)
        wrong = (1.7e308, 1.3e308)
        with pytest.raises(InvalidNoiseList, match=r"average 1\.5e\+308, expected"):
            spec(params=PopulationParams(1e308, 1.0), noise_variances=wrong)

    def test_trials_lower_bound(self):
        with pytest.raises(ValueError):
            spec(trials=1)

    def test_empty_suite_is_rejected(self):
        """No spec means no check: an empty suite is an error, not a PASS
        whose max |z| cannot be taken."""
        with pytest.raises(ValueError, match="spec count must be >= 1, got 0"):
            simulate_suite([])

    def test_method_weights_exclusivity(self):
        """The method alone names the combination: a weight vector is not
        a field, and anything but a FederationMethod fails at construction
        rather than after the trials have run."""
        weights = {"s": 0.5, "l": 0.5}
        with pytest.raises(TypeError):
            spec(weights=weights)
        for method in (None, "uniform"):
            with pytest.raises(ValueError, match="FederationMethod"):
                spec(method=method)

    @pytest.mark.parametrize("value", ["gaussian", None])
    def test_mean_distribution_must_be_a_mean_distribution(self, value):
        """A string would otherwise simulate uniform means, whatever it says."""
        with pytest.raises(ValueError, match="^mean_distribution must be a "):
            spec(mean_distribution=value)

    def test_target_must_be_member(self):
        with pytest.raises(TargetNotInCoalition):
            spec(target="ghost")

    def test_overflowing_sums_raise(self):
        """A sum of squared squared-errors past the float range gives no
        standard error; it is reported, not returned as 0 with z = inf."""
        huge = spec(
            coalition=Coalition((Player("x", 1.0),)),
            target="x",
            params=PopulationParams(mu_e=1e300, sigma_sq=0.0),
            method=FederationMethod.LOCAL,
            trials=1000,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfFloatRange, match="mu_e=1e\\+300"):
                simulate_error(huge)

    @pytest.mark.parametrize("noise", [None, (1e300, 1e300)])
    def test_overflowing_noise_scale_raises(self, noise):
        """sqrt(mu_e / n) past the float range (n = 1e-320) shows as an
        overflowing sum, reported like any other: never a RuntimeWarning."""
        huge = spec(
            coalition=Coalition.from_sizes([1e-320, 1.0]),
            target="p1",
            params=PopulationParams(mu_e=1e300, sigma_sq=0.0),
            method=FederationMethod.LOCAL,
            noise_variances=noise,
            trials=10,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfFloatRange, match="n=\\{'p1': 1e-320"):
                simulate_error(huge)

    def test_uniform_means_past_the_float_range_raise_before_any_draw(self):
        """Uniform means of variance sigma_sq > FLOAT_MAX / 3 need a
        half-width sqrt(3 sigma_sq) past the float range: rejected by name,
        never numpy's OverflowError from the draw."""
        huge = spec(
            coalition=Coalition.from_sizes([1, 1]),
            target="p1",
            params=PopulationParams(mu_e=1.0, sigma_sq=1.7e308),
            method=FederationMethod.LOCAL,
            mean_distribution=MeanDistribution.UNIFORM,
            trials=10,
        )
        with pytest.raises(OutOfFloatRange, match=r"^the half-width of the uniform "
                           r"means is outside the floating-point range at "
                           r"sigma_sq=1\.7e\+308$"):
            simulate_error(huge)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            spec(seed=-1)
        with pytest.raises(ValueError):
            spec(seed=2**64)

    @pytest.mark.parametrize("value", [True, False, 2.5, 4096.0, "7", None])
    @pytest.mark.parametrize("field", ["trials", "seed"])
    def test_integer_fields(self, field, value):
        """A bool or a non-integer is rejected by name at construction, not
        run at seed 1 or failed mid-run with a TypeError."""
        low = {"trials": 2, "seed": 0}[field]
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{field} must be an integer in [{low}, 2**64), got ")):
            spec(**{field: value})

    def test_numpy_integers_are_stored_as_ints(self):
        case = spec(trials=np.int64(4096), seed=np.uint64(2**64 - 1))
        assert type(case.trials) is int and type(case.seed) is int
        assert (case.trials, case.seed) == (4096, 2**64 - 1)

    def test_replace_make_and_pickle_validate(self):
        """Every way to build a spec goes through the same checks."""
        case = spec()
        with pytest.raises(ValueError, match=re.escape(
                "trials must be an integer in [2, 2**64), got 1")):
            case._replace(trials=1)
        with pytest.raises(TargetNotInCoalition):
            case._replace(target="ghost")
        with pytest.raises(ValueError, match="seed must be an integer"):
            SimulationSpec._make([*case[:7], True, ""])
        assert pickle.loads(pickle.dumps(case)) == case
        assert case._replace(seed=5).seed == 5


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
