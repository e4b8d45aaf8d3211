"""Simulation oracle for the closed-form expected errors.

Each trial draws a true mean per player (mean 0 without loss of
generality, variance sigma_sq) and that player's local estimate around
it.  The local estimate is the mean of n samples with noise variance v,
which is exactly N(true mean, v/n), so it is drawn as one normal rather
than from n individual samples; time and memory per trial do not depend
on n.  The estimates are combined with the weights implied by the
federation method, and the squared error against the target's true
mean is recorded.  Since the weights sum to one, target j's error is
formed as ``(noise + means - means[:, j]) @ w_j``: the true means are
differenced before the noise is added, so noise far below a mean's ulp
is kept, where ``(noise + means) @ w_j - means[:, j]`` would lose it.
The empirical mean squared error is then compared with the matching
closed form via a z-score.  Every target's closed form comes from one
evaluation of the coalition by the closed-form kernel (``errors._errors``)
and all their weights from one more (``errors._weights``), taken in that
order before the first chunk, whatever the player count.

Determinism: trials are processed in fixed chunks of 65536, the k-th
chunk seeded by ``SeedSequence(seed, spawn_key=(k,))`` (what
``SeedSequence(seed).spawn`` would make).  One loop runs over the
chunks, in order on the calling thread, and scores a list of targets
that share everything but the target on one stream: the draws are made
once, and each target's sums come out as its run alone would give them
(``simulate_error`` is the loop's call for one target).  The loop
allocates its buffers once and refills them for every chunk: the means
(one row per trial of a chunk), one 4096-row block of estimate noise,
which each chunk draws block by block, one block of one target's
offsets and one 4096-row column of errors, whose sums are taken per
block.  A generator fills ``out=`` in C order, so the blocks hold
exactly the numbers one whole-chunk draw would, and memory grows
neither with the trial count nor with a player's sample count.
``simulate_suite(threads=N)`` runs up to N whole simulations at once;
each result is bit-identical at any N.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import _errors, _one, _weights, range_failure
from .exceptions import InvalidNoiseList, OutOfFloatRange
from .model import (FLOAT_MAX, Coalition, FederationMethod, Player, PopulationParams,
                    check_integer, compare)

CHUNK_TRIALS = 1 << 16
BLOCK_ROWS = 1 << 12


class MeanDistribution(str, Enum):
    """Distribution of the players' true means (mean 0, variance sigma_sq)."""

    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"


class SimulationSpec(
    NamedTuple(
        "SimulationSpec",
        [
            ("coalition", Coalition),
            ("target", str),
            ("params", PopulationParams),
            ("method", FederationMethod),
            ("mean_distribution", MeanDistribution),
            ("noise_variances", tuple[float, ...] | None),
            ("trials", int),
            ("seed", int),
            ("label", str),
        ],
    )
):
    """One simulation: who federates, how estimates combine, and the RNG seed.

    A player's local estimate is the mean of its n samples, drawn
    directly as one normal of variance (noise variance)/n.  That is
    defined for any positive real n, as in the closed forms, so every
    coalition the closed forms accept can be simulated.

    ``noise_variances`` is optional: when absent every sample has variance
    mu_e.  When present it lists candidate noise variances (one entry per
    coalition member, averaging mu_e to a relative 1e-12) and each trial draws
    every player's variance independently and uniformly from the list, so
    the population noise expectation stays mu_e while individual draws
    vary.  A player's variance is fixed within a trial, so its local mean
    is still exactly normal.  The closed forms depend on the noise only
    through mu_e, which is exactly what this option exists to demonstrate.

    Validation runs in ``__new__``, which ``_make``, ``_replace``, copy and
    pickle go through too.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(
        cls,
        coalition: Coalition,
        target: str,
        params: PopulationParams,
        method: FederationMethod,
        mean_distribution: MeanDistribution = MeanDistribution.GAUSSIAN,
        noise_variances: Sequence[float] | None = None,
        trials: int = 1_000_000,
        seed: int = 0,
        label: str = "",
    ) -> SimulationSpec:
        coalition.index(target)  # TargetNotInCoalition for a non-member
        if not isinstance(method, FederationMethod):
            raise ValueError(f"method must be a FederationMethod, got {method!r}")
        if not isinstance(mean_distribution, MeanDistribution):
            raise ValueError("mean_distribution must be a MeanDistribution, "
                             f"got {mean_distribution!r}")
        if noise_variances is not None:
            noise_variances = values = tuple(noise_variances)
            if len(values) != len(coalition):
                raise InvalidNoiseList(
                    f"{len(values)} noise entries for a coalition of "
                    f"{len(coalition)}"
                )
            if any(not 0 <= v <= FLOAT_MAX for v in values):
                raise InvalidNoiseList("noise variances must be finite and >= 0")
            # This sum's rounding reaches no output: the mean feeds only the
            # 1e-12 check below.
            mean = sum(values) / len(values)
            if math.isinf(mean):  # the sum overflowed; scaled by 2**-k < 1/n it fits
                k = len(values).bit_length()
                scaled = sum(math.ldexp(v, -k) for v in values)
                mean = math.ldexp(scaled / len(values), k)
            if not math.isclose(mean, params.mu_e, rel_tol=1e-12):
                raise InvalidNoiseList(
                    f"noise variances average {mean!r}, expected mu_e="
                    f"{params.mu_e!r}"
                )
        trials, seed = check_integer("trials", trials, 2), check_integer("seed", seed, 0)
        return super().__new__(
            cls, coalition, target, params, method, mean_distribution,
            noise_variances, trials, seed, label,
        )


class SimulationResult(NamedTuple):
    empirical_mse: float
    standard_error: float
    trials: int
    closed_form: float
    z_score: float


def simulate_error(spec: SimulationSpec) -> SimulationResult:
    """Estimate the target's expected squared error empirically: the
    chunk loop of ``_simulate`` for one target.

    Raises ``OutOfFloatRange`` when the uniform means' half-width, or the
    sum of the squared errors or of their squares, leaves the float range
    (the standard error would then be meaningless).
    """
    return _simulate([spec])[0]


def _simulate(specs: Sequence[SimulationSpec]) -> list[SimulationResult]:
    """``simulate_error`` of every spec of ``specs``, which differ in their
    target only, on one stream: each trial is drawn once and scored for
    every target, and each result is bit for bit its spec's run alone."""
    first = specs[0]
    n, (mu_e, sigma_sq) = first.trials, first.params
    half = math.sqrt(3.0 * sigma_sq)  # of the uniform means, variance sigma_sq
    if first.mean_distribution is MeanDistribution.UNIFORM and math.isinf(half):
        raise OutOfFloatRange("the half-width of the uniform means", sigma_sq=sigma_sq)
    shared = (first.coalition, first.params, first.method)
    targets = [first.coalition.index(spec.target) for spec in specs]
    closed_forms = _one(_errors, *shared)
    references = [closed_forms[j] for j in targets]
    # A target's squared errors are near its closed form, and far below 1
    # their squares underflow: its weights are scaled by 2**e, exactly, so
    # that both come out near 1, and its sums hold 4**e times the values.
    scales = [max(0, -math.frexp(reference)[1] // 2) for reference in references]
    weights = np.array(_one(_weights, *shared, targets), dtype=np.float64)  # local: ints
    members = [(j, w * 2.0**e)
               for j, w, e in zip(targets, weights.reshape(len(targets), -1), scales)]
    means = np.empty((min(CHUNK_TRIALS, n), len(first.coalition)))
    noise = np.empty((min(BLOCK_ROWS, len(means)), means.shape[1]))
    offsets, errors = np.empty_like(noise), np.empty(len(noise))
    sqrt_counts = np.sqrt(np.array(first.coalition.sizes()))
    total, total_sq = [0.0] * len(specs), [0.0] * len(specs)
    # An overflow shows as a non-finite sum, which is reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        # The mean of n iid N(0, v) samples is exactly N(0, v/n), so each
        # player's local-estimate noise is one standard normal per trial,
        # scaled by sqrt(v) / sqrt(n).
        if first.noise_variances is None:
            scale = np.broadcast_to(math.sqrt(mu_e) / sqrt_counts, means.shape)
        else:
            candidates = np.array(first.noise_variances, dtype=np.float64)
        for k in range(-(-n // CHUNK_TRIALS)):
            rng = np.random.default_rng(np.random.SeedSequence(first.seed, spawn_key=(k,)))
            size = min(CHUNK_TRIALS, n - k * CHUNK_TRIALS)
            chunk = means[:size]
            if first.mean_distribution is MeanDistribution.GAUSSIAN:
                rng.standard_normal(out=chunk)
                chunk *= math.sqrt(sigma_sq)
            else:
                rng.random(out=chunk)  # uniform(-half, half)'s draws, in place
                chunk *= 2 * half
                chunk -= half
            if first.noise_variances is not None:
                scale = rng.choice(candidates, size=chunk.shape)
                np.sqrt(scale, out=scale)
                scale /= sqrt_counts
            for start in range(0, size, len(noise)):
                block = noise[: size - start]  # the last block may be partial
                rows = slice(start, start + len(block))
                rng.standard_normal(out=block)
                block *= scale[rows]
                block_means = chunk[rows]
                offset, error = offsets[: len(block)], errors[: len(block)]
                for m, (j, weights) in enumerate(members):
                    # noise + (means - means[:, j]), differenced first
                    np.subtract(block_means, block_means[:, j, None], out=offset)
                    offset += block
                    np.matmul(offset, weights, out=error)
                    error *= error
                    total[m] += float(error.sum())
                    error *= error
                    total_sq[m] += float(error.sum())
            if not all(map(math.isfinite, total + total_sq)):
                what = "the Monte Carlo sum of squared errors"
                fail = range_failure(what, first.coalition.ids())
                raise fail(0, mu_e, sigma_sq, *first.coalition.sizes())

    results = []
    for e, reference, summed, summed_sq in zip(scales, references, total, total_sq):
        mean, scaled = summed / n, math.ldexp(reference, 2 * e)
        variance = max(0.0, (summed_sq - n * mean * mean) / (n - 1))
        std_error = math.sqrt(variance / n)
        z = 0.0
        if std_error > 0.0:
            z = (mean - scaled) / std_error
        elif compare(mean, scaled):
            z = math.copysign(math.inf, mean - scaled)
        mean, std_error = math.ldexp(mean, -2 * e), math.ldexp(std_error, -2 * e)
        results.append(SimulationResult(mean, std_error, n, reference, z))
    return results


class SuiteEntry(NamedTuple):
    label: str
    result: SimulationResult
    passed: bool


class SuiteResult(NamedTuple):
    entries: tuple[SuiteEntry, ...]
    z_threshold: float

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def max_abs_z(self) -> float:
        return max(abs(e.result.z_score) for e in self.entries)


def simulate_suite(
    specs: Sequence[SimulationSpec],
    z_threshold: float = 4.0,
    *,
    threads: int = 1,
) -> SuiteResult:
    """Run each spec and fail any whose |z| exceeds the threshold.

    Up to ``threads`` simulations run at once; results come back in spec
    order and do not depend on the thread count.  If each z were standard
    normal, the default threshold of 4 would fail the 23 default specs
    falsely with probability 1 - (1 - 6.33e-5)^23, about 0.15%.
    An empty suite would pass with no checks, so it raises ``ValueError``,
    as ``threads`` does by ``check_integer`` unless it is an integer >= 1.
    """
    if not specs:
        raise ValueError(f"spec count must be >= 1, got {len(specs)}")
    # Loaded here: a single simulation needs no pool.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=check_integer("threads", threads, 1)) as pool:
        results = list(pool.map(simulate_error, specs))
    entries = tuple(
        SuiteEntry(spec.label or f"spec{i}", result, abs(result.z_score) <= z_threshold)
        for i, (spec, result) in enumerate(zip(specs, results))
    )
    return SuiteResult(entries=entries, z_threshold=z_threshold)


def default_suite(trials: int = 1_000_000, base_seed: int = 90_125) -> tuple[
    SimulationSpec, ...
]:
    """The standard validation suite: the motivating two-player configs
    under every method and both targets, zero-bias and zero-noise edge
    cases, and both mean distributions."""
    base_seed = check_integer("base_seed", base_seed, 0)
    params = PopulationParams(mu_e=10.0, sigma_sq=1.0)
    specs: list[SimulationSpec] = []

    def add(**kwargs: object) -> None:
        kwargs.setdefault("trials", trials)
        kwargs.setdefault("seed", base_seed + len(specs))
        specs.append(SimulationSpec(**kwargs))  # type: ignore[arg-type]

    for n_l in (20, 30, 40):
        coalition = Coalition((Player("s", 6.0), Player("l", float(n_l))))
        for method in FederationMethod:
            for target in ("s", "l"):
                add(
                    coalition=coalition,
                    target=target,
                    params=params,
                    method=method,
                    label=f"nl{n_l}-{method.value}-{target}",
                )

    zero_bias = Coalition.from_sizes([4, 4])
    add(
        coalition=zero_bias,
        target="p1",
        params=PopulationParams(mu_e=8.0, sigma_sq=0.0),
        method=FederationMethod.UNIFORM,
        label="zero-bias-uniform",
    )
    zero_noise = Coalition.from_sizes([10, 10])
    add(
        coalition=zero_noise,
        target="p1",
        params=PopulationParams(mu_e=0.0, sigma_sq=1.0),
        method=FederationMethod.UNIFORM,
        label="zero-noise-uniform",
    )
    add(
        coalition=zero_noise,
        target="p1",
        params=PopulationParams(mu_e=0.0, sigma_sq=1.0),
        method=FederationMethod.LOCAL,
        label="zero-noise-local",
    )

    flat_means = Coalition((Player("s", 6.0), Player("l", 20.0)))
    add(
        coalition=flat_means,
        target="s",
        params=params,
        method=FederationMethod.UNIFORM,
        mean_distribution=MeanDistribution.UNIFORM,
        label="uniform-means-uniform-s",
    )
    add(
        coalition=flat_means,
        target="l",
        params=params,
        method=FederationMethod.FINE_GRAINED,
        mean_distribution=MeanDistribution.UNIFORM,
        label="uniform-means-fine-l",
    )
    return tuple(specs)
