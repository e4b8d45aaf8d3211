"""Simulation oracle for the closed-form expected errors.

Each trial draws a true mean per player (mean 0 without loss of
generality, variance sigma_sq) and that player's local estimate around
it.  The local estimate is the mean of n samples with noise variance v,
which is exactly N(true mean, v/n), so it is drawn as one normal rather
than from n individual samples; time and memory per trial do not depend
on n.  The estimates are combined with the weights implied by the
federation method (or an explicit weight vector), and the squared error
against the target's true mean is recorded.
The empirical mean squared error is then compared with the matching
closed form via a z-score.

Determinism: trials are processed in fixed chunks of 65536, the k-th
chunk seeded by ``SeedSequence(seed, spawn_key=(k,))`` (what
``SeedSequence(seed).spawn`` would make), and per-chunk partial sums are
reduced in chunk order.  Results are therefore bit-identical for a given
spec regardless of thread count or scheduling.  At most one chunk per
thread is in flight, so memory does not grow with the trial count.

Draw order inside a chunk never depends on how the weights were
specified, so an explicit weight vector equal to the method's weights
reproduces the method's estimates exactly, draw for draw.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    WeightVector,
    expected_error,
    fine_grained_weights,
    weighted_error,
)
from .exceptions import InvalidNoiseList, TargetNotInCoalition
from .model import Coalition, FederationMethod, Player, PopulationParams, close

CHUNK_TRIALS = 1 << 16


class MeanDistribution(str, Enum):
    """Distribution of the players' true means (mean 0, variance sigma_sq)."""

    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class SimulationSpec:
    """One simulation: who federates, how estimates combine, and the RNG seed.

    A player's local estimate is the mean of its n samples, drawn
    directly as one normal of variance (noise variance)/n.  That is
    defined for any positive real n, as in the closed forms, so every
    coalition the closed forms accept can be simulated.

    ``noise_variances`` is optional: when absent every sample has variance
    mu_e.  When present it lists candidate noise variances (one entry per
    coalition member, averaging mu_e within 1e-12) and each trial draws
    every player's variance independently and uniformly from the list, so
    the population noise expectation stays mu_e while individual draws
    vary.  A player's variance is fixed within a trial, so its local mean
    is still exactly normal.  The closed forms depend on the noise only
    through mu_e, which is exactly what this option exists to demonstrate.
    """

    coalition: Coalition
    target: str
    params: PopulationParams
    method: FederationMethod | None = None
    weights: WeightVector | None = None
    mean_distribution: MeanDistribution = MeanDistribution.GAUSSIAN
    noise_variances: tuple[float, ...] | None = None
    trials: int = 1_000_000
    seed: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if self.target not in self.coalition:
            raise TargetNotInCoalition(f"target {self.target!r} not in coalition")
        if (self.method is None) == (self.weights is None):
            raise ValueError("specify exactly one of method or weights")
        if self.noise_variances is not None:
            object.__setattr__(self, "noise_variances", tuple(self.noise_variances))
            values = self.noise_variances
            if len(values) != len(self.coalition):
                raise InvalidNoiseList(
                    f"{len(values)} noise entries for a coalition of "
                    f"{len(self.coalition)}"
                )
            if any(not math.isfinite(v) or v < 0 for v in values):
                raise InvalidNoiseList("noise variances must be finite and >= 0")
            mean = sum(values) / len(values)
            if not math.isclose(mean, self.params.mu_e, rel_tol=1e-12, abs_tol=1e-12):
                raise InvalidNoiseList(
                    f"noise variances average {mean!r}, expected mu_e="
                    f"{self.params.mu_e!r}"
                )
        if self.trials < 2:
            raise ValueError("trials must be >= 2")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")

    def resolved_weights(self) -> np.ndarray:
        """Combination weights aligned to the coalition's player order."""
        players = self.coalition.players
        if self.weights is not None:
            pairs = self.weights.aligned(self.coalition)
            return np.array([w for _, w in pairs], dtype=np.float64)
        if self.method is FederationMethod.LOCAL:
            return np.array(
                [1.0 if p.id == self.target else 0.0 for p in players],
                dtype=np.float64,
            )
        if self.method is FederationMethod.UNIFORM:
            total = self.coalition.total
            return np.array([p.n / total for p in players], dtype=np.float64)
        optimal = fine_grained_weights(self.coalition, self.target, self.params)
        return np.array([w for _, w in optimal.aligned(self.coalition)], np.float64)

    def analytic_error(self) -> float:
        """The closed form this simulation is expected to reproduce."""
        if self.weights is not None:
            return weighted_error(self.coalition, self.weights, self.params)
        assert self.method is not None
        return expected_error(self.coalition, self.target, self.method, self.params)


@dataclass(frozen=True)
class SimulationResult:
    empirical_mse: float
    standard_error: float
    trials: int
    closed_form: float
    z_score: float


def _chunk_sums(
    spec: SimulationSpec, k: int, weights: np.ndarray
) -> tuple[float, float]:
    """Sum and sum-of-squares of the squared errors for the k-th trial
    chunk, drawn from the k-th child of the spec seed."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(k,)))
    size = min(CHUNK_TRIALS, spec.trials - k * CHUNK_TRIALS)
    counts = np.array([p.n for p in spec.coalition.players], dtype=np.float64)
    players = len(counts)
    target_idx = spec.coalition.ids().index(spec.target)

    if spec.mean_distribution is MeanDistribution.GAUSSIAN:
        means = rng.standard_normal((size, players)) * math.sqrt(spec.params.sigma_sq)
    else:
        half = math.sqrt(3.0 * spec.params.sigma_sq)
        means = rng.uniform(-half, half, size=(size, players))

    if spec.noise_variances is None:
        noise_std = np.full(
            (1, players), math.sqrt(spec.params.mu_e), dtype=np.float64
        )
    else:
        candidates = np.array(spec.noise_variances, dtype=np.float64)
        noise_std = np.sqrt(rng.choice(candidates, size=(size, players)))

    # The mean of n iid N(0, v) samples is exactly N(0, v/n), so each
    # player's local-estimate noise is one standard normal per trial.
    estimate_noise = rng.standard_normal((size, players))
    estimate_noise *= noise_std / np.sqrt(counts)
    estimates = (means + estimate_noise) @ weights
    deviations = estimates - means[:, target_idx]
    squared = deviations * deviations
    return float(squared.sum()), float((squared * squared).sum())


def _chunk_partials(
    spec: SimulationSpec, weights: np.ndarray, threads: int
) -> Iterator[tuple[float, float]]:
    """Every chunk's partial sums in chunk order.  A sliding window keeps
    at most ``threads`` chunks in flight: the next chunk is submitted as
    soon as the oldest one is collected, never after a whole batch."""
    in_flight: deque[Future[tuple[float, float]]] = deque()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for k in range(-(-spec.trials // CHUNK_TRIALS)):
            if len(in_flight) == threads:
                yield in_flight.popleft().result()
            in_flight.append(pool.submit(_chunk_sums, spec, k, weights))
        while in_flight:
            yield in_flight.popleft().result()


def simulate_error(spec: SimulationSpec, *, threads: int = 1) -> SimulationResult:
    """Estimate the target's expected squared error empirically."""
    total = 0.0
    total_sq = 0.0
    for part_sum, part_sq in _chunk_partials(spec, spec.resolved_weights(), threads):
        total += part_sum
        total_sq += part_sq

    n = spec.trials
    mean = total / n
    variance = max(0.0, (total_sq - n * mean * mean) / (n - 1))
    std_error = math.sqrt(variance / n)
    reference = spec.analytic_error()
    if std_error > 0.0:
        z = (mean - reference) / std_error
    else:
        z = 0.0 if close(mean, reference) else math.copysign(math.inf, mean - reference)
    return SimulationResult(mean, std_error, n, reference, z)


@dataclass(frozen=True)
class SuiteEntry:
    label: str
    result: SimulationResult
    passed: bool


@dataclass(frozen=True)
class SuiteResult:
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

    The default threshold of 4 leaves the false-failure rate of a
    ~20-spec suite well under 1%.
    """
    entries = []
    for index, spec in enumerate(specs):
        result = simulate_error(spec, threads=threads)
        label = spec.label or f"spec{index}"
        entries.append(
            SuiteEntry(label, result, abs(result.z_score) <= z_threshold)
        )
    return SuiteResult(entries=tuple(entries), z_threshold=z_threshold)


def default_suite(trials: int = 1_000_000, base_seed: int = 90_125) -> tuple[
    SimulationSpec, ...
]:
    """The standard validation suite: the motivating two-player configs
    under every method and both targets, zero-bias and zero-noise edge
    cases, and both mean distributions."""
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
