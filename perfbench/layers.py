"""Traced run: per-layer metrics from in-process calls into each module.

The benchmark calls the public functions of ``sampling``, ``errors``,
``egalitarian``, ``proportionality``, ``montecarlo`` and ``cli`` on inputs
generated from the workload seed, and records a span around each call
(name, start, end, parent span, workload id).  Spans stay in memory and are
written to ``perfbench/out/spans-<workload>.jsonl`` at the end.  No span
sits inside the package; the spans bracket the benchmark's own calls.

The per-call probes run once untraced and once traced, alternately, and
the difference is reported as the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from fedfair import cli
from fedfair.egalitarian import audit_egalitarian, bound_sweep, check_modularity, inverse_size_error
from fedfair.errors import fine_grained_error, fine_grained_weights, local_error, uniform_error
from fedfair.model import Coalition, FederationMethod, Player, PopulationParams
from fedfair.montecarlo import (
    CHUNK_TRIALS,
    SimulationSpec,
    default_suite,
    simulate_error,
    simulate_suite,
)
from fedfair.proportionality import (
    classify_proportionality,
    defection_threshold,
    individually_rational,
    subproportionality_threshold,
    verify_propstab,
)
from fedfair.sampling import instance_rng, random_instance

import run
from workloads import ORACLE_LARGEST, WORKLOADS, Sizes, build

# Coalition sizes of the three one-chunk Monte Carlo timings: (small, large)
# with total n of 2, 26 and 206.
CHUNK_COALITIONS = {"sumn2": (1, 1), "sumn26": (6, 20), "sumn206": (6, 200)}
# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("sampling.instance_us", "us", "lower"),
    ("sampling.instances", "count", "higher"),
    ("errors.uniform_us", "us", "lower"),
    ("errors.fine_grained_us", "us", "lower"),
    ("errors.fine_grained_weights_us", "us", "lower"),
    ("errors.local_us", "us", "lower"),
    ("errors.calls", "count", "higher"),
    ("egalitarian.bound_sweep_s", "s", "lower"),
    ("egalitarian.checks", "count", "higher"),
    ("egalitarian.modularity_s", "s", "lower"),
    ("egalitarian.audit_us", "us", "lower"),
    ("proportionality.verify_propstab_s", "s", "lower"),
    ("proportionality.classify_us", "us", "lower"),
    ("proportionality.rational_us", "us", "lower"),
    ("proportionality.thresholds_us", "us", "lower"),
    *((f"montecarlo.chunk_s.{key}", "s", "lower") for key in CHUNK_COALITIONS),
    ("montecarlo.fixed_chunk_ms", "ms", "lower"),
    ("montecarlo.per_sample_column_ms", "ms", "lower"),
    ("montecarlo.noise_bytes_per_chunk", "bytes", "lower"),
    ("montecarlo.suite_s", "s", "lower"),
    ("montecarlo.thread_speedup", "x", "higher"),
    *((f"cli.main_s.{kind}", "s", "lower") for kind in ("audit", "reproduce", "scan", "simulate", "verify")),
    *((f"cli.startup_share.{kind}", "ratio", "lower") for kind in ("audit", "reproduce", "scan", "simulate", "verify")),
    *((f"cli.emit_rows_us_per_row.{fmt}", "us", "lower") for fmt in ("csv", "json", "table")),
    ("cli.load_scenario_us", "us", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


class Tracer:
    """In-memory span recorder.  A span is (name, start, end, parent id)."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[tuple[str, float, float, int | None] | None] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # reserved so children get higher ids
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent)

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        parent = self._stack[-1] if self._stack else None
        start = time.perf_counter()
        result = fn(*args)
        self.spans.append((name, start, time.perf_counter(), parent))
        return result

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s is not None and s[0] == name]

    def median_us(self, name: str) -> float:
        return statistics.median(self.durations(name)) * 1e6

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                         "start": start, "end": end,
                                         "workload": self.workload}) + "\n")


class NullTracer(Tracer):
    """Same calls, no spans: the untraced side of the overhead comparison."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        return fn(*args)


def probe_calls(tracer: Tracer, seed: int, count: int) -> int:
    """Per-call probes on the sweep instance mix; returns error-function calls."""
    calls = 0
    uniform, fine = FederationMethod.UNIFORM, FederationMethod.FINE_GRAINED
    with tracer.span("probe"):
        for index in range(count):
            rng = tracer.call("sampling.instance_rng", instance_rng, seed, index)
            params, coalition = tracer.call("sampling.random_instance", random_instance, rng)
            for p in coalition.players:
                tracer.call("errors.uniform", uniform_error, coalition, p.id, params)
                tracer.call("errors.fine_grained", fine_grained_error, coalition, p.id, params)
                tracer.call("errors.fine_grained_weights", fine_grained_weights, coalition, p.id, params)
                tracer.call("errors.local", local_error, p, params)
                calls += 4
            for method in (uniform, fine):
                tracer.call("egalitarian.audit", audit_egalitarian, coalition, method, params)
            tracer.call("proportionality.classify", classify_proportionality, coalition, uniform, params)
            tracer.call("proportionality.rational", individually_rational, coalition, uniform, params)
            first = coalition.players[0].id
            tracer.call("proportionality.thresholds", lambda: (
                defection_threshold(coalition, params),
                subproportionality_threshold(coalition, first, params)))
    return calls


def _check(failures: list[str], ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def _probe_layers(tracer: Tracer, values: dict, seed: int, sizes: Sizes) -> None:
    """sampling, errors, egalitarian.audit and proportionality per call,
    with the untraced pass of the same calls for the overhead."""
    traced, untraced = [], []
    for _ in range(sizes.probe_reps):
        start = time.perf_counter()
        probe_calls(NullTracer(tracer.workload), seed, sizes.probe_instances)
        untraced.append(time.perf_counter() - start)
        start = time.perf_counter()
        calls = probe_calls(tracer, seed, sizes.probe_instances)
        traced.append(time.perf_counter() - start)
    values["trace.overhead_pct"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    ) * 100.0
    rngs = tracer.durations("sampling.instance_rng")
    draws = tracer.durations("sampling.random_instance")
    values["sampling.instance_us"] = statistics.median(a + b for a, b in zip(rngs, draws)) * 1e6
    values["sampling.instances"] = sizes.probe_instances
    for fn in ("uniform", "fine_grained", "fine_grained_weights", "local"):
        values[f"errors.{fn}_us"] = tracer.median_us(f"errors.{fn}")
    values["errors.calls"] = calls
    values["egalitarian.audit_us"] = tracer.median_us("egalitarian.audit")
    for fn in ("classify", "rational", "thresholds"):
        values[f"proportionality.{fn}_us"] = tracer.median_us(f"proportionality.{fn}")


def _sweep_layers(tracer: Tracer, values: dict, failures: list[str], seed: int,
                  sizes: Sizes) -> int:
    """The three verification sweeps, at the sweeps workload's size and seed."""
    n = sizes.sweep_instances
    with tracer.span("sweeps"):
        sweep = tracer.call("egalitarian.bound_sweep", bound_sweep, n, seed)
        reports = tracer.call("egalitarian.modularity", lambda: [
            check_modularity(m) for m in
            (FederationMethod.UNIFORM, FederationMethod.FINE_GRAINED, inverse_size_error)])
        propstab = tracer.call("proportionality.verify_propstab", verify_propstab, n, seed)
    values["egalitarian.bound_sweep_s"] = tracer.durations("egalitarian.bound_sweep")[0]
    values["egalitarian.checks"] = sweep.checks
    values["egalitarian.modularity_s"] = tracer.durations("egalitarian.modularity")[0]
    values["proportionality.verify_propstab_s"] = tracer.durations(
        "proportionality.verify_propstab")[0]
    _check(failures, sweep.passed, "bound_sweep reported violations")
    _check(failures, propstab.passed, "verify_propstab reported counterexamples")
    _check(failures, reports[0].all_passed and reports[1].all_passed
           and not reports[2].result(1).passed, "check_modularity verdicts")
    return 3


def _montecarlo_layers(tracer: Tracer, values: dict, failures: list[str], seed: int,
                       sizes: Sizes) -> int:
    """One-chunk timings and their linear fit, the suite, and two threads."""
    params = PopulationParams(10.0, 1.0)
    sum_n, times = [], []
    with tracer.span("montecarlo"):
        for key, (small, large) in CHUNK_COALITIONS.items():
            spec = SimulationSpec(
                coalition=Coalition((Player("s", float(small)), Player("l", float(large)))),
                target="s", params=params, method=FederationMethod.UNIFORM,
                trials=CHUNK_TRIALS, seed=seed,
            )
            for _ in range(sizes.chunk_reps):
                tracer.call(f"montecarlo.chunk.{key}", simulate_error, spec)
            values[f"montecarlo.chunk_s.{key}"] = statistics.median(
                tracer.durations(f"montecarlo.chunk.{key}"))
            sum_n.append(small + large)
            times.append(values[f"montecarlo.chunk_s.{key}"])
        specs = default_suite(trials=sizes.suite_trials, base_seed=seed)
        serial = tracer.call("montecarlo.suite.threads1", simulate_suite, specs)
        threaded = tracer.call("montecarlo.suite.threads2",
                               lambda: simulate_suite(specs, threads=2))
    slope, intercept = np.polyfit(sum_n, times, 1)
    values["montecarlo.fixed_chunk_ms"] = intercept * 1e3
    values["montecarlo.per_sample_column_ms"] = slope * 1e3
    # Computed, not measured: one player's noise matrix in one chunk at the
    # oracle workload's largest n.
    values["montecarlo.noise_bytes_per_chunk"] = CHUNK_TRIALS * max(ORACLE_LARGEST) * 8
    values["montecarlo.suite_s"] = tracer.durations("montecarlo.suite.threads1")[0]
    values["montecarlo.thread_speedup"] = (
        values["montecarlo.suite_s"] / tracer.durations("montecarlo.suite.threads2")[0])
    _check(failures, serial == threaded, "suite results differ between 1 and 2 threads")
    _check(failures, serial.passed, f"suite |z| above threshold (max {serial.max_abs_z})")
    return 2


def _cli_layers(tracer: Tracer, values: dict, failures: list[str], built: dict,
                sizes: Sizes) -> int:
    """In-process ``main`` against the same command as a subprocess, output
    rendering per row, and scenario loading."""
    checks = 0
    interactive = built["interactive"].commands
    scans = [c for c in interactive if c.kind == "scan"]
    by_kind = {
        "audit": next(c for c in interactive if c.kind == "audit"),
        "reproduce": next(c for c in interactive if c.kind == "reproduce"),
        "scan": min(scans, key=lambda c: abs(c.expected["rows"] - 300)),
        "simulate": built["oracle"].commands[ORACLE_LARGEST.index(20)],
        "verify": next(c for c in built["sweeps"].commands if c.kind == "verify.modularity"),
    }
    with tracer.span("cli"):
        for kind, command in by_kind.items():
            for _ in range(sizes.cli_reps):
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    code = tracer.call(f"cli.main.{kind}", cli.main, list(command.argv))
                child = tracer.call(f"cli.subprocess.{kind}", run.run_cli, command.argv)
                checks += 1
                _check(failures, code == child.code == 0 and buffer.getvalue() == child.out
                       and command.verdict(child.code, child.out) is None,
                       f"cli {kind}: in-process and subprocess outputs differ or fail the check")
            inproc = statistics.median(tracer.durations(f"cli.main.{kind}"))
            sub = statistics.median(tracer.durations(f"cli.subprocess.{kind}"))
            values[f"cli.main_s.{kind}"] = inproc
            values[f"cli.startup_share.{kind}"] = (sub - inproc) / sub

        largest = max(scans, key=lambda c: c.expected["rows"])
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            cli.main(["--format", "json", *largest.argv[2:]])
        rows = json.loads(buffer.getvalue())["rows"]
        for fmt in ("csv", "json", "table"):
            for _ in range(sizes.cli_reps):
                tracer.call(f"cli.emit_rows.{fmt}", cli.emit_rows, rows, cli.SCAN_COLUMNS,
                            fmt, io.StringIO())
            values[f"cli.emit_rows_us_per_row.{fmt}"] = (
                tracer.median_us(f"cli.emit_rows.{fmt}") / len(rows))
        for _ in range(sizes.cli_reps):
            for path in built["interactive"].scenario_paths:
                tracer.call("cli.load_scenario", cli.load_scenario_file, str(path))
    values["cli.load_scenario_us"] = tracer.median_us("cli.load_scenario")
    return checks


def profile(workload: str, seed: int, sizes: Sizes) -> dict:
    """Time every layer in-process and return the per-layer metrics."""
    built = {name: build(name, seed, run.OUT / "inputs", sizes) for name in WORKLOADS}
    sweep_seed = built["sweeps"].commands[0].expected["seed"]
    tracer = Tracer(f"{workload}:{seed}")
    values: dict[str, float] = {}
    failures: list[str] = []
    _probe_layers(tracer, values, sweep_seed, sizes)
    checks = _sweep_layers(tracer, values, failures, sweep_seed, sizes)
    checks += _montecarlo_layers(tracer, values, failures, sweep_seed, sizes)
    checks += _cli_layers(tracer, values, failures, built, sizes)

    spans_path = run.OUT / f"spans-{workload}.jsonl"
    tracer.write(spans_path)
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    return {
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name, _, _ in LAYER_METRICS},
        "attempted": checks,
        "failed": len(failures),
        "failures": failures,
        "notes": {
            "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(run.ROOT)),
            "tracing_overhead_pct": values["trace.overhead_pct"],
            "noise_bytes_per_chunk": "computed: 65536 x max oracle n x 8, not measured",
        },
    }
