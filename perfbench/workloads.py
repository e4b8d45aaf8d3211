"""The benchmark's three workloads: seeded inputs, CLI command lists and
the checks that every command's output must pass.

Every input derives from the workload seed, so one seed always yields the
same scenario files, CLI arguments and expected values.  Expected values
come from the library's public functions in the benchmark process, never
from the CLI under test.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from fedfair.egalitarian import audit_egalitarian
from fedfair.errors import expected_error, local_error
from fedfair.model import Coalition, FederationMethod, Player, PopulationParams
from fedfair.montecarlo import CHUNK_TRIALS
from fedfair.proportionality import classify_proportionality, individually_rational

WORKLOADS = ("sweeps", "oracle", "interactive")
METHODS = tuple(m.value for m in FederationMethod)
FORMATS = ("csv", "json", "table")
# The simulate rows are an oracle test: |z| above this fails the row, the
# same threshold as the package's own suite.
Z_LIMIT = 4.0
# (small, large) player n of each oracle scenario.  Per-chunk cost grows
# with the coalition's total n, so fixing both keeps a pass's work the same
# for every seed (a seeded small player moved the 10-sample rung's cost by
# up to 45%); the seed moves the method, the constants and the Monte Carlo
# seed.  The top rung also fixes the noise matrix size that sets peak
# memory (65,536 x 200 float64).  An odd number of rungs puts the median
# latency inside one rung's group of calls.
ORACLE_LADDER = ((1, 2), (2, 10), (3, 20), (4, 35), (5, 50), (6, 100), (6, 200))
ORACLE_LARGEST = tuple(large for _, large in ORACLE_LADDER)

# Parse errors a malformed CLI output can raise inside a check.
CHECK_ERRORS = (ValueError, KeyError, IndexError, TypeError, csv.Error)


@dataclass(frozen=True)
class Sizes:
    """How much work one pass and one traced run do."""

    sweep_instances: int = 10_000
    sim_trials: int = 2 * CHUNK_TRIALS
    audits: int = 10  # cycles through every (method, format) pair
    # Scan sizes, formats cycling csv/json/table.  Four 3000-row scans make
    # the slowest 16% of an interactive pass one kind of call, so the p90
    # command is one of them rather than on the edge of that group.
    scan_rows: tuple[int, ...] = (3, 3, 3, 30, 30, 30, 300, 300, 300, 3000, 3000, 3000, 3000)
    min_commands: int = 100  # interactive: per run, so p90 has 10 samples above it
    setup_reps: int = 1  # after each whole pass, besides the one before the first
    probe_instances: int = 600
    probe_reps: int = 3
    chunk_reps: int = 3
    suite_trials: int = 2 * CHUNK_TRIALS
    cli_reps: int = 3


FULL = Sizes()
TINY = Sizes(
    sweep_instances=50,
    sim_trials=4096,
    audits=9,
    scan_rows=(3, 3, 3, 30),
    min_commands=1,
    setup_reps=1,
    probe_instances=20,
    probe_reps=1,
    chunk_reps=1,
    suite_trials=4096,
    cli_reps=1,
)


@dataclass(frozen=True)
class Command:
    """One CLI call: arguments after ``python -m fedfair.cli``, the check
    its exit code and stdout must pass, and the work units it performs
    (instances for sweeps, trials for the oracle, 1 per interactive call)."""

    kind: str
    argv: tuple[str, ...]
    check: Callable[[Any, int, str], str | None]
    expected: Any
    work: int = 1

    def verdict(self, code: int, out: str) -> str | None:
        """None when the output is right, else what is wrong with it."""
        try:
            return self.check(self.expected, code, out)
        except CHECK_ERRORS as exc:
            return f"unparseable output: {exc!r}"


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]
    scenario_paths: tuple[Path, ...]
    min_commands: int = 1


# ---------------------------------------------------------------------------
# Output parsing


def parse_rows(fmt: str, out: str) -> list[dict]:
    """Rows of a CLI result in any of the three output formats."""
    if fmt == "json":
        return json.loads(out)["rows"]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(out)))
    lines = out.splitlines()
    # Table columns are left-justified and two-space separated, so each
    # header name starts its column and empty cells stay in place.
    starts = [(m.group(), m.start()) for m in re.finditer(r"\S+", lines[0])]
    rows = []
    for line in lines[1:]:
        row = {}
        for i, (name, start) in enumerate(starts):
            end = starts[i + 1][1] if i + 1 < len(starts) else None
            row[name] = line[start:end].strip()
        rows.append(row)
    return rows


def table_text(value: object) -> str:
    """The CLI's 3-significant-figure rendering of a table cell."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return f"{value:.3g}"
    return str(value)


def cell_matches(fmt: str, cell: object, value: object) -> bool:
    """Whether an output cell carries ``value``: bit-identical for csv and
    json, the rounded rendering for table."""
    if fmt == "json":
        return type(cell) is type(value) and cell == value
    if fmt == "table":
        return cell == table_text(value)
    if isinstance(value, bool):
        return cell == ("true" if value else "false")
    if isinstance(value, float):
        return float(cell) == value  # repr() round-trips exactly
    return cell == str(value)


# ---------------------------------------------------------------------------
# Checks: each returns None on success or a one-line reason.


def check_sweep(expected: dict, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    rows = parse_rows("csv", out)
    summary = rows[0]
    if summary["kind"] != "summary" or int(summary["instances"]) != expected["instances"]:
        return f"bad summary row {summary}"
    bad = int(summary[expected["bad_column"]])
    if bad or summary["passed"] != "true" or len(rows) != 1:
        return f"{bad} {expected['bad_column']} reported"
    return None


def check_modularity(expected: None, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    rows = parse_rows("csv", out)
    if len(rows) != 15:
        return f"{len(rows)} rows, expected 15 (3 methods x 5 properties)"
    for row in rows:
        modular = row["expected_modular"] == "true"
        if modular and row["passed"] != "true":
            return f"{row['method']} failed property {row['property']}"
        if not modular and row["property"] == "1" and row["passed"] != "false":
            return "inverse-size weighting was not caught on property 1"
    return None


def check_audit(expected: dict, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    fmt = expected["format"]
    rows = parse_rows(fmt, out)
    if len(rows) != len(expected["rows"]):
        return f"{len(rows)} rows, expected {len(expected['rows'])}"
    for row, want in zip(rows, expected["rows"]):
        for column, value in want.items():
            if not cell_matches(fmt, row[column], value):
                return f"{column}={row[column]!r}, expected {value!r}"
    return None


def check_reproduce(expected: dict, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    rows = parse_rows(expected["format"], out)
    if len(rows) != 3 or not all(
        cell_matches(expected["format"], r["matches"], True) for r in rows
    ):
        return "motivating table not reproduced"
    return None


def check_scan(expected: dict, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    rows = parse_rows(expected["format"], out)
    if len(rows) != expected["rows"]:
        return f"{len(rows)} rows, expected {expected['rows']}"
    return None


def check_simulate(expected: dict, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    rows = parse_rows("csv", out)
    if len(rows) != len(expected["closed_form"]):
        return f"{len(rows)} rows, expected {len(expected['closed_form'])}"
    for row in rows:
        if int(row["trials"]) != expected["trials"]:
            return f"{row['id']}: {row['trials']} trials, expected {expected['trials']}"
        if float(row["closed_form"]) != expected["closed_form"][row["id"]]:
            return f"{row['id']}: closed_form {row['closed_form']} differs from the library"
        if not abs(float(row["z_score"])) <= Z_LIMIT:
            return f"{row['id']}: |z| = {abs(float(row['z_score']))} > {Z_LIMIT}"
    return None


# ---------------------------------------------------------------------------
# Input generation


def scenario_objects(
    scenario: dict,
) -> tuple[PopulationParams, Coalition, FederationMethod]:
    """The library values a scenario file parses to (numbers as floats)."""
    params = PopulationParams(float(scenario["mu_e"]), float(scenario["sigma_sq"]))
    coalition = Coalition(
        tuple(Player(p["id"], float(p["n"])) for p in scenario["players"])
    )
    return params, coalition, FederationMethod(scenario["method"])


def audit_expectation(scenario: dict) -> list[dict]:
    """The rows ``fedfair audit`` must print, from in-process library calls."""
    params, coalition, method = scenario_objects(scenario)
    rows: list[dict] = []
    for p in coalition.ordered():
        err = expected_error(coalition, p.id, method, params)
        local = local_error(p, params)
        rows.append({"kind": "player", "id": p.id, "n": p.n, "error": err,
                     "local_error": local})
    audit = audit_egalitarian(coalition, method, params)
    rows.append(
        {
            "kind": "coalition",
            "max_ratio": audit.max_ratio,
            "worst_pair": "|".join(audit.worst_pair),
            "c": audit.c_value,
            "bound": audit.bound,
            "egalitarian_satisfied": audit.satisfied,
            "proportionality": classify_proportionality(
                coalition, method, params
            ).label.value,
            "individually_rational": individually_rational(
                coalition, method, params
            ).individually_rational,
        }
    )
    return rows


def _write(path: Path, scenario: dict) -> Path:
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return path


def _sweeps(rng: np.random.Generator, inputs: Path, sizes: Sizes) -> Workload:
    n = sizes.sweep_instances
    commands = []
    for suite, bad in (("egalitarian-bound", "violations"), ("propstab", "counterexamples")):
        seed = int(rng.integers(0, 2**31))
        commands.append(
            Command(
                f"verify.{suite}",
                ("--format", "csv", "--seed", str(seed), "verify", suite,
                 "--instances", str(n)),
                check_sweep,
                {"instances": n, "bad_column": bad, "seed": seed},
                n,
            )
        )
    commands.append(
        Command("verify.modularity", ("--format", "csv", "verify", "modularity"),
                check_modularity, None, 0)
    )
    return Workload(tuple(commands), ())


def _oracle(rng: np.random.Generator, inputs: Path, sizes: Sizes) -> Workload:
    commands, paths = [], []
    for small, large in ORACLE_LADDER:
        scenario = {
            "mu_e": float(rng.uniform(0.5, 20.0)),
            "sigma_sq": float(rng.uniform(0.5, 20.0)),
            "players": [{"id": "s", "n": small}, {"id": "l", "n": large}],
            "method": METHODS[int(rng.integers(len(METHODS)))],
        }
        path = _write(inputs / f"oracle-{large}.json", scenario)
        paths.append(path)
        params, coalition, method = scenario_objects(scenario)
        closed = {p.id: expected_error(coalition, p.id, method, params)
                  for p in coalition.players}
        seed = int(rng.integers(0, 2**31))
        commands.append(
            Command(
                "simulate",
                ("--format", "csv", "--seed", str(seed), "simulate", str(path),
                 "--trials", str(sizes.sim_trials)),
                check_simulate,
                {"closed_form": closed, "trials": sizes.sim_trials},
                sizes.sim_trials * len(closed),
            )
        )
    return Workload(tuple(commands), tuple(paths))


def _interactive(rng: np.random.Generator, inputs: Path, sizes: Sizes) -> Workload:
    commands, paths = [], []
    for i in range(sizes.audits):
        fmt, method = FORMATS[i % 3], METHODS[i // 3 % 3]
        k = 2 + i % 5
        scenario = {
            "mu_e": float(rng.uniform(0.01, 50.0)),
            "sigma_sq": float(rng.uniform(0.01, 50.0)),
            "players": [{"id": f"p{j + 1}", "n": float(n)}
                        for j, n in enumerate(rng.uniform(1.0, 100.0, k))],
            "method": method,
        }
        path = _write(inputs / f"audit-{i}.json", scenario)
        paths.append(path)
        commands.append(
            Command("audit", ("--format", fmt, "audit", str(path)), check_audit,
                    {"format": fmt, "rows": audit_expectation(scenario)})
        )
    for fmt in FORMATS:
        commands.append(
            Command("reproduce", ("--format", fmt, "reproduce", "motivating"),
                    check_reproduce, {"format": fmt})
        )
    for i, rows in enumerate(sizes.scan_rows):
        fmt = FORMATS[i % 3]
        # Integer endpoints keep the row count exact under any
        # accumulation of the step.
        step = int(rng.choice((1, 2, 5)))
        start = int(rng.integers(1, 51))
        argv = (
            "--format", fmt, "scan",
            "--ns", str(int(rng.integers(1, 21))),
            "--nl-start", str(start),
            "--nl-stop", str(start + (rows - 1) * step),
            "--nl-step", str(step),
            "--mu-e", repr(float(rng.uniform(0.01, 50.0))),
            "--sigma-sq", repr(float(rng.uniform(0.01, 50.0))),
        )
        commands.append(Command("scan", argv, check_scan, {"format": fmt, "rows": rows}))
    return Workload(tuple(commands), tuple(paths), sizes.min_commands)


_GENERATORS = {"sweeps": _sweeps, "oracle": _oracle, "interactive": _interactive}


def build(name: str, seed: int, inputs: Path, sizes: Sizes = FULL) -> Workload:
    """Generate a workload's inputs under ``inputs`` from its seed."""
    directory = inputs / name
    directory.mkdir(parents=True, exist_ok=True)
    # Each workload draws from its own stream, so adding one never shifts
    # another's inputs.
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _GENERATORS[name](rng, directory, sizes)
