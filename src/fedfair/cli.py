"""Command-line front end: audits, table reproduction, verification
sweeps, simulation runs, and parameter scans with CSV/JSON/table output.

Exit codes: 0 success, 1 verification or self-test failure, 2 usage or
input error, 141 output pipe closed by its reader (as if killed by
SIGPIPE).  Audit verdicts are data, not failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import IO, Callable, Sequence

from .egalitarian import (
    audit_egalitarian,
    bound_sweep,
    check_modularity,
    egalitarian_bound,
    inverse_size_error,
)
from .exceptions import FedFairError, UndefinedBound, ZeroDenominator
from .model import Coalition, FederationMethod, Player, PopulationParams
from .proportionality import (
    classify_proportionality,
    defection_threshold,
    individually_rational,
    subproportionality_threshold,
    verify_propstab,
)
from .sampling import describe_instance

# Published motivating-table cells (mu_e=10, sigma_sq=1, n_s=6), quoted at
# three significant figures: err_small, err_large, ratio, bound, size ratio.
REFERENCE_MOTIVATING = {
    20: (1.57, 0.491, 3.19, 5.0, 3.33),
    30: (1.67, 0.333, 5.0, 7.0, 5.0),
    40: (1.73, 0.251, 6.89, 9.0, 6.67),
}
# Agreement at the precision of the published cells: half a unit in the
# third significant figure.  (The n_l=40 ratio cell was evidently derived
# from the already-rounded error cells, so exact re-rounding of the true
# value cannot reproduce it; value-level agreement can.)
CELL_REL_TOL = 5e-3

METHOD_NAMES = {m.value: m for m in FederationMethod}
# The scan grid is built in memory, so its size is capped.
MAX_SCAN_ROWS = 100_000


class ScenarioFileError(FedFairError):
    """A scenario file failed structural validation."""


class _JsonObject(dict):
    """A decoded JSON object; ``duplicate`` is the first key it repeats."""

    def __init__(self, pairs: list[tuple[str, object]]) -> None:
        super().__init__(pairs)
        keys = [key for key, _ in pairs]
        self.duplicate = next((k for i, k in enumerate(keys) if k in keys[:i]), None)


def _require_object(
    value: object, where: str, allowed: Sequence[str], required: Sequence[str]
) -> dict:
    """``value`` as a JSON object with no repeated, unknown or missing field."""
    if not isinstance(value, dict):
        raise ScenarioFileError(f"{where} must be a JSON object")
    duplicate = getattr(value, "duplicate", None)
    if duplicate is not None:
        raise ScenarioFileError(f"{where}: duplicate field {duplicate!r}")
    for key in value:
        if key not in allowed:
            raise ScenarioFileError(f"{where}: unknown field {key!r}")
    for key in required:
        if key not in value:
            raise ScenarioFileError(f"{where}: missing field {key!r}")
    return value


def _require_number(value: object, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFileError(f"field {field!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioFileError(
            f"field {field!r} is out of the floating-point range"
        ) from None


def load_scenario_file(
    path: str,
) -> tuple[PopulationParams, Coalition, FederationMethod]:
    """Parse a scenario file (strict: unknown fields rejected) into the
    library values it describes."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle, object_pairs_hook=_JsonObject)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested too deeply to decode.
        raise ScenarioFileError(f"{path}: invalid JSON ({exc})") from exc
    fields = ("mu_e", "sigma_sq", "players", "method")
    data = _require_object(data, "top level", fields, fields)
    mu_e = _require_number(data["mu_e"], "mu_e")
    sigma_sq = _require_number(data["sigma_sq"], "sigma_sq")
    if not isinstance(data["players"], list):
        raise ScenarioFileError("field 'players' must be a list")
    players: list[tuple[str, float]] = []
    for idx, entry in enumerate(data["players"]):
        where = f"players[{idx}]"
        entry = _require_object(entry, where, ("id", "n"), ("n",))
        n = _require_number(entry["n"], f"{where}.n")
        pid = entry.get("id", f"p{idx + 1}")
        if not isinstance(pid, str):
            raise ScenarioFileError(f"{where}.id must be a string")
        players.append((pid, n))
    method = data["method"]
    if not isinstance(method, str) or method not in METHOD_NAMES:
        raise ScenarioFileError(
            f"field 'method' must be one of {sorted(METHOD_NAMES)}, "
            f"got {method!r}"
        )
    # Structure first, then the values' own invariants (sizes, ids).
    params = PopulationParams(mu_e, sigma_sq)
    coalition = Coalition(tuple(Player(pid, n) for pid, n in players))
    return params, coalition, METHOD_NAMES[method]


def _load_scenario(
    path: str, dump_scenario: str | None
) -> tuple[PopulationParams, Coalition, FederationMethod]:
    """Parse a scenario file, re-emitting it to ``dump_scenario`` if given."""
    params, coalition, method = load_scenario_file(path)
    if dump_scenario:
        with open(dump_scenario, "w", encoding="utf-8") as handle:
            record = {**describe_instance(params, coalition), "method": method.value}
            json.dump(record, handle, indent=2)
            handle.write("\n")
    return params, coalition, method


# ---------------------------------------------------------------------------
# Output rendering


def _cell(value: object, number: Callable[[float], str]) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return number(value)
    return str(value)


def _json_safe(row: dict) -> dict:
    """``row`` with each non-finite float replaced by its csv text, since
    RFC 8259 JSON has no Infinity or NaN."""
    return {
        key: _cell(value, repr)
        if isinstance(value, float) and not math.isfinite(value)
        else value
        for key, value in row.items()
    }


def _json_text(record: dict) -> str:
    """Compact RFC 8259 JSON text of ``record``, for one output cell."""
    return json.dumps(_json_safe(record), allow_nan=False)


def emit_rows(
    rows: Sequence[dict], columns: Sequence[str], fmt: str, out: IO[str]
) -> None:
    if fmt == "json":
        safe = {"rows": [_json_safe(row) for row in rows]}
        json.dump(safe, out, indent=2, allow_nan=False)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c), repr) for c in columns])
    else:
        cells = [[_cell(row.get(c), "{:.3g}".format) for c in columns] for row in rows]
        widths = [
            max(len(str(col)), *(len(r[i]) for r in cells)) if cells else len(str(col))
            for i, col in enumerate(columns)
        ]
        out.write("  ".join(str(c).ljust(w) for c, w in zip(columns, widths)).rstrip())
        out.write("\n")
        for r in cells:
            out.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
            out.write("\n")


# ---------------------------------------------------------------------------
# Subcommands


AUDIT_COLUMNS = [
    "kind",
    "id",
    "n",
    "error",
    "local_error",
    "prefers_local",
    "max_ratio",
    "worst_pair",
    "c",
    "bound",
    "egalitarian_satisfied",
    "proportionality",
    "individually_rational",
]


def run_audit(
    path: str, fmt: str, out: IO[str], dump_scenario: str | None = None
) -> int:
    params, coalition, method = _load_scenario(path, dump_scenario)
    rationality = individually_rational(coalition, method, params)
    proportionality = classify_proportionality(coalition, method, params)
    rows: list[dict] = []
    for entry in rationality.players:
        rows.append(
            {
                "kind": "player",
                "id": entry.player_id,
                "n": entry.n,
                "error": entry.coalition_error,
                "local_error": entry.local_error,
                "prefers_local": entry.prefers_local,
            }
        )
    summary: dict = {
        "kind": "coalition",
        "proportionality": proportionality.label.value,
        "individually_rational": rationality.individually_rational,
    }
    try:
        audit = audit_egalitarian(coalition, method, params)
        summary.update(
            max_ratio=audit.max_ratio,
            worst_pair="|".join(audit.worst_pair),
            c=audit.c_value,
            bound=audit.bound,
            egalitarian_satisfied=audit.satisfied,
        )
    except (UndefinedBound, ZeroDenominator):
        pass  # bound columns stay empty; verdicts above are still data
    rows.append(summary)
    emit_rows(rows, AUDIT_COLUMNS, fmt, out)
    return 0


REPRODUCE_COLUMNS = [
    "n_l",
    "err_small",
    "err_large",
    "ratio",
    "bound",
    "size_ratio",
    "matches",
]


def _pair_row(n_s: float, n_l: float, params: PopulationParams) -> dict:
    """The uniform-federation cells of the pair s (n_s) and l (n_l): the
    scan columns up to ``individually_rational``."""
    coalition = Coalition((Player("s", n_s), Player("l", n_l)))
    report = classify_proportionality(coalition, FederationMethod.UNIFORM, params)
    rationality = individually_rational(coalition, FederationMethod.UNIFORM, params)
    errs = {r.player_id: r.coalition_error for r in rationality.players}
    err_s, err_l = errs["s"], errs["l"]
    c_value, bound = (
        egalitarian_bound(max(n_s, n_l), params) if params.mu_e > 0 else (None, None)
    )
    return {
        "n_s": n_s,
        "n_l": n_l,
        "mu_e": params.mu_e,
        "sigma_sq": params.sigma_sq,
        "err_small": err_s,
        "err_large": err_l,
        "ratio": err_s / err_l if err_l else None,
        "c": c_value,
        "bound": bound,
        "size_ratio": n_l / n_s,
        "proportionality": report.label.value,
        "individually_rational": rationality.individually_rational,
    }


def run_reproduce(table_id: str, fmt: str, out: IO[str]) -> int:
    if table_id != "motivating":
        print(f"error: unknown table id {table_id!r}", file=sys.stderr)
        return 2
    params = PopulationParams(mu_e=10.0, sigma_sq=1.0)
    rows = []
    for n_l, reference in REFERENCE_MOTIVATING.items():
        pair = _pair_row(6.0, float(n_l), params)
        cells = {column: pair[column] for column in REPRODUCE_COLUMNS[1:-1]}
        matches = all(
            abs(got - want) <= CELL_REL_TOL * abs(want)
            for got, want in zip(cells.values(), reference)
        )
        rows.append({"n_l": n_l, **cells, "matches": matches})
    emit_rows(rows, REPRODUCE_COLUMNS, fmt, out)
    if not all(row["matches"] for row in rows):
        print("error: computed cells diverge from the published table", file=sys.stderr)
        return 1
    return 0


def run_verify(suite: str, seed: int, instances: int, fmt: str, out: IO[str]) -> int:
    if instances < 1:
        # A sweep over no instances would report a vacuous pass.
        print(f"error: --instances must be >= 1, got {instances}", file=sys.stderr)
        return 2
    if suite == "modularity":
        columns = [
            "method", "property", "passed", "checks", "expected_modular",
            "counterexample",
        ]
        rows, passed = [], True
        for method, expect_pass in (
            (FederationMethod.UNIFORM, True),
            (FederationMethod.FINE_GRAINED, True),
            (inverse_size_error, False),
        ):
            report = check_modularity(method)
            # A sound checker must clear the honest methods and catch the
            # inverse-size weighting on property 1.
            if expect_pass:
                passed = passed and report.all_passed
            else:
                passed = passed and not report.result(1).passed
            for prop in report.properties:
                rows.append(
                    {
                        "method": report.method,
                        "property": prop.prop,
                        "passed": prop.passed,
                        "checks": prop.checks,
                        "expected_modular": expect_pass,
                        "counterexample": _json_text(prop.counterexample)
                        if prop.counterexample
                        else None,
                    }
                )
    else:
        if suite == "propstab":
            result = verify_propstab(instance_count=instances, seed=seed)
            summary = {
                "instances": result.instances,
                "counterexamples": len(result.counterexamples),
            }
            details = [(ce["kind"], ce) for ce in result.counterexamples]
        elif suite == "egalitarian-bound":
            result = bound_sweep(instance_count=instances, seed=seed)
            summary = {
                "instances": result.instances,
                "checks": result.checks,
                "violations": len(result.violations),
                "max_ratio_over_bound": result.max_quotient,
            }
            details = [("violation", violation) for violation in result.violations]
        else:
            print(f"error: unknown verification suite {suite!r}", file=sys.stderr)
            return 2
        # A summary row, then one row per replayable failure; every row has
        # every column so JSON rows share one shape.
        passed = result.passed
        columns = ["kind", *summary, "passed", "detail"]
        rows = [{"kind": "summary", **summary, "passed": passed, "detail": None}]
        for kind, detail in details:
            row = {"kind": kind, "passed": False, "detail": _json_text(detail)}
            rows.append(dict.fromkeys(columns) | row)
    emit_rows(rows, columns, fmt, out)
    return 0 if passed else 1


SIMULATE_COLUMNS = [
    "id",
    "n",
    "method",
    "trials",
    "seed",
    "empirical_mse",
    "standard_error",
    "closed_form",
    "z_score",
]


def run_simulate(
    path: str,
    trials: int,
    seed: int,
    fmt: str,
    out: IO[str],
    dump_scenario: str | None = None,
) -> int:
    # The oracle needs numpy; the other commands start without it.
    from .montecarlo import SimulationSpec, simulate_error

    params, coalition, method = _load_scenario(path, dump_scenario)
    rows = []
    for index, player in enumerate(coalition.players):
        spec = SimulationSpec(
            coalition=coalition,
            target=player.id,
            params=params,
            method=method,
            trials=trials,
            seed=seed + index,
        )
        result = simulate_error(spec)
        rows.append(
            {
                "id": player.id,
                "n": player.n,
                "method": method.value,
                "trials": result.trials,
                "seed": seed + index,
                "empirical_mse": result.empirical_mse,
                "standard_error": result.standard_error,
                "closed_form": result.closed_form,
                "z_score": result.z_score,
            }
        )
    emit_rows(rows, SIMULATE_COLUMNS, fmt, out)
    return 0


SCAN_COLUMNS = [
    "n_s",
    "n_l",
    "mu_e",
    "sigma_sq",
    "err_small",
    "err_large",
    "ratio",
    "c",
    "bound",
    "size_ratio",
    "proportionality",
    "individually_rational",
    "defection_threshold",
    "subproportionality_threshold",
]


def run_scan(
    n_s: float,
    nl_start: float,
    nl_stop: float,
    nl_step: float,
    mu_e: float,
    sigma_sq: float,
    fmt: str,
    out: IO[str],
) -> int:
    if nl_step <= 0:
        print("error: --nl-step must be positive", file=sys.stderr)
        return 2
    span = (nl_stop - nl_start) / nl_step
    if not (math.isfinite(span) and math.isfinite(nl_step)):
        print("error: --nl-start, --nl-stop and --nl-step must be finite", file=sys.stderr)
        return 2
    # Each row is computed from its index, so no rounding accumulates and
    # the endpoint is kept whenever it lies on the grid.
    count = math.floor(span + 1e-9) + 1
    if count > MAX_SCAN_ROWS:
        print(
            f"error: the n_l range needs more than {MAX_SCAN_ROWS} rows; "
            "use a larger --nl-step",
            file=sys.stderr,
        )
        return 2
    if count < 1:
        print("error: empty n_l range", file=sys.stderr)
        return 2
    params = PopulationParams(mu_e=mu_e, sigma_sq=sigma_sq)
    rest = Coalition((Player("s", n_s),))
    thresholds = {
        "defection_threshold": defection_threshold(rest, params),
        "subproportionality_threshold": subproportionality_threshold(
            rest, "s", params
        ),
    }
    rows = [
        {**_pair_row(n_s, nl_start + i * nl_step, params), **thresholds}
        for i in range(count)
    ]
    emit_rows(rows, SCAN_COLUMNS, fmt, out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedfair",
        description=(
            "Expected-error accounting and fairness audits for the "
            "mean-estimation federation game"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("csv", "json", "table"),
        default="table",
        help="output format (default: table)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="master seed for randomized commands"
    )
    parser.add_argument(
        "--out", default=None, help="write output to this path instead of stdout"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="audit one scenario file")
    p_audit.add_argument("scenario", help="path to a scenario JSON file")
    p_audit.add_argument(
        "--dump-scenario", default=None, help="re-emit the parsed scenario as JSON"
    )

    p_repro = sub.add_parser("reproduce", help="recompute a published table")
    p_repro.add_argument("table", help="table id (motivating)")

    p_verify = sub.add_parser("verify", help="run a verification sweep")
    p_verify.add_argument(
        "suite", choices=("modularity", "propstab", "egalitarian-bound")
    )
    p_verify.add_argument("--instances", type=int, default=10_000)

    p_sim = sub.add_parser("simulate", help="Monte Carlo check of a scenario")
    p_sim.add_argument("scenario", help="path to a scenario JSON file")
    p_sim.add_argument("--trials", type=int, default=100_000)
    p_sim.add_argument(
        "--dump-scenario", default=None, help="re-emit the parsed scenario as JSON"
    )

    p_scan = sub.add_parser("scan", help="sweep the large player's size")
    p_scan.add_argument("--ns", type=float, required=True, help="small player's n")
    p_scan.add_argument("--nl-start", type=float, required=True)
    p_scan.add_argument("--nl-stop", type=float, required=True)
    p_scan.add_argument("--nl-step", type=float, required=True)
    p_scan.add_argument("--mu-e", type=float, required=True)
    p_scan.add_argument("--sigma-sq", type=float, required=True)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed a diagnostic
        code = exc.code
        return code if isinstance(code, int) else 2

    def dispatch(out: IO[str]) -> int:
        if args.command == "audit":
            return run_audit(args.scenario, args.format, out, args.dump_scenario)
        if args.command == "reproduce":
            return run_reproduce(args.table, args.format, out)
        if args.command == "verify":
            return run_verify(args.suite, args.seed, args.instances, args.format, out)
        if args.command == "simulate":
            return run_simulate(
                args.scenario,
                args.trials,
                args.seed,
                args.format,
                out,
                args.dump_scenario,
            )
        if args.command == "scan":
            return run_scan(
                args.ns,
                args.nl_start,
                args.nl_stop,
                args.nl_step,
                args.mu_e,
                args.sigma_sq,
                args.format,
                out,
            )
        raise AssertionError(f"unhandled command {args.command!r}")

    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                return dispatch(handle)
        code = dispatch(sys.stdout)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away (as with `| head`): not an input error.
        # Point stdout at devnull so the interpreter's final flush does
        # not fail on the same pipe.
        if not args.out:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (FedFairError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
