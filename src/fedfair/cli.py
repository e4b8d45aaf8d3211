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
    FairnessAudit,
    _audit,
    bound_sweep,
    check_modularity,
    inverse_size_error,
)
from .errors import Column, Columns, _errors, in_order
from .exceptions import FedFairError, UndefinedBound, ZeroDenominator
from .model import Coalition, FederationMethod, Player, PopulationParams
from .proportionality import (
    ProportionalityReport,
    RationalityReport,
    _classify,
    _rationality,
    defection_threshold,
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
# An audit judges every pair and a simulation chunk holds 65,536 floats per
# player, so the players of a scenario file are capped.
MAX_PLAYERS = 100
# Every seed, instance count and trial count is an unsigned 64-bit integer.
INT_LIMIT = 2**64


class ScenarioFileError(FedFairError):
    """A scenario file failed structural validation."""


class _JsonObject(dict):
    """A decoded JSON object; ``duplicate`` is the first key it repeats."""

    def __init__(self, pairs: list[tuple[str, object]]) -> None:
        super().__init__()
        self.duplicate = None
        for key, value in pairs:
            if key in self and self.duplicate is None:
                self.duplicate = key
            self[key] = value


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
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # JSON text is UTF-8 (RFC 8259).  RecursionError: arrays or objects
        # nested too deeply to decode.
        raise ScenarioFileError(f"{path}: invalid JSON ({exc})") from exc
    fields = ("mu_e", "sigma_sq", "players", "method")
    data = _require_object(data, "top level", fields, fields)
    mu_e = _require_number(data["mu_e"], "mu_e")
    sigma_sq = _require_number(data["sigma_sq"], "sigma_sq")
    if not isinstance(data["players"], list):
        raise ScenarioFileError("field 'players' must be a list")
    if len(data["players"]) > MAX_PLAYERS:
        raise ScenarioFileError(f"field 'players' lists over {MAX_PLAYERS} players")
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


def _dump_scenario(
    path: str | None,
    params: PopulationParams,
    coalition: Coalition,
    method: FederationMethod,
) -> None:
    """Re-emit a parsed scenario to ``path``, if given.  Commands call it
    once their rows are computed, so a rejected command writes no dump."""
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            record = {**describe_instance(params, coalition), "method": method.value}
            json.dump(record, handle, indent=2)
            handle.write("\n")


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
# Subcommands: each takes the parsed arguments, raises on bad input and
# returns its output, which ``main`` alone writes.

# Columns, rows, and a note when the command fails its own self-test.
Output = tuple[Sequence[str], list[dict], str | None]


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


def _assess(
    ids: Sequence[str],
    columns: Columns,
    method: FederationMethod,
    params: PopulationParams,
) -> list[tuple[RationalityReport, ProportionalityReport, FairnessAudit | None]]:
    """The verdicts on each coalition of a batch, whose members ``ids`` have
    one column of sizes each, from one evaluation of its errors and one of
    its local errors; the 2c+1 audit is None where mu_e, sigma_sq or an
    error is zero.  A failing batch raises as ``in_order`` does."""

    def evaluate(*columns: Column) -> list[tuple]:
        for pid, column in zip(ids, columns):
            for n in column:
                Player(pid, n)  # the size check of each member
        mu_e, sigma_sq = [[value] * len(columns[0]) for value in params]
        errs = _errors(columns, method, mu_e, sigma_sq, ids)
        local = _errors(columns, FederationMethod.LOCAL, mu_e, sigma_sq, ids)
        verdicts = []
        for sizes, e, le in zip(zip(*columns), zip(*errs), zip(*local)):
            rationality = _rationality(ids, sizes, e, le, method)
            proportionality = _classify(ids, sizes, e, method)
            try:
                audit = _audit(ids, sizes, e, method, params)
            except (UndefinedBound, ZeroDenominator):
                audit = None
            verdicts.append((rationality, proportionality, audit))
        return verdicts

    return in_order(evaluate, *columns)


def run_audit(args: argparse.Namespace) -> Output:
    params, coalition, method = load_scenario_file(args.scenario)
    columns = [[n] for n in coalition.sizes()]
    verdicts = _assess(coalition.ids(), columns, method, params)
    rationality, proportionality, audit = verdicts[0]
    rows: list[dict] = [
        {
            "kind": "player",
            "id": entry.player_id,
            "n": entry.n,
            "error": entry.coalition_error,
            "local_error": entry.local_error,
            "prefers_local": entry.prefers_local,
        }
        for entry in rationality.players
    ]
    summary: dict = {
        "kind": "coalition",
        "proportionality": proportionality.label.value,
        "individually_rational": rationality.individually_rational,
    }
    if audit:
        summary.update(
            max_ratio=audit.max_ratio,
            worst_pair="|".join(audit.worst_pair),
            c=audit.c_value,
            bound=audit.bound,
            egalitarian_satisfied=audit.satisfied,
        )
    rows.append(summary)
    _dump_scenario(args.dump_scenario, params, coalition, method)
    return AUDIT_COLUMNS, rows, None


REPRODUCE_COLUMNS = [
    "n_l",
    "err_small",
    "err_large",
    "ratio",
    "bound",
    "size_ratio",
    "matches",
]


def _pair_rows(n_s: float, n_ls: Column, params: PopulationParams) -> list[dict]:
    """The uniform-federation cells of the pairs s (n_s) and l (each of
    ``n_ls``) as one batch: the scan columns up to ``individually_rational``."""
    # Ids sort l < s.
    columns = [n_ls, [n_s] * len(n_ls)]
    verdicts = _assess(("l", "s"), columns, FederationMethod.UNIFORM, params)
    rows = []
    for n_l, (rationality, report, audit) in zip(n_ls, verdicts):
        err = {r.player_id: r.coalition_error for r in rationality.players}
        rows.append(
            {
                "n_s": n_s,
                "n_l": n_l,
                "mu_e": params.mu_e,
                "sigma_sq": params.sigma_sq,
                "err_small": err["s"],
                "err_large": err["l"],
                "ratio": err["s"] / err["l"] if err["l"] else None,
                "c": audit.c_value if audit else None,
                "bound": audit.bound if audit else None,
                "size_ratio": n_l / n_s,
                "proportionality": report.label.value,
                "individually_rational": rationality.individually_rational,
            }
        )
    return rows


def run_reproduce(args: argparse.Namespace) -> Output:
    params = PopulationParams(mu_e=10.0, sigma_sq=1.0)
    rows = []
    pairs = _pair_rows(6.0, [float(n_l) for n_l in REFERENCE_MOTIVATING], params)
    for (n_l, reference), pair in zip(REFERENCE_MOTIVATING.items(), pairs):
        cells = {column: pair[column] for column in REPRODUCE_COLUMNS[1:-1]}
        matches = all(
            abs(got - want) <= CELL_REL_TOL * abs(want)
            for got, want in zip(cells.values(), reference)
        )
        rows.append({"n_l": n_l, **cells, "matches": matches})
    if all(row["matches"] for row in rows):
        return REPRODUCE_COLUMNS, rows, None
    return REPRODUCE_COLUMNS, rows, "computed cells diverge from the published table"


def run_verify(args: argparse.Namespace) -> Output:
    if args.suite == "modularity":
        if args.instances is not None:
            raise ValueError("--instances applies to the sweeps, not to modularity")
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
        count = 10_000 if args.instances is None else args.instances
        if args.suite == "propstab":
            result = verify_propstab(instance_count=count, seed=args.seed)
            summary = {
                "instances": result.instances,
                "counterexamples": len(result.counterexamples),
            }
            details = [(ce["kind"], ce) for ce in result.counterexamples]
        else:  # egalitarian-bound; argparse admits no other suite
            result = bound_sweep(instance_count=count, seed=args.seed)
            summary = {
                "instances": result.instances,
                "checks": result.checks,
                "violations": len(result.violations),
                "max_ratio_over_bound": result.max_quotient,
            }
            details = [("violation", violation) for violation in result.violations]
        # A summary row, then one row per replayable failure; every row has
        # every column so JSON rows share one shape.
        passed = result.passed
        columns = ["kind", *summary, "passed", "detail"]
        rows = [{"kind": "summary", **summary, "passed": passed, "detail": None}]
        for kind, detail in details:
            row = {"kind": kind, "passed": False, "detail": _json_text(detail)}
            rows.append(dict.fromkeys(columns) | row)
    return columns, rows, None if passed else f"verify {args.suite} failed"


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


def run_simulate(args: argparse.Namespace) -> Output:
    # The oracle needs numpy; the other commands start without it.
    from .montecarlo import SimulationSpec, simulate_error

    params, coalition, method = load_scenario_file(args.scenario)
    seed = args.seed
    last_seed = seed + len(coalition) - 1
    if last_seed >= INT_LIMIT:
        raise ValueError(
            f"--seed {seed} is too large for {len(coalition)} players: "
            f"they are simulated at seeds {seed} to {last_seed}, "
            "which must be below 2**64"
        )
    rows = []
    for index, player in enumerate(coalition.players):
        spec = SimulationSpec(
            coalition=coalition,
            target=player.id,
            params=params,
            method=method,
            trials=args.trials,
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
    _dump_scenario(args.dump_scenario, params, coalition, method)
    return SIMULATE_COLUMNS, rows, None


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


def run_scan(args: argparse.Namespace) -> Output:
    n_s, nl_start, nl_step = args.ns, args.nl_start, args.nl_step
    if nl_step <= 0:
        raise ValueError("--nl-step must be positive")
    span = (args.nl_stop - nl_start) / nl_step
    if not (math.isfinite(span) and math.isfinite(nl_step)):
        raise ValueError("--nl-start, --nl-stop and --nl-step must be finite")
    # Each row is computed from its index, so no rounding accumulates and
    # the endpoint is kept whenever it lies on the grid.
    count = math.floor(span + 1e-9) + 1
    if count > MAX_SCAN_ROWS:
        raise ValueError(
            f"the n_l range needs more than {MAX_SCAN_ROWS} rows; "
            "use a larger --nl-step"
        )
    if count < 1:
        raise ValueError("empty n_l range")
    params = PopulationParams(mu_e=args.mu_e, sigma_sq=args.sigma_sq)
    rest = Coalition((Player("s", n_s),))
    thresholds = {
        "defection_threshold": defection_threshold(rest, params),
        "subproportionality_threshold": subproportionality_threshold(
            rest, "s", params
        ),
    }
    n_ls = [nl_start + i * nl_step for i in range(count)]
    rows = [{**pair, **thresholds} for pair in _pair_rows(n_s, n_ls, params)]
    return SCAN_COLUMNS, rows, None


# ---------------------------------------------------------------------------
# Argument parsing


def _integer(low: int) -> Callable[[str], int]:
    """An argparse type: an integer in [``low``, 2**64)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if not low <= value < INT_LIMIT:
            raise argparse.ArgumentTypeError(
                f"must be an integer in [{low}, 2**64), got {text!r}"
            )
        return value

    return parse


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
        "--seed",
        type=_integer(0),
        default=42,
        help="master seed for randomized commands, in [0, 2**64) (default: 42)",
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
    p_audit.set_defaults(run=run_audit)

    p_repro = sub.add_parser("reproduce", help="recompute a published table")
    p_repro.add_argument("table", choices=("motivating",), help="table id")
    p_repro.set_defaults(run=run_reproduce)

    p_verify = sub.add_parser("verify", help="run a verification sweep")
    p_verify.add_argument(
        "suite", choices=("modularity", "propstab", "egalitarian-bound")
    )
    # For the two sweeps only (default 10,000); a sweep over no instances
    # would report a vacuous pass.
    p_verify.add_argument("--instances", type=_integer(1))
    p_verify.set_defaults(run=run_verify)

    p_sim = sub.add_parser("simulate", help="Monte Carlo check of a scenario")
    p_sim.add_argument("scenario", help="path to a scenario JSON file")
    # A standard error needs at least two trials.
    p_sim.add_argument("--trials", type=_integer(2), default=100_000)
    p_sim.add_argument(
        "--dump-scenario", default=None, help="re-emit the parsed scenario as JSON"
    )
    p_sim.set_defaults(run=run_simulate)

    p_scan = sub.add_parser("scan", help="sweep the large player's size")
    p_scan.add_argument("--ns", type=float, required=True, help="small player's n")
    p_scan.add_argument("--nl-start", type=float, required=True)
    p_scan.add_argument("--nl-stop", type=float, required=True)
    p_scan.add_argument("--nl-step", type=float, required=True)
    p_scan.add_argument("--mu-e", type=float, required=True)
    p_scan.add_argument("--sigma-sq", type=float, required=True)
    p_scan.set_defaults(run=run_scan)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed a diagnostic
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        # The rows are built before the output is opened, so a rejected
        # command leaves an existing --out file as it was.
        columns, rows, failure = args.run(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                emit_rows(rows, columns, args.format, handle)
        else:
            emit_rows(rows, columns, args.format, sys.stdout)
            sys.stdout.flush()  # a closed pipe shows here, not at exit
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
    if failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
