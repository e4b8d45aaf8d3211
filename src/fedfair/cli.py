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
from itertools import repeat
from typing import IO, Callable, Sequence

from .errors import Column, Columns, _errors, _one
from .exceptions import FedFairError, UndefinedBound, ZeroDenominator
from .model import (Coalition, FederationMethod, Player, PopulationParams, check_integer,
                    check_sizes, describe_instance)

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


# A cell's text by the type of its value; a float's depends on the format.
CELL_TEXT = {type(None): "".format, bool: ("false", "true").__getitem__}
INFINITIES = {math.inf: "Infinity", -math.inf: "-Infinity"}
# Rows rendered per write of a csv or json text.
BLOCK_ROWS = 256


def _texts(rows: Sequence[dict], column: str, number: Callable[[float], str]) -> list:
    """The cells of one output column as text: empty for None, true or
    false, Infinity or -Infinity, ``number`` of any other float and
    ``str`` of anything else."""
    values = list(map(dict.get, rows, repeat(column)))
    text = {**CELL_TEXT, float: number}
    if math.inf in values or -math.inf in values:
        text[float] = lambda value: INFINITIES.get(value) or number(value)
    return [text.get(type(value), str)(value) for value in values]


def _json_safe(row: dict) -> dict:
    """``row`` with each non-finite float replaced by its csv text, since
    RFC 8259 JSON has no Infinity or NaN."""
    bad = [k for k, v in row.items() if isinstance(v, float) and not math.isfinite(v)]
    return {**row, **{k: INFINITIES.get(row[k]) or repr(row[k]) for k in bad}}


def _json_text(record: dict) -> str:
    """Compact RFC 8259 JSON text of ``record``, for one output cell."""
    return json.dumps(_json_safe(record), allow_nan=False)


def _write_json(rows: Sequence[dict], out: IO[str]) -> None:
    """Write what ``json.dump({"rows": rows}, out, indent=2)`` and a
    newline write, for rows of scalar cells with at least one cell each.
    The C encoder writes a block of rows at a time: with these separators
    each newline it puts out ends a cell (a JSON string holds none) or,
    after a "}", a row.  Blocks bound the memory a long text would take;
    and an unbuffered stream drops what a short write leaves over, so one
    write would miss a reader that went away."""
    if not rows:
        out.write('{\n  "rows": []\n}\n')
        return
    cell, between = ",\n      ", "\n    },\n    {\n      "
    out.write('{\n  "rows": [\n    {\n      ')
    for start in range(0, len(rows), BLOCK_ROWS):
        block = [_json_safe(row) for row in rows[start : start + BLOCK_ROWS]]
        text = json.dumps(block, separators=(cell, ": "), allow_nan=False)
        text = text[2:-2].replace("}" + cell + "{", between)
        out.write(between + text if start else text)
    out.write("\n    }\n  ]\n}\n")


def emit_rows(
    rows: Sequence[dict], columns: Sequence[str], fmt: str, out: IO[str]
) -> None:
    if fmt == "json":
        _write_json(rows, out)
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for start in range(0, len(rows), BLOCK_ROWS):
            block = rows[start : start + BLOCK_ROWS]
            writer.writerows(zip(*(_texts(block, c, repr) for c in columns)))
    else:
        cells = [_texts(rows, c, "{:.3g}".format) for c in columns]
        widths = [max([len(c), *map(len, texts)]) for c, texts in zip(columns, cells)]
        line = "  ".join(f"{{:<{width}}}" for width in widths)
        for texts in (columns, *zip(*cells)):
            out.write(line.format(*texts).rstrip() + "\n")


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
) -> tuple:
    """The verdicts on each coalition of a batch, whose members ``ids`` have
    one column of sizes each, from one evaluation of its errors and one of
    its local errors: those two (a column per member), whether each member
    prefers local learning, whether each coalition is individually
    rational, its proportionality label and its 2c+1 audit (its bound
    evaluated after the errors), None where mu_e, sigma_sq or an error is
    zero.  Each column function raises for its own first failing
    coalition, so a batch of more than one may name a later coalition than
    the first that fails (``_pair_rows`` runs a failing batch again)."""
    from .verdicts import _audits, _bounds, _labels, _rationality

    for pid, column in zip(ids, columns):
        check_sizes(pid, column)
    mu_e, sigma_sq = [[value] * len(columns[0]) for value in params]
    errs = _errors(columns, method, mu_e, sigma_sq, ids)
    local = _errors(columns, FederationMethod.LOCAL, mu_e, sigma_sq, ids)
    try:
        bounds = _bounds(list(map(max, zip(*columns))), mu_e, sigma_sq)
        audits = _audits(ids, errs, method, bounds, (ZeroDenominator,))
    except UndefinedBound:  # the batch shares mu_e and sigma_sq
        audits = [None] * len(mu_e)
    _, labels = _labels(ids, columns, errs)
    return errs, local, *_rationality(errs, local), labels, audits


def run_audit(args: argparse.Namespace) -> Output:
    params, coalition, method = load_scenario_file(args.scenario)
    ids, sizes = coalition.ids(), coalition.sizes()
    verdicts = _assess(ids, [[n] for n in sizes], method, params)
    errs, local, prefers, (rational,), (label,), (audit,) = verdicts
    rows: list[dict] = [
        {
            "kind": "player",
            "id": pid,
            "n": n,
            "error": error,
            "local_error": local_error,
            "prefers_local": prefers_local,
        }
        for pid, n, (error,), (local_error,), (prefers_local,) in zip(
            ids, sizes, errs, local, prefers
        )
    ]
    summary: dict = {
        "kind": "coalition",
        "proportionality": label.value,
        "individually_rational": rational,
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


def _pair_rows(
    n_s: float, n_ls: Column, params: PopulationParams, **same: object
) -> list[dict]:
    """The uniform-federation cells of the pairs s (n_s) and l (each of
    ``n_ls``) as one batch: the scan columns up to ``individually_rational``,
    then the cells ``same`` that every row shares.  Each cell raises for its
    own first failing row, so a failing batch is run again row by row, in
    order: it raises what the first failing row raises alone."""
    from .verdicts import _ratio

    # Ids sort l < s.
    columns = [n_ls, [n_s] * len(n_ls)]
    try:
        verdicts = _assess(("l", "s"), columns, FederationMethod.UNIFORM, params)
        (err_l, err_s), _, _, rational, labels, audits = verdicts
        mu_e, sigma_sq = params
        return [
            {
                "n_s": n_s,
                "n_l": n_l,
                "mu_e": mu_e,
                "sigma_sq": sigma_sq,
                "err_small": e_s,
                "err_large": e_l,
                "ratio": _ratio(e_s, e_l, "s", "l") if e_l else None,
                "c": audit.c_value if audit else None,
                "bound": audit.bound if audit else None,
                "size_ratio": _ratio(n_l, n_s, "n_l", "n_s"),
                "proportionality": label.value,
                "individually_rational": ok,
                **same,
            }
            for n_l, e_s, e_l, ok, label, audit in zip(
                n_ls, err_s, err_l, rational, labels, audits
            )
        ]
    except FedFairError:
        if len(n_ls) > 1:
            for n_l in n_ls:
                _pair_rows(n_s, [n_l], params)
        raise


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
        from .egalitarian import check_modularity, inverse_size_error

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
            from .proportionality import verify_propstab

            result = verify_propstab(instance_count=count, seed=args.seed)
            summary = {
                "instances": result.instances,
                "counterexamples": len(result.counterexamples),
            }
            details = [(ce["kind"], ce) for ce in result.counterexamples]
        else:  # egalitarian-bound; argparse admits no other suite
            from .egalitarian import bound_sweep

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
    from .montecarlo import SimulationSpec, _simulate

    params, coalition, method = load_scenario_file(args.scenario)
    specs = [
        SimulationSpec(coalition, pid, params, method, trials=args.trials, seed=args.seed)
        for pid in coalition.ids()
    ]
    rows = [
        {
            "id": player.id,
            "n": player.n,
            "method": method.value,
            "trials": result.trials,
            "seed": args.seed,
            "empirical_mse": result.empirical_mse,
            "standard_error": result.standard_error,
            "closed_form": result.closed_form,
            "z_score": result.z_score,
        }
        for player, result in zip(coalition.players, _simulate(specs))
    ]
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
    from .verdicts import _thresholds

    params = PopulationParams(mu_e=args.mu_e, sigma_sq=args.sigma_sq)
    rest = Coalition((Player("s", n_s),))
    thresholds = _one(_thresholds, rest, params, [None, 0])
    n_ls = [nl_start + i * nl_step for i in range(count)]
    same = dict(zip(SCAN_COLUMNS[-2:], thresholds))  # defection, subproportionality
    return SCAN_COLUMNS, _pair_rows(n_s, n_ls, params, **same), None


# ---------------------------------------------------------------------------
# Argument parsing


def _integer(low: int) -> Callable[[str], int]:
    """An argparse type: an int by ``check_integer``, rejected quoting the text."""

    def parse(text: str) -> int:
        try:
            return check_integer("value", int(text), low)
        except ValueError:
            message = f"must be an integer in [{low}, 2**64), got {text!r}"
            raise argparse.ArgumentTypeError(message) from None

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
