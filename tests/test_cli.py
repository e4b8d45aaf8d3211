"""CLI contract: scenario ingestion, exit codes, output formats, and the
subcommand surfaces."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from test_exact_reference import exact_error

import fedfair.cli
import fedfair.egalitarian
import fedfair.errors
import fedfair.proportionality
from fedfair import (
    Coalition,
    FederationMethod,
    Player,
    PopulationParams,
    uniform_error,
)
from fedfair.cli import (
    MAX_PLAYERS,
    MAX_SCAN_ROWS,
    build_parser,
    emit_rows,
    load_scenario_file,
    main,
)
from fedfair.egalitarian import BoundSweepResult
from fedfair.model import describe_instance
from fedfair.montecarlo import SimulationSpec, simulate_error
from fedfair.proportionality import PropstabResult, subproportionality_threshold

UNIFORM, LOCAL = FederationMethod.UNIFORM, FederationMethod.LOCAL


@pytest.fixture
def scenario_620(tmp_path):
    path = tmp_path / "pair620.json"
    path.write_text(
        json.dumps(
            {
                "mu_e": 10,
                "sigma_sq": 1,
                "players": [{"id": "s", "n": 6}, {"id": "l", "n": 20}],
                "method": "uniform",
            }
        )
    )
    return str(path)


def run_cli(args, tmp_path, fmt="csv"):
    out = tmp_path / "out.txt"
    code = main(["--format", fmt, "--out", str(out), *args])
    return code, out.read_text() if out.exists() else ""


def strict_json(text):
    """json.loads that rejects the non-RFC 8259 constants NaN and Infinity."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


@pytest.mark.parametrize("fmt, expected", [
    ("json", json.dumps({"rows": []}, indent=2) + "\n"),
    ("csv", "n_l,ratio\n"),
    ("table", "n_l  ratio\n"),
])
def test_emit_rows_on_zero_rows(fmt, expected):
    """No rows: json's empty list, and the header line alone otherwise."""
    out = io.StringIO()
    emit_rows([], ["n_l", "ratio"], fmt, out)
    assert out.getvalue() == expected


class TestAudit:
    def test_negative_zero_constants_print_no_negative_zero(self, tmp_path):
        """mu_e = -0.0 is stored as 0.0, so no local error prints as -0.0."""
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({
            "mu_e": -0.0, "sigma_sq": 0.0, "method": "uniform",
            "players": [{"id": "s", "n": 6}, {"id": "l", "n": 20}],
        }))
        code, text = run_cli(["audit", str(path)], tmp_path)
        assert code == 0 and "-0.0" not in text
        assert [r["local_error"] for r in parse_csv(text)[:2]] == ["0.0", "0.0"]

    def test_tied_errors_name_two_members(self, tmp_path):
        """n = (6, 6) ties both errors: the worst pair is a|b, not a|a."""
        path = tmp_path / "tied.json"
        path.write_text(json.dumps({
            "mu_e": 10, "sigma_sq": 1, "method": "uniform",
            "players": [{"id": "a", "n": 6}, {"id": "b", "n": 6}],
        }))
        code, text = run_cli(["audit", str(path)], tmp_path)
        assert code == 0
        summary = parse_csv(text)[-1]
        assert summary["worst_pair"] == "a|b" and summary["max_ratio"] == "1.0"

    def test_motivating_pair_csv(self, scenario_620, tmp_path):
        code, text = run_cli(["audit", scenario_620], tmp_path)
        assert code == 0
        rows = parse_csv(text)
        players = [r for r in rows if r["kind"] == "player"]
        coalition = [r for r in rows if r["kind"] == "coalition"]
        assert len(players) == 2 and len(coalition) == 1
        by_id = {r["id"]: r for r in players}
        assert math.isclose(float(by_id["s"]["error"]), 1060 / 676)
        assert math.isclose(float(by_id["l"]["error"]), 332 / 676)
        summary = coalition[0]
        assert math.isclose(float(summary["max_ratio"]), 3.1927710843373496)
        assert float(summary["bound"]) == 5.0
        assert summary["egalitarian_satisfied"] == "true"
        assert summary["proportionality"] == "sub"
        assert summary["individually_rational"] == "true"

    def test_csv_and_json_carry_identical_numbers(self, scenario_620, tmp_path):
        code_csv, text_csv = run_cli(["audit", scenario_620], tmp_path, fmt="csv")
        code_json, text_json = run_cli(["audit", scenario_620], tmp_path, fmt="json")
        assert code_csv == code_json == 0
        csv_rows = parse_csv(text_csv)
        json_rows = json.loads(text_json)["rows"]
        assert len(csv_rows) == len(json_rows)
        for c_row, j_row in zip(csv_rows, json_rows):
            for key, value in j_row.items():
                if isinstance(value, float):
                    assert float(c_row[key]) == value

    def test_singleton_ratio_one(self, tmp_path):
        path = tmp_path / "solo.json"
        path.write_text(
            json.dumps(
                {
                    "mu_e": 10,
                    "sigma_sq": 1,
                    "players": [{"n": 5}],
                    "method": "local",
                }
            )
        )
        code, text = run_cli(["audit", str(path)], tmp_path)
        assert code == 0
        summary = [r for r in parse_csv(text) if r["kind"] == "coalition"][0]
        assert float(summary["max_ratio"]) == 1.0

    def test_table_format_rounds_to_three_significant_figures(
        self, scenario_620, tmp_path
    ):
        code, text = run_cli(["audit", scenario_620], tmp_path, fmt="table")
        assert code == 0
        assert "1.57" in text and "0.491" in text and "3.19" in text

    def test_dump_scenario_round_trips(self, scenario_620, tmp_path):
        dumped = tmp_path / "dumped.json"
        code, _ = run_cli(
            ["audit", scenario_620, "--dump-scenario", str(dumped)], tmp_path
        )
        assert code == 0
        assert load_scenario_file(str(dumped)) == load_scenario_file(scenario_620)

    def test_dump_scenario_lists_players_in_id_order(self, tmp_path):
        path = tmp_path / "unsorted.json"
        scenario = {
            "mu_e": 10.0,
            "sigma_sq": 1.0,
            "players": [
                {"id": "s", "n": 6.0},
                {"id": "l", "n": 20.0},
                {"id": "p10", "n": 3.0},
                {"id": "p2", "n": 4.0},
            ],
            "method": "fine_grained",
        }
        path.write_text(json.dumps(scenario))
        dumped = tmp_path / "dumped.json"
        code, _ = run_cli(["audit", str(path), "--dump-scenario", str(dumped)], tmp_path)
        assert code == 0
        record = json.loads(dumped.read_text())
        assert [p["id"] for p in record["players"]] == ["l", "p10", "p2", "s"]
        by_id = {p["id"]: p for p in scenario["players"]}
        assert record == {
            **scenario,
            "players": [by_id[pid] for pid in ("l", "p10", "p2", "s")],
        }
        assert load_scenario_file(str(dumped)) == load_scenario_file(str(path))


class TestScenarioParsing:
    def write(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data) if not isinstance(data, str) else data)
        return str(path)

    def test_unknown_field_named(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            {"mu_e": 1, "sigma_sq": 1, "players": [{"n": 2}], "method": "local",
             "extra": 5},
        )
        assert main(["audit", path]) == 2
        assert "extra" in capsys.readouterr().err

    def test_missing_field_named(self, tmp_path, capsys):
        path = self.write(
            tmp_path, {"sigma_sq": 1, "players": [{"n": 2}], "method": "local"}
        )
        assert main(["audit", path]) == 2
        assert "mu_e" in capsys.readouterr().err

    def test_player_entry_diagnosed_by_index(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            {"mu_e": 1, "sigma_sq": 1, "players": [{"n": 2}, {"id": "x"}],
             "method": "local"},
        )
        assert main(["audit", path]) == 2
        assert "players[1]" in capsys.readouterr().err

    def test_unknown_method_rejected(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            {"mu_e": 1, "sigma_sq": 1, "players": [{"n": 2}],
             "method": "coarse_grained"},
        )
        assert main(["audit", path]) == 2
        assert "method" in capsys.readouterr().err

    def test_empty_players_rejected(self, tmp_path, capsys):
        path = self.write(
            tmp_path, {"mu_e": 1, "sigma_sq": 1, "players": [], "method": "local"}
        )
        assert main(["audit", path]) == 2
        assert "player" in capsys.readouterr().err.lower()

    def test_invalid_json_rejected(self, tmp_path, capsys):
        path = self.write(tmp_path, "{not json")
        assert main(["audit", path]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_non_utf8_file_named(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"mu_e": 1}')
        assert main(["audit", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: invalid JSON" in err and "utf-8" in err

    def test_deeply_nested_json_rejected(self, tmp_path, capsys):
        path = self.write(tmp_path, "[" * 100_000 + "]" * 100_000)
        assert main(["audit", path]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_nonpositive_n_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            {"mu_e": 1, "sigma_sq": 1, "players": [{"n": -3}], "method": "local"},
        )
        assert main(["audit", path]) == 2

    def test_out_of_range_integer_rejected(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            '{"mu_e": 1' + "0" * 400 + ', "sigma_sq": 1, "players": [{"n": 2}], '
            '"method": "local"}',
        )
        assert main(["audit", path]) == 2
        assert "mu_e" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, where, key",
        [
            ('{"mu_e": 10, "mu_e": 5, "sigma_sq": 1, "players": [{"n": 2}], '
             '"method": "local"}', "top level", "mu_e"),
            ('{"mu_e": 10, "sigma_sq": 1, "players": [{"n": 2, "n": 3}], '
             '"method": "local"}', "players[0]", "n"),
        ],
    )
    def test_duplicate_key_rejected(self, text, where, key, tmp_path, capsys):
        assert main(["audit", self.write(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert where in err and f"duplicate field {key!r}" in err

    def test_many_distinct_keys_rejected_promptly(self, tmp_path, capsys):
        """Repeated keys are found in time linear in the key count."""
        path = self.write(tmp_path, {f"k{i}": 0 for i in range(100_000)})
        start = time.perf_counter()
        assert main(["audit", path]) == 2
        assert time.perf_counter() - start < 2.0
        assert "top level: unknown field 'k0'" in capsys.readouterr().err

    def test_last_key_repeating_an_early_one_is_named(self, tmp_path, capsys):
        keys = ["mu_e", "sigma_sq", "players", "method"]
        keys += [f"k{i}" for i in range(50)] + ["sigma_sq"]
        text = "{" + ", ".join(f'"{key}": 1' for key in keys) + "}"
        assert main(["audit", self.write(tmp_path, text)]) == 2
        assert "top level: duplicate field 'sigma_sq'" in capsys.readouterr().err

    def test_audit_at_the_player_cap(self, tmp_path):
        players = [{"n": k + 1} for k in range(MAX_PLAYERS)]
        data = {"mu_e": 1, "sigma_sq": 1, "players": players, "method": "uniform"}
        code, text = run_cli(["audit", self.write(tmp_path, data)], tmp_path)
        rows = parse_csv(text)
        assert code == 0 and len(rows) == MAX_PLAYERS + 1
        assert rows[-1]["kind"] == "coalition"

    def test_default_ids_are_positional(self, tmp_path):
        path = self.write(
            tmp_path,
            {"mu_e": 1, "sigma_sq": 1, "players": [{"n": 2}, {"n": 3}],
             "method": "local"},
        )
        _, coalition, _ = load_scenario_file(path)
        assert [(p.id, p.n) for p in coalition.players] == [("p1", 2.0), ("p2", 3.0)]

    @pytest.mark.parametrize(
        "data, message",
        [
            ([], "top level must be a JSON object"),
            ({"players": [5]}, "players[0] must be a JSON object"),
            ({"mu_e": "10"}, "field 'mu_e' must be a number, got '10'"),
            ({"players": {}}, "field 'players' must be a list"),
            ({"players": [{"id": 5, "n": 2}]}, "players[0].id must be a string"),
            # The cap is checked before any entry, so a bad 101st entry is
            # not what the error names.
            ({"players": [{"n": 2}] * (MAX_PLAYERS + 1)},
             "field 'players' lists over 100 players"),
            ({"players": [{"n": 2}] * MAX_PLAYERS + [{"n": "x"}]},
             "field 'players' lists over 100 players"),
        ],
        ids=["top-level-list", "player-number", "mu-e-string", "players-object",
             "id-number", "players-over-cap", "players-over-cap-bad-entry"],
    )
    def test_malformed_value_named(self, data, message, tmp_path, capsys):
        if isinstance(data, dict):
            data = {"mu_e": 1, "sigma_sq": 1, "players": [{"n": 2}],
                    "method": "local", **data}
        assert main(["audit", self.write(tmp_path, data)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("method", [[], {}, ["uniform"]])
    def test_non_string_method_rejected(self, method, tmp_path, capsys):
        path = self.write(
            tmp_path,
            {"mu_e": 1, "sigma_sq": 1, "players": [{"n": 2}], "method": method},
        )
        assert main(["audit", path]) == 2
        assert "field 'method' must be one of" in capsys.readouterr().err


class TestReproduce:
    def test_motivating_table_matches(self, tmp_path):
        code, text = run_cli(["reproduce", "motivating"], tmp_path)
        assert code == 0
        rows = parse_csv(text)
        assert [r["n_l"] for r in rows] == ["20", "30", "40"]
        assert all(r["matches"] == "true" for r in rows)
        assert math.isclose(float(rows[0]["err_small"]), 1060 / 676)
        assert math.isclose(float(rows[2]["ratio"]), 915 / 133)

    def test_injected_noise_fails_self_test(self, monkeypatch, capsys):
        """One wrong published cell (the n_l = 30 ratio) fails the self-test."""
        wrong = {**fedfair.cli.REFERENCE_MOTIVATING, 30: (1.67, 0.333, 5.5, 7.0, 5.0)}
        monkeypatch.setattr(fedfair.cli, "REFERENCE_MOTIVATING", wrong)
        assert main(["--format", "csv", "reproduce", "motivating"]) == 1
        captured = capsys.readouterr()
        rows = parse_csv(captured.out)
        assert [r["matches"] for r in rows] == ["true", "false", "true"]
        assert "diverge" in captured.err

    def test_unknown_table_is_usage_error(self, tmp_path):
        code, _ = run_cli(["reproduce", "mystery"], tmp_path)
        assert code == 2


class TestVerify:
    def test_modularity_suite(self, tmp_path):
        code, text = run_cli(["verify", "modularity"], tmp_path)
        assert code == 0
        rows = parse_csv(text)
        # five properties per method, three methods
        assert len(rows) == 15
        honest = [r for r in rows if r["method"] in ("uniform", "fine_grained")]
        assert all(r["passed"] == "true" for r in honest)
        adversarial_p1 = [
            r
            for r in rows
            if r["method"] == "inverse_size_error" and r["property"] == "1"
        ][0]
        assert adversarial_p1["passed"] == "false"
        assert adversarial_p1["counterexample"]

    def test_propstab_small(self, tmp_path):
        code, text = run_cli(
            ["--seed", "42", "verify", "propstab", "--instances", "250"], tmp_path
        )
        assert code == 0
        summary = parse_csv(text)[0]
        assert summary["passed"] == "true"
        assert summary["instances"] == "250"

    def test_egalitarian_bound_small(self, tmp_path):
        code, text = run_cli(
            ["--seed", "42", "verify", "egalitarian-bound", "--instances", "250"],
            tmp_path,
            fmt="json",
        )
        assert code == 0
        summary = json.loads(text)["rows"][0]
        assert summary["passed"] is True
        assert summary["max_ratio_over_bound"] < 1.0

    def test_deterministic_given_seed(self, tmp_path):
        _, first = run_cli(
            ["--seed", "9", "verify", "egalitarian-bound", "--instances", "50"],
            tmp_path,
        )
        _, second = run_cli(
            ["--seed", "9", "verify", "egalitarian-bound", "--instances", "50"],
            tmp_path,
        )
        assert first == second


    def test_detail_cells_are_rfc8259(self, tmp_path, monkeypatch):
        record = {"index": 3, "defection": math.inf, "threshold": -math.inf}
        result = PropstabResult(
            instances=4, counterexamples=({"kind": "threshold_order", **record},)
        )
        monkeypatch.setattr(fedfair.proportionality, "verify_propstab", lambda **_: result)
        code, text = run_cli(["verify", "propstab"], tmp_path, fmt="json")
        assert code == 1
        detail = strict_json(strict_json(text)["rows"][1]["detail"])
        assert detail["defection"] == "Infinity"
        assert detail["threshold"] == "-Infinity"

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    @pytest.mark.parametrize("suite", ["propstab", "egalitarian-bound"])
    def test_replayable_records_are_reported(self, suite, fmt, tmp_path, monkeypatch):
        """The sweeps' records hold a players list beside their floats."""
        params = PopulationParams(1.0, 2.0)
        instance = describe_instance(params, Coalition.from_sizes([3.0, 5.0]))
        record = {"index": 7, **instance, "threshold": math.inf, "gap": math.nan}
        propstab = PropstabResult(4, ({**record, "kind": "threshold_order"},))
        bound = BoundSweepResult(4, 8, (record,), 1.5)
        monkeypatch.setattr(fedfair.proportionality, "verify_propstab", lambda **_: propstab)
        monkeypatch.setattr(fedfair.egalitarian, "bound_sweep", lambda **_: bound)
        code, text = run_cli(["verify", suite], tmp_path, fmt=fmt)
        assert code == 1
        if fmt == "json":
            detail = strict_json(strict_json(text)["rows"][1]["detail"])
        else:
            assert text.count("\n") == 3
            cell = parse_csv(text)[1]["detail"] if fmt == "csv" else text
            detail = strict_json(cell[cell.index("{") :].rstrip())
        assert detail["players"] == [{"id": "p1", "n": 3.0}, {"id": "p2", "n": 5.0}]
        assert (detail["threshold"], detail["gap"]) == ("Infinity", "nan")

    @pytest.mark.parametrize(
        "suite, count", [("propstab", "0"), ("egalitarian-bound", "-5")]
    )
    def test_non_positive_instances_rejected(self, suite, count, tmp_path, capsys):
        code, text = run_cli(["verify", suite, "--instances", count], tmp_path)
        assert code == 2
        assert text == ""
        assert "--instances" in capsys.readouterr().err


class TestSimulate:
    def test_motivating_pair(self, scenario_620, tmp_path):
        code, text = run_cli(
            ["--seed", "7", "simulate", scenario_620, "--trials", "20000"], tmp_path
        )
        assert code == 0
        rows = parse_csv(text)
        assert [r["id"] for r in rows] == ["l", "s"]
        closed = {r["id"]: float(r["closed_form"]) for r in rows}
        assert math.isclose(closed["s"], 1060 / 676)
        assert math.isclose(closed["l"], 332 / 676)
        assert all(abs(float(r["z_score"])) <= 5.0 for r in rows)
        assert all(r["trials"] == "20000" for r in rows)

    @pytest.mark.parametrize("method", ["local", "uniform", "fine_grained"])
    @pytest.mark.parametrize(
        "sizes", [[6], [6, 20], [6, 20, 2.5, 40, 13.75]], ids=["k1", "k2", "k5"]
    )
    def test_every_row_is_its_target_simulated_alone(self, sizes, method, tmp_path):
        """The rows are scored on one stream at --seed, each bit for bit what
        ``simulate_error`` gives its target alone at that seed.  69,633
        trials: two chunks, the last noise block one row."""
        players = [{"id": f"p{i}", "n": n} for i, n in enumerate(sizes)]
        path = tmp_path / "members.json"
        path.write_text(json.dumps(
            {"mu_e": 10, "sigma_sq": 1, "players": players, "method": method}
        ))
        argv = ["--seed", "11", "simulate", str(path), "--trials", "69633"]
        code, text = run_cli(argv, tmp_path)
        assert code == 0
        params, coalition, federation = load_scenario_file(str(path))
        rows = parse_csv(text)
        assert tuple(row["id"] for row in rows) == coalition.ids()
        for row in rows:
            spec = SimulationSpec(coalition, row["id"], params, federation,
                                  trials=69_633, seed=11)
            alone = simulate_error(spec)
            printed = [float(row[column]) for column in alone._fields]
            assert printed == list(alone), row["id"]

    def test_single_trial_is_input_error(self, scenario_620, tmp_path, capsys):
        assert main(["simulate", scenario_620, "--trials", "1"]) == 2

    def test_non_integer_samples_accepted(self, tmp_path):
        """simulate takes every scenario audit takes, fractional n included."""
        path = tmp_path / "frac.json"
        path.write_text(
            json.dumps(
                {"mu_e": 10, "sigma_sq": 1, "players": [{"n": 6.5}, {"n": 20}],
                 "method": "uniform"}
            )
        )
        code, text = run_cli(["simulate", str(path), "--trials", "20000"], tmp_path)
        assert code == 0
        coalition = Coalition((Player("p1", 6.5), Player("p2", 20.0)))
        params = PopulationParams(10.0, 1.0)
        rows = parse_csv(text)
        assert [r["id"] for r in rows] == ["p1", "p2"]
        for row in rows:
            library = uniform_error(coalition, row["id"], params)
            assert float(row["closed_form"]) == library
            assert abs(float(row["z_score"])) <= 5.0


    def test_overflowing_squared_errors_are_an_input_error(self, tmp_path, capsys):
        """Squared errors near 1e300 overflow the sum of their squares: the
        standard error is undefined, so exit 2 naming the inputs, with no
        numpy warning."""
        path = tmp_path / "huge.json"
        path.write_text(
            '{"mu_e": 1e300, "sigma_sq": 0, "players": [{"n": 1}], "method": "local"}'
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run_cli(["simulate", str(path), "--trials", "1000"], tmp_path)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "floating-point range" in err
        assert "mu_e=1e+300" in err and "sigma_sq=0.0" in err and "'p1': 1.0" in err


class TestScan:
    def test_motivating_sweep(self, tmp_path):
        code, text = run_cli(
            [
                "scan", "--ns", "6", "--nl-start", "20", "--nl-stop", "40",
                "--nl-step", "10", "--mu-e", "10", "--sigma-sq", "1",
            ],
            tmp_path,
        )
        assert code == 0
        rows = parse_csv(text)
        assert [r["n_l"] for r in rows] == ["20.0", "30.0", "40.0"]
        assert [r["proportionality"] for r in rows] == ["sub", "exact", "super"]
        assert [r["individually_rational"] for r in rows] == ["true", "true", "false"]
        for row in rows:
            assert math.isclose(float(row["defection_threshold"]), 30.0)
            assert math.isclose(float(row["subproportionality_threshold"]), 30.0)
        assert math.isclose(float(rows[1]["ratio"]), 5.0)

    def test_boundary_small_player_yields_infinite_thresholds(self, tmp_path):
        code, text = run_cli(
            [
                "scan", "--ns", "5", "--nl-start", "20", "--nl-stop", "30",
                "--nl-step", "10", "--mu-e", "10", "--sigma-sq", "1",
            ],
            tmp_path,
        )
        assert code == 0
        rows = parse_csv(text)
        assert all(r["defection_threshold"] == "Infinity" for r in rows)
        assert all(r["subproportionality_threshold"] == "Infinity" for r in rows)

    @pytest.mark.parametrize("option", ["--mu-e", "--sigma-sq"])
    def test_negative_zero_constant_scans_as_zero(self, option, tmp_path):
        """A -0.0 constant prints the scan at 0 byte for byte: no -0.0
        cell in mu_e, sigma_sq or a threshold."""
        texts = []
        for zero in ("-0.0", "0"):
            constants = {"--mu-e": "10", "--sigma-sq": "1", option: zero}
            code, text = run_cli(
                [
                    "scan", "--ns", "6", "--nl-start", "20", "--nl-stop", "20",
                    "--nl-step", "1", *(x for pair in constants.items() for x in pair),
                ],
                tmp_path,
            )
            assert code == 0
            texts.append(text)
        assert texts[0] == texts[1] and "-0.0" not in texts[0]

    def test_zero_step_is_usage_error(self, tmp_path):
        code, _ = run_cli(
            [
                "scan", "--ns", "6", "--nl-start", "20", "--nl-stop", "40",
                "--nl-step", "0", "--mu-e", "10", "--sigma-sq", "1",
            ],
            tmp_path,
        )
        assert code == 2

    def test_empty_range_is_usage_error(self, tmp_path):
        code, _ = run_cli(
            [
                "scan", "--ns", "6", "--nl-start", "50", "--nl-stop", "40",
                "--nl-step", "10", "--mu-e", "10", "--sigma-sq", "1",
            ],
            tmp_path,
        )
        assert code == 2

    def test_fractional_step_keeps_endpoint(self, tmp_path):
        code, text = run_cli(
            [
                "scan", "--ns", "6", "--nl-start", "1e9", "--nl-stop", "1000000300",
                "--nl-step", "0.1", "--mu-e", "10", "--sigma-sq", "1",
            ],
            tmp_path,
        )
        assert code == 0
        rows = parse_csv(text)
        assert len(rows) == 3001
        assert float(rows[-1]["n_l"]) == 1000000300.0

    @pytest.mark.parametrize(
        "stop, step", [("inf", "10"), ("40", "inf"), ("nan", "10")]
    )
    def test_non_finite_range_is_usage_error(self, stop, step, tmp_path, capsys):
        code, _ = run_cli(
            [
                "scan", "--ns", "6", "--nl-start", "20", "--nl-stop", stop,
                "--nl-step", step, "--mu-e", "10", "--sigma-sq", "1",
            ],
            tmp_path,
        )
        assert code == 2
        assert "must be finite" in capsys.readouterr().err

    def test_row_limit(self, tmp_path, capsys):
        code, text = run_cli(
            [
                "scan", "--ns", "6", "--nl-start", "1",
                "--nl-stop", str(1 + MAX_SCAN_ROWS), "--nl-step", "1",
                "--mu-e", "10", "--sigma-sq", "1",
            ],
            tmp_path,
        )
        assert code == 2
        assert text == ""
        assert "--nl-step" in capsys.readouterr().err

    def test_vanishing_step_is_rejected_before_building_the_grid(
        self, tmp_path, capsys
    ):
        code, _ = run_cli(
            [
                "scan", "--ns", "6", "--nl-start", "20", "--nl-stop", "40",
                "--nl-step", "1e-300", "--mu-e", "10", "--sigma-sq", "1",
            ],
            tmp_path,
        )
        assert code == 2
        assert "--nl-step" in capsys.readouterr().err

    def test_json_output_is_rfc8259(self, tmp_path):
        code, text = run_cli(
            [
                "scan", "--ns", "5", "--nl-start", "20", "--nl-stop", "20",
                "--nl-step", "1", "--mu-e", "10", "--sigma-sq", "1",
            ],
            tmp_path,
            fmt="json",
        )
        assert code == 0
        row = strict_json(text)["rows"][0]
        assert row["defection_threshold"] == "Infinity"
        assert row["subproportionality_threshold"] == "Infinity"

    # A scan holds its rows until it has written them.  csv and json render
    # 256 rows at a time, so their traced peak is the rows and verdicts:
    # from 10,000 to 20,000 rows it grew by 960 bytes a row for both on
    # Python 3.11.  Table also holds every cell's text to size its columns:
    # 1,426 bytes a row.  2 KiB a row leaves 44% over table for the object
    # sizes of other Python versions, and fails json built as one text
    # (2,479 bytes a row).  csv peaks where json does, so json stands for it.
    ROW_BYTES = 2048

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_memory_per_row(self, fmt, tmp_path):
        def peak(rows):
            argv = [
                "--format", fmt, "--out", str(tmp_path / "out.txt"), "scan",
                "--ns", "6", "--nl-start", "1", "--nl-stop", str(rows),
                "--nl-step", "1", "--mu-e", "10", "--sigma-sq", "1",
            ]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        main(["--out", str(tmp_path / "out.txt"), "reproduce", "motivating"])
        assert peak(20_000) - peak(10_000) < 10_000 * self.ROW_BYTES

    @pytest.mark.parametrize(
        "n_s, n_l, mu_e, sigma_sq, bound",
        [
            (6.0, 20.0, 10.0, 1.0, "5.0"),
            (6.0, 20.0, 10.0, 0.0, ""),  # 2c+1 needs sigma_sq > 0
            (6.0, 20.0, 0.0, 1.0, ""),  # and mu_e > 0
            (1.0, 1e10, 5e-324, 5e-324, ""),  # the large error underflows to 0
        ],
    )
    def test_bound_columns_follow_audit(
        self, n_s, n_l, mu_e, sigma_sq, bound, tmp_path
    ):
        """A scan row leaves c and bound empty exactly where ``audit`` of
        the same pair does."""
        scenario = tmp_path / "pair.json"
        players = [{"id": "s", "n": n_s}, {"id": "l", "n": n_l}]
        scenario.write_text(
            json.dumps(
                {"mu_e": mu_e, "sigma_sq": sigma_sq, "players": players,
                 "method": "uniform"}
            )
        )
        code, text = run_cli(["audit", str(scenario)], tmp_path)
        assert code == 0
        audit = parse_csv(text)[-1]
        code, text = run_cli(
            [
                "scan", "--ns", repr(n_s), "--nl-start", repr(n_l), "--nl-stop",
                repr(n_l), "--nl-step", "1", "--mu-e", repr(mu_e), "--sigma-sq",
                repr(sigma_sq),
            ],
            tmp_path,
        )
        assert code == 0
        (row,) = parse_csv(text)
        assert row["bound"] == audit["bound"] == bound
        assert row["c"] == audit["c"]
        assert (row["c"] == "") == (bound == "")


class TestOneEvaluationPerCoalition:
    """An audit evaluates the closed forms twice, once under its method and
    once for the local errors; reproduce and scan do the same for all their
    rows at once, as one batch each."""

    @pytest.fixture
    def batches(self, monkeypatch):
        """(method, batch size) of each closed-form evaluation, in call
        order, with every module's binding of the kernel counted."""
        kernel = fedfair.errors._errors
        seen = []

        def counting(columns, method, mu_e, sigma_sq, ids):
            seen.append((method, len(mu_e)))
            return kernel(columns, method, mu_e, sigma_sq, ids)

        for name, module in list(sys.modules.items()):
            binding = getattr(module, "_errors", None)
            if name.startswith("fedfair") and binding is kernel:
                monkeypatch.setattr(module, "_errors", counting)
        return seen

    def test_audit(self, batches, scenario_620, tmp_path):
        assert run_cli(["audit", scenario_620], tmp_path)[0] == 0
        assert batches == [(UNIFORM, 1), (LOCAL, 1)]

    def test_reproduce(self, batches, tmp_path):
        assert run_cli(["reproduce", "motivating"], tmp_path)[0] == 0
        assert batches == [(UNIFORM, 3), (LOCAL, 3)]

    def test_scan(self, batches, tmp_path):
        code, text = run_cli(
            [
                "scan", "--ns", "6", "--nl-start", "20", "--nl-stop", "50",
                "--nl-step", "10", "--mu-e", "10", "--sigma-sq", "1",
            ],
            tmp_path,
        )
        assert code == 0 and len(parse_csv(text)) == 4
        assert batches == [(UNIFORM, 4), (LOCAL, 4)]


class TestFloatRange:
    """Out-of-band inputs print their correctly rounded exact values, taken
    here from tests/test_exact_reference.py's independent formulas; an
    input whose exact value leaves the float range is an input error."""

    def audit(self, tmp_path, scenario):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        return run_cli(["audit", str(path)], tmp_path)

    def exact_errors(self, scenario):
        """Each player's exact error, rounded once, by id."""
        params = PopulationParams(scenario["mu_e"], scenario["sigma_sq"])
        coalition = Coalition(Player(p["id"], p["n"]) for p in scenario["players"])
        method = FederationMethod(scenario["method"])
        return {
            pid: float(exact_error(method, params, coalition, j))
            for j, pid in enumerate(coalition.ids())
        }

    def scan(self, tmp_path, n_s, n_l):
        return run_cli(
            [
                "scan", "--ns", n_s, "--nl-start", n_l, "--nl-stop", n_l,
                "--nl-step", "1", "--mu-e", "10", "--sigma-sq", "1",
            ],
            tmp_path,
        )

    def test_underflowing_small_player(self, tmp_path, capsys):
        code, text = self.scan(tmp_path, "1e-320", "20")
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "floating-point range" in err and "1e-320" in err
        assert "mu_e=10.0" in err and "sigma_sq=1.0" in err

    def test_overflowing_scan_rows(self, tmp_path):
        """T and T^2 overflow in floats at n_s = n_l = 1e308: the row holds
        the exact errors, 2c+1 and thresholds, the last two by the singleton
        form mu_e / (2 sigma_sq - mu_e/n_s)."""
        code, text = self.scan(tmp_path, "1e308", "1e308")
        assert code == 0
        (row,) = parse_csv(text)
        pair = Coalition((Player("l", 1e308), Player("s", 1e308)))
        params, n = PopulationParams(10.0, 1.0), Fraction(1e308)
        err = float(exact_error(UNIFORM, params, pair, 0))
        assert float(row["err_small"]) == float(row["err_large"]) == err == 0.5
        assert float(row["c"]) == float(n / 10)
        assert float(row["bound"]) == float(n / 5 + 1)
        threshold = float(10 / (2 - 10 / n))
        assert float(row["defection_threshold"]) == threshold
        assert float(row["subproportionality_threshold"]) == threshold

    def test_first_overflowing_bound_is_named(self, tmp_path, capsys):
        """c = n_l * 1e307 here, so 2c+1 is finite on rows n_l = 1 to 8 and
        overflows from n_l = 9 on: the message names the first such row."""
        code, text = run_cli(
            [
                "scan", "--ns", "1", "--nl-start", "1", "--nl-stop", "30",
                "--nl-step", "1", "--mu-e", "1e-10", "--sigma-sq", "1e297",
            ],
            tmp_path,
        )
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "the 2c+1 bound is outside the floating-point range" in err
        assert "n_max=9.0" in err

    def test_overflowing_threshold_names_only_finite_inputs(self, tmp_path, capsys):
        """The defection threshold at n_s = mu_e = 1e300 is past the float
        range, and so is the rest's sum of squares, 1e600: the message
        names the sizes by id, as an error's does, never an infinite sum."""
        code, text = run_cli(
            [
                "scan", "--ns", "1e300", "--nl-start", "1", "--nl-stop", "2",
                "--nl-step", "1", "--mu-e", "1e300", "--sigma-sq", "0.5000000000000001",
            ],
            tmp_path,
        )
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (
            "error: the defection threshold is outside the floating-point range at "
            "mu_e=1e+300, sigma_sq=0.5000000000000001, n={'s': 1e+300}\n"
        )

    def test_first_failing_row_is_named_across_column_functions(self, tmp_path, capsys):
        """Row 1 (n_l = 0.5) has in-band errors but an overflowing 2c+1;
        row 2 (n_l = 1e40) already overflows its uniform error.  The errors
        are evaluated before the bound, so only running the rows again in
        order names row 1, the first an in-order loop reaches."""
        code, text = run_cli(
            [
                "scan", "--ns", "1", "--nl-start", "0.5", "--nl-stop", "1e40",
                "--nl-step", "1e40", "--mu-e", "1", "--sigma-sq", "1.7e308",
            ],
            tmp_path,
        )
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "the 2c+1 bound is outside the floating-point range" in err
        assert "n_max=1.0" in err

    def test_first_failing_row_is_named_across_every_cell(self, tmp_path, capsys):
        """Row 1 (n_l = 1e290) has a finite 2c+1 but a size ratio past the
        float range; row 2 (n_l about 1e299) already overflows its 2c+1.
        The size ratio is a cell of the row, not a column of the verdicts,
        so the batch is run again row by row around the whole row build:
        the scan names row 1, as a scan of row 1 alone does."""
        pair = ["--ns", "1e-20", "--mu-e", "1", "--sigma-sq", "1e10"]
        code, text = run_cli(
            ["scan", *pair, "--nl-start", "1e290", "--nl-stop", "1e299",
             "--nl-step", "9.99999999e298"],
            tmp_path,
        )
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "the ratio n_l/n_s is outside the floating-point range" in err
        assert "n_l=1e+290" in err
        row_1 = ["scan", *pair, "--nl-start", "1e290", "--nl-stop", "1e290", "--nl-step", "1"]
        assert run_cli(row_1, tmp_path) == (2, "")
        assert capsys.readouterr().err == err

    def test_audit_never_reports_a_nan_error(self, tmp_path, capsys):
        """a's exact error, about 8e-600, rounds to 0.0, not NaN; the
        exact 2c+1, about 2e620, overflows, so the audit exits 2 naming it."""
        scenario = {"mu_e": 1e-320, "sigma_sq": 1, "method": "uniform",
                    "players": [{"id": "a", "n": 1e300}, {"id": "b", "n": 2}]}
        code, text = self.audit(tmp_path, scenario)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "the 2c+1 bound" in err and "mu_e=1e-320" in err
        assert "n_max=1e+300" in err
        pair = Coalition((Player("a", 1e300), Player("b", 2.0)))
        params = PopulationParams(1e-320, 1.0)
        errors = {pid: uniform_error(pair, pid, params) for pid in pair.ids()}
        assert errors == self.exact_errors(scenario) == {"a": 0.0, "b": 2.0}

    def test_audit_never_reports_a_vanishing_fine_grained_error(self, tmp_path):
        """V = 1e-320 is positive but 1/V overflows in floats: the error is
        the exact mu_e / n = 1e-320, not 0.0."""
        scenario = {"mu_e": 1e-320, "sigma_sq": 0, "method": "fine_grained",
                    "players": [{"id": "a", "n": 1}]}
        code, text = self.audit(tmp_path, scenario)
        assert code == 0
        player = parse_csv(text)[0]
        assert player["error"] == repr(self.exact_errors(scenario)["a"]) == "1e-320"

    def test_audit_never_reports_a_fine_grained_error_of_zero(self, tmp_path):
        """V_c * T overflows in floats, which would print 0.0 for c: every
        error is the exact 2.006148711507537e-186."""
        scenario = {
            "mu_e": 1.0362991679087545e59, "sigma_sq": 0, "method": "fine_grained",
            "players": [{"id": "a", "n": 5.1656149016491354e244},
                        {"id": "b", "n": 0.051232816207198995},
                        {"id": "c", "n": 4.836641475429374e-192}],
        }
        code, text = self.audit(tmp_path, scenario)
        assert code == 0
        errors = {row["id"]: float(row["error"]) for row in parse_csv(text)[:-1]}
        assert errors == self.exact_errors(scenario)
        assert set(errors.values()) == {2.006148711507537e-186}

    @pytest.mark.parametrize("method", ["local", "fine_grained"])
    def test_bound_is_judged_before_zero_errors(self, tmp_path, capsys, method):
        """Every error underflows to 0.0, so no ratio is defined, but the
        2c+1 bound overflows: an input error, as ``audit_egalitarian``
        reports it, and never a row with empty c and bound cells."""
        path = tmp_path / "zero_errors.json"
        path.write_text(
            '{"mu_e": 5e-324, "sigma_sq": 1e300, "players": [{"id": "a", "n": 10}, '
            f'{{"id": "b", "n": 20}}], "method": "{method}"}}'
        )
        code, text = run_cli(["audit", str(path)], tmp_path)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "the 2c+1 bound is outside the floating-point range" in err
        assert "mu_e=5e-324" in err and "n_max=20.0" in err

    def test_underflowing_total_squared_is_a_uniform_range_error(self, tmp_path):
        """T^2 = (2e-170)^2 underflows to zero in floats: the errors are the
        exact 5e+169, not a division by zero."""
        scenario = {"mu_e": 1, "sigma_sq": 1, "method": "uniform",
                    "players": [{"id": "a", "n": 1e-170}, {"id": "b", "n": 1e-170}]}
        code, text = self.audit(tmp_path, scenario)
        assert code == 0
        errors = {row["id"]: float(row["error"]) for row in parse_csv(text)[:-1]}
        assert errors == self.exact_errors(scenario) == {"a": 5e169, "b": 5e169}

    def test_whole_range_audit_prints_the_exact_error(self, tmp_path):
        """n_2^2 is subnormal here, and the float kernel printed
        5.7328295804379214e+197 for p1, 0.29% off, with exit 0."""
        scenario = {
            "mu_e": 5.2171776977957095e-28, "sigma_sq": 3.210897485331773e+290,
            "method": "uniform",
            "players": [{"id": "p1", "n": 4.8783196986385945e-115},
                        {"id": "p2", "n": 1.4596776673626622e-161}],
        }
        code, text = self.audit(tmp_path, scenario)
        assert code == 0
        rows = parse_csv(text)
        assert rows[0]["id"] == "p1" and rows[0]["error"] == "5.7494969277308597e+197"
        errors = {row["id"]: float(row["error"]) for row in rows[:-1]}
        assert errors == self.exact_errors(scenario)

    def test_simulate_takes_the_exact_uniform_weights(self, tmp_path):
        """T = 2e308 overflows in floats, which made every weight n_i / T
        zero: the simulated error was sigma_sq = 1 against the closed form
        0.5, with z about 25."""
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "mu_e": 10, "sigma_sq": 1, "method": "uniform",
            "players": [{"id": "a", "n": 1e308}, {"id": "b", "n": 1e308}],
        }))
        code, text = run_cli(["--seed", "3", "simulate", str(path)], tmp_path)
        assert code == 0
        for row in parse_csv(text):
            assert float(row["closed_form"]) == 0.5
            assert abs(float(row["z_score"])) <= 4

    def test_simulate_keeps_noise_below_the_means_ulp(self, tmp_path):
        """The estimate noise, std about 3e-154, was added to true means of
        about 1 before the target's mean was taken off, so it vanished:
        ``empirical_mse`` printed 0.0 against the closed form 1e-307."""
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "mu_e": 10, "sigma_sq": 1, "method": "fine_grained",
            "players": [{"id": "a", "n": 1e308}, {"id": "b", "n": 1e308}],
        }))
        code, text = run_cli(["--seed", "3", "simulate", str(path)], tmp_path)
        assert code == 0
        for row in parse_csv(text):
            assert float(row["closed_form"]) == 1e-307
            assert math.isclose(float(row["empirical_mse"]), 1e-307, rel_tol=0.05)

    def test_simulate_standard_error_of_tiny_errors(self, tmp_path):
        """The squares of squared errors of about 1e-307 underflowed to 0:
        the standard error printed 0.0 and z -Infinity and Infinity, with
        exit 0.  A squared error of normal noise has a standard deviation
        of sqrt(2) times its mean."""
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "mu_e": 10, "sigma_sq": 1, "method": "fine_grained",
            "players": [{"id": "a", "n": 1e308}, {"id": "b", "n": 1e308}],
        }))
        code, text = run_cli(["--seed", "3", "simulate", str(path)], tmp_path)
        assert code == 0
        for row in parse_csv(text):
            expected = 1e-307 * math.sqrt(2 / int(row["trials"]))
            assert math.isclose(float(row["standard_error"]), expected, rel_tol=0.05)
            assert abs(float(row["z_score"])) <= 4

    def test_nan_subproportionality_threshold(self, tmp_path, capsys):
        """(sigma_sq/n_s)(S + T^2) overflows in floats; the threshold is the
        exact mu_e / (2 sigma_sq - mu_e/n_s), and the scan exits 2 because
        its exact 2c+1, about 2e310, overflows."""
        code, text = run_cli(
            [
                "scan", "--ns", "1e10", "--nl-start", "1", "--nl-stop", "1",
                "--nl-step", "1", "--mu-e", "1", "--sigma-sq", "1e300",
            ],
            tmp_path,
        )
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "the 2c+1 bound is outside" in err and "sigma_sq=1e+300" in err
        rest, params = Coalition((Player("s", 1e10),)), PopulationParams(1.0, 1e300)
        exact = float(1 / (2 * Fraction(1e300) - 1 / Fraction(1e10)))
        assert subproportionality_threshold(rest, "s", params) == exact

    def test_overflowing_worst_ratio_is_an_input_error(self, tmp_path, capsys):
        """The errors 1e-300 and 1/1e-300 are finite, but their ratio, about
        1e600 against a 2c+1 of 2e290, is not: printed as Infinity and
        judged unsatisfied before, now an input error naming both errors."""
        scenario = {"mu_e": 1, "sigma_sq": 1e-10, "method": "local",
                    "players": [{"id": "p1", "n": 1e300}, {"id": "p2", "n": 1e-300}]}
        code, text = self.audit(tmp_path, scenario)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "the ratio p2/p1 is outside the floating-point range" in err
        assert f"p2={1 / 1e-300!r}, p1=1e-300" in err

    def test_overflowing_size_ratio_is_an_input_error(self, tmp_path, capsys):
        """n_l / n_s = 1e400 overflows where every other cell is finite."""
        code, text = run_cli(
            [
                "scan", "--ns", "1e-200", "--nl-start", "1e200", "--nl-stop", "1e200",
                "--nl-step", "1", "--mu-e", "1", "--sigma-sq", "1e-300",
            ],
            tmp_path,
        )
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "the ratio n_l/n_s is outside the floating-point range" in err
        assert "n_l=1e+200, n_s=1e-200" in err

    def test_audit_never_reports_an_infinite_bound(self, tmp_path, capsys):
        path = tmp_path / "huge_c.json"
        path.write_text(
            '{"mu_e": 1e-10, "sigma_sq": 10, "players": [{"id": "a", "n": 1e300}], '
            '"method": "uniform"}'
        )
        code, text = run_cli(["audit", str(path)], tmp_path)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "2c+1 bound" in err and "n_max=1e+300" in err


class TestClosedOutput:
    def test_closed_stdout_exits_141_silently(self):
        src = Path(fedfair.cli.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        # 3,000 JSON rows are far more than a pipe buffers, so the writer
        # is still writing when the reader goes away.
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "fedfair.cli", "--format", "json", "scan",
                "--ns", "5", "--nl-start", "1", "--nl-stop", "3000",
                "--nl-step", "1", "--mu-e", "10", "--sigma-sq", "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""


class TestArgumentErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_scenario_file(self, capsys):
        assert main(["audit", "/nonexistent/scenario.json"]) == 2

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["scan", "--ns", "6", "--nl-start", "20", "--nl-stop", "40",
              "--nl-step", "0", "--mu-e", "10", "--sigma-sq", "1"], "--nl-step"),
            (["audit", "missing.json"], "missing.json"),
            (["verify", "propstab", "--instances", "0"], "--instances"),
            (["verify", "egalitarian-bound", "--instances", "abc"], "--instances"),
            (["verify", "modularity", "--instances", "3"], "--instances"),
            (["reproduce", "mystery"], "mystery"),
            (["simulate", "SCENARIO", "--trials", "1", "--dump-scenario", "dump.json"],
             "--trials"),
            (["simulate", "SCENARIO", "--trials", "2.5"], "--trials"),
            # Both pass parsing and fail the command's own checks after it.
            (["simulate", "OVERFLOW", "--trials", "4096", "--dump-scenario", "dump.json"],
             "outside the floating-point range"),
            (["audit", "OVERFLOW", "--dump-scenario", "dump.json"],
             "outside the floating-point range"),
        ],
        ids=["scan-step", "audit-missing", "verify-instances", "verify-instances-text",
             "verify-modularity-instances",
             "reproduce-table", "simulate-trials", "simulate-trials-fraction",
             "simulate-range-dump", "audit-range-dump"],
    )
    def test_rejected_command_writes_nothing(
        self, argv, named, scenario_620, tmp_path, capsys, monkeypatch
    ):
        """A rejected command leaves an existing --out file as it was and
        writes no other file, --dump-scenario included."""
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out.txt"
        out.write_text("prior content\n")
        # One fine-grained player whose exact error, 1e310, overflows.
        overflow = tmp_path / "overflow.json"
        overflow.write_text(
            json.dumps(
                {
                    "mu_e": 1e300,
                    "sigma_sq": 0,
                    "players": [{"id": "a", "n": 1e-10}],
                    "method": "fine_grained",
                }
            )
        )
        before = sorted(tmp_path.iterdir())
        files = {"SCENARIO": scenario_620, "OVERFLOW": str(overflow)}
        argv = [files.get(arg, arg) for arg in argv]
        assert main(["--out", str(out), *argv]) == 2
        assert out.read_text() == "prior content\n"
        assert sorted(tmp_path.iterdir()) == before
        assert named in capsys.readouterr().err


class TestSeedRange:
    """Every command takes 0 <= --seed < 2**64 and names --seed otherwise."""

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "x"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "egalitarian-bound", "--instances", "5"],
            ["verify", "propstab", "--instances", "5"],
            ["reproduce", "motivating"],
        ],
        ids=["egalitarian-bound", "propstab", "reproduce"],
    )
    def test_out_of_range_seed_names_the_option(self, seed, argv, tmp_path, capsys):
        code, text = run_cli(["--seed", seed, *argv], tmp_path)
        assert code == 2 and text == ""
        assert "--seed" in capsys.readouterr().err

    def test_largest_seed_accepted_by_the_sweeps(self, tmp_path):
        for suite in ("egalitarian-bound", "propstab"):
            code, text = run_cli(
                ["--seed", str(2**64 - 1), "verify", suite, "--instances", "5"],
                tmp_path,
            )
            assert code == 0
            assert parse_csv(text)[0]["passed"] == "true"

    def test_simulate_checks_every_player_seed_before_running(
        self, scenario_620, tmp_path, capsys, monkeypatch
    ):
        """Every player runs at --seed, so a two-player file takes any seed
        below 2**64; the check of 2**64 comes before any simulation."""
        from fedfair import montecarlo

        def refuse(*args, **kwargs):
            raise AssertionError("a simulation ran")

        monkeypatch.setattr(montecarlo, "_simulate", refuse)
        monkeypatch.setattr(montecarlo, "simulate_error", refuse)
        argv = ["--seed", str(2**64), "simulate", scenario_620, "--trials", "2"]
        code, text = run_cli(argv, tmp_path)
        assert code == 2 and text == ""
        assert "--seed" in capsys.readouterr().err

    def test_simulate_accepts_the_largest_seed_that_fits(self, scenario_620, tmp_path):
        """Every member is scored on the one stream of --seed, so the largest
        seed serves any player count and every row prints it."""
        argv = ["--seed", str(2**64 - 1), "simulate", scenario_620, "--trials", "2"]
        code, text = run_cli(argv, tmp_path)
        assert code == 0
        assert [r["seed"] for r in parse_csv(text)] == [str(2**64 - 1)] * 2


class TestIntegerOptions:
    """--seed, --instances and --trials are integers below 2**64, checked
    when the arguments are parsed."""

    @pytest.mark.parametrize(
        "argv, named, low",
        [
            (["verify", "propstab", "--instances", str(2**64)], "--instances", 1),
            (["simulate", "x.json", "--trials", str(2**64)], "--trials", 2),
        ],
        ids=["instances", "trials"],
    )
    def test_2_to_the_64_rejected(self, argv, named, low, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert named in err
        assert f"must be an integer in [{low}, 2**64), got '{2**64}'" in err

    def test_largest_value_parses(self):
        top = 2**64 - 1
        parse = build_parser().parse_args
        assert parse(["verify", "propstab", "--instances", str(top)]).instances == top
        assert parse(["simulate", "x.json", "--trials", str(top)]).trials == top
