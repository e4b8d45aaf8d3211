"""CLI contract: scenario ingestion, exit codes, output formats, and the
subcommand surfaces."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedfair.cli
from fedfair import Coalition, Player, PopulationParams, uniform_error
from fedfair.cli import (
    MAX_SCAN_ROWS,
    load_scenario_file,
    main,
    run_reproduce,
)
from fedfair.proportionality import PropstabResult


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


class TestAudit:
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

    def test_default_ids_are_positional(self, tmp_path):
        path = self.write(
            tmp_path,
            {"mu_e": 1, "sigma_sq": 1, "players": [{"n": 2}, {"n": 3}],
             "method": "local"},
        )
        _, coalition, _ = load_scenario_file(path)
        assert [(p.id, p.n) for p in coalition.players] == [("p1", 2.0), ("p2", 3.0)]

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
        buffer = io.StringIO()
        assert run_reproduce("motivating", "csv", buffer) == 1
        rows = parse_csv(buffer.getvalue())
        assert [r["matches"] for r in rows] == ["true", "false", "true"]
        assert "diverge" in capsys.readouterr().err

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
        monkeypatch.setattr(fedfair.cli, "verify_propstab", lambda **_: result)
        code, text = run_cli(["verify", "propstab"], tmp_path, fmt="json")
        assert code == 1
        detail = strict_json(strict_json(text)["rows"][1]["detail"])
        assert detail["defection"] == "Infinity"
        assert detail["threshold"] == "-Infinity"

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


class TestFloatRange:
    """Inputs whose closed forms leave the float range are input errors."""

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

    def test_overflowing_scan_rows(self, tmp_path, capsys):
        code, text = self.scan(tmp_path, "1e308", "1e308")
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "floating-point range" in err and "1e+308" in err

    def test_audit_never_reports_a_nan_error(self, tmp_path, capsys):
        path = tmp_path / "extreme.json"
        path.write_text(
            '{"mu_e": 1e-320, "sigma_sq": 1, "players": [{"id": "a", "n": 1e300}, '
            '{"id": "b", "n": 2}], "method": "uniform"}'
        )
        code, text = run_cli(["audit", str(path)], tmp_path)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "uniform error" in err and "mu_e=1e-320" in err
        assert "'a': 1e+300" in err and "'b': 2.0" in err

    def test_audit_never_reports_a_vanishing_fine_grained_error(
        self, tmp_path, capsys
    ):
        """V = 1e-320 is positive but 1/V overflows: exit 2, not error 0.0."""
        path = tmp_path / "tiny_v.json"
        path.write_text(
            '{"mu_e": 1e-320, "sigma_sq": 0, "players": [{"id": "a", "n": 1}], '
            '"method": "fine_grained"}'
        )
        code, text = run_cli(["audit", str(path)], tmp_path)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "fine_grained error" in err and "mu_e=1e-320" in err
        assert "sigma_sq=0.0" in err and "'a': 1.0" in err

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
