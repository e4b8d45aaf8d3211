"""Self-tests of the benchmark: a tiny pass of every workload and of the
traced run, metric names and units against BENCHMARK.json, and failure
counting.

    python3 -m pytest perfbench/selftest.py

The file name keeps it out of the package's default test collection; the
tiny passes still start about forty CLI subprocesses.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def spec_units(key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[key]}


def printed_units(result: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_spec_lists_the_workloads():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_reports_every_end_to_end_metric(workload):
    result = run.measure(workload, seed=7, seconds=0, sizes=TINY)
    assert result["failed"] == 0, result["failures"]
    assert printed_units(result) == spec_units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_per_layer_metric():
    result = layers.profile("sweeps", seed=7, sizes=TINY)
    assert result["failed"] == 0, result["failures"]
    assert printed_units(result) == spec_units("per_layer")
    spans = (run.ROOT / result["notes"]["spans_file"]).read_text().splitlines()
    assert len(spans) == result["notes"]["spans"]
    first = json.loads(spans[0])
    assert set(first) == {"id", "parent", "name", "start", "end", "workload"}


def test_wrong_expected_value_counts_in_failed_ratio(monkeypatch):
    real = workloads.build("interactive", 7, run.OUT / "inputs", TINY)
    audit = next(c for c in real.commands
                 if c.kind == "audit" and c.expected["format"] == "csv")
    rows = [dict(r) for r in audit.expected["rows"]]
    rows[0]["error"] = math.nextafter(rows[0]["error"], math.inf)  # one ulp off
    wrong = dataclasses.replace(audit, expected={**audit.expected, "rows": rows})
    fake = dataclasses.replace(real, commands=(audit, wrong))
    monkeypatch.setattr(workloads, "build", lambda *args: fake)

    result = run.measure("interactive", seed=7, seconds=0, sizes=TINY)

    assert result["attempted"] == 2
    assert result["failed"] == 1
    assert result["notes"]["failed_ratio"] == 0.5
    assert "error=" in result["failures"][0]


def test_unparseable_output_is_a_failure_not_a_crash():
    sweeps = workloads.build("sweeps", 7, run.OUT / "inputs", TINY)
    for command in sweeps.commands:
        assert command.verdict(0, "not,a\nresult") is not None
        assert command.verdict(1, "") is not None


def test_run_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweeps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_latency_quantiles_rank_the_commands_of_a_pass():
    assert run.pass_quantile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert run.pass_quantile([3.0, 1.0, 2.0], 0.9) == 3.0
    assert run.pass_quantile([float(i) for i in range(26)], 0.9) == 23.0
    assert run.pass_quantile([5.0], 0.9) == 5.0


def test_child_max_rss_is_its_own_not_the_runners():
    ballast = bytearray(96 * 2**20)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    child = run.run_child(["-c", "pass"])
    assert child.code == 0
    assert child.maxrss_mb < 64, child.maxrss_mb
