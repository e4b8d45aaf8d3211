"""Import-time contract: the closed-form commands never load numpy, and the
Monte Carlo names the package exports lazily behave like plain ones."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import fedfair

SRC = Path(fedfair.__file__).resolve().parents[1]

NUMPY_FREE = """
import sys
sys.path.insert(0, {src!r})
import fedfair.cli
codes = [
    fedfair.cli.main(["--out", {out!r}, *argv])
    for argv in (
        ["audit", {scenario!r}],
        ["reproduce", "motivating"],
        ["scan", "--ns", "6", "--nl-start", "20", "--nl-stop", "40",
         "--nl-step", "10", "--mu-e", "10", "--sigma-sq", "1"],
        ["verify", "modularity"],
    )
]
print(codes, "numpy" in sys.modules)
"""


def test_closed_form_commands_do_not_import_numpy(tmp_path):
    scenario = tmp_path / "pair.json"
    scenario.write_text(
        json.dumps(
            {
                "mu_e": 10,
                "sigma_sq": 1,
                "players": [{"id": "s", "n": 6}, {"id": "l", "n": 20}],
                "method": "fine_grained",
            }
        )
    )
    code = NUMPY_FREE.format(
        src=str(SRC), out=str(tmp_path / "out.txt"), scenario=str(scenario)
    )
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["[0,", "0,", "0,", "0]", "False"]


def test_every_exported_name_resolves():
    for name in fedfair.__all__:
        assert getattr(fedfair, name) is not None, name
    namespace: dict = {}
    exec("from fedfair import *", namespace)
    assert set(fedfair.__all__) <= set(namespace)
    from fedfair import simulate_error
    from fedfair.montecarlo import simulate_error as direct

    assert simulate_error is direct


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        fedfair.no_such_name  # noqa: B018
