"""Import-time contract: the closed-form commands and both randomized
sweeps never load numpy, dataclasses, inspect, fractions or decimal,
importing the CLI loads none of those nor hashlib, ``audit``,
``reproduce`` and ``scan`` load the column verdicts but neither the audit
and sweep modules nor the instance stream, ``verify modularity`` and a
``--dump-scenario`` load no instance stream, ``simulate`` loads neither
dataclasses nor the thread pool nor the verdicts, audit or sweep modules,
``import fedfair`` loads no submodule, and the names the package exports
lazily behave like plain ones."""

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
        ["verify", "egalitarian-bound", "--instances", "50"],
        ["verify", "propstab", "--instances", "50"],
    )
]
print(codes, *(name in sys.modules for name in {names!r}))
"""

SIMULATE = """
import sys
sys.path.insert(0, {src!r})
import fedfair.cli
code = fedfair.cli.main(["--out", {out!r}, "simulate", {scenario!r}, "--trials", "4096"])
loaded = [name in sys.modules for name in {names!r}]
from fedfair import default_suite, simulate_suite
suite = simulate_suite(default_suite(trials=4096), threads=2)
print(code, *loaded, len(suite.entries), suite.passed)
"""

LOADED_AFTER = """
import sys
sys.path.insert(0, {src!r})
{statements}
print(*(name in sys.modules for name in {names!r}))
"""

SUBMODULES = tuple(
    f"fedfair.{path.stem}" for path in sorted((SRC / "fedfair").glob("*.py"))
    if path.stem != "__init__"
)


def write_pair(tmp_path, method):
    """The README's two-player scenario under ``method``, as a file."""
    scenario = tmp_path / "pair.json"
    scenario.write_text(
        json.dumps(
            {
                "mu_e": 10,
                "sigma_sq": 1,
                "players": [{"id": "s", "n": 6}, {"id": "l", "n": 20}],
                "method": method,
            }
        )
    )
    return str(scenario)


@pytest.fixture(scope="module")
def closed_form_modules(tmp_path_factory):
    """Which of numpy, dataclasses, inspect, fractions and decimal are
    loaded after ``main`` ran every closed-form command and both sweeps,
    once per module."""
    tmp_path = tmp_path_factory.mktemp("closed_form")
    scenario = write_pair(tmp_path, "fine_grained")
    code = NUMPY_FREE.format(
        src=str(SRC),
        out=str(tmp_path / "out.txt"),
        scenario=scenario,
        names=("numpy", "dataclasses", "inspect", "fractions", "decimal"),
    )
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.split()


def test_closed_form_commands_do_not_import_numpy(closed_form_modules):
    assert closed_form_modules[:7] == ["[0,", "0,", "0,", "0,", "0,", "0]", "False"]


def test_closed_form_commands_do_not_import_dataclasses(closed_form_modules):
    """``dataclasses`` loads ``inspect``, which loads ``ast``, ``dis`` and
    ``tokenize``: start-up time that no closed form needs."""
    assert closed_form_modules[7:9] == ["False", "False"]


def test_closed_form_commands_do_not_import_fractions(closed_form_modules):
    """The kernel evaluates ``Fraction`` columns exactly, yet no command
    needs exact arithmetic: ``fractions`` (which loads ``decimal``) would
    only add start-up time."""
    assert closed_form_modules[9:] == ["False", "False"]


def test_simulate_loads_neither_dataclasses_nor_the_thread_pool(tmp_path):
    """A single simulation needs no ``concurrent.futures`` (which loads
    ``logging``); ``simulate_suite`` loads it when it runs, and still runs
    on two threads.  ``inspect`` is not checked here: numpy loads it."""
    scenario = write_pair(tmp_path, "uniform")
    code = SIMULATE.format(
        src=str(SRC),
        out=str(tmp_path / "out.txt"),
        scenario=scenario,
        names=("dataclasses", "concurrent.futures", "logging"),
    )
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["0", "False", "False", "False", "23", "True"]


def loaded_after(statements, *names):
    """Whether each of ``names`` is loaded after a fresh interpreter ran
    ``statements``."""
    code = LOADED_AFTER.format(src=str(SRC), statements=statements, names=names)
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.split()


def cli_import_loads(*names):
    return loaded_after("import fedfair.cli", *names)


def test_package_import_loads_no_submodule():
    """Every public name resolves on first access, so ``import fedfair``
    alone compiles and runs none of the package's modules."""
    assert "fedfair.cli" in SUBMODULES
    assert loaded_after("import fedfair", *SUBMODULES) == ["False"] * len(SUBMODULES)


def submodules_loaded_after(tmp_path, *commands):
    """Which of ``SUBMODULES`` a fresh interpreter has loaded after ``main``
    ran each of ``commands`` and it exited 0."""
    out = str(tmp_path / "out.txt")
    calls = [f"assert fedfair.cli.main({['--out', out, *argv]!r}) == 0"
             for argv in commands]
    statements = "\n".join(["import fedfair.cli", *calls])
    return dict(zip(SUBMODULES, loaded_after(statements, *SUBMODULES)))


def test_closed_form_commands_load_only_the_column_verdicts(tmp_path):
    """``audit``, ``reproduce`` and ``scan`` judge with the column
    verdicts alone: the audit and sweep modules (``egalitarian``,
    ``proportionality``) and the instance stream (``sampling``) stay
    unloaded, so a fresh interpreter compiles none of them."""
    loaded = submodules_loaded_after(
        tmp_path,
        ["audit", write_pair(tmp_path, "fine_grained")],
        ["reproduce", "motivating"],
        ["scan", "--ns", "6", "--nl-start", "20", "--nl-stop", "40",
         "--nl-step", "10", "--mu-e", "10", "--sigma-sq", "1"],
    )
    needed = {"cli", "errors", "exceptions", "model", "verdicts"}
    assert loaded == {name: str(name.split(".")[1] in needed) for name in SUBMODULES}


def test_modularity_check_loads_no_instance_stream(tmp_path):
    """``verify modularity`` checks a fixed grid: it draws no instance."""
    loaded = submodules_loaded_after(tmp_path, ["verify", "modularity"])
    assert loaded["fedfair.egalitarian"] == "True"
    assert loaded["fedfair.sampling"] == "False"


def test_simulate_loads_only_the_oracle_and_the_closed_forms(tmp_path):
    """``simulate`` needs the kernel and the oracle: the column verdicts
    (``verdicts``) and the audit and sweep modules (``egalitarian``,
    ``proportionality``, ``sampling``) stay unloaded."""
    argv = ["simulate", write_pair(tmp_path, "fine_grained"), "--trials", "4096"]
    loaded = submodules_loaded_after(tmp_path, argv)
    needed = {"cli", "errors", "exceptions", "model", "montecarlo"}
    assert loaded == {name: str(name.split(".")[1] in needed) for name in SUBMODULES}


@pytest.mark.parametrize("command", [["audit"], ["simulate", "--trials", "4096"]],
                         ids=["audit", "simulate"])
def test_dump_scenario_loads_no_instance_stream(tmp_path, command):
    """Re-emitting a parsed scenario needs ``describe_instance`` alone."""
    name, *options = command
    dump = str(tmp_path / "dump.json")
    argv = [name, write_pair(tmp_path, "uniform"), *options, "--dump-scenario", dump]
    assert submodules_loaded_after(tmp_path, argv)["fedfair.sampling"] == "False"


def test_cli_import_loads_neither_numpy_nor_hashlib():
    assert cli_import_loads("numpy", "hashlib") == ["False", "False"]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    assert cli_import_loads("dataclasses", "inspect") == ["False", "False"]


def test_cli_import_loads_neither_fractions_nor_decimal():
    assert cli_import_loads("fractions", "decimal") == ["False", "False"]


PUBLIC_API = {
    "Coalition", "CoalitionLabel", "FairnessAudit", "FederationMethod",
    "MeanDistribution", "ModularityReport", "Player", "PopulationParams",
    "ProportionalityReport", "RationalityReport", "SimulationResult",
    "SimulationSpec", "TightnessResult", "audit_egalitarian", "bound_sweep",
    "check_modularity", "classify_proportionality", "default_suite",
    "defection_threshold", "expected_error", "fine_grained_error",
    "fine_grained_weights", "individually_rational", "inverse_size_error",
    "local_error", "simulate_error", "simulate_suite",
    "subproportionality_threshold", "tightness_search", "uniform_error",
    "verify_propstab", "weighted_error",
}


def test_every_exported_name_resolves():
    """The exports are exactly ``PUBLIC_API``: a public name is added or
    removed only with an edit here."""
    assert len(fedfair.__all__) == len(PUBLIC_API) == 32
    assert set(fedfair.__all__) == PUBLIC_API
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
