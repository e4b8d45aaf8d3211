"""The one integer rule, ``model.check_integer``, at every library entry
point that takes a seed, a count or an index: a non-bool integer in
[low, 2**64) is taken and stored as an int, and anything else raises
``ValueError`` naming the field before any instance is drawn or any
thread starts."""

import concurrent.futures
import re

import numpy as np
import pytest

import fedfair.sampling
from fedfair import (Coalition, FederationMethod, PopulationParams, SimulationSpec,
                     bound_sweep, default_suite, simulate_suite, verify_propstab)
from fedfair.model import check_integer
from fedfair.sampling import instance_rng

TOP = 2**64 - 1


def spec(**kwargs) -> SimulationSpec:
    return SimulationSpec(Coalition.from_sizes([6, 20]), "p1", PopulationParams(10, 1),
                          FederationMethod.UNIFORM, **{"trials": 2, **kwargs})


class SerialPool:
    """A stand-in for ``ThreadPoolExecutor`` that keeps ``max_workers`` and
    runs the calls on the calling thread: no test here starts a thread."""

    def __init__(self, max_workers):
        SerialPool.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, function, *iterables):
        return map(function, *iterables)


def suite_threads(threads):
    simulate_suite([spec()], threads=threads)
    return SerialPool.max_workers


def sweep_count(sweep):
    return lambda count: sweep(count, 0).instances


def as_int(function):
    """A call that stores no integer: it must give for the value what it
    gives for the int, which it returns."""

    def call(value):
        assert function(value) == function(int(value))
        return int(value)

    return call


# (call, the field its message names, low, accepted values): each call
# returns what the entry point stored for the value, or through ``as_int``
# the int it ran as.  Counts are accepted at sizes that run fast, and a
# base seed only where all 23 of its seeds fit below 2**64.
ENTRY_POINTS = {
    "SimulationSpec-trials": (lambda v: spec(trials=v).trials, "trials", 2,
                              [np.int64(4096), np.uint64(TOP)]),
    "SimulationSpec-seed": (lambda v: spec(seed=v).seed, "seed", 0,
                            [np.int64(5), np.uint64(TOP)]),
    "simulate_suite-threads": (suite_threads, "threads", 1,
                               [np.int64(1), np.uint64(TOP)]),
    "default_suite-trials": (lambda v: default_suite(trials=v)[0].trials, "trials", 2,
                             [np.int64(4096), np.uint64(TOP)]),
    "default_suite-base_seed": (lambda v: default_suite(base_seed=v)[0].seed,
                                "base_seed", 0, [np.int64(5), np.uint64(TOP - 22)]),
    "instance_rng-seed": (as_int(lambda v: instance_rng(v, 0)), "seed", 0,
                          [np.int64(5), np.uint64(TOP)]),
    "instance_rng-index": (as_int(lambda v: instance_rng(0, v)), "index", 0,
                           [np.int64(5), np.uint64(TOP)]),
    "bound_sweep-instance_count": (sweep_count(bound_sweep), "instance count", 1,
                                   [np.int64(3), np.uint64(3)]),
    "bound_sweep-seed": (as_int(lambda v: bound_sweep(3, v)), "seed", 0,
                         [np.int64(5), np.uint64(TOP)]),
    "verify_propstab-instance_count": (sweep_count(verify_propstab), "instance count",
                                       1, [np.int64(3), np.uint64(3)]),
    "verify_propstab-seed": (as_int(lambda v: verify_propstab(3, v)), "seed", 0,
                             [np.int64(5), np.uint64(TOP)]),
}


@pytest.fixture
def nothing_runs(monkeypatch):
    """Drawing an instance or starting a pool fails the test."""

    def started(*args, **kwargs):
        raise AssertionError("an instance was drawn or a pool started")

    monkeypatch.setattr(fedfair.sampling, "_instances", started)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", started)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("value", [True, False, 2.5, 4096.0, "7", None, "low - 1", 2**64])
def test_rejected_by_name(nothing_runs, entry, value):
    call, field, low, _ = ENTRY_POINTS[entry]
    value = low - 1 if value == "low - 1" else value
    message = f"{field} must be an integer in [{low}, 2**64), got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_numpy_integers_are_stored_as_ints(monkeypatch, entry):
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    call, _, _, accepted = ENTRY_POINTS[entry]
    for value in accepted:
        stored = call(value)
        assert type(stored) is int and stored == int(value)


def test_the_rule():
    assert check_integer("n", 2**64 - 1, 0) == 2**64 - 1
    assert type(check_integer("n", np.uint8(7), 7)) is int
    for value in (6, 2**64, True, 7.0, np.float64(7), "7", b"7", None):
        with pytest.raises(ValueError, match=re.escape(
                f"n must be an integer in [7, 2**64), got {value!r}")):
            check_integer("n", value, 7)
