"""The printed numbers do not depend on the interpreter's ``sum()``: every
byte pin of ``test_output_bytes`` holds when ``builtins.sum`` is a model of
CPython 3.12's compensated ``sum()``, on any Python.  The model is checked
against ``sum()`` itself where that is 3.12's."""

import subprocess
import sys
from pathlib import Path

import pytest
from compensated_sum import LONG_MAX, LONG_MIN, compensated_sum
from hypothesis import given
from hypothesis import strategies as st
from test_output_bytes import PINS

import fedfair

TESTS = Path(__file__).resolve().parent
SRC = Path(fedfair.__file__).resolve().parents[1]

UNDER_THE_MODEL = """
import builtins
import sys

sys.path[:0] = [{tests!r}, {src!r}]
from compensated_sum import compensated_sum

builtins.sum = compensated_sum
import pytest

sys.exit(pytest.main(["-q", "-rf", "-p", "no:cacheprovider", "--basetemp", {tmp!r},
                      {pins!r}]))
"""


def test_byte_pins_hold_under_a_compensated_sum(tmp_path):
    """At the parent of the left fold, ``sum()`` added the members, and the
    fine-grained ``audit`` and ``simulate`` pins failed here: the model
    moved four errors of the six-player audit in their last digit."""
    code = UNDER_THE_MODEL.format(tests=str(TESTS), src=str(SRC),
                                  tmp=str(tmp_path / "child"),
                                  pins=str(TESTS / "test_output_bytes.py"))
    child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, timeout=600)
    assert child.returncode == 0, child.stdout + child.stderr
    assert f"{len(PINS)} passed" in child.stdout, child.stdout


def test_the_model_compensates():
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1e100, 1.0, -1e100]) == 1.0


# The ints a C long holds, which both sums add on their fast paths.
NUMBERS = st.lists(st.one_of(st.floats(), st.integers(LONG_MIN, LONG_MAX)))


@pytest.mark.skipif(sys.version_info < (3, 12), reason="sum() compensates from 3.12")
@given(floats=st.lists(st.floats()), mixed=NUMBERS)
def test_the_model_is_the_builtin_sum(floats, mixed):
    for values in ([], floats, mixed):
        assert repr(compensated_sum(values)) == repr(sum(values))
