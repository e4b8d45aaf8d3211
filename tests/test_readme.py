"""README's ``## Library`` example runs as printed, and each commented
line returns what its comment says."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_results():
    """Run the python block of README's ``## Library`` section statement by
    statement; map each expression's trailing comment to its value."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    source = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    lines, namespace, results = source.splitlines(), {}, {}
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            comment = lines[node.end_lineno - 1].split("#", 1)[1].strip()
            results[comment] = eval(code, namespace)
        else:
            exec(code, namespace)
    return results


def test_library_example_runs_as_printed():
    results = library_results()
    assert list(results) == ["1.568...", "{'l': 0.88, 's': 0.12}",
                             "ratio 3.19 <= bound 5", "sub", "rational"]
    assert repr(results["1.568..."]).startswith("1.568")
    assert repr(results["{'l': 0.88, 's': 0.12}"]) == "{'l': 0.88, 's': 0.12}"
    audit = results["ratio 3.19 <= bound 5"]
    assert round(audit.max_ratio, 2) == 3.19 and audit.bound == 5
    assert audit.satisfied
    assert results["sub"].value == "sub"
    assert results["rational"].individually_rational
