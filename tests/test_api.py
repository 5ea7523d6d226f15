"""The public API: the README's library example runs as written, the
names exported from ``qmult`` are exactly the listed ones, and so are the
fields of ``MultiplicityResult``."""

import ast
import dataclasses
import re
from pathlib import Path

import qmult

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_values():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(block).body:
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        if isinstance(node, ast.Expr) and comment:
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert str(value) == comment
            checked += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked == 3


def test_public_names():
    assert sorted(qmult.__all__) == [
        "AltSet",
        "CapExceededError",
        "IndexSet",
        "MultiplicityResult",
        "QPolynomial",
        "RootVector",
        "alt_set_brute",
        "alt_set_closed",
        "highest_root",
        "kostant_q",
        "kostant_q_oracle",
        "m_q_altset",
        "m_q_brute",
        "m_q_closed_general",
        "m_q_closed_zero",
        "m_q_rank_reduction",
    ]
    assert all(hasattr(qmult, name) for name in qmult.__all__)


def test_multiplicity_result_fields():
    fields = tuple(f.name for f in dataclasses.fields(qmult.MultiplicityResult))
    assert fields == ("value", "method", "terms_evaluated")
