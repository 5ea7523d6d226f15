"""The public API: the README's library example runs as written, the
names exported from ``qmult`` are exactly the listed ones, and so are the
fields of ``MultiplicityResult`` and the public names that ``qmult.weyl``
and ``qmult.roots`` define, so that test-only helpers stay in ``tests/``."""

import ast
import dataclasses
import re
from pathlib import Path

import qmult
from qmult import roots, weyl

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


def _defined_public_names(module):
    """Names without a leading underscore that module binds itself; an
    object without ``__module__``, like an int constant, counts as its own."""
    return sorted(
        name for name, value in vars(module).items()
        if not name.startswith("_")
        and getattr(value, "__module__", module.__name__) == module.__name__
    )


def test_weyl_and_roots_public_names():
    assert _defined_public_names(weyl) == [
        "CapExceededError",
        "DEFAULT_BRUTE_CAP",
        "WeylElement",
        "commuting_indices",
    ]
    assert _defined_public_names(roots) == [
        "RootVector",
        "all_positive_roots",
        "alpha_of_index_set",
        "embed",
        "highest_root",
        "positive_root",
        "simple_root",
        "zero_root",
    ]


def test_multiplicity_result_fields():
    fields = tuple(f.name for f in dataclasses.fields(qmult.MultiplicityResult))
    assert fields == ("value", "method", "terms_evaluated")
