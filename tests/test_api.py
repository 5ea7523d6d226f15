"""The public API: the README's library example runs as written, the
names exported from ``qmult`` are exactly the listed ones, and so are the
fields of ``MultiplicityResult`` and ``AltSet``, the public names that
each submodule defines, the public methods of the exported classes and
``QPolynomial``'s operators, so that test-only helpers stay in ``tests/``.
The exported value types are immutable and hashable, and importing the
package loads no ``dataclasses``, ``inspect`` or ``typing``."""

import ast
import importlib
import inspect
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qmult
from qmult import IndexSet, QPolynomial, RootVector
from qmult.partition import PartitionTable

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


# Each name has a caller in the package itself, its command line, the README
# example or the benchmark (perfbench/); a helper only the tests or scripts/
# call belongs in tests/ or stays private.
SUBMODULE_NAMES = {
    "altset": ["AltSet", "WeylSweep", "alt_set_brute", "alt_set_cardinality",
               "alt_set_closed", "fib_profile", "fibonacci"],
    "cli": ["ENV_BRUTE_CAP", "build_parser", "element_words", "main",
            "parse_index_set", "parse_mu"],
    "intervals": ["IndexSet", "interval_partition", "n_of_complement"],
    "multiplicity": ["METHODS", "MultiplicityResult", "m_q_altset", "m_q_brute",
                     "m_q_closed_general", "m_q_closed_zero", "m_q_rank_reduction",
                     "signed_sum"],
    "partition": ["DEFAULT_ORACLE_CAP", "PartitionTable", "factorize_over_intervals",
                  "kostant_q", "kostant_q_oracle", "table_for"],
    "poly": ["ONE", "QPolynomial", "ZERO", "pack", "unpack"],
    "roots": ["RootVector", "embed", "highest_root", "positive_root"],
    "weyl": ["CapExceededError", "DEFAULT_BRUTE_CAP", "commuting_indices", "length"],
}


def _defined_public_names(module):
    """Names without a leading underscore that the module's own top-level
    statements bind: functions, classes and assignments, not imports."""
    names = []
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return sorted(name for name in names if not name.startswith("_"))


def test_module_public_names():
    modules = sorted(p.stem for p in Path(qmult.__file__).parent.glob("*.py")
                     if p.stem != "__init__")
    assert modules == sorted(SUBMODULE_NAMES)
    for name, expected in SUBMODULE_NAMES.items():
        module = importlib.import_module(f"qmult.{name}")
        assert _defined_public_names(module) == expected, name


def test_altset_does_not_import_the_partition_dp():
    # the alternation-set layer stands on the sweep alone; only the
    # multiplicity routes evaluate partition values
    source = (Path(qmult.__file__).parent / "altset.py").read_text()
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported += [base] if node.module else [base + a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported
    assert not any(name in (".partition", "qmult.partition")
                   or name.startswith("qmult.partition.") for name in imported), imported


# The public methods and properties of each exported class; as with the
# module names above, one that only the tests call belongs in tests/.
CLASS_METHODS = {
    qmult.QPolynomial: ["degree", "eval_at_one", "latex"],
    qmult.IndexSet: ["is_empty", "to_root_vector"],
    qmult.RootVector: ["is_zero"],
    qmult.AltSet: [],
    qmult.MultiplicityResult: [],
    PartitionTable: ["kostant_q"],
}


def test_class_public_methods():
    for cls, expected in CLASS_METHODS.items():
        got = sorted(name for name in vars(cls) if not name.startswith("_"))
        assert got == expected, cls.__name__


_BINARY = ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod",
           "pow", "lshift", "rshift", "and", "or", "xor")
ARITHMETIC_DUNDERS = ({f"__{side}{op}__" for op in _BINARY for side in ("", "r", "i")}
                      | {"__neg__", "__pos__", "__abs__", "__invert__"})


def test_qpolynomial_operators_are_add_and_mul():
    # the package computes with + and * of two QPolynomials; the rest of
    # the algebra is the tests' (poly_helpers), and CLASS_METHODS skips
    # underscore names, so this pins the operators
    defined = {name for cls in QPolynomial.__mro__ for name in vars(cls)}
    assert sorted(defined & ARITHMETIC_DUNDERS) == ["__add__", "__mul__"]


def test_multiplicity_result_fields():
    result = qmult.m_q_altset(IndexSet(5, [1, 5]))
    assert tuple(vars(result)) == ("value", "method", "terms_evaluated")


def test_alt_set_fields():
    assert tuple(vars(qmult.alt_set_closed(IndexSet(5, [1, 5])))) == ("mu", "elements")


# One instance of each exported value type, built twice, its field names
# and the repr the frozen dataclasses gave it.
VALUES = [
    (lambda: RootVector(3, (1, 0, 2)), ("rank", "coeffs"),
     "RootVector(rank=3, coeffs=(1, 0, 2))"),
    (lambda: IndexSet(5, [5, 1]), ("rank", "members"), "IndexSet(rank=5, members=(1, 5))"),
    (lambda: QPolynomial([0, 1, -2, 0]), ("coeffs",), "QPolynomial(coeffs=(0, 1, -2))"),
    (lambda: qmult.alt_set_closed(IndexSet(4, [2])), ("mu", "elements"),
     "AltSet(mu=IndexSet(rank=4, members=(2,)), "
     "elements=frozenset({(1, 2, 3, 4, 5), (1, 2, 4, 3, 5)}))"),
    (lambda: qmult.m_q_altset(IndexSet(5, [1, 5])), ("value", "method", "terms_evaluated"),
     "MultiplicityResult(value=QPolynomial(coeffs=(0, 0, -1, 1)), method='altset', "
     "terms_evaluated=5)"),
]


@pytest.mark.parametrize("make, fields, text", VALUES)
def test_value_semantics(make, fields, text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))
    assert repr(a) == text
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert tuple(vars(a)) == fields
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and hash(copy) == hash(a) and repr(copy) == text


def test_values_of_different_types_never_compare_equal():
    assert IndexSet(3, [1]) != RootVector(3, (1, 0, 0))
    values = [make() for make, _, _ in VALUES]
    for i, x in enumerate(values):
        assert x != tuple(vars(x).values())
        for y in values[i + 1:]:
            assert x != y and y != x


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -I ignores PYTHONPATH, so the command puts src/ on sys.path itself;
    # -S keeps site's .pth files from importing typing first
    src = str(Path(qmult.__file__).resolve().parents[1])
    unwanted = {"dataclasses", "inspect", "ast", "dis", "typing"}
    code = (f"import sys; sys.path.insert(0, {src!r}); import qmult, qmult.cli; "
            f"print(sorted({unwanted!r} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
