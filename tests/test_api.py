"""The public API: the README's library example runs as written, the
names exported from ``qmult`` are exactly the listed ones, and so are the
fields of ``MultiplicityResult`` and ``AltSet``, the public names that
each submodule defines and the public methods of the exported classes, so
that test-only helpers stay in ``tests/``."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import qmult
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


# Each name has a caller in the package, the benchmark, scripts/ or the
# README; a helper only the tests call belongs in tests/.
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
                  "kostant_q", "kostant_q_oracle", "kostant_q_sum", "table_for"],
    "poly": ["ONE", "Q", "QPolynomial", "ZERO", "pack", "unpack"],
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
    qmult.QPolynomial: ["degree", "eval_at_one", "latex", "monomial"],
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


def test_multiplicity_result_fields():
    fields = tuple(f.name for f in dataclasses.fields(qmult.MultiplicityResult))
    assert fields == ("value", "method", "terms_evaluated")


def test_alt_set_fields():
    assert tuple(f.name for f in dataclasses.fields(qmult.AltSet)) == ("mu", "elements")
