"""The lazy package namespaces export exactly what the eager ones did.

A lazified ``__init__`` names its exports three times — the
``TYPE_CHECKING`` imports (for mypy, IDEs and ``repro.lint``), the table
handed to :func:`repro._lazy.lazy_exports`, and ``__all__`` — so the
last test reads all three from the source and refuses a name that is in
one and missing from another.
"""

import ast
import importlib
from pathlib import Path

import pytest

LAZY_PACKAGES = [
    "repro",
    "repro.core",
    "repro.net",
    "repro.faults",
    "repro.daemon",
    "repro.scale",
    "repro.analysis",
]


def declared(package):
    """``(TYPE_CHECKING imports, lazy table, __all__, other globals)`` from source."""
    tree = ast.parse(Path(importlib.import_module(package).__file__).read_text())
    typed, table, exported, assigned = {}, {}, [], set()
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for statement in node.body:
                assert isinstance(statement, ast.ImportFrom) and statement.level == 0
                typed.setdefault(statement.module, []).extend(
                    alias.name for alias in statement.names
                )
        elif isinstance(node, ast.Assign):
            targets = ast.unparse(node.targets[0])
            if targets == "(__getattr__, __dir__)":
                assert ast.unparse(node.value.func) == "lazy_exports"
                assert ast.unparse(node.value.args[0]) == "__name__"
                table = {k: list(v) for k, v in ast.literal_eval(node.value.args[1]).items()}
            elif targets == "__all__":
                exported = ast.literal_eval(node.value)
            else:
                assigned.add(targets)
    return typed, table, exported, assigned


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_is_the_leaf_modules_object(package):
    module = importlib.import_module(package)
    _typed, table, exported, _assigned = declared(package)
    for leaf, names in table.items():
        for name in names:
            assert getattr(module, name) is getattr(importlib.import_module(leaf), name)
            assert vars(module)[name] is getattr(module, name)  # cached: a dict hit now
    assert set(dir(module)) >= set(exported)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_star_import_binds_all_of_them(package):
    bound = {}
    exec(f"from {package} import *", bound)
    module = importlib.import_module(package)
    for name in module.__all__:
        assert bound[name] is getattr(module, name)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_attribute_names_the_package(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"'{package}' has no attribute 'no_such_name'"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_type_checking_block_lazy_table_and_all_agree(package):
    typed, table, exported, assigned = declared(package)
    assert table and typed == table  # same leaves, same names, same order
    names = [name for leaf_names in table.values() for name in leaf_names]
    assert len(names) == len(set(names)), "a name exported from two leaves"
    assert len(exported) == len(set(exported))
    assert set(exported) == set(names) | assigned
    assert assigned <= {"__version__"}
