"""The public surface of the defring package and what it imports."""

import ast
import sys
from pathlib import Path

import defring

SOURCE = Path(defring.__file__).resolve().parent


def test_every_exported_name_resolves_once():
    assert len(defring.__all__) == len(set(defring.__all__))
    missing = [name for name in defring.__all__ if not hasattr(defring, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from defring import *", namespace)
    assert set(defring.__all__) <= set(namespace)


def test_package_imports_only_itself_and_the_standard_library():
    # the classifier is dependency-free: every import in src/defring is
    # relative or names a standard-library module
    outside = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_no_true_division_outside_fields():
    # over Q, int / int is a float and exactness is lost in silence:
    # FieldSpec.inverse in fields.py is the one division of field values
    divisions = [(path.name, node.lineno) for path in sorted(SOURCE.glob("*.py"))
                 if path.name != "fields.py"
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]
    assert divisions == []
