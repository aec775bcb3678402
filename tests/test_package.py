import ast
from pathlib import Path

import pytest

import fraclap
from fraclap import errors

# perfbench's closed-form oracle for the solve workload; no CLI path calls it
ORACLES = {"exact_solution_ball"}


class TestPublicApi:
    def test_all_has_no_duplicates(self):
        assert len(fraclap.__all__) == len(set(fraclap.__all__))

    def test_every_name_resolves(self):
        missing = [name for name in fraclap.__all__ if not hasattr(fraclap, name)]
        assert missing == []

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from fraclap import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(fraclap.__all__)

    def test_every_name_is_used_by_the_package(self):
        # a public name that only tests reach belongs in tests/helpers.py;
        # an import alone is not a use
        used = set()
        for path in Path(fraclap.__file__).parent.glob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
        assert ORACLES <= set(fraclap.__all__)
        assert sorted(set(fraclap.__all__) - used - ORACLES) == []


class TestErrors:
    @pytest.mark.parametrize(
        "error, base",
        [
            (errors.ConfigError, ValueError),
            (errors.DataError, ValueError),
            (errors.ShapeError, ValueError),
            (errors.NumericalError, RuntimeError),
        ],
    )
    def test_base_class(self, error, base):
        # a caller who catches ValueError gets the input errors, not a failed solve
        assert error.__bases__ == (base,)
