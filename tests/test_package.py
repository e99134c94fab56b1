"""The package surface: each module is the only home of its public names."""

import ast
import importlib
import pkgutil

import sobolevlab


def test_modules_are_the_only_api():
    for info in pkgutil.iter_modules(sobolevlab.__path__):
        module = importlib.import_module(f"sobolevlab.{info.name}")
        assert module.__all__, info.name
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], info.name
    with open(sobolevlab.__file__, encoding="utf-8") as fh:
        docstring, *rest = ast.parse(fh.read()).body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert [ast.unparse(stmt) for stmt in rest] == [f"__version__ = {sobolevlab.__version__!r}"]
