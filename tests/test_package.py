"""The package surface: each module is the only home of its public names."""

import ast
import glob
import importlib
import os
import pkgutil
import subprocess
import sys

import sobolevlab

#: names that generate code at run time: namedtuple classes and exec or eval
GENERATORS = {"namedtuple", "NamedTuple", "exec()", "eval()"}


def test_modules_are_the_only_api():
    for info in pkgutil.iter_modules(sobolevlab.__path__):
        module = importlib.import_module(f"sobolevlab.{info.name}")
        assert module.__all__, info.name
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], info.name
    with open(sobolevlab.__file__, encoding="utf-8") as fh:
        docstring, *rest = ast.parse(fh.read()).body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert [ast.unparse(stmt) for stmt in rest] == [f"__version__ = {sobolevlab.__version__!r}"]


def test_importing_the_command_line_loads_no_code_generator():
    # a fresh interpreter, so that nothing this test process imported counts
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sobolevlab.__file__)))
    script = "import sys, sobolevlab.cli; print(sorted({'dataclasses', 'copy'} & sys.modules.keys()))"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_no_module_imports_a_code_generator_or_calls_exec():
    found = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(sobolevlab.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""  # None in `from . import x`
                names = [module, *(f"{module}.{alias.name}" for alias in node.names)]
            elif isinstance(node, ast.Attribute):  # collections.namedtuple without a from-import
                names = [node.attr]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names = [f"{node.func.id}()"]
            else:
                continue
            found += [f"{os.path.basename(path)}: {name}" for name in names
                      if name.split(".")[0] == "dataclasses" or name.split(".")[-1] in GENERATORS]
    assert found == []
