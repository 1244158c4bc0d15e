"""Module-structure audits: core and rebalance import each other once, at
module level, so no function pays for an import statement on each call,
and each module still imports first in a fresh interpreter."""

import ast
import inspect
import subprocess
import sys

import pytest

from kiwi import core, rebalance


@pytest.mark.parametrize("module", [core, rebalance], ids=lambda m: m.__name__)
def test_no_function_imports(module):
    tree = ast.parse(inspect.getsource(module))
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            imports = [node for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
            assert not imports, f"{module.__name__}.{fn.name} imports inside the function"


@pytest.mark.parametrize("name", ["kiwi.core", "kiwi.rebalance"])
def test_module_imports_in_a_fresh_interpreter(name):
    proc = subprocess.run([sys.executable, "-c", f"import {name}"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
