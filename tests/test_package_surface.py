"""The package's public surface: each module's ``__all__``, the names
``qsample`` re-exports, and the README's library examples."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qsample

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = [
    importlib.import_module(f"qsample.{info.name}") for info in pkgutil.iter_modules(qsample.__path__)
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__.split(".")[-1]
)
def test_every_name_in_all_is_defined_in_its_module(module):
    # a name deleted but left in __all__ makes `from module import *` raise
    # AttributeError; a class or function another module defines is that
    # module's export, not this one's
    for name in module.__all__:
        assert hasattr(module, name), name
        assert getattr(getattr(module, name), "__module__", module.__name__) == module.__name__, name


def test_every_name_qsample_imports_is_in_its_modules_all():
    tree = ast.parse(Path(qsample.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"qsample.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"


def _run(code: str) -> str:
    src = os.path.dirname(os.path.dirname(qsample.__file__))  # the qsample under test
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout


def test_readme_python_blocks_run_and_print_their_commented_outputs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    _run(blocks[0])
    lines = _run(blocks[1]).splitlines()
    assert lines[0] == "['0000', '0101', '0110', '1001', '1010', '1111']"
    assert f"# {lines[0]}\n" in blocks[1]
    assert lines[-1] == "True"
