"""The package's public surface: each module's ``__all__``, the names
``qsample`` re-exports, the layers each command loads, and the README's
library examples."""

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
    assert qsample._EXPORTS
    for layer, names in qsample._EXPORTS.items():
        module = importlib.import_module(f"qsample.{layer}")
        for name in names:
            assert name in module.__all__, f"{layer}.{name}"


def test_star_import_dir_and_all_serve_each_name_from_its_module():
    namespace = {}
    exec("from qsample import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == sorted(qsample.__all__)
    for name in qsample.__all__:
        defined = getattr(sys.modules[f"qsample.{qsample._HOME[name]}"], name)
        assert namespace[name] is defined and getattr(qsample, name) is defined, name
    assert set(qsample.__all__) <= set(dir(qsample))
    for name in dir(qsample):
        getattr(qsample, name)


def _run(code: str) -> str:
    src = os.path.dirname(os.path.dirname(qsample.__file__))  # the qsample under test
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout


_LOADED = """
import sys, types
print(sorted(n for n, m in sys.modules.items() if n.split(".")[0] == "qsample" and type(m) is types.ModuleType))
"""
EXACT = 'RunConfig("eps-class", {"kind": "example1", "n": 11, "k": 5, "delta": 0.3})'
MC = 'RunConfig("eps-class", {"kind": "example1", "n": 11, "k": 5, "delta": 0.3, "mode": "mc", "q": "01101001011", "trials": 50}, rng_seed=2)'
CLASSICAL = ["qsample", "qsample.cli", "qsample.sampling"]


def _loaded(code: str) -> list:
    """The qsample modules a fresh interpreter has run after ``code``; a
    module registered for loading on first use and not yet used is not one."""
    return ast.literal_eval(_run("from qsample.cli import RunConfig, main, run\n" + code + _LOADED).splitlines()[-1])


@pytest.mark.parametrize(
    "code, loaded",
    [
        (f"run({EXACT})", CLASSICAL),
        ("main(['eps-class', '--kind', 'example1', '--n', '11', '--k', '5', '--delta', '0.3'])", CLASSICAL),
        (f"run({MC})", sorted(CLASSICAL + ["qsample.draws"])),
        ("try:\n    RunConfig('qot-sim', {'n': 10, 'k': 3, 'l': 2, 'adversary': 'commit_flip'})\nexcept ValueError:\n    pass", CLASSICAL),
    ],
    ids=["exact", "exact-command-line", "mc", "refused-runconfig"],
)
def test_a_classical_command_loads_only_the_sampling_layer(code, loaded):
    assert _loaded(code) == loaded


def test_a_key_distribution_run_loads_its_layers_and_no_other():
    loaded = _loaded('run(RunConfig("qkd-sim", {"n": 24, "k": 6, "mode": "mc"}))')
    assert {"qsample.protocols", "qsample.entropy", "qsample.quantum"} <= set(loaded)
    assert not {"qsample.qsampling", "qsample.verify"} & set(loaded)


def test_readme_python_blocks_run_and_print_their_commented_outputs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    _run(blocks[0])
    lines = _run(blocks[1]).splitlines()
    assert lines[0] == "['0000', '0101', '0110', '1001', '1010', '1111']"
    assert f"# {lines[0]}\n" in blocks[1]
    assert lines[-1] == "True"
