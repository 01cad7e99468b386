"""The benchmark's tracing hooks still name live code.

``perfbench/spans.py`` wraps functions by (module, attribute) and copies the
cost expression of each budget gate.  A rename or deletion in the package
would otherwise surface only in a traced benchmark run, so these tests load
that file as it is and check every hook against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from qsample import make_strategy, random_pure_state, symmetric_group

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("name,module,attr", spans.SPANS + spans.HOT, ids=lambda v: str(v))
def test_every_traced_name_resolves(name, module, attr):
    importlib.import_module(module)
    owner, short = spans._resolve(module, attr)
    assert callable(getattr(owner, short, None)), f"{name}: {module}.{attr} is gone"


@pytest.mark.parametrize("name", sorted(spans.GATES))
def test_every_gate_charges_an_int(name):
    strategy = make_strategy("example1", n=3, k=1)
    args = {
        "sampling.eps_class_exact": (strategy, 0.3),
        "qsampling.ideal_distance": (random_pure_state((2, 2, 2, 1), np.random.default_rng(0)), strategy, 0.3),
        "qsampling.is_g_symmetric": (strategy, symmetric_group(3)),
    }[name]
    charged = spans.GATES[name](*args)
    assert isinstance(charged, int) and charged > 0
