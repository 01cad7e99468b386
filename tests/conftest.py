"""Fixtures shared by several test modules."""

import numpy as np
import pytest

from qsample.quantum import HADAMARD


def _tensordot_hadamard(tensor: np.ndarray, axes) -> np.ndarray:
    """H on each listed axis, one np.tensordot with the 2 x 2 HADAMARD
    matrix per axis: the rotation measurements used before the
    sum-and-difference kernel ``quantum._hadamard``, kept as its oracle."""
    for axis in axes:
        tensor = np.moveaxis(np.tensordot(HADAMARD, tensor, axes=([1], [axis])), 0, axis)
    return tensor


@pytest.fixture(scope="session")
def tensordot_hadamard():
    return _tensordot_hadamard
