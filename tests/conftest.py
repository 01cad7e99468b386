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


def _apply_permutation(perm: tuple[int, ...], q) -> tuple[int, ...]:
    """Move the symbol at position i to position perm[i-1]: one group
    element's image of a string, for the symmetry oracles that loop over
    a group's elements."""
    out = [0] * len(perm)
    for i, sym in enumerate(q):
        out[perm[i] - 1] = sym
    return tuple(out)


@pytest.fixture(scope="session")
def apply_permutation():
    return _apply_permutation
