"""Fixtures shared by several test modules."""

import math

import numpy as np
import pytest

from qsample.entropy import _min_entropy
from qsample.quantum import HADAMARD, DensityMatrix, PureState, _positions_tuple


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


def _partial_trace(rho, keep) -> DensityMatrix:
    """Reduce a PureState or DensityMatrix to the subsystems named by
    ``keep`` (1-based positions).  A pure state's kept axes form the rows of
    its amplitude matrix M, giving M M^H.  The branch oracles read each
    measurement branch's environment through it."""
    dims = rho.dims
    pos = tuple(sorted(_positions_tuple(keep, len(dims))))
    if not pos:
        raise ValueError("keep must name at least one subsystem")
    axes = [i - 1 for i in pos] + [i for i in range(len(dims)) if i + 1 not in pos]
    kept = tuple(dims[i - 1] for i in pos)
    dim = math.prod(kept)
    if isinstance(rho, PureState):
        M = rho.tensor().transpose(axes).reshape(dim, -1)
        return DensityMatrix(M @ M.conj().T, kept)
    tensor = rho.matrix.reshape(dims + dims).transpose(axes + [len(dims) + i for i in axes])
    rest = rho.dim // dim
    return DensityMatrix(np.trace(tensor.reshape(dim, rest, dim, rest), axis1=1, axis2=3), kept)


@pytest.fixture(scope="session")
def partial_trace():
    return _partial_trace


def _min_entropy_classical_side(joint) -> float:
    """H_min(X|Y) = -log2 sum_y max_x P(x, y) of a dict mapping (x, y) pairs
    to probabilities, laid out as an (x, y) array for ``entropy._min_entropy``,
    rows and columns in order of first appearance, with 0 where a pair is
    absent."""
    items = dict(joint)
    rows: dict = {}
    cols: dict = {}
    for x, y in items:
        rows.setdefault(x, len(rows))
        cols.setdefault(y, len(cols))
    table = np.zeros((len(rows), len(cols)))
    for (x, y), p in items.items():
        table[rows[x], cols[y]] = float(p)
    return _min_entropy(table)


@pytest.fixture(scope="session")
def min_entropy_classical_side():
    return _min_entropy_classical_side


def _random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """A random mixed state of full rank from a Wishart draw."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real, (dim,))


@pytest.fixture(scope="session")
def random_density_matrix():
    return _random_density_matrix
