"""Dense exact linear algebra over F_p on int64 numpy arrays.

``kernel_from_rref`` reads a dense kernel basis off a reduced row echelon
form, for the tests' kernel oracle and the benchmark probes;
``bundle._block_kernel`` reads its blocks' kernels as nonzeros instead.
``MatrixModP`` holds the dense syzygy matrix of the reference path
(``bundle.syzygy_matrix``), and ``section_space_dim(spec, n, "dense")``
takes its ``rank``; the tests eliminate it further with their own
kernel oracle.  Elimination is ``_kernels.rref_mod_p``, looked up on its
module at each call.  Results are exact and deterministic -- no
tolerances anywhere.
"""

from __future__ import annotations

import numpy as np

from . import _kernels

_I64 = np.int64


def kernel_from_rref(a: np.ndarray, rank: int, pivots, p: int) -> np.ndarray:
    """Raw kernel basis (one row per free column) of an RREF matrix."""
    cols = a.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    k = np.zeros((len(free), cols), dtype=_I64)
    for row, f in enumerate(free):
        k[row, f] = 1
        k[row, pivots] = (-a[:rank, f]) % p
    return k


class MatrixModP:
    """A rows x cols matrix over F_p, stored as reduced int64 residues."""

    __slots__ = ("array", "p")

    def __init__(self, data, p):
        self.p = p
        self.array = np.ascontiguousarray(np.asarray(data, dtype=_I64) % p)
        if self.array.ndim != 2:
            raise ValueError("expected a 2-dimensional array")

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def rank(self) -> int:
        return _kernels.rref_mod_p(self.array.copy(), self.p)[0]
