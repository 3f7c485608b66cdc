"""Dense exact linear algebra over F_p on int64 numpy arrays.

``kernel_from_rref`` reads a kernel basis off a reduced row echelon form;
``bundle._block_kernel`` uses it on each banded residue block.
``MatrixModP`` holds the dense syzygy matrix of the reference path
(``bundle.syzygy_matrix``), which only tests and
``section_space_dim(spec, n, "dense")`` eliminate.  Elimination is
``_kernels.rref_mod_p``, looked up on its module at each call.  Results
are exact and deterministic -- no tolerances anywhere.
"""

from __future__ import annotations

import numpy as np

from . import _kernels

_I64 = np.int64


def _as_matrix(data, p: int) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(data, dtype=_I64) % p)
    if a.ndim != 2:
        raise ValueError("expected a 2-dimensional array")
    return a


def kernel_from_rref(a: np.ndarray, rank: int, pivots, p: int) -> np.ndarray:
    """Raw kernel basis (one row per free column) of an RREF matrix."""
    cols = a.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    k = np.zeros((len(free), cols), dtype=_I64)
    for row, f in enumerate(free):
        k[row, f] = 1
        if rank:
            k[row, pivots] = (-a[:rank, f]) % p
    return k


class MatrixModP:
    """A rows x cols matrix over F_p, stored as reduced int64 residues."""

    __slots__ = ("array", "p")

    def __init__(self, data, p):
        self.p = p
        self.array = _as_matrix(data, p)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def copy(self) -> "MatrixModP":
        m = MatrixModP.__new__(MatrixModP)
        m.p = self.p
        m.array = self.array.copy()
        return m

    def __repr__(self):
        return f"MatrixModP({self.rows}x{self.cols} over F_{self.p})"

    # -- elimination ---------------------------------------------------------

    def rref(self):
        """Return (R, rank, pivot_cols) with R the reduced echelon form."""
        m = self.copy()
        rank, pivots = _kernels.rref_mod_p(m.array, self.p)
        return m, rank, pivots

    def rank(self) -> int:
        return self.rref()[1]

    def kernel_basis(self) -> np.ndarray:
        """Canonical basis of {v : Mv = 0}: rows, in reduced echelon form."""
        r, rank, pivots = self.rref()
        k = kernel_from_rref(r.array, rank, pivots, self.p)
        _kernels.rref_mod_p(k, self.p)
        return k

