"""The mod-p elimination kernel: in-place reduced row echelon form in numpy.

Every exact elimination in the package (the banded residue blocks of
``bundle._block_kernel``, ``linalg.MatrixModP.rank`` for the dense
reference, and the tests' kernel oracle) calls ``_kernels.rref_mod_p``,
looked up on this module at each call.  The RREF of a matrix is unique,
and the pivot rule -- first nonzero entry in column order -- is fixed
here.

``BACKEND`` names this implementation; benchmark results record it.
"""

import numpy as np

BACKEND = "python"


def rref_mod_p(a, p):
    """In-place reduced row echelon form of int64 matrix ``a`` over F_p.

    Entries must already be reduced into [0, p), and ``a`` must be
    writable.  Returns (rank, pivot_cols), (0, []) for no rows or no
    columns.  Products fit int64 because p < 2^31.
    """
    rows, cols = a.shape
    r = 0
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        piv = int(a[r, c])
        if piv != 1:
            a[r, c:] = a[r, c:] * pow(piv, -1, p) % p
        col = a[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            a[hit, c:] = (a[hit, c:] - np.outer(col[hit], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return r, pivots
