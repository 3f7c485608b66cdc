"""Test-side conversions between sparse kernel triples and dense matrices."""

import numpy as np


def to_dense(spec, n, kernel):
    """The (row count x width) matrix of the triples (count, rows, columns, values)."""
    count, rows, cols, values = kernel
    width = sum(spec.ring.hilbert(n - a) for a in spec.exponents)
    dense = np.zeros((count, width), dtype=np.int64)
    dense[rows, cols] = values
    return dense


def to_triples(dense):
    """Sparse triples of a dense matrix, sorted by (row, column)."""
    rows, cols = np.nonzero(dense)
    return len(dense), rows, cols, dense[rows, cols]
