from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fermatsyz
from fermatsyz import _kernels, stability
from fermatsyz.bundle import SyzygySpec
from fermatsyz.linalg import MatrixModP
from fermatsyz.ring import FermatRing
from fermatsyz.stability import DestabCertificate
from kernel_helpers import kernel_basis


def reference_rank(rows, p):
    """Independent rank oracle: incremental row reduction with Python ints."""
    basis = []  # list of (pivot_col, row)
    for row in rows:
        row = [x % p for x in row]
        for pc, b in basis:
            f = row[pc]
            if f:
                row = [(x - f * y) % p for x, y in zip(row, b)]
        pivot = next((i for i, x in enumerate(row) if x), None)
        if pivot is not None:
            inv = pow(row[pivot], -1, p)
            row = [x * inv % p for x in row]
            basis.append((pivot, row))
            basis.sort()
    return len(basis)


def test_zero_matrix_kernel_is_standard_basis():
    m = MatrixModP(np.zeros((4, 3), dtype=np.int64), 7)
    k = kernel_basis(m)
    assert np.array_equal(k, np.eye(3, dtype=np.int64))


def test_identity_kernel_empty():
    m = MatrixModP(np.eye(5, dtype=np.int64), 7)
    assert kernel_basis(m).shape == (0, 5)
    assert m.rank() == 5


def test_rref_is_canonical_single_row():
    m = MatrixModP([[2, 2]], 5)
    r = m.array.copy()
    rank, pivots = _kernels.rref_mod_p(r, 5)
    assert rank == 1 and pivots == [0]
    assert r.tolist() == [[1, 1]]
    k = kernel_basis(m)
    # kernel of (x + y = 0): canonical reduced-echelon generator (1, -1)
    assert k.tolist() == [[1, 4]]


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 97]),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=2**32),
)
def test_kernel_exactness_and_dimension(p, rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
    m = MatrixModP(a, p)
    k = kernel_basis(m)
    # Mv = 0 exactly for every kernel vector
    if k.shape[0]:
        prod = (a @ k.T) % p
        assert not prod.any()
    # rank-nullity against the independent oracle
    rank = reference_rank(a.tolist(), p)
    assert m.rank() == rank
    assert k.shape[0] == cols - rank


def test_random_20x12_example():
    rng = np.random.default_rng(42)
    a = rng.integers(0, 7, size=(20, 12), dtype=np.int64)
    m = MatrixModP(a, 7)
    vs = kernel_basis(m)
    assert len(vs) == 12 - reference_rank(a.tolist(), 7)
    for v in vs:
        assert not ((a @ v) % 7).any()


@pytest.mark.parametrize("data", [[1, 2], np.zeros((2, 2, 2), dtype=np.int64)], ids=["1-d", "3-d"])
def test_matrix_must_be_2d(data):
    with pytest.raises(ValueError, match="2-dimensional"):
        MatrixModP(data, 5)


def test_dense_reference_surface_is_trimmed():
    # the dense matrix keeps what section_space_dim(spec, n, "dense") and the
    # benchmark probes reach; the kernel oracle and coords live in the tests
    public = {
        name
        for name, value in vars(MatrixModP).items()
        if not name.startswith("_") and (callable(value) or isinstance(value, property))
    }
    assert public == {"cols", "rank"}
    assert not hasattr(FermatRing, "coords")
    assert not hasattr(DestabCertificate, "spec")
    assert "MatrixModP" not in fermatsyz.__all__
    assert SyzygySpec(5, 11, (2, 2, 2)).ring is SyzygySpec(5, 11, (3, 3, 3)).ring


def test_benchmark_facing_names(monkeypatch):
    # perfbench records BACKEND and wraps these module attributes to trace
    # the eliminations; linalg must look rref_mod_p up on the module per call
    assert fermatsyz.BACKEND == "python"
    assert callable(_kernels.rref_mod_p)
    assert callable(stability.has_section)
    calls = []
    real = _kernels.rref_mod_p

    def counting(a, p):
        calls.append(a.shape)
        return real(a, p)

    monkeypatch.setattr(_kernels, "rref_mod_p", counting)
    assert MatrixModP([[1, 2], [2, 4], [0, 1]], 5).rank() == 2
    assert calls == [(3, 2)]

    # a traced run wraps each (owner, attribute) pair that probes.install
    # names; a pair that no longer exists would break it
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import probes

    wrapped = []

    class Recorder:
        def wrap(self, owner, attr, name, before=None, after=None):
            wrapped.append((getattr(owner, "__name__", owner), attr, hasattr(owner, attr)))

    probes.install(Recorder())
    assert len(wrapped) >= 20
    assert [w for w in wrapped if not w[2]] == []
