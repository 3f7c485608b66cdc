import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermatsyz.field import PrimeField
from fermatsyz.poly import GradedPoly, monomial_text
from fermatsyz.ring import FermatRing, basis_pos
from kernel_helpers import coords

F5 = PrimeField(5)


def brute_force_basis_count(d, n):
    return sum(
        1
        for i in range(n + 1)
        for j in range(n - i + 1)
        if d == 0 or i < d
    )


def test_hilbert_examples():
    ring = FermatRing(5, 11)
    assert ring.hilbert(5) == 21 == math.comb(7, 2)
    assert ring.hilbert(12) == 88 == 91 - 3
    assert ring.hilbert(0) == 1
    assert ring.hilbert(-3) == 0
    assert FermatRing(7, 4).hilbert(0) == 1


def test_hilbert_counts_basis():
    for d in (1, 2, 5, 11):
        ring = FermatRing(5, d)
        for n in range(3 * d + 1):
            assert ring.hilbert(n) == len(ring.basis(n)) == brute_force_basis_count(d, n)


def test_basis_pos_matches_the_basis_order(monkeypatch):
    # the closed form both the kernel and the batch check index R_m with,
    # and its inverse basis_monomials, which builds no basis
    def no_basis(self, n):
        raise AssertionError("basis_monomials built a basis")

    for d in (0, 1, 2, 5):
        ring = FermatRing(5, d)
        for m in range(3 * max(d, 3) + 1):
            basis = ring.basis(m)
            with monkeypatch.context() as patched:
                patched.setattr(FermatRing, "basis", no_basis)
                named = ring.basis_monomials(range(len(basis)), m)
                every_third = ring.basis_monomials(range(1, len(basis), 3), m)
            assert named == list(basis), (d, m)
            assert every_third == list(basis[1::3])
            i = np.array([mono.i for mono in basis], dtype=np.int64)
            j = np.array([mono.j for mono in basis], dtype=np.int64)
            assert np.array_equal(basis_pos(i, j, m), np.arange(len(basis))), (d, m)
            assert [basis_pos(mono.i, mono.j, m) for mono in basis] == list(range(len(basis)))


def test_hilbert_polynomial_ring_limit():
    ring = FermatRing(5, 13)
    for n in range(13):
        assert ring.hilbert(n) == math.comb(n + 2, 2)


def test_plane_ring_sentinel():
    plane = FermatRing(5, 0)
    assert plane.smooth
    for n in range(8):
        assert plane.hilbert(n) == math.comb(n + 2, 2) == len(plane.basis(n))
    f = GradedPoly.monomial(F5, 2, (7, 1, 0))
    assert plane.normal_form(f) == f


def test_smoothness_flag():
    assert FermatRing(5, 11).smooth
    assert not FermatRing(5, 10).smooth
    assert FermatRing(2, 5).smooth


def test_basis_order_deterministic():
    ring = FermatRing(3, 4)
    basis = ring.basis(2)
    assert [tuple(m) for m in basis] == sorted(tuple(m) for m in basis)
    # basis is the walk of basis_monomials; brute force fixes its order
    for d in (0, 1, 4, 7):
        ring = FermatRing(3, d)
        for m in range(-1, 13):
            every = [(i, j, m - i - j) for i in range(m + 1) for j in range(m - i + 1)]
            expected = sorted(mono for mono in every if d == 0 or mono[0] < d)
            assert [tuple(mono) for mono in ring.basis(m)] == expected, (d, m)


def test_multiplication_by_one_is_identity():
    ring = FermatRing(5, 11)
    one = GradedPoly.monomial(F5, 1, (0, 0, 0))
    for n in (0, 3, 12):
        m = ring.multiplication_matrix(one, n)
        assert np.array_equal(m.array, np.eye(ring.hilbert(n), dtype=np.int64))


def test_multiplication_matrix_x_power():
    # X^11 * 1 = -Y^11 - Z^11: one column with two entries equal to 4
    ring = FermatRing(5, 11)
    g = GradedPoly.monomial(F5, 1, (11, 0, 0))
    m = ring.multiplication_matrix(g, 0)
    assert m.cols == 1 and m.array.shape[0] == ring.hilbert(11)
    col = m.array[:, 0]
    assert col[basis_pos(0, 11, 11)] == 4
    assert col[basis_pos(0, 0, 11)] == 4
    assert col.sum() == 8


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32),
)
def test_multiplication_matrix_functorial(p, d, n, deg1, deg2, seed):
    """M_{g1 g2} equals M_{g1} after M_{g2} (composition of multiplication)."""
    field = PrimeField(p)
    ring = FermatRing(p, d)
    rng = np.random.default_rng(seed)

    def random_poly(deg):
        terms = {}
        for mono in [(i, j, deg - i - j) for i in range(deg + 1) for j in range(deg - i + 1)]:
            c = int(rng.integers(0, p))
            if c:
                terms[mono] = c
        return GradedPoly(field, deg, terms)

    g1, g2 = random_poly(deg1), random_poly(deg2)
    lhs = ring.multiplication_matrix(ring.normal_form(g1 * g2), n)
    m2 = ring.multiplication_matrix(ring.normal_form(g2), n)
    m1 = ring.multiplication_matrix(ring.normal_form(g1), n + deg2)
    assert np.array_equal(lhs.array, m1.array @ m2.array % p)  # exact: p <= 5


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: FermatRing(5, -1), "degree d must be >= 0"),
        (lambda: FermatRing(5, 4.0), "degree d must be an integer, got 4.0"),
        (
            lambda: FermatRing(5, 4).check_syzygies((1, [0, 0], [0], [1, 1]), 2, (1, 1, 1)),
            "1-d arrays of one length",
        ),
        (
            lambda: FermatRing(5, 4).check_syzygies((1, [0], [0], [1, 1]), 2, (1, 1, 1)),
            "1-d arrays of one length",
        ),
    ],
    ids=["negative-d", "float-d", "short-columns", "long-values"],
)
def test_ring_rejects_malformed_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_coords_round_trip():
    ring = FermatRing(5, 4)
    f = ring.normal_form(GradedPoly.monomial(F5, 3, (6, 1, 0)))
    v = coords(ring, f)
    assert ring.from_coords(v, f.degree) == f


def test_coords_rejects_a_monomial_outside_the_basis():
    # X^4 is no basis monomial of R_4 on the quartic; reduce it first
    with pytest.raises(ValueError, match="not a basis monomial"):
        coords(FermatRing(5, 4), GradedPoly.monomial(F5, 1, (4, 0, 0)))
    # on the plane every monomial is one
    assert coords(FermatRing(5, 0), GradedPoly.monomial(F5, 1, (4, 0, 0)))[-1] == 1


def test_check_syzygies_expands_only_the_lucas_terms():
    # (X, Y, Z) is a syzygy of (X^a, Y^a, Z^a) on the cubic over F_2 when
    # a + 1 = 3 * 2^22: X^(a + 1) = (Y^3 + Z^3)^(2^22) = Y^(a + 1) + Z^(a + 1),
    # since of the 2^22 + 1 binomials C(2^22, v) only the outer two are odd
    a = 3 * 2**22 - 1
    ring, n = FermatRing(2, 3), a + 1
    z, y, x = (basis_pos(i, j, 1) for i, j in ((0, 0), (0, 1), (1, 0)))
    width = ring.hilbert(1)
    started = time.perf_counter()
    ring.check_syzygies((1, [0, 0, 0], [x, width + y, 2 * width + z], [1, 1, 1]), n, (a, a, a))
    assert time.perf_counter() - started < 0.5
    # s3 = Y instead of Z leaves Y Z^a + Z^(a + 1) over
    with pytest.raises(ValueError, match="syzygy relation"):
        ring.check_syzygies((1, [0, 0, 0], [x, width + y, 2 * width + y], [1, 1, 1]), n, (a, a, a))


@pytest.mark.parametrize("p", [2, 3])
def test_plane_check_stays_fast_at_high_degree(p):
    # (Y^a, -X^a, 0) is a syzygy of (X^a, Y^a, Z^a) on P^2 in degree 2a.
    # Each component of degree a has a + 1 X-exponents, so the check's run
    # table has about 3a runs, and at a = 2^22 it still answers at once
    a = 2**22
    ring, n = FermatRing(p, 0), 2 * a
    cols = [basis_pos(0, a, a), ring.hilbert(a) + basis_pos(a, 0, a)]
    started = time.perf_counter()
    ring.check_syzygies((1, [0, 0], cols, [1, p - 1]), n, (a, a, a))
    assert time.perf_counter() - started < 0.5
    # over F_3 a wrong coefficient (X^a for -X^a); over F_2, where 1 is the
    # only nonzero coefficient, a wrong monomial (Y^(a - 1) Z for Y^a)
    bad = (1, [0, 0], cols, [1, 1]) if p == 3 else (1, [0, 0], [cols[0] - 1, cols[1]], [1, 1])
    with pytest.raises(ValueError, match="syzygy relation"):
        ring.check_syzygies(bad, n, (a, a, a))


@pytest.mark.parametrize(
    "d, m", [(5, -2), (5, 0), (5, 3), (5, 4), (5, 5), (5, 12), (0, -1), (0, 0), (0, 9)]
)
def test_term_text_is_a_read_only_array_of_the_basis_texts(d, m):
    # below d, from d on, in negative degree and on the plane (d = 0)
    ring = FermatRing(7, d)
    texts = ring.term_text(m)
    assert texts.dtype == object and not texts.flags.writeable
    assert texts.tolist() == [monomial_text(mono) for mono in ring.basis(m)]
    assert len(texts) == ring.hilbert(m)
    assert ring.term_text(m) is texts  # built once per degree
    with pytest.raises(ValueError):
        texts[:1] = ["*X^9*Y^9*Z^9"]
