"""Test-side conversions between sparse kernel triples and dense matrices,
coordinates of a polynomial in the basis of its degree, the dense
reference elimination of a section space, the term-by-term reference
normal form, a certificate whose normal form is too large to expand, a
deadline for checks that must answer at once, and the twists of the
sections benchmark and of the grid search's certificates."""

import itertools
import signal
from fractions import Fraction

import numpy as np

from fermatsyz import _kernels
from fermatsyz.bundle import SectionVector, SyzygySpec, syzygy_matrix
from fermatsyz.linalg import MatrixModP, kernel_from_rref
from fermatsyz.poly import GradedPoly, Monomial, lucas_terms
from fermatsyz.ring import basis_pos
from fermatsyz.stability import format_fraction, search_destabilization


def coords(ring, f):
    """Coordinates of a normal-form element of R_n in ``ring.basis(n)``."""
    n = f.degree
    v = np.zeros(ring.hilbert(n), dtype=np.int64)
    for mono, c in f.terms.items():
        if ring.d and mono.i >= ring.d:
            raise ValueError(f"{tuple(mono)} is not a basis monomial of R_{n}")
        v[basis_pos(mono.i, mono.j, n)] = c
    return v


def kernel_basis(m):
    """Canonical basis of {v : Mv = 0} for a ``MatrixModP``: rows, in reduced
    echelon form."""
    r = m.array.copy()
    rank, pivots = _kernels.rref_mod_p(r, m.p)
    k = kernel_from_rref(r, rank, pivots, m.p)
    _kernels.rref_mod_p(k, m.p)
    return k


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


def dense_kernel(spec, n):
    """The canonical kernel basis by dense elimination of ``syzygy_matrix``, as triples."""
    return to_triples(kernel_basis(syzygy_matrix(spec, n)))


def dense_section(spec, n):
    """Row 0 of the dense kernel as a checked ``SectionVector``, or None if it is empty."""
    kernel = kernel_basis(syzygy_matrix(spec, n))
    if not len(kernel):
        return None
    ring = spec.ring
    parts, start = [], 0
    for a in spec.exponents:
        width = ring.hilbert(n - a)
        parts.append(ring.from_coords(kernel[0, start : start + width], n - a))
        start += width
    return SectionVector(spec, n, tuple(parts))


def reduce_monomial(mono, coeff, d, p):
    """Yield the normal-form terms of coeff * X^i Y^j Z^l modulo X^d + Y^d + Z^d,
    one per v of ``lucas_terms(t, p)``: X^i = X^(i mod d) (-(Y^d + Z^d))^t."""
    t, i2 = divmod(mono.i, d)
    if t == 0:
        yield mono, coeff
        return
    sign = p - 1 if t % 2 else 1
    base = coeff * sign % p
    for v, b in lucas_terms(t, p):
        yield Monomial(i2, mono.j + v * d, mono.l + (t - v) * d), base * b % p


def reference_normal_form(f, rel):
    """``poly.normal_form`` term by term: every monomial expanded in full by
    ``reduce_monomial`` and the terms summed in one dict."""
    p = f.field.p
    out = {}
    for mono, c in f.terms.items():
        for m2, c2 in reduce_monomial(mono, c, rel.d, p):
            nc = (out.get(m2, 0) + c2) % p
            if nc:
                out[m2] = nc
            else:
                out.pop(m2, None)
    return GradedPoly(f.field, f.degree, out)


def times_band(K, row, p):
    """Each row of K convolved with ``row``, mod p, one shifted add at a time.

    Reduced after every add, so no int64 sum exceeds p^2 + p.
    """
    k, width = K.shape
    out = np.zeros((k, width + len(row) - 1), dtype=np.int64)
    if width <= len(row):
        for alpha in np.flatnonzero(K.any(axis=0)).tolist():
            seg = out[:, alpha : alpha + len(row)]
            seg[:] = (seg + K[:, alpha : alpha + 1] * row) % p
    else:
        for v in np.flatnonzero(row).tolist():
            seg = out[:, v : v + width]
            seg[:] = (seg + K * int(row[v])) % p
    return out


def reference_block_entry(p, t, A, B, N):
    """``bundle._block_entry`` by dense elimination of every block with
    ``kernel_basis`` and a dense band product, with its nonzeros in
    (row, component, exponent) order."""
    from fermatsyz.bundle import _band, _binom_row

    row = _binom_row(t, p)
    K = kernel_basis(MatrixModP(_band(t, A, B, N, row), p))
    if not len(K):
        return None
    w = times_band(K, row, p)
    if t % 2 == 0:
        w = (-w) % p
    top = N + t + 1
    g3 = max(0, top - B)
    g2 = min(top, max(A, g3))
    assert not np.any(w[:, g3:g2])
    exps = np.concatenate([np.arange(N + 1), np.arange(g2, top), np.arange(g3)])
    parts = np.repeat([0, 1, 2], [N + 1, top - g2, g3])
    local = np.hstack([K, w[:, g2:], w[:, :g3]])
    r, c = np.nonzero(local)
    return np.argmax(K != 0, axis=1), r, parts[c], exps[c], local[r, c]


def within(seconds: int, call, *args):
    """call(*args), interrupted by TimeoutError after ``seconds``: a check that
    must answer at once then fails its test instead of hanging it."""

    def hang(*_):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        return call(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def crafted_certificate(e: int) -> dict:
    """p = 2, a = 1, d = 3, twist 2^e + 1, section (X, Y, Z): every cross-check
    before the normal form holds, and X^(2^e + 1) rewrites with
    t = (2^e + 1) / 3, whose binary ones number (e + 1) / 2 for odd e."""
    q = 2**e
    degree = (2 - q) * 3
    return {
        "schema": 1, "p": 2, "a": 1, "d": 3, "e": e, "q": q, "k": 1, "twist": q + 1,
        "degree": degree, "slope_sub": 0, "slope_quotient": degree,
        "normalized_gap": format_fraction(Fraction(-degree, q)), "smooth": True,
        "section": ["1*X^1*Y^0*Z^0", "1*X^0*Y^1*Z^0", "1*X^0*Y^0*Z^1"],
    }


# the sections benchmark's shapes (p, d, a, e); each runs at the quarter
# points of six equal slices of its twists aq + 1 .. 3aq, and at 3aq
SECTION_SHAPES = [
    (2, 5, 1, 3), (2, 7, 3, 2), (2, 9, 3, 3), (3, 4, 2, 2), (3, 5, 1, 3), (3, 7, 2, 2),
    (3, 8, 1, 3), (5, 4, 2, 2), (5, 6, 1, 2), (5, 7, 3, 1), (7, 4, 1, 2), (7, 5, 1, 2),
    (7, 6, 1, 1),
]


def section_ops():
    """The (spec, n) of the sections benchmark's 169 ops."""
    for p, d, a, e in SECTION_SHAPES:
        aq = a * p**e
        ns = range(aq + 1, 3 * aq + 1)
        twists = [ns[int((i + f) * len(ns) / 6)] for i in range(6) for f in (0.25, 0.75)]
        for n in twists + [ns[-1]]:
            yield SyzygySpec(p, d, (aq, aq, aq)), n


def certificate_ops():
    """The (spec, n) of the search's 51 certificates over the acceptance grid."""
    ops = []
    for p, d, a in itertools.product((2, 3, 5, 7), range(4, 13), (1, 2, 3)):
        if d % p:
            cert = search_destabilization(p, d, a, 3)
            if cert is not None:
                aq = a * cert.q
                ops.append((SyzygySpec(p, d, (aq, aq, aq)), cert.twist))
    return ops
