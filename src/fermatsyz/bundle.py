"""Syzygy bundles Syz(X^a1, Y^a2, Z^a3)(m) on P^2 and on Fermat curves.

Global sections in a given twist n are computed as module syzygies: the
kernel of

    [ .X^a1 | .Y^a2 | .Z^a3 ] : R_{n-a1} (+) R_{n-a2} (+) R_{n-a3} -> R_n

over the Fermat ring (or the polynomial ring for the plane, d = 0).

The production path is ``structured``: multiplying a basis monomial by
Y^a2 or Z^a3 never needs reduction, so the degree-n piece of (Y^a2, Z^a3)R
is spanned exactly by the basis monomials with Y-exponent >= a2 or
Z-exponent >= a3.  A section is therefore determined by its first
component s1, constrained by  s1 * X^a1 in (Y^a2, Z^a3)R, and that
constraint splits into independent small banded binomial blocks indexed
by the exponent residues mod d (the rewrite X^d -> -(Y^d + Z^d) moves
exponents only in steps of d).

``dense`` -- assemble the full block matrix (``syzygy_matrix``) and take
its kernel -- is the reference that tests compare against; pass
``method="dense"`` to select it.  Both paths canonicalize through a final
reduced-echelon pass, so they return identical bases.

Residue families.  On a curve (d > 0) the blocks come in families: the
class (i, j0, l0) in [0, d)^3 owns the twists n = a1 + i + j0 + l0 + d N,
N >= 0, and its block at level N depends only on

    t = (i + a1) // d,  A = (a2 - 1 - j0) // d + 1,  B = (a3 - 1 - l0) // d + 1

(A or B is 0 when its numerator is negative) and on N.  With u = Y^d and
w = Z^d the block's kernel is the degree-N part of
{f in F_p[u, w] : f (u + w)^t in (u^A, w^B)}, the syzygy gaps of
Han-Monsky ("Some surprising Hilbert-Kunz functions", Math. Z. 1993).
Multiplying by u keeps f in that set, so once a family has a kernel it
keeps one at every larger N: each family has a threshold N*(t, A, B),
found by binary search, and ``first_section_twist`` reads the least
twist with a section off the thresholds instead of eliminating every
block at every twist.  Families sharing (t, A, B) share the threshold,
and there are at most eight such groups per spec.

The plane (d = 0) runs through the same code.  In degrees below d the
Fermat ring equals F_p[X, Y, Z], so the degree-n syzygies on P^2 are
exactly those on a Fermat curve of any degree above n.  The plane uses
the effective degree n + 1 in twist n (hi + 1 in a window [lo, hi]).
Every family in play then has t = 0 and N = 0, and its block is [1] or
empty: an s1 monomial extends to a section iff its Y-exponent is >= a2
or its Z-exponent is >= a3.

Module syzygies are all of H^0.  Plane curves are projectively normal, so
R_m = H^0(O_C(m)) for every m (and S_m = H^0(O_P2(m)) on the plane), and
H^0 is left exact on 0 -> Syz(n) -> (+) O(n - a_i) -> O(n) -> 0, so the
degree-n syzygies are exactly the global sections of the twisted bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ExponentOverflowError, InternalCheckError
from .field import PrimeField, binom_uint
from .linalg import MatrixModP, kernel_from_rref, rref
from .poly import EXP_LIMIT, GradedPoly, Monomial
from .ring import FermatRing

_RING_CACHE: dict = {}


def _ring(p: int, d: int) -> FermatRing:
    ring = _RING_CACHE.get((p, d))
    if ring is None:
        ring = FermatRing(p, d)
        _RING_CACHE[(p, d)] = ring
    return ring


@dataclass(frozen=True)
class SyzygySpec:
    """Syz(X^a1, Y^a2, Z^a3)(m) over F_p on the degree-d Fermat curve.

    d = 0 encodes the ambient projective plane.  The three generators
    never vanish simultaneously on a Fermat curve (no coordinate point
    satisfies X^d + Y^d + Z^d = 0), so the syzygy sheaf is locally free of
    rank 2.
    """

    p: int
    d: int
    exponents: tuple
    twist: int = 0

    def __post_init__(self):
        PrimeField(self.p)  # validates primality
        object.__setattr__(self, "exponents", tuple(int(a) for a in self.exponents))
        if self.d < 0:
            raise ValueError("curve degree must be >= 0 (0 = projective plane)")
        if len(self.exponents) != 3 or min(self.exponents) < 1:
            raise ValueError("need three generator exponents >= 1")

    @property
    def ring(self) -> FermatRing:
        return _ring(self.p, self.d)

    @property
    def smooth(self) -> bool:
        return self.ring.smooth

    def frobenius_pullback(self, e: int) -> "SyzygySpec":
        """Pull back along the e-th Frobenius: exponents and twist scale by p^e."""
        if e < 0:
            raise ValueError("Frobenius level must be >= 0")
        q = self.p**e
        if q >= EXP_LIMIT or max(self.exponents) * q >= EXP_LIMIT:
            raise ExponentOverflowError("p^e scaled exponents exceed the 64-bit range")
        a1, a2, a3 = self.exponents
        return SyzygySpec(self.p, self.d, (a1 * q, a2 * q, a3 * q), self.twist * q)

    def degree_and_slope(self):
        """(degree, slope) of the bundle; on the curve degrees carry a factor d."""
        plane_degree = 2 * self.twist - sum(self.exponents)
        degree = plane_degree if self.d == 0 else plane_degree * self.d
        return degree, Fraction(degree, 2)


class SectionVector:
    """A verified syzygy (s1, s2, s3): sum s_i * gen_i = 0 in the ring.

    Components are normal-form polynomials with deg s_i = twist - a_i
    (zero components allowed, including in negative degrees).
    """

    __slots__ = ("spec", "twist", "components")

    def __init__(self, spec: SyzygySpec, twist: int, components):
        s1, s2, s3 = components
        ring = spec.ring
        acc = None
        for var, (s, a) in enumerate(zip((s1, s2, s3), spec.exponents)):
            if s.field.p != spec.p:
                raise ValueError("component over the wrong field")
            if s.is_zero():
                continue
            if s.degree != twist - a:
                raise ValueError(
                    f"component degree {s.degree} != twist - exponent = {twist - a}"
                )
            exps = [0, 0, 0]
            exps[var] = a
            term = s * GradedPoly.monomial(s.field, 1, tuple(exps))
            acc = term if acc is None else acc + term
        if acc is not None and not ring.normal_form(acc).is_zero():
            raise ValueError("components do not satisfy the syzygy relation")
        self.spec = spec
        self.twist = twist
        self.components = (s1, s2, s3)

    def is_zero(self) -> bool:
        return all(s.is_zero() for s in self.components)

    def serialize(self) -> list:
        return [s.to_string() for s in self.components]

    def __eq__(self, other):
        return (
            isinstance(other, SectionVector)
            and self.spec == other.spec
            and self.twist == other.twist
            and self.components == other.components
        )

    def __repr__(self):
        return f"SectionVector(twist={self.twist}, {self.serialize()})"


# -- dense reference path -----------------------------------------------------


def syzygy_matrix(spec: SyzygySpec, n: int) -> MatrixModP:
    """Block matrix [ .X^a1 | .Y^a2 | .Z^a3 ] into R_n (dense reference path)."""
    ring = spec.ring
    blocks = []
    rows = ring.hilbert(n)
    for var, a in enumerate(spec.exponents):
        if n - a < 0:
            blocks.append(np.zeros((rows, 0), dtype=np.int64))
            continue
        exps = [0, 0, 0]
        exps[var] = a
        g = GradedPoly.monomial(ring.field, 1, tuple(exps))
        blocks.append(ring.multiplication_matrix(g, n - a).array)
    return MatrixModP(np.hstack(blocks), spec.p)


def _dense_kernel(spec: SyzygySpec, n: int) -> np.ndarray:
    return syzygy_matrix(spec, n).kernel_basis()


# -- structured path ----------------------------------------------------------
#
# Write A1, A2, A3 for the generator exponents.  For a basis monomial
# X^i Y^j Z^l (i < d), the product with X^A1 reduces in closed form to
#
#   (-1)^t * sum_v C(t, v) X^i' Y^(j + v d) Z^(l + (t - v) d),
#
# where i + A1 = i' + t d with 0 <= i' < d.  Grouping source monomials by
# (i, j mod d) makes the bad-projection (coordinates on target monomials
# with j < A2 and l < A3) block diagonal; within one class the matrix is a
# band of binomial coefficients C(t, gamma - alpha).


def _binom_row(t: int, p: int, cache: dict) -> np.ndarray:
    row = cache.get(t)
    if row is None:
        row = np.array([binom_uint(t, v, p) for v in range(t + 1)], dtype=np.int64)
        cache[t] = row
    return row


def _band(t: int, A: int, B: int, N: int, row: np.ndarray) -> np.ndarray:
    """Bad-projection block of the residue family (t, A, B) at level N.

    Columns are alpha = 0..N, rows the target exponents gamma with
    gamma < A and N + t - gamma < B; the entry is C(t, gamma - alpha),
    read from ``row`` = [C(t, v) mod p for v = 0..t].
    """
    lo = max(0, N + t - B + 1)
    hi = min(N + t, A - 1)
    if lo > hi:
        return np.zeros((0, N + 1), dtype=np.int64)
    gammas = np.arange(lo, hi + 1)
    alphas = np.arange(N + 1)
    diff = gammas[:, None] - alphas[None, :]
    ok = (diff >= 0) & (diff <= t)
    return np.where(ok, row[np.clip(diff, 0, t)], 0)


def _curve_blocks(spec: SyzygySpec, n: int):
    """Yield (i, j0, l0, N, t, block) per nonempty residue class.

    ``block`` is the bad-projection matrix on the class coordinates
    alpha = 0..N, where the class consists of the source monomials
    X^i Y^(j0 + alpha d) Z^(l0 + beta d) with alpha + beta = N.  The plane
    uses the effective degree d = n + 1 (see the module docstring).
    """
    a1, a2, a3 = spec.exponents
    d = spec.d or n + 1
    src_deg = n - a1
    cache: dict = {}
    for i in range(min(d, src_deg + 1)):
        t = (i + a1) // d
        row = _binom_row(t, spec.p, cache)
        for j0 in range(min(d, src_deg - i + 1)):
            l0 = (src_deg - i - j0) % d
            rem = src_deg - i - j0 - l0
            if rem < 0:
                continue
            n_alpha = rem // d
            A = (a2 - 1 - j0) // d + 1
            B = (a3 - 1 - l0) // d + 1
            yield i, j0, l0, n_alpha, t, _band(t, A, B, n_alpha, row)


def _structured_dim(spec: SyzygySpec, n: int) -> int:
    """Kernel dimension via the block decomposition."""
    _a1, a2, a3 = spec.exponents
    dim = spec.ring.hilbert(n - a2 - a3)  # Koszul family
    for *_cls, block in _curve_blocks(spec, n):
        dim += block.shape[1] - _rank(block, spec.p)
    return dim


def _rank(block: np.ndarray, p: int) -> int:
    work = np.ascontiguousarray(block.copy())
    return rref(work, p)[0]


def _structured_kernel(spec: SyzygySpec, n: int) -> np.ndarray:
    """Full canonical kernel basis via the block decomposition."""
    ring = spec.ring
    a1, a2, a3 = spec.exponents
    p = spec.p
    src1 = ring.basis_index(n - a1)
    src2 = ring.basis_index(n - a2)
    src3 = ring.basis_index(n - a3)
    d1, d2, d3 = len(src1), len(src2), len(src3)
    total = d1 + d2 + d3
    x_a1 = GradedPoly.monomial(ring.field, 1, (a1, 0, 0))

    d = spec.d or n + 1
    s1_list = []
    for i, j0, l0, n_alpha, _t, block in _curve_blocks(spec, n):
        work = np.ascontiguousarray(block)
        rank, pivots = rref(work, p) if work.size else (0, [])
        if block.shape[1] - rank == 0:
            continue
        for kv in kernel_from_rref(work, rank, pivots, p):
            terms = {}
            for alpha, c in enumerate(kv):
                if c:
                    beta = n_alpha - alpha
                    terms[Monomial(i, j0 + alpha * d, l0 + beta * d)] = int(c)
            s1_list.append(GradedPoly(ring.field, n - a1, terms))

    raw_rows = []
    for s1 in s1_list:
        w = ring.normal_form(s1 * x_a1)
        row = np.zeros(total, dtype=np.int64)
        for mono, c in s1.terms.items():
            row[src1[mono]] = c
        for mono, c in w.terms.items():
            c_neg = (-c) % p
            if mono.j >= a2:
                row[d1 + src2[Monomial(mono.i, mono.j - a2, mono.l)]] = c_neg
            elif mono.l >= a3:
                row[d1 + d2 + src3[Monomial(mono.i, mono.j, mono.l - a3)]] = c_neg
            else:
                raise InternalCheckError("bad-projection of a kernel element is nonzero")
        raw_rows.append(row)

    # Koszul family g * (0, Z^a3, -Y^a2); present only when n >= a2 + a3
    for g in ring.basis(n - a2 - a3):
        row = np.zeros(total, dtype=np.int64)
        row[d1 + src2[Monomial(g.i, g.j, g.l + a3)]] = 1
        row[d1 + d2 + src3[Monomial(g.i, g.j + a2, g.l)]] = p - 1
        raw_rows.append(row)

    if not raw_rows:
        return np.zeros((0, total), dtype=np.int64)
    m = np.ascontiguousarray(np.vstack(raw_rows))
    rref(m, p)
    nonzero = np.any(m, axis=1)  # rows are independent, but stay defensive
    return m[nonzero]


# -- public API ----------------------------------------------------------------

def _unpack_rows(spec: SyzygySpec, n: int, rows) -> list:
    ring = spec.ring
    a1, a2, a3 = spec.exponents
    d1 = ring.hilbert(n - a1)
    d2 = ring.hilbert(n - a2)
    sections = []
    for v in rows:
        s1 = ring.from_coords(v[:d1], n - a1)
        s2 = ring.from_coords(v[d1 : d1 + d2], n - a2)
        s3 = ring.from_coords(v[d1 + d2 :], n - a3)
        sections.append(SectionVector(spec, n, (s1, s2, s3)))
    return sections


def _is_dense(method: str) -> bool:
    if method not in ("dense", "structured"):
        raise ValueError(f"unknown method {method!r}")
    return method == "dense"


def _section_kernel(spec: SyzygySpec, n: int, method: str = "structured") -> np.ndarray:
    if _is_dense(method):
        return _dense_kernel(spec, n)
    return _structured_kernel(spec, n)


def section_space(spec: SyzygySpec, n: int, method: str = "structured") -> list:
    """Basis of the degree-n module syzygies, as verified SectionVectors.

    ``method="dense"`` selects the reference elimination; both paths
    return the same canonical basis.
    """
    return _unpack_rows(spec, n, _section_kernel(spec, n, method))


def section_space_dim(spec: SyzygySpec, n: int, method: str = "structured") -> int:
    """Dimension of the degree-n syzygy space, which is h^0 of the twist-n bundle."""
    if _is_dense(method):
        m = syzygy_matrix(spec, n)
        return m.cols - m.rank()
    return _structured_dim(spec, n)


def has_section(spec: SyzygySpec, n: int, method: str = "structured") -> bool:
    return section_space_dim(spec, n, method) > 0


def _runs(values) -> list:
    """[value, first, last] for each maximal run of equal consecutive values."""
    runs: list = []
    for r, v in enumerate(values):
        if runs and runs[-1][0] == v:
            runs[-1][2] = r
        else:
            runs.append([v, r, r])
    return runs


def _least_twist(s_lo: int, s_hi: int, d: int, N: int, lo: int) -> int:
    """Least n >= lo of the form s + d M with s in [s_lo, s_hi] and M >= N."""
    if lo <= s_lo + d * N:
        return s_lo + d * N
    k = (lo - s_lo) // d  # lo lies in [s_lo + d k, s_lo + d (k + 1)), and k >= N
    return lo if lo <= s_hi + d * k else s_lo + d * (k + 1)


def _family_threshold(t: int, A: int, B: int, N_lo: int, N_hi: int, p: int, row) -> int:
    """Least N in [N_lo, N_hi] at which the family (t, A, B) has a nonzero
    block kernel, or N_hi when there is none below it.

    The kernel is monotone in N (see the module docstring), so binary
    search applies.  At N = min(A, B) the band has at most min(A, B) rows
    and N + 1 columns, so the true threshold is at most min(A, B).
    """
    lo, hi = N_lo, min(N_hi, A, B)
    while lo < hi:
        mid = (lo + hi) // 2
        block = _band(t, A, B, mid, row)
        if block.shape[0] <= mid or _rank(block, p) <= mid:  # nullity > 0
            hi = mid
        else:
            lo = mid + 1
    return lo


def first_section_twist(spec: SyzygySpec, lo: int, hi: int) -> int | None:
    """Least n in [lo, hi] with a nonzero degree-n module syzygy, or None.

    Agrees with the first n for which ``has_section`` holds.  The plane
    uses the effective degree hi + 1, so only its level-0 families reach
    the window.  The Koszul family gives sections from n = a2 + a3 on; every
    other section comes from a residue family at a level N at or above its
    threshold N*(t, A, B).  The families sharing (t, A, B) form a box of
    residues (i, j0, l0) -- t, A and B each take at most two values, each
    on an interval of residues -- whose base twists a1 + i + j0 + l0 fill
    an interval, so one threshold per box, at most eight per call, decides
    them all.
    """
    a1, a2, a3 = spec.exponents
    d, p = spec.d or hi + 1, spec.p
    best = hi + 1  # least twist with a section found so far
    if a2 + a3 <= hi:
        best = max(lo, a2 + a3)
    boxes = []
    for t, i_lo, i_hi in _runs((i + a1) // d for i in range(d)):
        for A, j_lo, j_hi in _runs((a2 - 1 - j) // d + 1 for j in range(d)):
            for B, l_lo, l_hi in _runs((a3 - 1 - l) // d + 1 for l in range(d)):
                s_lo, s_hi = a1 + i_lo + j_lo + l_lo, a1 + i_hi + j_hi + l_hi
                boxes.append((_least_twist(s_lo, s_hi, d, 0, lo), s_lo, s_hi, t, A, B))
    cache: dict = {}
    for bound, s_lo, s_hi, t, A, B in sorted(boxes):
        if bound >= best:
            break
        # levels whose twists all lie below lo, or all above best, need no test
        N_lo = max(0, -((s_hi - lo) // d))
        N_hi = (best - 1 - s_lo) // d + 1
        N = _family_threshold(t, A, B, N_lo, N_hi, p, _binom_row(t, p, cache))
        best = min(best, _least_twist(s_lo, s_hi, d, N, lo))
    return best if best <= hi else None
