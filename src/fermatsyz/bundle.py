"""Syzygy bundles Syz(X^a1, Y^a2, Z^a3) on P^2 and on Fermat curves.

A ``SyzygySpec`` names the bundle; every twist n is an argument, and
``frobenius_pullback(e)`` scales each exponent by p^e through
``poly.scaled_power``, the one range check of a Frobenius level.
``SyzygySpec`` and ``SectionVector`` live in ``syzygy``, which the check
path (``verify``, ``certify``) loads without numpy; this module, the
construction, re-exports them as the same classes.  Global
sections of the twist Syz(n) are computed as module syzygies: the
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

``section_space`` runs this path alone.  The dense reference is the
full block matrix ``syzygy_matrix``: ``section_space_dim(spec, n,
"dense")`` takes its rank, and the tests' kernel oracle eliminates it to
the reduced echelon basis of the kernel (columns s1, then s2, then s3,
each in basis order).  That basis is unique, so the structured path must
give it exactly.

Residue families.  On a curve (d > 0) the blocks come in families: the
class (i, j0, l0) in [0, d)^3 owns the twists n = a1 + i + j0 + l0 + d N,
N >= 0, and its block at level N depends only on

    t = (i + a1) // d,  A = (a2 - 1 - j0) // d + 1,  B = (a3 - 1 - l0) // d + 1

(A or B is 0 when its numerator is negative) and on N.  With u = Y^d and
w = Z^d the block's kernel is the degree-N part of
{f in F_p[u, w] : f (u + w)^t in (u^A, w^B)}.  The triples (g1, g2, f)
with g1 u^A + g2 w^B + f (u + w)^t = 0 form a free module on two
generators of degrees m1 <= m2 with m1 + m2 = A + B + t (Hilbert-Burch),
and f fixes (g1, g2) up to the Koszul syzygies (w^B h, -u^A h, 0).  So
with D = N + t the block nullity is

    (D - m1 + 1)+ + (D - m2 + 1)+ - (D - A - B + 1)+,

and the family threshold, the least level with a kernel, is
N*(t, A, B) = max(0, m1 - t).  When A or B is 0 every f qualifies, and
the formulas say so: for A = 0 Han's gap below is |B - t|, so
{m1, m2} = {B, t}, the threshold is 0 and the nullity N + 1 (B = 0 is
symmetric).  The difference m2 - m1 is Han's syzygy gap
delta_p(t, A, B) (C. Han, thesis, Brandeis 1991; Han and Monsky, "Some
surprising Hilbert-Kunz functions", Math. Z. 1993), computed by
``_han_gap`` from Han's theorem in its taxicab-distance form: for
k = (k1, k2, k3) sorted, delta = k3 - k1 - k2 if k3 >= k1 + k2; otherwise
delta is the largest q - |k - q u|_1 over q = p^s <= k1 + k2 + k3 and
u in Z^3 with odd coordinate sum, u_i in {floor(k_i / q), ceil(k_i / q)}
and |k - q u|_1 < q; and delta = (k1 + k2 + k3) mod 2 when there is no
such pair.  The largest value matters for p = 2, where two levels can
qualify: for (3, 4, 4), q = 1 gives 1 and q = 4 gives 3, and the gap is
3.  tests/test_family.py checks both formulas against elimination of
every block with t, A, B <= 10 and p in {2, 3, 5, 7}, and m1 against the
extended Euclidean algorithm on u^A and (u + w)^t, which eliminates
nothing, there and on boxes far past elimination.

``first_section_twist`` and ``section_space_dim`` run on these closed
forms and eliminate nothing.  Families sharing (t, A, B) share the
threshold, and there are at most eight such groups per spec.  The twists
with a section form a ray: Z is a non-zero-divisor on R, because R is a
hypersurface ring whose associated primes are the (f) for the irreducible
factors f of F = X^d + Y^d + Z^d, and none divides Z, since
F(X, Y, 0) = X^d + Y^d is not zero (p dividing d included); on the plane
S = F_p[X, Y, Z] is a domain.  So
(s1, s2, s3) -> Z (s1, s2, s3) embeds the degree-n syzygies in the
degree-(n + 1) ones, and the least twist n0 with a section (the Koszul
twist a2 + a3, or a group's least base twist plus d N*) decides
every window: its first twist with a section is max(lo, n0) when that is
at most hi.  ``has_section(spec, n)`` is that window for lo = hi = n.

The basis without a global elimination.  ``section_space`` builds only
the blocks whose closed-form nullity is positive, each distinct
(p, t, A, B, N) once while the block cache keeps it.  A kernel vector f
of a block is s1; s2 and s3 follow in closed form, because
s2 Y^a2 + s3 Z^a3 = -s1 X^a1 is f times the band (-1)^(t + 1) C(t, v)
(see the structured-path comment).  Each of
its monomials has Y-exponent >= a2 or Z-exponent >= a3, and it is put on
s3 whenever its Z-exponent allows, else on s2.  A block whose
bad-projection band is empty is free: every f qualifies, and its kernel
is the identity, written down without an elimination.  Only a banded
block is eliminated.  Either kernel then goes through the same product,
sum and bad-projection check, and every block's nullity is checked
against the closed form.  The rows -- the block
kernels in reduced echelon form, ordered by their s1 pivots, then the
Koszul rows g (0, Z^a3, -Y^a2) in basis order -- are then already the
reduced echelon form of the whole kernel:

- every family row has its leading 1 in s1, and the classes have disjoint
  s1 supports whose basis order follows alpha, so the s1 parts are in
  reduced echelon form;
- a Koszul row has no s1 part and its leading 1 at the s2 coordinate of
  g Z^a3, i.e. the s2 monomials with Z-exponent >= a3, increasing with g;
- no family row has an s2 entry at such a monomial: those coefficients
  went to s3.  Moving them there is exactly the reduction of the row
  against the Koszul pivots, so the span is unchanged.

The RREF is unique, so this is the basis the dense elimination returns.

Sparse triples and verification.  The basis is almost all zeros, so
``_structured_kernel`` returns it as sparse triples (row count, rows,
columns, values): the nonzero entries only, sorted by (row, column), with
values in [1, p); it never forms a dense matrix.  A block's closed forms,
its nullity, its band rows [g3, g2) and its band's bytes, are one record,
``_block_facts``, computed once per (p, t, A, B, N) and kept in a
least-recently-used cache of at most 4096 records; ``_block_entry``,
``first_section`` and ``section_space_dim`` read them from it alone, so a
warm lookup computes no closed form.  Each distinct block's
entry (``_block_entry``) is built and checked once and then kept across
calls, in one least-recently-used cache of blocks keyed by
(p, t, A, B, N), which ``_block_entry`` alone reads and fills.  An entry
is two arrays: the s1 pivots, and one (4, nnz) array holding each
block-local nonzero's row, component, exponent and value.  The cache
holds at most ``BLOCK_CACHE_BYTES`` of arrays in total; an entry larger
than that is returned but not kept.  Its arrays are read-only, so no
caller can change what a later call reads.  Every block's product, free
or banded, is taken by ``_times_binomial``: its kernel's nonzeros times
(1 + x)^t, one base-p digit r of t at a time by Lucas' theorem, each
step one broadcast with the r + 1 binomials C(r, k) mod p and one sum
per (row, gamma) with the zeros dropped.  No row of t + 1 binomials is
made, and a warm call multiplies nothing.  The product's bad-projection
must vanish.  A call
concatenates one copy of its block's pivots and of its nonzeros per class
whose block has a kernel, every class reads its copy at its own column
offsets, and one sort by
(s1 pivot column, column) both ranks the rows in their canonical order
and puts the triples in (row, column) order.
The record is the one account of a block's band: ``_block_entry`` reads
its band bytes on every lookup, before the entry cache, and refuses a
block whose band would pass the current ``BAND_LIMIT_BYTES`` with
``BlockTooLargeError`` before it computes a binomial of the block,
whatever either cache holds.  On a miss every digit
step of a product is sized against the same limit before it is formed,
at (its nonzeros) (r + 1) entries, and one past it is refused with its
size.  ``_band`` reads its C(t, v), v <= g2, off the same product applied
to the single cell 0 and lays them into a strided window on one
zero-padded row, so the one band-sized array is the copy that
``_block_kernel`` eliminates; it reads the kernel's nonzeros straight off
the RREF and builds no kernel matrix.  The cache saves construction only:
``section_space`` verifies each call's triples with one batch check,
``FermatRing.check_syzygies``, which shares no code with the kernel's
construction (``_classes``, ``_block_facts``, ``_band``,
``_times_binomial``, ``_block_kernel``, ``_block_entry``):
it multiplies every row out term by term with the normal-form rewrite of
``poly``, in one flat pass over all entries, and sums the result per
monomial of R_n.  A change to any single
entry of a row, an added entry, and triples out of shape, out of order,
repeated or outside [1, p), and a row without entries, all make it
raise.  Each vector is then a view on one row of the verified triples,
without a check of its own.  It builds its polynomials only when its
``components`` are read, naming each monomial from its basis position in
closed form.  The call's columns and values stay int64 arrays until its
rows are written: the first ``serialize`` of a call makes every term
string in one object-array sum, of the coefficient's text (one ``str``
per value) and the column's text from ``FermatRing.term_text``, then
writes every component with one ``poly.join_rows``, in the bytes
``GradedPoly.to_string`` would write; each ``serialize`` then copies one
row's strings.

The public ``SectionVector`` constructor checks its vector by
``normal_form``: multiplying by X^a1, Y^a2 or Z^a3 only shifts exponents,
so it adds the shifted terms of s1, s2 and s3 mod p into one polynomial
and reduces that once.  ``first_section`` goes through it: it builds only
row 0 of a twist's basis, never the rest, the one section the search
certifies.  Row 0 is the family row with the least s1 pivot, the key
``_structured_kernel`` ranks rows by, and the pivot of the class (i, j0)
is basis_pos(i, j0, m1) + d lead, lead the first pivot of its block.  The
positions with X-exponent i form one run of R_m1, wholly before the run
of i + 1, so row 0 lies at the least X-exponent i with a kernel class.
``first_section`` reads only that i's blocks, through ``_block_entry``,
ranks its classes by j0 + d lead, and writes down local row 0 of the
least one's block, or the first Koszul row when no class has a kernel.
It tells the blocks with a kernel by the positive nullity of their
record, which holds exactly from the family threshold N*(t, A, B) on
(N + t >= m1): multiplying by u embeds a family's level-N kernel in its
level-(N + 1) kernel.  The band guard still runs on every block with a
kernel at the twist, from the record and before anything is built, so a
twist is refused for a band past ``BAND_LIMIT_BYTES`` at any X-exponent;
the product's digit steps are sized as they are taken, so that guard runs
on the blocks that are built.  ``normal_form`` bounds its own work: a vector
whose check would pass ``poly.NORMAL_FORM_BUDGET`` steps is refused
with ``BlockTooLargeError`` before anything is multiplied.

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

from collections import OrderedDict
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _kernels
from .errors import BlockTooLargeError, InternalCheckError
from .field import binom_uint
# kernel_from_rref is not called here; perfbench/probes.py wraps bundle.kernel_from_rref
from .linalg import MatrixModP, kernel_from_rref
from .poly import GradedPoly, Monomial, join_rows
from .ring import basis_pos
from .syzygy import SectionVector, SyzygySpec


class _KernelRows:
    """One call's verified kernel triples, read row by row.

    ``kernel`` is sparse triples (row count, rows, columns, values) sorted
    by (row, column), so each row's entries run through s1, s2 and s3 in
    turn.  The columns and values stay the int64 arrays the call made; one
    split by component gives ``cuts``, a list: the entries of row r in
    component k are cuts[3 r + k]:cuts[3 r + k + 1] of them.
    ``components(r)`` gives row r as polynomials, converting only its own
    slices.  ``strings(r)`` gives it as ``GradedPoly.to_string`` writes
    it; the first call writes every row at once, each term the object-array
    sum of its coefficient's string and its column's
    ``FermatRing.term_text``, and every component with one
    ``poly.join_rows``.  A coefficient string is made once per distinct
    value.
    """

    __slots__ = ("ring", "degrees", "starts", "cuts", "cols", "vals", "_strings")

    def __init__(self, spec: SyzygySpec, n: int, kernel: tuple):
        count, rows, cols, values = kernel
        ring = self.ring = spec.ring
        self.degrees = [n - a for a in spec.exponents]
        w1, w2, _w3 = (ring.hilbert(m) for m in self.degrees)
        self.starts = (0, w1, w1 + w2)  # each component's first column
        parts = np.array(self.starts[1:]).searchsorted(cols, "right")
        self.cuts = (3 * rows + parts).searchsorted(np.arange(3 * count + 1)).tolist()
        self.cols = cols
        self.vals = values
        self._strings = None

    def components(self, r: int) -> tuple:
        field, cuts = self.ring.field, self.cuts
        out = []
        for k, (m, start) in enumerate(zip(self.degrees, self.starts)):
            lo, hi = cuts[3 * r + k], cuts[3 * r + k + 1]
            monos = self.ring.basis_monomials(self.cols[lo:hi] - start, m)
            terms = dict(zip(monos, self.vals[lo:hi].tolist()))
            out.append(GradedPoly._trusted(field, m, terms))
        return tuple(out)

    def strings(self, r: int) -> list:
        """Row r's components as ``GradedPoly.to_string`` writes them."""
        if self._strings is None:
            # the three bases' texts one after the other, indexed by column
            texts = np.concatenate([self.ring.term_text(m) for m in self.degrees])
            # the coefficients' strings, one per distinct value
            values, which = np.unique(self.vals, return_inverse=True)
            coeffs = np.array([str(c) for c in values.tolist()], dtype=object)
            terms = coeffs[which] + texts[self.cols]
            self._strings = join_rows(terms.tolist(), self.cuts)
        return self._strings[3 * r : 3 * r + 3]


# -- dense reference path -----------------------------------------------------


def syzygy_matrix(spec: SyzygySpec, n: int) -> MatrixModP:
    """Block matrix [ .X^a1 | .Y^a2 | .Z^a3 ] into R_n (dense reference path)."""
    ring = spec.ring
    blocks = []
    for var, a in enumerate(spec.exponents):
        exps = [0, 0, 0]
        exps[var] = a
        g = GradedPoly.monomial(ring.field, 1, tuple(exps))
        blocks.append(ring.multiplication_matrix(g, n - a).array)
    return MatrixModP(np.hstack(blocks), spec.p)


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
# band of binomial coefficients C(t, gamma - alpha).  The same band, applied
# to a block kernel vector, gives the rest of the product: its coefficients
# at gamma with l >= A3 form s3, the others with j >= A2 form s2 (s3 first
# is the reduction against the Koszul pivots; see the module docstring).


BLOCK_CACHE_BYTES = 2**24  # the most bytes of block entries kept
BAND_LIMIT_BYTES = 2**29  # the largest band _block_kernel copies

_cache: OrderedDict = OrderedDict()  # (p, t, A, B, N) -> (entry, bytes), least recently used first
_cache_bytes = 0


def clear_block_cache():
    """Forget every kept block entry and every block's record of closed forms
    (``_block_facts``)."""
    global _cache_bytes
    _cache.clear()
    _cache_bytes = 0
    _block_facts.cache_clear()


def _band_rows(t: int, A: int, B: int, N: int) -> tuple:
    """Rows [g3, g2) of the bad-projection band of the family (t, A, B) at level N.

    They are the target exponents gamma with gamma < A and N + t - gamma < B;
    the band product goes to s3 below g3 and to s2 from g2 on, and g2 == g3
    when the band is empty (a free block).
    """
    g3 = max(0, N + t + 1 - B)
    return g3, min(N + t + 1, max(A, g3))


def _band(t: int, A: int, B: int, N: int, p: int) -> np.ndarray:
    """Bad-projection block of the residue family (t, A, B) at level N over F_p.

    Columns are alpha = 0..N, rows the target exponents gamma in
    ``_band_rows``; the entry is C(t, gamma - alpha) mod p, read off
    ``_times_binomial`` applied to the single cell 0.  The band is a
    read-only window: row gamma is ext[gamma : gamma + N + 1] reversed,
    where ext[N + v] = C(t, v) for v <= hi, zero-padded to N + hi + 1
    entries, the only ones allocated.  An empty band (lo == hi) is a
    (0, N + 1) window of the same array.
    """
    lo, hi = _band_rows(t, A, B, N)
    v, c = _times_binomial(np.zeros(1, np.int64), np.ones(1, np.int64), t, p, (t, A, B, N))
    ext = np.zeros(N + hi + 1, dtype=np.int64)
    ext[N + v[v <= hi]] = c[v <= hi]
    return sliding_window_view(ext, N + 1)[lo:hi, ::-1]


def _times_binomial(cells: np.ndarray, values: np.ndarray, t: int, p: int, block: tuple) -> tuple:
    """The sparse polynomial sum values x^cells times (1 + x)^t mod p.

    ``cells`` are distinct and ``values`` in [1, p).  By Lucas' theorem
    (1 + x)^t = prod_k (1 + x^(p^k))^(r_k) mod p over the base-p digits r_k
    of t, so the product is taken one nonzero digit at a time: one
    broadcast with the r + 1 values C(r, k) mod p, each product reduced mod
    p before it is summed, then one sort and one sum per cell, and the zero
    sums are dropped.  A sum has at most r + 1 terms below p, so int64 holds
    at p = 2^31 - 1.  Each step is sized before it is formed, and one past
    ``BAND_LIMIT_BYTES`` is refused with ``BlockTooLargeError`` as a product
    of ``block``.  Returns (cells, values), the cells distinct and, once a
    digit is applied, sorted.
    """
    scale = 1  # p^k
    while t:
        t, r = divmod(t, p)
        if r:
            size = len(cells) * (r + 1) * 8
            if size > BAND_LIMIT_BYTES:
                raise _too_large("product", size, block)
            row = np.array([binom_uint(r, k, p) for k in range(r + 1)], dtype=np.int64)
            cells = (cells[:, None] + scale * np.arange(r + 1)).ravel()
            values = (values[:, None] * row % p).ravel()
            order = cells.argsort()
            cells, values = cells[order], values[order]
            firsts = np.flatnonzero(np.concatenate(([True], cells[1:] != cells[:-1])))
            values = np.add.reduceat(values, firsts) % p
            cells, values = cells[firsts][values != 0], values[values != 0]
        scale *= p
    return cells, values


def _classes(spec: SyzygySpec, n: int) -> tuple:
    """The nonempty residue classes in twist n, grouped by their block.

    Returns (classes, blocks): (i, j0, k) per class, where k indexes
    ``blocks``, the distinct (t, A, B, N) in order of first appearance.
    The class consists of the source monomials X^i Y^(j0 + alpha d)
    Z^(l0 + beta d) with alpha + beta = N.  The plane uses the effective
    degree d = n + 1 (see the module docstring).
    """
    a1, a2, a3 = spec.exponents
    d = spec.d or n + 1
    src_deg = n - a1
    index: dict = {}  # (t, A, B, N) -> k
    classes = []
    for i in range(min(d, src_deg + 1)):
        t = (i + a1) // d
        for j0 in range(min(d, src_deg - i + 1)):
            N, l0 = divmod(src_deg - i - j0, d)
            key = (t, (a2 - 1 - j0) // d + 1, (a3 - 1 - l0) // d + 1, N)
            classes.append((i, j0, index.setdefault(key, len(index))))
    return classes, list(index)


def _han_gap(p: int, t: int, A: int, B: int) -> int:
    """Han's syzygy gap delta_p(t, A, B) (see the module docstring)."""
    k1, k2, k3 = sorted((t, A, B))
    total = k1 + k2 + k3
    if k3 >= k1 + k2:
        return k3 - k1 - k2
    gap = total % 2
    q = 1
    while q <= total:
        # the u nearest to k / q minimizes |k - q u|_1; if its sum is even,
        # moving one u_i to its other neighbour of k_i / q costs
        # |q - 2 r_i| (q when r_i = 0, which never qualifies) and makes the
        # sum odd; moving three costs more
        r1, r2, r3 = k1 % q, k2 % q, k3 % q
        dist = min(r1, q - r1) + min(r2, q - r2) + min(r3, q - r3)
        h = q // 2
        if ((k1 + h) // q + (k2 + h) // q + (k3 + h) // q) % 2 == 0:
            dist += min(abs(q - 2 * r1), abs(q - 2 * r2), abs(q - 2 * r3))
        if q - dist > gap:
            gap = q - dist
        q *= p
    return gap


@lru_cache(maxsize=4096)
def _syzygy_degrees(p: int, t: int, A: int, B: int) -> tuple:
    """Degrees m1 <= m2 of the syzygy generators of (u^A, w^B, (u + w)^t)."""
    m1 = (A + B + t - _han_gap(p, t, A, B)) // 2
    return m1, A + B + t - m1


def _nullity(p: int, t: int, A: int, B: int, N: int) -> int:
    """Kernel dimension of the family (t, A, B) block at level N."""
    m1, m2 = _syzygy_degrees(p, t, A, B)
    D = N + t
    return max(0, D - m1 + 1) + max(0, D - m2 + 1) - max(0, D - A - B + 1)


@lru_cache(maxsize=4096)
def _block_facts(p: int, t: int, A: int, B: int, N: int) -> tuple:
    """The closed forms of the family (t, A, B) block at level N, as one record.

    Returns (nullity, g3, g2, band bytes): ``_nullity``, the band rows
    [g3, g2) of ``_band_rows``, and the (g2 - g3) (N + 1) * 8 bytes of the
    band ``_block_kernel`` would copy.  It is the one account of them that
    ``_block_entry``, ``first_section`` and ``section_space_dim`` read, so a
    warm lookup computes none of them.  The band bytes are known before
    anything of the block is built, as they must be: a refused block's t
    can pass 10^8, and its band alone would take gigabytes.
    """
    g3, g2 = _band_rows(t, A, B, N)
    return _nullity(p, t, A, B, N), g3, g2, (g2 - g3) * (N + 1) * 8


def _block_kernel(t: int, A: int, B: int, N: int, p: int) -> tuple:
    """Kernel of the family (t, A, B) block at level N, in reduced echelon form.

    Returned as (pivots, rows, alphas, values): the alpha of each kernel
    row's leading 1, then per nonzero its row, its alpha and its value.  The
    block is eliminated with its columns reversed, column c holding
    alpha = N - c.  Taking the free columns f_k in decreasing order, kernel
    row k has its 1 at alpha = N - f_k and -work[r, f_k] at
    alpha = N - pivots[r] for each pivot row r.  Those entries vanish unless
    pivots[r] < f_k, so reversed back every other entry lies right of the
    leading 1, and the rows are already the kernel's RREF.  They are read
    straight off the RREF: ``np.array``'s one writable copy of the band,
    which the elimination works in, is the largest array made.
    """
    work = np.array(_band(t, A, B, N, p)[:, ::-1])
    rank, pivots = _kernels.rref_mod_p(work, p)
    free = np.setdiff1d(np.arange(N + 1), pivots)[::-1]
    entries = (-work[:rank, free].T) % p  # row k, pivot r: the entry at N - pivots[r]
    k, r = np.nonzero(entries)
    lead = N - free
    return (
        lead,
        np.concatenate([np.arange(len(free)), k]),
        np.concatenate([lead, N - np.array(pivots, dtype=np.int64)[r]]),
        np.concatenate([np.ones(len(free), dtype=np.int64), entries[k, r]]),
    )


def _block_entry(p: int, t: int, A: int, B: int, N: int):
    """Block-local nonzeros of the family (t, A, B) kernel at level N, or None.

    Returns (pivots, nonzeros): the s1 exponent alpha of each kernel row's
    leading 1, and one (4, nnz) array whose columns are the nonzeros, in no
    particular order, and whose rows are each one's row, component (0, 1,
    2 for s1, s2, s3), exponent (alpha for s1, gamma for s2 and s3) and
    value.  Every call reads the block's record of closed forms,
    ``_block_facts``, first: a nullity of 0 returns None, and a band of more
    than ``BAND_LIMIT_BYTES`` (the record's band bytes against the current
    limit) raises ``BlockTooLargeError`` before the entry cache is read and
    before any binomial or the band is built.  Then the block cache is
    read, and only on a miss is the block built.  Its kernel K is
    the identity for a free block (an empty band), without an elimination,
    and ``_block_kernel``'s for a banded one.  Either goes through the same
    steps: K's nonzeros, signed by (-1)^(t + 1), times (1 + x)^t by
    ``_times_binomial``, whose digit steps are each sized against the same
    limit before they are formed, the check that the product's
    bad-projection vanishes, and the check of its nullity against the
    record's.  The arrays are made
    read-only and kept under (p, t, A, B, N), least recently used first
    out, so that at most ``BLOCK_CACHE_BYTES`` are kept; an entry larger
    than that is returned without being kept.
    """
    global _cache_bytes
    # the band product w goes to s3 below g3, to s2 from g2 on; between
    # them lies the bad-projection, and a block without one is free
    nullity, g3, g2, band = _block_facts(p, t, A, B, N)
    if nullity == 0:
        return None
    if band > BAND_LIMIT_BYTES:
        raise _too_large("band", band, (t, A, B, N))
    key = (p, t, A, B, N)
    if key in _cache:
        _cache.move_to_end(key)
        return _cache[key][0]
    if g2 == g3:  # free: every f qualifies, so the kernel is the identity
        pivots = k_rows = alphas = np.arange(N + 1)
        k_vals = np.ones(N + 1, dtype=np.int64)
    else:
        pivots, k_rows, alphas, k_vals = _block_kernel(t, A, B, N, p)
    top = N + t + 1
    # (-1)^(t + 1) K (1 + x)^t, each row's cells top apart
    signed = k_vals if t % 2 else p - k_vals
    cell, w = _times_binomial(k_rows * top + alphas, signed, t, p, (t, A, B, N))
    r, gamma = np.divmod(cell, top)
    if np.any((gamma >= g3) & (gamma < g2)):
        raise InternalCheckError("bad-projection of a kernel element is nonzero")
    if len(pivots) != nullity:
        raise InternalCheckError(
            f"block (t, A, B, N) = {(t, A, B, N)} has nullity {len(pivots)}, "
            f"closed form {nullity}"
        )
    entry = pivots, np.concatenate(
        [
            [k_rows, np.zeros(len(k_rows), dtype=np.int64), alphas, k_vals],
            [r, np.where(gamma < g3, 2, 1), gamma, w],
        ],
        axis=1,
    )
    kept = 0
    for x in entry:
        x.setflags(write=False)
        kept += x.nbytes
    if kept <= BLOCK_CACHE_BYTES:
        _cache[key] = entry, kept
        _cache_bytes += kept
        while _cache_bytes > BLOCK_CACHE_BYTES:
            _cache_bytes -= _cache.popitem(last=False)[1][1]
    return entry


def _too_large(what: str, size: int, block: tuple) -> BlockTooLargeError:
    """The refusal of a block whose band or product needs ``size`` bytes."""
    return BlockTooLargeError(
        f"block (t, A, B, N) = {block} needs a {what} of {size:,} bytes, "
        f"above the limit of {BAND_LIMIT_BYTES:,}"
    )


def _structured_kernel(spec: SyzygySpec, n: int) -> tuple:
    """Canonical (reduced echelon) kernel basis in twist n, from the residue blocks.

    Returned as sparse triples (row count, rows, columns, values): only the
    nonzero entries, sorted by (row, column), with values in [1, p).  The
    rows are the family rows ranked by s1 pivot, then the Koszul rows (see
    the module docstring).  Each block of ``_classes`` is read once per call
    from ``_block_entry``, which runs the band guard on the block's record
    and builds and checks only a block the cache does not hold.  The
    returned arrays are new on every call.
    """
    ring = spec.ring
    a1, a2, a3 = spec.exponents
    p = spec.p
    m1, m2, m3 = n - a1, n - a2, n - a3
    d1, d2 = ring.hilbert(m1), ring.hilbert(m2)
    width = d1 + d2 + ring.hilbert(m3)
    d = spec.d or n + 1
    classes, blocks = _classes(spec, n)
    empty = np.zeros(0, dtype=np.int64)
    entries = [_block_entry(p, *key) for key in blocks]
    # the classes whose block has a kernel: (i, j0, the block's entry)
    found = [(i, j0, entries[k]) for i, j0, k in classes if entries[k] is not None]

    n_family, family = 0, (empty, empty, empty)
    if found:
        # per class: i, j0 and i2 = i + a1 - t d, the X-exponent of its
        # products with X^a1; side by side, a copy of its block's pivots
        # and one of its nonzeros
        i = np.array([c[0] for c in found], dtype=np.int64)
        j0 = np.array([c[1] for c in found], dtype=np.int64)
        i2 = (i + a1) % d
        pivots = np.concatenate([c[2][0] for c in found])
        k_sizes = np.array([len(c[2][0]) for c in found])
        sizes = [c[2][1].shape[1] for c in found]
        owner = np.repeat(np.arange(len(found)), sizes)  # nonzero -> class
        r, parts, exps, values = np.concatenate([c[2][1] for c in found], axis=1)
        # per class the columns of its alpha = 0 in s1 and gamma = 0 in s2, s3
        offsets = np.concatenate(
            [
                basis_pos(i, j0, m1),
                d1 + basis_pos(i2, j0 - a2, m2),
                d1 + d2 + basis_pos(i2, j0, m3),
            ]
        )
        cols = offsets[parts * len(found) + owner] + d * exps
        # a family row's s1 pivot column ranks it: one sort by (pivot, column)
        # orders the rows and the triples, and numbers the rows
        lead = offsets[owner] + d * pivots[(k_sizes.cumsum() - k_sizes)[owner] + r]
        order = (lead * width + cols).argsort()
        lead = lead[order]
        r = np.concatenate(([0], lead[1:] != lead[:-1])).cumsum()
        n_family = int(r[-1]) + 1
        family = (r, cols[order], values[order])

    # Koszul family g * (0, Z^a3, -Y^a2), g in the basis of R_{n - a2 - a3}.
    # basis_pos(gi, gj, m) grows by gi with m and by 1 with gj, so the g at
    # position q of R_mk puts g Z^a3 at q + a3 gi of R_m2 and g Y^a2 at
    # q + a2 (gi + 1) of R_m3
    mk = n - a2 - a3
    n_koszul, koszul = 0, (empty, empty, empty)
    # a twist below a2 + a3 has no Koszul row; skipping its empty arrays
    # took a warm _structured_kernel pass over the 75 sections-benchmark
    # twists below 2 a q from 8.0-8.3 ms to 6.1-6.9 ms (2-core x86 VM)
    if mk >= 0:
        top = min(mk + 1, d)  # the X-exponents gi, each with mk - gi + 1 monomials
        gi = np.repeat(np.arange(top), np.arange(mk + 1, mk + 1 - top, -1))
        q = np.arange(len(gi))
        n_koszul = len(gi)
        koszul = (
            n_family + np.repeat(q, 2),
            np.column_stack([d1 + q + a3 * gi, d1 + d2 + q + a2 * (gi + 1)]).ravel(),
            np.tile(np.array([1, p - 1], dtype=np.int64), n_koszul),
        )
    return n_family + n_koszul, *(np.concatenate(x) for x in zip(family, koszul))


# -- public API ----------------------------------------------------------------


def section_space(spec: SyzygySpec, n: int) -> list:
    """Canonical basis of the degree-n module syzygies, as verified SectionVectors.

    One ``FermatRing.check_syzygies`` verifies the whole basis; each vector
    is a view on one of its rows.
    """
    kernel = _structured_kernel(spec, n)
    spec.ring.check_syzygies(kernel, n, spec.exponents)
    rows = _KernelRows(spec, n, kernel)
    views = []
    new = SectionVector.__new__
    for r in range(kernel[0]):
        view = new(SectionVector)
        view.spec = spec
        view.twist = n
        view._rows = rows
        view._row = r
        view._components = None
        views.append(view)
    return views


def first_section(spec: SyzygySpec, n: int) -> SectionVector:
    """Row 0 of the canonical basis in twist n, checked by the ``SectionVector``
    constructor.  Raises ``ValueError`` when the twist has no section.

    Only that row is built, never the rest of the basis.  It is the family
    row with the least s1 pivot, the key ``_structured_kernel`` ranks rows
    by; the pivot of the class (i, j0) is basis_pos(i, j0, m1) + d * lead,
    where lead is the first pivot of its block.  The positions with
    X-exponent i form one run of R_m1, wholly before the run of i + 1, so
    row 0 belongs to the least i that has a class with a kernel.  A block
    (t, A, B, N) has a kernel exactly when the nullity of its
    ``_block_facts`` record is positive, which is N + t >= m1, N at least
    its family's threshold N* = max(0, m1 - t).  Only that
    i's blocks are read through ``_block_entry``, ranked by j0 + d * lead,
    and row 0 is local row 0 of the least one's block.  The band guard
    still runs on every block with a kernel at the twist, on the record's
    band bytes and before anything is built, so a block past
    ``BAND_LIMIT_BYTES`` at any X-exponent refuses the twist, with the
    message ``_block_entry`` would give.  Without a family row it is the first
    Koszul row (0, Z^a3 g, -Y^a2 g), g = Z^(n - a2 - a3).
    """
    field = spec.ring.field
    p = spec.p
    a1, a2, a3 = spec.exponents
    degrees = m1, m2, m3 = n - a1, n - a2, n - a3
    d = spec.d or n + 1
    terms = ({}, {}, {})
    classes, blocks = _classes(spec, n)
    kernel = []  # per block: has it a kernel
    for key in blocks:
        nullity, _g3, _g2, band = _block_facts(p, *key)
        if nullity and band > BAND_LIMIT_BYTES:  # read or not: every band refusal stays
            raise _too_large("band", band, key)
        kernel.append(nullity > 0)
    least = None  # (rank, i, j0, entry) of the least class at the least i
    for i, j0, k in classes:  # in order of i, then j0
        if kernel[k]:
            if least is not None and i != least[1]:
                break
            entry = _block_entry(p, *blocks[k])
            rank = j0 + d * int(entry[0][0])
            if least is None or rank < least[0]:
                least = rank, i, j0, entry
    if least is not None:
        _rank, i, j0, (_pivots, nonzeros) = least
        i2 = (i + a1) % d
        for part, k, c in zip(*nonzeros[1:, nonzeros[0] == 0].tolist()):
            if part == 0:  # s1 at X^i Y^(j0 + alpha d)
                x, j = i, j0 + d * k
            else:  # the product at X^i2 Y^(j0 + gamma d), over Y^a2 in s2 or Z^a3 in s3
                x, j = i2, j0 + d * k - (a2 if part == 1 else 0)
            terms[part][Monomial(x, j, degrees[part] - x - j)] = c
    elif m2 >= a3:  # Koszul row 0: g = Z^(n - a2 - a3), the first basis monomial
        terms[1][Monomial(0, 0, m2)] = 1
        terms[2][Monomial(0, a2, m3 - a2)] = field.p - 1
    else:
        raise ValueError(f"twist {n} has no section")
    s1, s2, s3 = terms
    trusted = GradedPoly._trusted
    return SectionVector(
        spec, n, (trusted(field, m1, s1), trusted(field, m2, s2), trusted(field, m3, s3))
    )


def section_space_dim(spec: SyzygySpec, n: int, method: str = "structured") -> int:
    """Dimension of the degree-n syzygy space, which is h^0 of the twist-n bundle.

    The structured count is the Koszul family plus the closed-form family
    nullities, read from each block's ``_block_facts`` record;
    ``method="dense"`` takes it from the rank of ``syzygy_matrix``
    instead.
    """
    if method == "dense":
        m = syzygy_matrix(spec, n)
        return m.cols - m.rank()
    if method != "structured":
        raise ValueError(f"unknown method {method!r}")
    classes, blocks = _classes(spec, n)
    nullity = [_block_facts(spec.p, *key)[0] for key in blocks]
    koszul = spec.ring.hilbert(n - spec.exponents[1] - spec.exponents[2])
    return koszul + sum(nullity[k] for _i, _j0, k in classes)


def has_section(spec: SyzygySpec, n: int) -> bool:
    """Whether twist n has a nonzero section: ``first_section_twist(spec, n, n)``."""
    return first_section_twist(spec, n, n) is not None


def _runs(c: int, step: int, d: int) -> list:
    """(value, first) for each run of (c + step x) // d over x in [0, d).

    ``step`` is 1 or -1, so the value changes at most once: one or two runs.
    """
    split = d - c % d if step > 0 else c % d + 1  # first x of the second run
    return [run for run in [(c // d, 0), (c // d + step, split)] if run[1] < d]


def first_section_twist(spec: SyzygySpec, lo: int, hi: int) -> int | None:
    """Least n in [lo, hi] with a nonzero degree-n module syzygy, or None.

    Eliminates nothing.  The twists with a section form a ray [n0, oo):
    Z is a non-zero-divisor on R = F_p[X, Y, Z]/(F), since no irreducible
    factor of F = X^d + Y^d + Z^d divides Z (F(X, Y, 0) = X^d + Y^d is not
    zero, also when p divides d), so multiplying by Z embeds the degree-n
    syzygies in the degree-(n + 1) ones.  The plane's S is a domain, and
    its effective degree hi + 1 agrees with S in every twist up to hi.  So
    the answer is max(lo, n0) when n0 <= hi, and n0 is the least twist of
    the Koszul family, a2 + a3, or of a residue family.  The families
    sharing (t, A, B) form a box of residues (i, j0, l0) -- t, A and B each
    take at most two values, each on an interval of residues -- and the
    box's least twist is its least base twist a1 + i + j0 + l0 plus d times
    its closed-form threshold N*(t, A, B) = max(0, m1 - t): at most eight
    boxes per call.  The A runs serve as the B runs when a2 == a3, as at
    every search level.
    """
    a1, a2, a3 = spec.exponents
    d, p = spec.d or max(hi, 0) + 1, spec.p
    n0 = a2 + a3  # least twist with a section found so far
    # A = (a2 - 1 - j0) // d + 1 = (a2 + d - 1 - j0) // d, and B likewise
    A_runs = _runs(a2 + d - 1, -1, d)
    B_runs = A_runs if a3 == a2 else _runs(a3 + d - 1, -1, d)
    for t, i in _runs(a1, 1, d):
        for A, j in A_runs:
            for B, l in B_runs:
                m1 = _syzygy_degrees(p, t, A, B)[0]
                n = a1 + i + j + l + d * (m1 - t) if m1 > t else a1 + i + j + l
                if n < n0:
                    n0 = n
    n = max(lo, n0)
    return n if n <= hi else None
