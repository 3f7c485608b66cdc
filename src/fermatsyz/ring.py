"""Degree-wise model of R = F_p[X,Y,Z]/(X^d + Y^d + Z^d).

Each graded piece R_n gets a deterministic monomial basis (X-exponent < d,
exponent triples in ascending lexicographic order), which turns every
question about multiplication maps into exact linear algebra over F_p.

d = 0 is accepted as the ambient-plane sentinel: no relation, every
monomial is a basis monomial, and the Hilbert function is the full
binomial count.  That keeps one code path for the curve and for P^2.

The kernel and its batch check index R_m by ``basis_pos`` in closed form
and never build a basis.  Its one inverse, ``_basis_exponents``, gives
the exponents at given positions as arrays, and ``basis_monomials``
names those monomials.  ``basis(m)`` names every position, built afresh
at each call; in production only ``term_text(m)`` calls it, once per
degree, and keeps the texts.  ``from_coords`` and
``multiplication_matrix`` serve the dense reference path.
"""

from __future__ import annotations

import numpy as np

from .field import PrimeField
from .linalg import MatrixModP
from .poly import FermatRelation, GradedPoly, Monomial, lucas_terms, monomial_text, normal_form


def _choose2(m: int) -> int:
    return m * (m - 1) // 2 if m >= 2 else 0


def basis_pos(i, j, m):
    """Index of X^i Y^j Z^(m - i - j) in ``FermatRing.basis(m)`` (ints or arrays).

    Degree m has m - i + 1 basis monomials with X-exponent i, whatever d is.
    """
    return i * (m + 1) - i * (i - 1) // 2 + j


class FermatRing:
    """F_p[X,Y,Z]/(X^d+Y^d+Z^d), or the plain polynomial ring when d = 0."""

    __slots__ = ("field", "d", "relation", "_texts")

    def __init__(self, p: int, d: int):
        field = PrimeField(p)
        if d < 0:
            raise ValueError("degree d must be >= 0 (0 = no relation)")
        self.field = field
        self.d = d
        self.relation = FermatRelation(d, field) if d > 0 else None
        self._texts: dict = {}

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def smooth(self) -> bool:
        """The Fermat curve is smooth iff p does not divide d (P^2 always)."""
        return self.d == 0 or self.d % self.p != 0

    def __repr__(self):
        if self.d == 0:
            return f"F_{self.p}[X,Y,Z]"
        return f"F_{self.p}[X,Y,Z]/(X^{self.d}+Y^{self.d}+Z^{self.d})"

    # -- dimensions and bases ------------------------------------------------

    def hilbert(self, n: int) -> int:
        """dim R_n = C(n+2,2) - C(n-d+2,2) (second term absent for d = 0);
        0 for n < 0, where both binomials vanish."""
        full = _choose2(n + 2)
        if self.d == 0:
            return full
        return full - _choose2(n - self.d + 2)

    def basis(self, n: int) -> tuple:
        """Monomial basis of R_n: X-exponent < d, ascending lex on (i, j, l).

        It is ``basis_monomials`` of every position of R_n (none for n < 0).
        """
        return tuple(self.basis_monomials(np.arange(self.hilbert(n)), n))

    def term_text(self, n: int) -> tuple:
        """``poly.monomial_text`` of each monomial of ``basis(n)``."""
        cached = self._texts.get(n)
        if cached is None:
            cached = tuple(map(monomial_text, self.basis(n)))
            self._texts[n] = cached
        return cached

    # -- normal form and multiplication ---------------------------------------

    def normal_form(self, f: GradedPoly) -> GradedPoly:
        if self.relation is None:
            return f
        return normal_form(f, self.relation)

    def from_coords(self, v, n: int) -> GradedPoly:
        basis = self.basis(n)
        v = np.asarray(v)
        nz = np.flatnonzero(v)
        terms = {basis[k]: c for k, c in zip(nz.tolist(), v[nz].tolist())}
        return GradedPoly(self.field, n, terms)

    def basis_monomials(self, positions, m: int) -> list:
        """The monomials of ``basis(m)`` at ``positions``, without building
        the basis: ``_basis_exponents`` names them."""
        i, j = self._basis_exponents(np.asarray(positions, dtype=np.int64), m)
        return [Monomial(x, y, m - x - y) for x, y in zip(i.tolist(), j.tolist())]

    def _basis_exponents(self, pos: np.ndarray, m: int) -> tuple:
        """(i, j) arrays of the basis monomials of R_m at positions ``pos``."""
        top = m if self.d == 0 else min(m, self.d - 1)
        starts = basis_pos(np.arange(top + 1), 0, m)
        i = np.searchsorted(starts, pos, side="right") - 1
        return i, pos - starts[i]

    def check_syzygies(self, kernel, n: int, exponents) -> None:
        """Raise ValueError unless every row of ``kernel`` is a degree-n syzygy.

        ``kernel`` is sparse triples (row count, rows, columns, values): the
        nonzero coordinates of each row's (s1, s2, s3) in the bases of
        R_(n - a_i), one after the other, sorted by (row, column) with no
        pair twice and values in [1, p), and every row has an entry: a
        zero row is a syzygy but no basis vector.  Input that breaks any of
        this is rejected, never summed.  One vectorized pass checks
        s1 X^a1 + s2 Y^a2 + s3 Z^a3 = 0 in R_n for all rows.  Y^a2 and Z^a3
        move a basis monomial to a basis monomial; X^a1 does too once its
        X-exponent i + a1 = i' + t d is rewritten by X^d = -(Y^d + Z^d),

            (-1)^t sum_v C(t, v) X^i' Y^(j + v d) Z^(l + (t - v) d),

        summed over the v of ``poly.lucas_terms(t, p)`` only, the v with
        C(t, v) != 0 mod p; one table of them serves every s1 entry of its t.
        Each contribution is reduced mod p, and a coordinate of R_n gets at
        most one per expansion term, so no int64 sum passes p times their
        count.

        The check shares no code with the kernel's construction in
        ``bundle`` (``_classes``, ``_kernel_classes``, ``_band``,
        ``_binom_row``, ``_block_kernel``, and ``_block_entry`` with its
        block cache): its binomials come from
        ``poly.lucas_terms``, its monomials from ``_basis_exponents``, and it
        multiplies term by term instead of by the blocks' outer products.
        """
        p = self.p
        d = self.d or n + 1  # the plane: no rewrite below degree n + 1
        degrees = [n - a for a in exponents]
        widths = [self.hilbert(m) for m in degrees]
        count, rows, cols, values = kernel
        rows, cols, values = (np.asarray(x, dtype=np.int64) for x in (rows, cols, values))
        if rows.ndim != 1 or not rows.shape == cols.shape == values.shape:
            raise ValueError("rows, columns and values must be 1-d arrays of one length")
        if len(rows) and (
            rows.min() < 0 or rows.max() >= count or cols.min() < 0 or cols.max() >= sum(widths)
        ):
            raise ValueError(f"an index lies outside the shape ({count}, {sum(widths)})")
        if len(values) and (values.min() < 1 or values.max() >= p):
            raise ValueError(f"row entries must be nonzero residues in [1, {p})")
        step_r, step_c = np.diff(rows), np.diff(cols)
        if np.any((step_r < 0) | ((step_r == 0) & (step_c <= 0))):
            raise ValueError("(row, column) pairs must be sorted and unique")
        # sorted rows in [0, count) are all present iff they step count - 1 times
        present = np.count_nonzero(step_r) + 1 if len(rows) else 0
        if present != count:
            raise ValueError(f"{count - present} of {count} rows are empty (zero vectors)")
        rs, targets, terms = [], [], []
        start = 0
        for var, (a, m, width) in enumerate(zip(exponents, degrees, widths)):
            mask = (cols >= start) & (cols < start + width)
            r, pos, c = rows[mask], cols[mask] - start, values[mask]
            start += width
            i, j = self._basis_exponents(pos, m)
            if var == 0:
                t, i2 = np.divmod(i + a, d)
                k, v, b = np.zeros((3, 0), dtype=np.int64)
                for tt in np.unique(t).tolist():  # one Lucas table per distinct t
                    at = np.flatnonzero(t == tt)
                    vt, bt = np.array(list(lucas_terms(tt, p)), dtype=np.int64).T
                    k = np.concatenate([k, np.repeat(at, len(vt))])  # term -> its entry
                    v = np.concatenate([v, np.tile(vt, len(at))])
                    b = np.concatenate([b, np.tile(p - bt if tt % 2 else bt, len(at))])  # (-1)^t
                r, c = r[k], c[k] * b % p
                pos = basis_pos(i2[k], j[k] + v * d, n)
            else:
                pos = basis_pos(i, j + a if var == 1 else j, n)
            rs.append(r)
            targets.append(pos)
            terms.append(c)
        key = np.concatenate(rs) * self.hilbert(n) + np.concatenate(targets)
        order = np.argsort(key)
        key, value = key[order], np.concatenate(terms)[order]
        firsts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        if len(key) and np.any(np.add.reduceat(value, firsts) % p):
            raise ValueError("components do not satisfy the syzygy relation")

    def multiplication_matrix(self, g: GradedPoly, n: int) -> MatrixModP:
        """Matrix of (.g): R_n -> R_{n+deg g} in the monomial bases."""
        if g.field != self.field:
            raise ValueError("polynomial lives over a different field")
        top = n + g.degree
        m = np.zeros((self.hilbert(top), self.hilbert(n)), dtype=np.int64)
        for col, mono in enumerate(self.basis(n)):
            product = GradedPoly.monomial(self.field, 1, mono) * g
            for m2, c in self.normal_form(product).terms.items():
                m[basis_pos(m2.i, m2.j, top), col] = c
        return MatrixModP(m, self.p)
