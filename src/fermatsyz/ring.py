"""Degree-wise model of R = F_p[X,Y,Z]/(X^d + Y^d + Z^d).

Each graded piece R_n gets a deterministic monomial basis (X-exponent < d,
exponent triples in ascending lexicographic order), which turns every
question about multiplication maps into exact linear algebra over F_p.

d = 0 is accepted as the ambient-plane sentinel: no relation, every
monomial is a basis monomial, and the Hilbert function is the full
binomial count.  That keeps one code path for the curve and for P^2.

The kernel and its batch check index R_m by ``basis_pos`` in closed form
and never build a basis.  ``basis_monomials`` inverts it at given
positions and names those monomials.  ``check_syzygies`` is one flat
pass over all three components: one ``searchsorted`` over a run table of
their X-exponent starts, one ``basis_pos`` over the runs, and one
broadcast per distinct t against the signed Lucas table of (t, p), which
``_lucas_table`` keeps as read-only arrays in a small LRU cache.
``basis(m)`` names every position, built afresh at each call; in
production only ``term_text(m)`` calls it, once per degree, and keeps
the texts as one read-only object array, which ``bundle`` indexes by
column to write a whole call's terms at once.  ``from_coords`` and
``multiplication_matrix`` serve the dense reference path.

The check path uses ``hilbert`` and ``normal_form`` alone, so numpy is
imported only inside the array methods (``basis``, ``basis_monomials``,
``from_coords``, ``check_syzygies``, ``multiplication_matrix`` and
``_lucas_table``), at a fraction of a microsecond per call once loaded.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import TYPE_CHECKING

from .field import PrimeField
from .poly import FermatRelation, GradedPoly, Monomial, lucas_terms, monomial_text, normal_form

if TYPE_CHECKING:
    from .linalg import MatrixModP


def _choose2(m: int) -> int:
    return m * (m - 1) // 2 if m >= 2 else 0


@lru_cache(maxsize=64)
def _lucas_table(t: int, p: int) -> tuple:
    """(v, (-1)^t C(t, v) mod p) over the v of ``poly.lucas_terms(t, p)``, as
    two read-only int64 arrays: the terms of X^(t d) = (-1)^t (Y^d + Z^d)^t."""
    import numpy as np

    table = np.array(list(lucas_terms(t, p)), dtype=np.int64).T.copy()
    if t % 2:
        table[1] = p - table[1]
    table.setflags(write=False)
    return table[0], table[1]


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
        try:
            d = operator.index(d)
        except TypeError:
            raise ValueError(f"degree d must be an integer, got {d!r}") from None
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
        import numpy as np

        return tuple(self.basis_monomials(np.arange(self.hilbert(n)), n))

    def term_text(self, n: int):
        """``poly.monomial_text`` of each monomial of ``basis(n)``, in basis
        order, as one read-only object array (empty for n < 0).

        Built on the first call for a degree and kept on the ring, so a
        caller can index it with a whole array of basis positions and add
        it to an object array of coefficient strings.  numpy is imported
        here, not at module level, so the check path never loads it.
        """
        cached = self._texts.get(n)
        if cached is None:
            import numpy as np

            cached = np.array(list(map(monomial_text, self.basis(n))), dtype=object)
            cached.setflags(write=False)
            self._texts[n] = cached
        return cached

    # -- normal form and multiplication ---------------------------------------

    def normal_form(self, f: GradedPoly) -> GradedPoly:
        if self.relation is None:
            return f
        return normal_form(f, self.relation)

    def from_coords(self, v, n: int) -> GradedPoly:
        import numpy as np

        basis = self.basis(n)
        v = np.asarray(v)
        nz = np.flatnonzero(v)
        terms = {basis[k]: c for k, c in zip(nz.tolist(), v[nz].tolist())}
        return GradedPoly(self.field, n, terms)

    def basis_monomials(self, positions, m: int) -> list:
        """The monomials of ``basis(m)`` at ``positions``, without building
        the basis: a search over the first position of each X-exponent."""
        import numpy as np

        pos = np.asarray(positions, dtype=np.int64)
        top = m if self.d == 0 else min(m, self.d - 1)
        starts = basis_pos(np.arange(top + 1), 0, m)
        i = np.searchsorted(starts, pos, side="right") - 1
        j = pos - starts[i]
        return [Monomial(x, y, m - x - y) for x, y in zip(i.tolist(), j.tolist())]

    def check_syzygies(self, kernel, n: int, exponents) -> None:
        """Raise ValueError unless every row of ``kernel`` is a degree-n syzygy.

        ``kernel`` is sparse triples (row count, rows, columns, values): the
        nonzero coordinates of each row's (s1, s2, s3) in the bases of
        R_(n - a_i), one after the other, sorted by (row, column) with no
        pair twice and values in [1, p), and every row has an entry: a
        zero row is a syzygy but no basis vector.  Input that breaks any of
        this is rejected, never summed.  One flat pass then checks
        s1 X^a1 + s2 Y^a2 + s3 Z^a3 = 0 in R_n for all rows.  Y^a2 and Z^a3
        move a basis monomial to a basis monomial; X^a1 does too once its
        X-exponent i + a1 = i' + t d is rewritten by X^d = -(Y^d + Z^d),

            (-1)^t sum_v C(t, v) X^i' Y^(j + v d) Z^(l + (t - v) d),

        summed over the v of ``poly.lucas_terms(t, p)`` only, the v with
        C(t, v) != 0 mod p.  One ``searchsorted`` over a run table, the
        first column of each (component, X-exponent) run, gives every
        entry its run.  basis_pos is linear in j, so within a run a column
        and its target differ by one shift, which one ``basis_pos`` over
        the runs gives with each run's t, and the term v of an s1 entry
        lands v d past its target.  s1 is expanded by one
        broadcast per distinct t, at most two since i < d (one on the
        plane), against the (t, p) table of ``_lucas_table``, which keeps
        the signed binomials as read-only arrays.  Each contribution is
        reduced mod p, so the running sum over the sorted terms, which
        must vanish mod p at the end of each coordinate's terms, stays
        below p times their count.

        The check shares no code with the kernel's construction in
        ``bundle`` (``_classes``, ``_band_guard``, ``_band``,
        ``_times_binomial``, ``_block_kernel``, and ``_block_entry`` with
        its block cache): its binomials come from ``poly.lucas_terms``, its
        monomials from its own run table, and it multiplies term by term
        instead of by the blocks' digit-by-digit products.
        """
        import numpy as np

        p = self.p
        d = self.d or n + 1  # the plane: no rewrite below degree n + 1
        degrees = [n - a for a in exponents]
        width = sum([self.hilbert(m) for m in degrees])
        count, rows, cols, values = kernel
        rows, cols, values = (np.asarray(x, dtype=np.int64) for x in (rows, cols, values))
        if rows.ndim != 1 or not rows.shape == cols.shape == values.shape:
            raise ValueError("rows, columns and values must be 1-d arrays of one length")
        if len(rows) and (
            rows.min() < 0 or rows.max() >= count or cols.min() < 0 or cols.max() >= width
        ):
            raise ValueError(f"an index lies outside the shape ({count}, {width})")
        if len(values) and (values.min() < 1 or values.max() >= p):
            raise ValueError(f"row entries must be nonzero residues in [1, {p})")
        step_r, step_c = rows[1:] - rows[:-1], cols[1:] - cols[:-1]
        if ((step_r < 0) | ((step_r == 0) & (step_c <= 0))).any():
            raise ValueError("(row, column) pairs must be sorted and unique")
        # sorted rows in [0, count) are all present iff they step count - 1 times
        present = np.count_nonzero(step_r) + 1 if len(rows) else 0
        if present != count:
            raise ValueError(f"{count - present} of {count} rows are empty (zero vectors)")
        if not count:
            return
        # the run table: the first column of each (component, X-exponent)
        # run in column order.  Run r = first + i of a component has
        # m - i + 1 = (m + 1 + first) - r columns, so the lengths are -r
        # shifted per component, summed in place
        a1, a2, _a3 = exponents
        c1, c2, c3 = (max(0, min(m + 1, d)) for m in degrees)
        starts = np.arange(1, -(c1 + c2 + c3), -1)  # starts[1 + r] = -r
        starts[0] = 0
        for m, first, c in zip(degrees, (0, c1, c1 + c2), (c1, c2, c3)):
            starts[1 + first : 1 + first + c] += m + 1 + first
        starts = starts.cumsum(out=starts)[:-1]
        # per run: the X-exponent i of its monomials, made i + a1 = i2 + t d
        # by X^a1 on s1 (t = 0 on s2 and s3), and the shift from a column of
        # the run to its target's basis_pos in R_n, where Y^a2 adds a2 to j
        i = np.arange(c1 + c2 + c3)
        i[:c1] += a1
        i[c1 : c1 + c2] -= c1
        i[c1 + c2 :] -= c1 + c2
        t, i2 = np.divmod(i, d)
        shift = basis_pos(i2, 0, n) - starts
        shift[c1 : c1 + c2] += a2
        # each entry's run gives its target and its t
        run = starts.searchsorted(cols, "right") - 1
        key = rows * self.hilbert(n) + cols + shift[run]
        t = t[run]
        ts = {0} if c2 or c3 else set()
        if c1:
            ts |= {a1 // d, (a1 + c1 - 1) // d}
        keys, terms = [], []
        for tt in ts:
            at = t == tt if len(ts) > 1 else slice(None)
            k, c = key[at], values[at]
            if tt and len(k):  # the Lucas terms of X^(i2 + t d), a row per entry
                v, b = _lucas_table(tt, p)
                k = (k[:, None] + v * d).ravel()
                c = (c[:, None] * b % p).ravel()
            keys.append(k)
            terms.append(c)
        # the sums per (row, target) all vanish mod p iff the running sum
        # over the sorted terms does at the end of each key
        key = np.concatenate(keys)
        order = key.argsort()
        key, total = key[order], np.concatenate(terms)[order].cumsum()
        if total[-1] % p or (total[:-1][key[1:] != key[:-1]] % p).any():
            raise ValueError("components do not satisfy the syzygy relation")

    def multiplication_matrix(self, g: GradedPoly, n: int) -> MatrixModP:
        """Matrix of (.g): R_n -> R_{n+deg g} in the monomial bases."""
        import numpy as np

        from .linalg import MatrixModP

        if g.field != self.field:
            raise ValueError("polynomial lives over a different field")
        top = n + g.degree
        m = np.zeros((self.hilbert(top), self.hilbert(n)), dtype=np.int64)
        for col, mono in enumerate(self.basis(n)):
            product = GradedPoly.monomial(self.field, 1, mono) * g
            for m2, c in self.normal_form(product).terms.items():
                m[basis_pos(m2.i, m2.j, top), col] = c
        return MatrixModP(m, self.p)
