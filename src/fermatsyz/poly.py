"""Homogeneous trivariate polynomials over F_p in sparse monomial form.

The central nonstandard operation is ``normal_form``: the canonical
representative modulo the Fermat relation X^d + Y^d + Z^d, obtained by
rewriting X^d -> -(Y^d + Z^d) until every X-exponent is below d.  The
rewrite is applied in closed form,

    X^i = X^(i mod d) * (X^d)^t  ==  (-1)^t * X^(i mod d) * (Y^d + Z^d)^t,

with (Y^d + Z^d)^t expanded mod p by Lucas' theorem, one base-p digit r
of t at a time: each digit multiplies by (Y^(d p^k) + Z^(d p^k))^r, whose
``digit_row(r, p)`` has r + 1 nonzero binomials, so at a Frobenius
exponent t = p^e the rewrite has two terms, not t + 1.  ``normal_form``
multiplies whole groups of terms digit by digit, adding groups as their
remaining digits meet so that terms cancel early, and refuses, before
multiplying, a polynomial that would take more than
``NORMAL_FORM_BUDGET`` steps.  ``lucas_terms`` lists the nonzero
binomials of one t from the same rows; ``FermatRing.check_syzygies``
expands X^i from it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import BlockTooLargeError, ExponentOverflowError
# binom_uint is not called here; perfbench/probes.py wraps poly.binom_uint
from .field import PrimeField, binom_uint

# Exponents are kept strictly below 2^62 so sums of two of them, and the
# int64 matrix arithmetic downstream, can never overflow.
EXP_LIMIT = 2**62


def scaled_power(p: int, e: int, a: int = 1) -> int:
    """a p^e for a prime p, refused unless it is below EXP_LIMIT.

    The one range check of a Frobenius level.  p >= 2, so p^e >= 2^e and an
    e of 62 or more is refused without forming the power.
    """
    if e < 0:
        raise ValueError("Frobenius level e must be >= 0")
    aq = a * p**e if e < 62 else EXP_LIMIT
    if aq >= EXP_LIMIT:
        raise ExponentOverflowError(
            f"a p^e = {a}*{p}^{e} leaves the 64-bit range; use smaller inputs"
        )
    return aq


class Monomial(NamedTuple):
    """Exponent triple (i, j, l) for X^i Y^j Z^l."""

    i: int
    j: int
    l: int

    @property
    def degree(self) -> int:
        return self.i + self.j + self.l

    def mul(self, other: "Monomial") -> "Monomial":
        return make_monomial(self.i + other.i, self.j + other.j, self.l + other.l)


def make_monomial(i: int, j: int, l: int) -> Monomial:
    if i < 0 or j < 0 or l < 0:
        raise ValueError(f"negative exponent in monomial ({i}, {j}, {l})")
    if i + j + l >= EXP_LIMIT:
        raise ExponentOverflowError(f"monomial degree {i + j + l} exceeds 2^62")
    return Monomial(i, j, l)


@dataclass(frozen=True)
class FermatRelation:
    """The relation X^d + Y^d + Z^d = 0 over F_p."""

    d: int
    field: PrimeField

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("curve degree d must be >= 1")

    def poly(self) -> "GradedPoly":
        one = 1 % self.field.p
        terms = {}
        for mono in (Monomial(self.d, 0, 0), Monomial(0, self.d, 0), Monomial(0, 0, self.d)):
            terms[mono] = one
        return GradedPoly(self.field, self.d, terms)


class GradedPoly:
    """Homogeneous polynomial: a map monomial -> nonzero residue mod p.

    The declared degree is kept even for the zero polynomial, so graded
    bookkeeping (e.g. syzygy components that happen to vanish) stays exact.
    """

    __slots__ = ("field", "degree", "terms")

    def __init__(self, field: PrimeField, degree: int, terms: dict):
        p = field.p
        clean = {}
        for mono, c in terms.items():
            c %= p
            if c == 0:
                continue
            if not isinstance(mono, Monomial):
                mono = make_monomial(*mono)
            if mono.degree != degree:
                raise ValueError(
                    f"monomial {tuple(mono)} has degree {mono.degree}, expected {degree}"
                )
            clean[mono] = c
        self.field = field
        self.degree = degree
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, field: PrimeField, degree: int, terms: dict) -> "GradedPoly":
        """Wrap ``terms`` unchecked: callers pass Monomial keys of degree
        ``degree`` and nonzero residues mod p, as ``__init__`` would keep.
        """
        f = cls.__new__(cls)
        f.field = field
        f.degree = degree
        f.terms = terms
        return f

    @classmethod
    def zero(cls, field: PrimeField, degree: int = 0) -> "GradedPoly":
        return cls(field, degree, {})

    @classmethod
    def monomial(cls, field: PrimeField, coeff: int, exponents) -> "GradedPoly":
        mono = make_monomial(*exponents)
        return cls(field, mono.degree, {mono: coeff % field.p})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list:
        return sorted(self.terms.items())

    def __eq__(self, other):
        # zero polynomials of different declared degree compare equal
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def __repr__(self):
        return f"GradedPoly({self.to_string()!r} over F_{self.field.p})"

    # -- arithmetic --------------------------------------------------------

    def _check_field(self, other: "GradedPoly"):
        if self.field != other.field:
            raise ValueError("operands live over different prime fields")

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        self._check_field(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add homogeneous polynomials of different degrees")
        p = self.field.p
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            nc = (terms.get(mono, 0) + c) % p
            if nc:
                terms[mono] = nc
            else:
                terms.pop(mono, None)
        return GradedPoly(self.field, self.degree, terms)

    def __mul__(self, other: "GradedPoly") -> "GradedPoly":
        self._check_field(other)
        p = self.field.p
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = m1.mul(m2)
                nc = (out.get(mono, 0) + c1 * c2) % p
                if nc:
                    out[mono] = nc
                else:
                    out.pop(mono, None)
        return GradedPoly(self.field, self.degree + other.degree, out)

    # -- serialization -----------------------------------------------------

    def to_string(self) -> str:
        return join_terms(term_texts((c, monomial_text(m)) for m, c in self.sorted_terms()))


def monomial_text(m: Monomial) -> str:
    """``*X^i*Y^j*Z^l``: ``m`` as ``GradedPoly.to_string`` writes it after a coefficient."""
    return f"*X^{m.i}*Y^{m.j}*Z^{m.l}"


def term_texts(terms) -> list:
    """Each (coefficient, ``monomial_text``) pair of ``terms`` as
    ``GradedPoly.to_string`` writes the term."""
    return [f"{c}{text}" for c, text in terms]


def join_terms(texts: list) -> str:
    """``GradedPoly.to_string`` of a polynomial from its ``term_texts`` in
    ``Monomial`` order; ``0`` if there are none."""
    return join_rows(texts, (0, len(texts)))[0]


def join_rows(texts: list, cuts) -> list:
    """``join_terms`` of each slice texts[cuts[k]:cuts[k + 1]], in one pass."""
    return [" + ".join(texts[lo:hi]) or "0" for lo, hi in zip(cuts, cuts[1:])]


_TERM_RE = re.compile(r"^(\d+)\*X\^(\d+)\*Y\^(\d+)\*Z\^(\d+)$")


def parse_poly(text: str, field: PrimeField, degree: int | None = None) -> GradedPoly:
    """Parse the `coeff*X^i*Y^j*Z^l + ...` format emitted by to_string."""
    text = text.strip()
    if text == "0":
        return GradedPoly.zero(field, 0 if degree is None else degree)
    terms: dict = {}
    for chunk in text.split("+"):
        m = _TERM_RE.match(chunk.strip())
        if m is None:
            raise ValueError(f"malformed polynomial term: {chunk.strip()!r}")
        c, i, j, l = (int(g) for g in m.groups())
        mono = make_monomial(i, j, l)
        terms[mono] = (terms.get(mono, 0) + c) % field.p
    degrees = {mono.degree for mono in terms}
    if len(degrees) != 1:
        raise ValueError("polynomial text is not homogeneous")
    deg = degrees.pop()
    if degree is not None and deg != degree:
        raise ValueError(f"polynomial has degree {deg}, expected {degree}")
    return GradedPoly(field, deg, terms)


# -- the operations backing the syzygy computations -------------------------


def frobenius_power(f: GradedPoly, e: int) -> GradedPoly:
    """f^(p^e), computed by scaling exponents and powering coefficients.

    In characteristic p this is the e-fold Frobenius, so cross terms vanish
    and no expansion is required.
    """
    p = f.field.p
    q = scaled_power(p, e)
    degree = scaled_power(p, e, f.degree)  # bounds every exponent of the result
    terms = {
        make_monomial(m.i * q, m.j * q, m.l * q): pow(c, q, p) for m, c in f.terms.items()
    }
    return GradedPoly(f.field, degree, terms)


def digit_row(r: int, p: int) -> list:
    """[C(r, 0), ..., C(r, r)] mod p for a base-p digit r < p: the
    coefficients of (1 + x)^r, every one nonzero mod p."""
    row = [1]
    for k in range(r):  # C(r, k + 1) = C(r, k) (r - k) / (k + 1), k + 1 < p
        row.append(row[-1] * (r - k) * pow(k + 1, -1, p) % p)
    return row


def lucas_terms(t: int, p: int) -> Iterable[tuple]:
    """Yield (v, C(t, v) mod p) for every v with C(t, v) != 0 mod p, v increasing.

    Lucas' theorem as a recursion on t = p t' + r: (1 + x)^t = (1 + x^p)^t'
    (1 + x)^r mod p, so v = p v' + k over the terms v' of t' and k <= r, with
    C(t, v) = C(t', v') C(r, k).  The work follows the number of terms, the
    product of (r + 1) over the base-p digits r of t, not t, and no list of
    them is kept; a t below 2^62 recurses at most 62 deep.
    """
    if t == 0:
        yield 0, 1
        return
    high, r = divmod(t, p)
    row = digit_row(r, p)
    for v, c in lucas_terms(high, p):
        for k, b in enumerate(row):
            yield v * p + k, c * b % p


# The most steps ``normal_form`` takes for one polynomial, a step being one
# term times one entry of a digit's row, as its pre-pass bounds them before
# anything is multiplied.  The (13, 23, 1, 5) certificate, the deepest the
# band guard lets the search build, needs at most 179,150 and verifies in
# 0.07 s.  The slowest polynomials measured at the budget (2-core x86 VM):
# one term X^(t d) over F_p, p = 2^31 - 1, t = 2^20 - 1, whose one digit
# spreads into 2^20 terms that never cancel, 3.6-5.3 s and 397 MB max RSS;
# 2^19 one-term groups with t = 1, 4.2-6.1 s and 754 MB, 208 MB of it the
# input.
NORMAL_FORM_BUDGET = 2**20


def normal_form(f: GradedPoly, rel: FermatRelation) -> GradedPoly:
    """Canonical representative of f mod (X^d + Y^d + Z^d): X-exponents < d.

    On the curve X^(i + t d) = (-1)^t X^i (Y^d + Z^d)^t, so a term
    X^(i + t d) Y^(j + alpha d) Z^l with i, j < d is X^i Y^j Z^(D - i - j)
    times (-1)^t x^alpha (1 + x)^t in x = Y^d / Z^d, D = deg f.  Terms are
    grouped by (i, j, t) into one polynomial in x each, and (1 + x)^t is
    applied digit by digit, (1 + x)^t = prod_k (1 + x^(p^k))^(t_k) mod p
    (Lucas), lowest digit first.  Each digit's products go straight into
    the group of the remaining t // p^(k + 1), so groups whose remaining
    digits agree are added together and their terms cancel as soon as
    their futures coincide.  Coefficients are kept reduced mod p, and one
    that has cancelled to 0 is skipped.  A pre-pass bounds the steps (a
    term times one entry of a digit's row) from each group's support, span
    and digits; above ``NORMAL_FORM_BUDGET`` it raises
    ``BlockTooLargeError`` before anything is multiplied.
    """
    if f.field != rel.field:
        raise ValueError("polynomial and relation live over different fields")
    p, d = f.field.p, rel.d
    pending: dict = {}  # (i, j, t left) -> {exponent of x: coefficient}
    done: dict = {}  # (i, j) -> {exponent of x: coefficient}, every digit applied
    for mono, c in f.terms.items():
        t, i = divmod(mono.i, d)
        alpha, j = divmod(mono.j, d)
        pending.setdefault((i, j, t), {})[alpha] = p - c if t % 2 else c
    steps = 0
    for (_, _, t), poly in pending.items():
        # a product's support is at most the old one times r + 1, and at
        # most its span plus one; adding groups only unites supports
        size, span, scale = len(poly), max(poly) - min(poly), 1
        while t:
            t, r = divmod(t, p)
            steps += size * (r + 1)
            span += r * scale
            size = min(size * (r + 1), span + 1)
            scale *= p
    if steps > NORMAL_FORM_BUDGET:
        raise BlockTooLargeError(
            f"normal form needs up to {steps:,} steps, above the budget of {NORMAL_FORM_BUDGET:,}"
        )
    scale = 1
    while pending:
        groups, pending = pending, {}
        for (i, j, t), poly in groups.items():
            t, r = divmod(t, p)
            row = digit_row(r, p)
            into = pending.setdefault((i, j, t), {}) if t else done.setdefault((i, j), {})
            for w, c in poly.items():
                if c:
                    for k, b in enumerate(row):
                        into[w + k * scale] = (into.get(w + k * scale, 0) + c * b) % p
        scale *= p
    out = {}
    for (i, j), poly in done.items():
        for w, c in poly.items():
            if c:
                out[Monomial(i, j + w * d, f.degree - i - j - w * d)] = c
    return GradedPoly._trusted(f.field, f.degree, out)
