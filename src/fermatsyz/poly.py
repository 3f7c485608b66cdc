"""Homogeneous trivariate polynomials over F_p in sparse monomial form.

The central nonstandard operation is ``normal_form``: the canonical
representative modulo the Fermat relation X^d + Y^d + Z^d, obtained by
rewriting X^d -> -(Y^d + Z^d) until every X-exponent is below d.  The
rewrite is applied in closed form per monomial,

    X^i = X^(i mod d) * (X^d)^t  ==  (-1)^t * X^(i mod d) * (Y^d + Z^d)^t,

with the binomial expansion of (Y^d + Z^d)^t taken mod p by Lucas'
theorem: ``lucas_terms`` lists only the v with C(t, v) != 0 mod p, the
product of (r + 1) over the base-p digits r of t (``lucas_count``), so at
a Frobenius exponent t = p^e the rewrite has two terms, not t + 1.
``FermatRing.check_syzygies`` expands X^i from the same ``lucas_terms``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import ExponentOverflowError
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


def lucas_count(t: int, p: int) -> int:
    """len(lucas_terms(t, p)): the product of (r + 1) over the base-p digits r of t."""
    count = 1
    while t:
        t, r = divmod(t, p)
        count *= r + 1
    return count


def lucas_terms(t: int, p: int) -> Iterable[tuple]:
    """Yield (v, C(t, v) mod p) for every v with C(t, v) != 0 mod p, v increasing.

    Lucas' theorem as a recursion on t = p t' + r: (1 + x)^t = (1 + x^p)^t'
    (1 + x)^r mod p, so v = p v' + k over the terms v' of t' and k <= r, with
    C(t, v) = C(t', v') C(r, k).  The work follows the number of terms,
    ``lucas_count(t, p)``, not t, and no list of them is kept; a t below
    2^62 recurses at most 62 deep.
    """
    if t == 0:
        yield 0, 1
        return
    high, r = divmod(t, p)
    row = [1]
    for k in range(r):  # C(r, k + 1) = C(r, k) (r - k) / (k + 1), k + 1 < p
        row.append(row[-1] * (r - k) * pow(k + 1, -1, p) % p)
    for v, c in lucas_terms(high, p):
        for k, b in enumerate(row):
            yield v * p + k, c * b % p


def reduce_monomial(mono: Monomial, coeff: int, d: int, p: int) -> Iterable[tuple]:
    """Yield the normal-form terms of coeff * X^i Y^j Z^l modulo X^d + Y^d + Z^d."""
    t, i2 = divmod(mono.i, d)
    if t == 0:
        yield mono, coeff
        return
    sign = p - 1 if t % 2 else 1
    base = coeff * sign % p
    for v, b in lucas_terms(t, p):  # base and b are nonzero mod the prime p
        yield Monomial(i2, mono.j + v * d, mono.l + (t - v) * d), base * b % p


def expansion_terms(f: GradedPoly, rel: FermatRelation) -> int:
    """How many terms ``normal_form(f, rel)`` adds up, counted without expanding
    any: ``reduce_monomial`` yields ``lucas_count(i // d, p)`` per monomial."""
    return sum(lucas_count(m.i // rel.d, f.field.p) for m in f.terms)


def normal_form(f: GradedPoly, rel: FermatRelation) -> GradedPoly:
    """Canonical representative of f mod (X^d + Y^d + Z^d): X-exponents < d."""
    if f.field != rel.field:
        raise ValueError("polynomial and relation live over different fields")
    p = f.field.p
    out: dict = {}
    for mono, c in f.terms.items():
        for m2, c2 in reduce_monomial(mono, c, rel.d, p):
            nc = (out.get(m2, 0) + c2) % p
            if nc:
                out[m2] = nc
            else:
                out.pop(m2, None)
    return GradedPoly(f.field, f.degree, out)
