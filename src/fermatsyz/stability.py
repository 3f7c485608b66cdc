"""Destabilization certificates for Frobenius pullbacks of syzygy bundles.

The engine behind three user-facing operations:

* ``certify_destabilization`` builds the explicit witness: for aq < dp <
  3aq/2 (q = p^e) the triple (X^k, Y^k, Z^k) with k = dp - aq is a
  syzygy of (X^aq, Y^aq, Z^aq) on the Fermat curve of degree d, because
  X^dp + Y^dp + Z^dp is the p-th power of the curve equation; the twisted
  bundle then has a nonzero section but negative degree, so its pullback
  of Syz(X^a, Y^a, Z^a) is not semistable.
* ``search_destabilization`` is the bounded semidecision: for Frobenius
  levels e = 0..e_max find the least twist n in the window where a
  section forces negative degree, from the closed-form residue-family
  thresholds of ``bundle.first_section_twist``; report the first hit or
  "nothing found" (which never asserts strong semistability).
* ``deviation_lower_bound`` evaluates the exact normalized slope gap and
  its closed-form lower bound a^2 p^(e-1) - 2a for the degree choice
  d = a p^(e-1) + 1.

Certificates are self-contained: ``verify_certificate`` re-checks every
stored quantity against every other by exact arithmetic, so a single
corrupted field is always caught.

All three read the window aq < n < 3aq/2 from ``destabilizing_twists``.
A certificate stores only what defines it, (p, a, d, e, twist, section);
q, k, its degree and its normalized gap are derived from those.

Every bundle here is ``SyzygySpec(p, d, (a, a, a)).frobenius_pullback(e)``,
and every level's a p^e is formed by ``poly.scaled_power``, which raises
``ExponentOverflowError`` unless it is below ``EXP_LIMIT`` = 2^62.
``verify_certificate`` reports an out-of-range certificate as a failure
before it builds the bundle.

Imports: ``certify_destabilization``, ``verify_certificate``,
``find_parameters`` and ``deviation_lower_bound`` need only ``syzygy``,
``ring``, ``poly`` and ``field``, and never load numpy.
The first ``search_destabilization`` binds ``bundle``'s
``first_section_twist`` and ``first_section`` here, which loads numpy.
``has_section`` and ``section_space`` resolve from ``bundle`` on first
access through the module ``__getattr__``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BlockTooLargeError,
    ExponentOverflowError,
    InapplicableError,
    InternalCheckError,
    SmoothnessError,
)
from .field import MAX_PRIME, PrimeField, check_prime, is_prime
from .poly import EXP_LIMIT, GradedPoly, parse_poly, scaled_power
from .syzygy import SectionVector, SyzygySpec

SCHEMA_VERSION = 1

first_section = first_section_twist = None  # from bundle, bound by the first search


def __getattr__(name):
    """``has_section`` and ``section_space`` of ``bundle``, imported on first
    access.  Neither is called here (the search builds only the row it
    certifies), but perfbench/probes.py wraps both on this module."""
    if name in ("has_section", "section_space"):
        from . import bundle

        return getattr(bundle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def destabilizing_twists(aq: int) -> range:
    """The twists n with aq < n < 3aq/2, in increasing order.

    A nonzero section of the pullback of Syz(X^a, Y^a, Z^a) twisted by such
    an n embeds O_C, of slope 0, into a bundle of degree (2n - 3aq) d < 0.
    """
    return range(aq + 1, (3 * aq + 1) // 2)


@dataclass(frozen=True)
class ParameterChoice:
    """Admissible parameters (p, a, d0, e, d): a p^(e-1) >= d0, p does not
    divide d, and a p^(e-1) < d < 3 a p^(e-1) / 2, that is, m = dp lies in
    ``destabilizing_twists(aq)`` for q = p^e.  m is the certificate's twist
    and k = m - aq the degree of its section (X^k, Y^k, Z^k).
    """

    p: int
    a: int
    d0: int
    e: int
    d: int

    def __post_init__(self):
        aq = self.a * self.q
        if aq < self.d0 * self.p or self.m not in destabilizing_twists(aq):
            raise InapplicableError("parameter window violated")
        if self.d % self.p == 0:
            raise SmoothnessError("d must not be a multiple of p")

    @property
    def q(self) -> int:
        return self.p**self.e

    @property
    def m(self) -> int:
        return self.d * self.p

    @property
    def k(self) -> int:
        return self.m - self.a * self.q


def find_parameters(p: int, a: int, d0: int) -> ParameterChoice:
    """Smallest e with a p^(e-1) >= d0 and a nonempty window, then smallest
    admissible d (this is d = a p^(e-1) + 1 whenever p does not divide it)."""
    check_prime(p)
    if a < 1 or d0 < 1:
        raise InapplicableError("need a >= 1 and d0 >= 1")
    e = 1
    while True:
        scaled_power(p, e)  # raises once p^e leaves the range
        low = a * p ** (e - 1)
        if low >= d0:
            for d in destabilizing_twists(low):
                if d % p != 0:
                    return ParameterChoice(p, a, d0, e, d)
        e += 1


@dataclass(frozen=True)
class DestabCertificate:
    """Machine-checkable witness that F^(e*) Syz(X^a, Y^a, Z^a)|C is unstable.

    Defined by (p, a, d, e, twist, section): a nonzero section of the
    pullback twisted by a twist in ``destabilizing_twists(aq)``, q = p^e.
    The section embeds O_C, of slope 0, into a bundle of negative
    ``degree`` (2 twist - 3aq) d; its components have degree ``k`` =
    twist - aq.  ``normalized_gap`` = -degree/q is the twist-invariant
    (mu_max - mu_min)/q of the HN filtration when the section is nowhere
    vanishing (the Proposition-style certificates), and a destabilization
    measure otherwise.
    """

    p: int
    a: int
    d: int
    e: int
    twist: int
    section: SectionVector

    def __post_init__(self):
        if self.section.is_zero():
            raise InternalCheckError("certificate section is zero")
        aq = self.a * self.q
        if self.twist not in destabilizing_twists(aq):
            raise InternalCheckError(f"twist {self.twist} is outside the window of aq = {aq}")
        if self.degree >= 0:  # the plane, d = 0
            raise InternalCheckError("certificate bundle degree is not negative")
        spec, twist = self.section.spec, self.section.twist
        if (spec.p, spec.d, spec.exponents, twist) != (self.p, self.d, (aq, aq, aq), self.twist):
            raise InternalCheckError(f"certificate section lies in twist {twist} of {spec}")

    @property
    def q(self) -> int:
        return self.p**self.e

    @property
    def k(self) -> int:
        return self.twist - self.a * self.q

    @property
    def degree(self) -> int:
        return (2 * self.twist - 3 * self.a * self.q) * self.d

    @property
    def normalized_gap(self) -> Fraction:
        return Fraction(-self.degree, self.q)

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "p": self.p,
            "a": self.a,
            "d": self.d,
            "e": self.e,
            "q": self.q,
            "k": self.k,
            "twist": self.twist,
            "section": self.section.serialize(),
            "degree": self.degree,
            "slope_sub": 0,
            "slope_quotient": self.degree,
            "normalized_gap": format_fraction(self.normalized_gap),
            "smooth": True,
            "inconclusive": False,
        }


def format_fraction(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def certify_destabilization(p: int, a: int, d: int) -> DestabCertificate:
    """Proposition-style certificate for given (p, a, d); p must not divide d.

    Finds the unique Frobenius level e >= 1 with aq < dp < 3aq/2 (the
    interval spans a factor 3/2 < p, so at most one power of p fits),
    builds the section (X^k, Y^k, Z^k) and verifies the syzygy identity by
    exact normal-form computation, once, in the ``SectionVector`` constructor.
    """
    check_prime(p)
    if a < 1 or d < 1:
        raise InapplicableError("need a >= 1 and d >= 1")
    if d % p == 0:
        raise SmoothnessError(f"p = {p} divides d = {d}: curve not smooth")
    dp = d * p
    e = 1
    while True:
        q = scaled_power(p, e)
        aq = a * q
        if aq >= dp:
            raise InapplicableError(
                f"construction inapplicable for (p={p}, a={a}, d={d}): "
                f"no level e with aq < dp < 3aq/2"
            )
        if dp in destabilizing_twists(aq):
            break
        e += 1
    k = dp - aq
    spec = SyzygySpec(p, d, (a, a, a)).frobenius_pullback(e)
    field = PrimeField(p)
    # the constructor normal-forms X^k X^aq + Y^k Y^aq + Z^k Z^aq =
    # X^dp + Y^dp + Z^dp = (X^d + Y^d + Z^d)^p, the identity behind the
    # section; X^dp = (X^d)^p has t = p, base-p digits 0 and 1, so the check
    # takes three steps of ``poly.NORMAL_FORM_BUDGET`` at any p
    section = SectionVector(
        spec,
        dp,
        tuple(
            GradedPoly.monomial(field, 1, tuple(k if v == i else 0 for v in range(3)))
            for i in range(3)
        ),
    )
    return DestabCertificate(p, a, d, e, dp, section)


def search_destabilization(p: int, d: int, a: int, e_max: int) -> DestabCertificate | None:
    """Bounded semidecision: smallest (e, n) with a destabilizing section.

    For each level e = 0..e_max looks for sections at the twists
    ``destabilizing_twists(aq)`` (q = p^e), exactly the degrees where a
    nonzero section forces negative bundle degree.  Returns None when no
    certificate exists within bounds -- which proves nothing about strong
    semistability.

    On a curve the sections outside the Koszul family split into residue
    families (i, j0, l0) in [0, d)^3, one block per family and twist.  A
    family's block kernel at level N is the degree-N part of
    {f : f (u + w)^t in (u^A, w^B)} with u = Y^d, w = Z^d, and since u f
    stays in that set, a family that has a kernel at N has one at every
    larger N, from its threshold N*(t, A, B) on, which Han's syzygy gap
    delta_p(t, A, B) gives in closed form, once per distinct (t, A, B), at
    most eight times per level.  The twists with a section form a ray,
    since multiplying by Z, a non-zero-divisor on the Fermat ring, embeds
    each twist's syzygies in the next one's: the first in-window twist
    with a section is max(lo, n0), n0 the least twist of the Koszul
    family or of any family at its threshold (see the ``bundle`` module
    docstring and ``bundle.first_section_twist``).  No level is
    eliminated; the only elimination is the certificate's section,
    ``bundle.first_section`` at the twist found: the first vector of
    ``section_space``, the only row built (from the blocks of the least
    X-exponent that has a kernel, without the rest of the basis), checked
    by the ``SectionVector`` constructor.  The plane
    (d = 0) runs the same search; a section found there would give a
    certificate of degree 0, which ``DestabCertificate`` rejects.

    Raises ``ExponentOverflowError`` on reaching the first level whose
    exponent a p^e is not below ``EXP_LIMIT``: ``frobenius_pullback``
    range-checks every level.
    """
    global first_section, first_section_twist
    check_prime(p)
    if a < 1 or e_max < 0 or d < 0:
        raise InapplicableError("need a >= 1, d >= 0, e_max >= 0")
    base = SyzygySpec(p, d, (a, a, a))
    if not base.smooth:
        raise SmoothnessError(f"p = {p} divides d = {d}: curve not smooth")
    if first_section is None:  # the construction, and numpy with it
        from .bundle import first_section, first_section_twist
    for e in range(e_max + 1):
        spec = base.frobenius_pullback(e)
        window = destabilizing_twists(spec.exponents[0])  # the exponents are (aq, aq, aq)
        n = first_section_twist(spec, window.start, window.stop - 1)
        if n is not None:
            return DestabCertificate(p, a, d, e, n, first_section(spec, n))
    return None


@dataclass(frozen=True)
class HNData:
    """Rank-2 Harder-Narasimhan data of a Proposition-style certificate:
    sub sheaf O_C (slope 0), quotient O_C(2dp - 3aq) (slope (2dp-3aq) d)."""

    sub_slope: int
    quotient_slope: int
    normalized_gap: Fraction


def hn_data(cert: DestabCertificate) -> HNData:
    """HN bookkeeping for a certificate whose section is (X^k, Y^k, Z^k).

    Such a section is nowhere zero on the curve, so O_C is a subbundle and
    the quotient is the line bundle O_C(2 twist - 3aq); degree additivity
    is checked exactly and must never fail.
    """
    expected = [
        GradedPoly.monomial(PrimeField(cert.p), 1, tuple(cert.k if v == i else 0 for v in range(3)))
        for i in range(3)
    ]
    if list(cert.section.components) != expected:
        raise InapplicableError(
            "hn_data needs a certificate built from the monomial section (X^k, Y^k, Z^k)"
        )
    quotient_slope = cert.degree  # O_C(2 twist - 3aq) has degree (2 twist - 3aq) d
    bundle_degree, _slope = cert.section.spec.degree_and_slope(cert.twist)
    if 0 + quotient_slope != bundle_degree:
        raise InternalCheckError("degree additivity failed")
    return HNData(0, quotient_slope, cert.normalized_gap)


def deviation_lower_bound(p: int, a: int, e: int):
    """Exact normalized gap and the closed-form bound for d = a p^(e-1) + 1.

    Returns (gap, bound) with gap = d (aq - 2p)/q and bound =
    a^2 p^(e-1) - 2a; asserts gap >= bound.  Raises
    ``ExponentOverflowError`` when aq is not below ``EXP_LIMIT``.
    """
    check_prime(p)
    if e < 1 or a < 1:
        raise InapplicableError("need e >= 1 and a >= 1")
    aq = scaled_power(p, e, a)
    q = p**e
    low = a * p ** (e - 1)
    d = low + 1
    if d not in destabilizing_twists(low):
        raise InapplicableError(
            f"window inapplicable for (p={p}, a={a}, e={e}): a p^(e-1) = {low} <= 2"
        )
    if d % p == 0:
        raise InapplicableError(f"p divides d = a p^(e-1) + 1 = {d}")
    gap = Fraction(d * (aq - 2 * p), q)
    bound = Fraction(a * a * p ** (e - 1) - 2 * a)
    if gap < bound:
        raise InternalCheckError("gap fell below its proven lower bound")
    return gap, bound


# -- offline re-verification -----------------------------------------------


_INT_FIELDS = ("p", "a", "d", "e", "q", "k", "twist", "degree", "slope_sub", "slope_quotient")


def verify_certificate(data: dict) -> list:
    """Re-check a certificate dict; returns the list of failed checks.

    Every mathematical field participates in at least one cross-check, so
    any single-field corruption that changes a quantity is caught.  A
    ``schema`` other than SCHEMA_VERSION fails at once; one that is absent
    is read as SCHEMA_VERSION.  The section is checked by the
    ``SectionVector`` constructor; a section whose normal form would take
    more than ``poly.NORMAL_FORM_BUDGET`` steps is refused by it before
    anything is multiplied and fails, so every answer comes in bounded
    time.
    """
    failures = []

    def need(cond: bool, msg: str):
        if not cond:
            failures.append(msg)

    schema = data.get("schema", SCHEMA_VERSION)
    if type(schema) is not int or schema != SCHEMA_VERSION:
        return [f"unknown schema {schema!r}; this version reads schema {SCHEMA_VERSION}"]
    for f in _INT_FIELDS:
        if type(data.get(f)) is not int:  # a JSON boolean is not an integer
            return [f"field {f!r} missing or not an integer"]
    section = data.get("section")
    if not (
        isinstance(section, list) and len(section) == 3 and all(isinstance(s, str) for s in section)
    ):
        return ["field 'section' missing or not a list of three polynomials"]

    p, a, d, e = data["p"], data["a"], data["d"], data["e"]
    q, k, twist = data["q"], data["k"], data["twist"]
    if p >= MAX_PRIME:  # is_prime is unproven there
        failures.append(f"p = {p} is not below 2^31")
    elif not is_prime(p):
        failures.append(f"p = {p} is not prime")
    need(a >= 1, "a must be >= 1")
    need(d >= 1, "d must be >= 1")
    need(e >= 0, "e must be >= 0")
    if failures:
        return failures
    need(data.get("smooth") is (d % p != 0), "smooth flag inconsistent with p | d")
    need(d % p != 0, "p divides d: curve not smooth")
    # p^e >= 2^e > |q|, so an e that large never matches and its power is
    # not taken; below 62 (every e a certificate can hold) the message
    # shows the power
    if e >= max(q.bit_length(), 62):
        failures.append(f"q = {q} != p^e = {p}^{e}")
    else:
        need(q == p**e, f"q = {q} != p^e = {p**e}")
    if failures:
        return failures
    aq = a * q
    if aq >= EXP_LIMIT:  # the section's exponents could not be checked
        return failures + [f"aq = {a}*{q} is not below 2^62"]
    need(k == twist - aq, f"k = {k} != twist - aq = {twist - aq}")
    need(k >= 1, "k must be >= 1")
    need(2 * twist - 3 * aq < 0, "slope inequality 2*twist < 3aq violated")
    need(data["degree"] == (2 * twist - 3 * aq) * d, "degree formula mismatch")
    need(data["degree"] < 0, "slope inequality: degree must be negative")
    need(data["slope_sub"] == 0, "sub slope must be 0")
    need(data["slope_quotient"] == data["degree"], "quotient slope must equal degree")
    try:
        gap = data["normalized_gap"]
        # Fraction also reads exponents, and "1e100000000" takes minutes to
        # expand: a string passes only in the form format_fraction writes
        if isinstance(gap, str) and not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", gap):
            raise ValueError(gap)
        gap = Fraction(gap)
    except (ValueError, TypeError, KeyError, ZeroDivisionError, OverflowError):
        return failures + ["normalized_gap is not a rational"]
    need(gap == Fraction(-data["degree"], q), "normalized gap formula mismatch")

    field = PrimeField(p)
    spec = SyzygySpec(p, d, (a, a, a)).frobenius_pullback(e)  # in range: checked above
    polys = []
    try:
        for text in section:
            polys.append(parse_poly(text, field, degree=twist - aq))
    except (ValueError, ExponentOverflowError) as exc:
        return failures + [f"section component malformed: {exc}"]
    if all(s.is_zero() for s in polys):
        return failures + ["section is zero"]
    try:
        SectionVector(spec, twist, tuple(polys))
    except BlockTooLargeError as exc:
        failures.append(f"section is too large to check: {exc}")
    except (ValueError, ExponentOverflowError) as exc:
        failures.append(f"syzygy relation fails under normal form: {exc}")
    return failures
