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
  section forces negative degree, from the residue-family thresholds of
  ``bundle.first_section_twist``; report the first hit or "nothing found"
  (which never asserts strong semistability).
* ``deviation_lower_bound`` evaluates the exact normalized slope gap and
  its closed-form lower bound a^2 p^(e-1) - 2a for the degree choice
  d = a p^(e-1) + 1.

Certificates are self-contained: ``verify_certificate`` re-checks every
stored quantity against every other by exact arithmetic, so a single
corrupted field is always caught.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bundle import (
    SectionVector,
    SyzygySpec,
    first_section_twist,
    has_section,  # not called here; perfbench/probes.py wraps stability.has_section
    section_space,
)
from .errors import (
    ExponentOverflowError,
    InapplicableError,
    InternalCheckError,
    SmoothnessError,
)
from .field import MAX_PRIME, PrimeField, check_prime, is_prime
from .poly import EXP_LIMIT, GradedPoly, frobenius_power, parse_poly

SCHEMA_VERSION = 1


def _check_pq(p: int, e: int) -> int:
    q = p**e
    if q >= EXP_LIMIT:
        raise ExponentOverflowError(
            f"p^e = {p}^{e} leaves the 64-bit range; use smaller inputs"
        )
    return q


@dataclass(frozen=True)
class ParameterChoice:
    """Admissible parameters: a p^(e-1) >= d0 and a p^(e-1) < d < 3 a p^(e-1) / 2."""

    p: int
    a: int
    d0: int
    e: int
    q: int
    d: int
    k: int
    m: int

    def __post_init__(self):
        low = self.a * self.p ** (self.e - 1)
        if not (low >= self.d0 and low < self.d and 2 * self.d < 3 * low):
            raise InapplicableError("parameter window violated")
        if self.d % self.p == 0:
            raise SmoothnessError("d must not be a multiple of p")
        aq = self.a * self.q
        dp = self.d * self.p
        if not (aq < dp and 2 * dp < 3 * aq) or self.k != dp - aq or self.m != dp:
            raise InternalCheckError("derived quantities inconsistent")


def find_parameters(p: int, a: int, d0: int) -> ParameterChoice:
    """Smallest e with a p^(e-1) >= d0 and a nonempty window, then smallest
    admissible d (this is d = a p^(e-1) + 1 whenever p does not divide it)."""
    check_prime(p)
    if a < 1 or d0 < 1:
        raise InapplicableError("need a >= 1 and d0 >= 1")
    e = 1
    while True:
        q = _check_pq(p, e)
        low = a * p ** (e - 1)
        if low >= d0:
            # open window (low, 3*low/2): integers low+1 .. ceil(3 low / 2) - 1
            for d in range(low + 1, (3 * low - 1) // 2 + 1):
                if d % p != 0:
                    return ParameterChoice(p, a, d0, e, q, d, d * p - a * q, d * p)
        e += 1


@dataclass
class DestabCertificate:
    """Machine-checkable witness that F^(e*) Syz(X^a, Y^a, Z^a)|C is unstable.

    The section embeds O_C into the twisted pullback bundle, whose degree
    is negative; slope_sub = 0 > slope of the bundle.  ``normalized_gap``
    is the twist-invariant (mu_max - mu_min)/q of the HN filtration when
    the section is nowhere vanishing (the Proposition-style certificates),
    and a destabilization measure otherwise.
    """

    p: int
    a: int
    d: int
    e: int
    q: int
    k: int
    twist: int
    section: SectionVector
    degree: int
    slope_sub: int
    slope_quotient: int
    normalized_gap: Fraction
    smooth: bool
    inconclusive: bool = False

    def __post_init__(self):
        if self.section.is_zero():
            raise InternalCheckError("certificate section is zero")
        aq = self.a * self.q
        if self.degree >= 0 or 2 * self.twist - 3 * aq >= 0:
            raise InternalCheckError("certificate bundle degree is not negative")
        # the two window formulations of the proof must agree
        window = aq < self.twist and 2 * self.twist < 3 * aq
        if window != (self.k > 0 and 2 * self.twist - 3 * aq < 0):
            raise InternalCheckError("window bookkeeping mismatch")

    def spec(self) -> SyzygySpec:
        aq = self.a * self.q
        return SyzygySpec(self.p, self.d, (aq, aq, aq), self.twist)

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
            "slope_sub": self.slope_sub,
            "slope_quotient": self.slope_quotient,
            "normalized_gap": format_fraction(self.normalized_gap),
            "smooth": self.smooth,
            "inconclusive": self.inconclusive,
        }


def format_fraction(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_fraction(s: str) -> Fraction:
    return Fraction(s)


def _build_certificate(p, a, d, e, q, twist, section) -> DestabCertificate:
    aq = a * q
    degree = (2 * twist - 3 * aq) * d
    return DestabCertificate(
        p=p,
        a=a,
        d=d,
        e=e,
        q=q,
        k=twist - aq,
        twist=twist,
        section=section,
        degree=degree,
        slope_sub=0,
        slope_quotient=degree,
        normalized_gap=Fraction(-degree, q),
        smooth=True,
    )


def certify_destabilization(p: int, a: int, d: int) -> DestabCertificate:
    """Proposition-style certificate for given (p, a, d); p must not divide d.

    Finds the unique Frobenius level e >= 1 with aq < dp < 3aq/2 (the
    interval spans a factor 3/2 < p, so at most one power of p fits),
    builds the section (X^k, Y^k, Z^k) and verifies the syzygy identity by
    exact normal-form computation.
    """
    check_prime(p)
    if a < 1 or d < 1:
        raise InapplicableError("need a >= 1 and d >= 1")
    if d % p == 0:
        raise SmoothnessError(f"p = {p} divides d = {d}: curve not smooth")
    dp = d * p
    e = 1
    while True:
        q = _check_pq(p, e)
        aq = a * q
        if aq >= dp:
            raise InapplicableError(
                f"construction inapplicable for (p={p}, a={a}, d={d}): "
                f"no level e with aq < dp < 3aq/2"
            )
        if 2 * dp < 3 * aq:
            break
        e += 1
    k = dp - aq
    spec = SyzygySpec(p, d, (aq, aq, aq), dp)
    field = PrimeField(p)
    # the identity behind the section: (X^d+Y^d+Z^d)^p = X^dp + Y^dp + Z^dp
    fermat = spec.ring.relation.poly()
    powered = frobenius_power(fermat, 1)
    if not spec.ring.normal_form(powered).is_zero():
        raise InternalCheckError("Frobenius power of the relation did not vanish")
    section = SectionVector(
        spec,
        dp,
        tuple(
            GradedPoly.monomial(field, 1, tuple(k if v == i else 0 for v in range(3)))
            for i in range(3)
        ),
    )
    return _build_certificate(p, a, d, e, q, dp, section)


def search_destabilization(p: int, d: int, a: int, e_max: int) -> DestabCertificate | None:
    """Bounded semidecision: smallest (e, n) with a destabilizing section.

    For each level e = 0..e_max looks for sections in the twist window
    n in [aq + 1, ceil(3aq/2) - 1] (q = p^e), exactly the degrees where a
    nonzero section forces negative bundle degree.  Returns None when no
    certificate exists within bounds -- which proves nothing about strong
    semistability.

    On a curve the sections outside the Koszul family split into residue
    families (i, j0, l0) in [0, d)^3, one block per family and twist.  A
    family's block kernel at level N is the degree-N part of
    {f : f (u + w)^t in (u^A, w^B)} with u = Y^d, w = Z^d, and since u f
    stays in that set, a family that has a kernel at N has one at every
    larger N.  The least twist with a section is therefore the least
    in-window family twist at or above the family's threshold N*(t, A, B),
    found by binary search once per distinct (t, A, B), at most eight
    times per level (see ``bundle.first_section_twist``).  The certificate's
    section is the first vector of ``section_space`` at that twist.  The
    plane (d = 0) runs the same search; a section found there would give a
    certificate of degree 0, which ``DestabCertificate`` rejects.
    """
    check_prime(p)
    if a < 1 or e_max < 0 or d < 0:
        raise InapplicableError("need a >= 1, d >= 0, e_max >= 0")
    if not SyzygySpec(p, d, (a, a, a)).smooth:
        raise SmoothnessError(f"p = {p} divides d = {d}: curve not smooth")
    for e in range(e_max + 1):
        q = _check_pq(p, e)
        aq = a * q
        spec = SyzygySpec(p, d, (aq, aq, aq), 0)
        n_lo, n_hi = aq + 1, (3 * aq + 1) // 2 - 1  # ceil(3aq/2) - 1
        n = first_section_twist(spec, n_lo, n_hi)
        if n is not None:
            section = section_space(spec, n)[0]
            return _build_certificate(p, a, d, e, q, n, section)
    return None


@dataclass(frozen=True)
class HNData:
    """Rank-2 Harder-Narasimhan data of a Proposition-style certificate:
    sub sheaf O_C (slope 0), quotient O_C(2dp - 3aq) (slope (2dp-3aq) d)."""

    sub_slope: int
    quotient_slope: int
    normalized_gap: Fraction

    def to_json_dict(self) -> dict:
        return {
            "slope_sub": self.sub_slope,
            "slope_quotient": self.quotient_slope,
            "normalized_gap": format_fraction(self.normalized_gap),
        }


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
    bundle_degree, _slope = cert.spec().degree_and_slope()
    quotient_slope = (2 * cert.twist - 3 * cert.a * cert.q) * cert.d
    if 0 + quotient_slope != bundle_degree or bundle_degree != cert.degree:
        raise InternalCheckError("degree additivity failed")
    gap = Fraction(0 - quotient_slope, cert.q)
    if gap != cert.normalized_gap:
        raise InternalCheckError("normalized gap mismatch")
    return HNData(0, quotient_slope, gap)


def deviation_lower_bound(p: int, a: int, e: int):
    """Exact normalized gap and the closed-form bound for d = a p^(e-1) + 1.

    Returns (gap, bound) with gap = d (aq - 2p)/q and bound =
    a^2 p^(e-1) - 2a; asserts gap >= bound.
    """
    check_prime(p)
    if e < 1 or a < 1:
        raise InapplicableError("need e >= 1 and a >= 1")
    q = _check_pq(p, e)
    low = a * p ** (e - 1)
    d = low + 1
    if 2 * d >= 3 * low:  # window (low, 3 low/2) must contain d = low + 1
        raise InapplicableError(
            f"window inapplicable for (p={p}, a={a}, e={e}): a p^(e-1) = {low} <= 2"
        )
    if d % p == 0:
        raise InapplicableError(f"p divides d = a p^(e-1) + 1 = {d}")
    gap = Fraction(d * (a * q - 2 * p), q)
    bound = Fraction(a * a * p ** (e - 1) - 2 * a)
    if gap < bound:
        raise InternalCheckError("gap fell below its proven lower bound")
    return gap, bound


# -- offline re-verification -----------------------------------------------


_INT_FIELDS = ("p", "a", "d", "e", "q", "k", "twist", "degree", "slope_sub", "slope_quotient")


def verify_certificate(data: dict) -> list:
    """Re-check a certificate dict; returns the list of failed checks.

    Every mathematical field participates in at least one cross-check, so
    any single-field corruption that changes a quantity is caught.
    """
    failures = []

    def need(cond: bool, msg: str):
        if not cond:
            failures.append(msg)

    for f in _INT_FIELDS:
        if not isinstance(data.get(f), int):
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
    need(data.get("smooth") == (d % p != 0), "smooth flag inconsistent with p | d")
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
    need(k == twist - aq, f"k = {k} != twist - aq = {twist - aq}")
    need(k >= 1, "k must be >= 1")
    need(2 * twist - 3 * aq < 0, "slope inequality 2*twist < 3aq violated")
    need(data["degree"] == (2 * twist - 3 * aq) * d, "degree formula mismatch")
    need(data["degree"] < 0, "slope inequality: degree must be negative")
    need(data["slope_sub"] == 0, "sub slope must be 0")
    need(data["slope_quotient"] == data["degree"], "quotient slope must equal degree")
    try:
        gap = parse_fraction(data["normalized_gap"])
    except (ValueError, TypeError, KeyError):
        return failures + ["normalized_gap is not a rational"]
    need(gap == Fraction(-data["degree"], q), "normalized gap formula mismatch")

    field = PrimeField(p)
    spec = SyzygySpec(p, d, (aq, aq, aq), twist)
    polys = []
    try:
        for text in section:
            polys.append(parse_poly(text, field, degree=twist - aq))
    except ValueError as exc:
        return failures + [f"section component malformed: {exc}"]
    if all(s.is_zero() for s in polys):
        return failures + ["section is zero"]
    try:
        SectionVector(spec, twist, tuple(polys))
    except ValueError as exc:
        failures.append(f"syzygy relation fails under normal form: {exc}")
    return failures
