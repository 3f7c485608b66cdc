"""Non-membership certificates for tight closure on Fermat hypersurfaces.

Certifies (XYZ)^b not in (X^2b, Y^2b, Z^2b)^* in F_p[X,Y,Z]/(X^d+Y^d+Z^d)
for d = 2b p^(e-1) + 1 by the cohomological obstruction chain:

1. the monomial (XYZ)^(bq) of critical degree 3bq yields a first Cech
   cohomology class with values in the pulled-back syzygy bundle;
2. the rank-2 filtration maps it onto -Z^(bq+k)/(X^bq Y^bq) in
   H^1(C, O_C(k - bq)), k = p;
3. with u = ceil(p/2), divisibility reduces the question to Z^(ud), and
   the curve relation rewrites the class as a pure X,Y Laurent fraction,
   i.e. a class on the projective line with explicit binomial
   coefficients;
4. the class is nonzero there iff a surviving basis term (both exponents
   negative) has a nonzero coefficient mod p -- decided exactly.

Step 4's consequence (a nonzero class over the F-regular ring F_p[X,Y] is
not in the zero tight closure, hence neither is the original curve class)
is an assumed implication, recorded but not recomputed; the verdict is
"certified" only when all arithmetic preconditions of the chain hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .bundle import SyzygySpec, syzygy_matrix
from .errors import InapplicableError, InternalCheckError, SmoothnessError
from .field import binom_uint, check_prime
from .linalg import MatrixModP
from .poly import GradedPoly, scaled_power
from .ring import FermatRing
from .stability import SCHEMA_VERSION, format_fraction

ASSUMED_IMPLICATION = (
    "a nonzero class in H^1 over the F-regular subring F_p[X,Y] lies outside the "
    "zero tight closure, and so does its preimage on the curve; assumed, not recomputed"
)


@dataclass(frozen=True)
class TCParameters:
    """Derived data for the counterexample at (p, b, e): a = 2b, q = p^e,
    d = a p^(e-1) + 1 (so k = p), u = ceil(p/2), critical twist m = 3bq."""

    p: int
    b: int
    e: int
    a: int
    q: int
    d: int
    k: int
    u: int
    m: int
    r: int
    s: int
    t: int

    @property
    def bq(self) -> int:
        return self.b * self.q

    def precondition_flags(self) -> dict:
        return {
            "ud_ge_bq_plus_p": self.u * self.d >= self.bq + self.p,
            "u_minus_1_d_lt_bq": (self.u - 1) * self.d < self.bq,
            "p_not_dividing_u": self.u % self.p != 0,
        }


def tc_parameters(p: int, b: int, e: int) -> TCParameters:
    check_prime(p)
    if b < 1 or e < 1:
        raise InapplicableError("need b >= 1 and e >= 1")
    a = 2 * b
    m = scaled_power(p, e, 3 * b)  # the critical degree 3bq, the largest exponent
    q = p**e
    d = a * p ** (e - 1) + 1
    if d % p == 0:
        # cannot happen for e >= 2 (d = 1 mod p); possible at e = 1
        raise SmoothnessError(f"p = {p} divides d = {d}: curve not smooth")
    u = (p + 1) // 2  # ceil(p/2)
    bq = b * q
    return TCParameters(p=p, b=b, e=e, a=a, q=q, d=d, k=p, u=u, m=m, r=bq, s=bq, t=bq)


@dataclass(frozen=True)
class FormulaStar:
    """Right-hand side of the expected tight-closure formula for (X^a,Y^a,Z^a):
    the ideal itself plus everything of degree >= 3a/2."""

    a: int
    generators: tuple
    threshold: Fraction

    def to_json_dict(self) -> dict:
        return {
            "ideal": list(self.generators),
            "threshold": format_fraction(self.threshold),
        }


def formula_star(a: int) -> FormulaStar:
    if a < 1:
        raise InapplicableError("need a >= 1")
    gens = (f"X^{a}", f"Y^{a}", f"Z^{a}")
    return FormulaStar(a, gens, Fraction(3 * a, 2))


def ideal_membership(f: GradedPoly, a: int, ring: FermatRing) -> bool:
    """Does f lie in the degree-deg(f) piece of (X^a, Y^a, Z^a) R?

    Decided by solvability of the linear system over the graded piece
    bases: f must be in the column span of the three multiplication maps.
    """
    if a < 1:
        raise InapplicableError("need a >= 1")
    f = ring.normal_form(f)
    if f.is_zero():
        return True
    n = f.degree
    if n < a:
        return False
    m = syzygy_matrix(SyzygySpec(ring.p, ring.d, (a, a, a)), n)
    target = ring.coords(f).reshape(-1, 1)
    rank_aug = MatrixModP(np.hstack([m.array, target]), ring.p).rank()
    return m.rank() == rank_aug


@dataclass(frozen=True)
class CechClassCurve:
    """Bookkeeping for the curve-level classes (nothing is decided here).

    The syzygy-valued class is (f/X^aq, -f/Y^aq, 0) for f = X^r Y^s Z^t;
    its image under the filtration quotient is -f Z^k / (X^aq Y^aq), which
    for r = s = t = bq reduces to -Z^(bq+k) / (X^bq Y^bq)."""

    params: TCParameters
    numerator: tuple  # exponents (r, s, t) of f
    syz_denominators: tuple  # (X^aq, Y^aq) exponents
    image_numerator: tuple  # exponents of f * Z^k
    image_twist: int  # the class lives in H^1(C, O_C(image_twist))
    reduced_numerator: tuple  # exponents after cancelling X^bq Y^bq
    reduced_denominator: tuple  # (bq, bq) on X, Y

    def to_json_dict(self) -> dict:
        return {
            "monomial": list(self.numerator),
            "syzygy_class_denominators": list(self.syz_denominators),
            "image_numerator": list(self.image_numerator),
            "image_twist": self.image_twist,
            "reduced_numerator": list(self.reduced_numerator),
            "reduced_denominator": list(self.reduced_denominator),
        }


def cech_class_curve(params: TCParameters) -> CechClassCurve:
    if params.b < 1:
        raise InapplicableError("need b >= 1 (a = 2b >= 2)")
    aq = params.a * params.q
    bq = params.bq
    r, s, t = params.r, params.s, params.t
    image_numer = (r, s, t + params.k)
    # degree bookkeeping: m + k - 2aq must equal k - bq since m = 3bq = 3aq/2
    image_twist = params.m + params.k - 2 * aq
    if image_twist != params.k - bq:
        raise InternalCheckError("curve class twist bookkeeping mismatch")
    reduced_numer = (r - bq, s - bq, t + params.k)  # = (0, 0, bq + k)
    if reduced_numer != (0, 0, bq + params.k):
        raise InternalCheckError("curve class reduction bookkeeping mismatch")
    return CechClassCurve(
        params=params,
        numerator=(r, s, t),
        syz_denominators=(aq, aq),
        image_numerator=image_numer,
        image_twist=image_twist,
        reduced_numerator=reduced_numer,
        reduced_denominator=(bq, bq),
    )


@dataclass
class CechClassP1:
    """A class in H^1(P^1, O(n)) on the basis {X^i Y^j : i, j <= -1, i+j = n}.

    ``coefficients`` maps (i, j) to a nonzero residue mod p; the actual
    class equals global_sign times the stored expansion (the sign collects
    the leading minus and the (-1)^u from Z^d = -(X^d + Y^d))."""

    degree: int
    coefficients: dict
    global_sign: int

    def is_zero(self) -> bool:
        return not self.coefficients

    def sorted_terms(self) -> list:
        return sorted(self.coefficients.items())

    def to_json_dict(self) -> dict:
        return {
            "class_degree": self.degree,
            "global_sign": self.global_sign,
            "surviving_terms": [
                {"x_exp": i, "y_exp": j, "coeff": c} for (i, j), c in self.sorted_terms()
            ],
        }


def cech_class_p1(params: TCParameters) -> CechClassP1:
    """Expand -Z^(ud)/(X^bq Y^bq) as a projective-line class.

    Z^(ud) = (-1)^u (X^d + Y^d)^u on the curve, so the stored terms are
    C(u, v) X^(vd - bq) Y^((u-v)d - bq); terms with a nonnegative exponent
    vanish in H^1 and are discarded.  The expansion is computed for any
    parameters; whether it proves anything is decided by the precondition
    flags in tc_counterexample.
    """
    p, u, d, bq = params.p, params.u, params.d, params.bq
    coeffs = {}
    for v in range(u + 1):
        i = v * d - bq
        j = (u - v) * d - bq
        if i <= -1 and j <= -1:
            c = binom_uint(u, v, p)
            if c:
                coeffs[(i, j)] = c
    degree = u * d - 2 * bq
    for (i, j) in coeffs:
        if i + j != degree:
            raise InternalCheckError("surviving term degree bookkeeping mismatch")
    sign = 1 if (u + 1) % 2 == 0 else -1
    return CechClassP1(degree=degree, coefficients=coeffs, global_sign=sign)


@dataclass
class TCReport:
    """Outcome of the tight-closure counterexample pipeline."""

    params: TCParameters
    formula: FormulaStar
    preconditions: dict
    curve_class: CechClassCurve
    p1_class: CechClassP1
    verdict: str  # "certified" | "inconclusive"
    failing_preconditions: list = dc_field(default_factory=list)

    def to_json_dict(self) -> dict:
        pr = self.params
        out = {
            "schema": SCHEMA_VERSION,
            "p": pr.p,
            "b": pr.b,
            "e": pr.e,
            "a": pr.a,
            "d": pr.d,
            "q": pr.q,
            "u": pr.u,
            "k": pr.k,
            "m": pr.m,
            "statement": f"(XYZ)^{pr.b} not in (X^{pr.a},Y^{pr.a},Z^{pr.a})^* "
            f"in F_{pr.p}[X,Y,Z]/(X^{pr.d}+Y^{pr.d}+Z^{pr.d})",
            "expected_formula": self.formula.to_json_dict(),
            "preconditions": self.preconditions,
            "failing_preconditions": self.failing_preconditions,
            "curve_class": self.curve_class.to_json_dict(),
            "assumed_implication": ASSUMED_IMPLICATION,
            "verdict": self.verdict,
        }
        out.update(self.p1_class.to_json_dict())
        return out


def tc_counterexample(p: int, b: int, e: int) -> TCReport:
    """Run the full chain; "certified" requires every precondition flag and
    a nonzero projective-line class.  A nonzero class with failing flags is
    reported but stays inconclusive (the argument chain is the contract)."""
    params = tc_parameters(p, b, e)
    flags = params.precondition_flags()
    failing = sorted(name for name, ok in flags.items() if not ok)
    curve = cech_class_curve(params)
    p1 = cech_class_p1(params)
    certified = not failing and not p1.is_zero()
    return TCReport(
        params=params,
        formula=formula_star(params.a),
        preconditions=flags,
        curve_class=curve,
        p1_class=p1,
        verdict="certified" if certified else "inconclusive",
        failing_preconditions=failing if failing else ([] if certified else ["class_is_zero"]),
    )
