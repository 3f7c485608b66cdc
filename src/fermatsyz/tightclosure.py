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

Everything follows from (p, b, e).  A ``TCReport`` stores the checked
``TCParameters(p, b, e)`` and the one computed object, the projective-line
class of step 3; the curve class of steps 1-2, the expected closure
formula, the precondition flags and the verdict are derived from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InapplicableError, SmoothnessError
# binom_uint is not called here; perfbench/probes.py wraps tightclosure.binom_uint
from .field import binom_uint, check_prime
from .poly import digit_row, scaled_power
from .stability import SCHEMA_VERSION, format_fraction

ASSUMED_IMPLICATION = (
    "a nonzero class in H^1 over the F-regular subring F_p[X,Y] lies outside the "
    "zero tight closure, and so does its preimage on the curve; assumed, not recomputed"
)


@dataclass(frozen=True)
class TCParameters:
    """The counterexample at (p, b, e), checked on construction.  Derived:
    a = 2b, q = p^e, d = a p^(e-1) + 1 (so k = p), u = ceil(p/2) and the
    critical degree m = 3bq of the monomial (XYZ)^(bq)."""

    p: int
    b: int
    e: int

    def __post_init__(self):
        check_prime(self.p)
        if self.b < 1 or self.e < 1:
            raise InapplicableError("need b >= 1 and e >= 1")
        scaled_power(self.p, self.e, 3 * self.b)  # the critical degree 3bq, the largest exponent
        if self.d % self.p == 0:
            # cannot happen for e >= 2 (d = 1 mod p); possible at e = 1
            raise SmoothnessError(f"p = {self.p} divides d = {self.d}: curve not smooth")

    @property
    def a(self) -> int:
        return 2 * self.b

    @property
    def q(self) -> int:
        return self.p**self.e

    @property
    def bq(self) -> int:
        return self.b * self.q

    @property
    def d(self) -> int:
        return self.a * self.p ** (self.e - 1) + 1

    @property
    def k(self) -> int:
        return self.p

    @property
    def u(self) -> int:
        return (self.p + 1) // 2  # ceil(p/2)

    @property
    def m(self) -> int:
        return 3 * self.bq

    def precondition_flags(self) -> dict:
        u, d, bq = self.u, self.d, self.bq
        return {
            "ud_ge_bq_plus_p": u * d >= bq + self.p,
            "u_minus_1_d_lt_bq": (u - 1) * d < bq,
            "p_not_dividing_u": u % self.p != 0,
        }


@dataclass(frozen=True)
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

    def to_json_dict(self) -> dict:
        return {
            "class_degree": self.degree,
            "global_sign": self.global_sign,
            "surviving_terms": [
                {"x_exp": i, "y_exp": j, "coeff": c}
                for (i, j), c in sorted(self.coefficients.items())
            ],
        }


def cech_class_p1(params: TCParameters) -> CechClassP1:
    """Expand -Z^(ud)/(X^bq Y^bq) as a projective-line class.

    Z^(ud) = (-1)^u (X^d + Y^d)^u on the curve, so the stored terms are
    C(u, v) X^(vd - bq) Y^((u-v)d - bq), each of degree ud - 2bq; terms
    with a nonnegative exponent vanish in H^1 and are discarded.  Since
    u < p, u is one base-p digit and ``poly.digit_row(u, p)`` is every
    C(u, v) mod p, each from the last, so the work is linear in p.  The
    expansion is computed for any parameters; whether it proves anything
    is decided by the precondition flags of the report.
    """
    p, u, d, bq = params.p, params.u, params.d, params.bq
    coeffs = {}
    for v, c in enumerate(digit_row(u, p)):
        i = v * d - bq
        j = (u - v) * d - bq
        if i <= -1 and j <= -1:
            coeffs[(i, j)] = c
    sign = 1 if (u + 1) % 2 == 0 else -1
    return CechClassP1(degree=u * d - 2 * bq, coefficients=coeffs, global_sign=sign)


@dataclass(frozen=True)
class TCReport:
    """Outcome of the tight-closure counterexample pipeline: the parameters
    and the projective-line class; flags and verdict are derived.

    "certified" requires every precondition flag and a nonzero class.  A
    nonzero class with failing flags is reported but stays inconclusive
    (the argument chain is the contract)."""

    params: TCParameters
    p1_class: CechClassP1

    @property
    def preconditions(self) -> dict:
        return self.params.precondition_flags()

    @property
    def failing_preconditions(self) -> list:
        failing = sorted(name for name, ok in self.preconditions.items() if not ok)
        return failing or (["class_is_zero"] if self.p1_class.is_zero() else [])

    @property
    def verdict(self) -> str:
        return "inconclusive" if self.failing_preconditions else "certified"

    def to_json_dict(self) -> dict:
        pr = self.params
        a, bq, k = pr.a, pr.bq, pr.k
        aq = a * pr.q
        out = {
            "schema": SCHEMA_VERSION,
            "p": pr.p,
            "b": pr.b,
            "e": pr.e,
            "a": a,
            "d": pr.d,
            "q": pr.q,
            "u": pr.u,
            "k": k,
            "m": pr.m,
            "statement": f"(XYZ)^{pr.b} not in (X^{a},Y^{a},Z^{a})^* "
            f"in F_{pr.p}[X,Y,Z]/(X^{pr.d}+Y^{pr.d}+Z^{pr.d})",
            # the ideal itself plus everything of degree >= 3a/2
            "expected_formula": {
                "ideal": [f"X^{a}", f"Y^{a}", f"Z^{a}"],
                "threshold": format_fraction(Fraction(3 * a, 2)),
            },
            "preconditions": self.preconditions,
            "failing_preconditions": self.failing_preconditions,
            # the syzygy-valued class (f/X^aq, -f/Y^aq, 0) of f = (XYZ)^(bq) maps
            # to -f Z^k / (X^aq Y^aq) in H^1(C, O_C(m + k - 2aq)), which is
            # -Z^(bq+k) / (X^bq Y^bq) after cancelling X^bq Y^bq
            "curve_class": {
                "monomial": [bq, bq, bq],
                "syzygy_class_denominators": [aq, aq],
                "image_numerator": [bq, bq, bq + k],
                "image_twist": pr.m + k - 2 * aq,
                "reduced_numerator": [0, 0, bq + k],
                "reduced_denominator": [bq, bq],
            },
            "assumed_implication": ASSUMED_IMPLICATION,
            "verdict": self.verdict,
        }
        out.update(self.p1_class.to_json_dict())
        return out


def tc_counterexample(p: int, b: int, e: int) -> TCReport:
    """Run the full chain at (p, b, e); see ``TCReport`` for the verdict."""
    params = TCParameters(p, b, e)
    return TCReport(params, cech_class_p1(params))
