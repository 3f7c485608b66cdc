"""The syzygy bundle and its checked sections: ``SyzygySpec`` and
``SectionVector``, the half of ``bundle`` that the check path needs.

``verify_certificate`` and ``certify_destabilization`` build a spec and
run the ``SectionVector`` constructor, which checks the vector by
``FermatRing.normal_form``.  Nothing here imports numpy or the block
construction; ``bundle`` re-exports both classes as the same objects and
builds views of them from its verified kernel triples.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ExponentOverflowError
from .field import PrimeField
from .poly import EXP_LIMIT, GradedPoly, Monomial, scaled_power
from .ring import FermatRing


@lru_cache(maxsize=None)
def _ring(p: int, d: int) -> FermatRing:
    return FermatRing(p, d)


@dataclass(frozen=True)
class SyzygySpec:
    """Syz(X^a1, Y^a2, Z^a3) over F_p on the degree-d Fermat curve.

    d = 0 encodes the ambient projective plane.  The three generators
    never vanish simultaneously on a Fermat curve (no coordinate point
    satisfies X^d + Y^d + Z^d = 0), so the syzygy sheaf is locally free of
    rank 2.  The spec names the bundle only; every twist n is an argument.
    """

    p: int
    d: int
    exponents: tuple

    def __post_init__(self):
        PrimeField(self.p)  # validates primality
        try:  # an integer of any type, never a float that int() would truncate
            object.__setattr__(self, "d", operator.index(self.d))
            object.__setattr__(
                self, "exponents", tuple(operator.index(a) for a in self.exponents)
            )
        except TypeError as exc:
            raise ValueError(f"curve degree and exponents must be integers: {exc}") from None
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
        """Pull back along the e-th Frobenius: each exponent a becomes a p^e,
        formed and range-checked by ``poly.scaled_power``.

        The level's spec takes p and d over from this one, whose
        ``__post_init__`` has checked them, and a p^e >= a >= 1 keeps the
        exponents valid, so it is made without running those checks again.
        ``pullback(0)`` equals the spec itself.
        """
        p = self.p
        spec = object.__new__(SyzygySpec)
        spec.__dict__.update(
            p=p, d=self.d, exponents=tuple([scaled_power(p, e, a) for a in self.exponents])
        )
        return spec

    def degree_and_slope(self, n: int):
        """(degree, slope) of the twist Syz(n); on the curve degrees carry a factor d."""
        plane_degree = 2 * n - sum(self.exponents)
        degree = plane_degree if self.d == 0 else plane_degree * self.d
        return degree, Fraction(degree, 2)


class SectionVector:
    """A verified syzygy (s1, s2, s3) in twist n: sum s_i * gen_i = 0 in the ring.

    Components are normal-form polynomials with deg s_i = twist - a_i
    (zero components allowed, including in negative degrees).  The
    constructor checks each component's field and degree, and that the
    twist is below ``poly.EXP_LIMIT``, then adds the exponent-shifted terms
    of s1 X^a1, s2 Y^a2 and s3 Z^a3 mod p into one polynomial and checks
    that its ``normal_form`` is zero.  ``normal_form`` raises
    ``BlockTooLargeError`` instead for a vector whose check would take
    more than ``poly.NORMAL_FORM_BUDGET`` steps.  ``section_space``
    returns views instead: ``_rows`` is its call's batch-checked
    ``_KernelRows`` and ``_row`` the view's row, and the components are
    built on first access.
    """

    __slots__ = ("spec", "twist", "_rows", "_row", "_components")

    def __init__(self, spec: SyzygySpec, twist: int, components):
        s1, s2, s3 = components
        ring, p = spec.ring, spec.p
        total = {}  # s1 X^a1 + s2 Y^a2 + s3 Z^a3; each product is an exponent shift
        for var, (s, a) in enumerate(zip((s1, s2, s3), spec.exponents)):
            if s.field.p != p:
                raise ValueError("component over the wrong field")
            if s.is_zero():
                continue
            if s.degree != twist - a:
                raise ValueError(
                    f"component degree {s.degree} != twist - exponent = {twist - a}"
                )
            if twist >= EXP_LIMIT:
                raise ExponentOverflowError(f"monomial degree {twist} exceeds 2^62")
            di, dj, dl = (a if k == var else 0 for k in range(3))
            for (i, j, l), c in s.terms.items():
                mono = Monomial(i + di, j + dj, l + dl)
                total[mono] = (total.get(mono, 0) + c) % p
        # a vector with a nonzero component is reduced, even when its sum cancels
        if not all(s.is_zero() for s in (s1, s2, s3)):
            total = GradedPoly._trusted(ring.field, twist, {m: c for m, c in total.items() if c})
            if not ring.normal_form(total).is_zero():
                raise ValueError("components do not satisfy the syzygy relation")
        self.spec = spec
        self.twist = twist
        self._rows = None
        self._components = (s1, s2, s3)

    @property
    def components(self) -> tuple:
        """(s1, s2, s3) as polynomials; a view builds them once, on first access."""
        if self._components is None:
            self._components = self._rows.components(self._row)
        return self._components

    def is_zero(self) -> bool:
        return all(s.is_zero() for s in self.components)

    def serialize(self) -> list:
        if self._rows is not None:
            return self._rows.strings(self._row)
        return [s.to_string() for s in self._components]

    def __eq__(self, other):
        return (
            isinstance(other, SectionVector)
            and self.spec == other.spec
            and self.twist == other.twist
            and self.components == other.components
        )

    def __repr__(self):
        return f"SectionVector(twist={self.twist}, {self.serialize()})"
