import dataclasses
import itertools
import random
import signal
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fermatsyz import bundle, syzygy
from fermatsyz.bundle import (
    SectionVector,
    SyzygySpec,
    _block_entry,
    _structured_kernel,
    first_section,
    first_section_twist,
    has_section,
    section_space,
    section_space_dim,
    syzygy_matrix,
)
from fermatsyz.errors import BlockTooLargeError, ExponentOverflowError, InternalCheckError
from fermatsyz.field import PrimeField
from fermatsyz.poly import EXP_LIMIT, GradedPoly, frobenius_power, parse_poly
from fermatsyz.ring import FermatRing
from fermatsyz.stability import search_destabilization
from kernel_helpers import (
    binomial_row,
    certificate_ops,
    coords,
    dense_kernel,
    reference_block_entry,
    section_ops,
    to_dense,
    to_triples,
    within,
)

F5 = PrimeField(5)
F7 = PrimeField(7)


def in_span(rows, vector, p):
    if not len(rows):
        return not any(vector)
    from fermatsyz.linalg import MatrixModP

    base = MatrixModP(np.asarray(rows), p).rank()
    aug = MatrixModP(np.vstack([rows, vector]), p).rank()
    return base == aug


# -- spec construction and slopes ----------------------------------------------


def test_spec_names_the_bundle_only():
    assert [f.name for f in dataclasses.fields(SyzygySpec)] == ["p", "d", "exponents"]
    with pytest.raises(TypeError):
        SyzygySpec(5, 11, (2, 2, 2), 3)


def test_frobenius_pullback_identity_level():
    spec = SyzygySpec(5, 11, (2, 2, 2))
    assert spec.frobenius_pullback(0) == spec


def test_frobenius_pullback_scales():
    spec = SyzygySpec(5, 11, (2, 2, 2))
    pulled = spec.frobenius_pullback(2)
    assert pulled.exponents == (50, 50, 50)
    assert pulled.d == 11 and pulled.p == 5


def test_frobenius_pullback_overflow():
    spec = SyzygySpec(5, 11, (2, 2, 2))
    with pytest.raises(ExponentOverflowError):
        spec.frobenius_pullback(100)


def test_frobenius_pullback_is_the_hand_built_spec_up_to_the_range():
    for p in (2, 3, 5, 7):
        for a in (1, 2, 3):
            base = SyzygySpec(p, 4, (a, a, a))
            top = max(e for e in range(62) if a * p**e < EXP_LIMIT)  # the last level in range
            for e in range(top + 1):
                aq = a * p**e
                assert base.frobenius_pullback(e) == SyzygySpec(p, 4, (aq, aq, aq)), (p, a, e)
            with pytest.raises(ExponentOverflowError, match=rf"a p\^e = {a}\*{p}\^{top + 1} "):
                base.frobenius_pullback(top + 1)


def test_huge_frobenius_level_is_refused_at_once():
    # e = 10^8 is refused before p^e is formed; forming it takes minutes.
    # The alarm turns a hang into a failure
    spec = SyzygySpec(3, 5, (1, 1, 1))
    x = GradedPoly.monomial(PrimeField(3), 1, (1, 0, 0))

    def hang(*_):
        raise TimeoutError("the Frobenius level was not refused")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        for pull in (spec.frobenius_pullback, lambda e: frobenius_power(x, e)):
            started = time.perf_counter()
            with pytest.raises(ExponentOverflowError):
                pull(10**8)
            assert time.perf_counter() - started < 0.5
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_degree_and_slope_on_curve():
    spec = SyzygySpec(5, 11, (50, 50, 50))
    degree, slope = spec.degree_and_slope(55)
    assert degree == (110 - 150) * 11 == -440
    assert slope == Fraction(-220)


def test_degree_zero_boundary():
    spec = SyzygySpec(5, 11, (50, 50, 50))
    assert spec.degree_and_slope(75)[0] == 0


def test_euler_sequence_degree_on_plane():
    spec = SyzygySpec(5, 0, (1, 1, 1))
    degree, slope = spec.degree_and_slope(0)
    assert degree == -3
    assert slope == Fraction(-3, 2)


# -- section spaces ---------------------------------------------------------------


def test_plane_koszul_below_floor():
    spec = SyzygySpec(7, 0, (2, 2, 2))
    assert section_space(spec, 3) == []


def test_curve_proposition_section():
    spec = SyzygySpec(5, 11, (50, 50, 50))
    sections = section_space(spec, 55)
    assert len(sections) == 1
    assert sections[0].serialize() == [
        "1*X^5*Y^0*Z^0",
        "1*X^0*Y^5*Z^0",
        "1*X^0*Y^0*Z^5",
    ]


def test_koszul_syzygy_always_present():
    for spec in (SyzygySpec(5, 7, (2, 3, 4)), SyzygySpec(3, 0, (1, 2, 2))):
        a1, a2, a3 = spec.exponents
        n = a1 + a2
        sections = section_space(spec, n)
        field = PrimeField(spec.p)
        koszul = SectionVector(
            spec,
            n,
            (
                GradedPoly.monomial(field, 1, (0, a2, 0)),
                GradedPoly.monomial(field, spec.p - 1, (a1, 0, 0)),
                GradedPoly.zero(field, n - a3),
            ),
        )
        rows = to_dense(spec, n, _structured_kernel(spec, n))
        ring = spec.ring
        vec = np.concatenate(
            [
                coords(ring, koszul.components[0]),
                coords(ring, koszul.components[1]),
                coords(ring, koszul.components[2])
                if n - a3 >= 0
                else np.zeros(0, dtype=np.int64),
            ]
        )
        assert in_span(rows, vec, spec.p)
        assert sections  # nonempty at the Koszul degree


def test_section_vector_verified_on_construction():
    spec = SyzygySpec(5, 11, (50, 50, 50))
    field = F5
    with pytest.raises(ValueError):
        SectionVector(
            spec,
            55,
            (
                GradedPoly.monomial(field, 1, (5, 0, 0)),
                GradedPoly.monomial(field, 2, (0, 5, 0)),  # wrong coefficient
                GradedPoly.monomial(field, 1, (0, 0, 5)),
            ),
        )


def test_section_vector_adds_products_that_meet():
    # the Koszul row (Y, 4X, 0): s1 X and s2 Y meet at XY, where 1 + 4 = 0 mod 5
    s1 = GradedPoly.monomial(F5, 1, (0, 1, 0))
    s2 = GradedPoly.monomial(F5, 4, (1, 0, 0))
    koszul = SectionVector(SyzygySpec(5, 4, (1, 1, 1)), 2, (s1, s2, GradedPoly.zero(F5, 1)))
    assert koszul.serialize() == ["1*X^0*Y^1*Z^0", "4*X^1*Y^0*Z^0", "0"]


def test_section_vector_refuses_a_twist_past_the_exponent_range():
    twist = 2**62 + 1
    field = PrimeField(2)
    s1 = GradedPoly.monomial(field, 1, (2**61 + 1, 0, 0))
    zero = GradedPoly.zero(field, 2**61 + 1)
    message = r"^monomial degree 4611686018427387905 exceeds 2\^62$"
    with pytest.raises(ExponentOverflowError, match=message):
        SectionVector(SyzygySpec(2, 3, (2**61,) * 3), twist, (s1, zero, zero))


def quartic_section(s1):
    """(s1, 0, 0) in twist 2 of Syz(X, Y, Z) on the quartic over F_5."""
    zero = GradedPoly.zero(F5, 1)
    return SectionVector(SyzygySpec(5, 4, (1, 1, 1)), 2, (s1, zero, zero))


def test_section_vector_checks_components_in_order():
    # each component's field, then (unless it is zero) its degree, before
    # the next component's: verify's messages depend on this order
    spec = SyzygySpec(5, 4, (1, 1, 1))
    zero = GradedPoly.zero(F5, 1)
    wrong_degree = GradedPoly.monomial(F5, 1, (2, 0, 0))
    wrong_field = GradedPoly.monomial(F7, 1, (1, 0, 0))
    with pytest.raises(ValueError, match="^component over the wrong field$"):
        SectionVector(spec, 2, (GradedPoly.zero(F7, 1), zero, zero))
    # a zero component may carry any degree
    assert SectionVector(spec, 2, (GradedPoly.zero(F5, 5), zero, zero)).is_zero()
    with pytest.raises(ValueError, match=r"^component degree 2 != twist - exponent = 1$"):
        SectionVector(spec, 2, (wrong_degree, wrong_field, zero))
    with pytest.raises(ValueError, match="^component over the wrong field$"):
        SectionVector(spec, 2, (wrong_field, wrong_degree, zero))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SyzygySpec(5, -1, (2, 2, 2)), "curve degree must be >= 0"),
        (lambda: SyzygySpec(5, 11, (2, 2)), "three generator exponents >= 1"),
        (lambda: SyzygySpec(5, 11, (2, 0, 2)), "three generator exponents >= 1"),
        # int() would truncate these to (1, 1, 1) and answer for another bundle
        (lambda: SyzygySpec(5, 4, (1.9, 1.9, 1.9)), "must be integers"),
        (lambda: SyzygySpec(5, 4.0, (1, 2, 3)), "must be integers"),
        (
            lambda: quartic_section(GradedPoly.monomial(F7, 1, (1, 0, 0))),
            "component over the wrong field",
        ),
        (
            lambda: quartic_section(GradedPoly.monomial(F5, 1, (2, 0, 0))),
            "component degree 2 != twist - exponent = 1",
        ),
    ],
    ids=[
        "negative-d", "two-exponents", "exponent-0", "float-exponents", "float-d",
        "other-field", "wrong-degree",
    ],
)
def test_constructors_reject_malformed_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_spec_keeps_numpy_integers_as_ints():
    spec = SyzygySpec(5, np.int64(4), (np.int32(1), np.int64(2), 3))
    assert spec == SyzygySpec(5, 4, (1, 2, 3))
    assert [type(x) for x in (spec.d, *spec.exponents)] == [int] * 4
    assert type(spec.ring.d) is int and spec.ring.hilbert(5) == 18


def test_section_dimensions_near_the_first_section():
    spec = SyzygySpec(5, 11, (10, 10, 10))
    assert section_space_dim(spec, 11) == 1
    assert section_space_dim(spec, 12) == 3


def test_frobenius_compatibility_of_sections():
    base = SyzygySpec(5, 11, (10, 10, 10))
    section = section_space(base, 11)[0]
    e = 1
    pulled = base.frobenius_pullback(e)
    powered = tuple(frobenius_power(s, e) for s in section.components)
    lifted = SectionVector(pulled, 11 * 5**e, powered)  # constructor re-verifies
    assert not lifted.is_zero()


BATTERY = [
    SyzygySpec(2, 5, (2, 2, 2)),
    SyzygySpec(2, 5, (8, 8, 8)),
    SyzygySpec(3, 4, (3, 3, 3)),
    SyzygySpec(3, 4, (2, 3, 5)),
    SyzygySpec(5, 4, (2, 2, 2)),
    SyzygySpec(5, 11, (10, 10, 10)),
    SyzygySpec(7, 6, (3, 1, 2)),
    SyzygySpec(5, 0, (2, 2, 2)),
    SyzygySpec(3, 0, (1, 4, 2)),
    # non-smooth curves (p divides d): the algebra is still defined
    SyzygySpec(2, 4, (2, 2, 2)),
    SyzygySpec(3, 6, (2, 3, 1)),
]


def battery_twists(spec):
    return range(sum(spec.exponents) + 2 * max(spec.exponents) + 1)


def test_dense_structured_equality_battery():
    for spec in BATTERY:
        ring = spec.ring
        for n in battery_twists(spec):
            dense = to_dense(spec, n, dense_kernel(spec, n))
            structured = to_dense(spec, n, _structured_kernel(spec, n))
            assert dense.shape == structured.shape, (spec, n)
            assert np.array_equal(dense, structured), (spec, n)
            # the sections are the rows, and each passes the constructor's
            # own normal-form check, which the batch check does not use
            sections = section_space(spec, n)
            vecs = [np.concatenate([coords(ring, c) for c in s.components]) for s in sections]
            assert np.array_equal(np.reshape(vecs, dense.shape), dense), (spec, n)
            for s in sections:
                assert s == SectionVector(spec, n, s.components), (spec, n)
            assert section_space_dim(spec, n, "dense") == dense.shape[0]
            assert section_space_dim(spec, n, "structured") == dense.shape[0]
            assert has_section(spec, n) == bool(dense.shape[0])
    with pytest.raises(ValueError):
        section_space_dim(BATTERY[0], 5, "sparse")


P31 = 2**31 - 1  # the largest prime the package accepts


# near p = 2^31, kernel entries and binomial residues are full-size, so
# every product in the band convolution is close to 2^62; the twists start
# at the first section and reach blocks that fill both s2 and s3
P31_CASES = [
    (SyzygySpec(P31, 3, (104, 100, 108)), range(156, 160)),  # t = 34, 35
    (SyzygySpec(P31, 1, (40, 41, 43)), range(62, 66)),  # t = 40
    (SyzygySpec(P31, 5, (23, 19, 21)), range(31, 35)),
    (SyzygySpec(P31, 0, (5, 7, 6)), range(11, 15)),  # the plane
]


def test_dense_structured_equality_at_the_largest_prime():
    assert max(binomial_row(34, P31)) > P31 // 2
    for spec, twists in P31_CASES:
        for n in twists:
            dense = to_dense(spec, n, dense_kernel(spec, n))
            assert dense.shape[0], (spec, n)
            assert np.array_equal(to_dense(spec, n, _structured_kernel(spec, n)), dense), (spec, n)


def test_section_views_serialize_as_their_components():
    # a section_space vector serializes from the verified triples; the
    # strings must be the bytes to_string writes for the components it
    # builds on first access, and parse back to them.  The battery and the
    # P31 cases include the plane, Koszul rows (s1 = 0) and components of
    # negative degree; the sections benchmark's 169 ops add 28,867 rows
    cases = [(spec, battery_twists(spec)) for spec in BATTERY] + P31_CASES
    cases += [(spec, [n]) for spec, n in section_ops()]
    for spec, twists in cases:
        field = spec.ring.field
        for n in twists:
            for s in section_space(spec, n):
                text = s.serialize()
                strings = [c.to_string() for c in s.components]
                assert text == strings == s.serialize(), (spec, n)
                for string, c, a in zip(strings, s.components, spec.exponents):
                    assert parse_poly(string, field, n - a) == c, (spec, n)


def test_one_call_writes_its_row_strings_with_one_join(monkeypatch):
    calls = []
    real = bundle.join_rows

    def spy(texts, cuts):
        calls.append(len(cuts) - 1)
        return real(texts, cuts)

    monkeypatch.setattr(bundle, "join_rows", spy)
    spec, n = SyzygySpec(3, 4, (9, 9, 9)), 20
    sections = section_space(spec, n)
    assert len(sections) > 1 and not calls
    text = [s.serialize() for s in sections] + [s.serialize() for s in sections[::-1]]
    assert calls == [3 * len(sections)]  # every component of every row, once
    assert text[: len(sections)] == text[len(sections) :][::-1]
    again = section_space(spec, n)  # a new call joins its own rows
    assert [s.serialize() for s in again[:1]] == text[:1]
    assert calls == [3 * len(sections)] * 2


def test_section_view_before_and_after_its_components_are_read():
    # (Y, -X, 0) on the plane: s3 has degree 2 - 5 < 0
    spec, n = SyzygySpec(5, 0, (1, 1, 5)), 2
    field = spec.ring.field
    expected = ["1*X^0*Y^1*Z^0", "4*X^1*Y^0*Z^0", "0"]
    built = SectionVector(
        spec,
        n,
        (
            GradedPoly.monomial(field, 1, (0, 1, 0)),
            GradedPoly.monomial(field, 4, (1, 0, 0)),
            GradedPoly.zero(field, -3),
        ),
    )
    assert built.serialize() == expected and not built.is_zero()
    (fresh,) = section_space(spec, n)
    assert fresh == built and built == fresh  # == reads the components
    (view,) = section_space(spec, n)
    for _ in range(2):  # the second round runs after components is read
        assert view.serialize() == expected
        assert repr(view) == repr(built) == f"SectionVector(twist=2, {expected})"
        assert not view.is_zero()
        assert view.components == built.components
        assert view.components[2].degree == -3
    assert view == built and view == fresh
    assert view != section_space(spec, n + 1)[0]


def test_section_space_and_serialize_build_no_polynomial(monkeypatch):
    calls = []
    real = GradedPoly._trusted.__func__

    def counted(cls, field, degree, terms):
        calls.append(degree)
        return real(cls, field, degree, terms)

    monkeypatch.setattr(GradedPoly, "_trusted", classmethod(counted))
    spec, n = SyzygySpec(3, 4, (9, 9, 9)), 20
    sections = section_space(spec, n)
    text = [s.serialize() for s in sections]
    assert len(sections) > 1 and not calls
    for k, s in enumerate(sections, 1):
        assert s.components is s.components  # built once, then kept
        assert len(calls) == 3 * k
    assert text == [[c.to_string() for c in s.components] for s in sections]
    assert len(calls) == 3 * len(sections)


def test_structured_rows_match_the_closed_form_dimension():
    # beyond the dense battery's reach: the assembled basis has exactly the
    # closed-form number of rows, one leading 1 per row, in echelon order
    specs = [
        SyzygySpec(2, 5, (16, 16, 16)),
        SyzygySpec(3, 7, (18, 9, 13)),
        SyzygySpec(5, 4, (50, 50, 50)),
        SyzygySpec(7, 6, (49, 49, 49)),
        SyzygySpec(7, 0, (9, 11, 10)),
        SyzygySpec(P31, 3, (104, 100, 108)),
    ]
    for spec in specs:
        a = max(spec.exponents)
        for n in range(a + 1, 3 * a + 2, max(1, a // 6)):
            rows = to_dense(spec, n, _structured_kernel(spec, n))
            assert rows.shape[0] == section_space_dim(spec, n), (spec, n)
            leads = np.argmax(rows != 0, axis=1)
            assert np.all(rows[np.arange(len(rows)), leads] == 1), (spec, n)
            assert np.all(np.diff(leads) > 0), (spec, n)


def test_block_nullity_disagreeing_with_the_closed_form_raises(monkeypatch):
    spec = SyzygySpec(5, 11, (10, 10, 10))
    assert _structured_kernel(spec, 11)[0] == 1
    closed_form = bundle._nullity

    def one_too_many(p, t, A, B, N):
        nullity = closed_form(p, t, A, B, N)
        return nullity + 1 if nullity else 0

    monkeypatch.setattr(bundle, "_nullity", one_too_many)
    bundle.clear_block_cache()  # the check runs when a block is built
    with pytest.raises(InternalCheckError, match="closed form"):
        _structured_kernel(spec, 11)


# (t, A, B, N) = (1, 1, 3, 1) over F_5: band [[1, 0]], kernel [[0, 1]], nullity 1
BANDED = (5, 1, 1, 3, 1)


def test_banded_block_nullity_disagreeing_with_the_closed_form_raises(monkeypatch):
    assert bundle._band_rows(*BANDED[1:]) == (0, 1)  # one band row: not free
    assert _block_entry(*BANDED) is not None
    closed_form = bundle._nullity
    monkeypatch.setattr(bundle, "_nullity", lambda *key: closed_form(*key) + 1)
    bundle.clear_block_cache()  # the check runs when a block is built
    with pytest.raises(InternalCheckError, match=r"^block .* has nullity 1, closed form 2"):
        _block_entry(*BANDED)


def test_kernel_row_outside_the_kernel_fails_the_bad_projection_check(monkeypatch):
    real = bundle._block_kernel
    # (pivots, rows, alphas, values) of the kernel [[0, 1]]
    assert [x.tolist() for x in real(*BANDED[1:], 5)] == [[1], [0], [1], [1]]
    # the unit row at alpha = 0 meets the band's nonzero column
    unit = tuple(np.array([x]) for x in (0, 0, 0, 1))
    monkeypatch.setattr(bundle, "_block_kernel", lambda *args: unit)
    with pytest.raises(InternalCheckError, match="bad-projection of a kernel element is nonzero"):
        _block_entry(*BANDED)


def test_one_corrupted_kernel_entry_makes_section_space_raise(monkeypatch):
    # the batch check shares no code with _structured_kernel, so it catches
    # a wrong entry anywhere in s1, s2 or s3: changing one coordinate by c
    # adds c times a nonzero element of R_n to the relation.  A pick at a
    # nonzero entry changes or removes a triple, a pick at a zero entry adds
    # one; the corrupted matrix goes back to sorted triples either way
    rng = random.Random(2029)
    real = bundle._structured_kernel
    cases = [
        (SyzygySpec(3, 4, (9, 9, 9)), 13),
        (SyzygySpec(2, 5, (4, 4, 4)), 7),
        (SyzygySpec(5, 0, (2, 3, 4)), 7),  # the plane
        (SyzygySpec(5, 7, (2, 3, 4)), 9),  # 35 sections
        (SyzygySpec(P31, 3, (104, 100, 108)), 157),
    ]
    for spec, n in cases:
        p = spec.p
        count, *triples = kernel = real(spec, n)
        rows = to_dense(spec, n, kernel)
        assert len(section_space(spec, n)) == count > 0, (spec, n)
        # one row too many: the extra row is empty, a zero "section"
        bad = (count + 1, *triples)
        monkeypatch.setattr(bundle, "_structured_kernel", lambda *_, bad=bad: bad)
        with pytest.raises(ValueError, match="rows are empty"):
            section_space(spec, n)
        widths = [spec.ring.hilbert(n - a) for a in spec.exponents]
        starts = np.cumsum([0] + widths)
        for var in range(3):
            for _ in range(20 if widths[var] else 0):
                bad = rows.copy()
                r = rng.randrange(len(rows))
                c = starts[var] + rng.randrange(widths[var])
                bad[r, c] = (bad[r, c] + rng.randrange(1, p)) % p
                bad = to_triples(bad)
                monkeypatch.setattr(bundle, "_structured_kernel", lambda *_, bad=bad: bad)
                with pytest.raises(ValueError, match="syzygy relation"):
                    section_space(spec, n)
        bad = rows.copy()
        bad[0, np.flatnonzero(bad[0])[0]] += p  # same residue, out of range
        bad = to_triples(bad)
        monkeypatch.setattr(bundle, "_structured_kernel", lambda *_, bad=bad: bad)
        with pytest.raises(ValueError, match="residues"):
            section_space(spec, n)
        monkeypatch.undo()


def test_kernel_triples_are_sorted_unique_residues():
    specs = [
        (SyzygySpec(3, 4, (9, 9, 9)), range(9, 29, 3)),
        (SyzygySpec(2, 5, (4, 3, 5)), range(4, 14)),
        (SyzygySpec(7, 6, (3, 1, 2)), range(0, 12)),
        (SyzygySpec(5, 0, (2, 3, 4)), range(0, 10)),  # the plane
        (SyzygySpec(P31, 3, (104, 100, 108)), range(156, 160)),
    ]
    for spec, twists in specs:
        for n in twists:
            for method, kernel in (("structured", _structured_kernel), ("dense", dense_kernel)):
                count, rows, cols, values = kernel(spec, n)
                assert len(rows) == len(cols) == len(values), (spec, n, method)
                if not len(rows):
                    continue
                step_r, step_c = np.diff(rows), np.diff(cols)
                assert np.all((step_r > 0) | ((step_r == 0) & (step_c > 0))), (spec, n, method)
                assert 0 <= rows.min() and rows.max() < count, (spec, n, method)
                assert 1 <= values.min() and values.max() < spec.p, (spec, n, method)
                # every row holds its leading 1
                assert np.array_equal(np.unique(rows), np.arange(count)), (spec, n, method)


def _is_banded(t, A, B, N):
    """The block (t, A, B, N) has bad-projection rows (``_band`` is nonempty)."""
    top = N + t + 1
    return max(0, top - B) < min(top, A)


def test_one_block_elimination_per_distinct_block(monkeypatch):
    # blocks repeat across the residue classes of one twist; a cold call
    # eliminates each distinct banded (t, A, B, N) with a kernel once, a
    # block with an empty band never, and a repeat call, which finds every
    # block in the cache, eliminates nothing
    calls = []
    real = bundle._block_kernel

    def counted(t, A, B, N, p):
        calls.append((t, A, B, N))
        return real(t, A, B, N, p)

    monkeypatch.setattr(bundle, "_block_kernel", counted)
    repeats = free = 0
    for spec, n in [
        (SyzygySpec(3, 4, (9, 9, 9)), 20),
        (SyzygySpec(7, 5, (7, 7, 7)), 15),
        (SyzygySpec(2, 5, (16, 16, 16)), 30),
        (SyzygySpec(3, 4, (9, 9, 9)), 13),
        (SyzygySpec(5, 0, (2, 3, 4)), 7),
    ]:
        classes, blocks = bundle._classes(spec, n)
        keys = [blocks[k] for *_ij, k in classes if bundle._nullity(spec.p, *blocks[k]) > 0]
        banded = [key for key in keys if _is_banded(*key)]
        repeats += len(banded) - len(set(banded))
        free += len(keys) - len(banded)
        bundle.clear_block_cache()
        for eliminated in (sorted(set(banded)), []):
            calls.clear()
            section_space(spec, n)
            assert sorted(calls) == eliminated, (spec, n)
    assert repeats and free  # some banded block repeats; some blocks are free


P_BLOCKS = [2, 3, 5, 7, P31]
BLOCK_GRID = list(itertools.product(range(13), range(13), range(13), range(11)))


def _block_oracle(p, banded, count):
    """``_block_entry`` against elimination and the dense band product on a
    seeded sample of ``count`` of the blocks (t, A, B, N), t, A, B <= 12 and
    N <= 10, with an empty or a nonempty band."""
    blocks = [key for key in BLOCK_GRID if _is_banded(*key) == banded]
    for t, A, B, N in random.Random(p).sample(blocks, count):
        got = _block_entry(p, t, A, B, N)
        want = reference_block_entry(p, t, A, B, N)
        assert (got is None) == (want is None), (p, t, A, B, N)
        if got is None:
            continue
        pivots, nonzeros = got
        assert np.array_equal(pivots, want[0]), (p, t, A, B, N)
        # _block_entry leaves its nonzeros unordered; the reference sorts them
        # by (row, component, exponent)
        order = np.lexsort(nonzeros[2::-1])
        for mine, theirs in zip(nonzeros, want[1:]):
            assert np.array_equal(mine[order], theirs), (p, t, A, B, N)


@pytest.mark.parametrize("p", P_BLOCKS)
def test_free_blocks_match_elimination(p):
    _block_oracle(p, banded=False, count=1000)


@pytest.mark.parametrize("p", P_BLOCKS)
def test_banded_blocks_match_elimination(p):
    _block_oracle(p, banded=True, count=1000)


def test_view_components_name_monomials_without_the_basis(monkeypatch):
    # on a fresh ring, section_space and reading every view's components
    # build no basis; the components equal the polynomials named by the
    # basis, across the battery (every other twist) and the P31 cases
    def no_basis(self, n):
        raise AssertionError("reading a view built a basis")

    cases = [(spec, battery_twists(spec)[::2]) for spec in BATTERY] + P31_CASES
    for spec, twists in cases:
        named = FermatRing(spec.p, spec.d)
        for n in twists:
            syzygy._ring.cache_clear()
            with monkeypatch.context() as patched:
                patched.setattr(FermatRing, "basis", no_basis)
                components = [s.components for s in section_space(spec, n)]
            rows = to_dense(spec, n, _structured_kernel(spec, n))
            widths = [named.hilbert(n - a) for a in spec.exponents]
            for row, got in zip(rows, components):
                parts = np.split(row, np.cumsum(widths)[:2])
                want = tuple(named.from_coords(v, n - a) for v, a in zip(parts, spec.exponents))
                assert got == want, (spec, n)


def test_band_guard_refuses_a_band_above_the_limit(monkeypatch):
    spec, n = SyzygySpec(2, 5, (16, 16, 16)), 30
    sizes = []
    real = bundle._band

    def spy(*args):
        band = real(*args)
        sizes.append(band.nbytes)
        return band

    monkeypatch.setattr(bundle, "_band", spy)
    expected = _structured_kernel(spec, n)
    largest = max(sizes)
    monkeypatch.setattr(bundle, "BAND_LIMIT_BYTES", largest)
    kernel = _structured_kernel(spec, n)
    assert all(np.array_equal(a, b) for a, b in zip(kernel[1:], expected[1:]))
    monkeypatch.setattr(bundle, "BAND_LIMIT_BYTES", largest - 1)
    with pytest.raises(BlockTooLargeError, match=f"{largest:,} bytes"):
        section_space(spec, n)


def _band_bytes(t, A, B, N):
    """Bytes of the dense band of the block (t, A, B, N), from its shape."""
    rows = min(N + t, A - 1) - max(0, N + t - B + 1) + 1
    return max(0, rows) * (N + 1) * 8


def test_first_section_is_row_0_of_the_basis():
    # first_section builds row 0 alone; (3, 4, (9, 1, 1)) has twists 2..8
    # whose basis is Koszul rows only, so no class there has a kernel
    ops = [(SyzygySpec(3, 4, (9, 1, 1)), n) for n in range(14)]
    for p, d, exps in ((3, 4, (9, 9, 9)), (2, 5, (3, 4, 5)), (5, 0, (2, 3, 3))):
        spec = SyzygySpec(p, d, exps)
        ops += [(spec, n) for n in range(min(exps), sum(exps) + 2)]
    koszul_only = []  # twists of the no-family branch
    for spec, n in ops + certificate_ops() + list(section_ops()):
        basis = section_space(spec, n)
        if not basis:
            with pytest.raises(ValueError, match=f"twist {n} has no section"):
                first_section(spec, n)
            continue
        first = first_section(spec, n)
        assert first == basis[0] and first.serialize() == basis[0].serialize(), (spec, n)
        if first.components[0].is_zero():
            koszul_only.append((spec.exponents, n))
    assert [n for exps, n in koszul_only if exps == (9, 1, 1)] == list(range(2, 9))


def test_band_guard_on_deep_certificates():
    # the certificate twist of (13, 23, 1, 5) has one banded block, of
    # 497 MiB, under the limit; those of (7, 34, 1, 8) and (13, 27, 1, 6)
    # would need 54 and 60 GB and are refused before anything is allocated
    # (see test_band_guard_runs_before_the_binomial_row)
    for (p, d, a, e), refused in [
        ((13, 23, 1, 5), False),
        ((7, 34, 1, 8), True),
        ((13, 27, 1, 6), True),
    ]:
        aq = a * p**e
        spec = SyzygySpec(p, d, (aq, aq, aq))
        n = first_section_twist(spec, aq + 1, (3 * aq + 1) // 2 - 1)
        _classes, blocks = bundle._classes(spec, n)
        largest = max(_band_bytes(*key) for key in blocks if bundle._nullity(p, *key))
        assert (largest > bundle.BAND_LIMIT_BYTES) == refused, (p, d, a, e)
        if refused:
            with pytest.raises(BlockTooLargeError):
                search_destabilization(p, d, a, e)


def test_band_guard_runs_before_the_binomial_row(monkeypatch):
    # the refused blocks have t = 178,771, 27,651,889 and 459,015,217.  Each
    # cell is refused within 1 s, before any binomial product is formed, and
    # the refusal allocates under 1 MB
    monkeypatch.setattr(bundle, "_times_binomial", lambda *_: pytest.fail("product formed"))
    for p, d, a, e in ((13, 27, 1, 6), (13, 59, 2, 8), (19, 37, 1, 8)):
        tracemalloc.start()
        try:
            with pytest.raises(BlockTooLargeError, match="needs a band of"):
                within(1, search_destabilization, p, d, a, e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (p, d, a, e, peak)


def test_band_is_a_window_on_one_padded_row():
    # the 999 x 1001 band of (t, A, B, N) = (2000, 2000, 2000, 1000) holds
    # 8.0 MB; building it allocates only its padded binomial row and the
    # nonzeros of (1 + x)^t it is read from
    row = binomial_row(2000, 7)
    tracemalloc.start()
    try:
        band = bundle._band(2000, 2000, 2000, 1000, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert band.shape == (999, 1001) and band.nbytes == 999 * 1001 * 8
    assert peak < band.nbytes / 10, peak
    # rows gamma = 1001..1999, columns alpha = 0..1000: entry C(t, gamma - alpha)
    gamma, alpha = np.ogrid[1001:2000, 0:1001]
    assert np.array_equal(band, row[gamma - alpha])
    assert not band.flags.writeable


def test_thin_band_kernel_builds_no_kernel_matrix():
    # twist 8,001 of (1, 1, 30000) over F_2 has the block (1, 1, 30000, 8000):
    # one band row of 8,001 entries (64 KB) and nullity 8,000.  A dense
    # 8,000 x 8,001 kernel matrix would hold 488 MiB; the nonzeros it has are
    # read off the RREF, so each call peaks at a few MiB
    spec, n = SyzygySpec(2, 1, (1, 1, 30000)), 8001
    assert bundle._band_rows(1, 1, 30000, 8000) == (0, 1)
    assert bundle._nullity(2, 1, 1, 30000, 8000) == 8000
    sections = []
    for call in (section_space, first_section):
        bundle.clear_block_cache()
        tracemalloc.start()
        try:
            sections.append(call(spec, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, (call.__name__, peak)
    basis, first = sections
    assert basis[0].serialize() == first.serialize()


def test_block_kernel_eliminates_a_copy_of_the_band():
    # N = 0: the one-column window is contiguous as it stands, yet it is
    # read-only, so the elimination must work on a copy.  C(2, 1) is 0 mod 2
    # (nullity 1: the rank-0 band's one kernel row [1], read off without a
    # pivot) and 2 mod 3 (no kernel), which the elimination scales in place
    one = bundle._block_kernel(2, 2, 2, 0, 2)
    assert [x.tolist() for x in one] == [[0], [0], [0], [1]]
    none = bundle._block_kernel(2, 2, 2, 0, 3)
    assert [x.tolist() for x in none] == [[], [], [], []]
    assert all(x.dtype == np.int64 for x in one + none)


def test_check_syzygies_rejects_malformed_triples():
    spec, n = SyzygySpec(3, 4, (9, 9, 9)), 20
    count, rows, cols, values = _structured_kernel(spec, n)
    width = sum(spec.ring.hilbert(n - a) for a in spec.exponents)
    check = spec.ring.check_syzygies
    check((count, rows, cols, values), n, spec.exponents)  # intact
    k = 5  # an entry with a row and a column change right after it
    assert rows[k] == rows[k + 1]
    dup = np.insert(np.arange(len(rows)), k, k)
    swap = np.arange(len(rows))
    swap[[k, k + 1]] = [k + 1, k]
    zero = values.copy()
    zero[k] = 0
    row_out, col_out = rows.copy(), cols.copy()
    row_out[-1] = count
    col_out[-1] = width
    neg = cols.copy()
    neg[0] = -1
    for bad, match in [
        ((count, rows[dup], cols[dup], values[dup]), "sorted and unique"),
        ((count, rows[swap], cols[swap], values[swap]), "sorted and unique"),
        ((count, rows, cols, zero), "residues"),
        ((count, row_out, cols, values), "outside the shape"),
        ((count, rows, col_out, values), "outside the shape"),
        ((count, rows, neg, values), "outside the shape"),
        ((count - 1, rows, cols, values), "outside the shape"),
        ((count + 1, rows, cols, values), "1 of .* rows are empty"),
        ((count + 1, rows + (rows >= 2), cols, values), "1 of .* rows are empty"),
        ((1, rows[:0], cols[:0], values[:0]), "1 of 1 rows are empty"),
    ]:
        with pytest.raises(ValueError, match=match):
            check(bad, n, spec.exponents)


def _one_value_changed(kernel, k, p):
    """A copy of the triples with entry k's value moved to another residue."""
    count, rows, cols, values = kernel
    values = values.copy()
    values[k] = values[k] % (p - 1) + 1
    return count, rows, cols, values


def _one_nonzero_dropped(kernel, k):
    """A copy of the triples without entry k."""
    count, rows, cols, values = kernel
    keep = np.arange(len(rows)) != k
    return count, rows[keep], cols[keep], values[keep]


def test_check_syzygies_rejects_a_single_corruption_of_every_sections_op():
    # the sections benchmark's 169 kernels: each intact one passes, and a
    # copy with one value changed (p > 2) or one nonzero dropped does not.
    # Either changes the relation by c m g for a monomial m, a generator g
    # and c != 0, which is nonzero in R_n: no such curve has p | d
    rng = random.Random(2029)
    rejected = 0
    for spec, n in section_ops():
        kernel = _structured_kernel(spec, n)
        check = spec.ring.check_syzygies
        check(kernel, n, spec.exponents)
        nnz = len(kernel[1])
        if not nnz:
            continue
        bad = [_one_nonzero_dropped(kernel, rng.randrange(nnz))]
        if spec.p > 2:
            bad.append(_one_value_changed(kernel, rng.randrange(nnz), spec.p))
        for corrupted in bad:
            with pytest.raises(ValueError, match="syzygy relation"):
                check(corrupted, n, spec.exponents)
            rejected += 1
    assert rejected == 251  # 143 ops have a section, 108 of them over p > 2


def test_check_syzygies_runs_without_the_block_construction(monkeypatch):
    # the triples are built first; then every step of the construction
    # raises, and the check still accepts them and rejects a corrupted copy
    kernels = [(spec, n, _structured_kernel(spec, n)) for spec, n in section_ops()]

    def refuse(*_args):
        raise AssertionError("the check reached the kernel's construction")

    for name in ("_block_entry", "_block_kernel", "_band", "_times_binomial"):
        monkeypatch.setattr(bundle, name, refuse)
    for spec, n, kernel in kernels:
        spec.ring.check_syzygies(kernel, n, spec.exponents)
        if len(kernel[1]):
            with pytest.raises(ValueError, match="syzygy relation"):
                spec.ring.check_syzygies(_one_nonzero_dropped(kernel, 0), n, spec.exponents)
    with pytest.raises(AssertionError, match="construction"):
        _structured_kernel(*kernels[0][:2])


def test_all_returned_sections_satisfy_relation():
    # section_space checks the relation for the whole basis at once
    for spec, n, count in [
        (SyzygySpec(3, 4, (9, 9, 9)), 13, 3),
        (SyzygySpec(7, 5, (7, 7, 7)), 10, 0),
        (SyzygySpec(2, 5, (4, 4, 4)), 7, 6),
    ]:
        sections = section_space(spec, n)
        assert len(sections) == count == section_space_dim(spec, n), (spec, n)
        for s in sections:
            assert not s.is_zero()


def test_dim_counts_match_matrix_shape():
    spec = SyzygySpec(5, 11, (50, 50, 50))
    m = syzygy_matrix(spec, 55)
    assert m.array.shape[0] == spec.ring.hilbert(55)
    assert m.cols == 3 * spec.ring.hilbert(5)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_dimension_matches_riemann_roch(p):
    # Fermat rings are Cohen-Macaulay of depth 2, so module syzygies are all
    # of H^0; for n >= max(sum a - 2, max a + d - 2) H^1 vanishes and
    # h^0 = 2 d n - d sum(a) + 2 (1 - g), g = (d - 1)(d - 2) / 2.  This
    # oracle shares no code with either elimination; p | d is included.
    for d in range(1, 8):
        g = (d - 1) * (d - 2) // 2
        for exps in [(1, 1, 1), (2, 2, 2), (3, 3, 3), (2, 3, 4), (5, 1, 2)]:
            spec = SyzygySpec(p, d, exps)
            n0 = max(sum(exps) - 2, max(exps) + d - 2)
            for n in (n0, n0 + 1, n0 + 2, n0 + 5):
                expected = 2 * d * n - d * sum(exps) + 2 * (1 - g)
                assert section_space_dim(spec, n) == expected, (p, d, exps, n)
