import dataclasses
import gzip
import hashlib
import json
import signal
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fermatsyz import poly
from fermatsyz.bundle import SectionVector, SyzygySpec, first_section_twist, section_space
from fermatsyz.errors import (
    BlockTooLargeError,
    ExponentOverflowError,
    InapplicableError,
    InternalCheckError,
    NotPrimeError,
    SmoothnessError,
)
from fermatsyz.field import PrimeField
from fermatsyz.poly import FermatRelation, GradedPoly, normal_form, parse_poly
from fermatsyz.stability import (
    DestabCertificate,
    ParameterChoice,
    certify_destabilization,
    destabilizing_twists,
    deviation_lower_bound,
    find_parameters,
    format_fraction,
    hn_data,
    search_destabilization,
    verify_certificate,
)
from kernel_helpers import (
    coords,
    crafted_certificate,
    dense_kernel,
    dense_section,
    reference_normal_form,
    to_dense,
    within,
)


def test_find_parameters_paper_instance():
    pc = find_parameters(5, 2, 8)
    assert (pc.e, pc.d, pc.q, pc.k, pc.m) == (2, 11, 25, 5, 55)
    # d = a p^(e-1) + 1, so k = p
    assert pc.d == 2 * 5 + 1 and pc.k == pc.p


def test_find_parameters_skips_empty_windows():
    pc = find_parameters(2, 1, 1)
    assert (pc.e, pc.d, pc.k) == (3, 5, 2)


def test_find_parameters_skips_p_multiples():
    # a p^(e-1) = 3 gives window {4}, but p = 2 divides 4
    pc = find_parameters(2, 3, 3)
    assert pc.e == 2  # window (6, 9) -> d = 7
    assert pc.d == 7


def test_destabilizing_twists_is_the_open_window():
    for aq in range(501):
        expected = [n for n in range(2 * aq + 2) if aq < n and 2 * n < 3 * aq]
        assert list(destabilizing_twists(aq)) == expected, aq


def test_records_hold_only_what_defines_them():
    assert [f.name for f in dataclasses.fields(DestabCertificate)] == [
        "p", "a", "d", "e", "twist", "section",
    ]
    assert [f.name for f in dataclasses.fields(ParameterChoice)] == ["p", "a", "d0", "e", "d"]
    cert = certify_destabilization(5, 2, 11)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.twist = 60  # in the window, but the section was built for twist 55


def test_parameter_choice_rejects_d_outside_the_window():
    assert ParameterChoice(5, 2, 8, 2, 11).k == 5  # window (10, 15)
    for d in (10, 15, 16):
        with pytest.raises(InapplicableError):
            ParameterChoice(5, 2, 8, 2, d)
    with pytest.raises(InapplicableError):
        ParameterChoice(5, 2, 11, 2, 11)  # a p^(e-1) = 10 < d0
    with pytest.raises(SmoothnessError):
        ParameterChoice(2, 3, 3, 2, 8)  # window (6, 9), but p divides 8


def test_certificate_rejects_twists_outside_the_window_and_the_plane():
    cert = certify_destabilization(5, 2, 11)  # aq = 50, window 51..74
    for twist in (50, 75):  # aq and ceil(3aq/2)
        with pytest.raises(InternalCheckError, match="outside the window"):
            dataclasses.replace(cert, twist=twist)
    with pytest.raises(InternalCheckError, match="degree is not negative"):
        dataclasses.replace(cert, d=0)


def test_certificate_rejects_a_section_of_another_bundle_or_twist():
    cert = certify_destabilization(5, 2, 11)  # e = 2, twist 55, Syz(X^50, ...) on d = 11
    other = certify_destabilization(5, 2, 12).section  # twist 60 on d = 12
    assert (other.spec.exponents, other.twist) == ((50, 50, 50), 60)
    for changes in ({"section": other}, {"twist": 56}, {"d": 12}):
        with pytest.raises(InternalCheckError, match="certificate section lies in twist"):
            dataclasses.replace(cert, **changes)
    with pytest.raises(InternalCheckError, match="twist 60 of SyzygySpec"):
        DestabCertificate(5, 2, 11, 2, 55, other)
    # a section of Syz(X^50, Y^50, Z^51), the right curve and twist
    spec = SyzygySpec(5, 11, (50, 50, 51))
    with pytest.raises(InternalCheckError, match="exponents=\\(50, 50, 51\\)"):
        dataclasses.replace(cert, section=section_space(spec, 55)[0])


def test_find_parameters_rejects_bad_input():
    with pytest.raises(NotPrimeError):
        find_parameters(6, 1, 1)
    with pytest.raises(InapplicableError):
        find_parameters(5, 0, 1)


def test_entry_points_reject_p_beyond_proven_primality_range():
    # 3215031751 = 151 * 751 * 28351 passes the Miller-Rabin witnesses 2..7
    from fermatsyz.tightclosure import TCParameters

    p = 3215031751
    for call in (
        lambda: find_parameters(p, 3, 5),
        lambda: certify_destabilization(p, 3, 5),
        lambda: search_destabilization(p, 5, 3, 1),
        lambda: deviation_lower_bound(p, 3, 1),
        lambda: TCParameters(p, 1, 1),
    ):
        with pytest.raises(NotPrimeError):
            call()


def test_certify_paper_instance():
    cert = certify_destabilization(5, 2, 11)
    assert (cert.e, cert.q, cert.k, cert.twist) == (2, 25, 5, 55)
    assert cert.degree == -440 < 0
    data = cert.to_json_dict()
    assert data["slope_sub"] == 0 and data["slope_quotient"] == -440
    assert cert.normalized_gap == Fraction(88, 5)
    assert data["smooth"] and not data["inconclusive"]
    assert cert.section.serialize() == [
        "1*X^5*Y^0*Z^0",
        "1*X^0*Y^5*Z^0",
        "1*X^0*Y^0*Z^5",
    ]


def test_certificate_reverifies_against_kernel():
    cert = certify_destabilization(5, 2, 11)
    spec = cert.section.spec
    rows = to_dense(spec, cert.twist, dense_kernel(spec, cert.twist))
    vec = np.concatenate([coords(spec.ring, s) for s in cert.section.components])
    from fermatsyz.linalg import MatrixModP

    assert MatrixModP(rows, 5).rank() == MatrixModP(np.vstack([rows, vec]), 5).rank()


def test_certify_rejects_boundary_degree():
    # 2dp = 3aq exactly: a=2, d=3, p=2 -> dp=6, window needs 2dp < 3aq
    with pytest.raises(InapplicableError):
        certify_destabilization(2, 2, 3)


def test_certify_smoothness_rejection():
    with pytest.raises(SmoothnessError):
        certify_destabilization(5, 2, 10)


def test_certify_no_window():
    with pytest.raises(InapplicableError):
        certify_destabilization(5, 2, 2)  # a >= d: aq >= dp for all e >= 1


def zero_section_certificate():
    spec = certify_destabilization(5, 2, 11).section.spec
    zero = tuple(GradedPoly.zero(PrimeField(5), 55 - a) for a in spec.exponents)
    return DestabCertificate(5, 2, 11, 2, 55, SectionVector(spec, 55, zero))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (zero_section_certificate, InternalCheckError, "certificate section is zero"),
        (
            lambda: search_destabilization(5, 11, 0, 1),
            InapplicableError,
            "need a >= 1, d >= 0, e_max >= 0",
        ),
    ],
    ids=["zero-section", "search-a-0"],
)
def test_stability_rejects_malformed_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_search_finds_fermat_relation_syzygy():
    # d = 11 lies in (aq, 3aq/2) at e = 1 (aq = 10): the curve equation itself
    # is a destabilizing syzygy, earlier than the k = dp - aq construction.
    cert = search_destabilization(5, 11, 2, 2)
    assert cert is not None
    assert (cert.e, cert.twist) == (1, 11)
    assert cert.section.serialize() == [
        "1*X^1*Y^0*Z^0",
        "1*X^0*Y^1*Z^0",
        "1*X^0*Y^0*Z^1",
    ]
    assert cert.degree == (22 - 30) * 11 == -88 < 0
    assert not verify_certificate(cert.to_json_dict())


def _dense_oracle(p, d, a, e_max):
    """Certificate JSON of the first (e, n) of the window with a dense-kernel
    section, built from row 0 of the dense kernel (``dense_section``); or None."""
    for e in range(e_max + 1):
        q = p**e
        spec = SyzygySpec(p, d, (a * q,) * 3)
        for n in range(a * q + 1, (3 * a * q + 1) // 2):
            section = dense_section(spec, n)
            if section is not None:
                return DestabCertificate(p, a, d, e, n, section).to_json_dict()
    return None


def test_search_cross_checks_between_paths():
    cert = search_destabilization(5, 11, 2, 1)
    assert cert is not None and (cert.e, cert.twist) == (1, 11)
    assert cert.to_json_dict() == _dense_oracle(5, 11, 2, 1)
    assert search_destabilization(5, 11, 2, 0) is None  # e = 0 window (3, 2] is empty
    assert _dense_oracle(5, 11, 2, 0) is None


def test_search_methods_agree_on_small_grid():
    # the search against a per-twist scan of the dense reference elimination
    for p in (2, 3):
        for d in (4, 5, 7):
            if d % p == 0:
                continue
            for a in (1, 2):
                cert = search_destabilization(p, d, a, 2)
                expected = _dense_oracle(p, d, a, 2)
                if expected is None:
                    assert cert is None, (p, d, a)
                else:
                    assert (cert.e, cert.twist) == (expected["e"], expected["twist"])
                    assert cert.to_json_dict() == expected, (p, d, a)


def test_deep_certificate_is_built_from_its_family_block():
    # (7, 11, 3) first destabilizes at e = 4, twist 10,802, in a space of
    # dimension 1.  The section is pinned by the sha256 of its serialization
    # as the full structured elimination produced it; building the basis
    # from the kernel blocks alone takes a fraction of a second.
    cert = search_destabilization(7, 11, 3, 4)
    assert (cert.e, cert.twist) == (4, 10802)
    text = json.dumps(cert.section.serialize())
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "8b1e39fd0eafeb7fd4a10ec328b42a5fab3bd7f6df1fff2408baedd3d6c46b93"
    )
    assert verify_certificate(cert.to_json_dict()) == []


def test_certificate_section_equals_the_same_section_rebuilt():
    # cert.section.spec names the bundle the search worked on, so the section
    # read back from its text (as verify rebuilds it) and the first
    # section_space vector at the certificate twist both equal the
    # certificate's section
    cert = search_destabilization(2, 5, 1, 3)
    spec = cert.section.spec
    assert spec == SyzygySpec(cert.p, cert.d, (cert.a,) * 3).frobenius_pullback(cert.e)
    field = PrimeField(cert.p)
    degree = cert.twist - cert.a * cert.q
    parsed = tuple(parse_poly(s, field, degree=degree) for s in cert.section.serialize())
    assert SectionVector(spec, cert.twist, parsed) == cert.section
    assert section_space(spec, cert.twist)[0] == cert.section


def test_search_plane_returns_none():
    assert search_destabilization(5, 0, 2, 2) is None
    assert search_destabilization(3, 0, 1, 3) is None


def test_search_reaches_the_exponent_range_and_stops_there():
    # every level up to a q = 2^61 runs, with no elimination, and finds nothing
    assert search_destabilization(2, 3, 1, 61) is None
    # a = 2 reaches a q = 2^62 at e = 61: raise there, not return None
    with pytest.raises(ExponentOverflowError, match=r"2\*2\^61"):
        search_destabilization(2, 3, 2, 61)
    assert search_destabilization(2, 3, 2, 60) is None


def test_search_smoothness():
    with pytest.raises(SmoothnessError):
        search_destabilization(5, 10, 2, 1)


def test_search_quartic_cube_exponents_immediate():
    # d = 4, a = 3: (X, Y, Z) is a syzygy of (X^3, Y^3, Z^3) in degree 4 = d
    cert = search_destabilization(7, 4, 3, 0)
    assert cert is not None
    assert (cert.e, cert.twist, cert.k) == (0, 4, 1)
    assert not verify_certificate(cert.to_json_dict())


def test_hn_data_bookkeeping():
    cert = certify_destabilization(5, 2, 11)
    hn = hn_data(cert)
    assert hn.sub_slope == 0
    assert hn.quotient_slope == (2 * 55 - 150) * 11 == -440
    assert hn.normalized_gap == Fraction(88, 5)
    assert hn.sub_slope + hn.quotient_slope == cert.degree  # rank-2 additivity


def test_hn_gap_is_twist_invariant():
    # recomputing slopes after any twist shifts both by t*d and cancels in the gap
    cert = certify_destabilization(5, 2, 11)
    t = 7
    d = cert.d
    shifted_sub = 0 + t * d
    shifted_quot = cert.degree + t * d
    assert Fraction(shifted_sub - shifted_quot, cert.q) == cert.normalized_gap


def test_hn_data_requires_monomial_section():
    cert = search_destabilization(5, 11, 2, 1)
    # the search section here is (X, Y, Z) with k = 1: still the monomial
    # shape, so hn_data accepts it
    hn = hn_data(cert)
    assert hn.sub_slope == 0


def test_hn_data_rejects_vanishing_section():
    # (p=2, d=5, a=3) destabilizes through (YZ, XZ, XY) = XYZ times the
    # relation; that section vanishes at the coordinate points, so the
    # subsheaf is not O_C as a subbundle and hn_data refuses
    cert = search_destabilization(2, 5, 3, 1)
    assert cert is not None
    assert cert.section.serialize() == [
        "1*X^0*Y^1*Z^1",
        "1*X^1*Y^0*Z^1",
        "1*X^1*Y^1*Z^0",
    ]
    assert not verify_certificate(cert.to_json_dict())
    with pytest.raises(InapplicableError):
        hn_data(cert)


def test_deviation_lower_bound_values():
    gap, bound = deviation_lower_bound(5, 2, 2)
    assert gap == Fraction(88, 5) and bound == 16
    gap3, bound3 = deviation_lower_bound(5, 2, 3)
    assert gap3 == Fraction(51 * 240, 125) == Fraction(2448, 25)
    assert bound3 == 4 * 25 - 4 == 96
    assert gap3 >= bound3


def test_deviation_monotone_growth():
    values = [deviation_lower_bound(5, 2, e) for e in (2, 3, 4)]
    gaps = [g for g, _ in values]
    bounds = [b for _, b in values]
    assert gaps == sorted(gaps) and len(set(gaps)) == 3
    assert bounds == sorted(bounds) and len(set(bounds)) == 3
    # dominant term a^2 p^(e-1): consecutive ratios approach p
    assert Fraction(bounds[2], bounds[1]) > 4


def test_deviation_window_violation():
    with pytest.raises(InapplicableError):
        deviation_lower_bound(5, 1, 1)  # a p^(e-1) = 1: window (1, 1.5) empty


def test_format_fraction():
    assert format_fraction(Fraction(88, 5)) == "88/5"
    assert format_fraction(Fraction(16)) == "16"
    assert format_fraction(-3) == "-3"


# -- verifier robustness -------------------------------------------------------


def test_verify_accepts_round_trip():
    import json

    cert = certify_destabilization(5, 2, 11)
    data = json.loads(json.dumps(cert.to_json_dict()))
    assert verify_certificate(data) == []


def test_verify_answers_on_a_huge_q_certificate():
    # p = 2, d = 1, e = 40: the X-term of the relation is X^(q + 1), whose
    # rewrite has t = 2^40 + 1 and only four binomials nonzero mod 2; one
    # per v up to t would never finish.  The alarm turns a hang into a failure
    q = 2**40
    f2 = PrimeField(2)
    x = GradedPoly.monomial(f2, 1, (q + 1, 0, 0))
    assert len(normal_form(x, FermatRelation(1, f2)).terms) == 4
    degree = 2 - q
    cert = {
        "schema": 1, "p": 2, "a": 1, "d": 1, "e": 40, "q": q, "k": 1, "twist": q + 1,
        "degree": degree, "slope_sub": 0, "slope_quotient": degree,
        "normalized_gap": format_fraction(Fraction(-degree, q)), "smooth": True,
        "section": ["1*X^1*Y^0*Z^0", "1*X^0*Y^1*Z^0", "1*X^0*Y^0*Z^1"],
    }

    def hang(*_):
        raise TimeoutError("verify_certificate did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        started = time.perf_counter()
        failures = verify_certificate(cert)
        elapsed = time.perf_counter() - started
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 1.0
    # over F_2 mod X + Y + Z the relation leaves Y^q Z + Y Z^q
    assert failures == [
        "syzygy relation fails under normal form: components do not satisfy the syzygy relation"
    ]


DEEP_CERTIFICATE = Path(__file__).parent / "data" / "certificate_13_23_1_5.json.gz"


def test_verify_refuses_a_section_past_the_normal_form_budget():
    # e = 61: X^(2^61 + 1) would expand into 2^31 terms; the bound on the
    # steps comes from the digits of t and nothing is multiplied
    started = time.perf_counter()
    failures = within(2, verify_certificate, crafted_certificate(61))
    assert time.perf_counter() - started < 1.0
    assert failures == [
        "section is too large to check: normal form needs up to 6,442,450,938 steps, "
        "above the budget of 1,048,576"
    ]


def test_normal_form_budget_admits_the_exact_step_counts(monkeypatch):
    # (X^k, Y^k, Z^k) at p = 5, d = 11, aq = 50, k = 5: X^55 = (X^11)^5 and
    # t = 5 has base-5 digits 0, 1, so 1 + 2 steps; Y^55 and Z^55 need none.
    # The budget passes a section that needs exactly it
    cert = certify_destabilization(5, 2, 11).to_json_dict()
    deep = search_destabilization(7, 11, 3, 4).to_json_dict()
    monkeypatch.setattr(poly, "NORMAL_FORM_BUDGET", 3)
    assert verify_certificate(cert) == []
    monkeypatch.setattr(poly, "NORMAL_FORM_BUDGET", 2)
    assert verify_certificate(cert) == [
        "section is too large to check: normal form needs up to 3 steps, above the budget of 2"
    ]
    # the package's deep certificates fit: (7, 11, 3, 4) needs 3,780
    monkeypatch.setattr(poly, "NORMAL_FORM_BUDGET", 3780)
    assert verify_certificate(deep) == []
    monkeypatch.setattr(poly, "NORMAL_FORM_BUDGET", 3779)
    assert verify_certificate(deep) == [
        "section is too large to check: normal form needs up to 3,780 steps, "
        "above the budget of 3,779"
    ]
    # the search refuses a certificate it could not check the same way
    with pytest.raises(BlockTooLargeError, match="needs up to 3,780 steps"):
        search_destabilization(7, 11, 3, 4)


def test_normal_form_budget_admits_the_deep_certificate(monkeypatch):
    # (13, 23, 1, 5), whose certificate block the band guard admits
    # (test_bundle's test_band_guard_on_deep_certificates); its RREF takes
    # minutes, so the certificate is read from a file
    with gzip.open(DEEP_CERTIFICATE) as f:
        cert = json.load(f)
    p, d, a, e = 13, 23, 1, 5
    assert (cert["p"], cert["d"], cert["a"], cert["e"]) == (p, d, a, e)
    aq = a * p**e
    spec = SyzygySpec(p, d, (aq, aq, aq))
    assert first_section_twist(spec, aq + 1, (3 * aq + 1) // 2 - 1) == cert["twist"]
    field = PrimeField(p)
    s1, s2, s3 = (parse_poly(text, field) for text in cert["section"])
    assert (len(s1.terms), len(s2.terms), len(s3.terms)) == (1008, 1540, 1540)
    # every X^(i + aq) of s1 X^aq rewrites with t = 16,143, base-13 digits
    # 10, 6, 4, 7 from the lowest; s2 Y^aq and s3 Z^aq need no rewrite
    assert {(m.i + aq) // d for m in s1.terms} == {16143}
    # the real check, every cross-check and the normal form, in well under
    # a second (term by term it took 5.5 s)
    started = time.perf_counter()
    assert within(10, verify_certificate, cert) == []
    assert time.perf_counter() - started < 1.0
    monkeypatch.setattr(poly, "NORMAL_FORM_BUDGET", 179_149)
    assert verify_certificate(cert) == [
        "section is too large to check: normal form needs up to 179,150 steps, "
        "above the budget of 179,149"
    ]


# -- normal_form against the term-by-term reference ---------------------------


def syzygy_products(spec, components) -> list:
    """s1 X^a1, s2 Y^a2 and s3 Z^a3 of a section of ``spec``."""
    out = []
    for var, (s, a) in enumerate(zip(components, spec.exponents)):
        shift = [0, 0, 0]
        shift[var] = a
        out.append(s * GradedPoly.monomial(s.field, 1, tuple(shift)))
    return out


@pytest.fixture(scope="module")
def oracle_certificates() -> list:
    """Every certificate of the acceptance grid, of perfbench's certify pool
    and of three deep cells, and certify(2^31 - 1, 3, 4)."""
    grid = [
        search_destabilization(p, d, a, 3)
        for p in (2, 3, 5, 7)
        for d in range(4, 13)
        for a in (1, 2, 3)
        if d % p
    ]
    pool = {
        (p, a, find_parameters(p, a, d0).d)
        for p in (2, 3, 5, 7)
        for a in (1, 2, 3)
        for d0 in range(1, 21)
    }
    certs = [c for c in grid if c is not None]
    assert len(certs) == 51
    certs += [certify_destabilization(*key) for key in sorted(pool)]
    cells = ((5, 11, 1, 4), (7, 11, 3, 4), (13, 29, 1, 4))
    certs += [search_destabilization(*cell) for cell in cells]
    certs.append(certify_destabilization(2147483647, 3, 4))
    return certs


def test_normal_form_matches_the_reference_on_every_certificate(oracle_certificates):
    certs = oracle_certificates
    # the pool has sections (X^k, Y^k, Z^k) with k >= d, whose components
    # are not themselves in normal form: (7, 3, 4) has k = 7
    assert any(c.k >= c.d for c in certs) and any(c.p == 2147483647 for c in certs)
    for cert in certs:
        spec = cert.section.spec
        rel = spec.ring.relation
        parts = syzygy_products(spec, cert.section.components)
        for part in parts:
            assert normal_form(part, rel) == reference_normal_form(part, rel), cert
        total = parts[0] + parts[1] + parts[2]
        assert normal_form(total, rel).is_zero() and reference_normal_form(total, rel).is_zero()


def changed_sections(components, terms=None):
    """Copies of ``components`` with one coefficient c raised to c + 1, once
    per term of each component, or once per index in ``terms`` if given."""
    for idx, s in enumerate(components):
        mono_list = sorted(s.terms)
        picks = range(len(mono_list)) if terms is None else [k % len(mono_list) for k in terms]
        for k in picks:
            changed = dict(s.terms)
            changed[mono_list[k]] += 1  # 0 mod p removes the term
            out = list(components)
            out[idx] = GradedPoly(s.field, s.degree, changed)
            yield tuple(out)


def test_changing_any_single_coefficient_breaks_the_relation(oracle_certificates):
    for cert in oracle_certificates:
        spec = cert.section.spec
        for components in changed_sections(cert.section.components):
            with pytest.raises(ValueError, match="do not satisfy the syzygy relation"):
                SectionVector(spec, cert.twist, components)


def test_normal_form_matches_the_reference_on_the_deep_certificate():
    # (13, 23, 1, 5): the reference expands s1 X^aq into 3,107,720 terms
    # (about 4 s); s2 Y^aq and s3 Z^aq are in normal form already
    with gzip.open(DEEP_CERTIFICATE) as f:
        cert = json.load(f)
    aq = 13**5
    spec = SyzygySpec(13, 23, (aq, aq, aq))
    field = PrimeField(13)
    components = tuple(parse_poly(text, field) for text in cert["section"])
    rel = spec.ring.relation
    x, y, z = syzygy_products(spec, components)
    expected = reference_normal_form(x, rel)
    assert normal_form(x, rel) == expected and len(expected.terms) == 3080
    assert normal_form(y, rel) == y and normal_form(z, rel) == z
    assert normal_form(x + y + z, rel).is_zero() and (expected + y + z).is_zero()
    # a change to a coefficient, for a spread of terms of each component
    for changed in changed_sections(components, terms=range(0, 1540, 97)):
        with pytest.raises(ValueError, match="do not satisfy the syzygy relation"):
            SectionVector(spec, cert["twist"], changed)


def test_verify_rejects_tampered_degree():
    cert = certify_destabilization(5, 2, 11).to_json_dict()
    cert["degree"] = 440
    failures = verify_certificate(cert)
    assert failures and any("degree" in f or "slope" in f for f in failures)


def test_verify_rejects_corrupted_coefficient():
    cert = certify_destabilization(5, 2, 11).to_json_dict()
    cert["section"][0] = "2*X^5*Y^0*Z^0"
    failures = verify_certificate(cert)
    assert failures and any("syzygy relation" in f for f in failures)


def test_verify_names_first_failing_check():
    cert = certify_destabilization(5, 2, 11).to_json_dict()
    cert["q"] = 26
    failures = verify_certificate(cert)
    assert failures[0] == "q = 26 != p^e = 25"
    # a JSON boolean is not an integer, and the smooth flag is a boolean
    cert = certify_destabilization(5, 1, 6).to_json_dict()
    assert verify_certificate(cert) == []
    for field, value, message in (
        ("a", True, "field 'a' missing or not an integer"),
        ("slope_sub", False, "field 'slope_sub' missing or not an integer"),
        ("smooth", 1, "smooth flag inconsistent with p | d"),
    ):
        assert verify_certificate(dict(cert, **{field: value}))[0] == message, field


@pytest.mark.parametrize(
    "cell, twist, digest",
    [
        ((5, 11, 1, 4), 935, "942c9379394cd9ff80506eb7ff40cedb582d919119bf3718dddc6868395e793d"),
        ((7, 11, 3, 4), 10802, "7b448089aeedc3d382bcb0ef869b9c0b63e1aab651a91e9651eccc615340ff04"),
        ((13, 29, 1, 4), 42833, "ea867c73fb67b7276c2bcb441812a16f1faef3f43314ade54f95433f9bb4cdd1"),
    ],
    ids=["5-11-1-4", "7-11-3-4", "13-29-1-4"],
)
def test_deep_search_certificates_are_pinned(cell, twist, digest):
    # each certificate's section is the kernel of one banded block of
    # nullity 1: (t, A, B, N) = (57, 57, 57, 28), (655, 655, 655, 327) and
    # (985, 985, 985, 492)
    cert = search_destabilization(*cell)
    assert cert.twist == twist
    text = json.dumps(cert.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
