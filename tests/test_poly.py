import math

import pytest
from hypothesis import given, settings, strategies as st

from fermatsyz import poly as poly_module
from fermatsyz.errors import BlockTooLargeError, ExponentOverflowError
from fermatsyz.field import PrimeField, binom_uint
from fermatsyz.poly import (
    EXP_LIMIT,
    FermatRelation,
    GradedPoly,
    digit_row,
    frobenius_power,
    lucas_terms,
    Monomial,
    make_monomial,
    normal_form,
    parse_poly,
    scaled_power,
)
from kernel_helpers import reference_normal_form

F5 = PrimeField(5)
F2 = PrimeField(2)
F3 = PrimeField(3)


def poly(field, *terms):
    out = GradedPoly.zero(field, terms[0][1][0] + terms[0][1][1] + terms[0][1][2])
    for c, exps in terms:
        out = out + GradedPoly.monomial(field, c, exps)
    return out


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: make_monomial(-1, 0, 0), "negative exponent"),
        (lambda: FermatRelation(0, F5), "curve degree d must be >= 1"),
        (
            lambda: GradedPoly.monomial(F5, 1, (1, 0, 0)) + GradedPoly.monomial(F2, 1, (1, 0, 0)),
            "different prime fields",
        ),
        (
            lambda: normal_form(GradedPoly.monomial(F2, 1, (1, 0, 0)), FermatRelation(4, F5)),
            "different fields",
        ),
    ],
    ids=["negative-exponent", "relation-degree-0", "sum-over-two-fields", "normal-form-two-fields"],
)
def test_poly_rejects_malformed_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_multiply_difference_of_squares():
    x_plus_y = poly(F5, (1, (1, 0, 0)), (1, (0, 1, 0)))
    x_minus_y = poly(F5, (1, (1, 0, 0)), (4, (0, 1, 0)))
    prod = x_plus_y * x_minus_y
    assert prod == poly(F5, (1, (2, 0, 0)), (4, (0, 2, 0)))


def test_multiply_cone_identity_term():
    # X^k * X^aq contributes X^dp with k = dp - aq
    p, d, a, e = 5, 11, 2, 2
    q = p**e
    k = d * p - a * q
    prod = GradedPoly.monomial(F5, 1, (k, 0, 0)) * GradedPoly.monomial(F5, 1, (a * q, 0, 0))
    assert prod == GradedPoly.monomial(F5, 1, (d * p, 0, 0))


def test_multiply_char2():
    f = poly(F2, (1, (2, 0, 0)), (1, (0, 2, 0)))
    assert f * f == poly(F2, (1, (4, 0, 0)), (1, (0, 4, 0)))


def test_multiply_drops_cancelling_terms():
    f = poly(F5, (1, (1, 0, 0)), (4, (0, 1, 0)))  # X - Y
    g = poly(F5, (1, (1, 0, 0)), (1, (0, 1, 0)))  # X + Y
    assert Monomial(1, 1, 0) not in (f * g).terms


def test_frobenius_freshman_dream():
    f = poly(F5, (1, (1, 0, 0)), (1, (0, 1, 0)))
    assert frobenius_power(f, 1) == poly(F5, (1, (5, 0, 0)), (1, (0, 5, 0)))


def test_frobenius_fermat_quintic_power():
    f = poly(F5, (1, (11, 0, 0)), (1, (0, 11, 0)), (1, (0, 0, 11)))
    assert frobenius_power(f, 1) == poly(
        F5, (1, (55, 0, 0)), (1, (0, 55, 0)), (1, (0, 0, 55))
    )


def test_frobenius_agrees_with_repeated_multiply():
    f = poly(F3, (1, (1, 0, 0)), (2, (0, 1, 0)), (1, (0, 0, 1)))
    assert frobenius_power(f, 1) == f * f * f


def test_frobenius_overflow():
    f = GradedPoly.monomial(F5, 1, (2**40, 0, 0))
    with pytest.raises(ExponentOverflowError):
        frobenius_power(f, 12)


def test_scaled_power_is_the_exponent_range_guard():
    assert scaled_power(2, 61) == 2**61
    assert scaled_power(3, 39) == 3**39
    assert scaled_power(5, 0, 7) == 7
    for args in ((2, 61, 2), (3, 40), (2, 62), (2, 10**8)):
        with pytest.raises(ExponentOverflowError, match=r"^a p\^e = \d+\*\d+\^\d+ leaves"):
            scaled_power(*args)
    with pytest.raises(ValueError):
        scaled_power(3, -1)


def test_monomial_overflow_checked():
    with pytest.raises(ExponentOverflowError):
        make_monomial(EXP_LIMIT, 1, 0)


def test_normal_form_relation_itself():
    rel = FermatRelation(11, F5)
    nf = normal_form(GradedPoly.monomial(F5, 1, (11, 0, 0)), rel)
    assert nf == poly(F5, (4, (0, 11, 0)), (4, (0, 0, 11)))  # -Y^11 - Z^11


def test_normal_form_frobenius_power_vanishes():
    rel = FermatRelation(11, F5)
    f = frobenius_power(rel.poly(), 1)
    assert normal_form(f, rel).is_zero()


def monomial_normal_form(p, t):
    """normal_form of X^(2 + 3t) Y mod X^3 + Y^3 + Z^3 over F_p, as a dict."""
    field = PrimeField(p)
    f = GradedPoly.monomial(field, 1, (2 + 3 * t, 1, 0))
    return normal_form(f, FermatRelation(3, field)).terms


def test_normal_form_of_a_monomial_on_both_sides_of_the_row_limit():
    # an even and an odd t: each term is (-1)^t C(t, v), every v with
    # C(t, v) != 0 mod p present
    for p in (5, 7):
        for t in (1024, 1025):
            sign = (-1) ** t
            expected = {
                Monomial(2, 1 + 3 * v, 3 * (t - v)): sign * math.comb(t, v) % p
                for v in range(t + 1)
                if math.comb(t, v) % p
            }
            assert monomial_normal_form(p, t) == expected


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lucas_terms_match_every_binomial_above_the_row_limit(p):
    # normal_form and lucas_terms reach only the v whose base-p digits lie
    # under t's; every other C(t, v) is 0 mod p
    for t in [1025, 1026, 1031, 2000, 2186, 3125, 4095, 4096]:
        binoms = [binom_uint(t, v, p) for v in range(t + 1)]
        expected = [(v, b) for v, b in enumerate(binoms) if b]
        assert list(lucas_terms(t, p)) == expected, (p, t)
        sign = (-1) ** t
        assert monomial_normal_form(p, t) == {
            Monomial(2, 1 + 3 * v, 3 * (t - v)): sign * b % p for v, b in expected
        }, (p, t)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 13]), st.integers(min_value=0, max_value=5000))
def test_lucas_terms_are_the_nonzero_binomials(p, t):
    expected = [(v, b) for v in range(t + 1) if (b := binom_uint(t, v, p))]
    assert list(lucas_terms(t, p)) == expected
    if t < p:  # one digit: its row is every binomial
        assert list(enumerate(digit_row(t, p))) == expected


def test_digit_row_is_one_digit_of_binomials():
    assert digit_row(0, 5) == [1]
    assert digit_row(4, 5) == [1, 4, 6 % 5, 4, 1]
    p = 2**31 - 1
    assert digit_row(40, p) == [math.comb(40, v) % p for v in range(41)]


def test_normal_form_cancels_terms_whose_digits_meet():
    # X^20 Y + X^3 Z^18 + Z^21 mod X^3 + Y^3 + Z^3 over F_2: X^20 Y has
    # t = 6 (110 in binary), 4 terms, X^3 Z^18 has t = 1 and 2, and Z^21
    # stays; X^3 Z^18's group meets Z^21's once its one digit is applied,
    # and its Z^21 = X^0 Y^0 Z^18 (Z^3) cancels
    f = poly(F2, (1, (20, 1, 0)), (1, (3, 0, 18)), (1, (0, 0, 21)))
    rel = FermatRelation(3, F2)
    nf = normal_form(f, rel)
    assert nf == poly(
        F2,
        (1, (2, 1, 18)), (1, (2, 7, 12)), (1, (2, 13, 6)), (1, (2, 19, 0)), (1, (0, 3, 18)),
    )
    assert nf == reference_normal_form(f, rel)
    assert normal_form(GradedPoly.zero(F2, 21), rel).is_zero()


def test_normal_form_single_step():
    rel = FermatRelation(11, F5)
    nf = normal_form(GradedPoly.monomial(F5, 1, (12, 1, 0)), rel)
    assert nf == poly(F5, (4, (1, 12, 0)), (4, (1, 1, 11)))


def random_homogeneous(field, degree, seed_terms):
    terms = {}
    for c, i, j in seed_terms:
        i = i % (degree + 1)
        j = j % (degree + 1 - i)
        mono = (i, j, degree - i - j)
        terms[mono] = (terms.get(mono, 0) + c) % field.p
    return GradedPoly(field, degree, {m: c for m, c in terms.items() if c})


coeff = st.integers(min_value=0, max_value=10**6)
exp = st.integers(min_value=0, max_value=10**6)
term_list = st.lists(st.tuples(coeff, exp, exp), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=40),
    term_list,
)
def test_normal_form_idempotent(p, d, degree, seed_terms):
    field = PrimeField(p)
    rel = FermatRelation(d, field)
    f = random_homogeneous(field, degree, seed_terms)
    nf = normal_form(f, rel)
    assert normal_form(nf, rel) == nf
    assert all(m.i < d for m in nf.terms)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=15),
    term_list,
)
def test_normal_form_kills_multiples_of_relation(p, d, degree, seed_terms):
    field = PrimeField(p)
    rel = FermatRelation(d, field)
    g = random_homogeneous(field, degree, seed_terms)
    assert normal_form(g * rel.poly(), rel).is_zero()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([3, 5]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=10),
    term_list,
    term_list,
)
def test_normal_form_compatible_with_product(p, d, deg_f, deg_g, terms_f, terms_g):
    field = PrimeField(p)
    rel = FermatRelation(d, field)
    f = random_homogeneous(field, deg_f, terms_f)
    g = random_homogeneous(field, deg_g, terms_g)
    lhs = normal_form(f * g, rel)
    rhs = normal_form(normal_form(f, rel) * normal_form(g, rel), rel)
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=6),
    term_list,
)
def test_frobenius_tower(p, e1, e2, degree, seed_terms):
    field = PrimeField(p)
    f = random_homogeneous(field, degree, seed_terms)
    assert frobenius_power(f, e1 + e2) == frobenius_power(frobenius_power(f, e1), e2)


def test_serialization_round_trip():
    f = poly(F5, (3, (2, 0, 1)), (1, (0, 3, 0)), (4, (1, 1, 1)))
    text = f.to_string()
    assert text == "1*X^0*Y^3*Z^0 + 4*X^1*Y^1*Z^1 + 3*X^2*Y^0*Z^1"
    assert parse_poly(text, F5) == f
    assert parse_poly("0", F5, degree=7).is_zero()


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("1*X^2*Y^0*Z^0 + junk", F5)
    with pytest.raises(ValueError):
        parse_poly("1*X^1*Y^0*Z^0 + 1*X^2*Y^0*Z^0", F5)  # inhomogeneous


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 13, 2**31 - 1]),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=300),
    st.lists(st.tuples(coeff, exp, exp), min_size=1, max_size=40),
)
def test_normal_form_matches_the_term_by_term_reference(p, d, degree, seed_terms):
    field = PrimeField(p)
    rel = FermatRelation(d, field)
    f = random_homogeneous(field, degree, seed_terms)
    assert normal_form(f, rel) == reference_normal_form(f, rel)


def test_normal_form_budget_bounds_the_steps_exactly(monkeypatch):
    # X^(3t + 1) over F_2 mod X^3 + Y^3 + Z^3 with t = 2^10 - 1: ten digits
    # 1, and the one group doubles at each, 2 + 4 + ... + 2^10 steps
    rel = FermatRelation(3, F2)
    f = GradedPoly.monomial(F2, 1, (3 * (2**10 - 1) + 1, 0, 0))
    monkeypatch.setattr(poly_module, "NORMAL_FORM_BUDGET", 2**11 - 2)
    assert len(normal_form(f, rel).terms) == 2**10
    monkeypatch.setattr(poly_module, "NORMAL_FORM_BUDGET", 2**11 - 3)
    message = "needs up to 2,046 steps, above the budget of 2,045"
    with pytest.raises(BlockTooLargeError, match=message):
        normal_form(f, rel)


def test_normal_form_budget_caps_a_group_at_its_span(monkeypatch):
    # one group of 100 terms X^(168 d) Y^(alpha d) Z^..., alpha < 100, over
    # F_13: t = 168 has digits 12, 12.  The first digit takes 100 * 13 steps
    # and leaves at most 99 + 12 + 1 = 112 exponents, not 1,300, so the
    # second takes 112 * 13
    field = PrimeField(13)
    rel = FermatRelation(2, field)
    degree = 2 * (168 + 99)
    f = GradedPoly(field, degree, {(2 * 168, 2 * a, degree - 2 * (168 + a)): 1 for a in range(100)})
    monkeypatch.setattr(poly_module, "NORMAL_FORM_BUDGET", 100 * 13 + 112 * 13)
    assert normal_form(f, rel) == reference_normal_form(f, rel)
    monkeypatch.setattr(poly_module, "NORMAL_FORM_BUDGET", 100 * 13 + 112 * 13 - 1)
    with pytest.raises(BlockTooLargeError, match="needs up to 2,756 steps"):
        normal_form(f, rel)
