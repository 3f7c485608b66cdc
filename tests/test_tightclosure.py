import dataclasses
from fractions import Fraction

import pytest

from fermatsyz import tightclosure
from fermatsyz.errors import BlockTooLargeError, InapplicableError, NotPrimeError
from fermatsyz.field import binom_uint
from fermatsyz.tightclosure import (
    CechClassP1,
    TCParameters,
    TCReport,
    cech_class_p1,
    tc_counterexample,
)


def test_formula_star():
    formula = tc_counterexample(5, 1, 2).to_json_dict()["expected_formula"]
    assert formula["ideal"] == ["X^2", "Y^2", "Z^2"]
    assert Fraction(formula["threshold"]) == Fraction(3)
    # (XYZ)^b sits exactly at the critical degree 3a/2 for a = 2b
    b = 3
    formula = tc_counterexample(7, b, 2).to_json_dict()["expected_formula"]
    assert Fraction(3 * b) == Fraction(formula["threshold"])


def test_tc_records_hold_only_what_defines_them():
    assert [f.name for f in dataclasses.fields(TCParameters)] == ["p", "b", "e"]
    assert [f.name for f in dataclasses.fields(TCReport)] == ["params", "p1_class"]
    assert [f.name for f in dataclasses.fields(CechClassP1)] == [
        "degree", "coefficients", "global_sign",
    ]
    report = tc_counterexample(5, 1, 2)
    for record, name in ((report.params, "e"), (report, "params"), (report.p1_class, "degree")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 3)
    # the checks run again on a changed copy
    with pytest.raises(InapplicableError):
        dataclasses.replace(report.params, e=0)


def test_tc_parameters_derivations():
    params = TCParameters(5, 1, 2)
    assert (params.a, params.q, params.d, params.k, params.u, params.m) == (
        2,
        25,
        11,
        5,
        3,
        75,
    )
    assert params.bq == 25
    flags = params.precondition_flags()
    assert flags == {
        "ud_ge_bq_plus_p": True,
        "u_minus_1_d_lt_bq": True,
        "p_not_dividing_u": True,
    }


def test_tc_parameters_validation():
    with pytest.raises(NotPrimeError):
        TCParameters(4, 1, 2)
    with pytest.raises(InapplicableError):
        TCParameters(5, 0, 2)
    with pytest.raises(InapplicableError):
        TCParameters(5, 1, 0)


def test_cech_class_curve_bookkeeping():
    params = TCParameters(5, 1, 2)
    cls = TCReport(params, cech_class_p1(params)).to_json_dict()["curve_class"]
    assert cls["monomial"] == [25, 25, 25]
    assert cls["image_numerator"] == [25, 25, 30]
    # reduced form -Z^30 / (X^25 Y^25), living in H^1(C, O_C(k - bq))
    assert cls["reduced_numerator"] == [0, 0, 30]
    assert cls["reduced_denominator"] == [25, 25]
    assert cls["image_twist"] == params.k - params.bq == -20


def test_cech_class_p1_paper_instance():
    params = TCParameters(5, 1, 2)
    cls = cech_class_p1(params)
    assert cls.degree == 3 * 11 - 50 == -17
    # second summand u * X^((u-1)d - bq) Y^(d - bq) = 3 * X^-3 Y^-14 survives
    assert cls.coefficients[(-3, -14)] == 3
    assert cls.coefficients[(-14, -3)] == 3
    assert len(cls.coefficients) == 2
    assert cls.global_sign == 1  # u = 3: (-1)^(u+1)
    assert not cls.is_zero()


def test_cech_class_p1_extreme_terms_vanish():
    params = TCParameters(5, 1, 2)
    cls = cech_class_p1(params)
    # X^(ud - bq) Y^-bq has X-exponent 8 >= 0: discarded
    assert all(i <= -1 and j <= -1 for (i, j) in cls.coefficients)
    assert all(i + j == cls.degree for (i, j) in cls.coefficients)


def test_cech_class_p1_p7():
    params = TCParameters(7, 1, 2)
    assert (params.d, params.q, params.u) == (15, 49, 4)
    assert (params.u - 1) * params.d == 45 < 49
    cls = cech_class_p1(params)
    assert cls.coefficients[(-4, -34)] == 4  # second summand, 4 != 0 mod 7
    assert cls.global_sign == -1  # u = 4 is even
    assert not cls.is_zero()


def test_tc_counterexample_certified():
    report = tc_counterexample(5, 1, 2)
    assert report.verdict == "certified"
    assert report.failing_preconditions == []
    data = report.to_json_dict()
    assert data["verdict"] == "certified"
    assert {"x_exp": -3, "y_exp": -14, "coeff": 3} in data["surviving_terms"]
    assert data["preconditions"] == {
        "ud_ge_bq_plus_p": True,
        "u_minus_1_d_lt_bq": True,
        "p_not_dividing_u": True,
    }

    assert tc_counterexample(7, 1, 2).verdict == "certified"


def test_tc_counterexample_inconclusive_p2():
    # u = 1: the would-be second summand is an extreme term; ud >= bq + p fails
    report = tc_counterexample(2, 1, 2)
    assert report.verdict == "inconclusive"
    assert "ud_ge_bq_plus_p" in report.failing_preconditions


def test_tc_counterexample_inconclusive_e1():
    report = tc_counterexample(5, 1, 1)
    assert report.verdict == "inconclusive"
    assert "u_minus_1_d_lt_bq" in report.failing_preconditions


def test_tc_smoothness_rejection_at_e1():
    # d = 2b + 1 can be a multiple of p only at e = 1
    from fermatsyz.errors import SmoothnessError

    with pytest.raises(SmoothnessError):
        tc_counterexample(3, 1, 1)
    with pytest.raises(SmoothnessError):
        tc_counterexample(5, 2, 1)


def test_tc_never_certifies_with_failing_flags():
    # scan a parameter spread: verdict certified implies all flags true
    from fermatsyz.errors import SmoothnessError

    for p in (2, 3, 5, 7, 11, 13):
        for b in (1, 2):
            for e in (1, 2, 3):
                try:
                    report = tc_counterexample(p, b, e)
                except SmoothnessError:
                    assert e == 1 and (2 * b + 1) % p == 0
                    continue
                if report.verdict == "certified":
                    assert all(report.preconditions.values())
                    assert not report.p1_class.is_zero()
                else:
                    assert report.failing_preconditions
                # the curve class lives in H^1(C, O_C(m + k - 2aq)), m + k - 2aq = k - bq,
                # and cancelling X^bq Y^bq leaves -Z^(bq+k)
                params, data = report.params, report.to_json_dict()
                curve = data["curve_class"]
                assert curve["image_twist"] == params.k - params.bq
                x, y, z = curve["monomial"]
                assert curve["reduced_numerator"] == [
                    x - params.bq, y - params.bq, z + params.k
                ] == [0, 0, params.bq + params.k]
                # every surviving projective-line term has degree ud - 2bq
                degree = params.u * params.d - 2 * params.bq
                assert data["class_degree"] == report.p1_class.degree == degree
                assert all(i + j == degree for (i, j) in report.p1_class.coefficients)


def test_tc_second_summand_coefficient_is_u():
    # whenever both exponents of the second summand are negative its
    # coefficient is exactly u mod p
    for p, b, e in ((5, 1, 2), (7, 1, 2), (11, 1, 2), (5, 2, 2), (13, 3, 2)):
        params = TCParameters(p, b, e)
        cls = cech_class_p1(params)
        i = (params.u - 1) * params.d - params.bq
        j = params.d - params.bq
        if i <= -1 and j <= -1:
            assert cls.coefficients.get((i, j), 0) == params.u % p


def test_cech_class_p1_is_refused_past_the_budget_from_its_count(monkeypatch):
    # at p = 100,003, b = e = 1 the surviving v are the 16,667 of
    # [u - m, m], m = (bq - 1) // d; a budget one below that refuses the
    # class, and at that count it is built, every term in the window
    params = TCParameters(100003, 1, 1)
    u, d, bq = params.u, params.d, params.bq
    window = [v for v in range(u + 1) if v * d < bq and (u - v) * d < bq]
    assert len(window) == 16667
    monkeypatch.setattr(tightclosure, "NORMAL_FORM_BUDGET", len(window) - 1)
    with pytest.raises(BlockTooLargeError, match="the class has 16,667 terms"):
        cech_class_p1(params)
    monkeypatch.setattr(tightclosure, "NORMAL_FORM_BUDGET", len(window))
    cls = cech_class_p1(params)
    assert sorted(cls.coefficients) == sorted((v * d - bq, (u - v) * d - bq) for v in window)
    for v in window[:3] + window[len(window) // 2 :][:3] + window[-3:]:
        assert cls.coefficients[(v * d - bq, (u - v) * d - bq)] == binom_uint(u, v, params.p)
