"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Everything asserted here is exact arithmetic; the only tolerances are the
wall-clock ceilings stated by the criteria themselves.
"""

import hashlib
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import fermatsyz as fz
from fermatsyz.cli import main as cli_main
from fermatsyz.field import binom_uint
from fermatsyz.linalg import MatrixModP
from kernel_helpers import coords, dense_kernel, to_dense


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:>2} PASS ({elapsed:6.2f}s): {description}")


def test_criterion_1_freshman_dream():
    with criterion(1, "Frobenius power of the Fermat quintic relation"):
        started = time.perf_counter()
        field = fz.PrimeField(5)
        rel = fz.FermatRelation(11, field)
        powered = fz.frobenius_power(rel.poly(), 1)
        expected = (
            fz.GradedPoly.monomial(field, 1, (55, 0, 0))
            + fz.GradedPoly.monomial(field, 1, (0, 55, 0))
            + fz.GradedPoly.monomial(field, 1, (0, 0, 55))
        )
        assert powered == expected
        assert fz.normal_form(powered, rel).is_zero()
        assert time.perf_counter() - started < 1.0


def test_criterion_2_proposition_certificate():
    with criterion(2, "destabilization certificate at (p,a,d) = (5,2,11)"):
        started = time.perf_counter()
        cert = fz.certify_destabilization(5, 2, 11)
        assert cert.e == 2 and cert.k == 5
        assert cert.section.serialize() == [
            "1*X^5*Y^0*Z^0",
            "1*X^0*Y^5*Z^0",
            "1*X^0*Y^0*Z^5",
        ]
        assert cert.degree == -440 < 0
        # independent verification: the stored section lies in the kernel
        # computed from scratch by the dense elimination path at twist 55
        spec = cert.section.spec
        rows = to_dense(spec, 55, dense_kernel(spec, 55))
        assert rows.shape[0] >= 1
        vec = np.concatenate([coords(spec.ring, s) for s in cert.section.components])
        assert (
            MatrixModP(rows, 5).rank()
            == MatrixModP(np.vstack([rows, vec]), 5).rank()
        )
        assert time.perf_counter() - started < 5.0


def test_criterion_3_koszul_floor():
    with criterion(3, "Koszul floor on the projective plane for a = 1..6"):
        started = time.perf_counter()
        for a in range(1, 7):
            spec = fz.SyzygySpec(5, 0, (a, a, a))
            for n in range(2 * a):
                assert fz.section_space_dim(spec, n) == 0, (a, n)
                assert fz.section_space(spec, n) == []
            assert fz.section_space_dim(spec, 2 * a) == 3, a
        assert time.perf_counter() - started < 30.0


def test_criterion_4_hn_bookkeeping():
    with criterion(4, "Harder-Narasimhan data of the (5,2,11) certificate"):
        cert = fz.certify_destabilization(5, 2, 11)
        hn = fz.hn_data(cert)
        assert hn.sub_slope == 0
        assert hn.quotient_slope == (2 * 55 - 150) * 11 == -440
        assert hn.sub_slope + hn.quotient_slope == cert.degree  # exact additivity
        assert hn.normalized_gap == Fraction(88, 5)


def test_criterion_5_deviation_bound():
    with criterion(5, "normalized gap vs closed-form bound, e = 2..4"):
        gap2, bound2 = fz.deviation_lower_bound(5, 2, 2)
        assert gap2 == Fraction(88, 5) and bound2 == 16 and gap2 >= bound2
        gap3, bound3 = fz.deviation_lower_bound(5, 2, 3)
        assert gap3 == Fraction(51 * (250 - 10), 125) == Fraction(2448, 25)
        assert bound3 == 4 * 25 - 4 == 96 and gap3 >= bound3
        gap4, bound4 = fz.deviation_lower_bound(5, 2, 4)
        assert gap4 >= bound4
        assert gap2 < gap3 < gap4 and bound2 < bound3 < bound4


def test_criterion_6_tight_closure_pipeline():
    with criterion(6, "tight-closure verdicts for (5,1,2), (7,1,2), (2,1,2), (5,1,1)"):
        for args, budget in (((5, 1, 2), 1.0), ((7, 1, 2), 1.0)):
            started = time.perf_counter()
            report = fz.tc_counterexample(*args)
            assert report.verdict == "certified", args
            assert time.perf_counter() - started < budget
        report = fz.tc_counterexample(5, 1, 2)
        assert report.p1_class.coefficients[(-3, -14)] == 3

        started = time.perf_counter()
        report = fz.tc_counterexample(2, 1, 2)
        assert report.verdict == "inconclusive"
        assert "ud_ge_bq_plus_p" in report.failing_preconditions
        assert time.perf_counter() - started < 1.0

        started = time.perf_counter()
        report = fz.tc_counterexample(5, 1, 1)
        assert report.verdict == "inconclusive"
        assert "u_minus_1_d_lt_bq" in report.failing_preconditions
        assert time.perf_counter() - started < 1.0


def test_criterion_7_lucas_oracle():
    with criterion(7, "Lucas binomials vs big-integer arithmetic"):
        import math

        for p in (2, 3, 5, 7, 11):
            for n in range(51):
                for k in range(n + 1):
                    assert binom_uint(n, k, p) == math.comb(n, k) % p


MATH_FIELDS = (
    "p", "a", "d", "e", "q", "k", "twist",
    "degree", "slope_sub", "slope_quotient", "normalized_gap", "section",
)


def _mutate(record, rng):
    """One single-field mutation that changes a mathematical quantity."""
    data = json.loads(json.dumps(record))
    field = rng.choice(MATH_FIELDS)
    if field == "p":
        data["p"] = data["p"] * 2  # composite, also breaks q = p^e for e >= 1
    elif field == "normalized_gap":
        gap = Fraction(data["normalized_gap"])
        gap += 1
        data["normalized_gap"] = f"{gap.numerator}/{gap.denominator}"
    elif field == "section":
        idx = rng.randrange(3)
        text = data["section"][idx]
        from fermatsyz.poly import parse_poly

        parsed = parse_poly(text, fz.PrimeField(data["p"]))
        if parsed.is_zero():
            # turn a zero component into a monomial of the right degree
            deg = data["twist"] - data["a"] * data["q"]
            parsed = fz.GradedPoly.monomial(fz.PrimeField(data["p"]), 1, (deg, 0, 0))
        else:
            mono, c = parsed.sorted_terms()[0]
            terms = dict(parsed.terms)
            terms[mono] = (c + 1) % data["p"]
            parsed = fz.GradedPoly(parsed.field, parsed.degree, terms)
        data["section"][idx] = parsed.to_string()
    else:
        data[field] = data[field] + 1
    return data, field


@pytest.fixture(scope="module")
def full_scan(tmp_path_factory):
    out = tmp_path_factory.mktemp("scan") / "grid.jsonl"
    code = cli_main(
        ["scan", "--p", "2,3,5,7", "--d", "4..12", "--a", "1,2,3",
         "--e-max", "3", "--out", str(out)]
    )
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return out, records


def test_grid_scan_bytes_are_pinned(full_scan):
    # the scan output contract: the grid's JSONL is byte-identical from run to
    # run and release to release.  Every record carries tool_version, so a
    # version bump changes this hash on purpose.
    out, _ = full_scan
    assert (
        hashlib.sha256(out.read_bytes()).hexdigest()
        == "222ca4e44975b297263dca81c9aa9f7eb9b651600f58de5c269e1210b1eaad91"
    )


def test_grid_certificates_within_shepherd_barron_bound(full_scan):
    # Shepherd-Barron ("Semi-stability and reduction mod p", Topology 1998):
    # the Frobenius pullback of a semistable rank-2 bundle has
    # mu_max - mu_min <= 2g - 2.  For a certificate at level e that reads
    # 3aq - 2 twist <= d - 3.  Its hypothesis, that level e - 1 is
    # semistable, is not decided by the search, so this is an observed
    # invariant of the grid, not a derived one; equality is reached.
    _, records = full_scan
    certified = [r for r in records if r["outcome"] == "certificate"]
    assert len(certified) == 51
    slack = [r["d"] - 3 - (3 * r["a"] * r["q"] - 2 * r["twist"]) for r in certified]
    assert min(slack) == 0, slack


def test_criterion_8_certificate_round_trip(full_scan, tmp_path, capsys):
    with criterion(8, "100 scan certificates verify; 100 mutations rejected"):
        _, records = full_scan
        assert len(records) == 4 * 9 * 3
        certified = [r for r in records if r["outcome"] == "certificate"]
        assert certified, "grid scan produced no certificates"

        rng = random.Random(20260809)
        sample = [rng.choice(certified) for _ in range(100)]
        for i, rec in enumerate(sample):
            path = tmp_path / f"cert_{i}.json"
            path.write_text(json.dumps(rec, sort_keys=True))
            assert cli_main(["verify", str(path)]) == 0, rec
        capsys.readouterr()

        rejected = 0
        for i in range(100):
            mutated, field = _mutate(rng.choice(certified), rng)
            path = tmp_path / f"mut_{i}.json"
            path.write_text(json.dumps(mutated, sort_keys=True))
            code = cli_main(["verify", str(path)])
            assert code != 0, (field, mutated)
            rejected += 1
        capsys.readouterr()
        assert rejected == 100


def test_criterion_9_scan_determinism(tmp_path, capsys):
    with criterion(9, "byte-identical JSONL across thread counts"):
        out1 = tmp_path / "threads1.jsonl"
        out4 = tmp_path / "threads4.jsonl"
        base = ["scan", "--p", "2,3,5", "--d", "4..9", "--a", "1,2", "--e-max", "2"]
        assert cli_main(base + ["--threads", "1", "--out", str(out1)]) == 0
        assert cli_main(base + ["--threads", "4", "--out", str(out4)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out4.read_bytes()
