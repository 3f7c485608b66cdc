import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fermatsyz import bundle, cli
from fermatsyz.cli import _parse_int_list, main
from fermatsyz.errors import ExponentOverflowError, FermatSyzError
from kernel_helpers import crafted_certificate, within


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_int_list():
    assert _parse_int_list("5") == [5]
    assert _parse_int_list("2,3,5,7") == [2, 3, 5, 7]
    assert _parse_int_list("4..7") == [4, 5, 6, 7]
    assert _parse_int_list("2,5..7") == [2, 5, 6, 7]
    with pytest.raises(ValueError, match="empty range '12..4'"):
        _parse_int_list("12..4,5")


def test_certify_with_d0(capsys):
    code, out, _ = run_cli(capsys, "certify", "--p", "5", "--a", "2", "--d0", "8")
    assert code == 0
    data = json.loads(out)
    assert (data["e"], data["d"], data["k"], data["degree"]) == (2, 11, 5, -440)
    assert data["schema"] == 1


def test_certify_with_explicit_d(capsys):
    code, out, _ = run_cli(capsys, "certify", "--p", "5", "--a", "2", "--d", "11")
    assert code == 0
    assert json.loads(out)["twist"] == 55


def test_certify_smoothness_exit_2(capsys):
    code, out, _ = run_cli(capsys, "certify", "--p", "5", "--a", "2", "--d", "10")
    assert code == 2
    assert "not smooth" in json.loads(out)["reason"]


def test_certify_composite_p_exit_1(capsys):
    code, _, err = run_cli(capsys, "certify", "--p", "4", "--a", "2", "--d0", "8")
    assert code == 1
    assert "not prime" in err


def test_certify_requires_exactly_one_of_d_d0(capsys):
    code, _, err = run_cli(capsys, "certify", "--p", "5", "--a", "2")
    assert code == 1
    code, _, err = run_cli(
        capsys, "certify", "--p", "5", "--a", "2", "--d", "11", "--d0", "8"
    )
    assert code == 1


def test_usage_error_exit_1(capsys):
    assert main(["certify", "--p", "notanint", "--a", "2", "--d", "11"]) == 1
    # scan has no --method: the search has one elimination path
    assert main(["scan", "--p", "3", "--d", "4", "--method", "dense", "--out", "x.jsonl"]) == 1


def test_scan_grid_and_verify(tmp_path, capsys):
    out = tmp_path / "scan.jsonl"
    code, stdout, _ = run_cli(
        capsys,
        "scan",
        "--p", "2,3,5,7",
        "--d", "5..12",
        "--a", "2",
        "--e-max", "1",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 32  # 4 x 8 grid
    records = [json.loads(line) for line in lines]
    # deterministic grid order
    assert [(r["p"], r["d"]) for r in records] == [
        (p, d) for p in (2, 3, 5, 7) for d in range(5, 13)
    ]
    for rec in records:
        assert rec["schema"] == 1 and rec["record"] == "scan"
        if rec["d"] % rec["p"] == 0:
            assert rec["outcome"] == "skipped" and rec["smooth"] is False
        else:
            assert rec["outcome"] in ("certificate", "none")
        if rec["outcome"] == "certificate":
            assert rec["inconclusive"] is False
        else:
            assert rec["inconclusive"] is True
    assert "wrote 32 records" in stdout

    # offline verification of everything the scan emitted
    code, stdout, _ = run_cli(capsys, "verify", str(out))
    assert code == 0
    assert "verified" in stdout


def test_scan_determinism_across_thread_counts(tmp_path, capsys):
    out1 = tmp_path / "t1.jsonl"
    out4 = tmp_path / "t4.jsonl"
    base = ["scan", "--p", "2,3", "--d", "4..7", "--a", "1,2", "--e-max", "2"]
    assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(base + ["--threads", "4", "--out", str(out4)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out4.read_bytes()


def test_scan_timings_flag_adds_field(tmp_path, capsys):
    out = tmp_path / "timed.jsonl"
    assert main(
        ["scan", "--p", "3", "--d", "4", "--a", "1", "--e-max", "0",
         "--out", str(out), "--timings"]
    ) == 0
    capsys.readouterr()
    rec = json.loads(out.read_text().splitlines()[0])
    assert "timing_ms" in rec


def test_verify_single_certificate_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "certify", "--p", "5", "--a", "2", "--d0", "8")
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    code, stdout, _ = run_cli(capsys, "verify", str(cert_path))
    assert code == 0 and stdout.startswith("OK")


def test_verify_rejects_mutation(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "certify", "--p", "5", "--a", "2", "--d0", "8")
    data = json.loads(out)
    data["degree"] = 440
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, stdout, _ = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert stdout.startswith("FAIL")


def test_verify_malformed_json_exit_1(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    # bytes that are not UTF-8, and nesting deeper than the decoder recurses,
    # as one document and as a JSONL line: one error line each, no traceback
    _, cert, _ = run_cli(capsys, "certify", "--p", "5", "--a", "2", "--d0", "8")
    deep = "[" * 200_000 + "]" * 200_000
    for content, message in (
        (b"\xff{}", f"error: cannot read {path}: "),
        (deep.encode(), f"error: {path} is not valid JSON: "),
        (f"{json.dumps(json.loads(cert))}\n{deep}\n".encode(), "error: line 2 is not valid JSON: "),
    ):
        path.write_bytes(content)
        code, stdout, err = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert err.startswith(message) and err.count("\n") == 1


def test_verify_jsonl_reads_past_a_line_that_is_not_an_object(tmp_path, capsys):
    _, cert, _ = run_cli(capsys, "certify", "--p", "5", "--a", "2", "--d0", "8")
    line = json.dumps(json.loads(cert))
    path = tmp_path / "mixed.jsonl"
    path.write_text(f"{line}\n[1]\n{line}\n{{not json\n")
    code, stdout, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert stdout.splitlines() == [
        f"OK {path}:1",
        f"OK {path}:3",
        "2 malformed line(s); 0 of 2 certificate(s) failed",
    ]
    assert err.splitlines()[0] == "error: line 2 is not a JSON object"
    assert err.splitlines()[1].startswith("error: line 4 is not valid JSON: ")
    assert len(err.splitlines()) == 2


def test_verify_jsonl_ends_lines_at_newlines_only(tmp_path, capsys):
    # a raw U+2028 inside a JSON string, as ensure_ascii=False writes it,
    # neither ends the line nor shifts the later line numbers
    _, cert, _ = run_cli(capsys, "certify", "--p", "5", "--a", "2", "--d0", "8")
    note = json.dumps({"outcome": "none", "note": "a\u2028b"}, ensure_ascii=False)
    assert "\u2028" in note
    path = tmp_path / "scan.jsonl"
    path.write_text(f'{note}\n{{"outcome":"skipped"}}\n', encoding="utf-8")
    assert run_cli(capsys, "verify", str(path)) == (0, "verified 0 certificate(s)\n", "")
    path.write_text(f"{note}\n{json.dumps(json.loads(cert))}\n", encoding="utf-8")
    code, stdout, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert stdout.splitlines() == [f"OK {path}:2", "verified 1 certificate(s)"]


@pytest.mark.parametrize("p, d, outcome", [("2", "6", "skipped"), ("3", "5", "none")])
def test_verify_of_a_scan_whose_one_record_has_no_certificate(tmp_path, capsys, p, d, outcome):
    # p = 2 divides d = 6, so the curve is skipped; (3, 5, 1) finds nothing
    # up to e_max: the one record verifies nothing, as inside a longer scan
    path = tmp_path / "one.jsonl"
    assert run_cli(capsys, "scan", "--p", p, "--d", d, "--a", "1", "--out", str(path))[0] == 0
    assert json.loads(path.read_text())["outcome"] == outcome
    assert run_cli(capsys, "verify", str(path)) == (0, "verified 0 certificate(s)\n", "")


@pytest.mark.parametrize("text", ["", " \n\r\n\t\n"], ids=["empty", "whitespace"])
def test_verify_of_a_file_without_a_record_fails(tmp_path, capsys, text):
    # a scan cut before its first record has verified nothing
    path = tmp_path / "scan.jsonl"
    path.write_text(text)
    assert run_cli(capsys, "verify", str(path)) == (
        1,
        "",
        f"error: {path} holds no JSON record\n",
    )


def test_verify_jsonl_skips_blank_lines(tmp_path, capsys):
    _, cert, _ = run_cli(capsys, "certify", "--p", "5", "--a", "2", "--d0", "8")
    line = json.dumps(json.loads(cert))
    path = tmp_path / "gaps.jsonl"
    path.write_text(f"\n{line}\n  \n\r\n{line}\n\n")
    code, stdout, err = run_cli(capsys, "verify", str(path))
    assert code == 0 and err == ""
    assert stdout.splitlines() == [f"OK {path}:2", f"OK {path}:5", "verified 2 certificate(s)"]


def test_verify_zero_section_fails(tmp_path, capsys):
    path = _certificate_file(tmp_path, capsys, section=["0", "0", "0"])
    code, stdout, _ = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert stdout == f"FAIL {path}: section is zero\n"


def test_verify_missing_file_exit_1(capsys):
    code, _, err = run_cli(capsys, "verify", "/nonexistent/file.json")
    assert code == 1


def test_deviation_cli(capsys):
    code, out, _ = run_cli(capsys, "deviation", "--p", "5", "--a", "2", "--e", "2")
    assert code == 0
    data = json.loads(out)
    assert data["gap"] == "88/5" and data["bound"] == "16"
    assert data["gap_ge_bound"] is True


def test_deviation_inapplicable_exit_2(capsys):
    code, out, _ = run_cli(capsys, "deviation", "--p", "5", "--a", "1", "--e", "1")
    assert code == 2
    assert json.loads(out)["applicable"] is False


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("certify", "--p", "5", "--a", "0", "--d", "11"), "need a >= 1 and d >= 1"),
        (("deviation", "--p", "5", "--a", "2", "--e", "0"), "need e >= 1 and a >= 1"),
        # p divides a p^(e-1) + 1 exactly when e = 1 and p divides a + 1
        (("deviation", "--p", "2", "--a", "3", "--e", "1"), "p divides d = a p^(e-1) + 1 = 4"),
        (("deviation", "--p", "5", "--a", "4", "--e", "1"), "p divides d = a p^(e-1) + 1 = 5"),
    ],
    ids=["certify-a-0", "deviation-e-0", "deviation-p-2-divides-d", "deviation-p-5-divides-d"],
)
def test_inapplicable_arguments_exit_2(capsys, argv, reason):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out)["reason"] == reason


def test_tc_cli_certified(capsys):
    code, out, _ = run_cli(capsys, "tc", "--p", "5", "--b", "1", "--e", "2")
    assert code == 0
    assert json.loads(out)["verdict"] == "certified"


def test_tc_cli_inconclusive_exit_2(capsys):
    code, out, _ = run_cli(capsys, "tc", "--p", "2", "--b", "1", "--e", "2")
    assert code == 2
    assert json.loads(out)["verdict"] == "inconclusive"


def test_tc_bytes_match_the_benchmark_pins(capsys):
    # [exit code, sha256(stdout)[:16]] of every tc call the records workload
    # makes, as pinned in the benchmark's expected outputs (read only)
    expected = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "expected.json"
    results = json.loads(expected.read_text())["records"]["results"]
    pins = {key: value for key, value in results.items() if key.startswith("tc,")}
    triples = [(p, b, e) for p in (2, 3, 5, 7, 11) for b in (1, 2, 3) for e in (1, 2, 3)]
    assert sorted(pins) == sorted(f"tc,{p},{b},{e}" for p, b, e in triples)
    for p, b, e in triples:
        code, out, _ = run_cli(capsys, "tc", "--p", str(p), "--b", str(b), "--e", str(e))
        digest = hashlib.sha256(out.encode()).hexdigest()[:16]
        assert [code, digest] == pins[f"tc,{p},{b},{e}"], (p, b, e)


def test_tc_class_grows_linearly_with_p(capsys):
    # u = (p + 1) / 2 < p, so every C(u, v) is nonzero mod p and each v of the
    # window survives; the class is built term by term, not binomial by binomial
    p = 100003
    code, out, _ = within(5, run_cli, capsys, "tc", "--p", str(p), "--b", "1", "--e", "1")
    assert code == 2
    data = json.loads(out)
    u, d, bq = data["u"], data["d"], data["b"] * data["q"]
    window = [v for v in range(u + 1) if v * d < bq and (u - v) * d < bq]
    assert len(data["surviving_terms"]) == len(window) > 10**4


def test_python_dash_m_runs_the_cli(capsys):
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    for p, code in (("5", 0), ("2", 2)):
        argv = ["tc", "--p", p, "--b", "1", "--e", "2"]
        done = subprocess.run(
            [sys.executable, "-m", "fermatsyz.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == code, done.stderr
        assert done.stdout == run_cli(capsys, *argv)[1]


@pytest.mark.parametrize("ps", ["0", "4", "3,4", "3215031751"])
def test_scan_rejects_non_prime_p_before_writing(tmp_path, capsys, ps):
    # unchecked, p = 0 would divide by zero and p = 4 would pass as a skipped cell
    out = tmp_path / "x.jsonl"
    code, _, err = run_cli(capsys, "scan", "--p", ps, "--d", "4", "--out", str(out))
    assert code == 1
    assert err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--p", "3215031751", "--a", "3", "--d", "5"],
        ["certify", "--p", "3215031751", "--a", "3", "--d0", "5"],
        ["deviation", "--p", "3215031751", "--a", "3", "--e", "1"],
        ["tc", "--p", "3215031751", "--b", "1", "--e", "1"],
    ],
)
def test_p_beyond_proven_primality_range_exit_1(capsys, argv):
    # 3215031751 = 151 * 751 * 28351 passes the Miller-Rabin witnesses
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == "" and "2^31" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["tc", "--p", "2", "--b", "1", "--e", "20000"],
        ["tc", "--p", "3", "--b", "1", "--e", "10000000"],
        ["tc", "--p", "2", "--b", "1", "--e", "61"],  # 3bq = 3 * 2^61
        ["tc", "--p", "2", "--b", "1" + "0" * 3000, "--e", "1"],
        ["deviation", "--p", "2", "--a", "1" + "0" * 3000, "--e", "2"],
        ["deviation", "--p", "3", "--a", "1", "--e", "10000000"],
        ["deviation", "--p", "2", "--a", "1", "--e", "62"],
        ["deviation", "--p", "2", "--a", "3", "--e", "61"],  # aq = 3 * 2^61
    ],
)
def test_exponents_beyond_64_bits_exit_1_at_once(capsys, argv):
    # refused before any power is formed or printed: no traceback from the
    # int-to-string limit and no seconds spent on p^e
    started = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - started < 0.5
    assert code == 1
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


def _certificate_file(tmp_path, capsys, **changes):
    code, out, _ = run_cli(capsys, "certify", "--p", "5", "--a", "2", "--d0", "8")
    data = json.loads(out)
    data.update(changes)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    return path


def test_verify_rejects_p_beyond_proven_primality_range(tmp_path, capsys):
    path = _certificate_file(tmp_path, capsys, p=3215031751)
    code, stdout, _ = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert stdout == f"FAIL {path}: p = 3215031751 is not below 2^31\n"


def test_verify_non_string_section_fails(tmp_path, capsys):
    path = _certificate_file(tmp_path, capsys, section=[1, 2, 3])
    code, stdout, _ = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert stdout.startswith("FAIL") and "'section'" in stdout


def test_verify_huge_e_fails_without_computing_the_power(tmp_path, capsys):
    # p^e for e = 10^8 would take far longer than the check itself
    path = _certificate_file(tmp_path, capsys, e=10**8)
    started = time.perf_counter()
    code, stdout, _ = run_cli(capsys, "verify", str(path))
    assert time.perf_counter() - started < 0.5
    assert code == 2
    assert stdout == f"FAIL {path}: q = 25 != p^e = 5^100000000\n"
    # below 62 the message keeps the computed power, also for e >= bit_length(q)
    for e, power in ((3, 125), (5, 3125)):
        path = _certificate_file(tmp_path, capsys, e=e)
        code, stdout, _ = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert stdout == f"FAIL {path}: q = 25 != p^e = {power}\n"


def test_verify_jsonl_reports_every_failing_line(tmp_path, capsys):
    out = tmp_path / "scan.jsonl"
    argv = ["scan", "--p", "3,5", "--d", "4..8", "--a", "1,2", "--e-max", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    certs = [k for k, line in enumerate(lines) if json.loads(line)["outcome"] == "certificate"]
    assert len(certs) >= 3
    for k in certs[:2]:
        rec = json.loads(lines[k])
        rec["degree"] += 1
        lines[k] = json.dumps(rec)
    # a section exponent and an exponent aq at 2^62 overflow the checked
    # range: each is one failing record, and the records after it are read
    rec = json.loads(lines[certs[2]])
    rec["section"] = [f"1*X^{2**62}*Y^0*Z^0"] + rec["section"][1:]
    lines.insert(0, json.dumps(rec))
    # p = 2, a = 1, d = 3, e = 62: every cross-check holds, aq = 2^62
    aq, k = 2**62, 3
    degree = (2 * k - aq) * 3
    lines.insert(1, json.dumps(dict(
        rec, p=2, a=1, d=3, e=62, q=aq, k=k, twist=aq + k, smooth=True,
        degree=degree, slope_quotient=degree, normalized_gap=str(Fraction(-degree, aq)),
        section=[f"1*X^{k}*Y^0*Z^0", f"1*X^0*Y^{k}*Z^0", f"1*X^0*Y^0*Z^{k}"],
    )))
    certs = [0, 1] + [k + 2 for k in certs]
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code, stdout, err = run_cli(capsys, "verify", str(out))
    assert code == 2 and err == ""
    fails = [line for line in stdout.splitlines() if line.startswith("FAIL")]
    assert [line.split(": ")[0] for line in fails] == [
        f"FAIL {out}:{k + 1}" for k in certs[:4]
    ]
    assert "2^62" in fails[0] and fails[1].endswith("aq = 1*4611686018427387904 is not below 2^62")
    assert stdout.count("\nOK ") + stdout.startswith("OK ") == len(certs) - 4
    assert stdout.endswith(f"4 of {len(certs)} certificate(s) failed\n")


def test_verify_refuses_a_section_past_the_normal_form_budget_and_reads_on(tmp_path, capsys):
    # p = 2, a = 1, d = 3, e = 61, section (X, Y, Z): its normal form would
    # expand X^(2^61 + 1) into 2^31 terms; verify refuses it at once, alone
    # and as one line of a file whose other lines are still checked
    crafted = crafted_certificate(61)
    reason = (
        "section is too large to check: normal form needs up to 6,442,450,938 steps, "
        "above the budget of 1,048,576"
    )
    single = tmp_path / "crafted.json"
    single.write_text(json.dumps(crafted))
    started = time.perf_counter()
    code, stdout, _ = within(2, run_cli, capsys, "verify", str(single))
    assert time.perf_counter() - started < 1.0
    assert code == 2 and stdout == f"FAIL {single}: {reason}\n"
    _, good, _ = run_cli(capsys, "certify", "--p", "5", "--a", "2", "--d0", "8")
    good = json.dumps(json.loads(good))
    lines = tmp_path / "mixed.jsonl"
    lines.write_text(f"{good}\n{json.dumps(crafted)}\n{good}\n")
    started = time.perf_counter()
    code, stdout, err = within(2, run_cli, capsys, "verify", str(lines))
    assert time.perf_counter() - started < 1.0
    assert code == 2 and err == ""
    assert stdout.splitlines() == [
        f"OK {lines}:1",
        f"FAIL {lines}:2: {reason}",
        f"OK {lines}:3",
        "1 of 3 certificate(s) failed",
    ]


@pytest.mark.parametrize(
    "d, a, e_max",
    [("4,5", "1,0", "1"), ("4,-1", "1", "1"), ("4", "1", "-1")],
)
def test_scan_rejects_bad_ranges_before_writing(tmp_path, capsys, d, a, e_max):
    out = tmp_path / "x.jsonl"
    code, stdout, err = run_cli(
        capsys, "scan", "--p", "3", "--d", d, "--a", a, "--e-max", e_max, "--out", str(out)
    )
    assert code == 1
    assert stdout == "" and err == "error: need a >= 1, d >= 0, e_max >= 0\n"
    assert not out.exists()


def test_scan_rejects_an_empty_range_before_writing(tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    code, stdout, err = run_cli(capsys, "scan", "--p", "3", "--d", "5..4", "--out", str(out))
    assert code == 1
    assert stdout == "" and err == "error: empty range '5..4'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "p, a, e_max",
    [
        ("2", "1", "70"),
        ("2", "1", "62"),
        ("3,2", "1,2", "61"),
        ("7", "1", "23"),
        ("3", "4611686018427387904", "0"),  # a itself is 2^62
    ],
)
def test_scan_rejects_e_max_beyond_exponent_range_before_writing(tmp_path, capsys, p, a, e_max):
    # some listed (p, a) reaches a p^e >= 2^62 within e_max, even where
    # every cell would certify at an earlier level
    out = tmp_path / "x.jsonl"
    code, stdout, err = run_cli(
        capsys, "scan", "--p", p, "--d", "3,5", "--a", a, "--e-max", e_max, "--out", str(out)
    )
    assert code == 1
    assert stdout == "" and err.startswith(f"error: --e-max {e_max} is too large")
    assert err.endswith("leaves the 64-bit range; use smaller inputs\n")
    assert not out.exists()


def test_scan_runs_to_the_last_level_in_range(tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    code, _, _ = run_cli(
        capsys, "scan", "--p", "2", "--d", "3", "--a", "1", "--e-max", "61", "--out", str(out)
    )
    assert code == 0
    assert json.loads(out.read_text())["outcome"] == "none"


def test_scan_searches_the_plane(tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    code, _, _ = run_cli(
        capsys, "scan", "--p", "3", "--d", "0", "--a", "1,2", "--e-max", "2", "--out", str(out)
    )
    assert code == 0
    for line in out.read_text().splitlines():
        rec = json.loads(line)
        assert (rec["outcome"], rec["smooth"], rec["inconclusive"]) == ("none", True, True)


def test_verify_huge_integer_exit_1(tmp_path, capsys):
    # json.loads refuses integers of more than 4,300 digits with a plain
    # ValueError; verify must report invalid JSON, not a traceback
    huge = "1" + "0" * 5000
    single = tmp_path / "cert.json"
    single.write_text('{"schema": 1, "q": ' + huge + "}")
    code, stdout, err = run_cli(capsys, "verify", str(single))
    assert code == 1
    assert stdout == "" and err.startswith(f"error: {single} is not valid JSON")
    lines = tmp_path / "scan.jsonl"
    _, cert, _ = run_cli(capsys, "certify", "--p", "5", "--a", "2", "--d0", "8")
    lines.write_text(json.dumps(json.loads(cert)) + '\n{"q": ' + huge + "}\n")
    code, stdout, err = run_cli(capsys, "verify", str(lines))
    assert code == 1
    assert err.startswith("error: line 2 is not valid JSON")


@pytest.mark.parametrize("schema", [2, 0, "1", 1.0, None])
def test_verify_rejects_unknown_schema(tmp_path, capsys, schema):
    path = _certificate_file(tmp_path, capsys, schema=schema)
    code, stdout, _ = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert stdout == f"FAIL {path}: unknown schema {schema!r}; this version reads schema 1\n"


def test_verify_zero_denominator_gap_fails(tmp_path, capsys):
    path = _certificate_file(tmp_path, capsys, normalized_gap="1/0")
    code, stdout, _ = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert stdout == f"FAIL {path}: normalized_gap is not a rational\n"


def test_verify_reads_the_gap_only_as_certify_writes_it(tmp_path, capsys):
    # Fraction would expand "1e7000000" for seconds; verify refuses every
    # string but -?digits(/digits)? at once, alone and as one JSONL line
    reason = "normalized_gap is not a rational"
    single = _certificate_file(tmp_path, capsys, normalized_gap="1e7000000")
    started = time.perf_counter()
    code, stdout, _ = within(1, run_cli, capsys, "verify", str(single))
    assert time.perf_counter() - started < 1.0
    assert code == 2 and stdout == f"FAIL {single}: {reason}\n"
    good = json.loads(single.read_text())
    good["normalized_gap"] = "88/5"
    lines = tmp_path / "mixed.jsonl"
    bad = [dict(good, normalized_gap=gap) for gap in ("1e7000000", "17.6", " 88/5", float("inf"))]
    lines.write_text("\n".join(map(json.dumps, [good, *bad, good])) + "\n")
    code, stdout, err = within(1, run_cli, capsys, "verify", str(lines))
    assert code == 2 and err == ""
    assert stdout.splitlines() == [
        f"OK {lines}:1",
        *(f"FAIL {lines}:{k}: {reason}" for k in range(2, 6)),
        f"OK {lines}:6",
        "4 of 6 certificate(s) failed",
    ]


def test_verify_accepts_a_certificate_without_schema(tmp_path, capsys):
    path = _certificate_file(tmp_path, capsys)
    data = json.loads(path.read_text())
    del data["schema"]
    path.write_text(json.dumps(data))
    code, stdout, _ = run_cli(capsys, "verify", str(path))
    assert code == 0 and stdout.startswith("OK")


def test_scan_unwritable_path_exit_1(capsys):
    code, _, err = run_cli(
        capsys,
        "scan", "--p", "3", "--d", "4", "--a", "1", "--e-max", "0",
        "--out", "/nonexistent-dir/x.jsonl",
    )
    assert code == 1
    assert "cannot write" in err


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("error", [ExponentOverflowError, RuntimeError])
def test_scan_crash_keeps_finished_records(tmp_path, capsys, monkeypatch, threads, error):
    base = ["scan", "--p", "2,3", "--d", "5..7", "--a", "1", "--e-max", "1"]
    full = tmp_path / "full.jsonl"
    assert main(base + ["--out", str(full)]) == 0
    expected = full.read_text().splitlines()
    searched = [(p, d) for p in (2, 3) for d in (5, 6, 7) if d % p]
    crash_at = searched[2]  # the fourth grid cell; cells 1..3 must survive
    real_search = cli.search_destabilization

    out = tmp_path / "crash.jsonl"
    on_disk_at_crash = []

    def search(p, d, a, e_max):
        if (p, d) == crash_at:
            on_disk_at_crash.append(out.read_text())
            raise error("injected failure")
        return real_search(p, d, a, e_max)

    monkeypatch.setattr(cli, "search_destabilization", search)
    argv = base + ["--threads", threads, "--out", str(out)]
    if issubclass(error, FermatSyzError):
        assert main(argv) == 1
    else:
        with pytest.raises(error):
            main(argv)
    capsys.readouterr()
    assert out.read_text().splitlines() == expected[:3]
    # the earlier records are flushed before the failing cell runs
    assert on_disk_at_crash[0].splitlines() == expected[:3]


def test_scan_searches_through_the_cli_attribute_once_per_smooth_cell(
    tmp_path, capsys, monkeypatch
):
    # perfbench times each scan-grid cell by replacing cli.search_destabilization,
    # so the scan must reach the search through that attribute, once per smooth cell
    real_search = cli.search_destabilization
    cells = []

    def search(p, d, a, e_max):
        cells.append((p, d, a))
        return real_search(p, d, a, e_max)

    monkeypatch.setattr(cli, "search_destabilization", search)
    out = tmp_path / "scan.jsonl"
    assert main(["scan", "--p", "2,3", "--d", "4..7", "--a", "1,2", "--e-max", "1",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    smooth = [(p, d, a) for p in (2, 3) for d in (4, 5, 6, 7) for a in (1, 2) if d % p]
    assert cells == smooth and len(smooth) == 10
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert sum(r["outcome"] != "skipped" for r in records) == len(smooth)


def test_scan_refusing_a_large_band_keeps_finished_records(tmp_path, capsys, monkeypatch):
    # (5, 8, 3) certifies through a 4,416-byte band, the cells before it
    # through smaller ones or none; under a 1,000-byte limit the scan
    # refuses that cell with an error line and keeps the records before it
    base = ["scan", "--p", "5", "--d", "7,8", "--a", "1,3", "--e-max", "3"]
    full = tmp_path / "full.jsonl"
    assert main(base + ["--out", str(full)]) == 0
    expected = full.read_text().splitlines()
    assert len(expected) == 4
    capsys.readouterr()
    monkeypatch.setattr(bundle, "BAND_LIMIT_BYTES", 1000)
    out = tmp_path / "refused.jsonl"
    code, stdout, err = run_cli(capsys, *base, "--out", str(out))
    assert code == 1 and not stdout
    assert err.startswith("error: block (t, A, B, N) = ") and "4,416 bytes" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert out.read_text().splitlines() == expected[:3]


def test_console_script_entry_exits_with_the_code_of_main(monkeypatch, capsys):
    for argv, code in ((["--version"], 0), (["scan"], 1)):
        monkeypatch.setattr(sys, "argv", ["fermatsyz", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == code, argv
    capsys.readouterr()
