import json
import time

import pytest

from fermatsyz import cli
from fermatsyz.cli import _parse_int_list, main
from fermatsyz.errors import ExponentOverflowError, FermatSyzError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_int_list():
    assert _parse_int_list("5") == [5]
    assert _parse_int_list("2,3,5,7") == [2, 3, 5, 7]
    assert _parse_int_list("4..7") == [4, 5, 6, 7]
    assert _parse_int_list("2,5..7") == [2, 5, 6, 7]


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


def test_tc_cli_certified(capsys):
    code, out, _ = run_cli(capsys, "tc", "--p", "5", "--b", "1", "--e", "2")
    assert code == 0
    assert json.loads(out)["verdict"] == "certified"


def test_tc_cli_inconclusive_exit_2(capsys):
    code, out, _ = run_cli(capsys, "tc", "--p", "2", "--b", "1", "--e", "2")
    assert code == 2
    assert json.loads(out)["verdict"] == "inconclusive"


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
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code, stdout, _ = run_cli(capsys, "verify", str(out))
    assert code == 2
    fails = [line for line in stdout.splitlines() if line.startswith("FAIL")]
    assert [line.split(": ")[0] for line in fails] == [
        f"FAIL {out}:{k + 1}" for k in certs[:2]
    ]
    assert stdout.count("\nOK ") + stdout.startswith("OK ") == len(certs) - 2
    assert stdout.endswith(f"2 of {len(certs)} certificate(s) failed\n")


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
