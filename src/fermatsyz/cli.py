"""Command-line surface: certificate generation, scans, offline verification.

Run as the installed ``fermatsyz`` script or as ``python -m fermatsyz.cli``.

Subcommands
    certify    build a destabilization certificate for (p, a, d) or (p, a, d0)
    scan       grid scan over primes x degrees x exponents, JSONL output
    verify     re-check a stored certificate or scan file
    deviation  normalized slope gap and its closed-form lower bound
    tc         tight-closure non-membership pipeline

Exit codes: 0 success/certified, 1 usage or malformed input, 2
mathematically inapplicable / inconclusive / failed verification.

Output is byte-deterministic for identical inputs: keys are sorted, the
scan runs its cells serially and writes records in grid order, and
timings are opt-in (--timings) because they would break reproducibility.
``scan --threads`` is accepted and has no effect.

Imports: this module loads ``stability``, ``tightclosure``, ``syzygy``,
``ring``, ``poly``, ``field`` and ``errors``, none of which imports numpy,
so ``verify``, ``certify``, ``tc`` and ``deviation`` run without it.
``scan`` loads the construction (``bundle``, ``linalg``, ``_kernels`` and
numpy) at its first search.  Each command looks its engine function up
on this module at call time, so replacing ``cli.search_destabilization``
replaces the search of every scan cell.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

from . import __version__
from .errors import ExponentOverflowError, FermatSyzError, InapplicableError, SmoothnessError
from .field import check_prime
from .poly import scaled_power
from .stability import (
    SCHEMA_VERSION,
    certify_destabilization,
    deviation_lower_bound,
    find_parameters,
    format_fraction,
    search_destabilization,
    verify_certificate,
)
from .syzygy import SyzygySpec
from .tightclosure import tc_counterexample


def _dump_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _print_json(obj):
    print(json.dumps(obj, sort_keys=True, indent=2))


def _parse_int_list(text: str) -> list:
    """Accept "5", "2,3,5" and "4..12" (inclusive range); a value may appear
    once, or a scan would write its cells twice."""
    values = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        bounds = [part.strip() for part in chunk.split("..", 1)]
        if "" in bounds:
            raise ValueError(f"empty value in {text!r}")
        if len(bounds) == 2:
            lo, hi = map(int, bounds)
            if lo > hi:
                raise ValueError(f"empty range {chunk!r}")
            values.extend(range(lo, hi + 1))
        else:
            values.append(int(chunk))
    seen = set()
    for value in values:
        if value in seen:
            raise ValueError(f"repeated value {value} in {text!r}")
        seen.add(value)
    return values


# -- certify -----------------------------------------------------------------


def cmd_certify(args) -> int:
    if (args.d is None) == (args.d0 is None):
        print("error: provide exactly one of --d or --d0", file=sys.stderr)
        return 1
    try:
        if args.d0 is not None:
            params = find_parameters(args.p, args.a, args.d0)
            cert = certify_destabilization(params.p, params.a, params.d)
        else:
            cert = certify_destabilization(args.p, args.a, args.d)
    except (SmoothnessError, InapplicableError) as exc:
        _print_json({"schema": SCHEMA_VERSION, "certified": False, "reason": str(exc)})
        return 2
    _print_json(cert.to_json_dict())
    return 0


# -- scan ----------------------------------------------------------------------


def _scan_cell(p: int, d: int, a: int, e_max: int, timings: bool) -> dict:
    record = {
        "schema": SCHEMA_VERSION,
        "record": "scan",
        "tool_version": __version__,
        "p": p,
        "d": d,
        "a": a,
        "e_max": e_max,
    }
    started = time.perf_counter()
    if not SyzygySpec(p, d, (a, a, a)).smooth:
        record.update({"outcome": "skipped", "smooth": False, "inconclusive": True})
    else:
        cert = search_destabilization(p, d, a, e_max)
        if cert is None:
            record.update({"outcome": "none", "smooth": True, "inconclusive": True})
        else:
            cert_fields = cert.to_json_dict()
            cert_fields.pop("schema")
            record.update(cert_fields)
            record["outcome"] = "certificate"
    if timings:
        record["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    return record


def cmd_scan(args) -> int:
    try:
        ps = _parse_int_list(args.p)
        ds = _parse_int_list(args.d)
        as_ = _parse_int_list(args.a)
        for p in ps:
            check_prime(p)  # NotPrimeError reaches main: exit 1
        if min(as_) < 1 or min(ds) < 0 or args.e_max < 0:
            raise ValueError("need a >= 1, d >= 0, e_max >= 0")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for p, a in itertools.product(ps, as_):
        try:
            scaled_power(p, args.e_max, a)  # a p^e grows with e: the last level decides
        except ExponentOverflowError as exc:
            print(f"error: --e-max {args.e_max} is too large for p = {p}: {exc}", file=sys.stderr)
            return 1

    # each record is written and flushed as soon as its cell is done, so a
    # crash keeps all records of the cells before it
    by_d: dict = {}
    written = 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            for p, d, a in itertools.product(ps, ds, as_):
                rec = _scan_cell(p, d, a, args.e_max, args.timings)
                fh.write(_dump_line(rec) + "\n")
                fh.flush()
                written += 1
                entry = by_d.setdefault(rec["d"], {"certificate": 0, "none": 0, "skipped": 0})
                entry[rec["outcome"]] += 1
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1

    print(f"{'d':>6} {'certified':>10} {'inconclusive':>13} {'skipped':>8}")
    for d in sorted(by_d):
        e = by_d[d]
        print(f"{d:>6} {e['certificate']:>10} {e['none']:>13} {e['skipped']:>8}")
    print(f"wrote {written} records to {args.out}")
    return 0


# -- verify ----------------------------------------------------------------------


def _verify_one(data: dict, label: str) -> int:
    failures = verify_certificate(data)
    if failures:
        print(f"FAIL {label}: {failures[0]}")
        return 2
    print(f"OK {label}")
    return 0


def cmd_verify(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 1
    if not text.strip():  # a scan cut before its first record verifies nothing
        print(f"error: {args.path} holds no JSON record", file=sys.stderr)
        return 1
    try:
        data = json.loads(text)
        is_single = isinstance(data, dict)
    except json.JSONDecodeError:  # not one document: read it as JSONL
        is_single = False
        data = None
    except (ValueError, RecursionError) as exc:  # the int-string limit, or nesting too deep
        print(f"error: {args.path} is not valid JSON: {exc}", file=sys.stderr)
        return 1

    if is_single:
        if data.get("outcome") in ("none", "skipped"):  # as in a JSONL scan
            print("verified 0 certificate(s)")
            return 0
        return _verify_one(data, args.path)

    # JSONL: verify every certificate record and report each failing line;
    # a line that is not a JSON object is reported and the reading goes on.
    # Lines end at "\n" only: str.splitlines would also break at U+2028 and
    # the like, which a JSON string may hold raw
    checked = failed = malformed = 0
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            problem = None if isinstance(rec, dict) else "is not a JSON object"
        except (ValueError, RecursionError) as exc:  # as above, or a JSONDecodeError
            problem = f"is not valid JSON: {exc}"
        if problem:
            print(f"error: line {lineno} {problem}", file=sys.stderr)
            malformed += 1
            continue
        if rec.get("outcome") in ("none", "skipped"):
            continue
        checked += 1
        if _verify_one(rec, f"{args.path}:{lineno}"):
            failed += 1
    if malformed:
        print(f"{malformed} malformed line(s); {failed} of {checked} certificate(s) failed")
        return 1
    if failed:
        print(f"{failed} of {checked} certificate(s) failed")
        return 2
    print(f"verified {checked} certificate(s)")
    return 0


# -- deviation / tc ----------------------------------------------------------------


def cmd_deviation(args) -> int:
    try:
        gap, bound = deviation_lower_bound(args.p, args.a, args.e)
    except (InapplicableError, SmoothnessError) as exc:
        _print_json({"schema": SCHEMA_VERSION, "applicable": False, "reason": str(exc)})
        return 2
    d = args.a * args.p ** (args.e - 1) + 1
    _print_json(
        {
            "schema": SCHEMA_VERSION,
            "p": args.p,
            "a": args.a,
            "e": args.e,
            "d": d,
            "q": args.p**args.e,
            "gap": format_fraction(gap),
            "bound": format_fraction(bound),
            "gap_ge_bound": gap >= bound,
        }
    )
    return 0


def cmd_tc(args) -> int:
    try:
        report = tc_counterexample(args.p, args.b, args.e)
    except (InapplicableError, SmoothnessError) as exc:
        _print_json({"schema": SCHEMA_VERSION, "verdict": "error", "reason": str(exc)})
        return 2
    _print_json(report.to_json_dict())
    return 0 if report.verdict == "certified" else 2


# -- entry ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermatsyz",
        description="Certificates of non-strong-semistability for syzygy bundles "
        "on Fermat curves, and the associated tight-closure counterexamples.",
    )
    parser.add_argument("--version", action="version", version=f"fermatsyz {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("certify", help="destabilization certificate for (p, a, d | d0)")
    c.add_argument("--p", type=int, required=True, help="prime characteristic")
    c.add_argument("--a", type=int, required=True, help="generator exponent")
    c.add_argument("--d", type=int, help="curve degree")
    c.add_argument("--d0", type=int, help="lower bound; the tool picks e and d")
    c.set_defaults(func=cmd_certify)

    s = sub.add_parser("scan", help="grid scan, one JSONL record per (p, d, a)")
    s.add_argument("--p", required=True, help='primes, e.g. "2,3,5,7"')
    s.add_argument("--d", required=True, help='degrees, e.g. "5..12" or "4,7"')
    s.add_argument("--a", default="2", help='exponents, e.g. "1,2,3" (default 2)')
    s.add_argument("--e-max", type=int, default=3, dest="e_max")
    s.add_argument("--out", required=True, help="output JSONL path")
    s.add_argument("--threads", type=int, default=1, help="accepted; the scan is serial")
    s.add_argument(
        "--timings",
        action="store_true",
        help="include per-record timing_ms (breaks byte reproducibility)",
    )
    s.set_defaults(func=cmd_scan)

    v = sub.add_parser("verify", help="re-check a certificate JSON or scan JSONL")
    v.add_argument("path")
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("deviation", help="normalized slope gap and its lower bound")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--a", type=int, required=True)
    g.add_argument("--e", type=int, required=True)
    g.set_defaults(func=cmd_deviation)

    t = sub.add_parser("tc", help="tight-closure non-membership pipeline")
    t.add_argument("--p", type=int, required=True)
    t.add_argument("--b", type=int, required=True, help="half the exponent: a = 2b")
    t.add_argument("--e", type=int, required=True, help="Frobenius level, e >= 1")
    t.set_defaults(func=cmd_tc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented usage code 1
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except FermatSyzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":  # python -m fermatsyz.cli
    entry()
