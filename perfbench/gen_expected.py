"""Regenerate ``data/expected.json``: the outputs every benchmark op is checked against.

Run from the repository root:  python3 perfbench/gen_expected.py

It computes every output any seed can draw and cross-checks them against
oracles that do not share the code path under test:

* every certificate (scan records, the verify corpus, certify output)
  passes ``verify_certificate``, and every corrupted copy fails it;
* section counts match the dense kernel dimension where the dense matrix
  has at most DENSE_ENTRIES entries, and the Riemann-Roch dimension
  2dn - d*sum(a) + 2(1 - g) when n >= max(sum(a) - 2, max(a) + d - 2).

Any disagreement aborts without writing the file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fermatsyz import search_destabilization, section_space, section_space_dim, verify_certificate  # noqa: E402
from fermatsyz.bundle import SyzygySpec  # noqa: E402

import workloads as wl  # noqa: E402

DENSE_ENTRIES = 120_000
# the verify corpus: certificates the search finds on these acceptance-grid rows
CORPUS_PRIMES = (2, 3, 5)
CORPUS_D = range(4, 13)
OUT = Path(__file__).resolve().parent / "data" / "expected.json"


class OracleError(Exception):
    pass


def check(cond: bool, what: str):
    if not cond:
        raise OracleError(what)


def scan_expected(workdir: Path) -> dict:
    lines = {}
    out = workdir / "scan.jsonl"
    for p, ds, as_ in wl.SCAN_ROWS:
        rc, _stdout, _start, _ms = wl.run_cli(wl.scan_argv(p, ds, as_, out))
        check(rc == 0, f"scan row p={p} exited {rc}")
        for line in out.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            cell = (rec["p"], rec["d"], rec["a"])
            lines[wl.key(*cell)] = line
            if rec["outcome"] == "certificate":
                check(verify_certificate(rec) == [], f"scan certificate {cell} does not verify")
    print(f"scan-grid: {len(lines)} records", file=sys.stderr)
    return lines


def riemann_roch(d: int, exponents, n: int):
    """h^0 of Syz(X^a1, Y^a2, Z^a3)(n) on the curve, where H^1 vanishes."""
    if n < max(sum(exponents) - 2, max(exponents) + d - 2):
        return None
    genus = (d - 1) * (d - 2) // 2
    return 2 * d * n - d * sum(exponents) + 2 * (1 - genus)


def sections_expected() -> dict:
    digests = {}
    by_dense = by_rr = 0
    for shape in wl.SECTION_SHAPES:
        p, d, a, e = shape
        aq = a * p**e
        spec = SyzygySpec(p, d, (aq, aq, aq))
        ring = spec.ring
        for n in wl.section_range(*shape):
            sections = section_space(spec, n)
            digests[wl.key(p, d, a, e, n)] = wl.section_digest(sections)
            entries = ring.hilbert(n) * sum(ring.hilbert(n - x) for x in spec.exponents)
            if entries <= DENSE_ENTRIES:
                dense = section_space_dim(spec, n, "dense")
                check(dense == len(sections), f"{shape} n={n}: dense dim {dense} != {len(sections)}")
                by_dense += 1
            rr = riemann_roch(d, spec.exponents, n)
            if rr is not None:
                check(rr == len(sections), f"{shape} n={n}: Riemann-Roch {rr} != {len(sections)}")
                by_rr += 1
    print(
        f"sections: {len(digests)} kernels, {by_dense} checked densely, "
        f"{by_rr} by Riemann-Roch",
        file=sys.stderr,
    )
    return digests


def records_expected(workdir: Path) -> dict:
    corpus = []
    for p in CORPUS_PRIMES:
        for d in CORPUS_D:
            for a in wl.SCAN_A:
                if d % p == 0:
                    continue
                cert = search_destabilization(p, d, a, wl.E_MAX)
                if cert is not None:
                    corpus.append(cert.to_json_dict())
    for cert in corpus:
        check(verify_certificate(cert) == [], f"corpus certificate {cert['p'], cert['d'], cert['a']}")
    results = {}
    for i, cert in enumerate(corpus):
        ops = [("verify", (i,))] + [("corrupt", (i, field)) for field in wl.CORRUPTIONS]
        for kind, item in ops:
            path = wl.write_record_input(kind, item, corpus, workdir)
            rc, stdout, _start, _ms = wl.run_cli(wl.record_argv(kind, item, path))
            check(rc == (0 if kind == "verify" else 2), f"{kind} {item} exited {rc}")
            if kind == "corrupt":
                check(verify_certificate(wl.corrupt(cert, item[1])) != [], f"{item} not caught")
            results[wl.key(kind, *item)] = wl.record_result(rc, stdout, path)
    for kind, pool in (("certify", wl.CERTIFY_POOL), ("tc", wl.TC_POOL), ("deviation", wl.DEVIATION_POOL)):
        for item in pool:
            rc, stdout, _start, _ms = wl.run_cli(wl.record_argv(kind, item, None))
            check(rc in (0, 2), f"{kind} {item} exited {rc}")
            if kind == "certify" and rc == 0:
                check(verify_certificate(json.loads(stdout)) == [], f"certify {item} does not verify")
            results[wl.key(kind, *item)] = wl.record_result(rc, stdout, None)
    print(f"records: {len(corpus)} certificates, {len(results)} results", file=sys.stderr)
    return {"corpus": corpus, "results": results}


def main() -> int:
    workdir = Path(__file__).resolve().parent / "_work" / "gen"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        expected = {
            "scan-grid": scan_expected(workdir),
            "sections": sections_expected(),
            "records": records_expected(workdir),
        }
    except OracleError as exc:
        print(f"oracle disagreement: {exc}", file=sys.stderr)
        return 1
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(expected, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
