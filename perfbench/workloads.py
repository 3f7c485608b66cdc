"""The benchmark's workloads: seeded inputs, one pass of ops, output checks.

Every workload is closed-loop with one client: the next op starts when the
previous one has returned.  A workload object draws its op list from the
seed once, writes any input files, and then runs the same list on every
pass.  Each op's output is compared with the stored expected results in
``data/expected.json`` (see ``gen_expected.py``); a mismatch is a failed op.

A pass returns one ``(start, latency_ms, ok)`` triple per op, timed with
the ``clock`` it is given (see ``speed.SpeedMeter.clock``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from fermatsyz import bundle, cli
from fermatsyz.bundle import SyzygySpec

E_MAX = 3

# scan-grid: one scan per prime row of the acceptance grid, (p, d list, a
# list).  The cell set is fixed because cell costs span four orders of
# magnitude (1 ms to 3 s), so a seed-drawn subset would change the work per
# pass several-fold; the seed draws the order of the rows and of each row's
# d and a lists.  Rows are cut to keep a pass near six seconds.  The p = 5
# row stops at d = 7: (5,4,2), (5,6,2) and (5,6,3) are `none` cells,
# elimination-bound, and (5,7,*) certify at e = 2.  The p = 7 row has
# (7,4,1), a `none` cell that eliminates at q = 343 (every other p = 7
# `none` cell costs 2-42 s), and (7,6,1), which certifies at e = 1.  The
# row size sets where op_ms.p50 and op_ms.p90 fall on the cost curve: with
# four more cheap p = 7 cells the median op shifted by 15% from seed to
# seed, and with (7,4,1) alone the four costliest cells were exactly 10% of
# the ops, so p90 sat on the cliff below them.
SCAN_A = (1, 2, 3)
SCAN_ROWS = (
    (2, range(4, 13), SCAN_A),
    (3, range(4, 13), SCAN_A),
    (5, range(4, 8), SCAN_A),
    (7, (4, 6), (1,)),
)

# sections: (p, d, a, e) with aq = a p^e; n runs over [aq + 1, 3aq], from the
# destabilizing window (aq, 3aq/2) through the Koszul range n >= 2aq into
# the Riemann-Roch range n >= 3aq - 2.  Every shape costs at most ~0.2 s at
# n = 3aq.  Cost grows steeply with n, and with seed-drawn twists the median
# op moved by ~9% from seed to seed, so the twists are fixed: the quarter
# points of SECTION_STRATA equal slices of the range, plus n = 3aq itself,
# the largest kernel.  The seed draws the order of the ops.
SECTION_SHAPES = (
    (2, 5, 1, 3),
    (2, 7, 3, 2),
    (2, 9, 3, 3),
    (3, 4, 2, 2),
    (3, 5, 1, 3),
    (3, 7, 2, 2),
    (3, 8, 1, 3),
    (5, 4, 2, 2),
    (5, 6, 1, 2),
    (5, 7, 3, 1),
    (7, 4, 1, 2),
    (7, 5, 1, 2),
    (7, 6, 1, 1),
)
SECTION_STRATA = 6  # 2 * SECTION_STRATA + 1 ops per shape

# records: ops per pass of each kind.  The seed draws the items, spread
# evenly over certificates (verify), corrupted fields (corrupt) and primes
# (the rest), which set most of an op's cost.
RECORD_MIX = {"verify": 120, "corrupt": 104, "certify": 80, "tc": 60, "deviation": 60}
CERTIFY_POOL = tuple((p, a, d0) for p in (2, 3, 5, 7) for a in (1, 2, 3) for d0 in range(1, 21))
TC_POOL = tuple((p, b, e) for p in (2, 3, 5, 7, 11) for b in (1, 2, 3) for e in (1, 2, 3))
DEVIATION_POOL = tuple((p, a, e) for p in (2, 3, 5, 7) for a in (1, 2, 3) for e in (1, 2, 3, 4))
INT_FIELDS = ("p", "a", "d", "e", "q", "k", "twist", "degree", "slope_sub", "slope_quotient")
CORRUPTIONS = INT_FIELDS + ("normalized_gap", "section", "smooth")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def key(*parts) -> str:
    return ",".join(str(x) for x in parts)


def run_cli(argv: list, clock=perf_counter) -> tuple:
    """In-process ``fermatsyz`` call: (exit code, stdout, start, latency in ms)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        started = clock()
        rc = cli.main(argv)
        ms = (clock() - started) * 1000.0
    return rc, out.getvalue(), started, ms


def _next_op(tracer):
    if tracer is not None:
        tracer.op_id += 1


# -- scan-grid ----------------------------------------------------------------


def scan_argv(p: int, ds, as_, out) -> list:
    return [
        "scan", "--p", str(p), "--d", key(*ds), "--a", key(*as_),
        "--e-max", str(E_MAX), "--threads", "1", "--out", str(out),
    ]  # fmt: skip


class ScanGrid:
    """One `scan` per prime row; one op is one searched cell."""

    def __init__(self, seed: int, expected: dict, workdir: Path):
        rng = random.Random(seed)
        rows = list(SCAN_ROWS)
        rng.shuffle(rows)
        self.rows = []
        for p, d_list, a_list in rows:
            ds, as_ = list(d_list), list(a_list)
            rng.shuffle(ds)
            rng.shuffle(as_)
            self.rows.append((p, ds, as_))
        self.expected = expected["scan-grid"]
        self.out = workdir / f"scan-{seed}.jsonl"

    def run_pass(self, tracer=None, clock=perf_counter) -> list:
        results = []
        for p, ds, as_ in self.rows:
            latencies = []
            search = cli.search_destabilization

            def timed(*args, **kwargs):
                _next_op(tracer)
                started = clock()
                try:
                    return search(*args, **kwargs)
                finally:
                    latencies.append((started, (clock() - started) * 1000.0))

            cli.search_destabilization = timed
            try:
                rc, stdout, _start, _ms = run_cli(scan_argv(p, ds, as_, self.out), clock)
            finally:
                cli.search_destabilization = search
            text = self.out.read_text(encoding="utf-8") if rc == 0 else ""
            if tracer is not None:
                tracer.counts["cli.bytes_out"] += len(stdout) + len(text)
            cells = [(p, d, a) for d in ds for a in as_]
            lines = text.splitlines()
            if len(lines) != len(cells):
                lines = [None] * len(cells)
            checks = [self.expected.get(key(*cell)) == line for cell, line in zip(cells, lines)]
            # a wrong record for a skipped (p | d) cell fails the whole scan
            skipped_ok = all(ok for cell, ok in zip(cells, checks) if cell[1] % p == 0)
            searched = [ok and skipped_ok for cell, ok in zip(cells, checks) if cell[1] % p]
            if len(latencies) != len(searched):
                searched = [False] * len(searched)
                latencies = (latencies + [(0.0, 0.0)] * len(searched))[: len(searched)]
            results.extend((start, ms, ok) for (start, ms), ok in zip(latencies, searched))
        return results


# -- sections -------------------------------------------------------------------


def section_range(p: int, d: int, a: int, e: int) -> range:
    aq = a * p**e
    return range(aq + 1, 3 * aq + 1)


def section_twists(shape) -> list:
    """The twists n measured for one shape."""
    ns = section_range(*shape)
    k = SECTION_STRATA
    return [ns[int((i + f) * len(ns) / k)] for i in range(k) for f in (0.25, 0.75)] + [ns[-1]]


def section_digest(sections) -> str:
    return digest(json.dumps([s.serialize() for s in sections]))


class Sections:
    """`section_space(SyzygySpec(p, d, (aq, aq, aq)), n)`, method auto."""

    def __init__(self, seed: int, expected: dict, workdir: Path):
        rng = random.Random(seed)
        self.ops = [(shape, n) for shape in SECTION_SHAPES for n in section_twists(shape)]
        rng.shuffle(self.ops)
        self.expected = expected["sections"]

    def run_pass(self, tracer=None, clock=perf_counter) -> list:
        results = []
        for (p, d, a, e), n in self.ops:
            aq = a * p**e
            spec = SyzygySpec(p, d, (aq, aq, aq))
            _next_op(tracer)
            started = clock()
            sections = bundle.section_space(spec, n)
            ms = (clock() - started) * 1000.0
            ok = section_digest(sections) == self.expected[key(p, d, a, e, n)]
            results.append((started, ms, ok))
        return results


# -- records ----------------------------------------------------------------------


def corrupt(cert: dict, field: str) -> dict:
    """Copy of a certificate with one field changed."""
    bad = dict(cert)
    if field == "normalized_gap":
        bad[field] = str(Fraction(cert[field]) + 1)
    elif field == "section":
        bad[field] = cert[field][::-1]
    elif field == "smooth":
        bad[field] = not cert[field]
    else:
        bad[field] = cert[field] + 1
    return bad


def balanced(pool, count: int, rng: random.Random, group) -> list:
    """``count`` items of ``pool``, as evenly as possible over ``group(item)``.

    Each group gets count // groups items or one more; within a group the
    items come in a seeded order, cycling when the quota exceeds the group.
    """
    groups: dict = {}
    for item in pool:
        groups.setdefault(group(item), []).append(item)
    members = list(groups.values())
    rng.shuffle(members)
    out = []
    for g, items in enumerate(members):
        items = items[:]
        rng.shuffle(items)
        quota = count // len(members) + (g < count % len(members))
        out.extend(items[i % len(items)] for i in range(quota))
    return out


def record_ops(rng: random.Random, n_certs: int) -> list:
    """Draw a pass's record ops: (kind, item) in a seeded order."""
    pools = {
        "verify": ([(i,) for i in range(n_certs)], lambda item: item[0]),
        "corrupt": ([(i, f) for i in range(n_certs) for f in CORRUPTIONS], lambda item: item[1]),
        "certify": (CERTIFY_POOL, lambda item: item[0]),
        "tc": (TC_POOL, lambda item: item[0]),
        "deviation": (DEVIATION_POOL, lambda item: item[0]),
    }
    ops = []
    for kind, count in RECORD_MIX.items():
        pool, group = pools[kind]
        ops.extend((kind, item) for item in balanced(pool, count, rng, group))
    rng.shuffle(ops)
    return ops


def record_argv(kind: str, item, path) -> list:
    if kind in ("verify", "corrupt"):
        return ["verify", str(path)]
    if kind == "certify":
        p, a, d0 = item
        return ["certify", "--p", str(p), "--a", str(a), "--d0", str(d0)]
    if kind == "tc":
        p, b, e = item
        return ["tc", "--p", str(p), "--b", str(b), "--e", str(e)]
    p, a, e = item
    return ["deviation", "--p", str(p), "--a", str(a), "--e", str(e)]


def write_record_input(kind: str, item, corpus: list, workdir: Path):
    """Write the certificate file a verify op reads; None for other kinds."""
    if kind not in ("verify", "corrupt"):
        return None
    cert = corpus[item[0]]
    if kind == "corrupt":
        cert = corrupt(cert, item[1])
    path = workdir / f"{kind}-{key(*item)}.json"
    path.write_text(json.dumps(cert, sort_keys=True, indent=2), encoding="utf-8")
    return path


def record_result(rc: int, stdout: str, path) -> list:
    """What is compared: exit code and a digest of stdout, file path masked."""
    if path is not None:
        stdout = stdout.replace(str(path), "PATH")
    return [rc, digest(stdout)]


class Records:
    """A seeded mix of verify (intact and corrupted), certify --d0, tc, deviation."""

    def __init__(self, seed: int, expected: dict, workdir: Path):
        rng = random.Random(seed)
        corpus = expected["records"]["corpus"]
        self.expected = expected["records"]["results"]
        folder = workdir / f"records-{seed}"
        folder.mkdir(parents=True, exist_ok=True)
        self.ops = []
        paths: dict = {}
        for kind, item in record_ops(rng, len(corpus)):
            op_key = key(kind, *item)
            if op_key not in paths:
                paths[op_key] = write_record_input(kind, item, corpus, folder)
            path = paths[op_key]
            self.ops.append((record_argv(kind, item, path), path, op_key))

    def run_pass(self, tracer=None, clock=perf_counter) -> list:
        results = []
        for argv, path, op_key in self.ops:
            _next_op(tracer)
            rc, stdout, started, ms = run_cli(argv, clock)
            if tracer is not None:
                tracer.counts["cli.bytes_out"] += len(stdout)
            results.append((started, ms, record_result(rc, stdout, path) == self.expected[op_key]))
        return results


WORKLOADS = {"scan-grid": ScanGrid, "sections": Sections, "records": Records}
