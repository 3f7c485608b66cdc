"""Benchmark runner for fermatsyz: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan-grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Runs from a source checkout: the package is imported from ``src/`` next to
this directory, in this process, under whatever elimination backend it
loads.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced pass.  A
readable summary goes to stderr, the full result with its environment to
``perfbench/_work/results/``, and the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "data" / "expected.json"
WORKDIR = HERE / "_work"
NAMES = ("scan-grid", "sections", "records")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "ops/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
MIN_OPS = 100  # enough for a true p90: ten samples beyond it
MIN_TRACED_PASSES = 2
SETUP_REPEATS = 15
# numpy is imported before the clock starts: its import is most of the
# package's, none of it is this repository's code, and its time shifted
# between runs by up to 70%.
SETUP_CODE = (
    "import numpy, time; t = time.perf_counter(); import fermatsyz; "
    "print(time.perf_counter() - t, fermatsyz.__file__)"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def tail_percentile(n: int) -> int:
    """90, or the highest whole percentile with at least ten of n samples beyond it."""
    if n <= 10:
        raise ValueError(f"{n} samples leave no percentile with ten beyond it")
    return min(90, 100 * (n - 10) // n)


def load_package():
    if not (SRC / "fermatsyz" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC}; run from a fermatsyz checkout")
    if not EXPECTED.is_file():
        raise BenchError(f"missing {EXPECTED}; run perfbench/gen_expected.py")
    sys.path.insert(0, str(SRC))
    import fermatsyz

    if not Path(fermatsyz.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"fermatsyz imported from {fermatsyz.__file__}, not {SRC}")
    return fermatsyz


def import_seconds() -> float:
    """Time of `import fermatsyz` in a fresh interpreter with numpy loaded, in raw seconds.

    Not scaled by the speed probe: a fresh process runs cold code, and its
    time did not follow the probe's.  The child may write bytecode even
    where the environment forbids it, so that after the first, discarded
    import the package loads from bytecode as an installed one does;
    compiling from source doubled the time and its spread.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )  # fmt: skip
    except (subprocess.SubprocessError, OSError) as exc:
        raise BenchError(f"fresh-process import failed: {exc}") from exc
    seconds, path = out.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"fresh process imported fermatsyz from {path}")
    return float(seconds)


def environment(fermatsyz) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None  # a checkout without .git has no commit to report
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (subprocess.SubprocessError, OSError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": fermatsyz.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


def warm_up(name: str, expected: dict) -> bool:
    """One unmeasured pass in a fixed order (that of seed 0); True if every op was right.

    It builds the package's lazy caches (rings, bases) before anything is
    timed.  Built in the run's own seeded order, they left a memory peak
    that moved by 9% from seed to seed.
    """
    import workloads

    results = workloads.WORKLOADS[name](0, expected, WORKDIR).run_pass()
    return all(ok for _start, _ms, ok in results)


def timed_pass(workload, clock, tracer=None) -> tuple:
    """(start, wall seconds, [(start, latency_ms, ok), ...]) of one pass, on ``clock``."""
    started = clock()
    results = workload.run_pass(tracer, clock)
    return started, clock() - started, results


def run_passes(workload, seconds: float, meter) -> tuple:
    """Closed loop: passes back to back until ``seconds`` and MIN_OPS are reached.

    Fresh-process imports for ``setup_s`` run between passes, spread over
    the run, because import time on a shared host shifts between regimes
    lasting seconds.  Returns (passes, import seconds).
    """
    with meter.paused():
        imports = [import_seconds() for _ in range(2)]
    passes = []
    started = last_import = perf_counter()
    while perf_counter() - started < seconds or sum(len(p[2]) for p in passes) < MIN_OPS:
        passes.append(timed_pass(workload, meter.clock))
        due = perf_counter() - last_import >= seconds / SETUP_REPEATS
        if due and len(imports) <= SETUP_REPEATS:
            with meter.paused():
                imports.append(import_seconds())
            last_import = perf_counter()
    with meter.paused():
        imports += [import_seconds() for _ in range(SETUP_REPEATS + 1 - len(imports))]
    return passes, imports[1:]  # the first import also compiles bytecode


def end_to_end(passes: list, setup_s: float, scale) -> tuple:
    """End-to-end metrics; ``scale(start, seconds)`` converts pass and op times."""
    latencies = [
        scale(start, ms / 1000.0) * 1000.0 for _s, _w, results in passes for start, ms, _ok in results
    ]
    walls = [scale(start, wall) for start, wall, _r in passes]
    q = tail_percentile(len(latencies))
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "ops_per_s": len(latencies) / sum(walls),
        "op_ms.p50": float(np.percentile(latencies, 50)),
        "op_ms.p90": float(np.percentile(latencies, q)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"op_ms.p90": f"p{q} of {len(latencies)} ops"}


def traced(workload, seconds: float, name: str) -> tuple:
    """Per-layer metrics: untraced and traced passes alternate, untraced first.

    Counts must repeat exactly across traced passes; seconds are medians.
    Returns (metrics, passes, counts_repeat).
    """
    import probes
    from spans import Tracer

    tracer = Tracer()
    plain, spanned, per_pass = [], [], []
    started = perf_counter()
    while len(spanned) < MIN_TRACED_PASSES or perf_counter() - started < seconds:
        plain.append(timed_pass(workload, perf_counter))
        probes.install(tracer)
        lo = tracer.begin_pass()
        spanned.append(timed_pass(workload, perf_counter, tracer))
        tracer.restore()
        per_pass.append(probes.layer_metrics(tracer, lo, len(tracer)))
    WORKDIR.mkdir(exist_ok=True)
    tracer.save(WORKDIR / f"spans-{name}.npz")

    units = probes.PER_LAYER
    exact = [m for m in per_pass[0] if units[m] != "s"]
    repeat = all(p[m] == per_pass[0][m] for p in per_pass for m in exact)
    metrics = {
        m: per_pass[0][m] if m in exact else statistics.median(p[m] for p in per_pass)
        for m in per_pass[0]
    }
    plain_wall = statistics.median(p[1] for p in plain)
    metrics["trace.overhead_ratio"] = statistics.median(p[1] for p in spanned) / plain_wall - 1.0
    return metrics, plain + spanned, repeat


def report(args, env, metrics, units, notes, attempted, failed, correct) -> dict:
    lines = [
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{attempted} ops, {failed} failed, correct={correct}"
    ]
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:<30} {value:>14.6g} {units[name]}{note}")
    lines.append(f"  {'fail_ratio':<30} {failed / attempted:>14.6g} ratio  ({failed}/{attempted})")
    if args.trace:
        layers = {m.split(".")[1]: v for m, v in metrics.items() if m.startswith("layer.")}
        top = max(layers, key=layers.get)
        lines.append(f"  dominant layer by self time: {top}")
    lines.append("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("\n".join(lines), file=sys.stderr)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "correct": correct,
        "notes": notes,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def run_one(args) -> int:
    fermatsyz = load_package()
    import workloads

    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, expected, WORKDIR)
    env = environment(fermatsyz)
    warm_ok = warm_up(args.workload, expected)
    if args.trace:
        import probes

        metrics, passes, repeat = traced(workload, args.seconds, args.workload)
        units, notes = probes.PER_LAYER, {}
        if not repeat:
            print("determinism check failed: counts differ between traced passes", file=sys.stderr)
    else:
        with speed.SpeedMeter() as meter:
            passes, imports = run_passes(workload, args.seconds, meter)
        setup_s = statistics.median(imports)
        metrics, notes = end_to_end(passes, setup_s, meter.scale)
        raw, _notes = end_to_end(passes, setup_s, lambda _start, seconds: seconds)
        env["probe_ms"] = meter.mean_probe_s * 1000.0
        units, repeat = END_TO_END, True
    attempted = sum(len(p[2]) for p in passes)
    failed = sum(1 for p in passes for _start, _ms, ok in p[2] if not ok)
    correct = failed == 0 and repeat and warm_ok
    result = report(args, env, metrics, units, notes, attempted, failed, correct)
    if not args.trace:
        result["raw_metrics"] = raw
        result["imports_s"] = imports
    result["passes"] = [[wall, [ms for _start, ms, _ok in r]] for _start, wall, r in passes]
    results_dir = WORKDIR / "results"
    results_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory and caches stay apart."""
    status = 0
    for name in NAMES:
        argv = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]  # fmt: skip
        status = max(status, subprocess.run(argv).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
