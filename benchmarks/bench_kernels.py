"""Benchmark: compiled Cython elimination kernel vs the pure numpy fallback.

Two workloads:
  1. raw RREF on random dense matrices over F_p (the elimination primitive);
  2. an end-to-end destabilization search (many small structured blocks plus
     occasional dense kernels), timed under each backend.

Run:  PYTHONPATH=src python benchmarks/bench_kernels.py  [--sizes 200,400,800] [--p 7]
"""

import argparse
import importlib
import os
import subprocess
import sys
import time

import numpy as np


def load_backends():
    from fermatsyz._kernels import modp_py

    backends = {"python": modp_py}
    try:
        from fermatsyz._kernels import _modp

        backends["cython"] = _modp
    except ImportError:
        print("note: compiled kernel not available; benchmarking fallback only")
    return backends


def bench_rref(backends, sizes, p, repeats=3):
    print(f"\nRREF over F_{p} (seconds, best of {repeats})")
    header = f"{'rows x cols':>14}" + "".join(f"{name:>12}" for name in backends)
    print(header)
    rng = np.random.default_rng(12345)
    for n in sizes:
        rows, cols = n, (3 * n) // 4
        base = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
        times = {}
        results = {}
        for name, mod in backends.items():
            best = float("inf")
            for _ in range(repeats):
                work = np.ascontiguousarray(base.copy())
                t0 = time.perf_counter()
                rank, pivots = mod.rref_mod_p(work, p)
                best = min(best, time.perf_counter() - t0)
                results[name] = (rank, tuple(pivots), work.copy())
            times[name] = best
        line = f"{rows:>7} x {cols:<5}" + "".join(f"{times[n_]:>12.4f}" for n_ in backends)
        if len(results) == 2:
            a, b = results.values()
            agree = a[0] == b[0] and a[1] == b[1] and np.array_equal(a[2], b[2])
            line += "   identical" if agree else "   MISMATCH!"
        print(line)


def bench_search(backends, p, d, a, e_max):
    """Time `search_destabilization` in a subprocess per available backend.

    The child reports the backend it actually loaded; the compiled run is
    skipped when the extension does not import here.
    """
    print(f"\nsearch_destabilization(p={p}, d={d}, a={a}, e_max={e_max}) wall time")
    snippet = (
        "import time, fermatsyz as fz;"
        "t0=time.perf_counter();"
        f"c=fz.search_destabilization({p},{d},{a},{e_max});"
        "print(fz.BACKEND, f'{time.perf_counter()-t0:.3f}s', 'certificate' if c else 'none')"
    )
    for backend in backends:
        env = dict(os.environ)
        env.pop("FERMATSYZ_BACKEND", None)  # unset: the compiled kernel when it imports
        if backend == "python":
            env["FERMATSYZ_BACKEND"] = "python"
        out = subprocess.run(
            [sys.executable, "-c", snippet], env=env, capture_output=True, text=True
        )
        if out.returncode != 0:
            print(f"{backend:>10}: failed: {out.stderr.strip()}")
            continue
        loaded, tag = out.stdout.strip().split(" ", 1)
        note = "" if loaded == backend else f"   MISMATCH: child loaded {loaded}"
        print(f"{backend:>10}: {tag}{note}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="100,200,400,800")
    parser.add_argument("--p", type=int, default=7)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    backends = load_backends()
    bench_rref(backends, sizes, args.p)
    bench_search(backends, p=7, d=6, a=3, e_max=3)


if __name__ == "__main__":
    main()
