"""Compare two benchmark results written by run.py.

    python3 perfbench/compare.py BASE.json NEW.json

Results are comparable only when they measure the same workload in the
same mode under the same elimination backend; otherwise this exits with
code 2 and compares nothing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def refusal(base: dict, new: dict):
    """Why two results must not be compared, or None."""
    for field in ("workload", "trace"):
        if base[field] != new[field]:
            return f"{field} differs: {base[field]!r} vs {new[field]!r}"
    if base["env"]["backend"] != new["env"]["backend"]:
        return f"backend differs: {base['env']['backend']!r} vs {new['env']['backend']!r}"
    return None


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 perfbench/compare.py BASE.json NEW.json", file=sys.stderr)
        return 1
    base, new = (json.loads(Path(path).read_text(encoding="utf-8")) for path in args)
    why = refusal(base, new)
    if why:
        print(f"refusing to compare: {why}", file=sys.stderr)
        return 2
    for name, m in base["metrics"].items():
        b, n = m["value"], new["metrics"][name]["value"]
        change = f"{(n - b) / b:+.1%}" if b else "n/a"
        print(f"{name:<30} {b:>14.6g} {n:>14.6g} {m['unit']:<6} {change}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
