"""Compare two result sets of the benchmark.

Usage, from the repository root::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

A result set is a JSON-lines file as ``suite.py --save`` writes it: one
record per run, ``{"workload", "seed", "trace", "result"}``. Each row is one
(workload, metric) with each side's median and quartiles. An end-to-end
metric is ``worse`` when NEW's median is worse than BASE's by more than the
metric's bound in BENCHMARK.json, ``unresolved`` when either side's
quartile spread exceeds the bound and NEW's runs do not all beat BASE's, and
otherwise ``better`` or ``within bound``.
Per-layer metrics have no bound and are listed for reading only. Exits 1
when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load_set(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> the values of every run in the file."""
    values: dict[tuple[str, str], list[float]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            for name, entry in record["result"]["metrics"].items():
                values.setdefault((record["workload"], name), []).append(entry["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them; one value repeats."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(metric: dict, base: list[float], new: list[float]) -> str:
    if "bound" not in metric:
        return "-"
    sign = 1.0 if metric["better"] == "lower" else -1.0
    b_med, n_med = quartiles(base)[1], quartiles(new)[1]
    change = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    all_better = all(sign * n < sign * b for n in new for b in base)
    if max(spread(base), spread(new)) > metric["bound"] and not all_better:
        return "unresolved"
    if change > metric["bound"]:
        return "worse"
    return "better" if change < 0 else "within bound"


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    base, new = load_set(argv[0]), load_set(argv[1])
    worse = 0
    print(
        f"{'workload':<8} {'metric':<34} {'base median [q1, q3]':<30} "
        f"{'new median [q1, q3]':<30} {'change':>8}  verdict"
    )
    for key in sorted(set(base) & set(new)):
        metric = spec.get(key[1], {"name": key[1]})
        result = verdict(metric, base[key], new[key])
        worse += result == "worse"
        b_med, n_med = quartiles(base[key])[1], quartiles(new[key])[1]
        change = f"{(n_med - b_med) / abs(b_med):+.1%}" if b_med else "-"
        print(
            f"{key[0]:<8} {key[1]:<34} {_fmt(base[key]):<30} {_fmt(new[key]):<30} "
            f"{change:>8}  {result}"
        )
    for key in sorted(set(base) ^ set(new)):
        print(f"{key[0]:<8} {key[1]:<34} only in {'base' if key in base else 'new'}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
