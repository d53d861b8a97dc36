"""Run every workload over several seeds and summarize the spread.

Usage, from the repository root::

    python3 perfbench/suite.py --seeds 1-10 --seconds 30 --save base.jsonl

Each run is its own ``run.py`` process, one after another. Per (workload,
metric) it prints the median, the quartiles and the quartile spread as a
share of the median, next to the metric's bound in BENCHMARK.json. The saved
file is a result set for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import load_spec, quartiles, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-", 1)
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="deep,wide,report")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None, metavar="PATH", help="append records here")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values: dict[tuple[str, str], list[float]] = {}
    failed_runs = 0
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [
                *bench["command"], "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failed_runs += 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']} "
                + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True,
            )
            failed_runs += not result["correct"]
            if args.save:
                record = {"workload": workload, "seed": seed, "trace": args.trace, "result": result}
                with open(args.save, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
            for name, entry in result["metrics"].items():
                values.setdefault((workload, name), []).append(entry["value"])
    spec = load_spec()
    print(f"{'workload':<8} {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for (workload, name), vals in values.items():
        q1, med, q3 = quartiles(vals)
        bound = spec.get(name, {}).get("bound")
        flag = "" if bound is None else ("ok" if spread(vals) < bound / 3 else "WIDE")
        print(
            f"{workload:<8} {name:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
            f"{spread(vals):>8.2%} {bound if bound is not None else '-':>6} {flag}"
        )
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
