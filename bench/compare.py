"""Summarise one result set, or compare two, from ``run.py --record`` files.

    python3 bench/compare.py BASE.jsonl            # medians, quartiles, spread
    python3 bench/compare.py BASE.jsonl NEW.jsonl  # verdict per workload and metric

Runs are paired by seed. The verdict follows the benchmark's rule: "better"
when the new side wins at least nine tenths of the pairs (ties count for
neither side) and the medians differ by more than the base's quartile
spread; "unresolved" when the base's spread is wider than the metric's bound,
unless every new run reads better than every base run; "worse" when the new
median is worse than the base median by more than the bound; otherwise
"unchanged". Traced runs are summarised by their tracing overhead.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}


def load(path: str) -> dict:
    """(workload, trace) -> {seed: metrics} from a record file."""
    runs = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
                if not record["result"]["correct"]:
                    metrics["failed"] = record["result"]["failed"]
                runs[(record["workload"], record["trace"])][record["seed"]] = metrics
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(base: dict, new: dict, metric: dict) -> tuple[str, int, int]:
    """(verdict, pairs the new side wins, pairs compared)."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    seeds = sorted(set(base) & set(new))
    pairs = ([(base[s], new[s]) for s in seeds] if seeds
             else list(zip(base.values(), new.values())))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    b_values, n_values = list(base.values()), list(new.values())
    q1, b_median, q3 = quartiles(b_values)
    n_median = statistics.median(n_values)
    if wins >= 0.9 * len(pairs) and abs(n_median - b_median) > q3 - q1:
        return ("better" if sign * (n_median - b_median) < 0 else "worse"), wins, len(pairs)
    if spread(b_values) > metric["bound"]:
        all_better = all(sign * (n - b) < 0 for n in n_values for b in b_values)
        return ("unchanged" if all_better else "unresolved"), wins, len(pairs)
    if sign * (n_median - b_median) > metric["bound"] * abs(b_median):
        return "worse", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def _fmt(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:10.4f} [{q1:.4f}, {q3:.4f}]"


def summarise(runs: dict) -> None:
    for (workload, trace), by_seed in sorted(runs.items()):
        failed = sum(m.get("failed", 0) for m in by_seed.values())
        print(f"{workload} (trace {trace}): {len(by_seed)} runs, {failed} failed jobs")
        if trace:
            for name in ("trace.wall_s", "trace.overhead_s"):
                values = [m[name] for m in by_seed.values()]
                print(f"  {name:28s} median {_fmt(values)}")
            continue
        for name, metric in METRICS.items():
            values = [m[name] for m in by_seed.values()]
            share = spread(values)
            print(f"  {name:14s} median {_fmt(values)} {metric['unit']:3s} "
                  f"spread {share:6.2%} of bound {metric['bound']:.0%}"
                  f"{'' if share < metric['bound'] / 3 else '  (not below a third)'}")


def compare(base_runs: dict, new_runs: dict) -> None:
    print(f"{'workload':10s} {'metric':12s} {'base median [q1, q3]':>32s} "
          f"{'new median [q1, q3]':>32s} {'change':>8s} {'wins':>6s}  verdict")
    for key in sorted(set(base_runs) & set(new_runs)):
        workload, trace = key
        if trace:
            continue
        for name, metric in METRICS.items():
            base = {s: m[name] for s, m in base_runs[key].items()}
            new = {s: m[name] for s, m in new_runs[key].items()}
            result, wins, pairs = verdict(base, new, metric)
            b_median = statistics.median(base.values())
            change = statistics.median(new.values()) / b_median - 1.0
            print(f"{workload:10s} {name:12s} {_fmt(list(base.values())):>32s} "
                  f"{_fmt(list(new.values())):>32s} {change:+8.2%} "
                  f"{wins:>3d}/{pairs:<2d}  {result}")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    runs = [load(path) for path in argv]
    if len(runs) == 1:
        summarise(runs[0])
    else:
        compare(*runs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
