"""Compare two sets of benchmark result files, metric by metric.

    python3 bench/run.py compare RESULTS_A RESULTS_B

Each side is a directory of result files (or one file). A is the parent,
B the change. For every workload and end-to-end metric it prints each side's
median and quartiles over its runs and a verdict:

* improved: over at least ten pairs (runs paired by seed, else in order),
  B wins at least 9/10 (ties count for neither), and the medians differ in
  B's favour by more than A's interquartile range;
* worse: B's median is worse than A's by more than the metric's bound;
* unresolved: the run-to-run spread of either side is wider than the
  bound, unless every run of B reads better than every run of A;
* no-worse: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10


def load(path: Path) -> dict[str, list[dict]]:
    """The result files in a directory (or one file) by workload, sorted by seed."""
    out: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(path.glob("*.json")) if path.is_dir() else [path]:
        result = json.loads(path.read_text(encoding="utf-8"))
        out[result["provenance"]["workload"]].append(result)
    for runs in out.values():
        runs.sort(key=lambda r: r["provenance"]["seed"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(a: list[dict], b: list[dict]) -> list[tuple[dict, dict]]:
    seeds_b = {r["provenance"]["seed"]: r for r in b}
    by_seed = [(r, seeds_b[r["provenance"]["seed"]]) for r in a if r["provenance"]["seed"] in seeds_b]
    return by_seed if len(by_seed) == min(len(a), len(b)) else list(zip(a, b))


def verdict(a: list[float], b: list[float], paired: list[tuple[float, float]], lower_better: bool, bound: float) -> str:
    sign = 1 if lower_better else -1
    better = lambda x, y: sign * (x - y) < 0  # x reads better than y
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    wins = sum(better(y, x) for x, y in paired)
    if len(paired) >= MIN_PAIRS and wins >= 0.9 * len(paired) and better(med_b, med_a) and abs(med_b - med_a) > qa[2] - qa[0]:
        return "improved"
    if sign * (med_b - med_a) > bound * abs(med_a):
        return "worse"
    spread = max(qa[2] - qa[0], qb[2] - qb[0]) / abs(med_a) if med_a else 0.0
    if spread > bound and not all(better(y, x) for x in a for y in b):
        return "unresolved"
    return "no-worse"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: bench/run.py compare RESULTS_A RESULTS_B", file=sys.stderr)
        return 64
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    side_a, side_b = load(Path(argv[0])), load(Path(argv[1]))
    if not side_a or not side_b:
        print("compare: no result files on one side", file=sys.stderr)
        return 64
    print(f"{'workload':<14} {'metric':<12} {'unit':<5} {'A median [q1, q3]':>32} {'B median [q1, q3]':>32}  runs  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = side_a.get(workload, []), side_b.get(workload, [])
        if not a or not b:
            print(f"{workload:<14} (no runs on {'A' if not a else 'B'})")
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            va = [r["end_to_end"][name] for r in a]
            vb = [r["end_to_end"][name] for r in b]
            paired = [(x["end_to_end"][name], y["end_to_end"][name]) for x, y in pairs(a, b)]
            v = verdict(va, vb, paired, m["better"] == "lower", m["bound"])
            qa, qb = quartiles(va), quartiles(vb)
            cell = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
            print(f"{workload:<14} {name:<12} {m['unit']:<5} {cell(qa):>32} {cell(qb):>32}  {len(va)}/{len(vb)}  {v}")
    return 0
