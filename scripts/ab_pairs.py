#!/usr/bin/env python3
"""Alternating parent/change pairs of benchmark runs, and their summary.

    python3 scripts/ab_pairs.py --parent DIR --change DIR --workload W --seed S --pairs N

Each pair runs ``perfbench/run.py --workload W --seed S --seconds SECONDS
--trace 0`` once in each checkout, SECONDS being the ``run_seconds`` of
BENCHMARK.json: the parent first on odd pairs, the change first on even
ones.  Prints each pair's end-to-end metrics (parent/change), then per
metric each side's median and quartiles and in how many pairs the change is
better (ties count for neither side), and a verdict line:

- ``unresolved`` when either side's spread, q3 - q1 as a share of the
  median, exceeds the metric's bound in BENCHMARK.json;
- ``gain`` when the change is better in at least 9 of 10 pairs and its
  median is better by more than the parent's q3 - q1;
- ``regression`` when the change's median is worse than the parent's by
  more than the bound, as a share of the parent's median;
- ``no regression`` otherwise.

Exits 1 when a call fails or reports ``correct`` false or ``failed`` above
0, and 2 without running anything when the two checkouts' benchmarks
(BENCHMARK.json and perfbench/) differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path


def benchmark_digest(checkout: Path) -> str:
    """sha256 over BENCHMARK.json and the files under perfbench/."""
    digest = hashlib.sha256()
    files = [checkout / "BENCHMARK.json"] + sorted(
        p for p in (checkout / "perfbench").rglob("*") if p.is_file() and "__pycache__" not in p.parts
    )
    for path in files:
        digest.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON object on the last line of one benchmark call's output."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """q1, median and q3, as perfbench reports them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """q3 - q1 as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(q2)


def change_wins(metric: dict, parent: list[float], change: list[float]) -> int:
    """The pairs in which the change is better; ties count for neither side."""
    sign = 1 if metric["better"] == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def verdict(metric: dict, parent: list[float], change: list[float]) -> str:
    """One metric's verdict over paired runs (see the module docstring)."""
    name, bound, sign = metric["name"], metric["bound"], (1 if metric["better"] == "higher" else -1)
    widest = max(spread(parent), spread(change))
    if widest > bound:
        return f"{name}: unresolved (spread {widest:.3g} above the bound {bound:g})"
    wins = change_wins(metric, parent, change)
    q1, median, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - median)
    if 10 * wins >= 9 * len(parent) and gap > q3 - q1:
        return (f"{name}: gain (better in {wins} of {len(parent)}, "
                f"median gap {gap:.6g} above the parent's q3 - q1 {q3 - q1:.6g})")
    worse = -gap / abs(median) if median else (float("inf") if gap < 0 else 0.0)
    if worse > bound:
        return f"{name}: regression (median worse by {worse:.3g}, above the bound {bound:g})"
    moved = f"worse by {worse:.3g}" if worse > 0 else f"better by {-worse:.3g}" if worse < 0 else "unchanged"
    return f"{name}: no regression (median {moved}, within the bound {bound:g})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if benchmark_digest(args.parent) != benchmark_digest(args.change):
        print("the two checkouts run different benchmarks (BENCHMARK.json or perfbench/)", file=sys.stderr)
        return 2
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    values: dict[str, dict[str, list[float]]] = {side: {m["name"]: [] for m in metrics} for side in sides}
    faulty = False
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            try:
                result = run(sides[side], args.workload, args.seed, spec["run_seconds"])
            except (RuntimeError, json.JSONDecodeError) as exc:
                print(f"pair {pair} {side}: {exc}", file=sys.stderr)
                return 1
            if not result["correct"] or result["failed"] > 0:
                print(f"pair {pair} {side}: correct {result['correct']}, failed {result['failed']}")
                faulty = True
            for m in metrics:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
        shown = "  ".join(
            f"{m['name']} {values['parent'][m['name']][-1]:.6g}/{values['change'][m['name']][-1]:.6g}" for m in metrics
        )
        print(f"pair {pair} ({order[0]} first): {shown}", flush=True)
    for m in metrics:
        name = m["name"]
        wins = change_wins(m, values["parent"][name], values["change"][name])
        summary = [
            f"{side} median {q2:.6g} [q1 {q1:.6g}, q3 {q3:.6g}]"
            for side in sides
            for q1, q2, q3 in [quartiles(values[side][name])]
        ]
        print(f"{name} ({m['unit']}, {m['better']} is better): {'; '.join(summary)}; "
              f"change better in {wins} of {args.pairs}")
        print(verdict(m, values["parent"][name], values["change"][name]))
    return 1 if faulty else 0


if __name__ == "__main__":
    sys.exit(main())
