#!/usr/bin/env python3
"""End-to-end demo: synthesize the default cohort, run every stage, and
print the run's headline numbers.

    python scripts/run_demo_experiment.py --out-dir demo_run [--seed 1234]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from affectpipe.pipeline import run_pipeline

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default_run.json"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", type=Path, default=DEFAULT_CONFIG)
    ap.add_argument("--out-dir", type=Path, default=Path("demo_run"))
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()

    manifest = run_pipeline(args.config, seed_override=args.seed, out_dir_override=args.out_dir)
    report = json.loads((args.out_dir / "report.json").read_text())
    analyze = json.loads((args.out_dir / "analyze.json").read_text())

    print(f"run {manifest.run_id}: {len(manifest.outputs)} artifacts in {args.out_dir}")
    macro = report["macro_mean_accuracy"]
    baseline = report["macro_baseline_accuracy"]
    print(f"macro CV accuracy {macro:.3f} (majority baseline {baseline:.3f})")

    print("\nper participant:")
    for pid in sorted(report["per_participant"]):
        r = report["per_participant"][pid]
        print(
            f"  {pid}: acc {r['mean_accuracy']:.3f} "
            f"(baseline {r['baseline_accuracy']:.3f}), auc {r['auc']:.3f}"
        )

    pooled = analyze.get("tvalues", {}).get("pooled", {})
    if pooled:
        top = max(pooled, key=pooled.get)
        print(f"\npooled monthly |t| peaks at {top} ({pooled[top]:.2f})")
        for month in sorted(pooled):
            print(f"  {month}: {pooled[month]:.2f}")


if __name__ == "__main__":
    main()
