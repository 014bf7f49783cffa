#!/usr/bin/env python3
"""Compare the artifacts of two pipeline runs by their manifest digests.

Reads ``manifest.json`` of each run directory and compares the sha256 of
every output it lists.  Prints each artifact whose digest differs or that
only one run has, and exits 1 on any difference, 0 when the runs agree.

    python scripts/compare_runs.py RUN_A RUN_B
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def outputs(run_dir: Path) -> dict[str, str]:
    return json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["outputs"]


def differences(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """One line per artifact that the two output maps disagree on."""
    lines = []
    for name in sorted(a.keys() | b.keys()):
        if name not in b:
            lines.append(f"only in A: {name}")
        elif name not in a:
            lines.append(f"only in B: {name}")
        elif a[name] != b[name]:
            lines.append(f"differs: {name}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="first run directory")
    parser.add_argument("b", type=Path, help="second run directory")
    args = parser.parse_args(argv)
    a, b = outputs(args.a), outputs(args.b)
    lines = differences(a, b)
    for line in lines:
        print(line)
    if not lines:
        print(f"{len(a)} artifacts identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
