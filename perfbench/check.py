"""Output checks: results compared exactly, artifact digests counted.

A run fails when any of its results (accuracies, AUCs, fold hashes,
correlations, t-values) differs from the expected value.  An artifact whose
digest differs is only counted, so a deliberate change of an artifact's
format shows as `pipeline.artifacts_changed` without failing the run.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def result_diffs(expected, actual, where: str = "") -> list[str]:
    """Paths at which two JSON-like values differ; floats compare exactly."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        diffs = []
        for key in sorted(set(expected) | set(actual), key=str):
            sub = f"{where}/{key}"
            if key not in expected or key not in actual:
                diffs.append(sub)
            else:
                diffs.extend(result_diffs(expected[key], actual[key], sub))
        return diffs
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [where or "/"]
        diffs = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            diffs.extend(result_diffs(e, a, f"{where}/{i}"))
        return diffs
    if type(expected) is not type(actual) or expected != actual:
        return [where or "/"]
    return []


def artifacts_changed(expected: dict, actual: dict) -> int:
    """Artifacts added, removed or with a different sha256."""
    return sum(1 for name in set(expected) | set(actual) if expected.get(name) != actual.get(name))


def normalized(value):
    """A value as it reads back from JSON, so fresh results compare with
    stored ones (tuples become lists, keys become strings)."""
    return json.loads(json.dumps(value))
