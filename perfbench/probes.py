"""Where the traced run records spans, and the per-layer metrics they give.

Each probe names the module or class where a caller looks a public function
up, and the span recorded around it.  A function imported into several
modules is probed in each module that calls it.  A probe whose name is gone
from the program fails the traced run instead of reading zero.
"""

from __future__ import annotations

import importlib
import os

import workloads
from spans import Span, Tracer, call_count, self_time, spans_from_json, total_time

STAGES = ("synth", "ingest", "impute", "label", "dataset", "evaluate", "analyze")


def _rows_parsed(tracer, args, kwargs, result):
    tracer.counts["ingest.rows_parsed"] += len(result.rows)


def _affect_rows_parsed(tracer, args, kwargs, result):
    tracer.counts["ingest.rows_parsed"] += sum(len(r.items) for r in result.values())


def _rows_written(tracer, args, kwargs, result):
    rows = kwargs["rows"] if "rows" in kwargs else args[1]
    tracer.counts["synth.sample_rows"] += len(rows)


def _rows_built(tracer, args, kwargs, result):
    files = kwargs["files"] if "files" in kwargs else args[0]
    tracer.counts["synth.sample_rows"] += sum(len(f.rows) for f in files)


def _keep_imputation(tracer, args, kwargs, result):
    timeline = kwargs["timeline"] if "timeline" in kwargs else args[0]
    tracer.kept.append((timeline, result))


def _dataset_rows(tracer, args, kwargs, result):
    tracer.counts["labels.dataset_rows"] += result.n_rows


def _bytes_written(tracer, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[0]
    tracer.counts["core.bytes_written"] += os.path.getsize(path)


def _nodes_grown(tracer, args, kwargs, result):
    tracer.counts["learners.forest.nodes_grown"] += len(result.feature)


def _rows_scored(tracer, args, kwargs, result):
    X = kwargs["X"] if "X" in kwargs else args[1]
    tracer.counts["learners.forest.rows_scored"] += X.shape[0]


# (owner: "module" or "module:Class", attribute, span name, on_return)
PROBES = [
    ("affectpipe.pipeline", "run_pipeline", "pipeline.run", None),
    *(
        ("affectpipe.pipeline:PipelineRun", f"stage_{stage}", f"pipeline.stage.{stage}", None)
        for stage in STAGES
    ),
    ("affectpipe.pipeline", "write_cohort", "synth.write_cohort", None),
    ("affectpipe.synth", "write_cohort", "synth.write_cohort", None),
    ("affectpipe.synth", "generate", "synth.generate", None),
    ("affectpipe.synth", "write_modality_csv", "synth.write_modality_csv", _rows_written),
    ("affectpipe.synth", "build_timeline", "ingest.build_timeline", _rows_built),
    ("affectpipe.pipeline", "parse_modality_file", "ingest.parse_modality_file", _rows_parsed),
    ("affectpipe.pipeline", "parse_affect_file", "ingest.parse_affect_file", _affect_rows_parsed),
    ("affectpipe.pipeline", "build_timeline", "ingest.build_timeline", None),
    ("affectpipe.pipeline", "impute_all", "impute.impute_all", _keep_imputation),
    ("affectpipe.impute", "impute_all", "impute.impute_all", _keep_imputation),
    (
        "affectpipe.pipeline",
        "fill_residual_with_participant_mean",
        "impute.fill_residual",
        _keep_imputation,
    ),
    (
        "affectpipe.impute",
        "fill_residual_with_participant_mean",
        "impute.fill_residual",
        _keep_imputation,
    ),
    ("affectpipe.pipeline", "build_labels_cohort", "labels.build_labels_cohort", None),
    ("affectpipe.labels", "build_labels_cohort", "labels.build_labels_cohort", None),
    ("affectpipe.pipeline", "build_dataset", "labels.build_dataset", _dataset_rows),
    ("affectpipe.labels", "build_dataset", "labels.build_dataset", _dataset_rows),
    ("affectpipe.pipeline", "timeline_to_dict", "core.timeline_to_dict", None),
    ("affectpipe.pipeline", "dump_json", "core.dump_json", _bytes_written),
    ("affectpipe.synth", "dump_json", "core.dump_json", _bytes_written),
    ("affectpipe.labels", "dump_json", "core.dump_json", _bytes_written),
    ("affectpipe.pipeline", "train", "learners.train", None),
    ("affectpipe.evaluate", "train", "learners.train", None),
    ("affectpipe.learners:TrainedModel", "predict_proba", "learners.predict_proba", None),
    ("affectpipe.learners.forest:DecisionTree", "fit", "learners.forest.tree_fit", _nodes_grown),
    (
        "affectpipe.learners.forest:DecisionTree",
        "leaf_values",
        "learners.forest.leaf_values",
        _rows_scored,
    ),
    ("affectpipe.pipeline", "cross_validate", "evaluate.cross_validate", None),
    ("affectpipe.evaluate", "cross_validate", "evaluate.cross_validate", None),
    ("affectpipe.pipeline", "ablation_run", "evaluate.ablation_run", None),
    ("affectpipe.evaluate", "ablation_run", "evaluate.ablation_run", None),
    ("affectpipe.pipeline", "feature_affect_correlations", "analysis.correlations", None),
    ("affectpipe.pipeline", "monthly_scores", "analysis.monthly_scores", None),
    ("affectpipe.pipeline", "tvalues_from_scores", "analysis.tvalues", None),
    ("affectpipe.pipeline", "pooled_monthly_tvalues", "analysis.tvalues", None),
]


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def install(tracer: Tracer) -> None:
    for owner, attr, name, on_return in PROBES:
        tracer.probe(_resolve(owner), attr, name, on_return)


def _imputation_counts(kept) -> tuple[int, int]:
    """Values newly imputed over all kept (input, output) imputation calls,
    and values still missing in each participant's last imputed timeline."""
    from affectpipe.core import Provenance

    def count(timeline, provenance) -> int:
        return sum(
            1
            for day in timeline.days
            for p in day.features.provenance.values()
            if p is provenance
        )

    imputed = 0
    last = {}
    for before, after in kept:
        imputed += count(after, Provenance.IMPUTED) - count(before, Provenance.IMPUTED)
        last[after.participant_id] = after
    missing = sum(count(t, Provenance.MISSING) for t in last.values())
    return imputed, missing


def merge(payloads: list[dict]) -> tuple[list[Span], dict]:
    """Concatenate the spans and counts of several traced tasks' payloads."""
    spans: list[Span] = []
    counts: dict = {}
    for payload in payloads:
        offset = len(spans)
        spans.extend(
            Span(
                s.id + offset,
                None if s.parent is None else s.parent + offset,
                s.name,
                s.start,
                s.end,
            )
            for s in spans_from_json(payload["spans"])
        )
        for key, value in payload["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return spans, counts


def counts_of(tracer: Tracer) -> dict:
    """Counts taken at the probes plus those computed from kept values."""
    counts = dict(tracer.counts)
    imputed, missing = _imputation_counts(tracer.kept)
    counts["impute.values_imputed"] = imputed
    counts["impute.values_still_missing"] = missing
    return counts


# Per-layer metric name -> unit, as BENCHMARK.json declares them.
# `pipeline.artifacts_changed` and `trace.overhead_s` come from the output
# check and the untraced run.
UNITS = workloads.declared_units("per_layer")

# Counts that must repeat exactly between two runs of the same program on
# the same inputs.  The first five must also equal the reference counts of
# the reference seed; the last two change with an artifact's format, which a
# change may alter on purpose, so there a difference is only reported.
RESULT_COUNTS = (
    "learners.forest.tree_fits",
    "learners.forest.nodes_grown",
    "ingest.rows_parsed",
    "impute.values_imputed",
    "labels.dataset_rows",
)
REPEATABLE_COUNTS = RESULT_COUNTS + ("core.dump_json_calls", "core.bytes_written")


# Metrics that are not the total time inside spans of their name.
_DERIVED = {"pipeline.self_s", "evaluate.self_s", "ingest.rows_per_s", "trace.overhead_s"}


def layer_metrics(spans: list[Span], counts: dict) -> dict:
    """Every per-layer metric the spans and counts give (all but
    `pipeline.artifacts_changed` and `trace.overhead_s`).

    A metric ``<span>_s`` is the time inside spans called ``<span>``.
    """
    metrics = {}
    for name, unit in UNITS.items():
        if unit == "s" and name not in _DERIVED:
            metrics[name] = total_time(spans, name[: -len("_s")])
        elif unit in ("count", "bytes"):
            metrics[name] = counts.get(name, 0)
    metrics["pipeline.self_s"] = self_time(spans, "pipeline.run", "pipeline.stage.")
    metrics["evaluate.self_s"] = self_time(spans, "evaluate.cross_validate")
    parse_s = metrics["ingest.parse_modality_file_s"] + metrics["ingest.parse_affect_file_s"]
    rows = metrics["ingest.rows_parsed"]
    metrics["ingest.rows_per_s"] = rows / parse_s if parse_s > 0 else 0.0
    metrics["core.dump_json_calls"] = call_count(spans, "core.dump_json")
    metrics["learners.train_calls"] = call_count(spans, "learners.train")
    metrics["learners.forest.tree_fits"] = call_count(spans, "learners.forest.tree_fit")
    del metrics["pipeline.artifacts_changed"]
    return {name: metrics[name] for name in UNITS if name in metrics}
