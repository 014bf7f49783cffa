"""Command-line entry points for every pipeline stage.

Exit codes: 0 ok, 2 config error or an output path that cannot be written,
3 missing input, 4 malformed input, 5 schema mismatch, 6 insufficient/empty
data, 1 any other pipeline failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import Modality, check_output, default_schema, load_schema, load_timeline, save_timeline
from .errors import (
    ConfigError,
    InputFormatError,
    InsufficientDataError,
    MissingInputError,
    PipelineError,
    SchemaError,
)
from .evaluate import save_report, write_accuracy_table_csv, write_roc_csv
from .labels import FALLBACKS, TARGET_NAMES, load_dataset, load_labels, save_dataset, save_labels
from .learners import MODEL_NAMES, load_model, save_model, train
from .pipeline import (
    AnalyzeConfig,
    DatasetConfig,
    EvaluateConfig,
    ImputeConfig,
    LabelConfig,
    analyze_correlations,
    analyze_tvalues,
    build_datasets,
    evaluate_dataset,
    impute_timeline,
    ingest_participant,
    label_timelines,
    run_pipeline,
)
from .synth import load_cohort_config, write_cohort

EXIT_CODES = [
    (ConfigError, 2),
    (MissingInputError, 3),
    (InputFormatError, 4),
    (SchemaError, 5),
    (InsufficientDataError, 6),
]

def _schema_from_arg(path: str | None):
    return default_schema() if path is None else load_schema(path)


def _cmd_synth(args: argparse.Namespace) -> None:
    config = load_cohort_config(args.config)
    truth = write_cohort(config, args.out_dir)
    print(
        f"wrote cohort of {config.n_participants} participants "
        f"({len(truth['eligible_ids'])} designated eligible) to {args.out_dir}"
    )


def _cmd_ingest(args: argparse.Namespace) -> None:
    given = {m: getattr(args, m.value) for m in Modality}
    files = {m: path for m, path in given.items() if path is not None}
    timeline = ingest_participant(args.participant, files, args.affect, _schema_from_arg(args.schema))
    save_timeline(args.out, timeline)
    print(f"wrote timeline with {len(timeline.dates)} days to {args.out}")


def _cmd_impute(args: argparse.Namespace) -> None:
    section = ImputeConfig(fallback=args.fallback)
    save_timeline(args.out, impute_timeline(load_timeline(args.infile), section))
    print(f"wrote imputed timeline to {args.out}")


def _cmd_label(args: argparse.Namespace) -> None:
    section = LabelConfig(target=args.target, pooled=args.pooled, middle_band=args.middle_band, same_day=args.same_day)
    label_sets = label_timelines([load_timeline(p) for p in args.infiles], section)
    save_labels(args.out, label_sets)
    n = sum(len(l.entries) for l in label_sets)
    print(f"wrote {n} labels for {len(label_sets)} participants to {args.out}")


def _cmd_dataset(args: argparse.Namespace) -> None:
    section = DatasetConfig(fallback=args.fallback, modalities=tuple(args.modalities.split(",")))
    schema = _schema_from_arg(args.schema)
    timelines = [load_timeline(p) for p in args.infiles]
    parts = list(build_datasets(timelines, load_labels(args.labels), schema, section).values())
    save_dataset(args.out, *parts)
    n_rows = sum(ds.n_rows for ds in parts)
    print(f"wrote dataset with {n_rows} rows x {len(parts[0].feature_ids)} features to {args.out}")


def _cmd_train(args: argparse.Namespace) -> None:
    section = EvaluateConfig(model=args.model, tune=args.tune)
    spec = section.spec(args.seed)
    ds = load_dataset(args.data)
    model = train(spec, ds.X, ds.y, grid=section.grid(), feature_ids=ds.feature_ids)
    save_model(args.out, model)
    print(f"wrote trained {spec.family.value} model to {args.out}")


def _cmd_evaluate(args: argparse.Namespace) -> None:
    section = EvaluateConfig(model=args.model, folds=args.folds, tune=args.tune, stratified=args.stratified)
    report = evaluate_dataset(load_dataset(args.data), section, args.seed, default_schema())
    out = Path(args.out)
    save_report(out, report)
    write_roc_csv(out.with_suffix(".roc.csv"), report)
    write_accuracy_table_csv(out.with_suffix(".accuracy.csv"), {args.model: report})
    print(
        f"{report.family}: mean accuracy {report.mean_accuracy:.3f} "
        f"(baseline {report.baseline_accuracy:.3f}), AUC {report.auc:.3f}"
    )


def _cmd_analyze_corr(args: argparse.Namespace) -> None:
    schema = _schema_from_arg(args.schema)
    timelines = [load_timeline(p) for p in args.infiles]
    analyze_correlations(args.out, timelines, schema, LabelConfig(same_day=args.same_day).alignment)
    print(f"wrote feature-affect correlations to {args.out}")


def _cmd_analyze_tvalues(args: argparse.Namespace) -> None:
    alignment = LabelConfig(same_day=args.same_day).alignment
    section = AnalyzeConfig(baseline_months=args.baseline_months.split(",") if args.baseline_months else None)
    model = load_model(args.model)
    timelines = [load_timeline(p) for p in args.infiles]
    _, warnings = analyze_tvalues(args.out, ((model, t) for t in timelines), section.baseline_months, alignment)
    for pid, warns in warnings.items():
        for w in warns:
            print(f"warning [{pid}] {w}", file=sys.stderr)
    print(f"wrote monthly |t| table to {args.out}")


def _cmd_run(args: argparse.Namespace) -> None:
    manifest = run_pipeline(args.config, seed_override=args.seed, out_dir_override=args.out_dir)
    print(f"run {manifest.run_id} complete: {len(manifest.outputs)} artifacts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affectpipe",
        description="Wearable-to-affect prediction pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("ingest", help="parse raw CSVs into a timeline")
    p.add_argument("--schema", default=None)
    p.add_argument("--participant", required=True)
    p.add_argument("--ring", default=None)
    p.add_argument("--watch", default=None)
    p.add_argument("--phone", default=None)
    p.add_argument("--affect", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("impute", help="window-impute missing feature values")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fallback", choices=FALLBACKS, default=ImputeConfig.fallback)
    p.set_defaults(fn=_cmd_impute)

    p = sub.add_parser("label", help="build binary affect labels")
    p.add_argument("--in", dest="infiles", nargs="+", required=True)
    p.add_argument("--target", required=True, help=TARGET_NAMES)
    p.add_argument("--out", required=True)
    p.add_argument("--middle-band", type=float, default=LabelConfig.middle_band)
    p.add_argument("--pooled", action="store_true")
    p.add_argument("--same-day", action="store_true")
    p.set_defaults(fn=_cmd_label)

    p = sub.add_parser("dataset", help="assemble a design matrix from labels")
    p.add_argument("--in", dest="infiles", nargs="+", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--schema", default=None)
    p.add_argument("--modalities", default=",".join(DatasetConfig.modalities))
    p.add_argument("--fallback", choices=FALLBACKS, default=DatasetConfig.fallback)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_dataset)

    p = sub.add_parser("train", help="train one model on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=sorted(MODEL_NAMES), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tune", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("evaluate", help="k-fold cross-validate a model family")
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=sorted(MODEL_NAMES), required=True)
    p.add_argument("--folds", type=int, default=EvaluateConfig.folds)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tune", action="store_true")
    p.add_argument("--stratified", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("analyze", help="secondary analyses")
    analyze_sub = p.add_subparsers(dest="analysis", required=True)

    pc = analyze_sub.add_parser("corr", help="feature-affect correlation matrix")
    pc.add_argument("--in", dest="infiles", nargs="+", required=True)
    pc.add_argument("--schema", default=None)
    pc.add_argument("--same-day", action="store_true")
    pc.add_argument("--out", required=True)
    pc.set_defaults(fn=_cmd_analyze_corr)

    pt = analyze_sub.add_parser("tvalues", help="monthly last-week |t| table")
    pt.add_argument("--model", required=True)
    pt.add_argument("--in", dest="infiles", nargs="+", required=True)
    pt.add_argument("--baseline-months", default=None)
    pt.add_argument("--same-day", action="store_true")
    pt.add_argument("--out", required=True)
    pt.set_defaults(fn=_cmd_analyze_tvalues)

    p = sub.add_parser("run", help="execute the full configured pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(fn=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None) is not None:
            check_output(args.out)
        if getattr(args, "out_dir", None) is not None:
            check_output(args.out_dir, directory=True)
        args.fn(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for cls, code in EXIT_CODES:
            if isinstance(exc, cls):
                return code
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
