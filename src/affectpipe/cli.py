"""Command-line entry points for every pipeline stage.

Exit codes: 0 ok, 2 config error or an output path that cannot be written,
3 missing input, 4 malformed input, 5 schema mismatch, 6 insufficient/empty
data, 1 any other pipeline failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import (
    feature_affect_correlations,
    monthly_scores,
    write_correlation_csv,
    write_tvalues_csv,
)
from .core import (
    Modality,
    check_output,
    default_polarity,
    default_schema,
    load_schema,
    load_timeline,
    parse_modalities,
    save_timeline,
)
from .errors import (
    ConfigError,
    InputFormatError,
    InsufficientDataError,
    MissingInputError,
    NoDataError,
    PipelineError,
    SchemaError,
)
from .evaluate import (
    REFERENCE_RESULTS,
    cross_validate,
    relative_improvement,
    save_report,
    subset_modalities,
    write_accuracy_table_csv,
    write_roc_csv,
)
from .impute import fill_residual_with_participant_mean, impute_all
from .ingest import build_timeline, parse_affect_file, parse_modality_file
from .labels import (
    FALLBACKS,
    TARGET_NAMES,
    build_dataset,
    build_labels_cohort,
    concat_datasets,
    load_dataset,
    load_labels,
    parse_target,
    save_dataset,
    save_labels,
)
from .learners import MODEL_NAMES, ModelSpec, default_grid, load_model, save_model, train
from .pipeline import run_pipeline, tvalue_table
from .synth import load_cohort_config, write_cohort

EXIT_CODES = [
    (ConfigError, 2),
    (MissingInputError, 3),
    (InputFormatError, 4),
    (SchemaError, 5),
    (InsufficientDataError, 6),
    (NoDataError, 6),
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
    schema = _schema_from_arg(args.schema)
    polarity = default_polarity()
    files = []
    for modality, path in (
        (Modality.RING, args.ring),
        (Modality.WATCH, args.watch),
        (Modality.PHONE, args.phone),
    ):
        if path is not None:
            files.append(parse_modality_file(path, schema, modality, args.participant))
    reports = []
    if args.affect is not None:
        reports = list(parse_affect_file(args.affect, polarity, args.participant).values())
    timeline = build_timeline(files, reports, schema)
    save_timeline(args.out, timeline)
    print(f"wrote timeline with {len(timeline.dates)} days to {args.out}")


def _cmd_impute(args: argparse.Namespace) -> None:
    timeline = load_timeline(args.infile)
    out = impute_all(timeline)
    if args.fallback == "participant-mean":
        out = fill_residual_with_participant_mean(out)
    save_timeline(args.out, out)
    print(f"wrote imputed timeline to {args.out}")


def _cmd_label(args: argparse.Namespace) -> None:
    timelines = [load_timeline(p) for p in args.infiles]
    target = parse_target(args.target, args.pooled)
    label_sets = build_labels_cohort(
        timelines,
        target,
        middle_band=args.middle_band,
        alignment="same_day" if args.same_day else "next_day",
    )
    save_labels(args.out, label_sets)
    n = sum(len(l.entries) for l in label_sets)
    print(f"wrote {n} labels for {len(label_sets)} participants to {args.out}")


def _cmd_dataset(args: argparse.Namespace) -> None:
    modalities = parse_modalities(args.modalities.split(","))
    schema = _schema_from_arg(args.schema)
    timelines = {t.participant_id: t for t in (load_timeline(p) for p in args.infiles)}
    label_sets = load_labels(args.labels)
    parts = []
    for labels in label_sets:
        timeline = timelines.get(labels.participant_id)
        if timeline is None:
            raise MissingInputError(
                f"no timeline supplied for participant {labels.participant_id!r}"
            )
        parts.append(
            build_dataset(timeline, labels, schema, modalities, fallback=args.fallback)
        )
    ds = concat_datasets(parts)
    save_dataset(args.out, ds)
    print(f"wrote dataset with {ds.n_rows} rows x {len(ds.feature_ids)} features to {args.out}")


def _cmd_train(args: argparse.Namespace) -> None:
    ds = load_dataset(args.data)
    family = MODEL_NAMES[args.model]
    spec = ModelSpec(family=family, seed=args.seed)
    grid = default_grid(family) if args.tune else None
    model = train(spec, ds.X, ds.y, grid=grid, feature_ids=ds.feature_ids)
    save_model(args.out, model)
    print(f"wrote trained {family.value} model to {args.out}")


def _cmd_evaluate(args: argparse.Namespace) -> None:
    ds = load_dataset(args.data)
    family = MODEL_NAMES[args.model]
    spec = ModelSpec(family=family, seed=args.seed)
    grid = default_grid(family) if args.tune else None
    report = cross_validate(
        ds,
        spec,
        k=args.folds,
        seed=args.seed,
        grid=grid,
        stratified=args.stratified,
        modalities=subset_modalities(ds, default_schema()),
    )
    out = Path(args.out)
    save_report(out, report)
    write_roc_csv(out.with_suffix(".roc.csv"), report)
    write_accuracy_table_csv(out.with_suffix(".accuracy.csv"), {args.model: report})
    print(
        f"{family.value}: mean accuracy {report.mean_accuracy:.3f} "
        f"(baseline {report.baseline_accuracy:.3f}), AUC {report.auc:.3f}"
    )
    ref_acc = REFERENCE_RESULTS["mean_accuracy"]
    ref_auc = REFERENCE_RESULTS["auc"]
    print(
        "vs reference: accuracy "
        f"{report.mean_accuracy - ref_acc:+.3f} absolute "
        f"({relative_improvement(report.mean_accuracy, ref_acc):+.1%} relative), "
        f"AUC {report.auc - ref_auc:+.3f} absolute "
        f"({relative_improvement(report.auc, ref_auc):+.1%} relative)"
    )


def _cmd_analyze_corr(args: argparse.Namespace) -> None:
    schema = _schema_from_arg(args.schema)
    timelines = [load_timeline(p) for p in args.infiles]
    corr = feature_affect_correlations(
        timelines, schema, alignment="same_day" if args.same_day else "next_day"
    )
    write_correlation_csv(args.out, corr, schema.feature_ids())
    print(f"wrote feature-affect correlations to {args.out}")


def _cmd_analyze_tvalues(args: argparse.Namespace) -> None:
    model = load_model(args.model)
    timelines = [load_timeline(p) for p in args.infiles]
    baseline = args.baseline_months.split(",") if args.baseline_months else None
    alignment = "same_day" if args.same_day else "next_day"
    rows, warnings = tvalue_table(
        [(t.participant_id, monthly_scores(model, t, alignment=alignment)) for t in timelines],
        baseline,
    )
    for pid, warns in warnings.items():
        for w in warns:
            print(f"warning [{pid}] {w}", file=sys.stderr)
    write_tvalues_csv(args.out, rows)
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
    p.add_argument("--fallback", choices=FALLBACKS, default="drop")
    p.set_defaults(fn=_cmd_impute)

    p = sub.add_parser("label", help="build binary affect labels")
    p.add_argument("--in", dest="infiles", nargs="+", required=True)
    p.add_argument("--target", required=True, help=TARGET_NAMES)
    p.add_argument("--out", required=True)
    p.add_argument("--middle-band", type=float, default=0.20)
    p.add_argument("--pooled", action="store_true")
    p.add_argument("--same-day", action="store_true")
    p.set_defaults(fn=_cmd_label)

    p = sub.add_parser("dataset", help="assemble a design matrix from labels")
    p.add_argument("--in", dest="infiles", nargs="+", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--schema", default=None)
    p.add_argument("--modalities", default="ring,watch,phone")
    p.add_argument("--fallback", choices=FALLBACKS, default="drop")
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
    p.add_argument("--folds", type=int, default=5)
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
