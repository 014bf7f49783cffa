"""Daily wearable features to next-day affect: ingestion, imputation,
labeling, from-scratch learners, evaluation, and a synthetic oracle cohort."""

__version__ = "0.1.0"

from .core import (
    AffectReport,
    DailyAffect,
    DailyFeatureVector,
    FeatureSchema,
    FeatureSpec,
    Modality,
    ParticipantTimeline,
    Provenance,
    TimelineDay,
    default_schema,
    filter_eligible_participants,
    valid_affect_day_count,
)
from .errors import (
    ConfigError,
    InputFormatError,
    InsufficientDataError,
    MissingInputError,
    PipelineError,
    SchemaError,
)

__all__ = [
    "__version__",
    "AffectReport",
    "DailyAffect",
    "DailyFeatureVector",
    "FeatureSchema",
    "FeatureSpec",
    "Modality",
    "ParticipantTimeline",
    "Provenance",
    "TimelineDay",
    "default_schema",
    "filter_eligible_participants",
    "valid_affect_day_count",
    "ConfigError",
    "InputFormatError",
    "InsufficientDataError",
    "MissingInputError",
    "PipelineError",
    "SchemaError",
]
