"""Exception types shared across the pipeline.

The CLI maps each class to a distinct exit code (see :mod:`affectpipe.cli`).
"""


class PipelineError(Exception):
    """Base class for all pipeline-specific failures."""


class ConfigError(PipelineError):
    """Invalid run configuration, unknown stage, or bad CLI usage."""


class MissingInputError(PipelineError):
    """A referenced input file or directory does not exist."""


class InputFormatError(PipelineError):
    """Malformed file content (CSV rows, JSON documents, value ranges)."""


class SchemaError(PipelineError):
    """Feature, modality, or shape inconsistency against a schema."""


class InsufficientDataError(PipelineError):
    """Not enough observations to carry out the requested operation."""
