"""Train-set z-normalization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientDataError, SchemaError


@dataclass(frozen=True, eq=False)
class Standardizer:
    """Per-column center/scale estimated from training rows only.

    Population standard deviation (ddof=0).  Zero-variance columns transform
    to exactly 0 rather than dividing by zero.
    """

    mean: np.ndarray
    std: np.ndarray

    def apply(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.mean.shape[0]:
            raise SchemaError(
                f"expected rows with {self.mean.shape[0]} columns, got {rows.shape}"
            )
        safe = np.where(self.std > 0.0, self.std, 1.0)
        out = (rows - self.mean) / safe
        out[:, self.std == 0.0] = 0.0
        return out


def fit_standardizer(rows: np.ndarray) -> Standardizer:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise SchemaError(f"expected a 2-d row matrix, got shape {rows.shape}")
    if rows.shape[0] < 2:
        raise InsufficientDataError("need at least 2 rows to fit a standardizer")
    # Rounding in the mean can give a constant column a tiny nonzero std
    # (three rows of 683.5280608818659 do); it is still zero-variance.
    constant = (rows == rows[0]).all(axis=0)
    std = np.where(constant, 0.0, rows.std(axis=0, ddof=0))
    return Standardizer(mean=rows.mean(axis=0), std=std)
