"""Seeded synthetic cohort generator with analytic ground truth.

Every feature has a standard-normal latent; the observed value is a fixed
per-feature monotone transform of it (normal for ring-like channels,
lognormal for step-like counts, logistic fraction for phone booleans).
Affect composites for day d are linear in the latents of day d-1 plus noise,
then rescaled to the configured cohort moments, so the attainable accuracy of
a next-day predictor is known in closed form:

    bayes = 1/2 + arcsin(sigma_signal / sigma_raw) / pi

Missingness (independent modality-days plus multi-day block runs) is applied
after affect generation and therefore never biases the labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from typing import ClassVar, Mapping, Sequence

import numpy as np

from .core import (
    FORMAT_VERSION,
    POSITIVE_ITEMS,
    SURVEY_ITEMS,
    AffectReport,
    FeatureSchema,
    FeatureSpec,
    Modality,
    ParticipantTimeline,
    default_schema,
    dump_json,
    read_config,
    read_json,
    to_json,
)
from .errors import ConfigError
from .ingest import (
    RawSampleFile,
    build_timeline,
    sample_rows,
    write_affect_csv,
    write_modality_csv,
)

# Stream salts; one independent generator per concern and participant.
_SALT_FEATURES = 1
_SALT_AFFECT = 2
_SALT_ITEMS = 3
_SALT_REPORT = 4
_SALT_MISSING = 5
_SALT_INTRADAY = 6

# Signal-bearing features; variance shares are about 60/30/10 across
# ring/watch/phone, matching the planted multimodal story.
DEFAULT_PA_WEIGHTS: dict[str, float] = {
    "sleep_deep": 0.55,
    "sleep_light": 0.45,
    "heart_rate_variability": 0.40,
    "met_high": 0.30,
    "sleep_total": 0.25,
    "walk_steps": 0.45,
    "distance": 0.40,
    "run_steps": 0.25,
    "main_activity": 0.30,
    "location_change": 0.20,
}
DEFAULT_NA_WEIGHTS: dict[str, float] = {
    fid: -0.6 * w for fid, w in DEFAULT_PA_WEIGHTS.items()
}


@dataclass(frozen=True)
class SignalSpec:
    pa_weights: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_PA_WEIGHTS)
    )
    na_weights: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_NA_WEIGHTS)
    )
    noise_std_pa: float = 0.60
    noise_std_na: float = 0.45
    pa_mean: float = 45.27
    pa_sd: float = 20.22
    na_mean: float = 21.79
    na_sd: float = 12.28
    item_noise_sd: float = 6.0

    def __post_init__(self) -> None:
        if self.noise_std_pa <= 0 or self.noise_std_na <= 0:
            raise ConfigError("noise std must be > 0")
        if not self.pa_weights:
            raise ConfigError("pa_weights must not be empty")
        if self.pa_sd <= 0 or self.na_sd <= 0 or self.item_noise_sd < 0:
            raise ConfigError("spread parameters must be positive")


@dataclass(frozen=True)
class MissingnessSpec:
    day_prob: Mapping[str, float] = field(
        default_factory=lambda: {"ring": 0.08, "watch": 0.18, "phone": 0.35}
    )
    block_prob: float = 0.01
    block_len: tuple[int, int] = (2, 5)

    def __post_init__(self) -> None:
        for modality, p in self.day_prob.items():
            if modality not in {m.value for m in Modality}:
                raise ConfigError(f"unknown modality {modality!r} in missingness spec")
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"day_prob for {modality} out of [0,1]: {p}")
        if not 0.0 <= self.block_prob <= 1.0:
            raise ConfigError(f"block_prob out of [0,1]: {self.block_prob}")
        lo, hi = self.block_len
        if not 1 <= lo <= hi:
            raise ConfigError(f"bad block_len range: {self.block_len}")


@dataclass(frozen=True)
class PlantedShift:
    month_index: int = 3
    offset: float = 1.0

    def __post_init__(self) -> None:
        if self.month_index < 1:
            raise ConfigError("month_index is 1-based")


@dataclass(frozen=True)
class CohortConfig:
    json_document: ClassVar[bool] = True
    n_participants: int = 20
    n_days: int = 300
    n_eligible: int = 7
    start: date = date(2020, 1, 1)
    report_prob_eligible: float = 0.82
    report_prob_other: float = 0.38
    signal: SignalSpec = field(default_factory=SignalSpec)
    missingness: MissingnessSpec = field(default_factory=MissingnessSpec)
    shift: PlantedShift | None = field(default_factory=PlantedShift)
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.n_days < 30:
            raise ConfigError("need at least 30 days per participant")
        if not 0 < self.n_participants:
            raise ConfigError("n_participants must be positive")
        if not 0 <= self.n_eligible <= self.n_participants:
            raise ConfigError("n_eligible out of range")
        for p in (self.report_prob_eligible, self.report_prob_other):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"report probability out of [0,1]: {p}")
        if self.seed < 0:
            raise ConfigError(f"seed must be at least 0, got {self.seed}")
        known = set(default_schema().feature_ids())
        for name, weights in (
            ("pa_weights", self.signal.pa_weights),
            ("na_weights", self.signal.na_weights),
        ):
            unknown = set(weights) - known
            if unknown:
                raise ConfigError(f"{name} reference unknown features: {sorted(unknown)}")
        if self.shift is not None:
            n_months = len({(d.year, d.month) for d in self.dates()})
            if self.shift.month_index > n_months:
                raise ConfigError(
                    f"shift month_index {self.shift.month_index} exceeds the "
                    f"{n_months} months spanned by the run; pass shift=None "
                    f"for short cohorts"
                )

    def participant_ids(self) -> list[str]:
        return [f"p{i + 1:02d}" for i in range(self.n_participants)]

    def eligible_ids(self) -> list[str]:
        return self.participant_ids()[: self.n_eligible]

    def dates(self) -> list[date]:
        return [self.start + timedelta(days=i) for i in range(self.n_days)]

    def shift_month(self) -> str | None:
        if self.shift is None:
            return None
        months = sorted({(d.year, d.month) for d in self.dates()})
        year, month = months[self.shift.month_index - 1]
        return f"{year:04d}-{month:02d}"


def _sum_of_squares(weights: Mapping[str, float]) -> float:
    """The squared weights added one by one from 0.0, in their order.  A
    loop, not sum(), which adds floats with compensation from Python 3.12
    on and would change the bits of ground_truth.json."""
    total = 0.0
    for w in weights.values():
        total += w * w
    return total


def signal_sigma(weights: Mapping[str, float]) -> float:
    return math.sqrt(_sum_of_squares(weights))


def bayes_accuracy(weights: Mapping[str, float], noise_std: float) -> float:
    """Sign-agreement probability of the optimal next-day median predictor."""
    sigma_s = signal_sigma(weights)
    rho = sigma_s / math.sqrt(sigma_s * sigma_s + noise_std * noise_std)
    return 0.5 + math.asin(rho) / math.pi

def variance_shares(
    weights: Mapping[str, float], schema: FeatureSchema
) -> dict[str, float]:
    total = _sum_of_squares(weights)
    shares = {m.value: 0.0 for m in Modality}
    for fid, w in weights.items():
        shares[schema.spec_of(fid).modality.value] += w * w / total
    return shares


def expected_missing_rate(spec: MissingnessSpec, modality: Modality) -> float:
    """Analytic long-run missing fraction: block coverage plus independent
    day misses on the remainder (renewal argument)."""
    p_day = spec.day_prob.get(modality.value, 0.0)
    p_block = spec.block_prob
    if p_block > 0:
        mean_len = 0.5 * (spec.block_len[0] + spec.block_len[1])
        coverage = mean_len / (mean_len + (1.0 - p_block) / p_block)
    else:
        coverage = 0.0
    return coverage + (1.0 - coverage) * p_day


# Observed-value transforms keyed by unit; (kind, params).
#   normal: value = mu + sd * z
#   lognormal: value = exp(mu + sd * z)   (heavy-tailed step/count channels)
_UNIT_TRANSFORMS: dict[str, tuple[str, float, float]] = {
    "min": ("normal", 180.0, 45.0),
    "score": ("normal", 72.0, 9.0),
    "bpm": ("normal", 64.0, 7.0),
    "ms": ("normal", 48.0, 14.0),
    "kcal": ("normal", 520.0, 130.0),
    "MET": ("normal", 1.45, 0.25),
    "mi": ("normal", 4.5, 1.2),
    "hPa": ("normal", 1013.0, 7.0),
    "count": ("lognormal", 3.2, 0.6),
    "m": ("lognormal", 7.6, 0.5),
}
# Ring channels recorded as several intraday windows instead of one daily row.
_SPLIT_FEATURES = ("heart_rate", "met_avg")


def _logistic(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _observed_values(unit: str, kind: str, z: np.ndarray) -> np.ndarray:
    if kind == "boolean":
        return _logistic(z)
    dist, a, b = _UNIT_TRANSFORMS[unit]
    if dist == "lognormal":
        return np.exp(a + b * z)
    return a + b * z


def _missing_mask(
    rng: np.random.Generator, n_days: int, spec: MissingnessSpec, modality: Modality
) -> np.ndarray:
    p_day = spec.day_prob.get(modality.value, 0.0)
    day_miss = rng.random(n_days) < p_day
    block = np.zeros(n_days, dtype=bool)
    lo, hi = spec.block_len
    in_block = 0
    for i in range(n_days):
        if in_block > 0:
            block[i] = True
            in_block -= 1
        elif rng.random() < spec.block_prob:
            in_block = int(rng.integers(lo, hi + 1))
            block[i] = True
            in_block -= 1
    return day_miss | block


def _modality_rows(
    specs: Sequence[FeatureSpec], days: np.ndarray, z: np.ndarray, rng_intraday: np.random.Generator
) -> np.ndarray:
    """The samples of one modality file: a row per day (``days``) and feature
    (``specs``, the columns of the latents ``z``), in that order.

    A boolean's daily fraction is one on-run and one off-run whose weighted
    mean recovers it; a split feature is two intraday windows around the
    daily value; every other feature is one 1440-minute row.
    """
    values = np.empty(z.shape)
    for j, spec in enumerate(specs):
        values[:, j] = _observed_values(spec.units, spec.kind, z[:, j])
    boolean = np.array([s.kind == "boolean" for s in specs], dtype=bool)
    split = np.array([s.feature_id in _SPLIT_FEATURES for s in specs], dtype=bool) & ~boolean
    first, second = values.copy(), np.zeros(values.shape)
    minutes = np.stack([np.full(values.shape, 1440.0), np.zeros(values.shape)], axis=-1)

    f = np.clip(values[:, boolean], 1e-6, 1.0 - 1e-6)
    first[:, boolean] = 1.0
    minutes[:, boolean] = np.stack([f * 1440.0, (1.0 - f) * 1440.0], axis=-1)

    v = values[:, split]
    delta = rng_intraday.normal(0.0, 0.05 * np.abs(v) + 1e-9)
    d1, d2 = 600.0, 840.0
    first[:, split] = v + delta
    second[:, split] = v - delta * d1 / d2
    minutes[:, split] = (d1, d2)

    # Keep the second row of a pair only where the feature has one.
    paired = np.broadcast_to(np.stack([np.ones_like(boolean), boolean | split], axis=-1), minutes.shape)
    fids = np.array([s.feature_id for s in specs], dtype=object)
    return sample_rows(
        np.broadcast_to(days[:, None, None], paired.shape)[paired],
        np.broadcast_to(fids[None, :, None], paired.shape)[paired],
        np.stack([first, second], axis=-1)[paired],
        minutes[paired],
    )


@dataclass(frozen=True)
class ParticipantTruth:
    participant_id: str
    eligible: bool
    report_prob: float
    n_reports: int


def _rng(config: CohortConfig, salt: int, index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([config.seed, salt, index]))
    )


def _sample_participant(
    config: CohortConfig, index: int
) -> tuple[dict[Modality, RawSampleFile], list[AffectReport], ParticipantTruth]:
    schema = default_schema()
    feature_ids = schema.feature_ids()
    fid_index = {fid: i for i, fid in enumerate(feature_ids)}
    n_days = config.n_days
    dates = config.dates()
    pid = config.participant_ids()[index]
    eligible = index < config.n_eligible
    report_prob = config.report_prob_eligible if eligible else config.report_prob_other

    z = _rng(config, _SALT_FEATURES, index).standard_normal((n_days, len(feature_ids)))

    shift_month = config.shift_month()
    if config.shift is not None and shift_month is not None:
        norm = signal_sigma(config.signal.pa_weights)
        shifted_days = np.array(
            [f"{d.year:04d}-{d.month:02d}" == shift_month for d in dates]
        )
        for fid, w in config.signal.pa_weights.items():
            z[shifted_days, fid_index[fid]] += config.shift.offset * w / norm

    # Next-day composites from yesterday's latents.
    sig = config.signal
    w_pa = np.zeros(len(feature_ids))
    w_na = np.zeros(len(feature_ids))
    for fid, w in sig.pa_weights.items():
        w_pa[fid_index[fid]] = w
    for fid, w in sig.na_weights.items():
        w_na[fid_index[fid]] = w
    sigma_pa = math.sqrt(float(w_pa @ w_pa) + sig.noise_std_pa**2)
    sigma_na = math.sqrt(float(w_na @ w_na) + sig.noise_std_na**2)
    rng_affect = _rng(config, _SALT_AFFECT, index)
    raw_pa = z[:-1] @ w_pa + rng_affect.normal(0.0, sig.noise_std_pa, n_days - 1)
    raw_na = z[:-1] @ w_na + rng_affect.normal(0.0, sig.noise_std_na, n_days - 1)
    pa = np.clip(sig.pa_mean + sig.pa_sd * raw_pa / sigma_pa, 0.0, 100.0)
    na = np.clip(sig.na_mean + sig.na_sd * raw_na / sigma_na, 0.0, 100.0)

    rng_items = _rng(config, _SALT_ITEMS, index)
    rng_report = _rng(config, _SALT_REPORT, index)
    # Each day after the first draws its report coin and twenty item noises,
    # reported or not.
    reported = np.flatnonzero(rng_report.random(n_days - 1) < report_prob)
    eta = rng_items.normal(0.0, sig.item_noise_sd, (n_days - 1, 2, len(POSITIVE_ITEMS)))[reported]
    eta -= eta.mean(axis=-1, keepdims=True)
    composites = np.stack([pa[reported], na[reported]], axis=-1)
    ratings = np.clip(composites[:, :, None] + eta, 0.0, 100.0).tolist()
    reports = [
        AffectReport(dates[t + 1], dict(zip(SURVEY_ITEMS, pos + neg)))
        for t, (pos, neg) in zip(reported.tolist(), ratings)
    ]

    rng_missing = _rng(config, _SALT_MISSING, index)
    rng_intraday = _rng(config, _SALT_INTRADAY, index)
    days = np.array(dates, dtype="datetime64[D]")
    files: dict[Modality, RawSampleFile] = {}
    for modality in Modality:
        kept = np.flatnonzero(~_missing_mask(rng_missing, n_days, config.missingness, modality))
        specs = [schema.spec_of(fid) for fid in schema.features_for([modality])]
        columns = [fid_index[spec.feature_id] for spec in specs]
        rows = _modality_rows(specs, days[kept], z[np.ix_(kept, columns)], rng_intraday)
        files[modality] = RawSampleFile(participant_id=pid, modality=modality, rows=rows)
    truth = ParticipantTruth(
        participant_id=pid,
        eligible=eligible,
        report_prob=report_prob,
        n_reports=len(reports),
    )
    return files, reports, truth


def ground_truth(config: CohortConfig) -> dict:
    sig = config.signal
    return {
        "format_version": FORMAT_VERSION,
        "seed": config.seed,
        "pa_weights": dict(sig.pa_weights),
        "na_weights": dict(sig.na_weights),
        "noise_std_pa": sig.noise_std_pa,
        "noise_std_na": sig.noise_std_na,
        "sigma_signal_pa": signal_sigma(sig.pa_weights),
        "bayes_accuracy_pa": bayes_accuracy(sig.pa_weights, sig.noise_std_pa),
        "variance_shares_pa": variance_shares(sig.pa_weights, default_schema()),
        "shift": None
        if config.shift is None
        else dict(to_json(config.shift), month=config.shift_month()),
        "eligible_ids": config.eligible_ids(),
        "report_prob_eligible": config.report_prob_eligible,
        "report_prob_other": config.report_prob_other,
        "expected_missing_rate": {
            m.value: expected_missing_rate(config.missingness, m) for m in Modality
        },
    }


def _ground_truth_with(config: CohortConfig, truths: Sequence[ParticipantTruth]) -> dict:
    """ground_truth() plus what was drawn for each participant."""
    truth_doc = ground_truth(config)
    truth_doc["participants"] = to_json(truths)
    return truth_doc


def generate(
    config: CohortConfig,
) -> tuple[list[ParticipantTimeline], dict]:
    """Build in-memory timelines through the same aggregation path ingestion
    uses, so CSV round-trips reproduce them exactly."""
    timelines = []
    truths = []
    for i, pid in enumerate(config.participant_ids()):
        files, reports, truth = _sample_participant(config, i)
        timelines.append(
            build_timeline(list(files.values()), pid, reports, default_schema())
        )
        truths.append(truth)
    return timelines, _ground_truth_with(config, truths)


def write_cohort(config: CohortConfig, out_dir: Path | str) -> dict:
    """Emit per-participant modality/affect CSVs plus ground_truth.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    truths = []
    for i, pid in enumerate(config.participant_ids()):
        files, reports, truth = _sample_participant(config, i)
        for modality, f in files.items():
            write_modality_csv(out_dir / f"{pid}_{modality.value}.csv", f.rows)
        write_affect_csv(out_dir / f"{pid}_affect.csv", reports)
        truths.append(truth)
    truth_doc = _ground_truth_with(config, truths)
    dump_json(out_dir / "ground_truth.json", truth_doc)
    return truth_doc


# ---------------------------------------------------------------------------
# Config serialization

def cohort_config_from_dict(payload: dict, path: str = "cohort config") -> CohortConfig:
    return read_config(CohortConfig, payload, path)


def save_cohort_config(path: Path | str, config: CohortConfig) -> None:
    dump_json(path, to_json(config))


def load_cohort_config(path: Path | str) -> CohortConfig:
    return cohort_config_from_dict(read_json(path))
