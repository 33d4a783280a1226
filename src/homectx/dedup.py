"""Sensor-stream deduplication.

A new reading is compared factor-by-factor against the last *stored* reading
of its stream, kept by the engine in ``homectx.ingest``.  Numeric factors
give |curr - prev| / max(|prev|, epsilon); categorical factors (presence,
date) contribute 0 or 1.  The aggregate distance is the Euclidean norm of the
per-factor deltas and is reported for logging, but the store/drop verdict is
per-factor: the reading is stored iff any factor exceeds its threshold.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence

from .ontology import EnvironmentReading

DEFAULT_EPSILON = 1e-9
MAX_DISTANCE = sys.float_info.max


@dataclass(frozen=True)
class FactorSpec:
    """One monitored factor; threshold None means categorical (any change counts)."""

    name: str
    threshold: Optional[float]

    def __post_init__(self):
        if self.threshold is not None:
            if not math.isfinite(self.threshold) or self.threshold < 0:
                raise ValueError(f"threshold for {self.name} must be finite and >= 0")


# Default thresholds: temperature 0.1, illumination 0.5, humidity 0.35;
# presence and date are categorical.
DEFAULT_FACTORS = (
    FactorSpec("temperature", 0.1),
    FactorSpec("illumination", 0.5),
    FactorSpec("humidity", 0.35),
    FactorSpec("presence", None),
    FactorSpec("date", None),
)

# Factor name -> the EnvironmentReading attribute it compares.
_ATTRIBUTES = {
    "temperature": "temperature",
    "illumination": "illumination",
    "humidity": "humidity",
    "presence": "persons_present",
    "date": "date",
}


@dataclass(frozen=True)
class DedupConfig:
    factors: Sequence[FactorSpec] = DEFAULT_FACTORS
    epsilon: float = DEFAULT_EPSILON
    # (spec, attribute getter) per factor, in factor order, built once here
    # so that should_store does no per-call lookups
    plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.factors:
            raise ValueError("at least one factor is required")
        names = [f.name for f in self.factors]
        if len(set(names)) != len(names):
            raise ValueError("factor names must be unique")
        unknown = set(names) - set(_ATTRIBUTES)
        if unknown:
            raise ValueError(f"unknown factors: {sorted(unknown)}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        object.__setattr__(self, "plan", tuple(
            (spec, attrgetter(_ATTRIBUTES[spec.name])) for spec in self.factors))


def load_threshold_overrides(path) -> DedupConfig:
    """Build a config from a JSON file mapping factor name to threshold
    (a number) or the string "categorical"."""
    with open(path, encoding="utf-8") as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ValueError("threshold file must hold a JSON object")
    factors = []
    for spec in DEFAULT_FACTORS:
        if spec.name in overrides:
            value = overrides[spec.name]
            if not isinstance(value, (int, float, str)):
                raise ValueError(f"threshold for {spec.name} must be a number "
                                 'or "categorical"')
            factors.append(FactorSpec(spec.name,
                                      None if value == "categorical" else float(value)))
        else:
            factors.append(spec)
    extra = set(overrides) - {f.name for f in DEFAULT_FACTORS}
    if extra:
        raise ValueError(f"unknown factors in threshold file: {sorted(extra)}")
    return DedupConfig(factors=tuple(factors))


class FactorDelta(NamedTuple):
    name: str
    d: float
    exceeded: bool


class DedupDecision(NamedTuple):
    store: bool
    distance: float
    deltas: tuple
    reference: object  # id of the baseline reading, None if first


def normalized_delta(prev_value, curr_value, spec: FactorSpec,
                     epsilon: float = DEFAULT_EPSILON) -> float:
    """Per-factor change: relative for numerics, 0/1 for categoricals."""
    if spec.threshold is None:
        return 0.0 if prev_value == curr_value else 1.0
    if not (math.isfinite(prev_value) and math.isfinite(curr_value)):
        raise ValueError(f"non-finite value for factor {spec.name}")
    return abs(curr_value - prev_value) / max(abs(prev_value), epsilon)


def should_store(baseline: Optional[EnvironmentReading], curr: EnvironmentReading,
                 cfg: DedupConfig = DedupConfig()) -> DedupDecision:
    """Store when there is no baseline, or when any factor exceeds its threshold.

    The distance sums the squared deltas in factor order, then takes the
    root.  It saturates at MAX_DISTANCE, so it is always finite (valid JSON).
    """
    if baseline is None:
        return DedupDecision(True, 0.0, (), None)
    epsilon = cfg.epsilon
    deltas = []
    store = False
    total = 0.0
    for spec, get in cfg.plan:
        d = normalized_delta(get(baseline), get(curr), spec, epsilon)
        exceeded = d == 1.0 if spec.threshold is None else d > spec.threshold
        deltas.append(FactorDelta(spec.name, d, exceeded))
        store = store or exceeded
        try:
            total += d ** 2
        except OverflowError:  # d above about 1.3e154
            total = math.inf
    distance = math.sqrt(total)
    if distance > MAX_DISTANCE:
        distance = MAX_DISTANCE
    return DedupDecision(store, distance, tuple(deltas), baseline.id)
