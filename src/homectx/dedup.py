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
_INF = math.inf


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


class FactorDelta(NamedTuple):
    name: str
    d: float
    exceeded: bool


class DedupDecision(NamedTuple):
    store: bool
    distance: float
    deltas: tuple
    reference: object  # id of the baseline reading, None if first


@dataclass(frozen=True)
class DedupConfig:
    factors: Sequence[FactorSpec] = DEFAULT_FACTORS
    epsilon: float = DEFAULT_EPSILON
    # (name, attribute getter, threshold, unchanged delta, changed delta)
    # per factor, in factor order, built once here so that should_store does
    # no per-call lookups; a categorical factor's delta is one of the two
    # shared FactorDeltas (immutable, so safe to share)
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
            (spec.name, attrgetter(_ATTRIBUTES[spec.name]), spec.threshold,
             FactorDelta(spec.name, 0.0, False), FactorDelta(spec.name, 1.0, True))
            for spec in self.factors))


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


# Builds a FactorDelta or DedupDecision from one tuple of its fields in C,
# without the Python-level __new__ a NamedTuple call runs.
_new = tuple.__new__


def should_store(baseline: Optional[EnvironmentReading], curr: EnvironmentReading,
                 cfg: DedupConfig = DedupConfig()) -> DedupDecision:
    """Store when there is no baseline, or when any factor exceeds its threshold.

    A factor's delta ``d`` is |curr - prev| / max(|prev|, epsilon) for a
    numeric factor, which must be finite on both sides (ValueError if not),
    and 0 or 1 for a categorical one, which is exceeded when it changed.
    The distance sums ``d ** 2`` in factor order, then takes the root.  It
    saturates at MAX_DISTANCE, so it is always finite (valid JSON).
    """
    if baseline is None:
        return DedupDecision(True, 0.0, (), None)
    epsilon = cfg.epsilon
    deltas = []
    store = False
    total = 0.0
    for name, get, threshold, unchanged, changed in cfg.plan:
        prev = get(baseline)
        now = get(curr)
        if threshold is None:  # categorical: d is 0 or 1, and so is d ** 2
            if prev == now:
                deltas.append(unchanged)
            else:
                deltas.append(changed)
                store = True
                total += 1.0
            continue
        if not (-_INF < prev < _INF and -_INF < now < _INF):
            raise ValueError(f"non-finite value for factor {name}")
        scale = abs(prev)
        d = abs(now - prev) / (scale if scale >= epsilon else epsilon)
        exceeded = d > threshold
        deltas.append(_new(FactorDelta, (name, d, exceeded)))
        if exceeded:
            store = True
        try:
            total += d ** 2
        except OverflowError:  # d above about 1.3e154
            total = _INF
    distance = math.sqrt(total)
    if distance > MAX_DISTANCE:
        distance = MAX_DISTANCE
    return _new(DedupDecision, (store, distance, tuple(deltas), baseline.id))
