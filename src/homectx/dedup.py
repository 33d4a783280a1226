"""Sensor-stream deduplication.

A new reading is compared with the last *stored* reading of its stream, kept
by the engine in ``homectx.ingest``, on five factors: temperature,
illumination, humidity, presence and date.  It is stored iff any factor's
delta exceeds its threshold; the Euclidean norm of the deltas, its distance,
is reported for logging.
"""

from __future__ import annotations

import json
import sys
from math import inf, isfinite, sqrt
from typing import NamedTuple, Optional

from .ontology import EnvironmentReading
from .rdf import Value

EPSILON = 1e-9
MAX_DISTANCE = sys.float_info.max
NUMERIC_FACTORS = ("temperature", "illumination", "humidity")
FACTORS = NUMERIC_FACTORS + ("presence", "date")


class FactorDelta(NamedTuple):
    name: str
    d: float
    exceeded: bool


class DedupDecision(NamedTuple):
    store: bool
    distance: float
    deltas: tuple


class DedupConfig(Value):
    """Thresholds of the numeric factors; None makes one categorical."""

    __slots__ = _fields = ("temperature", "illumination", "humidity")

    def __init__(self, temperature: Optional[float] = 0.1, illumination: Optional[float] = 0.5,
                 humidity: Optional[float] = 0.35):
        for name, threshold in zip(NUMERIC_FACTORS, (temperature, illumination, humidity)):
            if threshold is not None and not (isfinite(threshold) and threshold >= 0):
                raise ValueError(f"threshold for {name} must be finite and >= 0")
        self._init(temperature, illumination, humidity)


def load_threshold_overrides(path) -> DedupConfig:
    """Build a config from a JSON file mapping factor name to threshold
    (a number) or the string "categorical"."""
    with open(path, encoding="utf-8") as fh:
        try:
            overrides = json.load(fh)
        except RecursionError:  # bad JSON is a ValueError, deep nesting too
            raise ValueError("threshold file nests too deeply") from None
    if not isinstance(overrides, dict):
        raise ValueError("threshold file must hold a JSON object")
    thresholds = {}
    for name in FACTORS:
        if name not in overrides:
            continue
        value = overrides[name]
        if value == "categorical":
            value = None
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f'threshold for {name} must be a number or "categorical"')
        else:
            value = float(value)
        if name in NUMERIC_FACTORS:
            thresholds[name] = value
        elif value is not None:  # compared by equality only
            raise ValueError(f'threshold for {name} must be "categorical"')
    cfg = DedupConfig(**thresholds)
    extra = set(overrides) - set(FACTORS)
    if extra:
        raise ValueError(f"unknown factors in threshold file: {sorted(extra)}")
    return cfg


# Builds a FactorDelta or DedupDecision from one tuple of its fields in C,
# without the Python-level __new__ a NamedTuple call runs.
_new = tuple.__new__
# The deltas of an unchanged and of a changed presence set and date.
_SAME_PRESENCE, _NEW_PRESENCE = (FactorDelta("presence", 0.0, False),
                                 FactorDelta("presence", 1.0, True))
_SAME_DATE, _NEW_DATE = FactorDelta("date", 0.0, False), FactorDelta("date", 1.0, True)


def should_store(baseline: Optional[EnvironmentReading], curr: EnvironmentReading,
                 cfg: DedupConfig = DedupConfig()) -> DedupDecision:
    """Store when there is no baseline, or when any factor exceeds its threshold.

    A numeric factor's delta ``d`` is |curr - prev| / max(|prev|, EPSILON),
    finite on both sides since every EnvironmentReading is.  A categorical
    factor's is 0 or 1, exceeded when it changed.  The distance is the root
    of the ``d ** 2`` summed in factor order, saturated at MAX_DISTANCE so it
    is always finite (valid JSON).
    """
    if baseline is None:
        return DedupDecision(True, 0.0, ())
    p, c, threshold = baseline.temperature, curr.temperature, cfg.temperature
    if threshold is None:
        e0 = c != p
        d0 = float(e0)
    else:
        s = abs(p)
        d0 = abs(c - p) / (s if s >= EPSILON else EPSILON)
        e0 = d0 > threshold
    p, c, threshold = baseline.illumination, curr.illumination, cfg.illumination
    if threshold is None:
        e1 = c != p
        d1 = float(e1)
    else:
        s = abs(p)
        d1 = abs(c - p) / (s if s >= EPSILON else EPSILON)
        e1 = d1 > threshold
    p, c, threshold = baseline.humidity, curr.humidity, cfg.humidity
    if threshold is None:
        e2 = c != p
        d2 = float(e2)
    else:
        s = abs(p)
        d2 = abs(c - p) / (s if s >= EPSILON else EPSILON)
        e2 = d2 > threshold
    e3 = baseline.persons_present != curr.persons_present
    e4 = baseline.date != curr.date
    try:
        total = d0 ** 2 + d1 ** 2 + d2 ** 2 + e3 + e4
    except OverflowError:  # a d above about 1.3e154
        total = inf
    distance = sqrt(total) if total < inf else MAX_DISTANCE
    return _new(DedupDecision, (
        e0 or e1 or e2 or e3 or e4, distance,
        (_new(FactorDelta, ("temperature", d0, e0)),
         _new(FactorDelta, ("illumination", d1, e1)),
         _new(FactorDelta, ("humidity", d2, e2)),
         _NEW_PRESENCE if e3 else _SAME_PRESENCE, _NEW_DATE if e4 else _SAME_DATE)))
