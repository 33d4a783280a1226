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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

from .ontology import MEMO_SIZE, EnvironmentReading

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
            if self.name in ("presence", "date"):  # compared by equality only
                raise ValueError(f'threshold for {self.name} must be "categorical"')


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

    @cached_property
    def comparator(self) -> Callable:
        """should_store's comparison of a reading with its baseline, compiled
        at first use; equal configs share it (see _compile)."""
        return _compile(tuple(self.factors), self.epsilon)


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
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
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


@lru_cache(maxsize=MEMO_SIZE)
def _compile(factors: tuple, epsilon: float) -> Callable:
    """should_store's comparison for one config, as one straight-line
    function built the way dataclasses builds __init__.  Its source names
    only attributes from _ATTRIBUTES; every other value is in its namespace."""
    ns = {"_new": _new, "FactorDelta": FactorDelta, "DedupDecision": DedupDecision,
          "_INF": math.inf, "_sqrt": math.sqrt, "MAX_DISTANCE": MAX_DISTANCE,
          "epsilon": epsilon}
    lines, squares, deltas = [], [], []
    for i, spec in enumerate(factors):
        attr = _ATTRIBUTES[spec.name]
        if spec.threshold is None:  # d is 0 or 1, so is d ** 2, and e adds as it
            ns[f"same{i}"] = FactorDelta(spec.name, 0.0, False)
            ns[f"changed{i}"] = FactorDelta(spec.name, 1.0, True)
            lines.append(f"e{i} = baseline.{attr} != curr.{attr}")
            squares.append(f"e{i}")
            deltas.append(f"changed{i} if e{i} else same{i}")
            continue
        ns[f"name{i}"], ns[f"threshold{i}"] = spec.name, spec.threshold
        lines += [f"p, c = baseline.{attr}, curr.{attr}",
                  "s = abs(p)",
                  f"d{i} = abs(c - p) / (s if s >= epsilon else epsilon)",
                  f"e{i} = d{i} > threshold{i}"]
        squares.append(f"d{i} ** 2")
        deltas.append(f"_new(FactorDelta, (name{i}, d{i}, e{i}))")
    store = " or ".join(f"e{i}" for i in range(len(factors)))
    lines += ["try:", f"    total = {' + '.join(squares)}",
              "except OverflowError:  # a d above about 1.3e154",
              "    total = _INF",
              "distance = _sqrt(total)",
              "if distance > MAX_DISTANCE:",
              "    distance = MAX_DISTANCE",
              f"return _new(DedupDecision, ({store}, distance, ({', '.join(deltas)},),"
              " baseline.id))"]
    source = "def compare(baseline, curr):\n" + "".join(f"    {line}\n" for line in lines)
    exec(compile(source, "<dedup comparator>", "exec"), ns)
    return ns["compare"]


def should_store(baseline: Optional[EnvironmentReading], curr: EnvironmentReading,
                 cfg: DedupConfig = DedupConfig()) -> DedupDecision:
    """Store when there is no baseline, or when any factor exceeds its threshold.

    A factor's delta ``d`` is |curr - prev| / max(|prev|, epsilon) for a
    numeric factor, finite on both sides since every EnvironmentReading is,
    and 0 or 1 for a categorical one, which is exceeded when it changed.
    The distance sums ``d ** 2`` in factor order, then takes the root.  It
    saturates at MAX_DISTANCE, so it is always finite (valid JSON).
    """
    if baseline is None:
        return DedupDecision(True, 0.0, (), None)
    return cfg.comparator(baseline, curr)
