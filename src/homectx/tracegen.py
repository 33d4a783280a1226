"""Synthetic multi-stream sensor traces for replay and the benchmark.

``gen_trace`` writes the JSON-lines readings of ``homectx gen-trace``:
noisy streams around fixed bases, plus a known number of supra-threshold
events listed in a manifest.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# Noise amplitudes, relative to each stream's base value, and the date of
# every reading.  The amplitudes sit below the default DedupConfig thresholds,
# so noise alone never stores a reading and a replay stores exactly
# streams + events readings.
TEMPERATURE_NOISE = 0.04
ILLUMINATION_NOISE = 0.2
HUMIDITY_NOISE = 0.15
START_DATE = "2007-04-11"


@dataclass
class TraceParams:
    """Knobs for gen_trace."""

    streams: int = 10
    duration: int = 3600        # seconds
    rate: int = 1               # readings per second per stream
    events: int = 20
    seed: int = 42

    def validate(self):
        if self.streams < 1 or self.duration < 1 or self.rate < 1:
            raise ValueError("streams, duration and rate must be >= 1")
        if self.events < 0:
            raise ValueError("events must be >= 0")
        if self.duration > 86400:
            raise ValueError("duration is capped at one day")


# Per-event base multiplier, chosen so the relative change is twice the
# factor threshold.  Humidity shrinks instead of growing to stay within
# its 0..100 range no matter how many events hit one stream.
_EVENT_FACTORS = (("temperature", 1.2), ("illumination", 2.0), ("humidity", 0.3))


def gen_trace(out_path, params: TraceParams) -> dict:
    """Write a synthetic multi-stream trace plus a sidecar manifest.

    Each stream holds noisy values around a fixed base; exactly
    ``params.events`` supra-threshold base shifts are injected at random
    positions, so a replay stores streams + events readings.  Deterministic
    for a given seed.  The manifest (``<out>.manifest.json``) lists the
    1-based line number, stream and factor of every injected event.
    """
    params.validate()
    rng = random.Random(params.seed)
    total_ticks = params.duration * params.rate
    # base values per stream: [temperature, humidity, illumination]
    bases = {s: [20.0 + s, 30.0 + s, 400.0 + 10 * s]
             for s in range(params.streams)}
    # event slots: (tick, stream) with tick >= 1 so the first reading stays clean
    slots = [(t, s) for t in range(1, total_ticks) for s in range(params.streams)]
    if params.events > len(slots):
        raise ValueError("more events than available trace positions")
    event_slots = dict.fromkeys(rng.sample(slots, params.events))
    for i, slot in enumerate(event_slots):
        event_slots[slot] = _EVENT_FACTORS[i % len(_EVENT_FACTORS)]

    factor_index = {"temperature": 0, "humidity": 1, "illumination": 2}
    manifest_events = []
    lineno = 0
    with open(out_path, "w", encoding="utf-8") as fh:
        for tick in range(total_ticks):
            second = min(tick // params.rate, 86399)
            time_label = (f"{second // 3600:02d}{second % 3600 // 60:02d}"
                          f"{second % 60:02d}")
            for stream in range(params.streams):
                lineno += 1
                base = bases[stream]
                event = event_slots.get((tick, stream))
                if event is not None:
                    name, multiplier = event
                    base[factor_index[name]] *= multiplier
                    manifest_events.append(
                        {"line": lineno, "stream": f"s{stream}", "factor": name})
                if tick == 0 or event is not None:
                    temp, hum, illum = base
                else:
                    temp = base[0] * (1.0 + rng.uniform(-TEMPERATURE_NOISE, TEMPERATURE_NOISE))
                    hum = base[1] * (1.0 + rng.uniform(-HUMIDITY_NOISE, HUMIDITY_NOISE))
                    illum = base[2] * (1.0 + rng.uniform(-ILLUMINATION_NOISE,
                                                         ILLUMINATION_NOISE))
                # full float precision: rounding would distort relative
                # deltas once event shifts push a base value near zero
                fh.write(json.dumps({
                    "type": "reading",
                    "stream": f"s{stream}",
                    "date": START_DATE,
                    "time": time_label,
                    "temperature": temp,
                    "humidity": min(hum, 100.0),
                    "illumination": illum,
                    "present": [],
                }) + "\n")
    manifest = {
        "streams": params.streams,
        "lines": lineno,
        "seed": params.seed,
        "events": manifest_events,
    }
    manifest_path = str(out_path) + ".manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
