"""Seeded input generators for the benchmark: synthetic homes and the
live-mixed schedule.

Both are pure functions of their arguments, so the same seed gives the
same bytes.  Nothing here imports homectx: the generators describe inputs,
they do not run the engine.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import date, timedelta

# Every profile sets every appliance, so a tick at a scheduled time always
# answers one command per appliance, whoever is present.  The load
# generator relies on that count to tell where one tick's reply ends.
APPLIANCES = ("AirConditioner", "Heater", "Light", "Projector", "Radio", "TV")
PROFILES = ("Cooking", "Entertain", "Exercise", "Reading", "Relax",
            "Self-study", "Sleep", "Work")
# Each person has one activity at each of these times, so every person is
# active at every scheduled time.  Slots lie far enough apart that a
# one-second segment of readings (at most a few hundred trace seconds per
# stream) never runs into the next slot.
SLOTS = ("070000", "120000", "180000", "210000")
HOME_DATE = date(2007, 4, 10)   # environment records shipped in the home file
TRACE_DATE = date(2007, 4, 11)  # first day of the live-mixed readings


@dataclass(frozen=True)
class Home:
    text: str            # Turtle-subset document
    persons: tuple       # local names, e.g. "P0001"
    activities: int      # scheduled activities in the whole home
    triples: int

    @property
    def names(self) -> dict:
        """Local names a command may carry, by command field."""
        return {"appliance": set(APPLIANCES), "person": set(self.persons),
                "activity": set(PROFILES)}


def generate_home(persons: int, seed: int, present: int | None = None) -> Home:
    """A home of ``persons`` people, all active at every slot in SLOTS.

    It holds persons with priorities 1..10, one activity per person and
    slot, preference profiles over every appliance, and one environment
    record per slot in which ``present`` persons (default: everyone) are
    present.  Reasoning at a slot therefore joins ``persons`` activities
    against ``present`` occupants.
    """
    rng = random.Random(seed)
    present = persons if present is None else present
    lines = ["# synthetic home: %d persons, seed %d" % (persons, seed)]
    for profile in PROFILES:
        for appliance in APPLIANCES:
            state = "true" if rng.random() < 0.5 else "false"
            lines.append(f':{profile} :{appliance} "{state}"^^xsd:boolean .')
    ids = tuple(f"P{i:04d}" for i in range(1, persons + 1))
    for pid in ids:
        lines.append(f':{pid} :name "Person {pid[1:]}"^^xsd:string .')
        lines.append(f':{pid} :hasPriority "{rng.randint(1, 10)}"^^xsd:positiveInteger .')
        for slot in SLOTS:
            act = f"act_{pid}_{slot}"
            lines.append(f":{act} :When :_{slot} .")
            lines.append(f":{act} :Who :{pid} .")
            lines.append(f":{act} :Do :{rng.choice(PROFILES)} .")
    stamp = HOME_DATE.strftime("%y%m%d")
    for slot in SLOTS:
        rid = f":_{stamp}{slot}"
        lines.append(f'{rid} :Humidity "{rng.randint(30, 60)}"^^xsd:double .')
        lines.append(f'{rid} :Temperature "{rng.randint(18, 26)}"^^xsd:double .')
        lines.append(f'{rid} :Illumination "{rng.randint(100, 500)}"^^xsd:double .')
        lines.append(f'{rid} :Date "{HOME_DATE.isoformat()}"^^xsd:date .')
        lines.append(f"{rid} :hasTime :_{slot} .")
        lines.extend(f"{rid} :personIn :{pid} ." for pid in sorted(rng.sample(ids, present)))
    triples = len(lines) - 1
    return Home("\n".join(lines) + "\n", ids, persons * len(SLOTS), triples)


@dataclass(frozen=True)
class MixedSchedule:
    """Open-loop schedule of the live-mixed workload.

    ``readings`` are (due_s, message) for connection A, ``ticks`` are
    (due_s, message) for connection B, with due times relative to the start.
    """

    readings: list
    ticks: list
    presence_changes: int


def _label(second: int) -> str:
    return f"{second // 3600:02d}{second % 3600 // 60:02d}{second % 60:02d}"


def mixed_schedule(seed: int, seconds: int, persons: tuple, rate: int = 500,
                   streams: int = 10, tick_rate: int = 2) -> MixedSchedule:
    """Readings from ``streams`` streams at ``rate``/s and ticks at ``tick_rate``/s.

    One lead-in round at 00:00:00 gives every stream its first stored
    reading at a time with no activities, so those first reasonings are
    cheap.  Then each second of the schedule is one segment at a slot time:
    its readings advance one trace second per round from the slot, and
    stream s0 changes its present set (three persons) at the segment's
    first round.  The date moves on after every pass over SLOTS, so time
    never runs backwards on a stream.  A tick names the slot of the segment
    the readings have reached at its due time.
    """
    rng = random.Random(seed)
    bases = [[20.0 + s, 30.0 + s, 400.0 + 10 * s] for s in range(streams)]
    noise = (0.03, 0.1, 0.15)  # relative, below the dedup thresholds
    rounds_per_segment = rate // streams
    readings = []
    present: list = []
    changes = 0

    def emit(day: date, second: int, stream: int, base_exact: bool):
        base = bases[stream]
        if base_exact:
            temp, hum, illum = base
        else:
            temp, hum, illum = (v * (1.0 + rng.uniform(-a, a))
                                for v, a in zip(base, noise))
        msg = {"type": "reading", "stream": f"s{stream}", "date": day.isoformat(),
               "time": _label(second), "temperature": temp,
               "humidity": min(hum, 100.0), "illumination": illum,
               "present": present if stream == 0 else []}
        readings.append((len(readings) / rate, msg))

    for stream in range(streams):
        emit(TRACE_DATE, 0, stream, base_exact=True)
    lead = len(readings)
    for segment in range(seconds):
        day = TRACE_DATE + timedelta(days=segment // len(SLOTS))
        slot = SLOTS[segment % len(SLOTS)]
        start = int(slot[0:2]) * 3600 + int(slot[2:4]) * 60 + int(slot[4:6])
        previous = present
        while present == previous:
            present = sorted(rng.sample(persons, 3))
        changes += 1
        for r in range(rounds_per_segment):
            for stream in range(streams):
                emit(day, start + r, stream, base_exact=False)

    ticks = []
    for i in range(seconds * tick_rate):
        due = (i + 0.5) / tick_rate
        segment = min(max(int((due * rate - lead) // rate), 0), seconds - 1)
        ticks.append((due, {"type": "tick", "time": SLOTS[segment % len(SLOTS)]}))
    return MixedSchedule(readings, ticks, changes)


def write_jsonl(path, messages) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for msg in messages:
            fh.write(json.dumps(msg) + "\n")
