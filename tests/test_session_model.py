"""A reference model of the whole engine, as a stateful property.

A Hypothesis state machine drives one ``Session`` over the fixture home
(plus two profile properties that are not booleans), in process and with
no sockets: readings on a few streams, ticks, hellos,
malformed lines and readings with one bad field, in any order.  The model
beside it is plain code: each stream's last order stamp and baseline,
dedup through ``reference_decision``, and the store as the home's
triples united with ``reading_to_triples`` of every stored reading.
Commands are the winner rule over ``brute_force_rows`` of the model's
triples.  After every step the replies, both counts and the store's
triples must equal the model's.
"""

import json
from datetime import date, timedelta

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from conftest import brute_force_rows, reference_decision
from homectx import cli, rdf
from homectx.dedup import DedupConfig
from homectx.ingest import MAX_LINE_BYTES, ContextEngine, ProtocolError, Session, preference_query
from homectx.ontology import EnvironmentReading, TimeOfDay, reading_to_triples
from homectx.rdf import home
from test_ingest import winner_rule

# The fixture's profiles hold booleans only.  With a profile property of
# another datatype, and one naming a resource, a datatype filter that lets
# either through sends a command for it at 18:00 or 20:00.
HOME_TEXT = cli.fixture_path().read_text(encoding="utf-8") + """
:Entertain :Volume "7"^^xsd:positiveInteger .
:Self-study :Room :Study .
"""
STREAMS = ("s1", "s2")
PERSONS = ("Father", "Son")
# A stream's n-th stamp is LABELS[n % 3] on day n // 3.  The fixture's
# activities sit at 18:00 and 20:00, so stored readings there reason.
FIRST_DAY = date(2007, 4, 11)
LABELS = (TimeOfDay(7, 0, 0), TimeOfDay(18, 0, 0), TimeOfDay(20, 0, 0))
# Steps from a stream's last stamp: mostly forward, sometimes back.
STEPS = (1, 0, 0, 1, 2, -1, -2)
# Each sensor value is the stream's baseline value (at first REFERENCE)
# times a scale, so it moves by nothing, by less than the factor's
# threshold, or by more; humidity stops at 100.
REFERENCE = {"temperature": 21.0, "humidity": 32.0, "illumination": 350.0}
SCALES = (1.0, 1.04, 0.97, 1.3, 0.5, 1.6)
MISSING = object()
# (field, value or MISSING, error after "bad reading payload: ")
BAD_FIELDS = (
    ("stream", 1, "stream must be a string"),
    ("time", "250000", "invalid time of day 25:0:0"),
    ("date", "2007-13-01", "month must be in 1..12"),
    ("humidity", 100.5, "humidity out of range: 100.5"),
    ("temperature", "hot", "temperature must be a number"),
    ("illumination", MISSING, "'illumination'"),
    ("present", ["Son", 1], "present must be an array of strings"),
)
# (line, the start of the ProtocolError it raises; None for no reply)
MALFORMED = (
    (b"{", "bad line:"),
    (b'"\xff"', "bad line:"),
    (b"[1]", "message must be an object with a type"),
    (b'{"stream": "s1"}', "message must be an object with a type"),
    (b'{"type": "bogus"}', "unknown message type 'bogus'"),
    (b'{"type": "tick", "time": "9999"}', "bad tick:"),
    (b'{"type": "tick"}', "bad tick:"),
    (b" " * MAX_LINE_BYTES + b"{}", "line too long"),
    (b"  \r\n", None),
)


def stamp(n: int) -> tuple:
    """The date and time of a stream's n-th stamp."""
    return FIRST_DAY + timedelta(days=n // len(LABELS)), LABELS[n % len(LABELS)]


def rejected(error: str) -> dict:
    return {"type": "ack", "accepted": False, "stored": False, "distance": 0.0,
            "error": error}


class SessionModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cfg = DedupConfig()
        self.engine = ContextEngine(rdf.TripleStore(rdf.parse_data(HOME_TEXT)), self.cfg)
        self.session = Session(self.engine)
        self.triples = set(rdf.parse_data(HOME_TEXT))
        self.last: dict[str, int] = {}  # each stream's last accepted stamp
        self.baselines: dict[str, EnvironmentReading] = {}
        self.inputs = self.stored = 0
        self.said_hello = False

    def feed(self, msg) -> list:
        raw = msg if isinstance(msg, bytes) else json.dumps(msg).encode("utf-8")
        return self.session.feed(raw)

    def commands(self, t: TimeOfDay) -> list:
        rows = brute_force_rows(list(self.triples), preference_query(t))
        return [{"type": "command", "appliance": appliance.local, "state": state,
                 "person": person.local, "activity": what.local, "priority": priority}
                for appliance, state, person, what, priority in winner_rule(rows)]

    def message(self, stream: str, n: int, values=REFERENCE, present=()) -> dict:
        day, time = stamp(n)
        return {"type": "reading", "stream": stream, "date": day.isoformat(),
                "time": time.label, "present": sorted(present), **values}

    @rule(stream=st.sampled_from(STREAMS), step=st.sampled_from(STEPS),
          scales=st.tuples(*[st.sampled_from(SCALES)] * 3),
          present=st.none() | st.sets(st.sampled_from(PERSONS)))
    def reading(self, stream, step, scales, present):
        """``present`` None keeps the baseline's set."""
        last = self.last.get(stream)
        n = max(0, (last or 0) + step)
        baseline = self.baselines.get(stream)
        base = REFERENCE if baseline is None else {k: getattr(baseline, k) for k in REFERENCE}
        values = {name: base[name] * scale for name, scale in zip(REFERENCE, scales)}
        values["humidity"] = min(values["humidity"], 100.0)
        if present is None:
            present = {p.local for p in baseline.persons_present} if baseline else ()
        replies = self.feed(self.message(stream, n, values, present))
        if last is not None and n < last:
            assert replies == [rejected(f"timestamp order violation on stream {stream!r}")]
            return
        self.last[stream] = n
        self.inputs += 1
        day, time = stamp(n)
        reading = EnvironmentReading(date=day, time=time,
                                     persons_present=frozenset(map(home, present)), **values)
        if baseline is None:
            store, distance = True, 0.0
        else:
            store, distance, _ = reference_decision(baseline, reading, self.cfg)
        commands = []
        if store:
            self.stored += 1
            self.triples.update(reading_to_triples(reading))
            self.baselines[stream] = reading
            if baseline is None or baseline.persons_present != reading.persons_present:
                commands = self.commands(time)
        ack = {"type": "ack", "accepted": True, "stored": store, "distance": distance}
        assert replies == [ack, *commands]

    @rule(stream=st.sampled_from(STREAMS), step=st.sampled_from(STEPS),
          bad=st.sampled_from(BAD_FIELDS))
    def bad_field(self, stream, step, bad):
        field, value, error = bad
        msg = self.message(stream, max(0, self.last.get(stream, 0) + step))
        if value is MISSING:
            del msg[field]
        else:
            msg[field] = value
        assert self.feed(msg) == [rejected(f"bad reading payload: {error}")]

    @rule(time=st.sampled_from(LABELS + (TimeOfDay(11, 55, 0),)))
    def tick(self, time):
        assert self.feed({"type": "tick", "time": time.label}) == self.commands(time)

    @rule(line=st.sampled_from(MALFORMED))
    def malformed(self, line):
        raw, error = line
        if error is None:
            assert self.feed(raw) == []
            return
        try:
            self.feed(raw)
        except ProtocolError as exc:
            assert str(exc).startswith(error), str(exc)
        else:
            raise AssertionError(f"{raw[:40]!r} was not refused")

    @rule()
    def hello(self):
        try:
            replies = self.feed({"type": "hello"})
        except ProtocolError as exc:
            assert self.said_hello and str(exc) == "duplicate hello"
        else:
            assert not self.said_hello and replies == [{"type": "hello", "ok": True}]
        self.said_hello = True

    @invariant()
    def engine_matches_model(self):
        assert (self.engine.input_count, self.engine.stored_count) == (self.inputs, self.stored)
        assert set(self.engine.store) == self.triples


TestSessionModel = SessionModel.TestCase
TestSessionModel.settings = settings(max_examples=100, stateful_step_count=40, deadline=None)
