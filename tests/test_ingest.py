import gc
import json
import random
import socket
import socketserver
import struct
import sys
import threading
import time
import tracemalloc
from datetime import date, timedelta
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GHOST_MODEL,
    HOME_APPLIANCES,
    HOME_SLOTS,
    NON_ASCII_TIMES,
    brute_force_rows,
    home_text,
    rand_reading,
    rebuilt,
    start_server,
)
from homectx import ingest, rdf
from homectx.dedup import DedupConfig
from homectx.ingest import (
    MAX_LINE_BYTES,
    ContextEngine,
    ProtocolError,
    Session,
    TraceError,
    preference_query,
    reason_at,
    replay,
)
from homectx.ontology import ModelError, TimeOfDay
from homectx.rdf import TripleStore, home, term_key
from homectx.sparql import evaluate, parse_query

FIG_COMMANDS_18H = {
    ("TV", False), ("AirConditioner", True), ("Light", True), ("Projector", True),
}


def reading_msg(time="180000", present=("Son",), stream="s1", temp=21.0,
                hum=32.0, illum=350.0, date="2007-04-11"):
    return {"type": "reading", "stream": stream, "date": date, "time": time,
            "temperature": temp, "humidity": hum, "illumination": illum,
            "present": list(present)}


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_loads(text):
    """json.loads that refuses the Infinity and NaN constants RFC 8259 lacks."""
    return json.loads(text, parse_constant=_refuse_constant)


# Baseline and next temperature on one stream: the relative jump's square
# overflows a float, or the jump itself is infinite.
HUGE_JUMPS = pytest.mark.parametrize("before, after", [(0.0, 1e200), (1e-300, 1e300)],
                                     ids=["square-overflows", "jump-infinite"])

# "present" values that are not an array of strings.
BAD_PRESENT = pytest.mark.parametrize(
    "present", ["Son", {"Son": 1}, [["a"], 1], [1], None],
    ids=["string", "object", "nested-array", "number-item", "null"])
PRESENT_ERROR = "bad reading payload: present must be an array of strings"

# "present" names that are not whole local names of the Turtle dialect, so
# their triples would not serialize to text that parses back.
BAD_NAMES = pytest.mark.parametrize(
    "name", ["a b", "x.y", "c>d", "", "-a", "a:b", "Son\n"],
    ids=["space", "dot", "angle", "empty", "leading-hyphen", "colon", "newline"])
NAME_ERROR = ("bad reading payload: present names must match "
              "[A-Za-z0-9_][A-Za-z0-9_-]*")

# The exact error of each rejecting ack: (field overrides, error).  A field
# set to MISSING is left out.  The checks run in field order, then the range
# checks, then the finite check, so NaN humidity is out of range and
# -Infinity illumination is negative.
MISSING = object()
REJECTIONS = pytest.mark.parametrize("fields, error", [
    ({"stream": MISSING}, "'stream'"),
    ({"time": MISSING}, "'time'"),
    ({"humidity": MISSING}, "'humidity'"),
    ({"date": MISSING}, "'date'"),
    ({"humidity": "abc"}, "humidity must be a number"),
    ({"temperature": None}, "temperature must be a number"),
    ({"humidity": 100.5}, "humidity out of range: 100.5"),
    ({"humidity": -1}, "humidity out of range: -1.0"),
    ({"illumination": -0.5}, "illumination must be >= 0: -0.5"),
    ({"temperature": float("nan")}, "sensor values must be finite numbers"),
    ({"illumination": float("nan")}, "sensor values must be finite numbers"),
    ({"humidity": float("nan")}, "humidity out of range: nan"),
    ({"temperature": float("inf")}, "sensor values must be finite numbers"),
    ({"temperature": float("-inf")}, "sensor values must be finite numbers"),
    ({"illumination": float("inf")}, "sensor values must be finite numbers"),
    ({"illumination": float("-inf")}, "illumination must be >= 0: -inf"),
    ({"temperature": 10 ** 400}, "int too large to convert to float"),
    ({"date": "2007-13-01"}, "month must be in 1..12"),
    ({"date": "11/04/2007"}, "Invalid isoformat string: '11/04/2007'"),
    ({"time": "9999"}, "time label must be 6 digits, got '9999'"),
    ({"time": "18h000"}, "time label must be 6 digits, got '18h000'"),
    ({"time": "250000"}, "invalid time of day 25:0:0"),
    ({"time": "180060"}, "invalid time of day 18:0:60"),
    ({"present": "Son"}, "present must be an array of strings"),
    ({"present": None}, "present must be an array of strings"),
    ({"date": 20070411}, "Invalid isoformat string: '20070411'"),
    ({"date": None}, "Invalid isoformat string: 'None'"),
    ({"date": "20070411"}, "Invalid isoformat string: '20070411'"),
    ({"date": "2007-W15-3"}, "Invalid isoformat string: '2007-W15-3'"),
    ({"date": "2007-04-11\n"}, "Invalid isoformat string: '2007-04-11\\n'"),
    ({"date": "\uff12007-04-11"}, "Invalid isoformat string: '\uff12007-04-11'"),
    ({"stream": 1}, "stream must be a string"),
    ({"stream": None}, "stream must be a string"),
    ({"stream": ["s1"]}, "stream must be a string"),
    ({"time": "\uff11\uff18\uff10\uff10\uff10\uff10"},
     "time label must be 6 digits, got '\uff11\uff18\uff10\uff10\uff10\uff10'"),
    ({"time": "\u0661\u0668\u0660\u0660\u0660\u0660"},
     "time label must be 6 digits, got '\u0661\u0668\u0660\u0660\u0660\u0660'"),
    ({"time": "18000\u00b2"}, "time label must be 6 digits, got '18000\u00b2'"),
    ({"time": 180000}, "time label must be 6 digits, got 180000"),
    ({"time": "_____200000"}, "time label must be 6 digits, got '_____200000'"),
    ({"temperature": True}, "temperature must be a number"),
    ({"humidity": "30"}, "humidity must be a number"),
    ({"illumination": " 2e1 "}, "illumination must be a number"),
    ({"illumination": "1", "temperature": False}, "temperature must be a number"),
], ids=["no-stream", "no-time", "no-humidity", "no-date", "non-numeric", "null-value",
        "humidity-high", "humidity-negative", "illumination-negative", "nan",
        "nan-illumination", "nan-humidity", "inf", "minus-inf", "inf-illumination",
        "minus-inf-illumination", "huge-int", "bad-month", "bad-date-form",
        "short-time", "time-letters", "hour-25", "second-60", "present-string",
        "present-null", "date-number", "date-null", "date-basic-form", "date-week",
        "date-newline", "date-wide-digit", "stream-number", "stream-null", "stream-array",
        "time-fullwidth", "time-arabic-indic", "time-superscript", "time-number",
        "time-underscores", "number-bool", "number-string", "number-padded-string",
        "numbers-in-field-order"])

# Date strings and whether each is a valid date: an xsd:date literal and a
# wire date must agree on every one.
DATES = pytest.mark.parametrize("text, valid", [
    ("2007-04-11", True), ("2008-02-29", True), ("0001-01-01", True),
    ("9999-12-31", True), ("20070411", False), ("2007-W15-3", False),
    ("2007W153", False), ("2007-101", False), ("\uff12007-04-11", False),
    ("\u0662\u0660\u0660\u0667-\u0660\u0664-\u0661\u0661", False),
    ("2007-04-11\n", False), (" 2007-04-11", False), ("2007-02-30", False),
    ("2007-02-29", False), ("0000-01-01", False), ("2007-13-01", False),
    ("2007-4-11", False), ("2007-04-11T00:00", False), ("", False),
])


def with_fields(msg: dict, fields: dict) -> dict:
    msg = {**msg, **fields}
    return {k: v for k, v in msg.items() if v is not MISSING}


class TestReasonAt:
    def test_study_time(self, fixture_store):
        commands = reason_at(fixture_store, TimeOfDay(18, 0, 0))
        assert {(c["appliance"], c["state"]) for c in commands} == FIG_COMMANDS_18H
        for c in commands:
            assert (c["person"], c["activity"], c["priority"]) == ("Son", "Self-study", 5)

    def test_entertain_time(self, fixture_store):
        commands = reason_at(fixture_store, TimeOfDay(20, 0, 0))
        assert {(c["appliance"], c["state"]) for c in commands} == {
            ("TV", True), ("AirConditioner", True), ("Light", True),
            ("Projector", True),
        }
        assert all((c["person"], c["priority"]) == ("Father", 8) for c in commands)

    def test_idle_time_is_empty(self, fixture_store):
        assert reason_at(fixture_store, TimeOfDay(3, 0, 0)) == []

    def test_priority_conflict_resolution(self, fixture_text):
        # both persons active and present at 21:00 with opposite TV wishes
        store = TripleStore(rdf.parse_data(fixture_text + """
            :late1 :When :_210000 .
            :late1 :Who :Father .
            :late1 :Do :Entertain .
            :late2 :When :_210000 .
            :late2 :Who :Son .
            :late2 :Do :Self-study .
            :_070411210000 :Humidity "30"^^xsd:double .
            :_070411210000 :Temperature "20"^^xsd:double .
            :_070411210000 :Illumination "200"^^xsd:double .
            :_070411210000 :Date "2007-04-11"^^xsd:date .
            :_070411210000 :hasTime :_210000 .
            :_070411210000 :personIn :Father .
            :_070411210000 :personIn :Son .
        """))
        commands = {c["appliance"]: c for c in reason_at(store, TimeOfDay(21, 0, 0))}
        assert commands["TV"]["state"] is True
        assert commands["TV"]["person"] == "Father"
        assert commands["TV"]["priority"] == 8

    def test_longest_priority_is_read_under_the_lowest_digit_limit(self, fixture_text):
        # 640 digits, read by int() and written by json under any limit
        longest = "9" * rdf.MAX_INTEGER_DIGITS
        store = TripleStore(rdf.parse_data(fixture_text.replace(
            '"8"^^xsd:positiveInteger', f'"{longest}"^^xsd:positiveInteger')))
        ContextEngine(store)  # the home model is valid
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(rdf.MAX_INTEGER_DIGITS)
        try:
            commands = reason_at(store, TimeOfDay(20, 0, 0))
            wire = json.loads(json.dumps(commands))
            rows = evaluate(store, parse_query(
                "SELECT ?p WHERE { ?s :hasPriority ?p . } ORDER BY DESC(?p)")).rows
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(commands) == 4
        assert all((c["person"], c["priority"]) == ("Father", int(longest)) for c in wire)
        assert [p.lexical for (p,) in rows] == [longest, "5"]

    def test_model_errors_propagate(self):
        # checked once, where the model enters the engine, not per reasoning
        with pytest.raises(ModelError):
            ContextEngine(TripleStore(rdf.parse_data(GHOST_MODEL)))

    def test_pure_function_of_store_and_time(self, fixture_store):
        a = reason_at(fixture_store, TimeOfDay(18, 0, 0))
        b = reason_at(fixture_store, TimeOfDay(18, 0, 0))
        assert a == b

    def test_match_calls_linear_in_present_persons(self, monkeypatch):
        # a join in written order crosses activities with records first; a
        # probe is one index lookup, for one partial solution and pattern
        persons = 100
        store = TripleStore(rdf.parse_data(home_text(persons, seed=7, present=persons)))
        ContextEngine(store)  # the home model is valid
        probes = []
        index_for = TripleStore.index_for

        class CountedIndex(dict):
            def get(self, key, default=None):
                probes.append(key)
                return super().get(key, default)

        def counted(self, known):
            positions, index = index_for(self, known)
            return positions, CountedIndex(index)

        monkeypatch.setattr(TripleStore, "index_for", counted)
        commands = reason_at(store, TimeOfDay(18, 0, 0))
        assert len(commands) == len(HOME_APPLIANCES)
        assert persons <= len(probes) <= 10 * persons

    @staticmethod
    def tied_profiles_store(rng):
        # one person, two activities at 18:00 whose profiles both set :Light true
        lines = """
            :P :name "P"^^xsd:string .
            :P :hasPriority "3"^^xsd:positiveInteger .
            :a1 :When :_180000 .
            :a1 :Who :P .
            :a1 :Do :Zeta .
            :a2 :When :_180000 .
            :a2 :Who :P .
            :a2 :Do :Alpha .
            :Zeta :Light "true"^^xsd:boolean .
            :Alpha :Light "true"^^xsd:boolean .
            :_070411180000 :hasTime :_180000 .
            :_070411180000 :personIn :P .
        """.strip().splitlines()
        rng.shuffle(lines)
        store = TripleStore(rdf.parse_data("\n".join(lines)))
        ContextEngine(store)
        return store

    def test_activity_breaks_last_tie_whatever_the_insertion_order(self):
        rng = random.Random(5)
        for _ in range(8):
            commands = reason_at(self.tied_profiles_store(rng), TimeOfDay(18, 0, 0))
            assert [(c["appliance"], c["activity"]) for c in commands] == [("Light", "Alpha")]

    def test_winner_independent_of_row_order(self, monkeypatch):
        rng = random.Random(6)
        store = self.tied_profiles_store(rng)
        evaluate = ingest.evaluate
        for _ in range(8):
            def shuffled(store, query):
                table = evaluate(store, query)
                rng.shuffle(table.rows)
                return table

            monkeypatch.setattr(ingest, "evaluate", shuffled)
            commands = reason_at(store, TimeOfDay(18, 0, 0))
            assert [c["activity"] for c in commands] == ["Alpha"]

    @pytest.mark.parametrize("persons, present", [(8, 3), (30, 3)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_winner_rule_over_brute_force(self, persons, present, seed):
        store = TripleStore(rdf.parse_data(home_text(persons, seed, present)))
        engine = ContextEngine(store)

        def check_every_slot():
            for slot in HOME_SLOTS:
                t = TimeOfDay.from_label(slot)
                want = [{"type": "command", "appliance": appliance.local, "state": state,
                         "person": person.local, "activity": activity.local,
                         "priority": priority}
                        for appliance, state, person, activity, priority
                        in winner_rule(brute_force_rows(list(store), preference_query(t)))]
                assert reason_at(store, t) == want

        check_every_slot()
        rng = random.Random(seed)
        for slot in HOME_SLOTS:  # a second record at each slot, with other persons in it
            names = rng.sample([f"P{i}" for i in range(persons)], present)
            ack, _ = engine.handle_reading(
                reading_msg(time=slot, present=names, date="2007-04-11"))
            assert ack["stored"]
        check_every_slot()


def winner_rule(rows) -> list:
    """Per appliance, the row with the highest priority, then state true, then
    the least person name, then the least activity in term order, as
    (appliance, state, person, activity, priority), by appliance name."""
    best = {}
    for person, what, appliance, status, priority in rows:
        rank = (-int(priority.lexical), status.lexical != "true", person.written,
                term_key(what))
        if appliance not in best or rank < best[appliance][0]:
            best[appliance] = (rank, (appliance, status.lexical == "true", person, what,
                                      int(priority.lexical)))
    return [best[a][1] for a in sorted(best, key=lambda a: a.written)]


class TestHandleReading:
    def test_duplicate_reading_not_stored(self, fixture_store):
        engine = ContextEngine(fixture_store)
        engine.handle_reading(reading_msg())
        ack, commands = engine.handle_reading(reading_msg())
        assert ack == {"type": "ack", "accepted": True, "stored": False,
                       "distance": 0.0}
        assert commands == []

    def test_presence_change_acks_then_commands(self, fixture_store):
        engine = ContextEngine(fixture_store)
        engine.handle_reading(reading_msg(time="175900", present=()))
        ack, commands = engine.handle_reading(reading_msg(present=("Son",)))
        assert ack["stored"] is True
        assert ack["distance"] == pytest.approx(1.0, abs=1e-12)
        assert {(c["appliance"], c["state"]) for c in commands} == FIG_COMMANDS_18H

    def test_malformed_payload_rejected(self, fixture_store):
        engine = ContextEngine(fixture_store)
        msg = reading_msg()
        msg["humidity"] = "abc"
        ack, commands = engine.handle_reading(msg)
        assert ack["accepted"] is False
        assert commands == []

    def test_scalar_drift_does_not_reason(self, fixture_store):
        engine = ContextEngine(fixture_store)
        engine.handle_reading(reading_msg(temp=21.0))
        ack, commands = engine.handle_reading(reading_msg(temp=30.0))
        assert ack["stored"] is True
        assert commands == []  # presence unchanged

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10 ** 400],
                             ids=["nan", "inf", "huge-int"])
    def test_non_finite_value_rejected_after_baseline(self, fixture_store, value):
        engine = ContextEngine(fixture_store)
        engine.handle_reading(reading_msg())
        before = set(engine.store)
        ack, commands = engine.handle_reading(reading_msg(time="180001", temp=value))
        assert ack["accepted"] is False and "bad reading payload" in ack["error"]
        assert commands == []
        assert set(engine.store) == before
        assert (engine.input_count, engine.stored_count) == (1, 1)

    @HUGE_JUMPS
    def test_huge_relative_jump_saturates_distance(self, fixture_store, before, after):
        engine = ContextEngine(fixture_store)
        engine.handle_reading(reading_msg(temp=before))
        ack, commands = engine.handle_reading(reading_msg(time="180001", temp=after))
        assert ack == {"type": "ack", "accepted": True, "stored": True,
                       "distance": sys.float_info.max}
        assert strict_loads(json.dumps(ack)) == ack
        assert commands == []
        assert (engine.input_count, engine.stored_count) == (2, 2)
        ack, _ = engine.handle_reading(reading_msg(time="180002", temp=after))
        assert ack["stored"] is False  # the huge reading is the new baseline

    @BAD_PRESENT
    def test_present_must_be_array_of_strings(self, fixture_store, present):
        engine = ContextEngine(fixture_store)
        before = set(engine.store)
        ack, commands = engine.handle_reading({**reading_msg(), "present": present})
        assert ack == {"type": "ack", "accepted": False, "stored": False,
                       "distance": 0.0, "error": PRESENT_ERROR}
        assert commands == []
        assert set(engine.store) == before
        assert (engine.input_count, engine.stored_count) == (0, 0)

    @BAD_NAMES
    def test_present_names_must_be_local_names(self, fixture_store, name):
        engine = ContextEngine(fixture_store)
        before = set(engine.store)
        for _ in range(2):  # the name memo caches no error
            ack, commands = engine.handle_reading(reading_msg(present=("Son", name)))
            assert ack == {"type": "ack", "accepted": False, "stored": False,
                           "distance": 0.0, "error": NAME_ERROR}
            assert commands == []
        assert set(engine.store) == before
        assert (engine.input_count, engine.stored_count) == (0, 0)

    def test_accepted_readings_survive_serialize_and_parse(self):
        rng = random.Random(97)
        alphabet = "aZ09_-. >:#\"\\\né"
        engine = ContextEngine()
        accepted = 0
        for i in range(400):
            names = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 3)))
                     for _ in range(rng.randint(0, 3))]
            ack, _ = engine.handle_reading(reading_msg(
                time=f"{i // 3600:02d}{i // 60 % 60:02d}{i % 60:02d}", present=names))
            if ack["accepted"]:
                accepted += 1
                assert set(rdf.parse_data(rdf.serialize(engine.store))) == set(engine.store)
            else:
                assert ack["error"] == NAME_ERROR
        assert 50 < accepted < 350  # both outcomes are exercised
        assert ingest._person.cache_info().currsize <= ingest.MEMO_SIZE

    def test_payload_reading_keeps_the_dataclass_contract(self):
        rng = random.Random(71)
        for _ in range(300):
            expect = rand_reading(rng)
            msg = reading_msg(time=expect.time.label, date=expect.date.isoformat(),
                              temp=expect.temperature, hum=expect.humidity,
                              illum=expect.illumination,
                              present=sorted(p.local for p in expect.persons_present))
            if not expect.persons_present and rng.random() < 0.5:
                del msg["present"]
            stream, got = ingest.parse_reading_payload(msg)
            assert stream == "s1"
            assert got == expect and hash(got) == hash(expect)
            assert got.id == expect.id
            assert rebuilt(got, humidity=50.0) == rebuilt(expect, humidity=50.0)
            with pytest.raises(ValueError, match="humidity out of range"):
                rebuilt(got, humidity=101.0)
            with pytest.raises(AttributeError):
                got.temperature = 0.0
            assert got.temperature == expect.temperature
        assert ingest._date.cache_info().currsize <= ingest.MEMO_SIZE

    @REJECTIONS
    def test_rejecting_ack_message(self, fixture_store, fields, error):
        engine = ContextEngine(fixture_store)
        # twice, so a memo on the admission path cannot hide a second failure
        for _ in range(2):
            ack, commands = engine.handle_reading(with_fields(reading_msg(), fields))
            assert ack == {"type": "ack", "accepted": False, "stored": False,
                           "distance": 0.0, "error": f"bad reading payload: {error}"}
            assert commands == []
        assert (engine.input_count, engine.stored_count) == (0, 0)

    @DATES
    def test_literal_and_wire_share_the_date_rule(self, text, valid):
        try:
            rdf.Literal(text, rdf.xsd("date"))
            literal_valid = True
        except ValueError:
            literal_valid = False
        try:
            ingest.parse_reading_payload(reading_msg(date=text))
            wire_valid = True
        except ProtocolError:
            wire_valid = False
        assert literal_valid == wire_valid == valid

    def test_every_reading_gets_one_ack(self, fixture_store):
        engine = ContextEngine(fixture_store)
        acks = [engine.handle_reading(reading_msg(temp=21.0 + i))[0]
                for i in range(5)]
        assert len(acks) == 5
        assert all(a["type"] == "ack" for a in acks)

    def test_bytes_kept_per_stored_reading(self, fixture_store):
        # one stream at the four slots of successive days with Son present,
        # each reading far enough from the last to be stored: six triples
        # and three new double literals a reading.  A store of terms, id
        # tuples and three list-bucket indexes, with slotted terms, keeps
        # 2,191 / 2,180 / 2,146 / 2,146 B a reading on Python 3.10.13 /
        # 3.11.7 / 3.12.1 / 3.13.0.  The bound fails if terms keep a dict
        # each, as dataclasses (2,633 / 2,351 / 2,283 / 2,317 B), if a sort
        # key and a datatype set per term come back (2,810-3,170 B), and more
        # so for set buckets and an index on (subject, predicate) (over 6,000 B).
        n = 3000
        rng = random.Random(3)
        msgs = [reading_msg(time=HOME_SLOTS[i % 4], present=("Son",),
                            date=(date(2007, 4, 12) + timedelta(days=i // 4)).isoformat(),
                            temp=(20.0 + 10 * (i % 2)) * rng.uniform(0.97, 1.03),
                            hum=40.0 * rng.uniform(0.9, 1.1), illum=300.0 * rng.uniform(0.85, 1.15))
                for i in range(n)]
        engine = ContextEngine(fixture_store)
        triples = len(engine.store)
        gc.collect()
        tracemalloc.start()
        try:
            for msg in msgs:
                engine.handle_reading(msg)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert engine.stored_count == n
        assert len(engine.store) - triples == 6 * n
        assert kept / n <= 2250


class TestHandleTick:
    def test_tick_waits_for_engine_lock(self, fixture_store):
        engine = ContextEngine(fixture_store)
        replies = []
        tick = threading.Thread(target=lambda: replies.append(
            engine.handle_tick({"type": "tick", "time": "200000"})))
        with engine._lock:
            tick.start()
            tick.join(0.2)
            assert tick.is_alive()  # reasoning waits while a writer holds the lock
        tick.join(5)
        assert not tick.is_alive()
        assert len(replies[0]) == 4

    def test_ticks_beside_readings_raise_nothing(self, fixture_store):
        # every stored reading grows the (hasTime, :_180000) index set that
        # each tick's join iterates
        engine = ContextEngine(fixture_store)
        errors, stop = [], threading.Event()

        def run(step):
            i = 0
            while not stop.is_set():
                try:
                    step(i)
                except Exception as exc:  # reported by the assertion below
                    errors.append(exc)
                    return
                i += 1

        def reading(i):
            day = date(2000, 1, 1) + timedelta(days=i)
            engine.handle_reading(reading_msg(date=day.isoformat(),
                                              temp=20.0 + 10 * (i % 2)))

        def tick(i):
            engine.handle_tick({"type": "tick", "time": "180000"})

        workers = [threading.Thread(target=run, args=(step,))
                   for step in (reading, tick, tick)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for w in workers:
                w.start()
            time.sleep(1.0)
        finally:
            stop.set()
            for w in workers:
                w.join(10)
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        assert engine.stored_count > 1


class _Client:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def send(self, obj):
        self.send_raw((json.dumps(obj) + "\n").encode("utf-8"))

    def send_raw(self, data: bytes):
        self.sock.sendall(data)

    def recv(self):
        line = self.reader.readline()
        assert line, "connection closed unexpectedly"
        return json.loads(line)

    def close(self):
        self.sock.close()


@pytest.fixture()
def server(fixture_store):
    engine = ContextEngine(fixture_store)
    srv = start_server(("127.0.0.1", 0), engine)
    yield srv, engine
    srv.shutdown()
    srv.server_close()


class TestServe:
    def test_end_to_end_study_time(self, server):
        srv, _ = server
        client = _Client(srv.server_address[1])
        client.send({"type": "hello", "stream": "s1"})
        assert client.recv()["type"] == "hello"
        client.send(reading_msg())
        ack = client.recv()
        assert ack["type"] == "ack" and ack["stored"] is True
        commands = [client.recv() for _ in range(4)]
        assert {(c["appliance"], c["state"]) for c in commands} == FIG_COMMANDS_18H
        client.close()

    def test_double_hello_kills_only_that_connection(self, server):
        srv, _ = server
        bad = _Client(srv.server_address[1])
        bad.send({"type": "hello"})
        bad.recv()
        bad.send({"type": "hello"})
        err = bad.recv()
        assert err["type"] == "error" and "hello" in err["message"]
        assert bad.reader.readline() == ""  # connection closed
        bad.close()

        good = _Client(srv.server_address[1])
        good.send(reading_msg(stream="s9"))
        assert good.recv()["type"] == "ack"
        good.close()

    @pytest.mark.parametrize("line", [b"\xff\xfe{}\n", b"[" * 100000 + b"\n",
                                      b"[1,2]\n"],
                             ids=["non-utf8", "deep-nesting", "array"])
    def test_undecodable_line_gets_error_then_close(self, server, line):
        srv, _ = server
        client = _Client(srv.server_address[1])
        client.send_raw(line)
        assert client.recv()["type"] == "error"
        assert client.reader.readline() == ""  # connection closed
        client.close()

    def test_line_at_length_limit_is_served(self, server):
        srv, _ = server
        line = json.dumps(reading_msg()).encode()
        line += b" " * (MAX_LINE_BYTES - len(line) - 1) + b"\n"
        assert len(line) == MAX_LINE_BYTES
        client = _Client(srv.server_address[1])
        client.send_raw(line)
        ack = client.recv()
        assert ack["type"] == "ack" and ack["accepted"] is True
        client.close()

    @pytest.mark.parametrize("end", [b"", b"\n"], ids=["no-newline", "newline"])
    def test_overlong_line_gets_error_then_close(self, server, end):
        # Without a newline the server must answer once the limit is passed,
        # not wait for the line to end.
        srv, _ = server
        line = json.dumps(reading_msg()).encode()
        line += b" " * (MAX_LINE_BYTES + 1 - len(line) - len(end)) + end
        client = _Client(srv.server_address[1])
        client.send_raw(line)
        assert client.recv() == {"type": "error", "message": "line too long"}
        assert client.reader.readline() == ""  # connection closed
        client.close()

        good = _Client(srv.server_address[1])
        good.send(reading_msg(stream="s9"))
        assert good.recv()["accepted"] is True
        good.close()

    def test_non_finite_reading_acked_and_connection_kept(self, server):
        srv, _ = server
        client = _Client(srv.server_address[1])
        client.send(reading_msg(stream="nan", temp=float("nan")))
        ack = client.recv()
        assert ack["type"] == "ack" and ack["accepted"] is False
        client.send(reading_msg(stream="nan", present=()))
        ack = client.recv()
        assert ack["type"] == "ack" and ack["accepted"] is True
        client.close()

    @HUGE_JUMPS
    def test_huge_relative_jump_acked_and_connection_kept(self, server, before, after):
        srv, _ = server
        lines = [reading_msg(stream="huge", time=f"12000{i}", temp=temp, present=())
                 for i, temp in enumerate((before, after, after))]
        replies = _read_all(srv.server_address[1],
                            b"".join(json.dumps(l).encode() + b"\n" for l in lines))
        acks = [strict_loads(r) for r in replies.splitlines()]
        assert [(a["type"], a["accepted"], a["stored"]) for a in acks] == [
            ("ack", True, True), ("ack", True, True), ("ack", True, False)]
        assert acks[1]["distance"] == sys.float_info.max

    @BAD_PRESENT
    def test_bad_present_rejected_and_connection_kept(self, server, present):
        srv, engine = server
        client = _Client(srv.server_address[1])
        client.send({**reading_msg(stream="bad"), "present": present})
        assert client.recv() == {"type": "ack", "accepted": False, "stored": False,
                                 "distance": 0.0, "error": PRESENT_ERROR}
        client.send(reading_msg(stream="bad", present=()))
        assert client.recv()["accepted"] is True
        assert engine.input_count == 1
        client.close()

    @BAD_NAMES
    def test_bad_name_rejected_and_connection_kept(self, server, name):
        srv, engine = server
        client = _Client(srv.server_address[1])
        client.send(reading_msg(stream="bad", present=(name,)))
        assert client.recv() == {"type": "ack", "accepted": False, "stored": False,
                                 "distance": 0.0, "error": NAME_ERROR}
        client.send(reading_msg(stream="bad", present=()))
        assert client.recv()["accepted"] is True
        assert engine.input_count == 1
        client.close()

    def test_out_of_order_reading_rejected_without_state_change(self, server, tmp_path):
        srv, engine = server
        lines = [reading_msg(time="120000", present=()),
                 reading_msg(time="110000", present=(), temp=35.0)]
        client = _Client(srv.server_address[1])
        client.send(lines[0])
        assert client.recv()["stored"] is True
        before = set(engine.store)
        client.send(lines[1])
        ack = client.recv()
        assert ack["accepted"] is False and "'s1'" in ack["error"]
        assert set(engine.store) == before
        # the baseline is still the 12:00 reading: its twin is a duplicate
        client.send(reading_msg(time="120001", present=()))
        assert client.recv() == {"type": "ack", "accepted": True,
                                 "stored": False, "distance": 0.0}
        client.close()
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(json.dumps(l) + "\n" for l in lines))
        with pytest.raises(TraceError, match="line 2: timestamp order"):
            replay(path)

    def test_disjoint_streams_from_two_clients(self, server):
        srv, engine = server
        a = _Client(srv.server_address[1])
        b = _Client(srv.server_address[1])
        a.send(reading_msg(stream="sa", time="100000", present=()))
        b.send(reading_msg(stream="sb", time="100100", present=()))
        assert a.recv()["stored"] is True
        assert b.recv()["stored"] is True
        ids = {home("_070411100000"), home("_070411100100")}
        stored_ids = {t.subject for t in engine.store
                      if t.subject in ids}
        assert stored_ids == ids
        a.close()
        b.close()

    def test_hangup_leaves_no_traceback(self, server, capfd):
        srv, _ = server
        handled = threading.Event()
        shutdown_request = srv.shutdown_request

        def closed(request):
            shutdown_request(request)
            handled.set()

        srv.shutdown_request = closed
        client = _Client(srv.server_address[1])
        client.send({"type": "hello"})
        client.recv()
        client.send(reading_msg())  # answered by an ack and four commands
        # close unread, with a reset, so the server's next send or read fails
        client.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                               struct.pack("ii", 1, 0))
        client.reader.close()  # the socket closes with its last file object
        client.close()
        assert handled.wait(5)
        assert "Traceback" not in capfd.readouterr().err

    def test_tick_triggers_commands(self, server):
        srv, _ = server
        client = _Client(srv.server_address[1])
        client.send({"type": "tick", "time": "200000"})
        commands = [client.recv() for _ in range(4)]
        assert all(c["person"] == "Father" for c in commands)
        client.close()

    @NON_ASCII_TIMES
    def test_non_ascii_tick_gets_error_line(self, server, label):
        srv, _ = server
        client = _Client(srv.server_address[1])
        client.send({"type": "tick", "time": label})
        assert client.recv() == {
            "type": "error", "message": f"bad tick: time label must be 6 digits, got {label!r}"}
        client.close()

    @pytest.mark.parametrize("label", [180000, [1]], ids=["number", "array"])
    def test_non_string_tick_gets_error_line_then_close(self, server, label):
        srv, _ = server
        client = _Client(srv.server_address[1])
        client.send({"type": "tick", "time": label})
        assert client.recv() == {
            "type": "error", "message": f"bad tick: time label must be 6 digits, got {label!r}"}
        assert client.reader.readline() == ""  # connection closed
        client.close()


# The replies to test_end_to_end_study_time's hello and reading, then to a
# 20:00 tick, as the server wrote them before it sent each message's replies
# in one write.
STUDY_TIME_WIRE = [
    b'{"type": "hello", "ok": true}\n',
    b'{"type": "ack", "accepted": true, "stored": true, "distance": 0.0}\n',
    *(b'{"type": "command", "appliance": "%s", "state": %s, "person": "Son", '
      b'"activity": "Self-study", "priority": 5}\n' % pair
      for pair in [(b"AirConditioner", b"true"), (b"Light", b"true"),
                   (b"Projector", b"true"), (b"TV", b"false")]),
    *(b'{"type": "command", "appliance": "%s", "state": true, "person": "Father", '
      b'"activity": "Entertain", "priority": 8}\n' % appliance
      for appliance in [b"AirConditioner", b"Light", b"Projector", b"TV"]),
]


class TestReplyWrites:
    def test_accepted_connections_have_nodelay(self, server, monkeypatch):
        srv, _ = server
        nodelay = []
        setup = ingest._Handler.setup

        def recording(handler):
            setup(handler)
            nodelay.append(handler.connection.getsockopt(socket.IPPROTO_TCP,
                                                         socket.TCP_NODELAY))

        monkeypatch.setattr(ingest._Handler, "setup", recording)
        client = _Client(srv.server_address[1])
        client.send({"type": "hello"})
        assert client.recv()["type"] == "hello"
        client.close()
        assert len(nodelay) == 1 and nodelay[0] != 0

    def test_one_write_per_message(self, server, monkeypatch):
        srv, _ = server
        writes = []
        write = socketserver._SocketWriter.write

        def counted(writer, data):
            writes.append(bytes(data))
            return write(writer, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write", counted)
        client = _Client(srv.server_address[1])
        client.send({"type": "hello"})
        client.recv()
        assert len(writes) == 1
        client.send(reading_msg())  # a presence change: an ack and 4 commands
        replies = [client.recv() for _ in range(5)]
        assert [r["type"] for r in replies] == ["ack"] + ["command"] * 4
        assert len(writes) == 2 and writes[1].count(b"\n") == 5
        client.send({"type": "tick", "time": "200000"})
        assert len([client.recv() for _ in range(4)]) == 4
        assert len(writes) == 3 and writes[2].count(b"\n") == 4
        client.send({"type": "tick", "time": "bad"})
        assert client.recv()["type"] == "error"
        assert len(writes) == 4
        client.close()

    def test_wire_bytes_unchanged(self, server):
        srv, _ = server
        data = _read_all(srv.server_address[1], b"".join(
            json.dumps(msg).encode() + b"\n" for msg in (
                {"type": "hello", "stream": "s1"}, reading_msg(),
                {"type": "tick", "time": "200000"})))
        assert data.splitlines(keepends=True) == STUDY_TIME_WIRE


# --- protocol fuzzing: any byte line against the wire contract

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)
_FIELDS = st.sampled_from(["stream", "date", "time", "temperature", "humidity",
                           "illumination", "present"]) | st.text(max_size=6)
_TYPES = st.sampled_from(["hello", "reading", "tick", "ack", "command"]) | _JSON_VALUES
_OBJECTS = (
    st.builds(lambda kind, fields: {"type": kind, **fields},
              _TYPES, st.dictionaries(_FIELDS, _JSON_VALUES, max_size=7))
    | st.builds(lambda kind, fields: {**reading_msg(), "type": kind, **fields},
                _TYPES, st.dictionaries(_FIELDS, _JSON_VALUES, max_size=2))
    | st.dictionaries(_FIELDS, _JSON_VALUES, max_size=4))
_LINES = (
    st.binary(max_size=200)
    | _OBJECTS.map(lambda obj: json.dumps(obj).encode("utf-8"))
    | st.text(" \t\r\x0b\x0c\x1c\u2028", max_size=4).map(str.encode)
).map(lambda raw: raw.replace(b"\n", b"") + b"\n")


def _is_blank(line: bytes) -> bool:
    try:
        return not line.decode("utf-8").strip()
    except UnicodeDecodeError:
        return False


def _read_all(port: int, data: bytes) -> bytes:
    """Send ``data`` on a fresh connection, half-close, read until the close."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        replies = b""
        while chunk := sock.recv(65536):
            replies += chunk
    return replies


def _exchange(port: int, line: bytes) -> list[bytes]:
    """Send one line on a fresh connection; the reply lines until the close."""
    return _read_all(port, line).splitlines()


class TestProtocolFuzz:
    def test_any_line_keeps_the_wire_contract(self, fixture_store, capfd):
        srv = start_server(("127.0.0.1", 0), ContextEngine(fixture_store))
        port = srv.server_address[1]

        @given(_LINES)
        @settings(max_examples=200, deadline=None)
        def one_line(line):
            replies = [strict_loads(r) for r in _exchange(port, line)]
            assert "Traceback" not in capfd.readouterr().err
            if not replies:
                assert _is_blank(line)
            assert all(isinstance(r, dict) for r in replies)
            kinds = [r.get("type") for r in replies]
            assert kinds.count("ack") <= 1
            try:
                msg = json.loads(line)
            except ValueError:
                msg = None
            if isinstance(msg, dict) and msg.get("type") == "reading":
                assert kinds.count("ack") == 1
            assert kinds.count("error") <= 1
            if "error" in kinds:
                assert kinds[-1] == "error"

        try:
            one_line()
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock, \
                    sock.makefile("r", encoding="utf-8") as reader:
                sock.sendall((json.dumps(reading_msg(stream="after-fuzz")) + "\n").encode())
                ack = json.loads(reader.readline())
            assert ack["type"] == "ack" and ack["accepted"] is True
        finally:
            srv.shutdown()
            srv.server_close()


# What replay says to a hello line: the one verdict a trace gives on
# purpose that a connection does not, since a trace may not say hello.
TRACE_HELLO_ERROR = "unknown message type 'hello'"


class TestSameVerdict:
    def test_server_session_and_replay_agree_on_any_line(self, fixture_text, tmp_path):
        path = tmp_path / "trace.jsonl"

        @given(_LINES)
        @settings(max_examples=200, deadline=None)
        def one_line(line):
            engine = ContextEngine(TripleStore(rdf.parse_data(fixture_text)))
            try:
                replies = Session(engine).feed(line)
            except ProtocolError as exc:
                replies, error = [], str(exc)
            else:
                error = next((r["error"] for r in replies if r.get("accepted") is False),
                             None)
            if replies == [{"type": "hello", "ok": True}]:
                error = TRACE_HELLO_ERROR
            path.write_bytes(line)
            replay_store = TripleStore(rdf.parse_data(fixture_text))
            try:
                stats = replay(path, store=replay_store)
            except TraceError as exc:
                assert str(exc) == f"line 1: {error}"
            else:
                assert error is None
                assert stats.commands == [r for r in replies if r["type"] == "command"]
                assert set(replay_store) == set(engine.store)

        one_line()


class TestReplay:
    def write_trace(self, tmp_path, lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(json.dumps(l) + "\n" for l in lines))
        return path

    def test_constant_stream_stores_once(self, tmp_path):
        lines = [reading_msg(time=f"{8:02d}{i // 60:02d}{i % 60:02d}")
                 for i in range(500)]
        stats = replay(self.write_trace(tmp_path, lines))
        assert stats.input_count == 500
        assert stats.stored_count == 1
        assert stats.reduction_factor == 500

    def test_out_of_order_trace_names_line(self, tmp_path):
        lines = [reading_msg(time="120000"), reading_msg(time="110000")]
        with pytest.raises(TraceError, match="line 2"):
            replay(self.write_trace(tmp_path, lines))

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type":"reading"}\nnot json\n')
        with pytest.raises(TraceError, match="line 1"):
            replay(path)

    @pytest.mark.parametrize("line", [b"[1,2]", b"\xff\xfe{}", b'{"type":"tick"}'],
                             ids=["array", "non-utf8", "tick-without-time"])
    def test_bad_line_names_line(self, tmp_path, line):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(json.dumps(reading_msg()).encode() + b"\n\n" + line + b"\n")
        with pytest.raises(TraceError, match="line 3"):
            replay(path)

    def test_overlong_line_names_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(json.dumps(reading_msg()).encode() + b"\n"
                         + b" " * MAX_LINE_BYTES + b"\n")
        with pytest.raises(TraceError, match="line 2: line too long"):
            replay(path)

    def test_overlong_line_read_no_further_than_limit(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with open(path, "wb") as fh:
            fh.write(json.dumps(reading_msg()).encode() + b"\n")
            for _ in range(32):  # a 32 MiB second line
                fh.write(b" " * (1 << 20))
            fh.write(b"\n")
        tracemalloc.start()
        try:
            with pytest.raises(TraceError, match="^line 2: line too long$"):
                replay(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @HUGE_JUMPS
    def test_huge_relative_jump_counts(self, tmp_path, before, after):
        lines = [reading_msg(time=f"12000{i}", temp=temp, present=())
                 for i, temp in enumerate((before, after, after))]
        stats = replay(self.write_trace(tmp_path, lines))
        assert (stats.input_count, stats.stored_count) == (3, 2)

    @BAD_PRESENT
    def test_bad_present_names_line(self, tmp_path, present):
        lines = [reading_msg(), {**reading_msg(time="180001"), "present": present}]
        with pytest.raises(TraceError, match=f"^line 2: {PRESENT_ERROR}$"):
            replay(self.write_trace(tmp_path, lines))

    @BAD_NAMES
    def test_bad_name_names_line(self, tmp_path, name):
        lines = [reading_msg(), reading_msg(time="180001", present=(name,))]
        with pytest.raises(TraceError) as info:
            replay(self.write_trace(tmp_path, lines))
        assert str(info.value) == f"line 2: {NAME_ERROR}"

    def test_invalid_model_refused_before_first_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ModelError, match=":Ghost"):
            replay(path, store=TripleStore(rdf.parse_data(GHOST_MODEL)))

    def test_each_reading_parsed_once(self, tmp_path, monkeypatch):
        # The benchmark's per-layer tracing wraps these module globals of
        # homectx.ingest; each layer must still be called through them.
        calls = {}

        def counting(name, fn):
            def counted(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            return counted

        for name in ("parse_reading_payload", "should_store", "reading_to_triples",
                     "reason_at"):
            monkeypatch.setattr(ingest, name, counting(name, getattr(ingest, name)))
        monkeypatch.setattr(ingest, "json", SimpleNamespace(
            loads=counting("json.loads", json.loads), dumps=json.dumps))
        lines = [reading_msg(time=f"1000{i:02d}", temp=21.0 + i) for i in range(7)]
        lines.insert(3, {"type": "tick", "time": "100003"})
        stats = replay(self.write_trace(tmp_path, lines))
        assert stats.input_count == 7
        assert stats.stored_count == 3  # 21, 24 and 27 degrees
        assert calls == {"json.loads": 8, "parse_reading_payload": 7,
                         "should_store": 7, "reading_to_triples": 3,
                         "reason_at": 2}  # first reading's presence, the tick

    def test_serve_replay_equivalence(self, tmp_path, fixture_text):
        lines = [
            reading_msg(time="175000", present=()),
            reading_msg(time="175900", present=(), temp=24.0),
            reading_msg(time="180000", present=("Son",)),
            {"type": "tick", "time": "200000"},
        ]
        path = self.write_trace(tmp_path, lines)

        def fresh_store():
            return TripleStore(rdf.parse_data(fixture_text))

        replay_store = fresh_store()
        stats = replay(path, store=replay_store)
        assert stats.commands_emitted == 8  # presence change + tick

        engine = ContextEngine(fresh_store())
        srv = start_server(("127.0.0.1", 0), engine)
        try:
            client = _Client(srv.server_address[1])
            for line in lines:
                client.send(line)
            client.sock.shutdown(socket.SHUT_WR)
            responses = [json.loads(l) for l in client.reader]
            client.close()
        finally:
            srv.shutdown()
            srv.server_close()

        acks = [r for r in responses if r["type"] == "ack"]
        live_commands = [r for r in responses if r["type"] == "command"]
        assert len(acks) == 3  # one per reading, in order
        assert live_commands == stats.commands
        assert set(engine.store) == set(replay_store)
