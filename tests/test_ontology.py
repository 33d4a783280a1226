import random
from dataclasses import replace
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GHOST_MODEL, NON_ASCII_TIMES, home_text, rand_reading
from homectx import rdf
from homectx.ingest import ContextEngine
from homectx.ontology import (
    MEMO_SIZE,
    P_DO,
    P_NAME,
    P_PRIORITY,
    P_WHEN,
    P_WHO,
    XSD_BOOLEAN,
    XSD_POSITIVE_INTEGER,
    EnvironmentReading,
    ModelError,
    TimeOfDay,
    _single_object,
    load_home_model,
    reading_to_triples,
    triples_to_reading,
)
from homectx.rdf import Iri, Literal, Triple, TriplePattern, TripleStore, Variable, home, xsd


def make_reading(persons=("Father",)):
    return EnvironmentReading(
        humidity=30, temperature=20, illumination=400,
        date=date(2007, 4, 11), time=TimeOfDay(11, 55, 0),
        persons_present=frozenset(home(p) for p in persons),
    )


class TestTimeOfDay:
    def test_label_round_trip(self):
        t = TimeOfDay(18, 0, 0)
        assert t.label == "180000"
        assert TimeOfDay.from_label("_180000") == t
        assert TimeOfDay.from_label("180000") == t

    def test_bounds(self):
        with pytest.raises(ValueError):
            TimeOfDay(24, 0, 0)
        with pytest.raises(ValueError):
            TimeOfDay.from_label("9999")

    @NON_ASCII_TIMES
    def test_label_digits_must_be_ascii(self, label):
        for _ in range(2):  # an invalid label raises every time
            with pytest.raises(ValueError) as exc:
                TimeOfDay.from_label(label)
            assert str(exc.value) == f"time label must be 6 digits, got {label!r}"

    def test_label_memo_is_bounded_and_caches_no_error(self):
        memo = TimeOfDay.from_label
        assert memo.cache_info().maxsize == MEMO_SIZE
        for second in range(86400):
            label = f"{second // 3600:02d}{second // 60 % 60:02d}{second % 60:02d}"
            assert memo(label).label == label
        assert memo.cache_info().currsize <= MEMO_SIZE
        for label in ("250000", "9999", "18h000"):
            for _ in range(3):  # an invalid label raises every time
                with pytest.raises(ValueError):
                    memo(label)
        assert memo("_180000") == memo("180000") == TimeOfDay(18, 0, 0)
        assert hash(memo("_180000")) == hash(TimeOfDay(18, 0, 0))


class TestReadingTriples:
    def test_single_person_shape(self):
        triples = reading_to_triples(make_reading())
        assert len(triples) == 6
        assert Triple(home("_070411115500"), home("personIn"), home("Father")) in triples
        predicates = {t.predicate.local for t in triples}
        assert predicates == {"Humidity", "Temperature", "Illumination",
                              "Date", "hasTime", "personIn"}

    def test_no_persons(self):
        assert len(reading_to_triples(make_reading(persons=()))) == 5

    def test_two_persons(self):
        triples = reading_to_triples(make_reading(persons=("Father", "Son")))
        assert len(triples) == 7
        assert sum(1 for t in triples if t.predicate == home("personIn")) == 2

    def test_reading_id_encodes_date_and_time(self):
        assert make_reading().id == home("_070411115500")

    def test_cached_id_is_per_instance(self):
        r = make_reading()
        assert r.id == home("_070411115500")
        moved = replace(r, time=TimeOfDay(18, 0, 0))
        assert moved.id == home("_070411180000")
        assert replace(moved, date=date(2008, 1, 2)).id == home("_080102180000")
        assert r.id == home("_070411115500")

    def test_cached_id_leaves_equality_and_hash(self):
        read = make_reading()
        assert read.id == home("_070411115500")
        fresh = make_reading()
        assert read == fresh and hash(read) == hash(fresh)
        assert len({read, fresh}) == 1
        assert fresh.id == read.id
        assert read != replace(fresh, time=TimeOfDay(11, 55, 1))

    def test_round_trip(self):
        r = make_reading()
        store = TripleStore(reading_to_triples(r))
        assert triples_to_reading(store, r.id) == r

    def test_round_trip_random_readings(self):
        rng = random.Random(31)
        for _ in range(100):
            r = rand_reading(rng)
            store = TripleStore(reading_to_triples(r))
            assert triples_to_reading(store, r.id) == r

    def test_absent_id(self):
        with pytest.raises(ModelError, match="not found"):
            triples_to_reading(TripleStore(), home("_070411115500"))

    def test_missing_property(self):
        r = make_reading()
        triples = [t for t in reading_to_triples(r)
                   if t.predicate != home("Humidity")]
        with pytest.raises(ModelError, match="missing property Humidity"):
            triples_to_reading(TripleStore(triples), r.id)

    @pytest.mark.parametrize("predicate, datatype", [
        ("Humidity", "xsd:double"), ("Illumination", "xsd:double"), ("Date", "xsd:date"),
    ])
    def test_missing_or_mistyped_literal_property(self, predicate, datatype):
        r = make_reading()
        triples = [t for t in reading_to_triples(r) if t.predicate != home(predicate)]
        with pytest.raises(ModelError, match=f"^missing property {predicate} on :_070411115500$"):
            triples_to_reading(TripleStore(triples), r.id)
        triples.append(Triple(r.id, home(predicate), Literal("30", xsd("string"))))
        with pytest.raises(ModelError, match=f"^property {predicate} on :_070411115500 "
                                             f"is not {datatype}$"):
            triples_to_reading(TripleStore(triples), r.id)

    @pytest.mark.parametrize("time, message", [
        (None, "missing property hasTime on :_070411115500"),
        (Literal("115500", xsd("string")), "hasTime on :_070411115500 must name a time resource"),
        (home("_1155"), "time label must be 6 digits, got '_1155'"),
        (home("_255500"), "invalid time of day 25:55:0"),
    ], ids=["missing", "literal", "short-label", "out-of-range"])
    def test_bad_time(self, time, message):
        r = make_reading()
        triples = [t for t in reading_to_triples(r) if t.predicate != home("hasTime")]
        if time is not None:
            triples.append(Triple(r.id, home("hasTime"), time))
        with pytest.raises(ModelError) as exc:
            triples_to_reading(TripleStore(triples), r.id)
        assert str(exc.value) == message

    def test_humidity_range_enforced(self):
        with pytest.raises(ValueError, match="humidity"):
            EnvironmentReading(humidity=101, temperature=20, illumination=1,
                               date=date(2007, 4, 11), time=TimeOfDay(0, 0, 0))


def verdict(store):
    """None when the store holds a valid home model, else the ModelError message."""
    try:
        assert load_home_model(store) is None
    except ModelError as exc:
        return str(exc)
    return None


# A valid one-person home; each fault case below adds one activity :a.
BASE_MODEL = """
    :Dad :name "Dad"^^xsd:string .
    :Dad :hasPriority "8"^^xsd:positiveInteger .
    :Nap :Light "false"^^xsd:boolean .
"""


class TestHomeModel:
    def test_empty_store(self):
        assert verdict(TripleStore()) is None

    @pytest.mark.parametrize("activity, message", [
        (":a :When :_180000 . :a :Who :Dad . :a :Do :Nap .", None),
        (':a :When "180000"^^xsd:string . :a :Who :Dad . :a :Do :Nap .',
         "When on :a must name a time resource"),
        (':a :When :_180000 . :a :Who "Dad"^^xsd:string . :a :Do :Nap .',
         "Who/Do on :a must be resources"),
        (':a :When :_180000 . :a :Who :Dad . :a :Do "Nap"^^xsd:string .',
         "Who/Do on :a must be resources"),
        (":a :When :_1800 . :a :Who :Dad . :a :Do :Nap .",
         "time label must be 6 digits, got '_1800'"),
        (":a :When :_250000 . :a :Who :Dad . :a :Do :Nap .",
         "invalid time of day 25:0:0"),
        (":a :When :_180000 . :a :Who :Ghost . :a :Do :Nap .",
         "activity :a references unknown person :Ghost"),
        (":a :When :_180000 . :a :Who :Dad . :a :Do :Missing .",
         "activity :a references unknown preference :Missing"),
        (':a :When :_180000 . :a :Who :Dad . :a :Do :Nap . '
         ':Dad :hasPriority "8"^^xsd:string .',
         "hasPriority on :Dad must be an xsd:positiveInteger"),
    ], ids=["valid", "when-literal", "who-literal", "do-literal", "short-label",
            "hour-25", "unknown-person", "unknown-profile", "priority-string"])
    def test_fault_message(self, activity, message):
        store = TripleStore(rdf.parse_data(BASE_MODEL + activity))
        assert verdict(store) == message

    def test_dangling_person_reference(self):
        store = TripleStore(rdf.parse_data("""
            :a :When :_180000 .
            :a :Who :Ghost .
            :a :Do :Nap .
            :Nap :Light "false"^^xsd:boolean .
        """))
        with pytest.raises(ModelError, match=":Ghost"):
            load_home_model(store)

    def test_dangling_preference_reference(self, fixture_text):
        store = TripleStore(rdf.parse_data(fixture_text + """
            :late :When :_230000 .
            :late :Who :Father .
            :late :Do :Missing .
        """))
        with pytest.raises(ModelError, match=":Missing"):
            load_home_model(store)

    def test_priority_must_be_positive_integer(self, fixture_text):
        text = fixture_text.replace(':Son :hasPriority "5"^^xsd:positiveInteger',
                                    ':Son :hasPriority "5.0"^^xsd:double')
        with pytest.raises(ModelError, match="positiveInteger"):
            load_home_model(TripleStore(rdf.parse_data(text)))

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_readings_leave_model_unchanged(self, fixture_text, rng):
        for text in (fixture_text, GHOST_MODEL):
            store = TripleStore(rdf.parse_data(text))
            before = verdict(store)
            for triple in reading_to_triples(rand_reading(rng)):
                store.insert(triple)
            assert verdict(store) == before

    def test_order_independence(self, fixture_text):
        expected = {fixture_text: None,
                    GHOST_MODEL: "activity :a references unknown person :Ghost"}
        rng = random.Random(3)
        for text, message in expected.items():
            triples = rdf.parse_data(text)
            assert verdict(TripleStore(triples)) == message
            for _ in range(5):
                rng.shuffle(triples)
                assert verdict(TripleStore(triples)) == message


def oracle_verdict(store):
    """The model check asked subject by subject, with one ``_single_object``
    per person and per activity: the referee for ``load_home_model``."""
    persons = set()
    for t in store.match(TriplePattern(Variable("s"), P_PRIORITY, Variable("o"))):
        if not (isinstance(t.object, Literal) and t.object.datatype == XSD_POSITIVE_INTEGER):
            return f"hasPriority on {t.subject.written} must be an xsd:positiveInteger"
        if isinstance(_single_object(store, t.subject, P_NAME), Literal):
            persons.add(t.subject)
    activities = {}
    for t in store.match(TriplePattern(Variable("s"), P_WHEN, Variable("o"))):
        who = _single_object(store, t.subject, P_WHO)
        does = _single_object(store, t.subject, P_DO)
        if who is None or does is None:
            continue
        if not isinstance(t.object, Iri):
            return f"When on {t.subject.written} must name a time resource"
        if not isinstance(who, Iri) or not isinstance(does, Iri):
            return f"Who/Do on {t.subject.written} must be resources"
        try:
            TimeOfDay.from_label(t.object.local)
        except ValueError as exc:
            return str(exc)
        activities[t.subject] = (who, does)
    for activity, (who, does) in activities.items():
        if who not in persons:
            return f"activity {activity.written} references unknown person {who.written}"
        if not any(isinstance(t.object, Literal) and t.object.datatype == XSD_BOOLEAN
                   for t in store.match(TriplePattern(does, Variable("p"), Variable("o")))):
            return f"activity {activity.written} references unknown preference {does.written}"
    return None


PEOPLE = [home(f"p{i}") for i in range(4)]  # a home defines at most three of them
PROFILES = [home(f"f{i}") for i in range(3)]  # and at most two of these
SLOTS = [home("_070000"), home("_180000")]
P_LIGHT = home("Light")
# What a fault may put at a predicate: other persons and profiles, names
# that are not literals, bad time labels, and literals of every kind.
FAULT_OBJECTS = PEOPLE + PROFILES + SLOTS + [
    home("_1800"), Literal("x", xsd("string")), Literal("2.5", xsd("double")),
    Literal("7", XSD_POSITIVE_INTEGER), Literal("true", XSD_BOOLEAN)]


@st.composite
def faulty_homes(draw):
    """A small valid home, then up to four faults: each adds an object at a
    predicate (so a subject may hold two), replaces its objects, or drops them."""
    def pick(pool):
        return draw(st.sampled_from(pool))

    people = PEOPLE[:draw(st.integers(1, 3))]
    profiles = PROFILES[:draw(st.integers(1, 2))]
    activities = [home(f"a{i}") for i in range(draw(st.integers(1, 4)))]
    facts = {}  # (subject, predicate) -> objects
    for person in people:
        facts[person, P_NAME] = [Literal(person.local, xsd("string"))]
        facts[person, P_PRIORITY] = [Literal(str(draw(st.integers(1, 10))),
                                             XSD_POSITIVE_INTEGER)]
    for profile in profiles:
        facts[profile, P_LIGHT] = [Literal(pick(["true", "false"]), XSD_BOOLEAN)]
    for activity in activities:
        facts[activity, P_WHEN] = [pick(SLOTS)]
        facts[activity, P_WHO] = [pick(people)]
        facts[activity, P_DO] = [pick(profiles)]
    subjects = {P_NAME: PEOPLE, P_PRIORITY: PEOPLE, P_LIGHT: PROFILES,
                P_WHEN: activities, P_WHO: activities, P_DO: activities}
    for _ in range(draw(st.integers(0, 4))):
        predicate = pick(list(subjects))
        objects = facts.setdefault((pick(subjects[predicate]), predicate), [])
        mode = pick(["add", "replace", "drop"])
        if mode != "add":
            objects.clear()
        if mode != "drop":
            objects.append(pick(FAULT_OBJECTS))
    return [Triple(s, p, o) for (s, p), objects in facts.items() for o in objects]


class TestModelCheckReferee:
    @given(faulty_homes())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_per_subject_oracle(self, triples):
        store = TripleStore(triples)
        assert verdict(store) == oracle_verdict(store)

    def test_match_calls_do_not_grow_with_the_home(self, monkeypatch):
        calls = []
        match = TripleStore.match
        monkeypatch.setattr(TripleStore, "match",
                            lambda store, pattern: calls.append(pattern) or match(store, pattern))
        counts = []
        for persons in (10, 100):
            store = TripleStore(rdf.parse_data(home_text(persons, seed=5, present=3)))
            calls.clear()
            ContextEngine(store)
            counts.append(len(calls))
        assert counts[0] == counts[1]
