import random
from dataclasses import replace
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_reading
from homectx import rdf
from homectx.ontology import (
    EnvironmentReading,
    ModelError,
    Person,
    TimeOfDay,
    load_home_model,
    reading_to_triples,
    triples_to_reading,
)
from homectx.rdf import Literal, Triple, TripleStore, home, xsd


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


class TestPerson:
    def test_priority_floor(self):
        with pytest.raises(ValueError):
            Person(home("X"), "x", 0)


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
        assert read.id == home("_070411115500")  # now cached on ``read``
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

    def test_humidity_range_enforced(self):
        with pytest.raises(ValueError, match="humidity"):
            EnvironmentReading(humidity=101, temperature=20, illumination=1,
                               date=date(2007, 4, 11), time=TimeOfDay(0, 0, 0))


class TestHomeModel:
    def test_fixture_model(self, fixture_store):
        model = load_home_model(fixture_store)
        assert {p.name: p.priority for p in model.persons.values()} == \
            {"John": 8, "Tom": 5}
        assert set(model.activities) == {home("ofChildren"), home("ofFather")}
        assert set(model.preferences) == {home("Self-study"), home("Entertain")}
        assert model.preferences[home("Self-study")].appliance_states[home("TV")] is False
        assert model.preferences[home("Entertain")].appliance_states[home("TV")] is True

    def test_empty_store(self):
        model = load_home_model(TripleStore())
        assert not model.persons and not model.activities and not model.preferences

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
        store = TripleStore(rdf.parse_data(fixture_text))
        before = load_home_model(store)
        for triple in reading_to_triples(rand_reading(rng)):
            store.insert(triple)
        assert load_home_model(store) == before

    def test_order_independence(self, fixture_store):
        triples = list(fixture_store)
        rng = random.Random(3)
        baseline = load_home_model(fixture_store)
        for _ in range(5):
            rng.shuffle(triples)
            model = load_home_model(TripleStore(triples))
            assert model.persons == baseline.persons
            assert model.activities == baseline.activities
            assert model.preferences == baseline.preferences
