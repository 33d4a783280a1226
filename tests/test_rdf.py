import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OBJECT_POOL, PREDICATE_POOL, SUBJECT_POOL, home_text, rand_store
from homectx import rdf
from homectx.ontology import format_double
from homectx.rdf import (
    Iri,
    Literal,
    ParseError,
    Triple,
    TriplePattern,
    TripleStore,
    Variable,
    home,
    xsd,
)


def priority_triple(who="Father", value="8"):
    return Triple(home(who), home("hasPriority"),
                  Literal(value, xsd("positiveInteger")))


class TestTerms:
    def test_structural_equality(self):
        assert home("Father") == home("Father")
        assert home("Father") != home("Son")
        assert Literal("8", xsd("positiveInteger")) == Literal("8", xsd("positiveInteger"))
        assert Literal("8", xsd("positiveInteger")) != Literal("8", xsd("double"))

    def test_unsupported_datatype_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            Literal("8", xsd("integer"))

    @pytest.mark.parametrize("lex,dt", [
        ("maybe", "boolean"),
        ("2007-13-01", "date"),
        ("25:00:00", "time"),
        ("0", "positiveInteger"),
        ("abc", "double"),
        ("12:00:00\n", "time"),
        ("\uff11\uff12:00:00", "time"),
        ("\u0661", "positiveInteger"),
        ("\u00b2", "positiveInteger"),
        ("\u0661", "double"),
        (" 1", "double"),
        ("1_0", "double"),
    ])
    def test_invalid_lexical_forms(self, lex, dt):
        with pytest.raises(ValueError, match="invalid lexical"):
            Literal(lex, xsd(dt))

    @pytest.mark.parametrize("value", [0.0, -0.0, 7.0, -3.0, 0.1, -2.5, 1e15, 1e16,
                                       1.5e-07, -2.5e300, 5e-324, 123456789012345.6])
    def test_every_double_format_double_writes_is_valid(self, value):
        lex = format_double(value)
        assert float(Literal(lex, xsd("double")).lexical) == value

    def test_literal_subject_rejected(self):
        lit = Literal("x", xsd("string"))
        with pytest.raises(ValueError):
            Triple(lit, home("p"), home("o"))


class TestStore:
    def test_insert_returns_true_then_false(self):
        store = TripleStore()
        assert store.insert(priority_triple()) is True
        assert store.insert(priority_triple()) is False
        assert len(store) == 1

    def test_match_after_insert(self):
        store = TripleStore()
        store.insert(priority_triple())
        hits = store.match(TriplePattern(home("Father"), home("hasPriority"),
                                         Variable("x")))
        assert hits == [priority_triple()]

    def test_match_priority_pattern_over_persons(self, fixture_store):
        hits = fixture_store.match(
            TriplePattern(Variable("s"), home("hasPriority"), Variable("o")))
        got = {(t.subject, t.object.lexical) for t in hits}
        assert got == {(home("Father"), "8"), (home("Son"), "5")}

    def test_absent_constant_pattern(self):
        store = TripleStore([priority_triple()])
        assert store.match(TriplePattern(home("Nobody"), home("hasPriority"),
                                         Literal("1", xsd("positiveInteger")))) == []

    def test_full_wildcard_is_whole_store_in_canonical_order(self, fixture_store):
        everything = fixture_store.match(
            TriplePattern(Variable("s"), Variable("p"), Variable("o")))
        assert everything == sorted(fixture_store, key=Triple.sort_key)
        assert len(everything) == len(fixture_store)

    def test_insert_idempotence_counts_distinct(self):
        rng = random.Random(7)
        triples = [Triple(rng.choice(SUBJECT_POOL), rng.choice(PREDICATE_POOL),
                          rng.choice(OBJECT_POOL)) for _ in range(120)]
        store = TripleStore()
        for t in triples:
            store.insert(t)
        assert len(store) == len(set(triples))

    def test_match_equals_linear_scan_on_random_stores(self):
        rng = random.Random(13)
        for _ in range(200):
            store = rand_store(rng, 200)
            triples = list(store)
            pattern = TriplePattern(
                rng.choice([Variable("s"), rng.choice(SUBJECT_POOL)]),
                rng.choice([Variable("p"), rng.choice(PREDICATE_POOL)]),
                rng.choice([Variable("o"), rng.choice(OBJECT_POOL)]),
            )
            scan = [t for t in triples
                    if (isinstance(pattern.subject, Variable) or t.subject == pattern.subject)
                    and (isinstance(pattern.predicate, Variable) or t.predicate == pattern.predicate)
                    and (isinstance(pattern.object, Variable) or t.object == pattern.object)]
            assert store.match(pattern) == sorted(scan, key=Triple.sort_key)


def fresh(term):
    """An equal term built anew, so that the store must intern by equality."""
    if isinstance(term, Iri):
        return Iri(term.namespace, term.local)
    return Literal(term.lexical, fresh(term.datatype))


def fresh_triple(t: Triple) -> Triple:
    return Triple(fresh(t.subject), fresh(t.predicate), fresh(t.object))


class TestEncodedStore:
    # Referee for the dictionary encoding: the plain set of Triples.
    ABSENT_SUBJECT = home("absent")
    ABSENT_OBJECT = Literal("absent", xsd("string"))

    def test_agrees_with_triple_set_on_random_stores(self):
        rng = random.Random(29)
        every = [Triple(s, p, o) for s in SUBJECT_POOL + [self.ABSENT_SUBJECT]
                 for p in PREDICATE_POOL for o in OBJECT_POOL + [self.ABSENT_OBJECT]]
        for _ in range(100):
            triples = {Triple(rng.choice(SUBJECT_POOL), rng.choice(PREDICATE_POOL),
                              rng.choice(OBJECT_POOL)) for _ in range(rng.randint(0, 80))}
            store = TripleStore()
            for t in rng.sample(sorted(triples, key=Triple.sort_key), len(triples)):
                assert store.insert(fresh_triple(t))
            assert len(store) == len(triples)
            assert list(store) == sorted(triples, key=Triple.sort_key)
            assert all((fresh_triple(t) in store) == (t in triples) for t in every)
            for shape in itertools.product((False, True), repeat=3):
                for _ in range(4):
                    constants = [
                        fresh(rng.choice(SUBJECT_POOL + [self.ABSENT_SUBJECT])),
                        fresh(rng.choice(PREDICATE_POOL)),
                        fresh(rng.choice(OBJECT_POOL + [self.ABSENT_OBJECT]))]
                    pattern = TriplePattern(*(
                        c if is_constant else Variable(name)
                        for c, is_constant, name in zip(constants, shape, "spo")))
                    scan = sorted(
                        (t for t in triples
                         if all(not is_constant or term == c for term, c, is_constant
                                in zip((t.subject, t.predicate, t.object), constants, shape))),
                        key=Triple.sort_key)
                    assert store.match(pattern) == scan
                    assert store.candidate_count(pattern) >= len(scan)


class TestParser:
    def test_single_string_triple(self):
        got = rdf.parse_data(':Father :name "John"^^xsd:string .')
        assert got == [Triple(home("Father"), home("name"),
                              Literal("John", xsd("string")))]

    def test_empty_document(self):
        assert rdf.parse_data("") == []
        assert rdf.parse_data("# only a comment\n") == []

    def test_double_literal(self):
        got = rdf.parse_data(':_070411115500 :Humidity "30"^^xsd:double .')
        assert got == [Triple(home("_070411115500"), home("Humidity"),
                              Literal("30", xsd("double")))]

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            rdf.parse_data(":a :b :c .\n:a :b .")
        assert exc.value.line == 2

    @pytest.mark.parametrize("text, message, line, column", [
        (":a :b :c . # trailing\n# a comment line\n  :d :e .\n",
         "expected prefixed name", 3, 9),
        (':a :b :c .\n#c\n:d :e "x"^^xsd:nope .', "unsupported literal datatype", 3, 7),
    ], ids=["after-comments", "literal-start"])
    def test_error_position_after_comment(self, text, message, line, column):
        with pytest.raises(ParseError, match=message) as exc:
            rdf.parse_data(text)
        assert (exc.value.line, exc.value.column) == (line, column)

    @pytest.mark.parametrize("text, message, line, column", [
        (':a :b "abc .', "unterminated string literal", 1, 13),
        (':a :b "a\\qb"^^xsd:string .', "unknown escape \\q", 1, 10),
        ("@prefix ex: <http://x# .", "unterminated IRI reference", 1, 14),
        (":a : :c .", "prefixed name is missing its local part", 1, 5),
        ('"x"^^xsd:string :b :c .', "literal not allowed here", 1, 1),
        (':a :b :c .\n:a "x"^^xsd:string :c .', "literal not allowed here", 2, 4),
        ("@prefix ex:a <http://x#> .", "prefix declaration must end with ':'", 1, 13),
    ], ids=["unterminated-string", "unknown-escape", "unterminated-iri",
            "missing-local", "literal-subject", "literal-predicate", "prefix-with-local"])
    def test_error_message_and_position(self, text, message, line, column):
        with pytest.raises(ParseError) as exc:
            rdf.parse_data(text)
        assert (exc.value.message, exc.value.line, exc.value.column) == (message, line, column)

    def test_unsupported_datatype_is_parse_error(self):
        with pytest.raises(ParseError, match="unsupported"):
            rdf.parse_data(':a :b "1"^^xsd:integer .')

    def test_bad_lexical_is_parse_error(self):
        with pytest.raises(ParseError, match="invalid lexical"):
            rdf.parse_data(':a :b "maybe"^^xsd:boolean .')

    def test_user_prefix_resolving_to_home_namespace(self):
        text = f'@prefix h: <{rdf.HOME_NS}> .\nh:Father :name "John"^^xsd:string .'
        got = rdf.parse_data(text)
        assert got[0].subject == home("Father")

    def test_undeclared_prefix(self):
        with pytest.raises(ParseError, match="undeclared prefix"):
            rdf.parse_data(":a foo:b :c .")

    def test_foreign_namespace_round_trips(self):
        text = ('@prefix ex: <http://example.org/x#> .\n'
                'ex:a ex:b "1"^^xsd:positiveInteger .')
        triples = rdf.parse_data(text)
        again = rdf.parse_data(rdf.serialize(TripleStore(triples)))
        assert set(again) == set(triples)

    def test_each_distinct_term_is_built_once(self):
        triples = rdf.parse_data(home_text(100, seed=5, present=30))
        built = {id(term) for t in triples for term in (t.subject, t.predicate, t.object)}
        assert len(built) == len(TripleStore(triples).terms)


class TestSerializer:
    def test_empty_store_is_header_only(self):
        text = rdf.serialize(TripleStore())
        lines = text.strip().splitlines()
        assert all(line.startswith("@prefix") for line in lines)
        assert len(lines) == 2

    def test_single_triple(self):
        text = rdf.serialize(TripleStore([priority_triple()]))
        statements = [l for l in text.splitlines() if not l.startswith("@prefix")]
        assert statements == [':Father :hasPriority "8"^^xsd:positiveInteger .']

    def test_fixture_round_trip(self, fixture_store):
        again = rdf.parse_data(rdf.serialize(fixture_store))
        assert set(again) == set(fixture_store)

    def test_serialize_deterministic(self, fixture_store):
        assert rdf.serialize(fixture_store) == rdf.serialize(fixture_store)

    def test_random_store_round_trips(self):
        rng = random.Random(29)
        for _ in range(50):
            store = rand_store(rng, 100)
            assert set(rdf.parse_data(rdf.serialize(store))) == set(store)

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_string_literal_round_trip(self, s):
        store = TripleStore([Triple(home("a"), home("b"), Literal(s, xsd("string")))])
        assert set(rdf.parse_data(rdf.serialize(store))) == set(store)
