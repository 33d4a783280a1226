import random
from collections import Counter
from dataclasses import replace

import pytest

from conftest import (
    HOME_SLOTS,
    brute_force_rows,
    home_text,
    rand_pattern,
    rand_query,
    rand_store,
)
from homectx.ingest import preference_query
from homectx.ontology import TimeOfDay
from homectx.rdf import (
    Literal,
    ParseError,
    Triple,
    TripleStore,
    Variable,
    home,
    parse_data,
    xsd,
)
from homectx.sparql import (
    QueryError,
    evaluate,
    format_results,
    parse_query,
    project_solutions,
)

APPLIANCE_QUERY = """
SELECT DISTINCT ?person ?what ?appliance ?status ?priority
WHERE
{
?work :When :_180000.
?environment :hasTime :_180000.
?environment :personIn ?person.
?work :Who ?person.
?work :Do ?what.
?person :hasPriority ?priority.
?what ?appliance ?status.
filter(datatype(?status)=xsd:boolean)
}
ORDER BY DESC(?priority)
"""


class TestParseQuery:
    def test_full_appliance_query(self):
        q = parse_query(APPLIANCE_QUERY)
        assert q.distinct is True
        assert [v.name for v in q.projection] == \
            ["person", "what", "appliance", "status", "priority"]
        assert len(q.patterns) == 7
        assert any(isinstance(p.predicate, Variable) for p in q.patterns)
        assert len(q.filters) == 1
        assert q.filters[0].datatype == xsd("boolean")
        assert [(k.variable.name, k.descending) for k in q.order_keys] == \
            [("priority", True)]

    def test_minimal_query(self):
        q = parse_query("SELECT ?s WHERE { ?s :name ?n. }")
        assert q.distinct is False
        assert len(q.patterns) == 1
        assert not q.filters and not q.order_keys

    def test_unsupported_feature_named(self):
        with pytest.raises(ParseError, match="unsupported feature OPTIONAL"):
            parse_query("SELECT ?s WHERE { OPTIONAL { ?s :x ?y } }")

    def test_union_rejected(self):
        with pytest.raises(ParseError, match="unsupported feature UNION"):
            parse_query("SELECT ?s WHERE { ?s :a ?y . UNION { ?s :b ?y } }")

    def test_limit_rejected(self):
        with pytest.raises(ParseError, match="unsupported feature LIMIT"):
            parse_query("SELECT ?s WHERE { ?s :a ?y . } LIMIT 5")

    def test_projected_but_unbound(self):
        with pytest.raises(QueryError, match=r"\?x projected but never bound"):
            parse_query("SELECT ?x WHERE { ?s :a ?y . }")

    def test_syntax_error_has_location(self):
        with pytest.raises(ParseError, match="line"):
            parse_query("SELECT ?s WHERE { ?s :a }")
        with pytest.raises(ParseError, match=r"expected '\.' \(line 3, column 31\)"):
            parse_query('SELECT ?s\n# why\nWHERE { ?s :p "1"^^xsd:double :x . }')

    def test_pattern_order_preserved(self):
        q = parse_query("SELECT ?a ?b WHERE { ?a :p1 ?b. ?b :p2 ?a. }")
        assert q.patterns[0].predicate == home("p1")
        assert q.patterns[1].predicate == home("p2")


class TestEvaluate:
    def test_appliance_query_over_fixture(self, fixture_store):
        table = evaluate(fixture_store, parse_query(APPLIANCE_QUERY))
        rows = {
            (p.local, w.local, a.local, s.lexical, pr.lexical)
            for p, w, a, s, pr in table.rows
        }
        assert rows == {
            ("Son", "Self-study", "TV", "false", "5"),
            ("Son", "Self-study", "AirConditioner", "true", "5"),
            ("Son", "Self-study", "Light", "true", "5"),
            ("Son", "Self-study", "Projector", "true", "5"),
        }

    def test_empty_store(self):
        table = evaluate(TripleStore(), parse_query(APPLIANCE_QUERY))
        assert table.rows == []

    def test_order_by_desc_priority_non_increasing(self, fixture_store):
        q = parse_query("SELECT ?s ?p WHERE { ?s :hasPriority ?p. } "
                        "ORDER BY DESC(?p)")
        table = evaluate(fixture_store, q)
        priorities = [int(p.lexical) for _, p in table.rows]
        assert priorities == sorted(priorities, reverse=True)

    def test_filter_keeps_only_matching_datatype(self, fixture_store):
        q = parse_query("SELECT ?o WHERE { ?s ?p ?o. "
                        "filter(datatype(?o)=xsd:boolean) }")
        table = evaluate(fixture_store, q)
        assert table.rows
        for (o,) in table.rows:
            assert isinstance(o, Literal) and o.datatype == xsd("boolean")

    def test_distinct_idempotent(self, fixture_store):
        q = parse_query("SELECT DISTINCT ?p WHERE { ?s ?p ?o. }")
        once = evaluate(fixture_store, q)
        again = evaluate(fixture_store, parse_query(
            "SELECT DISTINCT ?p WHERE { ?s ?p ?o. }"))
        assert once.rows == again.rows
        assert len(once.rows) == len(set(once.rows))

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(57)
        for _ in range(300):
            store = rand_store(rng, 50)
            query = rand_query(rng)
            expected = brute_force_rows(list(store), query)
            assert Counter(project_solutions(store, query)) == Counter(expected)
            got = evaluate(store, query)
            if query.distinct:
                assert set(got.rows) == set(expected)
                assert len(got.rows) == len(set(expected))
            else:
                assert Counter(got.rows) == Counter(expected)

    def test_pattern_permutation_invariance(self):
        rng = random.Random(71)
        for _ in range(50):
            store = rand_store(rng, 30)
            query = rand_query(rng)
            reference = set(evaluate(store, query).rows)
            shuffled = list(query.patterns)
            rng.shuffle(shuffled)
            permuted = type(query)(query.distinct, query.projection, shuffled,
                                   query.filters, query.order_keys)
            assert set(evaluate(store, permuted).rows) == reference

    @pytest.mark.parametrize("query, expected", [
        ("SELECT ?s WHERE { ?s :p ?o. } ORDER BY ?o", ["s1", "s2", "s1"]),
        ("SELECT ?s WHERE { ?s :p ?o. } ORDER BY DESC(?o)", ["s1", "s2", "s1"]),
        ("SELECT DISTINCT ?s WHERE { ?s :p ?o. } ORDER BY DESC(?o)", ["s1", "s2"]),
    ], ids=["asc", "desc", "distinct-desc"])
    def test_order_by_unprojected_key(self, query, expected):
        store = TripleStore([Triple(home(s), home("p"), Literal(o, xsd("positiveInteger")))
                             for s, o in (("s1", "1"), ("s1", "3"), ("s2", "2"))])
        rows = evaluate(store, parse_query(query)).rows
        assert [s.local for (s,) in rows] == expected

    def test_evaluation_deterministic(self, fixture_store):
        q = parse_query("SELECT ?s ?p ?o WHERE { ?s ?p ?o. }")
        assert evaluate(fixture_store, q).rows == evaluate(fixture_store, q).rows


class TestPlanner:
    """The join order is planned; results must not depend on it."""

    @pytest.fixture(scope="class")
    def small_home(self):
        return TripleStore(parse_data(home_text(8, seed=5, present=4)))

    @pytest.mark.parametrize("slot", HOME_SLOTS)
    def test_preference_query_matches_brute_force(self, small_home, slot):
        query = preference_query(TimeOfDay.from_label(slot))
        expected = brute_force_rows(list(small_home), query)
        assert expected  # four present persons, all active at the slot
        assert Counter(project_solutions(small_home, query)) == Counter(expected)

    def test_preference_rows_independent_of_pattern_order(self, small_home):
        query = preference_query(TimeOfDay(18, 0, 0))
        reference = evaluate(small_home, query).rows
        assert reference
        rng = random.Random(83)
        for _ in range(50):
            shuffled = list(query.patterns)
            rng.shuffle(shuffled)
            permuted = replace(query, patterns=shuffled)
            assert evaluate(small_home, permuted).rows == reference

    def test_candidate_count_bounds_match(self):
        rng = random.Random(89)
        variables = [Variable(name) for name in "ab"]
        for _ in range(300):
            store = rand_store(rng, 50)
            pattern = rand_pattern(rng, variables)
            assert store.candidate_count(pattern) >= len(store.match(pattern))


class TestFormat:
    def test_empty_table_is_header_only(self):
        table = evaluate(TripleStore(), parse_query("SELECT ?s WHERE { ?s :a ?o. }"))
        tsv = format_results(table, "tsv")
        assert tsv == "?s\n"

    def test_tsv_rows(self, fixture_store):
        table = evaluate(fixture_store, parse_query(APPLIANCE_QUERY))
        lines = format_results(table, "tsv").strip().splitlines()
        assert len(lines) == 5  # header + 4 rows
        assert lines[0] == "?person\t?what\t?appliance\t?status\t?priority"

    def test_single_cell_table(self, fixture_store):
        q = parse_query('SELECT ?s WHERE { ?s :name "John"^^xsd:string. }')
        table = evaluate(fixture_store, q)
        out = format_results(table, "tsv")
        assert out.strip().splitlines() == ["?s", ":Father"]

    def test_pretty_table_has_rule_line(self, fixture_store):
        table = evaluate(fixture_store, parse_query(APPLIANCE_QUERY))
        lines = format_results(table, "table").splitlines()
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 6
