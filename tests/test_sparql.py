import itertools
import random
import re
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    HOME_SLOTS,
    brute_force_rows,
    home_text,
    rand_pattern,
    rand_query,
    rand_store,
)
from homectx.rdf import (
    Literal,
    ParseError,
    Triple,
    TriplePattern,
    TripleStore,
    Variable,
    home,
    parse_data,
    xsd,
)
from homectx.sparql import (
    Query,
    QueryError,
    evaluate,
    format_results,
    parse_query,
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

    @pytest.mark.parametrize("text, message, line, column", [
        ("PREFIX ex: <http://x#> SELECT ?s WHERE { ?s ex:a ?o . }",
         "unsupported feature PREFIX", 1, 1),
        ("# base first\nbase <http://x#> SELECT ?s WHERE { ?s :a ?o . }",
         "unsupported feature BASE", 2, 1),
        ("SELECT ?s WHERE { ?s :a ?o . } PREFIX", "unsupported feature PREFIX", 1, 32),
    ], ids=["prefix", "base", "trailing-prefix"])
    def test_prefix_and_base_rejected(self, text, message, line, column):
        with pytest.raises(ParseError) as exc:
            parse_query(text)
        assert (exc.value.message, exc.value.line, exc.value.column) == (message, line, column)

    def test_projected_but_unbound(self):
        with pytest.raises(QueryError, match=r"\?x projected but never bound"):
            parse_query("SELECT ?x WHERE { ?s :a ?y . }")

    @pytest.mark.parametrize("text, message", [
        ("SELECT ?s WHERE { ?s :a ?y . filter(datatype(?z)=xsd:double) }",
         "?z filtered but never bound"),
        ("SELECT ?s WHERE { ?s :a ?y . } ORDER BY DESC(?z)", "?z ordered but never bound"),
        ("SELECT ?x WHERE { ?s :a ?y . filter(datatype(?z)=xsd:double) } ORDER BY ?w",
         "?x projected but never bound"),
        ("SELECT ?s WHERE { ?s :a ?y . filter(datatype(?z)=xsd:double) } ORDER BY ?w",
         "?z filtered but never bound"),
    ])
    def test_filtered_or_ordered_but_unbound(self, text, message):
        with pytest.raises(QueryError, match=f"^variable {re.escape(message)}$"):
            parse_query(text)

    def test_syntax_error_has_location(self):
        with pytest.raises(ParseError, match="line"):
            parse_query("SELECT ?s WHERE { ?s :a }")
        with pytest.raises(ParseError, match=r"expected '\.' \(line 3, column 31\)"):
            parse_query('SELECT ?s\n# why\nWHERE { ?s :p "1"^^xsd:double :x . }')

    @pytest.mark.parametrize("text, message, line, column", [
        ("FIND ?s WHERE { ?s :a ?o . }", "expected SELECT", 1, 1),
        ("SELECT ?s { ?s :a ?o . }", "expected WHERE", 1, 11),
        ("SELECT ?s WHERE { ?s :a ?o . filter(datatype(o)=xsd:double) }",
         "expected variable", 1, 46),
        ("SELECT ?s WHERE { ?s :a ?o . filter(bound(?o)) }",
         "only datatype(...) filters are supported", 1, 37),
        ("SELECT ?s WHERE { ?s :a ?o . } ORDER ?o", "expected BY after ORDER", 1, 38),
        ("SELECT ?s WHERE { ?s :a ?o . } ORDER BY", "ORDER BY needs at least one key", 1, 40),
        ("SELECT ?s WHERE {\n  ?s :a ?o .\n} ORDER BY ASC(o)", "expected variable", 3, 16),
        ("SELECT ?s WHERE { ?s :a ?o . } }", "unexpected trailing input", 1, 32),
        ('SELECT ?s WHERE { ?s "x"^^xsd:string ?o . }', "literal not allowed here", 1, 22),
    ], ids=["select", "where", "filter-variable", "filter-function", "order-by",
            "order-key", "asc-variable", "trailing", "literal-predicate"])
    def test_error_message_and_position(self, text, message, line, column):
        with pytest.raises(ParseError) as exc:
            parse_query(text)
        assert (exc.value.message, exc.value.line, exc.value.column) == (message, line, column)

    def test_empty_projection(self):
        with pytest.raises(QueryError, match="^projection must not be empty$"):
            parse_query("SELECT WHERE { ?s :a ?o . }")

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
            solutions = evaluate(store, replace(query, distinct=False)).rows
            assert Counter(solutions) == Counter(expected)
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
        ("SELECT ?s WHERE { ?s :p ?o. } ORDER BY ASC(?o)", ["s1", "s2", "s1"]),
        ("SELECT ?s WHERE { ?s :p ?o. } ORDER BY DESC(?o)", ["s1", "s2", "s1"]),
        ("SELECT DISTINCT ?s WHERE { ?s :p ?o. } ORDER BY DESC(?o)", ["s1", "s2"]),
    ], ids=["asc", "asc-keyword", "desc", "distinct-desc"])
    def test_order_by_unprojected_key(self, query, expected):
        store = TripleStore([Triple(home(s), home("p"), Literal(o, xsd("positiveInteger")))
                             for s, o in (("s1", "1"), ("s1", "3"), ("s2", "2"))])
        rows = evaluate(store, parse_query(query)).rows
        assert [s.local for (s,) in rows] == expected

    @pytest.mark.parametrize("order, expected", [
        ("?v", ["e", "b", "a", "c", "d"]), ("DESC(?v)", ["d", "c", "a", "b", "e"]),
    ], ids=["asc", "desc"])
    def test_order_by_compares_integers_exactly(self, order, expected):
        # a and b (2**53 + 1, 2**53) are one float, and so are c and d
        # (2**54, 2**54 + 1); a tie would keep each pair in term order
        store = TripleStore(parse_data(
            ':a :p "9007199254740993"^^xsd:positiveInteger .\n'
            ':b :p "9007199254740992"^^xsd:positiveInteger .\n'
            ':c :p "18014398509481984"^^xsd:positiveInteger .\n'
            ':d :p "18014398509481985"^^xsd:positiveInteger .\n'
            ':e :p "1.5"^^xsd:double .'))
        query = parse_query(f"SELECT ?s WHERE {{ ?s :p ?v . }} ORDER BY {order}")
        rows = evaluate(store, query).rows
        assert [s.local for (s,) in rows] == expected

    def test_evaluation_deterministic(self, fixture_store):
        q = parse_query("SELECT ?s ?p ?o WHERE { ?s ?p ?o. }")
        assert evaluate(fixture_store, q).rows == evaluate(fixture_store, q).rows


def paper_query(slot: str):
    """The paper's verbatim query, ORDER BY included, at ``slot``."""
    return parse_query(APPLIANCE_QUERY.replace("_180000", f"_{slot}"))


class TestPlanner:
    """The join order is planned; results must not depend on it."""

    @pytest.fixture(scope="class")
    def small_home(self):
        return TripleStore(parse_data(home_text(8, seed=5, present=4)))

    @pytest.mark.parametrize("slot", HOME_SLOTS)
    def test_preference_query_matches_brute_force(self, small_home, slot):
        query = paper_query(slot)
        expected = brute_force_rows(list(small_home), query)
        assert expected  # four present persons, all active at the slot
        solutions = evaluate(small_home, replace(query, distinct=False)).rows
        assert Counter(solutions) == Counter(expected)

    def test_preference_rows_independent_of_pattern_order(self, small_home):
        query = paper_query("180000")
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


# Three IRIs that may stand in any position, so that a subject carries
# several predicates, objects repeat and ``?a ?a ?a`` can match; a constant
# may also be a term no triple holds.
_IRIS = [home(f"n{i}") for i in range(3)]
_OBJECTS = _IRIS + [Literal("1", xsd("positiveInteger")), Literal("x", xsd("string"))]
_ABSENT = home("absent")
_STORES = st.lists(st.tuples(*map(st.sampled_from, (_IRIS, _IRIS, _OBJECTS))), max_size=24)
_CONSTANTS = st.tuples(*map(st.sampled_from, (_IRIS + [_ABSENT], _IRIS + [_ABSENT],
                                               _OBJECTS + [_ABSENT])))
_NAMES = st.tuples(*[st.sampled_from("ab")] * 3)  # variables repeat within a pattern
_SHAPES = list(itertools.product((False, True), repeat=3))


def shaped(constants, names, shape) -> TriplePattern:
    """The pattern knowing ``constants[k]`` where ``shape[k]``, else ``?names[k]``."""
    return TriplePattern(*(c if known else Variable(name)
                           for c, name, known in zip(constants, names, shape)))


class TestStoreReferee:
    """Every lookup shape, against the linear scan and the brute-force join."""

    @given(_STORES, _CONSTANTS, _NAMES, _CONSTANTS, _NAMES, st.sampled_from(_SHAPES))
    @settings(max_examples=300, deadline=None)
    def test_every_shape_matches_brute_force(self, rows, constants, names,
                                             other_constants, other_names, other_shape):
        triples = {Triple(*row) for row in rows}
        store = TripleStore(triples)
        other = shaped(other_constants, other_names, other_shape)
        for shape in _SHAPES:
            pattern = shaped(constants, names, shape)
            # match reads every variable as a wildcard, repeated or not
            scan = sorted((t for t in triples
                           if all(not known or term == c for term, c, known
                                  in zip((t.subject, t.predicate, t.object), constants, shape))),
                          key=Triple.sort_key)
            assert store.match(pattern) == scan
            assert store.candidate_count(pattern) >= len(scan)
            # the join binds each variable once; with ``other`` it probes
            # by ids that earlier patterns bound
            for patterns in ([pattern], [pattern, other]):
                bound = sorted({v.name for p in patterns for v in p.variables()})
                if bound:
                    query = Query(False, [Variable(name) for name in bound], patterns)
                    assert (Counter(evaluate(store, query).rows)
                            == Counter(brute_force_rows(list(triples), query)))


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
