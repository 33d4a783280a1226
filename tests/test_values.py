"""Value semantics of the package's plain value classes, and their
constructors' error messages."""

import copy
import math
import pickle
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homectx.dedup import DedupConfig
from homectx.ingest import ReplayStats
from homectx.ontology import EnvironmentReading, TimeOfDay
from homectx.rdf import HOME_NS, XSD_NS, Iri, Literal, Triple, TriplePattern, Variable, home, xsd
from homectx.sparql import FilterExpr, OrderKey, Query, ResultTable
from homectx.tracegen import TraceParams

A, B = home("a"), home("b")
ONE, ONE_INT = Literal("1", xsd("double")), Literal("1", xsd("positiveInteger"))
X, Y = Variable("x"), Variable("y")
SIX_PM = TimeOfDay(18, 0, 0)

# Every value class, with its fields in constructor order and two or three
# valid values for each: pools this small draw equal instances often.
POOLS = {
    Iri: {"namespace": [HOME_NS, XSD_NS], "local": ["a", "b"]},
    Literal: {"lexical": ["1", "2"],
              "datatype": [xsd("double"), xsd("positiveInteger"), xsd("string")]},
    Variable: {"name": ["x", "y"]},
    Triple: {"subject": [A, B], "predicate": [A, B], "object": [A, ONE, ONE_INT]},
    TriplePattern: {"subject": [A, X], "predicate": [B, Y], "object": [ONE, X]},
    FilterExpr: {"variable": [X, Y], "datatype": [xsd("boolean"), xsd("string")]},
    OrderKey: {"variable": [X, Y], "descending": [False, True]},
    Query: {"distinct": [False, True], "projection": [[X], [X, Y]],
            "patterns": [[], [TriplePattern(X, A, Y)]],
            "filters": [[], [FilterExpr(X, xsd("string"))]],
            "order_keys": [[], [OrderKey(X, True)]]},
    ResultTable: {"header": [[X], [Y]], "rows": [[], [(A,)]]},
    TimeOfDay: {"hour": [0, 23], "minute": [0, 59], "second": [0, 1]},
    EnvironmentReading: {"humidity": [0.0, 50.5], "temperature": [-3.5, 21.0],
                         "illumination": [0.0, 300.0],
                         "date": [date(2007, 4, 11), date(2007, 4, 12)],
                         "time": [SIX_PM, TimeOfDay(7, 30, 0)],
                         "persons_present": [frozenset(), frozenset({A})]},
    DedupConfig: {"temperature": [0.1, None], "illumination": [0.5, 0.0],
                  "humidity": [0.35, 2.0]},
    ReplayStats: {"input_count": [0, 5], "stored_count": [0, 3],
                  "commands": [[], [{"type": "command"}]]},
    TraceParams: {"streams": [10, 1], "duration": [3600, 60], "rate": [1, 2],
                  "events": [20, 0], "seed": [42, 7]},
}
# These hold lists, so they have no hash.
UNHASHABLE = {Query, ResultTable, ReplayStats}


def instances(cls):
    return st.builds(cls, **{name: st.sampled_from(values)
                             for name, values in POOLS[cls].items()})


def fields(value) -> tuple:
    return tuple(getattr(value, name) for name in POOLS[type(value)])


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(list(POOLS)).flatmap(lambda cls: st.tuples(instances(cls),
                                                                  instances(cls))))
def test_value_semantics(pair):
    a, b = pair
    assert (a == b) == (fields(a) == fields(b))
    assert (a != b) == (fields(a) != fields(b))
    if type(a) not in UNHASHABLE:
        # unequal instances in these pools hash apart, so a hash that skips
        # a field shows as well as one that reads a field equality skips
        assert (hash(a) == hash(b)) == (a == b)
    assert a != fields(a) and fields(a) != a
    if type(a) is Triple:
        pattern = TriplePattern(*fields(a))
        assert a != pattern and pattern != a
    if type(a) in (Iri, Literal):
        assert repr(a) == a.written
    if type(a) is Variable:
        assert repr(a) == f"?{a.name}"
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    for name in POOLS[type(a)]:
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, b)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is before
    with pytest.raises(AttributeError):
        a.extra = 1


def test_terms_repr_as_written():
    assert [repr(t) for t in (A, xsd("double"), Iri("http://x/", "t"), ONE, X)] == [
        ":a", "xsd:double", "<http://x/t>", '"1"^^xsd:double', "?x"]


D = date(2007, 4, 11)

# Each constructor's ValueError, word for word, with the first failing check
# winning where several fail.
CONSTRUCTOR_ERRORS = [
    (lambda: Iri(HOME_NS, ""), "IRI local name must be non-empty"),
    (lambda: Literal("1", home("T")), "unsupported literal datatype :T"),
    (lambda: Literal("x", Iri("http://x/", "t")), "unsupported literal datatype <http://x/t>"),
    (lambda: Literal("x", xsd("double")), "invalid lexical form 'x' for xsd:double"),
    (lambda: Literal("0", xsd("positiveInteger")),
     "invalid lexical form '0' for xsd:positiveInteger"),
    (lambda: Variable(""), "variable name must be non-empty"),
    (lambda: Triple(X, X, X), "triple subject must be an IRI"),
    (lambda: Triple(A, ONE, X), "triple predicate must be an IRI"),
    (lambda: Triple(A, A, X), "triple object must be an IRI or literal"),
    (lambda: TriplePattern(ONE, ONE, None), "pattern subject must be an IRI or variable"),
    (lambda: TriplePattern(X, ONE, None), "pattern predicate must be an IRI or variable"),
    (lambda: TriplePattern(X, X, None), "pattern object must be a term or variable"),
    (lambda: TimeOfDay(24, 60, 0), "invalid time of day 24:60:0"),
    (lambda: TimeOfDay(0, 0, -1), "invalid time of day 0:0:-1"),
    (lambda: EnvironmentReading(101, math.nan, -1, D, SIX_PM), "humidity out of range: 101"),
    (lambda: EnvironmentReading(math.nan, 20, 0, D, SIX_PM), "humidity out of range: nan"),
    (lambda: EnvironmentReading(50, math.nan, -1, D, SIX_PM), "illumination must be >= 0: -1"),
    (lambda: EnvironmentReading(50, math.nan, 0, D, SIX_PM),
     "sensor values must be finite numbers"),
    (lambda: EnvironmentReading(50, 20, math.inf, D, SIX_PM),
     "sensor values must be finite numbers"),
    (lambda: DedupConfig(temperature=-1, humidity=math.nan),
     "threshold for temperature must be finite and >= 0"),
    (lambda: DedupConfig(0.1, math.inf), "threshold for illumination must be finite and >= 0"),
    (lambda: DedupConfig(humidity=math.nan), "threshold for humidity must be finite and >= 0"),
]


@pytest.mark.parametrize("build, message", CONSTRUCTOR_ERRORS,
                         ids=[m for _, m in CONSTRUCTOR_ERRORS])
def test_constructor_error_message(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
