import inspect
import math
import random
import threading
from datetime import date

import pytest

from homectx import cli, rdf
from homectx.ingest import ContextEngine, ContextServer
from homectx.ontology import EnvironmentReading, TimeOfDay
from homectx.rdf import Iri, Literal, Triple, TriplePattern, TripleStore, Variable, home, xsd
from homectx.sparql import FilterExpr, OrderKey, Query


def start_server(address, engine: ContextEngine) -> ContextServer:
    """Bind and start serving on a background thread; the caller shuts it down."""
    server = ContextServer(address, engine)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def rebuilt(value, **changes):
    """``value``'s class built anew through its constructor, from the fields
    its parameters name, with ``changes`` applied: every value check runs
    again, as it did under ``dataclasses.replace``."""
    fields = {name: getattr(value, name) for name in inspect.signature(type(value)).parameters}
    return type(value)(**{**fields, **changes})


@pytest.fixture(scope="session")
def fixture_text():
    return cli.fixture_path().read_text(encoding="utf-8")


@pytest.fixture()
def fixture_store(fixture_text):
    return TripleStore(rdf.parse_data(fixture_text))


# A home model whose only activity names a person that does not exist.
GHOST_MODEL = """
    :a :When :_180000 .
    :a :Who :Ghost .
    :a :Do :Nap .
    :Nap :Light "true"^^xsd:boolean .
"""


# --- random instance generators (seeded, shared by property and acceptance tests)

SUBJECT_POOL = [home(f"s{i}") for i in range(6)]
PREDICATE_POOL = [home(f"p{i}") for i in range(4)]
OBJECT_POOL = (
    SUBJECT_POOL[:3]
    + [Literal(str(i), xsd("positiveInteger")) for i in (1, 2, 7)]
    + [Literal("true", xsd("boolean")), Literal("false", xsd("boolean")),
       Literal("x", xsd("string")), Literal("2.5", xsd("double"))]
)


def rand_store(rng: random.Random, max_triples: int = 50) -> TripleStore:
    n = rng.randint(0, max_triples)
    store = TripleStore()
    for _ in range(n):
        store.insert(Triple(rng.choice(SUBJECT_POOL), rng.choice(PREDICATE_POOL),
                            rng.choice(OBJECT_POOL)))
    return store


def rand_pattern(rng: random.Random, variables: list) -> TriplePattern:
    def pick(pool, allow_literal):
        if rng.random() < 0.5:
            return rng.choice(variables)
        choice = rng.choice(pool)
        if not allow_literal and isinstance(choice, Literal):
            return rng.choice(SUBJECT_POOL)
        return choice
    return TriplePattern(pick(SUBJECT_POOL, False), pick(PREDICATE_POOL, False),
                         pick(OBJECT_POOL, True))


def rand_query(rng: random.Random, max_patterns: int = 3) -> Query:
    variables = [Variable(name) for name in "abcd"]
    while True:
        patterns = [rand_pattern(rng, variables)
                    for _ in range(rng.randint(1, max_patterns))]
        bound = sorted({v.name for p in patterns for v in p.variables()})
        if bound:
            break
    projection = [Variable(n) for n in
                  rng.sample(bound, rng.randint(1, len(bound)))]
    filters = []
    if rng.random() < 0.3:
        filters.append(FilterExpr(Variable(rng.choice(bound)),
                                  rng.choice([xsd("boolean"), xsd("positiveInteger"),
                                              xsd("string")])))
    order_keys = []
    if rng.random() < 0.3:
        order_keys.append(OrderKey(Variable(rng.choice([v.name for v in projection])),
                                   rng.random() < 0.5))
    q = Query(distinct=rng.random() < 0.5, projection=projection,
              patterns=patterns, filters=filters, order_keys=order_keys)
    q.validate()
    return q


def brute_force_rows(triples: list, query: Query) -> list:
    """Reference evaluator: plain recursion over the raw triple list, no
    indexes, no use of the store at all.  Returns projected rows pre-DISTINCT."""
    def unify(pattern, triple, binding):
        out = dict(binding)
        for pos, val in ((pattern.subject, triple.subject),
                         (pattern.predicate, triple.predicate),
                         (pattern.object, triple.object)):
            if isinstance(pos, Variable):
                if pos.name in out:
                    if out[pos.name] != val:
                        return None
                else:
                    out[pos.name] = val
            elif pos != val:
                return None
        return out

    solutions = []

    def recurse(i, binding):
        if i == len(query.patterns):
            solutions.append(binding)
            return
        for t in triples:
            extended = unify(query.patterns[i], t, binding)
            if extended is not None:
                recurse(i + 1, extended)

    recurse(0, {})
    rows = []
    for binding in solutions:
        ok = all(
            isinstance(binding.get(f.variable.name), Literal)
            and binding[f.variable.name].datatype == f.datatype
            for f in query.filters
        )
        if ok:
            rows.append(tuple(binding[v.name] for v in query.projection))
    return rows


def reference_decision(prev, curr, cfg):
    """The straightforward dedup loop, kept as the referee for should_store:
    the delta formula per factor, the categorical-or-threshold rule, then the
    root of the squares summed in factor order.  Returns (store, distance,
    deltas as (name, d, exceeded))."""
    values = {"temperature": lambda r: r.temperature,
              "illumination": lambda r: r.illumination,
              "humidity": lambda r: r.humidity,
              "presence": lambda r: r.persons_present,
              "date": lambda r: r.date}
    thresholds = {"temperature": cfg.temperature, "illumination": cfg.illumination,
                  "humidity": cfg.humidity, "presence": None, "date": None}
    deltas = []
    for name in values:  # the factor order
        get, threshold = values[name], thresholds[name]
        if threshold is None:
            d = 0.0 if get(prev) == get(curr) else 1.0
        else:
            d = abs(get(curr) - get(prev)) / max(abs(get(prev)), 1e-9)
        exceeded = d == 1.0 if threshold is None else d > threshold
        deltas.append((name, d, exceeded))
    total = 0.0
    for _, d, _ in deltas:
        total += d ** 2
    return any(e for _, _, e in deltas), math.sqrt(total), deltas


def rand_reading(rng: random.Random) -> EnvironmentReading:
    persons = frozenset(rng.sample([home("Father"), home("Son"), home("Guest")],
                                   rng.randint(0, 3)))
    return EnvironmentReading(
        humidity=round(rng.uniform(0, 100), 3),
        temperature=round(rng.uniform(-10, 40), 3),
        illumination=round(rng.uniform(0, 2000), 3),
        date=date(2007, rng.randint(1, 12), rng.randint(1, 28)),
        time=TimeOfDay(rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59)),
        persons_present=persons,
    )


# Six-character time labels whose digits are not ASCII: fullwidth and
# Arabic-Indic digits, which int() reads, and a superscript, which it refuses.
NON_ASCII_TIMES = pytest.mark.parametrize("label", [
    "\uff11\uff18\uff10\uff10\uff10\uff10",
    "\u0661\u0668\u0660\u0660\u0660\u0660",
    "18000\u00b2",
], ids=["fullwidth", "arabic-indic", "superscript"])


# --- synthetic homes (seeded) for the planner and reasoning-cost tests

HOME_SLOTS = ("070000", "120000", "180000", "210000")
HOME_PROFILES = ("Cooking", "Reading", "Relax", "Sleep")
HOME_APPLIANCES = ("AirConditioner", "Heater", "Light", "TV")


def home_text(persons: int, seed: int, present: int) -> str:
    """A home model in which every person has one activity at each slot of
    HOME_SLOTS, and each slot has one environment record with ``present``
    of the persons in it."""
    rng = random.Random(seed)
    lines = [f':{profile} :{appliance} "{rng.choice(["true", "false"])}"^^xsd:boolean .'
             for profile in HOME_PROFILES for appliance in HOME_APPLIANCES]
    ids = [f"P{i}" for i in range(persons)]
    for pid in ids:
        lines.append(f':{pid} :name "{pid}"^^xsd:string .')
        lines.append(f':{pid} :hasPriority "{rng.randint(1, 10)}"^^xsd:positiveInteger .')
        for slot in HOME_SLOTS:
            act = f":act_{pid}_{slot}"
            lines += [f"{act} :When :_{slot} .", f"{act} :Who :{pid} .",
                      f"{act} :Do :{rng.choice(HOME_PROFILES)} ."]
    for slot in HOME_SLOTS:
        record = f":_070410{slot}"
        lines += [f'{record} :Temperature "{rng.randint(18, 26)}"^^xsd:double .',
                  f'{record} :Date "2007-04-10"^^xsd:date .',
                  f"{record} :hasTime :_{slot} ."]
        lines += [f"{record} :personIn :{pid} ." for pid in rng.sample(ids, present)]
    return "\n".join(lines) + "\n"
