"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""

import json
import random
import socket
import time
from collections import Counter
from datetime import date

import pytest

from conftest import (brute_force_rows, rand_query, rand_reading, rand_store, rebuilt,
                      start_server)
from homectx import cli, rdf
from homectx.cli import TraceParams, gen_trace
from homectx.dedup import DedupConfig, should_store
from homectx.ingest import ContextEngine, replay
from homectx.ontology import (
    EnvironmentReading,
    TimeOfDay,
    reading_to_triples,
    triples_to_reading,
)
from homectx.rdf import TripleStore, home
from homectx.sparql import evaluate

VERBATIM_QUERY = """
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

EXPECTED_ROWS = {
    (":Son", ":Self-study", ":TV", '"false"^^xsd:boolean',
     '"5"^^xsd:positiveInteger'),
    (":Son", ":Self-study", ":AirConditioner", '"true"^^xsd:boolean',
     '"5"^^xsd:positiveInteger'),
    (":Son", ":Self-study", ":Light", '"true"^^xsd:boolean',
     '"5"^^xsd:positiveInteger'),
    (":Son", ":Self-study", ":Projector", '"true"^^xsd:boolean',
     '"5"^^xsd:positiveInteger'),
}


def report(n, label):
    print(f"PASS criterion {n}: {label}")


def base_reading(**overrides):
    fields = dict(humidity=30.0, temperature=20.0, illumination=400.0,
                  date=date(2007, 4, 11), time=TimeOfDay(11, 55, 0),
                  persons_present=frozenset())
    fields.update(overrides)
    return EnvironmentReading(**fields)


def test_criterion_1_query_reproduction(capsys):
    start = time.monotonic()
    exit_code = cli.main(["query", "--data", str(cli.fixture_path()),
                          "--output", "tsv", VERBATIM_QUERY])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert exit_code == 0
    lines = out.strip().splitlines()
    rows = [tuple(line.split("\t")) for line in lines[1:]]
    assert set(rows) == EXPECTED_ROWS
    priorities = [int(r[4].split('"')[1]) for r in rows]
    assert priorities == sorted(priorities, reverse=True)
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, f"4 expected solutions, non-increasing priority, {elapsed:.3f}s")


def test_criterion_2_compression_ratio(tmp_path, capsys):
    start = time.monotonic()
    clean = tmp_path / "clean.jsonl"
    gen_trace(clean, TraceParams(streams=10, duration=3600, rate=1,
                                 events=20, seed=42))
    stats = replay(clean)
    assert stats.input_count == 36000
    assert stats.stored_count == 30
    assert stats.reduction_factor == 36000 / 30 == 1200

    # supra-threshold drift roughly once a minute across the trace (~1/77 lines)
    drifty = tmp_path / "drifty.jsonl"
    drift_events = round(36000 / 77) - 10
    gen_trace(drifty, TraceParams(streams=10, duration=3600, rate=1,
                                  events=drift_events, seed=43))
    drift_stats = replay(drifty)
    assert 50 <= drift_stats.reduction_factor <= 110
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    with capsys.disabled():
        report(2, f"clean factor {stats.reduction_factor:.0f}, drift factor "
                  f"{drift_stats.reduction_factor:.1f}, {elapsed:.2f}s")


def test_criterion_3_presence_distance(capsys):
    cfg = DedupConfig()
    prev = base_reading()
    curr = base_reading(persons_present=frozenset({home("Father")}))
    decision = should_store(prev, curr, cfg)
    assert decision.store is True
    assert decision.distance == pytest.approx(1.0, abs=1e-12)

    same = should_store(prev, base_reading(), cfg)
    assert same.distance == 0.0
    assert same.store is False
    with capsys.disabled():
        report(3, "presence-only change gives distance 1.0 and stores; "
                  "identical pair gives 0 and drops")


def test_criterion_4_threshold_boundaries(capsys):
    cfg = DedupConfig()
    cases = [
        ("temperature", dict(temperature=20.0), 0.099, False),
        ("temperature", dict(temperature=20.0), 0.101, True),
        ("humidity", dict(humidity=40.0), 0.349, False),
        ("humidity", dict(humidity=40.0), 0.351, True),
        ("illumination", dict(illumination=400.0), 0.499, False),
        ("illumination", dict(illumination=400.0), 0.501, True),
    ]
    for factor, fields, rel, expect in cases:
        prev = base_reading(**fields)
        curr = base_reading(**{k: v * (1 + rel) for k, v in fields.items()})
        got = should_store(prev, curr, cfg).store
        assert got is expect, (factor, rel)

    presence = base_reading(persons_present=frozenset({home("Son")}))
    assert should_store(base_reading(), presence, cfg).store is True
    next_day = base_reading(date=date(2007, 4, 12))
    assert should_store(base_reading(), next_day, cfg).store is True
    with capsys.disabled():
        report(4, "per-factor boundaries 0.099/0.101, 0.349/0.351, 0.499/0.501; "
                  "presence and date changes always store")


def test_criterion_5_query_oracle(capsys):
    start = time.monotonic()
    rng = random.Random(2026)
    instances = 1000
    for _ in range(instances):
        store = rand_store(rng, 50)
        query = rand_query(rng, max_patterns=3)
        expected = brute_force_rows(list(store), query)
        # the join's rows before DISTINCT, which ORDER BY only reorders
        solutions = evaluate(store, rebuilt(query, distinct=False)).rows
        assert Counter(solutions) == Counter(expected)
        got = evaluate(store, query).rows
        if query.distinct:
            assert set(got) == set(expected)
            assert len(got) == len(set(expected))
        else:
            assert Counter(got) == Counter(expected)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    with capsys.disabled():
        report(5, f"{instances} randomized instances match the brute-force "
                  f"enumerator, {elapsed:.2f}s")


def test_criterion_6_round_trips(capsys):
    rng = random.Random(99)
    for _ in range(100):
        store = rand_store(rng, 120)
        assert set(rdf.parse_data(rdf.serialize(store))) == set(store)
    for _ in range(100):
        reading = rand_reading(rng)
        store = TripleStore(reading_to_triples(reading))
        assert triples_to_reading(store, reading.id) == reading
    with capsys.disabled():
        report(6, "100 store serialize/parse identities and 100 reading "
                  "round-trips, exact")


def test_criterion_7_wire_end_to_end(tmp_path, capsys):
    start = time.monotonic()
    fixture_text = cli.fixture_path().read_text(encoding="utf-8")
    reading_line = {
        "type": "reading", "stream": "s1", "date": "2007-04-11",
        "time": "180000", "temperature": 21.0, "humidity": 32.0,
        "illumination": 350.0, "present": ["Son"],
    }

    live_store = TripleStore(rdf.parse_data(fixture_text))
    engine = ContextEngine(live_store)
    server = start_server(("127.0.0.1", 0), engine)
    try:
        sock = socket.create_connection(("127.0.0.1", server.server_address[1]),
                                        timeout=5)
        reader = sock.makefile("r", encoding="utf-8")
        sock.sendall((json.dumps(reading_line) + "\n").encode("utf-8"))
        sock.shutdown(socket.SHUT_WR)
        responses = [json.loads(l) for l in reader]
        sock.close()
    finally:
        server.shutdown()
        server.server_close()

    assert responses[0]["type"] == "ack"
    assert responses[0]["stored"] is True
    commands = responses[1:]
    assert {(c["appliance"], c["state"]) for c in commands} == {
        ("TV", False), ("AirConditioner", True), ("Light", True),
        ("Projector", True),
    }

    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps(reading_line) + "\n")
    replay_store = TripleStore(rdf.parse_data(fixture_text))
    stats = replay(trace, store=replay_store)
    assert stats.commands == commands
    assert set(replay_store) == set(live_store)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    with capsys.disabled():
        report(7, f"ack then 4 commands over TCP; serve/replay equivalent, "
                  f"{elapsed:.2f}s")
