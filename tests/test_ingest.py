import json
import socket
import struct
import sys
import threading
import time
from datetime import date, timedelta

import pytest

from conftest import GHOST_MODEL, HOME_APPLIANCES, home_text
from homectx import ingest, rdf
from homectx.dedup import DedupConfig
from homectx.ingest import (
    ContextEngine,
    ProtocolError,
    TraceError,
    reason_at,
    replay,
    start_server,
)
from homectx.ontology import ModelError, TimeOfDay
from homectx.rdf import TripleStore, home

FIG_COMMANDS_18H = {
    ("TV", False), ("AirConditioner", True), ("Light", True), ("Projector", True),
}


def reading_msg(time="180000", present=("Son",), stream="s1", temp=21.0,
                hum=32.0, illum=350.0, date="2007-04-11"):
    return {"type": "reading", "stream": stream, "date": date, "time": time,
            "temperature": temp, "humidity": hum, "illumination": illum,
            "present": list(present)}


class TestReasonAt:
    def test_study_time(self, fixture_store):
        commands = reason_at(fixture_store, TimeOfDay(18, 0, 0))
        assert {(c.appliance.local, c.state) for c in commands} == FIG_COMMANDS_18H
        for c in commands:
            assert (c.person.local, c.activity.local, c.priority) == \
                ("Son", "Self-study", 5)

    def test_entertain_time(self, fixture_store):
        commands = reason_at(fixture_store, TimeOfDay(20, 0, 0))
        assert {(c.appliance.local, c.state) for c in commands} == {
            ("TV", True), ("AirConditioner", True), ("Light", True),
            ("Projector", True),
        }
        assert all((c.person.local, c.priority) == ("Father", 8) for c in commands)

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
        commands = {c.appliance.local: c for c in reason_at(store, TimeOfDay(21, 0, 0))}
        assert commands["TV"].state is True
        assert commands["TV"].person == home("Father")
        assert commands["TV"].priority == 8

    def test_model_errors_propagate(self):
        # checked once, where the model enters the engine, not per reasoning
        with pytest.raises(ModelError):
            ContextEngine(TripleStore(rdf.parse_data(GHOST_MODEL)))

    def test_pure_function_of_store_and_time(self, fixture_store):
        a = reason_at(fixture_store, TimeOfDay(18, 0, 0))
        b = reason_at(fixture_store, TimeOfDay(18, 0, 0))
        assert a == b

    def test_match_calls_linear_in_present_persons(self, monkeypatch):
        # a join in written order crosses activities with records first
        persons = 100
        store = TripleStore(rdf.parse_data(home_text(persons, seed=7, present=persons)))
        ContextEngine(store)  # the home model is valid
        calls = []
        match = TripleStore.match

        def counted(self, pattern):
            calls.append(pattern)
            return match(self, pattern)

        monkeypatch.setattr(TripleStore, "match", counted)
        commands = reason_at(store, TimeOfDay(18, 0, 0))
        assert len(commands) == len(HOME_APPLIANCES)
        assert len(calls) <= 10 * persons


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

    def test_every_reading_gets_one_ack(self, fixture_store):
        engine = ContextEngine(fixture_store)
        acks = [engine.handle_reading(reading_msg(temp=21.0 + i))[0]
                for i in range(5)]
        assert len(acks) == 5
        assert all(a["type"] == "ack" for a in acks)


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

    def test_invalid_model_refused_before_first_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ModelError, match=":Ghost"):
            replay(path, store=TripleStore(rdf.parse_data(GHOST_MODEL)))

    def test_each_reading_parsed_once(self, tmp_path, monkeypatch):
        calls = []
        parse = ingest.parse_reading_payload

        def counted(msg):
            calls.append(msg)
            return parse(msg)

        monkeypatch.setattr(ingest, "parse_reading_payload", counted)
        lines = [reading_msg(time=f"1000{i:02d}", temp=21.0 + i) for i in range(7)]
        lines.insert(3, {"type": "tick", "time": "100003"})
        stats = replay(self.write_trace(tmp_path, lines))
        assert stats.input_count == 7
        assert len(calls) == 7

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
