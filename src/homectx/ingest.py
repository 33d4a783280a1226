"""Sensor ingestion and appliance reasoning.

The transport is newline-delimited JSON over TCP: one object per line,
UTF-8.  Clients send ``hello``, ``reading`` and ``tick`` messages; the
server answers every reading with an ``ack`` and pushes ``command`` lines
whenever reasoning fires (on a tick, or on a stored reading whose presence
set changed).  ``replay`` is the offline equivalent over a trace file.
Both feed their lines to one ``Session``, which does no I/O: the server
writes the replies back, and replay keeps the commands.
"""

from __future__ import annotations

import json
import socketserver
import sys
import threading
from dataclasses import dataclass, field, replace
from functools import lru_cache

from .dedup import DedupConfig, should_store
from .ontology import (
    MEMO_SIZE,
    EnvironmentReading,
    TimeOfDay,
    load_home_model,
    reading_to_triples,
)
from .rdf import PN_LOCAL_RE, Iri, TripleStore, home, parse_date, term_key
from .sparql import Query, evaluate, parse_query, substitute


# Longest accepted wire or trace line, in bytes, its newline included.  The
# server and replay read at most one byte more, so neither a client nor a
# trace can make them buffer an endless line.
MAX_LINE_BYTES = 64 * 1024


class ProtocolError(ValueError):
    """Violation of the wire or trace-line contract."""


class TraceError(ValueError):
    """Malformed or out-of-order trace file."""


_PREFERENCE_QUERY = parse_query("""
SELECT DISTINCT ?person ?what ?appliance ?status ?priority
WHERE {
  ?work :When ?time.
  ?environment :hasTime ?time.
  ?environment :personIn ?person.
  ?work :Who ?person.
  ?work :Do ?what.
  ?person :hasPriority ?priority.
  ?what ?appliance ?status.
  filter(datatype(?status)=xsd:boolean)
}
""")


def preference_query(t: TimeOfDay) -> Query:
    """The query parsed once above, with ``t``'s IRI for ``?time``: a
    constant the join planner can see."""
    patterns = [substitute(p, {"time": t.iri}) for p in _PREFERENCE_QUERY.patterns]
    return replace(_PREFERENCE_QUERY, patterns=patterns)


def reason_at(store: TripleStore, t: TimeOfDay) -> list[dict]:
    """Wire commands for time ``t``: one per appliance, highest priority wins.

    Ties resolve to state True (serve at least one occupant), then to person
    name order, then to activity term order: the row key is a total order,
    so the result does not depend on the order of the query's rows.  The
    commands come in appliance name order.  The store's home model must have
    passed ``load_home_model``; ContextEngine checks it once, when it is built.
    """
    best: dict[Iri, tuple] = {}
    for person, what, appliance, status, priority in evaluate(
            store, preference_query(t)).rows:
        state = status.lexical == "true"
        key = (-int(priority.lexical), not state, person.written, term_key(what))
        if appliance not in best or key < best[appliance][0]:
            best[appliance] = (key, state, person, what)
    return [{"type": "command", "appliance": appliance.local, "state": state,
             "person": person.local, "activity": what.local, "priority": -key[0]}
            for appliance, (key, state, person, what)
            in sorted(best.items(), key=lambda item: item[0].written)]


def parse_reading_payload(msg: dict) -> tuple[str, EnvironmentReading]:
    """Decode one wire/trace reading object; raises ProtocolError on bad fields."""
    try:
        stream = msg["stream"]
        if not isinstance(stream, str):
            raise ValueError("stream must be a string")
        time = _time(msg["time"])
        humidity = _number(msg, "humidity")
        temperature = _number(msg, "temperature")
        illumination = _number(msg, "illumination")
        date = _date(str(msg["date"]))
        present = msg.get("present", [])
        persons = _persons(present) if present != [] else frozenset()
        reading = EnvironmentReading(humidity, temperature, illumination, date, time, persons)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"bad reading payload: {exc}") from None
    return stream, reading


def _time(label) -> TimeOfDay:
    """A wire time, which must be a JSON string: checked before the memo hashes it."""
    if not isinstance(label, str):
        raise ValueError(f"time label must be 6 digits, got {label!r}")
    return TimeOfDay.from_label(label)


def _number(msg: dict, field: str) -> float:
    """A wire sensor value, which must be a JSON number: not a bool, a string or null."""
    value = msg[field]
    if type(value) is float:
        return value
    if type(value) is not int:  # a bool too: its type is a subclass of int
        raise ValueError(f"{field} must be a number")
    return float(value)


# A wire date, memoised; a non-string's str() never reads YYYY-MM-DD, so it fails.
_date = lru_cache(maxsize=MEMO_SIZE)(parse_date)


def _persons(present) -> frozenset:
    """The ``present`` field, which must be a JSON array of local names."""
    try:
        if isinstance(present, list):
            "".join(present)  # TypeError unless every item is a string
            return frozenset(map(_person, present))
    except TypeError:
        pass
    raise ValueError("present must be an array of strings")


@lru_cache(maxsize=MEMO_SIZE)
def _person(name: str) -> Iri:
    """A present person's IRI.  The name must be a whole local name, so the
    stored triple serializes to text that parses back; memoised, since a
    stream repeats its present set reading after reading."""
    if not PN_LOCAL_RE.fullmatch(name):
        raise ValueError(f"present names must match {PN_LOCAL_RE.pattern}")
    return home(name)


def _rejected(error: str) -> dict:
    return {"type": "ack", "accepted": False, "stored": False,
            "distance": 0.0, "error": error}


class ContextEngine:
    """Shared state behind both the TCP server and offline replay, and the one
    admission path for readings: per-stream order check, dedup baseline and
    input/stored counts.

    The home model is checked once, here, and ModelError comes from the
    constructor: readings never change it.  Every store read and write, and
    so all reasoning, holds the engine's one lock.
    """

    def __init__(self, store: TripleStore | None = None,
                 cfg: DedupConfig | None = None):
        self.store = store if store is not None else TripleStore()
        self.cfg = cfg if cfg is not None else DedupConfig()
        load_home_model(self.store)
        self.input_count = 0
        self.stored_count = 0
        self._baselines: dict[str, EnvironmentReading] = {}
        self._last_stamp: dict[str, tuple] = {}
        self._lock = threading.Lock()

    def handle_reading(self, msg: dict) -> tuple[dict, list[dict]]:
        """Returns (ack, commands); commands follow the ack on the wire.

        A malformed reading, or one older than the last reading seen on its
        stream, gets ``accepted: false`` and changes no state.
        """
        try:
            stream, reading = parse_reading_payload(msg)
        except ProtocolError as exc:
            return _rejected(str(exc)), []
        stamp = (reading.date, reading.time.hour, reading.time.minute,
                 reading.time.second)
        with self._lock:
            last = self._last_stamp.get(stream)
            if last is not None and stamp < last:
                return _rejected(f"timestamp order violation on stream {stream!r}"), []
            self._last_stamp[stream] = stamp
            self.input_count += 1
            baseline = self._baselines.get(stream)
            decision = should_store(baseline, reading, self.cfg)
            commands: list[dict] = []
            if decision.store:
                self.stored_count += 1
                for triple in reading_to_triples(reading):
                    self.store.insert(triple)
                self._baselines[stream] = reading
                if baseline is None or baseline.persons_present != reading.persons_present:
                    commands = reason_at(self.store, reading.time)
        ack = {"type": "ack", "accepted": True, "stored": decision.store,
               "distance": decision.distance}
        return ack, commands

    def handle_tick(self, msg: dict) -> list[dict]:
        try:
            time = _time(msg["time"])
        except (KeyError, ValueError) as exc:
            raise ProtocolError(f"bad tick: {exc}") from None
        with self._lock:
            return reason_at(self.store, time)


class Session:
    """The line protocol of one connection or one trace, with no I/O.

    ``feed`` takes one line of bytes and returns the replies to it, in wire
    order; a blank line has none.  A protocol violation raises ProtocolError,
    and the caller decides what that ends: a line over MAX_LINE_BYTES, one
    that is not UTF-8 JSON holding an object with a ``type``, a duplicate
    hello or an unknown type.  A trace may not say hello, so replay builds
    its session with ``hello=False``.
    """

    def __init__(self, engine: ContextEngine, hello: bool = True):
        self.engine = engine
        self._hello = hello
        self._said_hello = False

    def feed(self, raw: bytes) -> list[dict]:
        if len(raw) > MAX_LINE_BYTES:
            raise ProtocolError("line too long")
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                return []
            msg = json.loads(line)
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, deep nesting
            raise ProtocolError(f"bad line: {exc}") from None
        if not isinstance(msg, dict) or "type" not in msg:
            raise ProtocolError("message must be an object with a type")
        kind = msg["type"]
        if kind == "reading":
            ack, commands = self.engine.handle_reading(msg)
            return [ack, *commands]
        if kind == "tick":
            return self.engine.handle_tick(msg)
        if kind == "hello" and self._hello:
            if self._said_hello:
                raise ProtocolError("duplicate hello")
            self._said_hello = True
            return [{"type": "hello", "ok": True}]
        raise ProtocolError(f"unknown message type {kind!r}")


class _Handler(socketserver.StreamRequestHandler):
    # Every reply goes out at once: with Nagle's algorithm on, a reply waits
    # in the kernel until the client acknowledges the last one, and a client
    # delays that acknowledgement until it next sends.
    disable_nagle_algorithm = True

    def handle(self):
        session = Session(self.server.engine)
        try:
            while raw := self.rfile.readline(MAX_LINE_BYTES + 1):
                try:
                    replies = session.feed(raw)
                except ProtocolError as exc:
                    self._send([{"type": "error", "message": str(exc)}])
                    return  # terminate only this connection
                if replies:
                    self._send(replies)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client hung up before reading every reply

    def _send(self, replies: list[dict]):
        """All the lines answering one message, in one write (one sendall)."""
        self.wfile.write("".join([json.dumps(r) + "\n" for r in replies]).encode("utf-8"))


class ContextServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, engine: ContextEngine):
        super().__init__(address, _Handler)
        self.engine = engine


def serve(address, store: TripleStore, cfg: DedupConfig | None = None):
    """Blocking server loop; returns on KeyboardInterrupt.

    Raises ModelError, before binding, when the store's home model is invalid.
    Once bound, says so on stderr with the bound port.
    """
    server = ContextServer(address, ContextEngine(store, cfg))
    print(f"listening on port {server.server_address[1]}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()


@dataclass
class ReplayStats:
    input_count: int = 0
    stored_count: int = 0
    commands: list = field(default_factory=list)

    @property
    def commands_emitted(self) -> int:
        return len(self.commands)

    @property
    def reduction_factor(self) -> float:
        return self.input_count / max(self.stored_count, 1)


def replay(trace_path, cfg: DedupConfig | None = None,
           store: TripleStore | None = None) -> ReplayStats:
    """Offline equivalent of serve over a trace file: same stored triples,
    same command sequence, deterministic.  Raises ModelError before the
    first line when ``store``'s home model is invalid."""
    engine = ContextEngine(store, cfg)
    session = Session(engine, hello=False)
    commands: list[dict] = []
    lineno = 0
    with open(trace_path, "rb") as fh:
        while raw := fh.readline(MAX_LINE_BYTES + 1):
            lineno += 1
            try:
                for reply in session.feed(raw):
                    if reply["type"] == "command":
                        commands.append(reply)
                    elif not reply["accepted"]:  # a rejected reading ends the replay
                        raise ProtocolError(reply["error"])
            except ProtocolError as exc:
                raise TraceError(f"line {lineno}: {exc}") from None
    return ReplayStats(engine.input_count, engine.stored_count, commands)
