"""Spans around homectx's public functions, recorded from outside the package.

``install()`` swaps wrappers into the names the engine looks up at call
time: the module globals of ``homectx.ingest`` (its collaborators and its
``json`` module), ``TripleStore.insert``/``match``, the two
``ContextEngine`` handlers and ``rdf.parse_data``.  Nothing under ``src/``
changes.

A span is one call: name, start, end, the span that caused it, and a
request id shared by every span of one input line (a new id starts at each
``json.loads``, which is where both the server and replay begin a line).
``TripleStore.match`` runs tens of thousands of times per reasoning, so it
is not recorded as its own span: each call is folded into the enclosing
span as a count, a time and a number of triples returned, and its time
counts as child time of that span.  Spans stay in memory and are written
by ``dump`` when the run ends; ``summarize`` turns them into the per-layer
metrics.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time

# Span record fields, in order.
FIELDS = ("id", "parent", "rid", "name", "start_ns", "end_ns", "child_ns",
          "match_calls", "match_ns", "match_triples", "value")
FACTORS = ("temperature", "illumination", "humidity", "presence", "date")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.rid = 0
            return self._local.stack

    def wrap(self, name: str, fn, value=None, new_request: bool = False):
        """Return ``fn`` recording one span per call.

        ``value(result)`` extracts a small JSON-able figure kept on the span.
        """
        clock = time.perf_counter_ns
        local = self._local
        spans = self.spans
        ids = self._ids
        rids = self._rids

        def traced(*args, **kwargs):
            stack = self._stack()
            if new_request:
                local.rid = next(rids)
            parent = stack[-1] if stack else None
            # frame: id, parent id, rid, name, start, child_ns, match calls/ns/triples
            frame = [next(ids), parent[0] if parent else 0, local.rid, name,
                     clock(), 0, 0, 0, 0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[5] += end - frame[4]
                spans.append((*frame[:5], end, *frame[5:],
                              value(result) if value and result is not None else None))
        traced.__wrapped__ = fn
        return traced

    def wrap_folded(self, fn):
        """Fold each call into the enclosing span (used for TripleStore.match)."""
        clock = time.perf_counter_ns
        plain = self.wrap("TripleStore.match", fn, value=len)

        def folded(*args, **kwargs):
            stack = self._stack()
            if not stack:
                return plain(*args, **kwargs)
            start = clock()
            result = fn(*args, **kwargs)
            took = clock() - start
            parent = stack[-1]
            parent[5] += took
            parent[6] += 1
            parent[7] += took
            parent[8] += len(result)
            return result
        folded.__wrapped__ = fn
        return folded

    def dump(self, path, **extra) -> None:
        """Write the spans as JSON lines, after one header object."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": FIELDS, **extra}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _TracedJson:
    """Stands in for the ``json`` module inside homectx.ingest."""

    def __init__(self, tracer: Tracer, real):
        self._real = real
        self.loads = tracer.wrap("json.loads", real.loads, new_request=True)
        self.dumps = tracer.wrap("json.dumps", real.dumps)

    def __getattr__(self, name):
        return getattr(self._real, name)


def _decision_value(decision):
    return [decision.store, [d.name for d in decision.deltas if d.exceeded]]


def install(tracer: Tracer) -> None:
    """Wrap the engine's layer boundaries in this process."""
    from homectx import ingest, rdf

    ingest.json = _TracedJson(tracer, ingest.json)
    for name, value in (("parse_reading_payload", None),
                        ("should_store", _decision_value),
                        ("reading_to_triples", len),
                        ("reason_at", len),
                        ("load_home_model", None),
                        ("parse_query", None),
                        ("evaluate", lambda table: len(table.rows))):
        setattr(ingest, name, tracer.wrap(name, getattr(ingest, name), value))
    store = ingest.TripleStore
    store.insert = tracer.wrap("TripleStore.insert", store.insert)
    store.match = tracer.wrap_folded(store.match)
    engine = ingest.ContextEngine
    engine.handle_reading = tracer.wrap(
        "handle_reading", engine.handle_reading, lambda r: r[0].get("stored"))
    engine.handle_tick = tracer.wrap("handle_tick", engine.handle_tick, len)
    rdf.parse_data = tracer.wrap("parse_data", rdf.parse_data, len)


def load(path):
    """Read a file written by ``Tracer.dump``: (header, list of span tuples)."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        return header, [tuple(json.loads(line)) for line in fh]


def percentile(values, q: float):
    """Nearest-rank percentile, q in (0, 1]; None for no values."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(spans) -> dict:
    """Per-layer figures from span tuples (see FIELDS).

    Returns name -> value for every figure the spans support.
    """
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s[3], []).append(s)
    name_of = {s[0]: s[3] for s in spans}
    parent_of = {s[0]: s[1] for s in spans}

    def under(span_id, ancestor):
        while span_id:
            if name_of.get(span_id) == ancestor:
                return True
            span_id = parent_of.get(span_id, 0)
        return False

    def dur(s):
        return s[5] - s[4]

    def mean_us(name):
        group = by_name.get(name, [])
        return sum(map(dur, group)) / len(group) / 1e3 if group else 0.0

    out: dict = {}
    readings = by_name.get("handle_reading", [])
    n_read = len(readings)
    reasons = by_name.get("reason_at", [])
    n_reason = len(reasons)
    out["ingest.json_decode.us_per_line"] = mean_us("json.loads")
    out["ingest.json_encode.us_per_line"] = mean_us("json.dumps")
    out["ingest.parse_reading_payload.calls_per_reading"] = (
        len(by_name.get("parse_reading_payload", [])) / max(n_read, 1))
    out["ingest.parse_reading_payload.us_per_call"] = mean_us("parse_reading_payload")
    out["ingest.handle_reading.self_us_per_call"] = (
        sum(dur(s) - s[6] for s in readings) / max(n_read, 1) / 1e3)

    # Lock wait: inside one handle_reading, from the end of payload parsing
    # to the start of should_store (the lock is taken in between).
    parsed_at = {s[1]: s[5] for s in by_name.get("parse_reading_payload", [])
                 if name_of.get(s[1]) == "handle_reading"}
    gaps = [(s[4] - parsed_at[s[1]]) / 1e3 for s in by_name.get("should_store", [])
            if s[1] in parsed_at]
    out["ingest.handle_reading.lock_wait_us_p90"] = percentile(gaps, 0.9) or 0.0
    out["ingest.reason_at.calls"] = n_reason
    out["ingest.reason_at.ms_per_call"] = mean_us("reason_at") / 1e3
    if "handle_tick" in by_name:
        out["ingest.handle_tick.ms_per_call"] = mean_us("handle_tick") / 1e3

    decisions = [s[10] for s in by_name.get("should_store", []) if s[10]]
    out["dedup.should_store.us_per_call"] = mean_us("should_store")
    out["dedup.stored_ratio"] = (sum(1 for d in decisions if d[0])
                                 / max(len(decisions), 1))
    for factor in FACTORS:
        out[f"dedup.triggered.{factor}"] = sum(1 for d in decisions if factor in d[1])

    out["ontology.reading_to_triples.us_per_call"] = mean_us("reading_to_triples")
    loads_in_reason = [s for s in by_name.get("load_home_model", [])
                       if under(s[1], "reason_at")]
    out["ontology.load_home_model.calls_per_reason"] = len(loads_in_reason) / max(n_reason, 1)
    out["ontology.load_home_model.ms_per_call"] = mean_us("load_home_model") / 1e3

    out["rdf.insert.us_per_call"] = mean_us("TripleStore.insert")
    in_reason = [s for s in spans if s[7] and under(s[0], "reason_at")]
    match_calls = sum(s[7] for s in spans)
    out["rdf.match.calls_per_reason"] = sum(s[7] for s in in_reason) / max(n_reason, 1)
    out["rdf.match.triples_per_reason"] = sum(s[9] for s in in_reason) / max(n_reason, 1)
    out["rdf.match.us_per_call"] = sum(s[8] for s in spans) / max(match_calls, 1) / 1e3
    if "parse_data" in by_name:
        out["rdf.parse_data.ms"] = sum(map(dur, by_name["parse_data"])) / 1e6

    queries = [s for s in by_name.get("parse_query", []) if under(s[1], "reason_at")]
    out["sparql.parse_query.calls_per_reason"] = len(queries) / max(n_reason, 1)
    out["sparql.parse_query.us_per_call"] = mean_us("parse_query")
    evals = by_name.get("evaluate", [])
    out["sparql.evaluate.ms_per_call"] = mean_us("evaluate") / 1e3
    out["sparql.evaluate.self_ms_per_call"] = (
        sum(dur(s) - s[6] for s in evals) / max(len(evals), 1) / 1e6)
    out["sparql.evaluate.rows_per_call"] = (
        sum(s[10] or 0 for s in evals) / max(len(evals), 1))
    return out


def tick_ms(spans) -> list:
    """handle_tick durations in ms, in the order the ticks started."""
    ticks = sorted((s for s in spans if s[3] == "handle_tick"), key=lambda s: s[4])
    return [(s[5] - s[4]) / 1e6 for s in ticks]
