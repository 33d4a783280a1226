"""homectx benchmark: replay throughput, live ack latency, and reasoning beside writes.

    python3 bench/run.py --workload replay|live-ingest|live-mixed|all \
        --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from anywhere; the repository root is the parent of this directory and
homectx is imported from its ``src``.  Workloads (see BENCHMARK.json):

- ``replay``: ``ingest.replay`` of the standard ``cli.gen_trace`` trace
  (10 streams x 3600 s, 20 events, the given seed) on an empty store, in a
  separate process, pass after pass.
- ``live-ingest``: ``homectx serve`` on the packaged fixture; one
  connection sends a gen_trace-style trace open loop at 5000 readings/s.
- ``live-mixed``: ``homectx serve`` on a generated 100-person home;
  connection A sends readings open loop at 500/s (one presence change a
  second, at scheduled activity times), connection B ticks at 2/s.

Every output is checked against an in-process ``ingest.replay`` of the same
readings over the same home data; a wrong or missing answer is a failed
operation and makes the run exit 1.  The report lines come first; the last
line is one JSON object.  With ``--trace 0`` it carries the end-to-end
metrics; with ``--trace 1`` the run is repeated with spans recorded around
the engine's layers (see tracing.py) and it carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import gen  # noqa: E402  (the benchmark's own modules sit beside this file)
from engine import CHUNK, cpu_s, peak_rss_mb  # noqa: E402
import loadgen  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("replay", "live-ingest", "live-mixed")
SETUP_LAUNCHES = 9          # engine launches per run at least; setup_s is their median
INGEST_RATE = 5000          # readings/s on live-ingest
MIXED_RATE = 500            # readings/s on live-mixed, connection A
TICK_RATE = 2               # ticks/s on live-mixed, connection B
MIXED_PERSONS = 100
MIXED_PRESENT = 30          # persons present in each of the home's environment records
SCALING = ((10, 5), (100, 3), (300, 2))   # (persons, reason_at calls)
STREAMS = 10
WARMUP_S = 1                # live schedules start with this much unmeasured (but checked) load
CPU_WINDOW_S = 1            # live server CPU is sampled at this interval of the schedule
HELLO = b'{"type":"hello","stream":"bench"}\n'

# The final JSON line carries exactly these, by run mode; everything else
# the run measures appears in the report lines above it.
END_TO_END = ("setup_s", "readings_per_s", "ack_p50_ms", "cpu_us_per_reading",
              "peak_rss_mb")
PER_LAYER = (
    "ingest.json_decode.us_per_line",
    "ingest.parse_reading_payload.calls_per_reading",
    "ingest.parse_reading_payload.us_per_call",
    "ingest.handle_reading.self_us_per_call",
    "ingest.handle_reading.lock_wait_us_p90",
    "ingest.reason_at.calls",
    "ingest.reason_at.ms_per_call",
    "ingest.reason_at.ms.home10",
    "ingest.reason_at.ms.home100",
    "ingest.reason_at.ms.home300",
    "dedup.should_store.us_per_call",
    "ontology.reading_to_triples.us_per_call",
    "ontology.load_home_model.calls_per_reason",
    "ontology.load_home_model.ms_per_call",
    "rdf.insert.us_per_call",
    "rdf.match.calls_per_reason",
    "rdf.match.triples_per_reason",
    "rdf.match.us_per_call",
    "rdf.store.triples",
    "sparql.parse_query.calls_per_reason",
    "sparql.parse_query.us_per_call",
    "sparql.evaluate.ms_per_call",
    "sparql.evaluate.self_ms_per_call",
    "sparql.evaluate.rows_per_call",
    "bench.ack_p99_ms",
    "bench.tracing_overhead_pct",
)
UNITS = {
    "setup_s": "s", "readings_per_s": "1/s", "peak_rss_mb": "MB",
    "cpu_us_per_reading": "us",
    "failed_ratio": "1", "rdf.store.triples": "count",
    "ingest.reason_at.calls": "count", "dedup.stored_ratio": "1",
    "bench.tracing_overhead_pct": "%",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in (("_ms", "ms"), (".ms", "ms"), ("_us", "us"),
                         ("ms_per_call", "ms"), ("us_per_call", "us"),
                         ("us_per_line", "us"), ("_p90", "us")):
        if name.endswith(suffix):
            return unit
    if ".ms." in name or "_ms_" in name:
        return "ms"
    if "_per_" in name:
        return name.rsplit(".", 1)[1].replace("_per_", "/")
    return "count"


@dataclass
class Result:
    workload: str
    metrics: dict       # name -> (value, sample count or None)
    attempted: int
    failed: int
    notes: list         # report header lines
    errors: list        # failure descriptions

    @property
    def correct(self) -> bool:
        return self.failed == 0


# --- engine processes --------------------------------------------------------

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


class Engine:
    """A homectx process started by the benchmark, always reaped.

    Reaping goes through ``os.wait4`` so the process's CPU time is known
    afterwards; ``stop`` reads its peak memory just before ending it.
    """

    def __init__(self, argv, workdir: Path, stdout=subprocess.DEVNULL):
        self.stderr_path = workdir / f"engine-{time.monotonic_ns()}.err"
        with open(self.stderr_path, "wb") as err:
            self.started = time.perf_counter()
            self.proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=stdout,
                                         stderr=err)
        self.rusage = None
        self.peak_rss_mb = None

    def _reap(self, block: bool) -> bool:
        if self.rusage is not None:
            return True
        pid, status, usage = os.wait4(self.proc.pid, 0 if block else os.WNOHANG)
        if pid == 0:
            return False
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rusage = usage
        return True

    @property
    def alive(self) -> bool:
        return not self._reap(block=False)

    def wait(self) -> None:
        self._reap(block=True)

    def stop(self, timeout: float = 20.0) -> None:
        if self.alive:
            try:
                self.peak_rss_mb = peak_rss_mb(self.proc.pid)
            except (OSError, RuntimeError):
                pass        # ended on its own meanwhile
            self.proc.send_signal(signal.SIGINT)
            deadline = time.monotonic() + timeout
            while self.alive and time.monotonic() < deadline:
                time.sleep(0.01)
            if self.alive:
                self.proc.kill()
        self._reap(block=True)
        if self.proc.stdout:
            self.proc.stdout.close()

    @property
    def cpu_s(self) -> float:
        return self.rusage.ru_utime + self.rusage.ru_stime

    def stderr_tail(self) -> str:
        return self.stderr_path.read_text(errors="replace")[-2000:]


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _read_line(sock: socket.socket, timeout: float = 30.0) -> bytes:
    sock.settimeout(timeout)
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(4096)
        if not chunk:
            raise ConnectionError("connection closed before a reply")
        buf += chunk
    sock.settimeout(None)
    return buf


def _connect(port: int, engine: Engine, timeout: float = 30.0) -> socket.socket:
    deadline = time.monotonic() + timeout
    while True:
        sock = socket.socket()
        try:
            sock.connect(("127.0.0.1", port))
            return sock
        except ConnectionRefusedError:
            sock.close()
            if not engine.alive or time.monotonic() > deadline:
                raise RuntimeError("server did not start:\n" + engine.stderr_tail())
            time.sleep(0.001)


def _hello(sock: socket.socket) -> None:
    sock.sendall(HELLO)
    reply = json.loads(_read_line(sock))
    if reply != {"type": "hello", "ok": True}:
        raise RuntimeError(f"unexpected hello reply {reply!r}")


def launch_server(argv, data: Path, workdir: Path):
    """Start a server; returns (engine, hello-answered socket, port, setup seconds)."""
    port = _free_port()
    engine = Engine([*argv, "--data", str(data), "--port", str(port)], workdir)
    try:
        sock = _connect(port, engine)
        _hello(sock)
    except BaseException:
        engine.stop()
        raise
    return engine, sock, port, time.perf_counter() - engine.started


def untraced_server():
    return [sys.executable, "-m", "homectx.cli", "serve"]


def traced_server(spans: Path):
    return [sys.executable, str(BENCH / "engine.py"), "serve", "--spans", str(spans), "--"]


# --- reference replay --------------------------------------------------------

def reference_replay(trace_path: Path, home_path: Path | None):
    """In-process ingest.replay; returns (stats, [(stored, commands)] per reading)."""
    from homectx import ingest, rdf

    store = None
    if home_path is not None:
        store = rdf.TripleStore(rdf.parse_data(home_path.read_text(encoding="utf-8")))
    outcomes = []
    handle = ingest.ContextEngine.handle_reading

    def record(self, msg):
        ack, commands = handle(self, msg)
        outcomes.append((ack["stored"], commands))
        return ack, commands

    ingest.ContextEngine.handle_reading = record
    try:
        stats = ingest.replay(trace_path, store=store)
    finally:
        ingest.ContextEngine.handle_reading = handle
    return stats, outcomes


def corrupt(outcomes) -> None:
    """Flip the state of the first command the reference expects."""
    for stored, commands in outcomes:
        if commands:
            commands[0] = dict(commands[0], state=not commands[0]["state"])
            return
    raise RuntimeError("no command in the reference to corrupt")


# --- correctness gate --------------------------------------------------------

COMMAND_FIELDS = {"type", "appliance", "state", "person", "activity", "priority"}


def check_reading(lines, expected) -> str | None:
    """One reading's reply lines against the reference (stored, commands)."""
    stored, commands = expected
    if not lines:
        return "no ack"
    ack = lines[0]
    if not (isinstance(ack, dict) and ack.get("type") == "ack"
            and ack.get("accepted") is True and ack.get("stored") == stored):
        return f"ack {ack!r}, expected stored={stored}"
    if lines[1:] != commands:
        return f"commands {lines[1:]!r}, expected {commands!r}"
    return None


def check_tick(lines, names: dict, expected_lines: int) -> str | None:
    """A tick's reply: well-formed commands, one per appliance, known names."""
    if len(lines) != expected_lines:
        return f"{len(lines)} reply lines, expected {expected_lines}"
    seen = set()
    for cmd in lines:
        if not (isinstance(cmd, dict) and set(cmd) == COMMAND_FIELDS
                and cmd["type"] == "command" and isinstance(cmd["state"], bool)
                and type(cmd["priority"]) is int):
            return f"malformed reply {cmd!r}"
        for key, known in names.items():
            if cmd[key] not in known:
                return f"unknown {key} in {cmd!r}"
        if cmd["appliance"] in seen:
            return f"second command for {cmd['appliance']}"
        seen.add(cmd["appliance"])
    return None


# --- workloads ---------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def _latency_ms(stream: loadgen.Stream, t0: float, indices, use_last: bool):
    times = stream.last if use_last else stream.first
    return [(times[i] - t0 - stream.due[i]) * 1e3 for i in indices
            if times[i] is not None]


def _add_pcts(metrics: dict, prefix: str, samples, qs=(0.5, 0.9)) -> None:
    for q in qs:
        metrics[f"{prefix}_p{int(q * 100)}_ms"] = (tracing.percentile(samples, q),
                                                   len(samples))


def _load_lines(path: Path) -> list:
    with open(path, "rb") as fh:
        return [line for line in fh if line.strip()]


def best_chunks(passes):
    """Replay time per reading at the machine's least contended speed.

    The host is shared, so a pass runs at whatever speed the other tenants
    leave it, and that speed swings by half within seconds.  Every pass
    replays the same trace, so each chunk of CHUNK readings is timed in every
    pass and counted at its fastest: a slower program makes every chunk
    slower in every pass, while a busy neighbour slows only some.  The
    median over chunks then leaves out the few chunks where a reading was
    stored or reasoning ran.  Returns the median chunk's wall and CPU
    seconds per reading and its median ack (s).
    """
    chunks = {len(p["marks"]) - 1 for p in passes}
    if len(chunks) != 1:
        raise RuntimeError(f"replay passes have different chunk counts {sorted(chunks)}")
    walls, cpus, acks = [], [], []
    for i in range(chunks.pop()):
        walls.append(min(p["marks"][i + 1][0] - p["marks"][i][0] for p in passes))
        cpus.append(min(p["marks"][i + 1][1] - p["marks"][i][1] for p in passes))
        acks.append(min(statistics.median(p["ack_ns"][i * CHUNK:(i + 1) * CHUNK])
                        for p in passes))
    return tuple(statistics.median(ns) / 1e9 for ns in (walls, cpus, acks))


def run_replay(seed, seconds, trace, workdir, corrupt_reference=False) -> Result:
    from homectx import cli

    trace_path = workdir / "replay.jsonl"
    params = cli.TraceParams(streams=STREAMS, duration=3600, events=20, seed=seed)
    manifest = cli.gen_trace(trace_path, params)
    ref_stats, _ = reference_replay(trace_path, None)
    ref_commands = ref_stats.commands
    if corrupt_reference:
        # the standard trace yields no commands, so corrupting adds one
        ref_commands = [{"type": "command", "appliance": "corrupted"}, *ref_commands]
    expected_stored = manifest["streams"] + len(manifest["events"])

    def check_pass(label, p) -> list:
        errors = []
        if p["input_count"] != manifest["lines"]:
            errors.append(f"{label}: input_count {p['input_count']} != {manifest['lines']}")
        if p["stored_count"] != expected_stored:
            errors.append(f"{label}: stored_count {p['stored_count']} != {expected_stored}")
        if p["commands"] != ref_commands:
            errors.append(f"{label}: commands differ from the reference replay")
        return errors

    def run_engine(spans=None):
        """One engine process, one pass; returns (engine, setup seconds, pass)."""
        argv = [sys.executable, str(BENCH / "engine.py"), "replay",
                "--trace", str(trace_path)]
        if spans:
            argv += ["--spans", str(spans)]
        engine = Engine(argv, workdir, stdout=subprocess.PIPE)
        try:
            if engine.proc.stdout.readline() != b"ready\n":
                raise RuntimeError("replay engine failed:\n" + engine.stderr_tail())
            setup = time.perf_counter() - engine.started
            out = engine.proc.stdout.read()
            engine.wait()
        finally:
            engine.stop()
        if engine.proc.returncode != 0:
            raise RuntimeError("replay engine failed:\n" + engine.stderr_tail())
        return engine, setup, json.loads(out)

    # One pass per engine process, so every process does the same work and
    # peaks at the same memory; processes follow each other for the whole run.
    setups, rss, passes = [], [], []
    start = time.perf_counter()
    while len(passes) < SETUP_LAUNCHES or time.perf_counter() - start < seconds:
        engine, setup, p = run_engine()
        setups.append(setup)
        rss.append(p["peak_rss_mb"])
        passes.append(p)
    errors = [e for n, p in enumerate(passes) for e in check_pass(f"pass {n}", p)]
    ack_ms = [ns / 1e6 for p in passes for ns in p["ack_ns"]]
    chunk_wall_s, chunk_cpu_s, ack_s = best_chunks(passes)
    metrics = {
        "setup_s": (_median(setups), len(setups)),
        "readings_per_s": (CHUNK / chunk_wall_s, len(passes)),
        "ack_p50_ms": (ack_s * 1e3, len(ack_ms)),
        "cpu_us_per_reading": (chunk_cpu_s * 1e6 / CHUNK, len(passes)),
        "peak_rss_mb": (_median(rss), len(rss)),
    }
    _add_pcts(metrics, "ack", ack_ms, (0.9,))
    _add_pcts(metrics, "bench.ack", ack_ms, (0.99,))
    notes = [f"input: gen_trace {STREAMS} streams x 3600 s, 20 events, "
             f"{manifest['lines']} lines; replayed closed loop, one pass in each of "
             f"{len(passes)} engine processes",
             "ack: in-process, from handle_reading's call to its return",
             f"time figures: each {CHUNK}-reading chunk of the trace at its fastest "
             f"pass of {len(passes)}, then the median over chunks"]
    attempted = manifest["lines"] * len(passes)
    if trace:
        spans_path = workdir / "replay.spans"
        engine, _, traced = run_engine(spans_path)
        header, spans = tracing.load(spans_path)
        layer = tracing.summarize(spans)
        layer["rdf.store.triples"] = header["store_triples"]
        cpu_traced = traced["cpu_s"]
        cpu_plain = _median([p["cpu_s"] for p in passes])
        layer["bench.tracing_overhead_pct"] = 100.0 * (cpu_traced / cpu_plain - 1.0)
        errors += check_pass("traced pass", traced)
        attempted += traced["input_count"]
        metrics.update({k: (v, None) for k, v in layer.items()})
        notes.append("tracing overhead: CPU of one traced pass over the median untraced pass")
    metrics["failed_ratio"] = (len(errors) / attempted, attempted)
    return Result("replay", metrics, attempted, len(errors), notes, errors)


def run_live(name, seed, seconds, trace, workdir, corrupt_reference=False) -> Result:
    """live-ingest and live-mixed: build inputs, reference, then drive a server."""
    from homectx import cli

    ticks = []
    names = None
    if name == "live-ingest":
        home_path = cli.fixture_path()
        trace_path = workdir / "live.jsonl"
        duration = (seconds + WARMUP_S) * INGEST_RATE // STREAMS
        cli.gen_trace(trace_path, cli.TraceParams(
            streams=STREAMS, duration=duration,
            events=max(1, 20 * duration // 3600), seed=seed))
        rate = INGEST_RATE
        notes = [f"offered: 1 connection, {INGEST_RATE} readings/s open loop, "
                 f"gen_trace {STREAMS} streams x {duration} s",
                 "home: packaged fixture (2 persons)"]
    else:
        home = gen.generate_home(MIXED_PERSONS, seed, MIXED_PRESENT)
        home_path = workdir / "home.ttl"
        home_path.write_text(home.text, encoding="utf-8")
        schedule = gen.mixed_schedule(seed, seconds + WARMUP_S, home.persons, MIXED_RATE,
                                      STREAMS, TICK_RATE)
        trace_path = workdir / "live.jsonl"
        gen.write_jsonl(trace_path, (msg for _, msg in schedule.readings))
        ticks = [(due, (json.dumps(msg) + "\n").encode()) for due, msg in schedule.ticks]
        names = home.names
        rate = MIXED_RATE
        notes = [f"offered: connection A {MIXED_RATE} readings/s open loop "
                 f"({STREAMS} streams, {schedule.presence_changes} presence changes); "
                 f"connection B {TICK_RATE} ticks/s open loop",
                 f"home: {len(home.persons)} persons, {len(home.persons)} active at each "
                 f"reasoning time ({MIXED_PRESENT} present), {home.activities} "
                 f"scheduled activities, {home.triples} triples"]
    payloads = _load_lines(trace_path)
    _, reference = reference_replay(trace_path, Path(home_path))
    if corrupt_reference:
        corrupt(reference)
    due = [i / rate for i in range(len(payloads))]
    reply_lines = [1 + len(cmds) for _, cmds in reference]
    tick_lines = len(gen.APPLIANCES)

    # server CPU is read at the edges of equal windows of the measured schedule
    window = min(CPU_WINDOW_S, seconds / 2)
    edges = [WARMUP_S + k * window for k in range(math.ceil(seconds / window))]

    def drive(argv):
        """One server under load; returns (engine, streams, t0, setup seconds, CPU samples)."""
        engine, sock_a, port, setup = launch_server(argv, Path(home_path), workdir)
        socks = [sock_a]
        samples = []

        def probe():
            try:
                samples.append(cpu_s(engine.proc.pid))
            except (OSError, IndexError, ValueError):
                samples.append(None)    # the server has gone; the gate reports it

        try:
            streams = [loadgen.Stream(sock_a, due, payloads, reply_lines)]
            if ticks:
                sock_b = _connect(port, engine)
                socks.append(sock_b)
                _hello(sock_b)
                streams.append(loadgen.Stream(sock_b, [d for d, _ in ticks],
                                              [p for _, p in ticks],
                                              [tick_lines] * len(ticks)))
            t0 = loadgen.run(streams, probe=probe, probe_at=edges)
        finally:
            for s in socks:
                s.close()
            engine.stop()
        return engine, streams, t0, setup, samples

    def outcome(streams, t0):
        """Gate every request; returns (metrics, failures)."""
        errors = []
        readings, *rest = streams
        for i, expected in enumerate(reference):
            err = check_reading(readings.replies[i], expected)
            if err:
                errors.append(f"reading {i}: {err}")
        for i, lines in enumerate(rest[0].replies if rest else []):
            err = check_tick(lines, names, tick_lines)
            if err:
                errors.append(f"tick {i}: {err}")
        measured = [i for i, d in enumerate(due) if d >= WARMUP_S]
        acked = [readings.first[i] for i in measured if readings.first[i] is not None]
        metrics = {"readings_per_s": (
            len(acked) / (max(acked) - t0 - WARMUP_S) if acked else 0.0, len(acked))}
        ack_ms = _latency_ms(readings, t0, measured, False)
        _add_pcts(metrics, "ack", ack_ms)
        _add_pcts(metrics, "bench.ack", ack_ms, (0.99,))
        changed = [i for i in measured if reference[i][1]]
        _add_pcts(metrics, "command", _latency_ms(readings, t0, changed, True))
        tick_ms = []
        if rest:
            tick_ms = _latency_ms(rest[0], t0, range(len(ticks)), True)
            _add_pcts(metrics, "tick", [ms for ms, (d, _) in zip(tick_ms, ticks)
                                        if d >= WARMUP_S])
        lag = [(s.sent[i] - t0 - s.due[i]) * 1e3 for s in streams
               for i in range(len(s.due)) if s.sent[i] is not None]
        metrics["bench.generator_lag_p90_ms"] = (tracing.percentile(lag, 0.9), len(lag))
        return metrics, errors, tick_ms

    setups = []
    for _ in range(SETUP_LAUNCHES - 1):
        engine, sock, _, setup = launch_server(untraced_server(), Path(home_path), workdir)
        sock.close()
        engine.stop()
        setups.append(setup)
    engine, streams, t0, setup, samples = drive(untraced_server())
    setups.append(setup)
    metrics, errors, _ = outcome(streams, t0)
    metrics["setup_s"] = (_median(setups), len(setups))
    metrics["peak_rss_mb"] = (engine.peak_rss_mb, 1)
    metrics["cpu_us_per_reading"] = (window_cpu_us(samples, window * rate), len(samples) - 1)
    attempted = len(payloads) + len(ticks)
    if trace:
        spans_path = workdir / "live.spans"
        traced_engine, traced_streams, traced_t0, _, _ = drive(traced_server(spans_path))
        _, traced_errors, tick_ms = outcome(traced_streams, traced_t0)
        errors += traced_errors
        attempted += len(payloads) + len(ticks)
        header, spans = tracing.load(spans_path)
        layer = tracing.summarize(spans)
        layer["rdf.store.triples"] = header["store_triples"]
        layer["bench.tracing_overhead_pct"] = 100.0 * (
            traced_engine.cpu_s / engine.cpu_s - 1.0)
        server_tick_ms = tracing.tick_ms(spans)
        if tick_ms and len(server_tick_ms) == len(tick_ms):
            layer["ingest.tick.wire_ms_p50"] = tracing.percentile(
                [c - s for c, s in zip(tick_ms, server_tick_ms)], 0.5)
        metrics.update({k: (v, None) for k, v in layer.items()})
        notes.append("tracing overhead: server CPU traced over untraced, same schedule")
    metrics["failed_ratio"] = (len(errors) / attempted, attempted)
    return Result(name, metrics, attempted, len(errors), notes, errors)


def window_cpu_us(samples, readings: float):
    """Server CPU microseconds per reading, from CPU read at window edges.

    Every window of the open-loop schedule offers the same load, and the
    host's other tenants slow some windows more than others, so the figure
    is the median window's CPU over the readings due in a window.  None
    when a sample is missing.
    """
    if len(samples) < 2 or None in samples:
        return None
    return statistics.median(b - a for a, b in zip(samples, samples[1:])) / readings * 1e6


def reason_scaling(seed: int) -> dict:
    """reason_at on generated homes of 10, 100 and 300 persons, called directly."""
    from homectx import ingest, rdf
    from homectx.ontology import TimeOfDay

    out = {}
    when = TimeOfDay.from_label(gen.SLOTS[2])
    for persons, calls in SCALING:
        store = rdf.TripleStore(rdf.parse_data(gen.generate_home(persons, seed).text))
        took = []
        for _ in range(calls):
            start = time.perf_counter()
            ingest.reason_at(store, when)
            took.append((time.perf_counter() - start) * 1e3)
        out[f"ingest.reason_at.ms.home{persons}"] = (_median(took), calls)
    return out


# --- report ------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, corrupt_reference=False) -> Result:
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=BENCH / ".work"))
    try:
        if name == "replay":
            result = run_replay(seed, seconds, trace, workdir, corrupt_reference)
        else:
            result = run_live(name, seed, seconds, trace, workdir, corrupt_reference)
        if trace:
            result.metrics.update(reason_scaling(seed))
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(result: Result, seed, seconds, trace) -> dict:
    print(f"# homectx benchmark: workload {result.workload}, seed {seed}, "
          f"{seconds} s per measured phase, trace {int(trace)}")
    print(f"# python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"platform {platform.platform()}")
    for note in result.notes:
        print(f"# {note}")
    for name, (value, n) in sorted(result.metrics.items()):
        shown = "n/a" if value is None else f"{value:.6g}"
        count = "" if n is None else f"  (n={n})"
        print(f"{name:48s} {shown:>12s} {unit_of(name)}{count}")
    print(f"# attempted {result.attempted}, failed {result.failed}")
    for err in result.errors[:10]:
        print(f"# FAILED {err}")
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name in wanted:
        value = result.metrics.get(name, (None, None))[0]
        if value is None:
            raise RuntimeError(f"workload {result.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": unit_of(name)}
    return {"correct": result.correct, "attempted": result.attempted,
            "failed": result.failed, "metrics": metrics}


# --- self-test ---------------------------------------------------------------

def self_test() -> int:
    """Generators are deterministic; the gate fails on a corrupted reference."""
    problems = []
    home = gen.generate_home(10, 7)
    if home != gen.generate_home(10, 7):
        problems.append("generate_home differs between two calls with seed 7")
    if home == gen.generate_home(10, 8):
        problems.append("generate_home ignores its seed")
    if gen.mixed_schedule(7, 3, home.persons) != gen.mixed_schedule(7, 3, home.persons):
        problems.append("mixed_schedule differs between two calls with seed 7")
    if gen.mixed_schedule(7, 3, home.persons) == gen.mixed_schedule(8, 3, home.persons):
        problems.append("mixed_schedule ignores its seed")
    for extra, want_ok in (([], True), (["--corrupt-reference"], False)):
        for workload in ("replay", "live-mixed"):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", "7", "--seconds", "2", "--trace", "0", *extra]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            verdict = json.loads(lines[-1])["correct"] if lines else None
            if (proc.returncode == 0) != want_ok or verdict is not want_ok:
                problems.append(f"{workload} {' '.join(extra) or 'plain'}: exit "
                                f"{proc.returncode}, correct {verdict}, want ok={want_ok}")
    for p in problems:
        print(f"self-test FAILED: {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)  # self-test only
    args = parser.parse_args(argv)
    if not (SRC / "homectx" / "__init__.py").is_file():
        print(f"bench: no homectx sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    verdicts = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              args.corrupt_reference)
        line = report(result, args.seed, args.seconds, bool(args.trace))
        verdicts.append(line)
        if len(names) == 1:
            print(json.dumps(line))
        else:
            print(f"# result {name}: {json.dumps(line)}")
    if len(names) > 1:
        print(json.dumps({
            "correct": all(v["correct"] for v in verdicts),
            "attempted": sum(v["attempted"] for v in verdicts),
            "failed": sum(v["failed"] for v in verdicts),
            "metrics": {f"{n}.{k}": m for n, v in zip(names, verdicts)
                        for k, m in v["metrics"].items()}}))
    return 0 if all(v["correct"] for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
