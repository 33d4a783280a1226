"""Open-loop load generator for the live workloads.

One thread drives every connection with ``selectors``.  Each request is
sent at its scheduled time whether or not earlier ones were answered, and
is timed from that scheduled time, so a stall in the server also counts
against the requests queued behind it.  Replies are framed by count: the
caller says how many lines each request is answered with (an ack plus the
commands the reference replay produced, or one command per appliance for
a tick), and replies on one connection arrive in request order.

Client sockets keep their default options, as a sensor's would.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from dataclasses import dataclass, field

SPIN_S = 0.002      # closer than this to the next send, poll instead of sleeping
DRAIN_S = 20.0      # how long to wait for replies after the last send


@dataclass
class Stream:
    """One connection's schedule and what came back on it."""

    sock: socket.socket
    due: list            # seconds after the start, one per request
    payloads: list       # bytes, one line per request
    reply_lines: list    # lines expected in answer to each request, at least 1
    sent: list = field(init=False)       # when each request was queued
    first: list = field(init=False)      # arrival of the first reply line
    last: list = field(init=False)       # arrival of the last reply line
    replies: list = field(init=False)    # decoded reply lines per request
    closed: bool = False

    def __post_init__(self):
        n = len(self.due)
        self.sent = [None] * n
        self.first = [None] * n
        self.last = [None] * n
        self.replies = [[] for _ in range(n)]
        self._next = 0          # next request to send
        self._answering = 0     # request whose reply lines arrive next
        self._out = bytearray()
        self._in = b""

    @property
    def backlogged(self) -> bool:
        return bool(self._out)

    @property
    def done(self) -> bool:
        return self.closed or self._answering >= len(self.due)

    def queue_due(self, now: float, t0: float) -> None:
        while self._next < len(self.due) and t0 + self.due[self._next] <= now:
            self._out += self.payloads[self._next]
            self.sent[self._next] = now
            self._next += 1
        if self._out and not self.closed:
            try:
                n = self.sock.send(self._out)
            except BlockingIOError:
                return
            except OSError:
                self.closed = True
                return
            del self._out[:n]

    def receive(self, now: float) -> None:
        try:
            data = self.sock.recv(1 << 16)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self.closed = True
            return
        lines = (self._in + data).split(b"\n")
        self._in = lines.pop()
        for raw in lines:
            i = self._answering
            if i >= len(self.due):
                # more lines than requests: keep them on the last request
                # so the gate sees them
                self.replies[-1].append(_decode(raw))
                continue
            got = self.replies[i]
            if not got:
                self.first[i] = now
            got.append(_decode(raw))
            if len(got) >= self.reply_lines[i]:
                self.last[i] = now
                self._answering += 1

    @property
    def next_due(self):
        return self.due[self._next] if self._next < len(self.due) else None


def _decode(raw: bytes):
    try:
        return json.loads(raw)
    except ValueError:
        return {"type": "undecodable", "raw": raw.decode("utf-8", "replace")}


def run(streams: list, lead_s: float = 0.05, probe=None, probe_at=()) -> float:
    """Drive every stream to completion; returns the start time t0.

    Requests are due at ``t0 + due``.  Gives up DRAIN_S after the last send
    and leaves unanswered requests without reply times.  ``probe`` is
    called once ``t0 + at`` has passed, for each ``at`` in ``probe_at``.
    """
    sel = selectors.DefaultSelector()
    for st in streams:
        st.sock.setblocking(False)
        sel.register(st.sock, selectors.EVENT_READ, st)
    t0 = time.perf_counter() + lead_s
    last_due = max((st.due[-1] for st in streams if st.due), default=0.0)
    give_up = t0 + last_due + DRAIN_S
    probes = [t0 + at for at in probe_at]
    try:
        while True:
            now = time.perf_counter()
            for st in streams:
                st.queue_due(now, t0)
            while probes and probes[0] <= now:
                probes.pop(0)
                probe()
            if all(st.done for st in streams) or now > give_up:
                break
            pending = [st.next_due for st in streams if st.next_due is not None]
            if any(st.backlogged for st in streams):
                timeout = 0.0005
            elif pending:
                wait = min([t0 + min(pending), *probes[:1]]) - now
                timeout = 0 if wait < SPIN_S else wait - SPIN_S / 2
            else:
                timeout = 0.05
            for key, _ in sel.select(timeout):
                key.data.receive(time.perf_counter())
                if key.data.closed:
                    sel.unregister(key.fileobj)
    finally:
        sel.close()
    return t0
