"""Engine-side launcher: runs homectx in its own process for the benchmark.

    python3 bench/engine.py replay --trace FILE [--spans FILE]
    python3 bench/engine.py serve --spans FILE -- serve-args...

``replay`` prints ``ready`` once homectx is imported, then replays the
trace once with ``ingest.replay`` on an empty store and prints one JSON
line with the counts, commands, wall and CPU time, peak memory, the
duration of every ``handle_reading`` call (the in-process ack) and the
wall and CPU clocks before every ``CHUNK``-th reading and at the end of
the pass.  ``serve`` installs the tracing wrappers, runs ``homectx serve``
through ``cli.main`` and writes its spans when SIGINT ends the server.  An
untraced server is started as ``python3 -m homectx.cli serve`` instead,
the way an operator starts it.

The caller puts the repository's ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import tracing

CHUNK = 100     # readings between two clock marks of a replay pass


def peak_rss_mb(pid="self") -> float:
    """Peak resident memory of a process since its exec (VmHWM), in MB.

    wait4's ru_maxrss does not do: Linux carries the parent's peak into the
    child at exec, so it would report the benchmark's own memory.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0    # the field is in kB
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_s(pid) -> float:
    """CPU seconds the live threads of a running process have used so far.

    Summed from each thread's schedstat, which counts nanoseconds; the
    process-wide stat counts 10 ms clock ticks, too coarse for a window of
    a few seconds.
    """
    total = 0
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/schedstat", encoding="ascii") as fh:
                total += int(fh.read().split()[0])
        except FileNotFoundError:
            pass        # the thread ended since the listing
    return total / 1e9


def cmd_replay(args) -> int:
    from homectx import ingest
    from homectx.rdf import TripleStore

    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ack_ns: list[int] = []
    marks: list[tuple[int, int]] = []     # (wall ns, CPU ns)
    handle = ingest.ContextEngine.handle_reading
    clock, cpu_clock = time.perf_counter_ns, time.process_time_ns

    def timed(self, msg):
        if len(ack_ns) % CHUNK == 0:
            marks.append((clock(), cpu_clock()))
        start = clock()
        result = handle(self, msg)
        ack_ns.append(clock() - start)
        return result

    ingest.ContextEngine.handle_reading = timed
    print("ready", flush=True)
    store = TripleStore()
    wall, cpu = time.perf_counter(), time.process_time()
    stats = ingest.replay(args.trace, store=store)
    marks.append((clock(), cpu_clock()))
    result = {"wall_s": time.perf_counter() - wall,
              "cpu_s": time.process_time() - cpu,
              "input_count": stats.input_count,
              "stored_count": stats.stored_count,
              "commands": stats.commands,
              "peak_rss_mb": peak_rss_mb(),
              "ack_ns": ack_ns,
              "marks": marks}
    if tracer is not None:
        tracer.dump(args.spans, store_triples=len(store))
    print(json.dumps(result), flush=True)
    return 0


def cmd_serve(args) -> int:
    from homectx import cli, ingest

    tracer = tracing.Tracer()
    tracing.install(tracer)
    stores = []
    serve = ingest.serve

    def keep_store(address, store, cfg=None):
        stores.append(store)
        serve(address, store, cfg)

    ingest.serve = keep_store
    code = cli.main(["serve", *args.serve_args])
    tracer.dump(args.spans, store_triples=len(stores[0]) if stores else 0)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="engine.py")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("replay")
    p.add_argument("--trace", required=True)
    p.add_argument("--spans")
    p = sub.add_parser("serve")
    p.add_argument("--spans", required=True)
    p.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.command == "replay":
        return cmd_replay(args)
    if args.serve_args and args.serve_args[0] == "--":
        args.serve_args = args.serve_args[1:]
    return cmd_serve(args)


if __name__ == "__main__":
    sys.exit(main())
