"""Operator command line: query, reason, replay, serve, gen-trace, load."""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from . import dedup, ingest, ontology, rdf, sparql
from .tracegen import TraceParams, gen_trace

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CONTRACT = 2

FIXTURE_NAME = "home_fixture.ttl"


def fixture_path() -> Path:
    return Path(resources.files("homectx.data") / FIXTURE_NAME)


def _load_store(paths) -> rdf.TripleStore:
    store = rdf.TripleStore()
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        try:
            for triple in rdf.parse_data(text):
                store.insert(triple)
        except rdf.ParseError as exc:
            raise rdf.ParseError(f"{path}: {exc.message}", exc.line, exc.column)
    return store


def _dedup_config(args) -> dedup.DedupConfig:
    if args.thresholds:
        return dedup.load_threshold_overrides(args.thresholds)
    return dedup.DedupConfig()


def cmd_query(args) -> int:
    query_text = args.query
    try:
        if Path(query_text).is_file():
            query_text = Path(query_text).read_text(encoding="utf-8")
    except OSError:
        pass  # inline query text, not a path
    store = _load_store(args.data)
    table = sparql.evaluate(store, sparql.parse_query(query_text))
    sys.stdout.write(sparql.format_results(table, mode=args.output))
    return EXIT_OK


def cmd_reason(args) -> int:
    store = _load_store(args.data)
    ontology.load_home_model(store)
    for cmd in ingest.reason_at(store, args.time):
        print(json.dumps(cmd))
    return EXIT_OK


def cmd_replay(args) -> int:
    stats = ingest.replay(args.trace, _dedup_config(args))
    print(f"input_count={stats.input_count}")
    print(f"stored_count={stats.stored_count}")
    print(f"reduction_factor={stats.reduction_factor:.2f}")
    print(f"commands_emitted={stats.commands_emitted}")
    return EXIT_OK


def cmd_serve(args) -> int:
    ingest.serve(("127.0.0.1", args.port), _load_store(args.data), _dedup_config(args))
    return EXIT_OK


def cmd_load(args) -> int:
    sys.stdout.write(rdf.serialize(_load_store(args.data)))
    return EXIT_OK


def cmd_gen_trace(args) -> int:
    params = TraceParams(streams=args.streams, duration=args.duration,
                         rate=args.rate, events=args.events, seed=args.seed)
    manifest = gen_trace(args.out, params)
    print(f"wrote {manifest['lines']} lines, {len(manifest['events'])} events "
          f"to {args.out}")
    return EXIT_OK


# --- argument wiring ----------------------------------------------------------

def _time_of_day(label: str) -> ontology.TimeOfDay:
    """``reason``'s time argument; a bad label is a usage error (exit 2)."""
    try:
        return ontology.TimeOfDay.from_label(label)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="homectx",
                                     description="Smart-home context engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data(p):
        p.add_argument("--data", action="append", default=[],
                       metavar="FILE", help="Turtle-subset data file(s)")

    def add_thresholds(p):
        p.add_argument("--thresholds", metavar="FILE",
                       help="JSON threshold overrides for dedup")

    p = sub.add_parser("query", help="evaluate a query over data files")
    p.set_defaults(run=cmd_query)
    add_data(p)
    p.add_argument("--output", choices=("table", "tsv"), default="table")
    p.add_argument("query", help="query text, or a path to a query file")

    p = sub.add_parser("reason", help="emit appliance commands for a time")
    p.set_defaults(run=cmd_reason)
    add_data(p)
    p.add_argument("time", type=_time_of_day, help="time of day as HHMMSS")

    p = sub.add_parser("replay", help="run a trace through dedup + reasoning")
    p.set_defaults(run=cmd_replay)
    add_thresholds(p)
    p.add_argument("trace", help="trace file, one JSON object per line")

    p = sub.add_parser("serve", help="run the ingestion TCP server")
    p.set_defaults(run=cmd_serve)
    add_data(p)
    add_thresholds(p)
    p.add_argument("--port", type=int, default=8765)

    p = sub.add_parser("gen-trace", help="generate a synthetic sensor trace")
    p.set_defaults(run=cmd_gen_trace)
    p.add_argument("--out", required=True)
    p.add_argument("--streams", type=int, default=10)
    p.add_argument("--duration", type=int, default=3600)
    p.add_argument("--rate", type=int, default=1)
    p.add_argument("--events", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("load", help="validate and canonicalize data files")
    p.set_defaults(run=cmd_load)
    add_data(p)
    return parser


# The stderr prefix and exit code of each error kind a command reports; any
# other OverflowError or ValueError prints "<command> error: ..." and exits
# EXIT_PARSE.
ERRORS = (
    (rdf.ParseError, "parse error", EXIT_PARSE),
    (sparql.QueryError, "query error", EXIT_CONTRACT),
    (ontology.ModelError, "model error", EXIT_CONTRACT),
    (OSError, "os error", EXIT_PARSE),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (OSError, OverflowError, ValueError) as exc:
        prefix, code = next(((p, c) for kind, p, c in ERRORS if isinstance(exc, kind)),
                            (f"{args.command} error", EXIT_PARSE))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
