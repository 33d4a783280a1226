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
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise rdf.ParseError(f"cannot read {path}: {exc.strerror}", 0, 0)
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
    try:
        store = _load_store(args.data)
        query = sparql.parse_query(query_text)
    except rdf.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except sparql.QueryError as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    table = sparql.evaluate(store, query)
    sys.stdout.write(sparql.format_results(table, mode=args.output))
    return EXIT_OK


def cmd_reason(args, parser: argparse.ArgumentParser) -> int:
    try:
        time = ontology.TimeOfDay.from_label(args.time)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        store = _load_store(args.data)
    except rdf.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        ontology.load_home_model(store)
        commands = ingest.reason_at(store, time)
    except ontology.ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    for cmd in commands:
        print(json.dumps(cmd))
    return EXIT_OK


def cmd_replay(args) -> int:
    try:
        stats = ingest.replay(args.trace, _dedup_config(args))
    except (OSError, ValueError) as exc:
        print(f"replay error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(f"input_count={stats.input_count}")
    print(f"stored_count={stats.stored_count}")
    print(f"reduction_factor={stats.reduction_factor:.2f}")
    print(f"commands_emitted={stats.commands_emitted}")
    return EXIT_OK


def cmd_serve(args) -> int:
    try:
        store = _load_store(args.data)
    except rdf.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        ingest.serve(("127.0.0.1", args.port), store, _dedup_config(args))
    except ontology.ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except (OSError, OverflowError, ValueError) as exc:
        # port in use or out of range, bad --thresholds file
        print(f"serve error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def cmd_load(args) -> int:
    try:
        store = _load_store(args.data)
    except rdf.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    sys.stdout.write(rdf.serialize(store))
    return EXIT_OK


def cmd_gen_trace(args) -> int:
    params = TraceParams(streams=args.streams, duration=args.duration,
                         rate=args.rate, events=args.events, seed=args.seed)
    try:
        manifest = gen_trace(args.out, params)
    except ValueError as exc:
        print(f"gen-trace error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(f"wrote {manifest['lines']} lines, {len(manifest['events'])} events "
          f"to {args.out}")
    return EXIT_OK


# --- argument wiring ----------------------------------------------------------

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
    add_data(p)
    p.add_argument("--output", choices=("table", "tsv"), default="table")
    p.add_argument("query", help="query text, or a path to a query file")

    p = sub.add_parser("reason", help="emit appliance commands for a time")
    add_data(p)
    p.add_argument("time", help="time of day as HHMMSS")

    p = sub.add_parser("replay", help="run a trace through dedup + reasoning")
    add_thresholds(p)
    p.add_argument("trace", help="trace file, one JSON object per line")

    p = sub.add_parser("serve", help="run the ingestion TCP server")
    add_data(p)
    add_thresholds(p)
    p.add_argument("--port", type=int, default=8765)

    p = sub.add_parser("gen-trace", help="generate a synthetic sensor trace")
    p.add_argument("--out", required=True)
    p.add_argument("--streams", type=int, default=10)
    p.add_argument("--duration", type=int, default=3600)
    p.add_argument("--rate", type=int, default=1)
    p.add_argument("--events", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("load", help="validate and canonicalize data files")
    add_data(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "query":
        return cmd_query(args)
    if args.command == "reason":
        return cmd_reason(args, parser)
    if args.command == "replay":
        return cmd_replay(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "gen-trace":
        return cmd_gen_trace(args)
    if args.command == "load":
        return cmd_load(args)
    parser.error(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
