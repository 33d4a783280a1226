import json
import socket

import pytest

from conftest import GHOST_MODEL, NON_ASCII_TIMES
from homectx import cli, ingest, tracegen
from homectx.dedup import DedupConfig
from homectx.cli import TraceParams, gen_trace, main
from homectx.ingest import replay

QUERY = ("SELECT DISTINCT ?person ?what ?appliance ?status ?priority WHERE { "
         "?work :When :_180000. ?environment :hasTime :_180000. "
         "?environment :personIn ?person. ?work :Who ?person. ?work :Do ?what. "
         "?person :hasPriority ?priority. ?what ?appliance ?status. "
         "filter(datatype(?status)=xsd:boolean) } ORDER BY DESC(?priority)")


# Threshold values that are not numbers a float can hold, and their errors.
BAD_THRESHOLD_VALUES = [
    ('{"temperature": true}', 'threshold for temperature must be a number or "categorical"'),
    ('{"temperature": 1%s}' % ("0" * 400), "int too large to convert to float"),
    ('{"temperature": " 5e-1 "}',
     'threshold for temperature must be a number or "categorical"'),
]
# A threshold file nested deeper than the JSON decoder can follow.
DEEP_THRESHOLDS = ("[" * 100000, "threshold file nests too deeply")


def fixture_args():
    return ["--data", str(cli.fixture_path())]


class TestQuery:
    def test_four_row_table(self, capsys):
        assert main(["query", *fixture_args(), "--output", "tsv", QUERY]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert all(":Son" in line for line in lines[1:])

    def test_empty_data(self, capsys):
        assert main(["query", "--output", "tsv", QUERY]) == 0
        assert capsys.readouterr().out.strip().splitlines() == \
            ["?person\t?what\t?appliance\t?status\t?priority"]

    def test_malformed_query_exits_1(self, capsys):
        assert main(["query", *fixture_args(), "SELECT ?x WHERE {"]) == 1
        assert "line" in capsys.readouterr().err

    def test_unbound_projection_exits_2(self, capsys):
        assert main(["query", *fixture_args(),
                     "SELECT ?x WHERE { ?s :name ?n. }"]) == 2
        assert capsys.readouterr().err == "query error: variable ?x projected but never bound\n"

    def test_missing_data_file_is_os_error(self, capsys):
        assert main(["query", "--data", "/nonexistent.ttl",
                     "SELECT ?s WHERE { ?s ?p ?o . }"]) == 1
        assert capsys.readouterr().err == (
            "os error: [Errno 2] No such file or directory: '/nonexistent.ttl'\n")

    def test_query_from_file(self, capsys, tmp_path):
        qfile = tmp_path / "q.rq"
        qfile.write_text(QUERY)
        assert main(["query", *fixture_args(), "--output", "tsv", str(qfile)]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 5


class TestReason:
    def test_study_time_commands(self, capsys):
        assert main(["reason", *fixture_args(), "180000"]) == 0
        commands = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert {(c["appliance"], c["state"]) for c in commands} == {
            ("TV", False), ("AirConditioner", True), ("Light", True),
            ("Projector", True),
        }

    def test_idle_time(self, capsys):
        assert main(["reason", *fixture_args(), "030000"]) == 0
        assert capsys.readouterr().out == ""

    def test_bad_time_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["reason", *fixture_args(), "9999"])
        assert exc.value.code == 2

    @NON_ASCII_TIMES
    def test_non_ascii_time_is_usage_error(self, capsys, label):
        with pytest.raises(SystemExit) as exc:
            main(["reason", *fixture_args(), label])
        assert exc.value.code == 2
        assert f"time label must be 6 digits, got {label!r}" in capsys.readouterr().err


class TestServe:
    def test_listening_line_names_bound_port(self, capsys, monkeypatch):
        class StopAtOnce(ingest.ContextServer):
            def serve_forever(self, poll_interval=0.5):
                raise KeyboardInterrupt

            def shutdown(self):
                pass  # serve_forever never ran, so there is no loop to stop

        monkeypatch.setattr(ingest, "ContextServer", StopAtOnce)
        assert main(["serve", *fixture_args(), "--port", "0"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("listening on port ")
        assert int(err[0].rsplit(" ", 1)[1]) > 0

    def test_port_in_use_exits_1_with_one_line(self, capsys):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            assert main(["serve", *fixture_args(), "--port", str(port)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("os error: ") and err.count("\n") == 1
        assert "Traceback" not in err and "listening" not in err

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_port_out_of_range_exits_1_with_one_line(self, capsys, port):
        assert main(["serve", *fixture_args(), "--port", port]) == 1
        err = capsys.readouterr().err
        assert err.startswith("serve error: ") and err.count("\n") == 1
        assert "0-65535" in err and "Traceback" not in err and "listening" not in err

    @pytest.mark.parametrize("content, reason", [
        ("{not json", "Expecting property name"),
        ('{"temperature": "x"}',
         'threshold for temperature must be a number or "categorical"'),
        ('{"temperature": null}', 'threshold for temperature must be a number'),
        ('["temperature"]', "threshold file must hold a JSON object"),
        ('{"presence": 0.5}', 'threshold for presence must be "categorical"'),
        *BAD_THRESHOLD_VALUES, DEEP_THRESHOLDS,
    ], ids=["invalid-json", "bad-value", "null-value", "not-an-object", "numeric-presence",
            "bool-value", "huge-int", "numeric-string", "deep-nesting"])
    def test_bad_thresholds_exit_1_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                 content, reason):
        def no_bind(*args):
            raise AssertionError("bound a server with a bad thresholds file")

        monkeypatch.setattr(ingest, "ContextServer", no_bind)
        thresholds = tmp_path / "bad.json"
        thresholds.write_text(content)
        assert main(["serve", *fixture_args(), "--port", "0",
                     "--thresholds", str(thresholds)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("serve error: ") and err.count("\n") == 1
        assert reason in err and "Traceback" not in err


@pytest.fixture()
def ghost_args(tmp_path):
    path = tmp_path / "ghost.ttl"
    path.write_text(GHOST_MODEL)
    return ["--data", str(path)]


class TestModelError:
    def test_reason_exits_2(self, ghost_args, capsys):
        assert main(["reason", *ghost_args, "180000"]) == 2
        assert "model error" in capsys.readouterr().err

    def test_serve_exits_2_before_binding(self, ghost_args, capsys, monkeypatch):
        def no_bind(*args):
            raise AssertionError("bound a server for an invalid model")

        monkeypatch.setattr(ingest, "ContextServer", no_bind)
        assert main(["serve", *ghost_args, "--port", "0"]) == 2
        err = capsys.readouterr().err
        assert "model error: activity :a references unknown person :Ghost" in err
        assert "listening" not in err


class TestLoad:
    def test_canonicalize(self, capsys):
        assert main(["load", *fixture_args()]) == 0
        out = capsys.readouterr().out
        assert out.startswith("@prefix")
        assert ':Father :hasPriority "8"^^xsd:positiveInteger .' in out

    def test_missing_file(self, capsys):
        assert main(["load", "--data", "/nonexistent.ttl"]) == 1
        assert capsys.readouterr().err == (
            "os error: [Errno 2] No such file or directory: '/nonexistent.ttl'\n")

    def test_parse_error_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "bad.ttl"
        path.write_text(":a :b :c .\n:a :b .\n")
        assert main(["load", *fixture_args(), "--data", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"parse error: {path}: expected prefixed name (line 2, column 7)\n")

    @pytest.mark.parametrize("flag", [["--output", "tsv"], ["--thresholds", "t.json"]])
    def test_flags_of_other_commands_are_usage_errors(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["load", *fixture_args(), *flag])
        assert exc.value.code == 2


class TestGenTrace:
    def test_counts_and_manifest(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        manifest = gen_trace(out, TraceParams(streams=10, duration=3600,
                                              rate=1, events=20, seed=42))
        assert manifest["lines"] == 36000
        assert len(manifest["events"]) == 20
        with open(out) as fh:
            assert sum(1 for _ in fh) == 36000
        sidecar = json.loads((tmp_path / "trace.jsonl.manifest.json").read_text())
        assert sidecar == manifest

    def test_zero_events_stores_streams(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        gen_trace(out, TraceParams(streams=3, duration=60, events=0, seed=1))
        stats = replay(out)
        assert stats.stored_count == 3

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        params = TraceParams(streams=2, duration=120, events=5, seed=9)
        gen_trace(a, params)
        gen_trace(b, params)
        assert a.read_bytes() == b.read_bytes()

    def test_stored_equals_streams_plus_events(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        params = TraceParams(streams=4, duration=300, events=12, seed=3)
        gen_trace(out, params)
        stats = replay(out)
        assert stats.stored_count == params.streams + params.events

    def test_command_writes_trace_and_summary(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert main(["gen-trace", "--out", str(out), "--streams", "2", "--duration", "5",
                     "--events", "1", "--seed", "3"]) == 0
        assert capsys.readouterr().out == f"wrote 10 lines, 1 events to {out}\n"
        assert len(out.read_text().splitlines()) == 10

    @pytest.mark.parametrize("flags, error", [
        (["--streams", "0"], "streams, duration and rate must be >= 1"),
        (["--duration", "0"], "streams, duration and rate must be >= 1"),
        (["--rate", "0"], "streams, duration and rate must be >= 1"),
        (["--events", "-1"], "events must be >= 0"),
        (["--duration", "86401"], "duration is capped at one day"),
        (["--streams", "1", "--duration", "3", "--events", "3"],
         "more events than available trace positions"),
    ], ids=["streams", "duration", "rate", "events", "day-cap", "too-many-events"])
    def test_bad_params_exit_1_with_one_line(self, tmp_path, capsys, flags, error):
        out = tmp_path / "t.jsonl"
        assert main(["gen-trace", "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"gen-trace error: {error}\n"
        assert not out.exists()

    def test_missing_out_directory_exits_1_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "missing" / "t.jsonl"
        assert main(["gen-trace", "--out", str(out), "--duration", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("os error: ") and err.count("\n") == 1
        assert "No such file or directory" in err and not out.parent.exists()

    def test_noise_below_thresholds(self):
        # noise alone must never store a reading, or stored != streams + events
        cfg = DedupConfig()
        assert 0 <= tracegen.TEMPERATURE_NOISE < cfg.temperature
        assert 0 <= tracegen.ILLUMINATION_NOISE < cfg.illumination
        assert 0 <= tracegen.HUMIDITY_NOISE < cfg.humidity


class TestReplayCommand:
    def test_constant_single_stream(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        gen_trace(trace, TraceParams(streams=1, duration=100, events=0, seed=2))
        assert main(["replay", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "input_count=100" in out
        assert "stored_count=1" in out
        assert "reduction_factor=100.00" in out

    def test_huge_relative_jump_counted(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("".join(json.dumps({
            "type": "reading", "stream": "s1", "date": "2007-04-11",
            "time": f"12000{i}", "temperature": temp, "humidity": 30.0,
            "illumination": 300.0}) + "\n" for i, temp in enumerate((0.0, 1e200))))
        assert main(["replay", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "input_count=2" in out and "stored_count=2" in out

    def test_unknown_trace_path(self, capsys):
        assert main(["replay", "/no/such/trace"]) == 1

    @pytest.mark.parametrize("content", ['{"presence": 0.5}', '{"date": 1}'],
                             ids=["presence", "date"])
    def test_numeric_categorical_threshold_exits_1_with_one_line(self, tmp_path, capsys,
                                                                 content):
        # it used to pass, then every comparison with a baseline raised TypeError
        trace = tmp_path / "trace.jsonl"
        gen_trace(trace, TraceParams(streams=1, duration=5, events=0, seed=4))
        overrides = tmp_path / "thresholds.json"
        overrides.write_text(content)
        assert main(["replay", "--thresholds", str(overrides), str(trace)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("replay error: threshold for ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize("content, reason", [*BAD_THRESHOLD_VALUES, DEEP_THRESHOLDS],
                             ids=["bool-value", "huge-int", "numeric-string",
                                  "deep-nesting"])
    def test_bad_threshold_value_exits_1_with_one_line(self, tmp_path, capsys, content,
                                                       reason):
        trace = tmp_path / "trace.jsonl"
        gen_trace(trace, TraceParams(streams=1, duration=5, events=0, seed=4))
        overrides = tmp_path / "thresholds.json"
        overrides.write_text(content)
        assert main(["replay", "--thresholds", str(overrides), str(trace)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"replay error: {reason}\n"

    def test_threshold_overrides_change_outcome(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        gen_trace(trace, TraceParams(streams=1, duration=50, events=0, seed=4))
        overrides = tmp_path / "thresholds.json"
        overrides.write_text('{"temperature": 0.001}')
        stats_default = replay(trace)
        assert stats_default.stored_count == 1
        assert main(["replay", "--thresholds", str(overrides), str(trace)]) == 0
        out = capsys.readouterr().out
        stored = int(out.split("stored_count=")[1].splitlines()[0])
        assert stored > 1
