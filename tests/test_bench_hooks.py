"""The benchmark's tracing wraps engine functions by name (bench/tracing.py).

A refactor that drops or renames one of those names would leave
``bench/run.py --trace 1`` broken while every engine test passes; this runs
the hooks the way the benchmark does, in a fresh process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
import tracing
from homectx import ingest

tracer = tracing.Tracer()
tracing.install(tracer)
ingest.replay(sys.argv[1])
print(json.dumps(tracing.summarize(tracer.spans)))
"""


def test_tracing_hooks_cover_a_replay(tmp_path):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(
        json.dumps({"type": "reading", "stream": "s1", "date": "2007-04-11",
                    "time": f"18000{i}", "temperature": 21.0 + 5 * i,
                    "humidity": 32.0, "illumination": 350.0,
                    "present": ["Son"]}) + "\n"
        for i in range(5)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(trace)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    layer = json.loads(done.stdout.splitlines()[-1])
    assert layer["ingest.parse_reading_payload.calls_per_reading"] == 1.0
    # every wrapped layer on the per-line path was timed
    assert layer["ingest.json_decode.us_per_line"] > 0
    assert layer["ingest.parse_reading_payload.us_per_call"] > 0
    assert layer["dedup.should_store.us_per_call"] > 0
    # the decisions reach the tracing: each reading is 5 degrees warmer
    assert layer["dedup.triggered.temperature"] >= 1
    assert layer["ontology.load_home_model.ms_per_call"] > 0
    # the first stored reading reasons, through ingest.reason_at and ingest.evaluate
    assert layer["ingest.reason_at.calls"] >= 1
    assert layer["sparql.evaluate.ms_per_call"] > 0
