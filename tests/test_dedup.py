import json
import math
import random
from dataclasses import replace
from datetime import date, timedelta

import pytest

from conftest import rand_reading
from homectx.dedup import (
    DedupConfig,
    load_threshold_overrides,
    should_store,
)
from homectx.ingest import ContextEngine
from homectx.ontology import EnvironmentReading, TimeOfDay
from homectx.rdf import home

CFG = DedupConfig()


def distance(prev, curr, cfg=CFG):
    return should_store(prev, curr, cfg).distance


def reading(temp=20.0, hum=30.0, illum=400.0, persons=(), day=11,
            time=TimeOfDay(11, 55, 0)):
    return EnvironmentReading(
        humidity=hum, temperature=temp, illumination=illum,
        date=date(2007, 4, day), time=time,
        persons_present=frozenset(home(p) for p in persons),
    )


def delta(prev, curr, factor, cfg=CFG):
    """The named factor's delta, as should_store reports it."""
    return {fd.name: fd.d for fd in should_store(prev, curr, cfg).deltas}[factor]


class TestNormalizedDelta:
    """The per-factor delta, read from ``should_store(...).deltas``."""

    def test_identity(self):
        assert delta(reading(temp=20.0), reading(temp=20.0), "temperature") == 0.0

    def test_presence_change_is_one(self):
        assert delta(reading(), reading(persons=("Father",)), "presence") == 1.0

    def test_relative_change(self):
        assert delta(reading(temp=20.0), reading(temp=23.0), "temperature") == \
            pytest.approx(0.15)

    def test_zero_baseline_uses_epsilon(self):
        assert delta(reading(illum=0.0), reading(illum=1.0), "illumination") == \
            pytest.approx(1e9)

    def test_non_finite_rejected(self):
        # refused while the readings are built, so no comparison sees one
        for prev, curr in [(float("inf"), 1.0), (1.0, float("-inf")), (float("nan"), 1.0)]:
            with pytest.raises(ValueError, match="sensor values must be finite numbers"):
                should_store(reading(temp=prev), reading(temp=curr), CFG)

    def test_numeric_delta_scales_linearly(self):
        rng = random.Random(5)
        for _ in range(100):
            prev = rng.uniform(1, 100)
            step = rng.uniform(0, 10)
            d1 = delta(reading(temp=prev), reading(temp=prev + step), "temperature")
            d2 = delta(reading(temp=prev), reading(temp=prev + 2 * step), "temperature")
            assert d2 == pytest.approx(2 * d1)


class TestDistance:
    def test_identical_readings(self):
        r = reading()
        assert distance(r, r, CFG) == 0.0

    def test_presence_only_change_is_full_distance(self):
        assert distance(reading(), reading(persons=("Father",)), CFG) == \
            pytest.approx(1.0, abs=1e-12)

    def test_single_numeric_change(self):
        assert distance(reading(temp=20), reading(temp=23), CFG) == \
            pytest.approx(0.15)

    def test_euclidean_aggregate(self):
        d = distance(reading(temp=20, hum=30), reading(temp=23, hum=33), CFG)
        assert d == pytest.approx(math.sqrt(0.15 ** 2 + 0.1 ** 2))

    def test_squares_summed_as_powers(self):
        # d * d in place of d ** 2 rounds the humidity square differently
        # here, and the distance moves in its last bit
        d = distance(reading(temp=20.0, hum=30.0), reading(temp=19.84, hum=28.598))
        assert d == math.sqrt((abs(19.84 - 20.0) / 20.0) ** 2
                              + (abs(28.598 - 30.0) / 30.0) ** 2)
        assert d == 0.04741312523388906

    def test_presence_change_never_decreases_distance(self):
        rng = random.Random(17)
        for _ in range(100):
            a, b = rand_reading(rng), rand_reading(rng)
            b_same = replace(b, persons_present=a.persons_present)
            b_diff = replace(b, persons_present=a.persons_present | {home("Visitor")})
            assert distance(a, b_diff, CFG) >= distance(a, b_same, CFG)
            assert should_store(a, b_diff, CFG).store is True


class TestShouldStore:
    def test_no_baseline_stores(self):
        decision = should_store(None, reading(), CFG)
        assert decision == (True, 0.0, ())

    def test_sub_threshold_drop(self):
        decision = should_store(reading(temp=20), reading(temp=21), CFG)
        assert decision.store is False

    def test_supra_threshold_store(self):
        assert should_store(reading(temp=20), reading(temp=23), CFG).store is True

    def test_any_presence_change_stores(self):
        assert should_store(reading(persons=("Father",)), reading(), CFG).store is True
        assert should_store(reading(), reading(persons=("Son",)), CFG).store is True

    def test_date_change_stores(self):
        assert should_store(reading(day=11), reading(day=12), CFG).store is True

    @pytest.mark.parametrize("factor,base,rel,expect", [
        ("temperature", 20.0, 0.099, False),
        ("temperature", 20.0, 0.101, True),
        ("humidity", 30.0, 0.349, False),
        ("humidity", 30.0, 0.351, True),
        ("illumination", 400.0, 0.499, False),
        ("illumination", 400.0, 0.501, True),
    ])
    def test_threshold_boundaries(self, factor, base, rel, expect):
        kwargs = {"temperature": "temp", "humidity": "hum",
                  "illumination": "illum"}
        prev = reading(**{kwargs[factor]: base})
        curr = reading(**{kwargs[factor]: base * (1 + rel)})
        assert should_store(prev, curr, CFG).store is expect

    def test_matches_brute_force_on_random_pairs(self):
        rng = random.Random(23)
        for _ in range(300):
            prev, curr = rand_reading(rng), rand_reading(rng)
            expect = (
                abs(curr.temperature - prev.temperature)
                / max(abs(prev.temperature), 1e-9) > 0.1
                or abs(curr.illumination - prev.illumination)
                / max(abs(prev.illumination), 1e-9) > 0.5
                or abs(curr.humidity - prev.humidity)
                / max(abs(prev.humidity), 1e-9) > 0.35
                or curr.persons_present != prev.persons_present
                or curr.date != prev.date
            )
            assert should_store(prev, curr, CFG).store is expect


def reference_decision(prev, curr, cfg):
    """The straightforward dedup loop, kept as the referee for should_store:
    the delta formula per factor, the categorical-or-threshold rule, then the
    root of the squares summed in factor order.  Returns (store, distance,
    deltas as (name, d, exceeded))."""
    values = {"temperature": lambda r: r.temperature,
              "illumination": lambda r: r.illumination,
              "humidity": lambda r: r.humidity,
              "presence": lambda r: r.persons_present,
              "date": lambda r: r.date}
    thresholds = {"temperature": cfg.temperature, "illumination": cfg.illumination,
                  "humidity": cfg.humidity, "presence": None, "date": None}
    deltas = []
    for name in values:  # the factor order
        get, threshold = values[name], thresholds[name]
        if threshold is None:
            d = 0.0 if get(prev) == get(curr) else 1.0
        else:
            d = abs(get(curr) - get(prev)) / max(abs(get(prev)), 1e-9)
        exceeded = d == 1.0 if threshold is None else d > threshold
        deltas.append((name, d, exceeded))
    total = 0.0
    for _, d, _ in deltas:
        total += d ** 2
    return any(e for _, _, e in deltas), math.sqrt(total), deltas


def oracle_pairs(rng, n):
    """Random reading pairs: unrelated ones, which nearly always store, and
    near copies of the baseline whose numeric factors each move or stay, so
    they store or drop around the thresholds; some baselines have zero
    illumination (the epsilon case)."""
    def nudge(value, spread):
        return value * (1 + rng.uniform(-spread, spread)) if rng.random() < 0.6 else value

    for _ in range(n):
        prev = rand_reading(rng)
        if rng.random() < 0.2:
            prev = replace(prev, illumination=0.0)
        if rng.random() < 0.3:
            yield prev, rand_reading(rng)
            continue
        curr = replace(
            prev,
            temperature=nudge(prev.temperature, 0.12),
            humidity=min(100.0, nudge(prev.humidity, 0.4)),
            illumination=nudge(prev.illumination, 0.6),
            time=TimeOfDay(rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59)),
        )
        if rng.random() < 0.1:
            curr = replace(curr, persons_present=prev.persons_present ^ {home("Son")})
        if rng.random() < 0.1:
            curr = replace(curr, date=prev.date + timedelta(days=1))
        yield prev, curr


class TestOracle:
    @pytest.mark.parametrize("which, expect", [
        ("default", DedupConfig()),
        ('{"temperature": "categorical"}', DedupConfig(temperature=None)),
        ('{"temperature": "categorical", "illumination": "categorical", '
         '"humidity": "categorical", "presence": "categorical", "date": "categorical"}',
         DedupConfig(None, None, None)),
        ('{"temperature": 0, "illumination": 0, "humidity": 0}', DedupConfig(0.0, 0.0, 0.0)),
        ('{"temperature": 0.02, "illumination": "categorical", "humidity": 1e300, '
         '"date": "categorical"}', DedupConfig(0.02, None, 1e300)),
    ], ids=["default", "temperature-categorical", "all-categorical", "zero-thresholds",
            "mixed-file"])
    def test_should_store_matches_reference(self, which, expect, tmp_path):
        if which == "default":
            cfg = CFG
        else:
            path = tmp_path / "thresholds.json"
            path.write_text(which)
            cfg = load_threshold_overrides(path)
        assert cfg == expect
        rng = random.Random(59)
        verdicts = set()
        for prev, curr in oracle_pairs(rng, 2000):
            store, dist, deltas = reference_decision(prev, curr, cfg)
            decision = should_store(prev, curr, cfg)
            assert decision.store == store
            assert decision.distance == dist
            assert [(d.name, d.d, d.exceeded) for d in decision.deltas] == deltas
            verdicts.add(store)
        assert verdicts == {True, False}


def admit(engine, stream, reading):
    """Send one reading through the engine's admission path; returns the ack."""
    ack, _ = engine.handle_reading({
        "type": "reading", "stream": stream, "date": reading.date.isoformat(),
        "time": reading.time.label, "temperature": reading.temperature,
        "humidity": reading.humidity, "illumination": reading.illumination,
        "present": sorted(p.local for p in reading.persons_present)})
    return ack


def filter_with_engine(items):
    """Dedup (stream, reading) pairs through one ContextEngine; returns
    (stored pairs, engine)."""
    engine = ContextEngine(cfg=CFG)
    stored = [(s, r) for s, r in items if admit(engine, s, r)["stored"]]
    return stored, engine


class TestFilterStream:
    def test_constant_stream_stores_once(self):
        stored, engine = filter_with_engine([("s", reading())] * 100)
        assert engine.stored_count == 1
        assert engine.input_count == 100
        assert engine.input_count / engine.stored_count == 100

    def test_presence_flapping_stores_everything(self):
        items = []
        for i in range(50):
            persons = ("Father",) if i % 2 else ()
            items.append(("s", reading(persons=persons,
                                       time=TimeOfDay(12, i // 60, i % 60))))
        stored, engine = filter_with_engine(items)
        assert engine.stored_count == 50

    def test_per_stream_baselines(self):
        items = [("a", reading()), ("b", reading(temp=5)),
                 ("a", reading()), ("b", reading(temp=5))]
        stored, engine = filter_with_engine(items)
        assert engine.stored_count == 2
        assert [s for s, _ in stored] == ["a", "b"]

    def test_timestamp_order_violation(self):
        engine = ContextEngine(cfg=CFG)
        assert admit(engine, "s", reading(time=TimeOfDay(12, 0, 0)))["accepted"] is True
        ack = admit(engine, "s", reading(time=TimeOfDay(11, 0, 0)))
        assert ack["accepted"] is False
        assert "timestamp order" in ack["error"]
        assert engine.input_count == 1

    def test_streaming_equals_one_by_one_replay(self):
        rng = random.Random(41)
        base = date(2007, 4, 11)
        readings = []
        for i in range(200):
            r = rand_reading(rng)
            readings.append(replace(r, date=base + timedelta(days=i // 50),
                                    time=TimeOfDay(i % 24, 0, 0)))
        readings.sort(key=lambda r: (r.date, r.time.hour))
        stored, _ = filter_with_engine([("s", r) for r in readings])
        baseline = None
        manual = []
        for r in readings:
            if should_store(baseline, r, CFG).store:
                manual.append(r)
                baseline = r
        assert [r for _, r in stored] == manual

    def test_drift_accumulates_against_stored_baseline(self):
        # 2% steps are each sub-threshold but compound past 10% eventually
        items = [("s", reading(temp=20 * (1.02 ** i), time=TimeOfDay(10, 0, i)))
                 for i in range(10)]
        stored, engine = filter_with_engine(items)
        assert engine.stored_count > 1


class TestConfig:
    def test_threshold_overrides_file(self, tmp_path):
        path = tmp_path / "thresholds.json"
        path.write_text('{"temperature": 0.5, "humidity": 0, "date": "categorical"}')
        cfg = load_threshold_overrides(path)
        assert cfg == DedupConfig(temperature=0.5, humidity=0.0)
        assert type(cfg.humidity) is float

    @pytest.mark.parametrize("threshold", [-0.5, math.inf, math.nan])
    def test_negative_or_non_finite_threshold_rejected(self, tmp_path, threshold):
        message = "threshold for illumination must be finite and >= 0"
        with pytest.raises(ValueError, match=message):
            DedupConfig(illumination=threshold)
        path = tmp_path / "thresholds.json"
        path.write_text(f'{{"illumination": {json.dumps(threshold)}}}')
        with pytest.raises(ValueError, match=message):
            load_threshold_overrides(path)

    @pytest.mark.parametrize("name, threshold", [("presence", 0.5), ("date", 0.0)])
    def test_numeric_threshold_for_categorical_factor_rejected(self, tmp_path, name,
                                                                threshold):
        # a number there would compare a frozenset or date as a number in
        # every should_store with a baseline
        message = f'threshold for {name} must be "categorical"'
        path = tmp_path / "thresholds.json"
        path.write_text(f'{{"{name}": {threshold}}}')
        with pytest.raises(ValueError, match=message):
            load_threshold_overrides(path)

    def test_unknown_override_rejected(self, tmp_path):
        path = tmp_path / "thresholds.json"
        path.write_text('{"wind": 1.0}')
        with pytest.raises(ValueError, match="unknown factors"):
            load_threshold_overrides(path)
