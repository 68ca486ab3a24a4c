"""Tests for the BENCH_<name>.json artifact layer."""

import datetime
import json
import os

from repro.experiments.bench import (
    BENCH_SCHEMA_VERSION,
    VOLATILE_BENCH_FIELDS,
    BenchRecord,
    comparable_dict,
    measure,
    write_bench_json,
)


class TestArtifactPayload:
    def test_timestamp_is_iso8601_utc(self):
        payload = BenchRecord(name="x").to_dict()
        stamp = datetime.datetime.fromisoformat(payload["timestamp"])
        assert stamp.tzinfo is not None
        assert stamp.utcoffset() == datetime.timedelta(0)
        # Seconds precision: no fractional part in the serialized form.
        assert "." not in payload["timestamp"]

    def test_provenance_fields_present(self):
        payload = BenchRecord(name="x").to_dict()
        assert payload["schema_version"] == BENCH_SCHEMA_VERSION
        assert isinstance(payload["git_rev"], str) and payload["git_rev"]
        assert isinstance(payload["host"], str)
        assert payload["cpu_count"] == os.cpu_count()
        assert isinstance(payload["python"], str)

    def test_comparable_dict_strips_volatile_fields(self):
        payload = BenchRecord(name="x", wall_time_s=1.5).to_dict()
        comparable = comparable_dict(payload)
        assert not VOLATILE_BENCH_FIELDS & set(comparable)
        assert comparable["name"] == "x"
        assert "jobs" in comparable

    def test_comparable_dicts_of_two_records_match(self):
        first = BenchRecord(name="x", wall_time_s=1.0).to_dict()
        second = BenchRecord(name="x", wall_time_s=99.0).to_dict()
        assert comparable_dict(first) == comparable_dict(second)

    def test_write_reads_back(self, tmp_path):
        record = BenchRecord(name="roundtrip")
        path = write_bench_json(record, tmp_path)
        assert path.name == "BENCH_roundtrip.json"
        payload = json.loads(path.read_text())
        assert payload["name"] == "roundtrip"
        assert "timestamp" in payload


class TestMeasure:
    def test_measure_fills_wall_time(self):
        with measure("region") as record:
            sum(range(1000))
        assert record.wall_time_s > 0.0
        assert record.jobs >= 1
