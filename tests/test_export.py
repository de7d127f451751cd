"""Tests for the CSV figure-data exporters (repro.analysis.export)."""

import csv
import io

import pytest

from repro.analysis.bandwidth import bandwidth_by_path
from repro.analysis.export import (
    bandwidth_records,
    isd_group_records,
    latency_records,
    loss_records,
    reachability_records,
    to_csv,
    write_csv,
)
from repro.analysis.latency import latency_by_isd_group, latency_by_path
from repro.analysis.loss import loss_by_path
from repro.analysis.reachability import reachability


class TestRecordBuilders:
    def test_reachability_records(self, world_host):
        records = reachability_records(reachability(world_host))
        assert sum(r["destinations"] for r in records) == 21
        assert all(set(r) == {"min_hops", "destinations"} for r in records)

    def test_latency_records(self, measured_world):
        records = latency_records(latency_by_path(measured_world.db, 1))
        assert len(records) == 22
        first = records[0]
        assert first["path_id"] == "1_0"
        assert first["whisker_low"] <= first["median"] <= first["whisker_high"]

    def test_isd_group_records(self, measured_world):
        records = isd_group_records(latency_by_isd_group(measured_world.db, 1))
        assert any(r["isds"] == "16+17+19" for r in records)
        assert all(r["paths"] >= 1 for r in records)

    def test_bandwidth_records_four_series_per_path(self, measured_world):
        series = bandwidth_by_path(measured_world.db, 3, target_mbps=12.0)
        records = bandwidth_records(series)
        assert len(records) == 4 * len(series)
        keys = {(r["direction"], r["packet"]) for r in records}
        assert keys == {("up", "small"), ("up", "mtu"), ("down", "small"), ("down", "mtu")}

    def test_loss_records(self, measured_world):
        records = loss_records(loss_by_path(measured_world.db, 1))
        assert all(r["measurements"] >= 1 for r in records)
        per_path = {}
        for r in records:
            per_path[r["path_id"]] = per_path.get(r["path_id"], 0) + r["measurements"]
        assert all(total == 2 for total in per_path.values())


class TestSerializers:
    RECORDS = [
        {"a": 1, "b": "x", "outliers": [1.5, 2.5]},
        {"a": 2, "b": "y", "outliers": []},
    ]

    def test_csv_roundtrip(self):
        text = to_csv(self.RECORDS)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert rows[0]["a"] == "1"
        assert rows[0]["outliers"] == "1.5;2.5"
        assert rows[1]["outliers"] == ""

    def test_csv_empty(self):
        assert to_csv([]) == ""

    def test_file_writers(self, tmp_path):
        csv_path = tmp_path / "out.csv"
        write_csv(str(csv_path), self.RECORDS)
        assert csv_path.read_text().startswith("a,b,outliers")

    def test_full_pipeline_to_disk(self, measured_world, tmp_path):
        records = latency_records(latency_by_path(measured_world.db, 1))
        path = tmp_path / "fig5.csv"
        write_csv(str(path), records)
        rows = list(csv.DictReader(io.StringIO(path.read_text())))
        assert len(rows) == 22
        assert {r["hop_count"] for r in rows} == {"6", "7"}
