"""Durable snapshots through the ResultCache envelope machinery."""

import asyncio
import pickle

import pytest

from repro.api import ExecutionPolicy, spec_for
from repro.serve import (
    PredictRequest,
    PredictionService,
    ServeConfig,
    load_snapshot,
    save_snapshot,
    snapshot_key,
)


def test_snapshot_key_binds_label():
    key_a, material_a = snapshot_key("nightly")
    key_b, _ = snapshot_key("weekly")
    assert key_a != key_b
    assert len(key_a) == 64
    assert "serve-snapshot" in material_a
    assert snapshot_key("nightly")[0] == key_a  # deterministic


def test_missing_snapshot_is_none(tmp_path):
    assert load_snapshot(str(tmp_path), "never-saved") is None


def test_round_trip_through_cache(tmp_path):
    async def capture():
        async with PredictionService(ServeConfig(n_shards=2)) as service:
            await service.open_session("s", spec_for("hmp.local",
                                                     size=64, history=2))
            for i in range(12):
                await service.request(PredictRequest(
                    "s", op="step", pc=0x80, outcome=0, seq=i))
            return await service.snapshot_payload()

    payload = asyncio.run(capture())
    key = save_snapshot(str(tmp_path), "test", payload)
    assert len(key) == 64

    loaded = load_snapshot(str(tmp_path), "test")
    assert loaded is not None
    assert set(loaded["sessions"]) == {"s"}

    async def restore():
        async with PredictionService(ServeConfig(n_shards=1)) as service:
            assert await service.restore_payload(loaded) == 1
            r = await service.request(PredictRequest("s", op="predict",
                                                     pc=0x80))
            return r

    r = asyncio.run(restore())
    assert r.ok and r.result == 0  # trained miss state survived disk


def test_corrupt_snapshot_degrades_to_none(tmp_path):
    payload = {"schema": 1, "sessions": {}}
    save_snapshot(str(tmp_path), "x", payload)
    # Scribble over every cache file: loads must degrade, not explode.
    count = 0
    for path in tmp_path.rglob("*"):
        if path.is_file():
            path.write_bytes(b"\x00garbage")
            count += 1
    assert count > 0
    assert load_snapshot(str(tmp_path), "x") is None


def test_unknown_schema_fails_loudly():
    """A schema-1 payload (one counter object per table cell) must be
    refused at restore, not unpickled into packed predictors that fail
    mid-request later."""
    spec = spec_for("binary.gshare", history=5)
    stale = {"schema": 1, "sessions": {"s": {
        "spec": spec.to_json_dict(), "predictor": None, "served": 3}}}

    async def main():
        async with PredictionService(ServeConfig(n_shards=2)) as service:
            for payload in (stale, {"sessions": {}}):
                with pytest.raises(ValueError, match="schema"):
                    await service.restore_payload(payload)
            return service.stats()["totals"]["sessions"]

    assert asyncio.run(main()) == 0


def test_thousand_gshare_sessions_pickle_small():
    """Packed tables: 1000 default gshare sessions (2048 two-bit
    counters each) are a few KB apiece, not one object per cell."""
    async def capture():
        config = ServeConfig(n_shards=2,
                             policy=ExecutionPolicy(backend="reference"))
        async with PredictionService(config) as service:
            spec = spec_for("binary.gshare")
            for i in range(1000):
                await service.open_session(f"s{i}", spec)
            return await service.snapshot_payload()

    payload = asyncio.run(capture())
    assert payload["schema"] == 2
    assert len(payload["sessions"]) == 1000
    size = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    assert size < 4 * 1024 * 1024, size
