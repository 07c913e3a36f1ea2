"""Durable service snapshots through the ResultCache envelope.

A snapshot is the quiesced session payload of
:meth:`~repro.serve.service.PredictionService.snapshot_payload`, stored
as a content-addressed pickle envelope with the exact machinery of
:mod:`repro.parallel.cache`: the SHA-256 key binds the snapshot label
and package version, writes are atomic renames, and loads re-verify
schema/version/material — a stale or corrupted snapshot degrades to
"not found" instead of feeding garbage predictor state back into a
service.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.parallel.cache import ResultCache, content_key, key_material

#: Version of the ``{"schema", "sessions"}`` payload.  2: predictor
#: counter tables are packed ``CounterTable`` buffers (schema 1 held one
#: ``SaturatingCounter`` object per cell and cannot be restored).
SNAPSHOT_SCHEMA = 2


def snapshot_key(label: str) -> Tuple[str, str]:
    """(hex key, material) addressing one labelled snapshot."""
    material = key_material("serve-snapshot", label)
    return content_key(material), material


def save_snapshot(root: str, label: str,
                  payload: Dict[str, object]) -> str:
    """Store a snapshot payload under ``root``; returns its hex key."""
    cache = ResultCache(root)
    key, material = snapshot_key(label)
    cache.store(key, material, payload)
    return key


def load_snapshot(root: str, label: str) -> Optional[Dict[str, object]]:
    """The stored payload, or None when absent/stale/corrupt."""
    cache = ResultCache(root)
    key, material = snapshot_key(label)
    hit, payload = cache.load(key, material)
    return payload if hit else None
