"""One fleet worker process: a PredictionService behind a frame link.

Spawned by :class:`repro.serve.fleet.ServeFleet` as ``python -m
repro.serve.worker --connect HOST:PORT --token T --name wN``, the
worker dials back to the router's loopback listener, authenticates
with the spawn token, receives its :class:`~repro.serve.config.
ServeConfig` (and optional :class:`~repro.robust.faults.
FleetFaultPlan`) over the link, and then serves frames
(:func:`repro.serve.protocol.read_frame` framing, module docstring of
:mod:`repro.serve.wal` for the record vocabulary):

====================  =====================================================
router → worker        worker → router
====================  =====================================================
``("batch", wires)``   ``("results", wires)`` when the batch completes
``("open", sid, spec)`` ``("ctl", None)`` / ``("ctl_err", message)``
``("close", sid)``     ``("ctl", served_count)``
``("evict", sids)``    ``("ctl", n_closed)`` (rebalance handoff)
``("restore", chunk)`` ``("ctl", n_sessions)``
``("snapshot", tok)``  ``("snap_part", tok, sessions)``… then
                       ``("snap_done", tok, schema)`` — state ships in
                       bounded chunks; one frame per ~1k sessions
``("ping",)``          ``("pong",)``
``("stats",)``         ``("ctl", totals)`` — live service totals (the
                       hottrace / degrade counters ``fleet.stats`` and
                       ``serve top`` surface without waiting for drain)
``("drain",)``         ``("bye",)`` then a clean exit
====================  =====================================================

Ordering contract: the worker submits every request of a ``batch``
frame, in frame order, from the single reader task before touching the
next frame — so per-session admission order at the router *is*
per-session execution order at the worker, and control frames are
barriers exactly like the single-process service's controls.  Batch
*responses* are gathered and sent by detached tasks, so a slow batch
never stalls the link.

The fault plan runs here, deliberately in the middle of that loop: a
doomed worker ``os._exit``\\ s after submitting its ``kill_after_served``-th
request — mid-batch, unflushed responses and all — which is precisely
the crash the router's WAL replay must make unobservable.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Set

import asyncio

from repro.api import PredictorSpec
from repro.serve.config import ServeConfig
from repro.serve.protocol import (
    ERR_RETRY,
    PredictRequest,
    encode_frame,
    read_frame,
    request_from_wire,
    response_to_wire,
)
from repro.serve.service import PredictionService

#: Sessions per snapshot chunk frame.  Bounds any single frame well
#: under MAX_FRAME_BYTES however many sessions a worker holds (the
#: million-session load model makes "all of them in one frame" a
#: non-starter).
SNAP_CHUNK_SESSIONS = 1024


class _WriteGate:
    """Serialise frame writes from the reader loop and the detached
    batch-sender tasks onto one StreamWriter."""

    def __init__(self, writer: "asyncio.StreamWriter") -> None:
        self.writer = writer
        self.lock = asyncio.Lock()

    async def send(self, payload: object) -> None:
        async with self.lock:
            self.writer.write(encode_frame(payload))
            await self.writer.drain()


class _Doom:
    """Evaluates the fault plan on the worker's hot path."""

    def __init__(self, plan, index: int) -> None:
        self.kill_point: Optional[int] = (
            plan.kill_point(index) if plan is not None else None)
        self.stall_s: float = (plan.stall_seconds(index)
                               if plan is not None else 0.0)
        self.submitted = 0

    def tick(self) -> None:
        """One request is about to be submitted; die on schedule."""
        self.submitted += 1
        if self.kill_point is not None and self.submitted > self.kill_point:
            # A mid-batch hard death: no drain, no flush, no goodbye.
            os._exit(86)


async def _run_batch(service: PredictionService, gate: _WriteGate,
                     requests: List[PredictRequest], doom: _Doom) -> None:
    """Submit one batch in order (caller context: the reader task),
    then gather + reply from a detached task."""
    futures = []
    for request in requests:
        doom.tick()
        future = service.submit(request)
        futures.append(future)
    responses = [await f for f in futures]
    for response in responses:
        # The router sizes our queues so admission never rejects; a
        # retry-after here means that invariant broke and silently
        # skipping the state update would corrupt WAL-replay recovery.
        assert response.error != ERR_RETRY, (
            "worker shard rejected an accepted request — router "
            "outstanding cap exceeds worker queue depth")
    await gate.send(("results", [response_to_wire(r)
                                 for r in responses]))


async def _worker(host: str, port: int, token: str, name: str) -> int:
    reader, writer = await asyncio.open_connection(host, port)
    gate = _WriteGate(writer)
    await gate.send(("hello", token, name, os.getpid()))
    kind, *rest = await read_frame(reader)
    if kind != "config":
        raise RuntimeError(f"expected config frame, got {kind!r}")
    config, plan, index = rest
    assert isinstance(config, ServeConfig)
    doom = _Doom(plan, index)
    service = PredictionService(config)
    await service.start()
    pending: Set["asyncio.Task"] = set()
    try:
        while True:
            try:
                frame = await read_frame(reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                break  # router gone: nothing to answer to
            kind = frame[0]
            if kind == "batch":
                if doom.stall_s:
                    await asyncio.sleep(doom.stall_s)
                requests = [request_from_wire(w) for w in frame[1]]
                task = asyncio.ensure_future(
                    _run_batch(service, gate, requests, doom))
                pending.add(task)
                task.add_done_callback(pending.discard)
                # _run_batch submits synchronously up to its first
                # await; yield so submission happens before the next
                # frame is parsed, preserving admission order.
                await asyncio.sleep(0)
            elif kind == "open":
                _, session_id, spec_dict = frame
                try:
                    await service.open_session(
                        session_id, PredictorSpec.from_json_dict(spec_dict))
                    await gate.send(("ctl", None))
                except Exception as exc:
                    await gate.send(("ctl_err",
                                     f"{type(exc).__name__}: {exc}"))
            elif kind == "close":
                served = await service.close_session(frame[1])
                await gate.send(("ctl", served))
            elif kind == "evict":
                closed = 0
                for session_id in frame[1]:
                    if await service.close_session(session_id) is not None:
                        closed += 1
                await gate.send(("ctl", closed))
            elif kind == "restore":
                try:
                    count = await service.restore_payload(frame[1])
                except ValueError as exc:
                    await gate.send(("ctl_err",
                                     f"{type(exc).__name__}: {exc}"))
                else:
                    await gate.send(("ctl", count))
            elif kind == "snapshot":
                # Controls are shard barriers: the payload reflects
                # every request submitted before this frame.
                payload = await service.snapshot_payload()
                items = list(payload["sessions"].items())
                token = frame[1]
                for i in range(0, len(items), SNAP_CHUNK_SESSIONS):
                    chunk = dict(items[i:i + SNAP_CHUNK_SESSIONS])
                    await gate.send(("snap_part", token, chunk))
                await gate.send(("snap_done", token, payload["schema"]))
            elif kind == "ping":
                await gate.send(("pong",))
            elif kind == "stats":
                await gate.send(("ctl", service.stats()["totals"]))
            elif kind == "drain":
                if pending:
                    await asyncio.gather(*pending, return_exceptions=True)
                await service.stop()
                await gate.send(("bye", service.stats()["totals"]))
                break
            else:
                raise RuntimeError(f"unknown frame kind {kind!r}")
    finally:
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if service.accepting:
            await service.stop()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):  # pragma: no cover
            pass
    return 0


def main(argv=None) -> int:
    """Entry point for ``python -m repro.serve.worker``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.worker",
        description="Fleet worker process (spawned by repro.serve.fleet)")
    parser.add_argument("--connect", required=True,
                        help="router listener as HOST:PORT")
    parser.add_argument("--token", required=True,
                        help="spawn token expected by the router")
    parser.add_argument("--name", required=True, help="worker name")
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    return asyncio.run(_worker(host, int(port), args.token, args.name))


if __name__ == "__main__":
    sys.exit(main())
