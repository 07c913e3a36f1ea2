"""Workload ``serve_steps``: single ``step`` requests to a one-worker
``ServeFleet`` under open-loop Poisson traffic with Zipf session
popularity and default ``binary.gshare`` sessions.

Roles (one fresh interpreter each, one fresh fleet per phase):

``measure``  2000 rps for 5 s, enough to cross the fleet's first WAL
             compaction, and then the wait for every answer; set-up is
             timed on three fresh fleets.
``untraced`` ``measure`` with one set-up.
``ladder``   binary search of a fixed rate ladder for the highest rate
             that meets the p99 limit with no refusal and no growing
             backlog; ladder fleets get a WAL limit they never reach.
``traced``   ``untraced`` with spans and a WAL poller, then the same
             schedule against an in-process ``PredictionService``, then
             512-step ``replay`` windows against one that traces every
             request, for the per-stage histograms.

Every response is checked, after the timed phase, against a scalar
replay of its session's accepted requests.
"""

from __future__ import annotations

import asyncio
import hashlib
import shutil
import statistics
import struct
import tempfile
import time

from loadgen import (N_SESSIONS, Traffic, build_schedule, percentile,
                     run_open_loop)

_clock = time.perf_counter

STEPS = {
    # The session id space of repro.serve.loadgen's default traffic
    # (about 860 of the 1000 are touched in a nominal phase).  The
    # compaction stall grows with the sessions the fleet holds, so a
    # smaller space would hide most of it.
    "spec": "binary.gshare", "n_sessions": N_SESSIONS,
    # 2000 rps for 5 s crosses the default wal_limit (8192 records,
    # the session opens included) after about 3.6 s.
    "nominal_rps": 2000.0, "nominal_s": 5.0,
    "ladder_base": 2000.0, "rung_s": 1.0, "p99_limit_ms": 50.0,
    # Fleet set-ups timed per nominal phase (the median is reported).
    "setups": 3,
}
#: Replay windows for the per-stage histograms of the traced run.
REPLAY = {"spec": "hmp.hybrid", "chunk_steps": 512, "n_sessions": 64,
          "rate_rps": 20.0, "seconds": 3.0}
#: The max-rate ladder: ``ladder_base * 2 ** (i / 16)``, i < LADDER_STEPS.
LADDER_STEPS = 65
#: Ladder fleets never compact, so a rung measures the steady request
#: path; the nominal phase measures the compaction.
LADDER_WAL_LIMIT = 1 << 30


def ladder() -> list:
    base = STEPS["ladder_base"]
    return [round(base * 2 ** (i / 16), 1) for i in range(LADDER_STEPS)]


def _digest(results) -> int:
    """The ``replay`` response digest, as the protocol defines it."""
    packed = struct.pack(f"<{len(results)}q", *results)
    return int.from_bytes(hashlib.blake2b(packed, digest_size=8).digest(),
                          "big")


def check(schedule, responses, spec) -> int:
    """Responses that disagree with a scalar replay of each session's
    accepted requests (lost and errored ones count too)."""
    from repro.api import build_predictor
    from repro.serve.protocol import ERR_RETRY
    family = spec.family
    predictors = {}
    failed = 0
    for i, response in enumerate(responses):
        if response is None:
            failed += 1
            continue
        if not response.ok:
            failed += response.error != ERR_RETRY
            continue
        sid = schedule.sessions[i]
        predictor = predictors.get(sid)
        if predictor is None:
            predictor = predictors[sid] = build_predictor(
                spec, backend="reference")
        if schedule.chunk_steps == 1:
            pcs, outcomes = (schedule.payloads[i][0],), \
                (schedule.payloads[i][1],)
        else:
            pcs, outcomes = schedule.payloads[i]
        results = []
        for pc, outcome in zip(pcs, outcomes):
            if family == "binary":
                results.append(int(predictor.predict(pc).outcome))
            else:
                results.append(int(predictor.predict_hit(pc)))
            predictor.update(pc, bool(outcome))
        expected = results[0] if schedule.chunk_steps == 1 \
            else _digest(results)
        failed += response.result != expected
    return failed


def make_requests(schedule) -> list:
    from repro.serve.protocol import PredictRequest
    requests = []
    for i, (sid, payload) in enumerate(zip(schedule.sessions,
                                           schedule.payloads)):
        if schedule.chunk_steps == 1:
            requests.append(PredictRequest(sid, op="step", pc=payload[0],
                                           outcome=payload[1], seq=i))
        else:
            requests.append(PredictRequest(sid, op="replay", seq=i,
                                           pcs=payload[0],
                                           outcomes=payload[1]))
    return requests


def summary(outcome) -> dict:
    lat = sorted(outcome.latencies_ms)
    return {
        "sent": outcome.sent, "succeeded": outcome.succeeded,
        "refused": outcome.refused, "errored": outcome.errored,
        "lost": outcome.lost,
        "p50_ms": percentile(lat, 0.50), "p99_ms": percentile(lat, 0.99),
        "lag_p99_ms": percentile(sorted(outcome.lag_ms), 0.99),
        "stall_ms": outcome.stall_ms, "wall_s": outcome.wall_s,
        "backlog_at_end": outcome.backlog_at_end,
        "steps_per_s": (outcome.succeeded / outcome.wall_s
                        if outcome.wall_s > 0 else 0.0),
    }


def run(job, start: float) -> dict:
    return asyncio.run(_main(job, start))


async def _main(job, start: float) -> dict:
    from repro.api import spec_for
    # Imported before the clock is read: import time is setup time.
    from repro.serve.fleet import ServeFleet  # noqa: F401
    import_s = _clock() - start
    spec = spec_for(STEPS["spec"])
    role = job["role"]
    if role != "ladder":
        phase = await _phase(job, spec, STEPS["nominal_rps"],
                             STEPS["nominal_s"], job["seed"],
                             traced=role == "traced",
                             setups_n=STEPS["setups"] if role == "measure"
                             else 1)
        phase["setup_s"] += import_s
        return phase
    # Binary search of the fixed ladder, one fresh fleet per rung
    # (assumes a rung passes whenever a higher one does).
    rungs = ladder()
    low, high = -1, len(rungs)
    probes = []
    while high - low > 1:
        mid = (low + high) // 2
        probe = await _phase(job, spec, rungs[mid], STEPS["rung_s"],
                             job["seed"] * 1000 + mid, traced=False,
                             wal_limit=LADDER_WAL_LIMIT)
        probe["setup_s"] += import_s
        probes.append(probe)
        if probe["passed"]:
            low = mid
        else:
            high = mid
    return {"max_rate_rps": rungs[low] if low >= 0 else 0.0,
            "probes": probes}


async def _phase(job, spec, rate: float, seconds: float, seed: int,
                 traced: bool, wal_limit: int = None,
                 setups_n: int = 1) -> dict:
    """One fresh fleet, one open-loop phase, then the output check."""
    from tracing import Tracer
    from repro.serve.fleet import ServeFleet
    from repro.serve.protocol import ERR_RETRY
    schedule = build_schedule(Traffic(
        rate_rps=rate, seconds=seconds, seed=seed,
        n_sessions=STEPS["n_sessions"]))
    requests = make_requests(schedule)

    # Set-up is timed several times (fresh fleets) and the median
    # reported; the last fleet set up serves the phase.
    limits = {"wal_limit": wal_limit} if wal_limit else {}
    setups = []
    for k in range(setups_n):
        state_dir = tempfile.mkdtemp(prefix="fleet-", dir=job["scratch"])
        fleet = ServeFleet(n_workers=1, state_dir=state_dir, **limits)
        last = k == setups_n - 1
        try:
            s0 = _clock()
            await fleet.start()
            for sid in schedule.touched():
                await fleet.open_session(sid, spec)
            setups.append(_clock() - s0)
        except BaseException:
            last = False
            raise
        finally:
            if not last:
                await fleet.stop()
                shutil.rmtree(state_dir, ignore_errors=True)
    setup_s = statistics.median(setups)
    try:
        tracer = Tracer() if traced else None
        r0 = _clock()
        if traced:
            root = tracer.open(job["workload"], "other")
            poll = {"peak": 0, "last": 0, "compactions": 0}
            poller = asyncio.ensure_future(_poll_wal(fleet, tracer, poll))
        outcome = await run_open_loop(fleet, schedule, requests, ERR_RETRY,
                                      STEPS["p99_limit_ms"], tracer=tracer)
        if traced:
            poller.cancel()
            await asyncio.gather(poller, return_exceptions=True)
            tracer.close(root)
        region_s = _clock() - r0
    finally:
        await fleet.stop()
        shutil.rmtree(state_dir, ignore_errors=True)

    out = summary(outcome)
    out["region_s"] = region_s
    out["setup_s"] = setup_s
    out["rate"] = rate
    out["failed"] = check(schedule, outcome.responses, spec)
    limit = STEPS["p99_limit_ms"]
    out["passed"] = bool(
        out["p99_ms"] <= limit and out["refused"] == 0
        and out["lost"] == 0 and out["errored"] == 0
        and out["failed"] == 0
        # Little's law: latency within the limit bounds what can still
        # be outstanding when the last request is sent.
        and out["backlog_at_end"] <= rate * limit / 1e3 + 1)
    if traced:
        out.update(await _traced_layers(fleet, schedule, requests, spec,
                                        outcome, poll, seed))
        out["tracer"] = tracer
    return out


async def _poll_wal(fleet, tracer, poll) -> None:
    """Sample the router's WAL size; a drop is a compaction."""
    while True:
        with tracer.span("serve.stats", "serve", keep=False):
            records = fleet.stats()["totals"]["wal_records"]
        if records < poll["last"]:
            poll["compactions"] += 1
        poll["last"] = records
        poll["peak"] = max(poll["peak"], records)
        await asyncio.sleep(0.02)


async def _in_process(config, schedule, requests, spec):
    """Run ``schedule`` against an in-process ``PredictionService``;
    returns (outcome, metrics snapshot, totals, failed)."""
    from repro.serve.protocol import ERR_RETRY
    from repro.serve.service import PredictionService
    service = PredictionService(config)
    await service.start()
    try:
        for sid in schedule.touched():
            await service.open_session(sid, spec)
        outcome = await run_open_loop(service, schedule, requests, ERR_RETRY,
                                      STEPS["p99_limit_ms"])
        snap = service.metrics_snapshot()
        totals = service.stats()["totals"]
    finally:
        await service.stop()
    return outcome, snap, totals, check(schedule, outcome.responses, spec)


async def _traced_layers(fleet, schedule, requests, spec, outcome, poll,
                         seed: int) -> dict:
    from repro.api import spec_for
    from repro.serve.config import ServeConfig
    totals = fleet.stats()["totals"]
    submit = sorted(outcome.submit_us)

    # The same schedule through the in-process service (the fleet
    # worker's default config): the fleet's hop is the difference of
    # the two medians.
    local, _, _, local_failed = await _in_process(
        ServeConfig(), schedule, requests, spec)
    local_p50 = percentile(sorted(local.latencies_ms), 0.50)

    # Replay windows (one admission carries 512 steps) through an
    # in-process service that traces every request: its per-stage
    # histograms show where a batch-and-kernel-heavy request spends
    # its time.
    replay = build_schedule(Traffic(
        rate_rps=REPLAY["rate_rps"], seconds=REPLAY["seconds"],
        seed=seed, n_sessions=REPLAY["n_sessions"],
        chunk_steps=REPLAY["chunk_steps"]))
    windows, snap, stats, replay_failed = await _in_process(
        ServeConfig(trace_sample_shift=0), replay, make_requests(replay),
        spec_for(REPLAY["spec"]))

    def stage(name: str) -> float:
        return snap.get(f"trace.stage_us.{name}.p50", 0.0)

    return {
        "in_process": {
            "sent": local.sent + windows.sent,
            "succeeded": local.succeeded + windows.succeeded,
            "refused": local.refused + windows.refused,
            "lost": local.lost + windows.lost,
            "failed": local_failed + replay_failed},
        "layers": {
            "serve.submit_us.p50": percentile(submit, 0.50),
            "serve.submit_us.p99": percentile(submit, 0.99),
            "serve.hop_us": (percentile(sorted(outcome.latencies_ms), 0.50)
                             - local_p50) * 1e3,
            "serve.wal.records": poll["peak"],
            "serve.wal.compactions": poll["compactions"],
            "serve.stall_ms": outcome.stall_ms,
            "serve.refused": outcome.refused,
            "serve.degraded": int(totals.get("degraded", 0)),
            "serve.stage.decode_us": stage("decode"),
            "serve.stage.queue_us": stage("queue"),
            "serve.stage.batch_us": stage("batch"),
            # Under the default (scalar) policy the execution stage is
            # exported as ``predict``; the vectorized one as ``kernel``.
            "serve.stage.kernel_us": stage("kernel") or stage("predict"),
            "serve.stage.reply_us": stage("reply"),
            "serve.batch_size.p50": snap.get("serve.batch_size.p50", 0.0),
            "serve.kernel_batch_share": (
                stats["kernel_batches"] / stats["batches"]
                if stats["batches"] else 0.0),
            "loadgen.lag_ms": percentile(sorted(outcome.lag_ms), 0.99),
        },
    }
