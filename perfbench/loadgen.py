"""The benchmark's own open-loop load generator.

Independent of ``repro.serve.loadgen`` on purpose, so that a change to
the program cannot move the measurement.  One client coroutine in one
process sends every request at its scheduled time, whether or not
earlier ones were answered (independent users: an open loop).  Each
request's latency is timed from when it was *due*, so a stall also
charges the requests that queued behind it, and the generator reports
how late it ran.  A request that is refused (or answered with an
error) is not dropped from the latencies: it is charged from when it
was due to the next answer the target gives after it, which is the
earliest a retry could have been served, and never less than the
latency limit it missed.  So shedding load cannot pass as a speed-up.
"""

from __future__ import annotations

import asyncio
import bisect
import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

_clock = time.perf_counter

# The traffic shape is that of ``repro.serve.loadgen.TrafficModel``'s
# defaults (1000 sessions, Zipf 1.1, 64 pcs), which is also the traffic
# that first showed the fleet's WAL-compaction stall; it is restated
# here, not imported, for the reason above.
#: Program counters are drawn from ``0x400 + 4 * k``, ``k < PC_SPACE``.
PC_SPACE = 64
#: Zipf exponent of session popularity (web-like traffic).
ZIPF_S = 1.1
#: Size of the session id space.
N_SESSIONS = 1000
#: Distinct windows each session cycles through (replay traffic).
PHASE_WINDOWS = 4


@dataclass(frozen=True)
class Traffic:
    """One reproducible traffic description (all inputs derive from
    ``seed``)."""

    rate_rps: float
    seconds: float
    seed: int
    n_sessions: int = N_SESSIONS
    #: 1 = each arrival is one ``step``; >1 = one ``replay`` window.
    chunk_steps: int = 1


@dataclass
class Schedule:
    times: List[float]
    sessions: List[str]
    #: Per arrival: (pc, outcome) for steps, or (pcs, outcomes).
    payloads: List[tuple]
    chunk_steps: int

    def touched(self) -> List[str]:
        return sorted(set(self.sessions))


def session_name(rank: int) -> str:
    return f"bench-{rank:05d}"


def build_schedule(traffic: Traffic) -> Schedule:
    """Poisson arrivals, Zipf session popularity, seeded payloads."""
    rng = random.Random(traffic.seed)
    cdf: List[float] = []
    total = 0.0
    for rank in range(1, traffic.n_sessions + 1):
        total += rank ** -ZIPF_S
        cdf.append(total)
    times: List[float] = []
    ranks: List[int] = []
    t = rng.expovariate(traffic.rate_rps)
    while t < traffic.seconds:
        times.append(t)
        ranks.append(bisect.bisect_left(cdf, rng.random() * total))
        t += rng.expovariate(traffic.rate_rps)
    payloads: List[tuple] = []
    if traffic.chunk_steps == 1:
        for _ in times:
            payloads.append((0x400 + 4 * rng.randrange(PC_SPACE),
                             rng.randrange(2)))
    else:
        banks: Dict[int, List[tuple]] = {}
        seen: Dict[int, int] = {}
        for rank in ranks:
            bank = banks.get(rank)
            if bank is None:
                bank = banks[rank] = [
                    _window(random.Random(f"{traffic.seed}/{rank}/{k}"),
                            traffic.chunk_steps)
                    for k in range(PHASE_WINDOWS)]
            k = seen.get(rank, 0)
            seen[rank] = k + 1
            payloads.append(bank[k % len(bank)])
    return Schedule(times=times,
                    sessions=[session_name(r) for r in ranks],
                    payloads=payloads, chunk_steps=traffic.chunk_steps)


def _window(rng: random.Random, steps: int) -> Tuple[tuple, tuple]:
    """One phase window: a loop over a few load pcs, each with its own
    hit bias, as a trace window of a real program looks."""
    pcs = [0x400 + 4 * rng.randrange(PC_SPACE) for _ in range(8)]
    bias = [rng.random() for _ in pcs]
    out_pcs, outcomes = [], []
    for i in range(steps):
        j = i % len(pcs)
        out_pcs.append(pcs[j])
        outcomes.append(1 if rng.random() < bias[j] else 0)
    return tuple(out_pcs), tuple(outcomes)


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass
class Outcome:
    """What one open-loop phase observed."""

    sent: int = 0
    succeeded: int = 0
    refused: int = 0
    errored: int = 0
    lost: int = 0
    #: One per sent request; refused, errored and lost ones included.
    latencies_ms: List[float] = field(default_factory=list)
    lag_ms: List[float] = field(default_factory=list)
    submit_us: List[float] = field(default_factory=list)
    #: Longest gap with accepted requests outstanding and none done.
    stall_ms: float = 0.0
    #: Accepted requests still outstanding at the last scheduled send.
    backlog_at_end: int = 0
    #: First scheduled send to last answer, in seconds.
    wall_s: float = 0.0
    #: Per arrival: the response (None when lost).
    responses: List[object] = field(default_factory=list)


async def run_open_loop(target, schedule: Schedule, requests: List[object],
                        retry_error: str, limit_ms: float, tracer=None,
                        answer_timeout_s: float = 90.0) -> Outcome:
    """Send ``requests[i]`` at ``schedule.times[i]`` through
    ``target.submit``; wait for every answer (up to the timeout).
    A request not answered ``ok`` is charged at least ``limit_ms``."""
    out = Outcome(sent=len(requests), responses=[None] * len(requests))
    n = len(requests)
    state = {"outstanding": 0, "progress": 0.0, "stall": 0.0,
             "last": 0.0, "unanswered": n}
    #: Due times of refused or errored requests not yet charged.
    missed: List[float] = []
    all_done = asyncio.get_running_loop().create_future()

    def charge_missed(now: float) -> None:
        for due in missed:
            out.latencies_ms.append(max((now - due) * 1e3, limit_ms))
        missed.clear()

    def finished(index: int, due: float, accepted: bool, future) -> None:
        now = _clock()
        response = future.result()
        out.responses[index] = response
        if response.ok:
            out.succeeded += 1
            out.latencies_ms.append((now - due) * 1e3)
            charge_missed(now)
        else:
            if response.error == retry_error:
                out.refused += 1
            else:
                out.errored += 1
            missed.append(due)
        if accepted:
            if state["outstanding"] > 0:
                state["stall"] = max(state["stall"],
                                     now - state["progress"])
            state["outstanding"] -= 1
            state["progress"] = now
        state["last"] = now
        state["unanswered"] -= 1
        if state["unanswered"] == 0 and not all_done.done():
            all_done.set_result(None)

    start = _clock() + 0.05
    span = tracer.span if tracer is not None else None
    for i in range(n):
        due = start + schedule.times[i]
        delay = due - _clock()
        if delay > 0:
            await asyncio.sleep(delay)
        if span is not None:
            with span("loadgen.send", "loadgen", keep=False):
                sent_at = _clock()
                with span("serve.submit", "serve", keep=False):
                    future = target.submit(requests[i])
                out.submit_us.append((_clock() - sent_at) * 1e6)
        else:
            sent_at = _clock()
            future = target.submit(requests[i])
        out.lag_ms.append((sent_at - due) * 1e3)
        accepted = not future.done()
        if accepted:
            if state["outstanding"] == 0:
                state["progress"] = sent_at
            state["outstanding"] += 1
        future.add_done_callback(
            lambda f, i=i, due=due, a=accepted: finished(i, due, a, f))
    out.backlog_at_end = state["outstanding"]
    if n:
        try:
            await asyncio.wait_for(asyncio.shield(all_done),
                                   answer_timeout_s)
        except asyncio.TimeoutError:
            pass
    now = _clock()
    # Refusals after the last answer, and lost requests, are charged
    # up to the end of the wait.
    charge_missed(now)
    for i, response in enumerate(out.responses):
        if response is None:
            out.lost += 1
            out.latencies_ms.append(
                max((now - start - schedule.times[i]) * 1e3, limit_ms))
    out.stall_ms = state["stall"] * 1e3
    out.wall_s = (state["last"] or now) - start
    return out
