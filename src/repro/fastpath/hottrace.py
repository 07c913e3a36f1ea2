"""Hot-trace memoized replay: speculate / guard / commit / abort.

Production traffic is repetitive: the serve tier re-runs the same
per-session step windows constantly (the Zipf load model makes a few
sessions absorb most of the traffic, and converged predictors answer a
repeated window from the same state).  This module applies the paper's
own speculate-verify-recover discipline to the simulator itself — the
trace-based speculation structure of SNIPPETS.md Snippet 3, transplanted
from guarded straight-line code to guarded predictor-state transitions.

The unit of speculation is one *step window*: a same-session run of
``step`` events (``(pcs, outcomes, distances)`` lanes) flowing through
:func:`repro.serve.batch.execute_step_arrays_ex` — either a coalesced
micro-batch run or a ``replay`` trace-window op.  Predictor stepping is
a deterministic function of (state, window), so the transition is
memoizable::

    key   = (digest(pre_state), digest(window))
    value = (results, pickle(post_state), digest(post_state))

A lookup hit *speculates* that this session will repeat its hot trace.
The guards that must pass before the precomputed answer is committed:

* **state guard** — the session predictor's state digest equals the
  captured pre-state digest (drifted state aborts);
* **lane guard** — the window's pcs/outcomes/distances lanes are
  *exactly* the captured ones (an addr or taken-bit mismatch aborts;
  this also makes a window-digest collision abort instead of answering
  wrongly);
* **spec guard** — the session's spec kind is the captured one
  (a session rebuilt under a different spec aborts);
* **commit guard** — the captured post-state must rehydrate
  (``pickle.loads``); a mid-commit failure (the serving analogue of a
  mid-trace squash) aborts with the session state untouched.

Commit is atomic by construction: the new predictor object is fully
built *before* the single reference swap, so any guard or rehydration
failure leaves the session's predictor exactly as it was and execution
falls through to the scalar/vectorized path — zero predictor-state
corruption, the property the negative-guard battery in
``tests/serve/test_hottrace_guards.py`` pins byte-for-byte against a
never-speculated shadow oracle.

Steady state is cheap through *digest chaining*: a capture or commit
leaves the session's current state digest known, so the next window's
pre-state digest costs nothing (no pickling) until a non-window
mutation (a lone ``update`` op, a restore) invalidates it.  At a
converged fixed point ``pre == post`` and a hit skips rehydration
entirely — the window answers from one dict probe.

Under an armed invariant oracle (``ExecutionPolicy.invariants_active``)
every hit is shadow-replayed scalar on a deep copy and both results and
post-state bytes compared — :class:`HotTraceViolation` on divergence is
the zero-tolerance abort-correctness metric gated in CI.
"""

from __future__ import annotations

import copy
import hashlib
import pickle
import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.policy import ExecutionPolicy

try:  # lane packing goes through numpy when available (10x)
    import numpy as _np
except Exception:  # pragma: no cover - numpy-less install
    _np = None

#: Digest width for state and window fingerprints.  16 bytes keeps the
#: accidental-collision probability negligible at serve-tier scales
#: while the lane guard makes even a collision abort, not corrupt.
_DIGEST_SIZE = 16


class HotTraceViolation(AssertionError):
    """A committed hot-trace hit diverged from the scalar replay."""


def _pack_lane(values: Sequence[int], n: int) -> bytes:
    if _np is not None:
        return _np.asarray(values, dtype="<i8").tobytes()
    return struct.pack(f"<{n}q", *(int(v) for v in values))


def window_digest(pcs: Sequence[int], outcomes: Sequence[int],
                  distances: Sequence[int]) -> bytes:
    """Order-sensitive fingerprint of one step window's input lanes."""
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    n = len(pcs)
    h.update(struct.pack("<I", n))
    h.update(_pack_lane(pcs, n))
    h.update(_pack_lane(outcomes, n))
    h.update(_pack_lane(distances, n))
    return h.digest()


def _canonical_state(raw: bytes) -> bytes:
    """Pickle bytes normalized through one ``loads``/``dumps`` round
    trip.

    Raw pickles are not byte-canonical across lineages: a freshly
    constructed predictor shares interned strings that a rehydrated one
    does not, so two logically identical states can pickle to different
    bytes (different memo back-references).  One round trip erases the
    interning-induced sharing, after which the encoding is a fixed
    point — the comparison the shadow oracle needs."""
    return pickle.dumps(pickle.loads(raw),
                        protocol=pickle.HIGHEST_PROTOCOL)


def state_fingerprint(predictor: object) -> Optional[Tuple[bytes, bytes]]:
    """``(state_bytes, digest)`` of a predictor, None if unpicklable."""
    try:
        raw = pickle.dumps(predictor, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # pragma: no cover - exotic predictor state
        return None
    return raw, hashlib.blake2b(raw, digest_size=_DIGEST_SIZE).digest()


@dataclass
class CapturedTrace:
    """One memoized (pre-state, window) -> (results, post-state) edge."""

    spec_kind: str
    pre_digest: bytes
    lanes: Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]
    results: Tuple[int, ...]
    post_state: bytes
    post_digest: bytes
    hits: int = 0


@dataclass
class HotTraceCounters:
    """Aggregate effectiveness/abort accounting, exported verbatim
    through shard stats -> service/fleet stats -> metrics -> top."""

    windows: int = 0        #: step windows inspected (len >= min)
    hot_windows: int = 0    #: windows past the heat threshold
    lookups: int = 0        #: memo probes attempted
    hits: int = 0           #: guarded replays committed
    steps_saved: int = 0    #: per-step executions skipped by hits
    captures: int = 0       #: traces recorded
    aborts: int = 0         #: guard failures (any class)
    abort_state: int = 0    #: ... pre-state digest drift
    abort_lanes: int = 0    #: ... pc/outcome/distance lane mismatch
    abort_spec: int = 0     #: ... spec kind changed under the session
    abort_commit: int = 0   #: ... post-state failed to rehydrate
    evictions: int = 0      #: captured traces dropped by the LRU cap
    abort_mismatch: int = 0 #: oracle divergences (must stay zero)

    def as_dict(self) -> Dict[str, int]:
        return {k: getattr(self, k) for k in (
            "windows", "hot_windows", "lookups", "hits", "steps_saved",
            "captures", "aborts", "abort_state", "abort_lanes",
            "abort_spec", "abort_commit", "evictions", "abort_mismatch")}

    def merge(self, other: Dict[str, int]) -> None:
        for k, v in other.items():
            if hasattr(self, k):
                setattr(self, k, getattr(self, k) + int(v))


@dataclass
class SessionTraceState:
    """Per-session recording state.

    Lives on the :class:`~repro.serve.session.Session` object (a slot
    excluded from ``state_dict``), so close / restore / migration
    naturally reset it — captured traces never travel between
    processes, they are re-learned where the traffic lands.
    """

    #: Known digest of the predictor's *current* state, or None when a
    #: mutation happened outside the windowed path (digest chaining).
    state_digest: Optional[bytes] = None
    #: Window-digest -> occurrence count (stops counting at threshold).
    heat: Dict[bytes, int] = field(default_factory=dict)
    #: (pre_digest, window_digest) -> captured trace, insertion-ordered
    #: for eviction.
    traces: "OrderedDict[Tuple[bytes, bytes], CapturedTrace]" = field(
        default_factory=OrderedDict)
    #: One-shot window-digest memo between a try_replay miss and its
    #: paired record() for the *same* lane objects (identity token) —
    #: halves digest work on the miss path.  The lane tuples stay alive
    #: in the caller across the pair, so ids cannot be recycled; the
    #: memo is cleared on every other exit (hit, invalidate) so a
    #: *later* call with recycled list ids can never reuse it.
    wd_token: Optional[Tuple[int, int, int]] = None
    wd_cache: Optional[bytes] = None

    def invalidate(self) -> None:
        """Forget the chained state digest (out-of-band mutation) and
        any in-flight window-digest memo."""
        self.state_digest = None
        self.wd_token = None
        self.wd_cache = None


class HotTraceEngine:
    """One shard's recording/replay engine (single-writer, no locks).

    The engine owns thresholds (from the :class:`ExecutionPolicy`) and
    the counters; per-session state hangs off the sessions themselves.
    """

    def __init__(self, policy: ExecutionPolicy) -> None:
        self.policy = policy
        self.counters = HotTraceCounters()
        #: Guard class of the most recent abort ("state" / "lanes" /
        #: "spec" / "commit").
        self.last_abort: Optional[str] = None
        #: Undrained ``(session_id, guard)`` abort records, one per
        #: abort, in order — the shard drains these into obs events so
        #: every abort is attributed to the session that aborted.
        #: Bounded in case no one drains (engine used standalone).
        self.abort_events: List[Tuple[str, str]] = []
        self.max_abort_events = 1024
        #: Bound heat-table size per session: window digests tracked
        #: before old cold entries are dropped (heat, unlike captures,
        #: is approximate bookkeeping — dropping a cold entry only
        #: delays capture).
        self.max_heat_entries = max(64, 4 * policy.max_traces)

    # -- session state ---------------------------------------------------

    @staticmethod
    def state_for(session) -> SessionTraceState:
        st = getattr(session, "hottrace", None)
        if st is None:
            st = SessionTraceState()
            session.hottrace = st
        return st

    @staticmethod
    def note_mutation(session) -> None:
        """Out-of-band predictor mutation (lone update op, restore):
        break the digest chain so stale captures can never match."""
        st = getattr(session, "hottrace", None)
        if st is not None:
            st.invalidate()

    # -- the speculate/guard/commit/abort cycle --------------------------

    def try_replay(self, session, pcs: Sequence[int],
                   outcomes: Sequence[int], distances: Sequence[int],
                   ) -> Optional[List[int]]:
        """Attempt a guarded memoized replay of one step window.

        Returns the committed results on a hit, or ``None`` — meaning
        the caller must execute the window through the normal path and
        (if the window is hot) offer it back via :func:`record`.
        ``None`` also covers every abort: by the time this returns, the
        session's predictor is untouched unless a commit succeeded.
        """
        n = len(pcs)
        if n < self.policy.min_trace_len:
            return None
        c = self.counters
        c.windows += 1
        st = self.state_for(session)

        wd = window_digest(pcs, outcomes, distances)
        st.wd_token = (id(pcs), id(outcomes), id(distances))
        st.wd_cache = wd
        heat = st.heat.get(wd, 0)
        if heat < self.policy.hot_threshold:
            # Cold window: one dict increment, nothing else.
            if len(st.heat) >= self.max_heat_entries:
                self._shed_heat(st)
            st.heat[wd] = heat + 1
            return None
        c.hot_windows += 1

        pre = st.state_digest
        if pre is None:
            fp = state_fingerprint(session.predictor)
            if fp is None:
                return None  # unpicklable state: never speculate
            pre = fp[1]
            st.state_digest = pre

        trace = st.traces.get((pre, wd))
        if trace is None:
            return None  # hot but uncaptured from this state: record
        c.lookups += 1

        # -- guards (any failure: abort, drop the stale capture) --------
        if trace.spec_kind != session.spec.kind:
            self._abort(session, st, (pre, wd), "spec")
            return None
        if trace.pre_digest != pre:  # pragma: no cover - keyed by pre
            self._abort(session, st, (pre, wd), "state")
            return None
        lanes = (tuple(int(p) for p in pcs),
                 tuple(int(o) for o in outcomes),
                 tuple(int(d) for d in distances))
        if trace.lanes != lanes:
            self._abort(session, st, (pre, wd), "lanes")
            return None

        # -- commit (atomic: build fully, then one reference swap) ------
        if trace.post_digest == pre:
            new_predictor = session.predictor  # converged fixed point
        else:
            try:
                new_predictor = pickle.loads(trace.post_state)
            except Exception:
                # Mid-commit squash: session state untouched.
                self._abort(session, st, (pre, wd), "commit")
                return None

        if self.policy.invariants_active():
            self._shadow_check(session, trace, pcs, outcomes, distances)

        session.predictor = new_predictor
        st.state_digest = trace.post_digest
        # A hit never reaches record(): retire the window-digest memo
        # here so a later record() with recycled lane-list ids cannot
        # reuse it.
        st.wd_token = st.wd_cache = None
        trace.hits += 1
        c.hits += 1
        c.steps_saved += n
        st.traces.move_to_end((pre, wd))
        return list(trace.results)

    def record(self, session, pcs: Sequence[int], outcomes: Sequence[int],
               distances: Sequence[int], results: Sequence[int],
               pre_digest: Optional[bytes]) -> None:
        """Capture a just-executed hot window as a replayable trace.

        ``pre_digest`` is the chained digest *before* the window ran
        (None when it was unknown — then nothing is captured, but the
        post-state digest still re-anchors the chain)."""
        st = self.state_for(session)
        n = len(pcs)
        if n < self.policy.min_trace_len:
            # Too short to memoize, but it still mutated the predictor:
            # break the digest chain.
            st.invalidate()
            return
        if (st.wd_token == (id(pcs), id(outcomes), id(distances))
                and st.wd_cache is not None):
            wd = st.wd_cache
        else:  # pragma: no cover - record without a paired try_replay
            wd = window_digest(pcs, outcomes, distances)
        st.wd_token = st.wd_cache = None
        if st.heat.get(wd, 0) < self.policy.hot_threshold:
            # Not hot (or heat was shed): just account the chain break.
            st.invalidate()
            return
        fp = state_fingerprint(session.predictor)
        if fp is None or pre_digest is None:
            st.invalidate()
            return
        post_state, post_digest = fp
        st.traces[(pre_digest, wd)] = CapturedTrace(
            spec_kind=session.spec.kind,
            pre_digest=pre_digest,
            lanes=(tuple(int(p) for p in pcs),
                   tuple(int(o) for o in outcomes),
                   tuple(int(d) for d in distances)),
            results=tuple(int(r) for r in results),
            post_state=post_state,
            post_digest=post_digest)
        st.state_digest = post_digest
        self.counters.captures += 1
        while len(st.traces) > self.policy.max_traces:
            st.traces.popitem(last=False)
            self.counters.evictions += 1

    # -- internals -------------------------------------------------------

    def drain_abort_events(self) -> List[Tuple[str, str]]:
        """Return (and clear) the undrained ``(session_id, guard)``
        abort records accumulated since the last drain."""
        events, self.abort_events = self.abort_events, []
        return events

    def _abort(self, session, st: SessionTraceState,
               key: Tuple[bytes, bytes], kind: str) -> None:
        c = self.counters
        c.aborts += 1
        setattr(c, f"abort_{kind}", getattr(c, f"abort_{kind}") + 1)
        self.last_abort = kind
        if len(self.abort_events) < self.max_abort_events:
            self.abort_events.append((session.session_id, kind))
        st.traces.pop(key, None)  # stale capture: re-learn

    def _shed_heat(self, st: SessionTraceState) -> None:
        """Drop the coldest half of the heat table (bound memory)."""
        keep = sorted(st.heat.items(), key=lambda kv: kv[1],
                      reverse=True)[: self.max_heat_entries // 2]
        st.heat = dict(keep)

    def _shadow_check(self, session, trace: CapturedTrace,
                      pcs: Sequence[int], outcomes: Sequence[int],
                      distances: Sequence[int]) -> None:
        """Oracle: scalar-replay the window on a deep copy of the
        *pre-commit* state and demand byte-identical results/state."""
        from repro.serve.batch import scalar_steps
        shadow = copy.deepcopy(session.predictor)
        expect = scalar_steps(session.family, shadow, pcs, outcomes,
                              distances)
        if list(trace.results) != expect:
            self.counters.abort_mismatch += 1
            raise HotTraceViolation(
                f"session {session.session_id!r} ({session.spec.kind}): "
                f"hot-trace hit would commit results diverging from the "
                f"scalar replay ({len(pcs)} steps)")
        fp = state_fingerprint(shadow)
        if (fp is not None and fp[0] != trace.post_state
                and _canonical_state(fp[0])
                != _canonical_state(trace.post_state)):
            # Raw bytes may differ across pickle lineages for the same
            # logical state (see _canonical_state); only a divergence
            # that survives normalization is a violation.
            self.counters.abort_mismatch += 1
            raise HotTraceViolation(
                f"session {session.session_id!r} ({session.spec.kind}): "
                f"hot-trace hit would commit predictor state diverging "
                f"from the scalar replay ({len(pcs)} steps)")
