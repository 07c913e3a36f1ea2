"""Property tests for hot-trace heat/capture bookkeeping.

The replay engine's correctness story is carried by the guard battery
(``tests/serve/test_hottrace_guards.py``); what hypothesis pins here
is the *bookkeeping* that keeps the engine bounded and honest under
arbitrary window streams:

* heat counting saturates at the hot threshold (no unbounded counts);
* the heat table never exceeds its shed bound, and shedding keeps the
  hottest entries;
* captured traces never exceed ``max_traces``, and the
  captures/evictions ledger matches the table;
* counter monotonicity: ``hits <= lookups <= hot_windows <= windows``.

The predictor here is a trivial picklable stub — stepping is not
involved, so the properties are pure bookkeeping, fast enough for
hundreds of generated streams.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, spec_for
from repro.fastpath.hottrace import HotTraceEngine, SessionTraceState

SPEC = spec_for("binary.gshare", history=2)

#: Streams of window identities: small alphabet so repeats (and thus
#: heat/captures) actually happen, long enough to cross thresholds.
streams = st.lists(st.integers(min_value=0, max_value=30),
                   min_size=1, max_size=120)

policies = st.builds(
    ExecutionPolicy,
    backend=st.just("reference"),
    hottrace=st.just(True),
    hot_threshold=st.integers(min_value=1, max_value=4),
    min_trace_len=st.just(2),
    max_traces=st.integers(min_value=1, max_value=6),
    # The shadow oracle would step the stub predictor, which cannot be
    # stepped; pinning it off keeps these pure bookkeeping properties
    # independent of REPRO_CHECK_INVARIANTS.  The oracle on hot-trace
    # hits is covered by tests/serve/test_hottrace_guards.py.
    check_invariants=st.just("off"))


class StubSession:
    """Duck-typed session: the engine only touches these attributes."""

    def __init__(self):
        self.session_id = "p"
        self.spec = SPEC
        self.family = SPEC.family
        self.predictor = [0]  # picklable, never stepped
        self.hottrace = None


def lanes_for(window_id, n=4):
    return [window_id] * n, [window_id % 2] * n, [-1] * n


def drive(engine, session, stream):
    """Feed the stream the way the batch executor does: probe, then
    offer the 'executed' window back to the recorder on a miss."""
    for window_id in stream:
        pcs, outcomes, distances = lanes_for(window_id)
        cached = engine.try_replay(session, pcs, outcomes, distances)
        if cached is None:
            st_ = session.hottrace
            pre = st_.state_digest if st_ is not None else None
            engine.record(session, pcs, outcomes, distances,
                          [0] * len(pcs), pre)


@given(stream=streams, policy=policies)
@settings(max_examples=80, deadline=None)
def test_heat_saturates_and_tables_stay_bounded(stream, policy):
    engine = HotTraceEngine(policy)
    session = StubSession()
    drive(engine, session, stream)
    state = session.hottrace
    assert all(count <= policy.hot_threshold
               for count in state.heat.values())
    assert len(state.heat) <= engine.max_heat_entries
    assert len(state.traces) <= policy.max_traces


@given(stream=streams, policy=policies)
@settings(max_examples=80, deadline=None)
def test_capture_eviction_ledger_matches_table(stream, policy):
    engine = HotTraceEngine(policy)
    session = StubSession()
    drive(engine, session, stream)
    c = engine.counters
    # No aborts are possible in this stream (state never drifts), so
    # the LRU is the only way captures leave the table.
    assert c.aborts == 0
    assert c.captures - c.evictions == len(session.hottrace.traces)


@given(stream=streams, policy=policies)
@settings(max_examples=80, deadline=None)
def test_counter_monotonicity(stream, policy):
    engine = HotTraceEngine(policy)
    session = StubSession()
    drive(engine, session, stream)
    c = engine.counters
    assert c.hits <= c.lookups <= c.hot_windows <= c.windows
    assert c.windows == len(stream)
    assert c.steps_saved == 4 * c.hits
    assert c.abort_mismatch == 0


@given(counts=st.dictionaries(
    st.binary(min_size=4, max_size=4),
    st.integers(min_value=0, max_value=10),
    min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_shed_keeps_the_hottest_half(counts):
    engine = HotTraceEngine(ExecutionPolicy(hottrace=True))
    state = SessionTraceState()
    state.heat = dict(counts)
    engine._shed_heat(state)
    assert len(state.heat) <= engine.max_heat_entries // 2
    if state.heat:
        kept_min = min(state.heat.values())
        dropped = [v for k, v in counts.items() if k not in state.heat]
        # Nothing dropped was strictly hotter than anything kept.
        assert all(v <= kept_min for v in dropped)
        assert max(state.heat.values()) == max(counts.values())
