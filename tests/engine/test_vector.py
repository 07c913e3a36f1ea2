"""The vectorized machine backend: bit-identity, routing, fallback.

The contract under test is ``docs/engine.md``'s: for every supported
configuration, ``Machine.run(trace, policy=VEC)`` produces a
``SimResult`` whose ``to_dict()`` equals the reference backend's — and
every unsupported configuration silently falls back to the scalar
path, so the switch can never change results, only speed.
"""

import pytest

from repro.api import ExecutionPolicy
from repro.common.config import BASELINE_MACHINE
from repro.engine.machine import Machine
from repro.engine.mob import MemoryOrderBuffer
from repro.engine.ordering import (
    SCHEME_NAMES,
    TraditionalOrdering,
    make_scheme,
)
from repro.engine.results import SimResult
from repro.experiments.harness import get_trace
from repro.fastpath import HAS_NUMPY
from tests.engine.helpers import MicroTrace

needs_numpy = pytest.mark.skipif(not HAS_NUMPY,
                                 reason="vectorized kernel needs numpy")

REF = ExecutionPolicy(backend="reference")
VEC = ExecutionPolicy(backend="vectorized")


def run_both(mk_machine, trace, max_cycles=None):
    """(reference, vectorized) results for the same machine recipe."""
    ref = mk_machine().run(trace, max_cycles=max_cycles, policy=REF)
    vec = mk_machine().run(trace, max_cycles=max_cycles, policy=VEC)
    return ref, vec


def outcome_both(mk_machine, trace, max_cycles):
    """Result dict or the RuntimeError string, per backend."""
    out = []
    for policy in (REF, VEC):
        try:
            out.append(mk_machine().run(trace, max_cycles=max_cycles,
                                        policy=policy).to_dict())
        except RuntimeError as exc:
            out.append(str(exc))
    return out


def violation_trace():
    """A microtrace that forces a hidden violation + squash replay:
    the STA's address hangs off a slow dependency chain while the
    colliding load's address is ready immediately."""
    t = MicroTrace()
    t.alu(dst=1)
    for _ in range(6):
        t.alu(dst=1, srcs=(1,))  # slow chain into the STA's address
    t.store(0x200, addr_src=1, data_src=15)
    t.load(dst=2, address=0x200, addr_src=15)
    t.alu(dst=3, srcs=(2,))
    return t.build("violation")


@needs_numpy
class TestBitIdentityMatrix:
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    @pytest.mark.parametrize("trace_name", ("gcc", "swim", "tpcc"))
    def test_scheme_profile_matrix(self, scheme, trace_name):
        trace = get_trace(trace_name, 3000)
        ref, vec = run_both(lambda: Machine(scheme=make_scheme(scheme)),
                            trace)
        assert ref.to_dict() == vec.to_dict()

    @pytest.mark.parametrize("scheme", ("opportunistic", "exclusive"))
    def test_forwarding_machine(self, scheme):
        import dataclasses
        cfg = BASELINE_MACHINE
        cfg = dataclasses.replace(cfg, latency=dataclasses.replace(
            cfg.latency, forward_latency=2))
        trace = get_trace("tpcc", 3000)
        ref, vec = run_both(
            lambda: Machine(config=cfg, scheme=make_scheme(scheme)),
            trace)
        assert ref.to_dict() == vec.to_dict()

    def test_violation_replay_microtrace(self):
        ref, vec = run_both(
            lambda: Machine(scheme=make_scheme("opportunistic")),
            violation_trace())
        assert ref.collision_penalties > 0  # the trap actually fired
        assert ref.to_dict() == vec.to_dict()


@needs_numpy
class TestTruncationAndEdges:
    """Satellite: ``max_cycles`` and empty/single-uop traces must be
    explicit and identical across backends — including the
    ``RuntimeError`` text, including truncation mid-squash-replay."""

    def test_empty_trace_is_cycle_zero(self):
        trace = MicroTrace().build("empty")
        ref, vec = run_both(
            lambda: Machine(scheme=make_scheme("traditional")), trace)
        assert ref.to_dict() == vec.to_dict()
        assert vec.cycles == 0 and vec.retired_uops == 0

    def test_empty_trace_ignores_negative_ceiling(self):
        trace = MicroTrace().build("empty")
        ref, vec = run_both(
            lambda: Machine(scheme=make_scheme("traditional")), trace,
            max_cycles=-5)
        assert ref.to_dict() == vec.to_dict() and vec.cycles == 0

    def test_single_uop_trace(self):
        trace = MicroTrace().alu(dst=1).build("one")
        ref, vec = run_both(
            lambda: Machine(scheme=make_scheme("traditional")), trace)
        assert ref.to_dict() == vec.to_dict()
        assert vec.retired_uops == 1

    @pytest.mark.parametrize("max_cycles", (-1, 0, 1, 3, 10, 40, 200))
    def test_truncation_outcomes_identical(self, max_cycles):
        # Sweep ceilings across the violation trace's whole lifetime:
        # some land mid-squash-replay, some before rename, some after
        # completion.  Result dicts and error strings must agree.
        ref, vec = outcome_both(
            lambda: Machine(scheme=make_scheme("opportunistic")),
            violation_trace(), max_cycles)
        assert ref == vec

    @pytest.mark.parametrize("max_cycles", (0, 17, 231, 1000, 100000))
    def test_truncation_on_real_trace(self, max_cycles):
        trace = get_trace("gcc", 600)
        ref, vec = outcome_both(
            lambda: Machine(scheme=make_scheme("traditional")),
            trace, max_cycles)
        assert ref == vec

    def test_error_message_shape(self):
        trace = get_trace("gcc", 600)
        with pytest.raises(RuntimeError,
                           match=r"simulation exceeded 3 cycles on "
                                 r"'gcc' \(\d+ uops stuck in flight\)"):
            Machine(scheme=make_scheme("traditional")).run(
                trace, max_cycles=3, policy=VEC)


class TestRoutingAndFallback:
    def test_explicit_reference_backend_never_vectorizes(self,
                                                         monkeypatch):
        from repro.engine import vector

        def boom(*a, **k):  # pragma: no cover - must not be called
            raise AssertionError("vectorized kernel invoked")

        monkeypatch.setattr(vector, "run_vectorized", boom)
        trace = MicroTrace().alu(dst=1).build("one")
        result = Machine(scheme=make_scheme("traditional")).run(
            trace, policy=REF)
        assert result.retired_uops == 1

    @needs_numpy
    def test_env_var_routes_to_vectorized(self, monkeypatch):
        from repro.engine import vector
        calls = []
        real = vector.run_vectorized

        def spy(machine, trace, max_cycles=None):
            calls.append(trace.name)
            return real(machine, trace, max_cycles=max_cycles)

        monkeypatch.setenv("REPRO_BACKEND", "vectorized")
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        monkeypatch.setattr(vector, "run_vectorized", spy)
        trace = MicroTrace().alu(dst=1).build("one")
        Machine(scheme=make_scheme("traditional")).run(trace)
        assert calls == ["one"]

    def test_unsupported_machine_falls_back(self):
        from repro.engine import vector
        m = Machine(scheme=make_scheme("traditional"))
        m.record_timeline = True
        assert vector.unsupported_reason(m) is not None
        trace = MicroTrace().alu(dst=1).build("one")
        # Still runs (scalar path) even when vectorized is requested,
        # and the degrade is recorded instead of silent.
        result = m.run(trace, policy=VEC)
        assert result.retired_uops == 1 and result.timeline is not None
        assert m.last_degrade_reason is not None

    @pytest.mark.parametrize("env_backend", ["reference", "vectorized"])
    def test_degrade_reason_survives_the_armed_oracle(self, monkeypatch,
                                                      env_backend):
        # The oracle wraps the scalar fallback in checked_run, which
        # attaches an event bus; the recorded reason must still name
        # the caller's configuration, not the oracle's bus, whatever
        # REPRO_BACKEND says.
        monkeypatch.setenv("REPRO_BACKEND", env_backend)
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        m = Machine(scheme=make_scheme("traditional"))
        m.record_timeline = True
        trace = MicroTrace().alu(dst=1).build("one")
        result = m.run(trace, policy=VEC)
        assert result.retired_uops == 1 and result.timeline is not None
        assert "timeline" in m.last_degrade_reason

    def test_scheme_subclass_falls_back(self):
        from repro.engine import vector

        class Lying(TraditionalOrdering):
            pass

        m = Machine(scheme=Lying())
        assert "scheme" in vector.unsupported_reason(m)

    def test_custom_mob_falls_back(self):
        from repro.engine import vector

        class WeirdMOB(MemoryOrderBuffer):
            pass

        m = Machine(scheme=make_scheme("traditional"))
        m.mob_factory = WeirdMOB
        assert "MOB" in vector.unsupported_reason(m)

    @needs_numpy
    def test_unsupported_trace_falls_back(self, monkeypatch):
        # Duplicate seqs cannot be lane-encoded (index order must equal
        # seq order); the kernel refuses before touching machine state
        # and Machine.run silently takes the scalar path instead.  The
        # invariant oracle rejects such a malformed trace outright (its
        # rename discipline keys on seq), so compare the bare backends.
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        from repro.common.types import Uop, UopClass
        from repro.engine import vector
        from repro.trace.trace import Trace
        uops = [Uop(seq=0, pc=0x1000, uclass=UopClass.INT, dst=1),
                Uop(seq=0, pc=0x1004, uclass=UopClass.INT, dst=2)]
        trace = Trace(name="dup-seq", uops=uops)
        with pytest.raises(vector.VectorUnsupported,
                           match="non-increasing uop seqs"):
            vector.run_vectorized(
                Machine(scheme=make_scheme("traditional")), trace)
        ref, vec = run_both(
            lambda: Machine(scheme=make_scheme("traditional")), trace)
        assert ref.to_dict() == vec.to_dict()
        assert vec.retired_uops == 2


@needs_numpy
class TestCheckedRun:
    def test_invariants_env_shadow_checks(self, monkeypatch):
        from repro.engine import vector
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        calls = []
        real = vector.checked_vectorized_run
        monkeypatch.setattr(
            vector, "checked_vectorized_run",
            lambda m, t, max_cycles=None: (calls.append(t.name)
                                           or real(m, t,
                                                   max_cycles=max_cycles)))
        trace = get_trace("gcc", 400)
        result = Machine(scheme=make_scheme("traditional")).run(
            trace, policy=VEC)
        assert calls == ["gcc"]
        assert isinstance(result, SimResult)

    @pytest.mark.parametrize("mode,env,armed", [
        ("on", None, True),    # the policy arms it without the env var
        ("off", "1", False),   # ... and disarms it despite the env var
        ("auto", "0", False),  # "0" is off, not a truthy string
        ("auto", "1", True),
    ])
    def test_policy_owns_the_shadow_check(self, monkeypatch, mode, env,
                                          armed):
        from repro.engine import vector
        if env is None:
            monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        else:
            monkeypatch.setenv("REPRO_CHECK_INVARIANTS", env)
        calls = []
        real = vector.checked_vectorized_run
        monkeypatch.setattr(
            vector, "checked_vectorized_run",
            lambda m, t, max_cycles=None: (calls.append(t.name)
                                           or real(m, t,
                                                   max_cycles=max_cycles)))
        trace = get_trace("gcc", 400)
        Machine(scheme=make_scheme("traditional")).run(
            trace, policy=VEC.replace(check_invariants=mode))
        assert calls == (["gcc"] if armed else [])

    def test_lying_kernel_is_caught(self, monkeypatch):
        from repro.engine import vector

        def lying(machine, trace, max_cycles=None):
            result = machine._run_reference(trace, max_cycles)
            result.cycles += 1  # off-by-one nobody would notice
            return result

        monkeypatch.setattr(vector, "run_vectorized", lying)
        trace = get_trace("gcc", 400)
        with pytest.raises(vector.BackendMismatch, match="cycles"):
            vector.checked_vectorized_run(
                Machine(scheme=make_scheme("traditional")), trace)
