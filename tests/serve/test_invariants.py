"""The serving invariant oracle: kernel divergence must be caught.

When the shard's ExecutionPolicy arms the oracle
(``check_invariants="on"``, or ``"auto"`` with
``REPRO_CHECK_INVARIANTS`` set) every kernel-executed run is
shadow-replayed scalar on a copy of the pre-batch predictor; both the
results and the post-run predictor state must match bit-for-bit.  These
tests prove the oracle *fails* when the kernel misbehaves — an oracle
that cannot fail verifies nothing.
"""

import asyncio

import pytest

from repro.api import ExecutionPolicy, spec_for
from repro.serve import PredictRequest, PredictionService, ServeConfig
from repro.serve.batch import (
    VIA_KERNEL,
    ServeInvariantViolation,
    execute_steps_ex,
)
from repro.serve.session import Session

numpy = pytest.importorskip("numpy")


def _requests(n=32):
    return [PredictRequest("s", op="step", pc=0x40 + 4 * (i % 3),
                           outcome=i % 2, seq=i) for i in range(n)]


def test_clean_kernel_passes_under_invariants():
    session = Session("s", spec_for("hmp.local", size=64, history=2),
                      backend="vectorized")
    results, via = execute_steps_ex(session, _requests(), "vectorized",
                                    min_kernel_run=4, check=True)
    assert via == VIA_KERNEL
    assert len(results) == 32


def test_corrupted_results_raise(monkeypatch):
    from repro.fastpath import batchapi
    real = batchapi.replay_steps

    def lying_kernel(family, predictor, pcs, outcomes, extras):
        out = numpy.array(real(family, predictor, pcs, outcomes, extras))
        out[5] ^= 1  # flip one prediction
        return out

    monkeypatch.setattr(batchapi, "replay_steps", lying_kernel)
    session = Session("s", spec_for("hmp.local", size=64, history=2),
                      backend="vectorized")
    with pytest.raises(ServeInvariantViolation, match="index 5"):
        execute_steps_ex(session, _requests(), "vectorized",
                         min_kernel_run=4, check=True)


def test_corrupted_state_raises(monkeypatch):
    from repro.fastpath import batchapi
    real = batchapi.replay_steps

    def state_scrambling_kernel(family, predictor, pcs, outcomes, extras):
        out = real(family, predictor, pcs, outcomes, extras)
        predictor.update(0x9999, False)  # extra, unreplayed training
        return out

    monkeypatch.setattr(batchapi, "replay_steps", state_scrambling_kernel)
    session = Session("s", spec_for("hmp.local", size=64, history=2),
                      backend="vectorized")
    with pytest.raises(ServeInvariantViolation, match="state"):
        execute_steps_ex(session, _requests(), "vectorized",
                         min_kernel_run=4, check=True)


def test_divergence_surfaces_in_band_not_fatally(monkeypatch):
    """Through the full service, a violation resolves the affected
    requests with an internal error and the shard survives."""
    from repro.fastpath import batchapi

    def broken_kernel(family, predictor, pcs, outcomes, extras):
        raise ServeInvariantViolation("synthetic divergence")

    monkeypatch.setattr(batchapi, "replay_steps", broken_kernel)

    async def main():
        config = ServeConfig(n_shards=1, min_kernel_run=4,
                             policy=ExecutionPolicy(backend="vectorized"))
        async with PredictionService(config) as service:
            await service.open_session("s", spec_for("hmp.local",
                                                     size=64))
            responses = await asyncio.gather(*[
                service.submit(r) for r in _requests(16)])
            assert all(not r.ok for r in responses)
            assert all("ServeInvariantViolation" in r.error
                       for r in responses)
            # The shard is still alive and serving.
            ping = await service.request(PredictRequest(
                "s", op="predict", pc=0x40))
            assert ping.ok
    asyncio.run(main())


@pytest.mark.parametrize("mode,env,armed", [
    ("on", None, True),    # the policy arms it without the env var
    ("off", "1", False),   # ... and disarms it despite the env var
    ("auto", "0", False),  # "0" is off, not a truthy string
    ("auto", "1", True),
])
def test_policy_owns_the_kernel_batch_oracle(monkeypatch, mode, env,
                                             armed):
    """The shard arms the shadow check from its policy alone: a lying
    kernel is caught exactly when the policy says the oracle is on."""
    from repro.fastpath import batchapi
    real = batchapi.replay_steps

    def lying_kernel(family, predictor, pcs, outcomes, extras):
        out = numpy.array(real(family, predictor, pcs, outcomes, extras))
        out[5] ^= 1
        return out

    if env is None:
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
    else:
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", env)
    monkeypatch.setattr(batchapi, "replay_steps", lying_kernel)
    policy = ExecutionPolicy(backend="vectorized", check_invariants=mode)

    async def main():
        config = ServeConfig(n_shards=1, min_kernel_run=4, policy=policy)
        async with PredictionService(config) as service:
            await service.open_session("s", spec_for("hmp.local",
                                                     size=64))
            return await asyncio.gather(*[
                service.submit(r) for r in _requests(16)])

    responses = asyncio.run(main())
    if armed:
        assert all(not r.ok and "ServeInvariantViolation" in r.error
                   for r in responses)
    else:
        assert all(r.ok for r in responses)
