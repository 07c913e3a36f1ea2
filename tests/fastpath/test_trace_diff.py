"""Differential equivalence: batch address materialization vs. next().

``AddressStream.materialize`` must return exactly what ``n`` scalar
``next()`` calls would, advance the stream state identically, and —
for rng-consuming streams — preserve the shared rng's consumption
order bit for bit by refusing to batch.
"""

import random

import pytest

from repro.trace.streams import (
    HotColdStream,
    PointerChaseStream,
    RandomStream,
    StrideStream,
)

STRIDES = {
    "unit": lambda: StrideStream(base=0x1000, stride=4, extent=4096),
    "wide": lambda: StrideStream(base=0x8000, stride=192, extent=1000),
    "negative": lambda: StrideStream(base=0x2000, stride=-8, extent=256),
}


def _scalar_block(stream, n, rng):
    return [stream.next(rng) for _ in range(n)]


class TestStrideStream:
    @pytest.mark.parametrize("label", sorted(STRIDES))
    @pytest.mark.parametrize("n", (0, 1, 7, 1000))
    def test_block_and_state_identical(self, label, n):
        reference, vectorized = STRIDES[label](), STRIDES[label]()
        rng = random.Random(0)
        expected = _scalar_block(reference, n, rng)
        got = vectorized.materialize(n, rng, backend="vectorized")
        assert got == expected
        assert vectorized._offset == reference._offset
        # The next scalar address continues the same walk.
        assert vectorized.next(rng) == reference.next(rng)

    def test_repeated_blocks_chain(self):
        reference, vectorized = STRIDES["wide"](), STRIDES["wide"]()
        rng = random.Random(0)
        expected = _scalar_block(reference, 700, rng)
        got = (vectorized.materialize(300, rng, backend="vectorized")
               + vectorized.materialize(400, rng, backend="vectorized"))
        assert got == expected


class TestPointerChaseStream:
    def _pair(self):
        return (PointerChaseStream(base=0x100000, n_nodes=37, perm_seed=7),
                PointerChaseStream(base=0x100000, n_nodes=37, perm_seed=7))

    @pytest.mark.parametrize("n", (0, 1, 36, 37, 38, 500))
    def test_block_wraps_the_cycle_exactly(self, n):
        reference, vectorized = self._pair()
        rng = random.Random(0)
        expected = _scalar_block(reference, n, rng)
        got = vectorized.materialize(n, rng, backend="vectorized")
        assert got == expected
        assert vectorized._current == reference._current

    def test_blocks_after_scalar_use_and_reset(self):
        reference, vectorized = self._pair()
        rng = random.Random(0)
        _scalar_block(reference, 11, rng)
        _scalar_block(vectorized, 11, rng)
        assert vectorized.materialize(80, rng, backend="vectorized") \
            == _scalar_block(reference, 80, rng)
        reference.reset()
        vectorized.reset()
        assert vectorized.materialize(40, rng, backend="vectorized") \
            == _scalar_block(reference, 40, rng)


class TestRngConsumingStreamsStayScalar:
    """Batching a rng-consuming stream would desynchronise every later
    draw from the shared rng; those streams must take the scalar loop
    even under the vectorized backend."""

    def _hotcold(self):
        return HotColdStream(
            hot=StrideStream(base=0, stride=4, extent=512),
            cold=RandomStream(base=0x100000, extent=1 << 20),
            p_cold_burst=0.1)

    @pytest.mark.parametrize("make", [
        lambda self: RandomStream(base=0x4000, extent=8192),
        lambda self: self._hotcold(),
    ], ids=["random", "hotcold"])
    def test_block_and_rng_state_identical(self, make):
        reference, vectorized = make(self), make(self)
        rng_ref, rng_vec = random.Random(5), random.Random(5)
        expected = _scalar_block(reference, 400, rng_ref)
        got = vectorized.materialize(400, rng_vec, backend="vectorized")
        assert got == expected
        # Identical rng consumption: the streams' next draws agree too.
        assert rng_vec.random() == rng_ref.random()


def test_default_backend_controls_materialize(monkeypatch):
    rng = random.Random(0)
    stream = STRIDES["unit"]()
    expected = [stream.next(rng) for _ in range(64)]
    stream.reset()
    monkeypatch.setenv("REPRO_BACKEND", "vectorized")
    assert stream.materialize(64, rng) == expected
    stream.reset()
    monkeypatch.delenv("REPRO_BACKEND")
    assert stream.materialize(64, rng) == expected  # reference default
