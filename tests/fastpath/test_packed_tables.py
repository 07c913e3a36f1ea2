"""Packed counter tables survive pickling bit for bit.

Serving snapshots, WAL compaction and fleet migration move predictors
as pickles.  For each predictor whose counters live in a packed
``CounterTable``, a pickled-and-restored copy must keep predicting, and
end in the same state, exactly like an un-pickled twin fed the same
stream, under both the scalar (reference) and the batch-kernel
(vectorized) backends.
"""

import pickle
import random

import numpy as np
import pytest

from repro.cht.barrier import StoreBarrierCache
from repro.cht.tagless import TaglessCHT
from repro.fastpath.batchapi import replay_steps
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.gskew import GSkewPredictor
from repro.predictors.local import LocalPredictor
from repro.serve.batch import scalar_steps

from tests.fastpath.helpers import predictor_state

#: name -> (serving family, factory(backend))
FACTORIES = {
    "bimodal": ("binary", lambda backend: BimodalPredictor(
        n_entries=256, backend=backend)),
    "local": ("binary", lambda backend: LocalPredictor(
        n_entries=128, history_bits=6, backend=backend)),
    "gshare": ("binary", lambda backend: GSharePredictor(
        history_bits=7, backend=backend)),
    "gskew": ("binary", lambda backend: GSkewPredictor(
        history_bits=9, bank_entries=128, backend=backend)),
    "tagless": ("cht", lambda backend: TaglessCHT(
        n_entries=256, counter_bits=2, track_distance=True,
        backend=backend)),
}


def _stream(seed, n=600):
    rng = random.Random(seed)
    pcs = np.array([0x400 + 4 * rng.randrange(48) for _ in range(n)],
                   dtype=np.int64)
    outcomes = np.array([rng.randrange(2) for _ in range(n)],
                        dtype=np.int64)
    extras = np.array([rng.randrange(1, 9) for _ in range(n)],
                      dtype=np.int64)
    return pcs, outcomes, extras


def _run(backend, family, predictor, stream):
    pcs, outcomes, extras = stream
    if backend == "vectorized":
        return replay_steps(family, predictor, pcs, outcomes,
                            extras).tolist()
    return scalar_steps(family, predictor, pcs.tolist(), outcomes.tolist(),
                        extras.tolist())


@pytest.mark.parametrize("backend", ("reference", "vectorized"))
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_pickled_predictor_continues_like_its_twin(name, backend):
    family, factory = FACTORIES[name]
    twin = factory(backend)
    _run(backend, family, twin, _stream(1))
    restored = pickle.loads(pickle.dumps(twin,
                                         protocol=pickle.HIGHEST_PROTOCOL))
    assert type(restored) is type(twin)
    assert predictor_state(restored) == predictor_state(twin)

    tail = _stream(2)
    assert _run(backend, family, restored, tail) == \
        _run(backend, family, twin, tail)
    assert predictor_state(restored) == predictor_state(twin)


def test_pickled_store_barrier_continues_like_its_twin():
    # The barrier cache has no batch kernel: its scalar API is the only
    # backend.
    rng = random.Random(3)
    events = [(0x800 + 4 * rng.randrange(32), rng.random() < 0.4)
              for _ in range(800)]
    twin = StoreBarrierCache(n_entries=64)
    for pc, violated in events[:400]:
        twin.train(pc, violated)
    restored = pickle.loads(pickle.dumps(twin))
    assert predictor_state(restored) == predictor_state(twin)
    for pc, violated in events[400:]:
        assert restored.is_barrier(pc) == twin.is_barrier(pc)
        restored.train(pc, violated)
        twin.train(pc, violated)
    assert predictor_state(restored) == predictor_state(twin)
