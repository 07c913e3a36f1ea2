"""Shared pieces of the differential-equivalence harness.

The contract every test here enforces: a batch kernel must be
*bit-identical* to the scalar reference — same prediction stream, same
confidences (exact float equality), same table/counter/history state
afterwards.  Anything weaker would let the vectorized backend silently
drift the figures.
"""

from repro.cht.barrier import StoreBarrierCache
from repro.cht.tagless import TaglessCHT
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.chooser import MajorityChooser, WeightedChooser
from repro.predictors.gshare import GSharePredictor
from repro.predictors.gskew import GSkewPredictor
from repro.predictors.local import LocalPredictor


def predictor_state(predictor):
    """Full mutable state of a predictor tree or counter-table CHT, as
    plain data."""
    if isinstance(predictor, BimodalPredictor):
        return list(predictor._table.values)
    if isinstance(predictor, LocalPredictor):
        return (list(predictor._histories), list(predictor._pattern.values))
    if isinstance(predictor, GSharePredictor):
        return (predictor._history, list(predictor._table.values))
    if isinstance(predictor, GSkewPredictor):
        return (predictor._history,
                [list(bank.values) for bank in predictor._banks])
    if isinstance(predictor, (MajorityChooser, WeightedChooser)):
        return [predictor_state(c) for c in predictor.components]
    if isinstance(predictor, TaglessCHT):
        return (list(predictor._counters.values), list(predictor._distances))
    if isinstance(predictor, StoreBarrierCache):
        return list(predictor._table.values)
    raise TypeError(f"no state extractor for {type(predictor).__name__}")


def scalar_binary_replay(predictor, pcs, outcomes):
    """The reference predict→update loop over a (pc, outcome) stream."""
    outs, confs = [], []
    for pc, outcome in zip(pcs, outcomes):
        p = predictor.predict(pc)
        outs.append(p.outcome)
        confs.append(p.confidence)
        predictor.update(pc, outcome)
    return outs, confs
