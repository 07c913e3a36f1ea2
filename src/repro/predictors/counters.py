"""Per-entry state machines: saturating counters and sticky bits.

Section 2.1 notes that a 1-bit saturating counter or a sticky bit is
"enough" for collision prediction; larger counters (the classic 2-bit
bimodal cell) add hysteresis.  :class:`CounterTable` packs a whole
indexed table of such counters into one ``bytearray`` (the bimodal,
local, gshare and gskew tables, the tagless CHT, the store barrier
cache); :class:`SaturatingCounter` is the single counter that is one
field of a per-entry record (full, annotated and address tables).
Both share the saturating arithmetic below.
"""

from __future__ import annotations


def _limits(bits: int, threshold: int | None) -> tuple[int, int]:
    """Validated (max, threshold) of a ``bits``-wide counter."""
    if bits < 1:
        raise ValueError("counter needs at least one bit")
    max_value = (1 << bits) - 1
    threshold = (max_value + 1) // 2 if threshold is None else threshold
    if not 0 < threshold <= max_value:
        raise ValueError("threshold out of range")
    return max_value, threshold


def _trained(value: int, outcome: bool, max_value: int) -> int:
    """One saturating step toward ``outcome``."""
    if outcome:
        return value + 1 if value < max_value else value
    return value - 1 if value > 0 else value


def _confidence(value: int, threshold: int, max_value: int) -> float:
    """Distance from the decision boundary, normalised to [0, 1]."""
    if value >= threshold:
        span = max_value - threshold
        return 1.0 if span == 0 else (value - threshold) / span
    span = threshold - 1
    return 1.0 if span == 0 else (threshold - 1 - value) / span


class SaturatingCounter:
    """An n-bit up/down saturating counter with a configurable threshold.

    The counter predicts *true* when its value is at or above the
    threshold (default: the midpoint, the usual weakly-taken boundary).
    """

    __slots__ = ("bits", "value", "_max", "_threshold")

    def __init__(self, bits: int = 2, initial: int = 0,
                 threshold: int | None = None) -> None:
        self._max, self._threshold = _limits(bits, threshold)
        if not 0 <= initial <= self._max:
            raise ValueError("initial value out of range")
        self.bits = bits
        self.value = initial

    @property
    def prediction(self) -> bool:
        return self.value >= self._threshold

    @property
    def confidence(self) -> float:
        """Distance from the decision boundary, normalised to [0, 1]."""
        return _confidence(self.value, self._threshold, self._max)

    @property
    def is_saturated(self) -> bool:
        return self.value in (0, self._max)

    def train(self, outcome: bool) -> None:
        self.value = _trained(self.value, outcome, self._max)

    def reset(self, value: int = 0) -> None:
        if not 0 <= value <= self._max:
            raise ValueError("reset value out of range")
        self.value = value

    def __repr__(self) -> str:
        return f"SaturatingCounter(bits={self.bits}, value={self.value})"


class CounterTable:
    """An indexed table of ``bits``-wide saturating counters, all
    starting at 0 with the default (midpoint) threshold.

    Width, max and threshold are kept once per table; the cells are one
    ``bytearray`` (``values``), so a table pickles as a single buffer
    and the batch kernels read and write it in place through
    ``np.frombuffer``.  Cell ``i`` behaves exactly like a
    :class:`SaturatingCounter` of the same width.
    """

    __slots__ = ("bits", "max", "threshold", "values")

    def __init__(self, n_entries: int, bits: int = 2) -> None:
        self.max, self.threshold = _limits(bits, None)
        if bits > 8:
            raise ValueError("packed counters hold at most 8 bits")
        self.bits = bits
        self.values = bytearray(n_entries)

    def prediction(self, index: int) -> bool:
        return self.values[index] >= self.threshold

    def confidence(self, index: int) -> float:
        return _confidence(self.values[index], self.threshold, self.max)

    def train(self, index: int, outcome: bool) -> None:
        self.values[index] = _trained(self.values[index], outcome, self.max)

    def reset(self) -> None:
        self.values = bytearray(len(self.values))

    def __repr__(self) -> str:
        return f"CounterTable(entries={len(self.values)}, bits={self.bits})"


class StickyBit:
    """A set-once bit: after its first ``True`` outcome it stays set.

    This is the paper's safest collision predictor — "after its first
    collision, the load is always predicted as colliding".  It can only
    be cleared wholesale (cyclic clearing, section 2.1 / [Chry98]).
    """

    __slots__ = ("value",)

    def __init__(self, value: bool = False) -> None:
        self.value = value

    @property
    def prediction(self) -> bool:
        return self.value

    @property
    def confidence(self) -> float:
        return 1.0 if self.value else 0.0

    def train(self, outcome: bool) -> None:
        if outcome:
            self.value = True

    def reset(self) -> None:
        self.value = False

    def __repr__(self) -> str:
        return f"StickyBit({self.value})"
