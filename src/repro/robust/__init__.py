"""repro.robust — fault injection, invariant checking, self-healing.

The speculation machinery this repo reproduces (CHT memory-dependence
prediction, hit/miss prediction, bank prediction) is only trustworthy if
the simulated core's recovery semantics are actually correct: a silently
broken MOB or a mis-squashed replay produces plausible-looking speedup
curves that are wrong.  This package is the correctness spine:

* :mod:`repro.robust.invariants` — an :class:`InvariantChecker` that
  subscribes to the :mod:`repro.obs` event bus and asserts the machine's
  recovery contract (program-order retirement, no forwarding from
  younger stores, collision → squash/replay pairing, MOB lifecycle
  balance, conservation of retired uops, per-scheme guarantees).
  Violations raise a structured :class:`InvariantViolation` carrying the
  recent event window for post-mortem.  Opt in per run with
  :func:`checked_run`, or for every ``Machine.run`` through
  ``ExecutionPolicy(check_invariants="on")`` (``"auto"`` follows
  ``REPRO_CHECK_INVARIANTS``).

* :mod:`repro.robust.faults` — a deterministic, seeded
  :class:`FaultPlan` plus a library of saboteurs: predictor-output
  flippers (CHT / HMP / bank), memory-latency injection, result-cache
  corruption, worker kill/stall injection, and deliberately broken
  engine components (:class:`SabotagedMOB`, :class:`SkipSquashMachine`,
  :class:`LyingOrdering`) that chaos tests use to prove the oracle
  catches real breakage and the runner degrades gracefully.

The self-healing execution side (per-job timeouts, bounded retries,
pool-to-serial fallback, partial-result reporting) lives in
:mod:`repro.parallel.runner` and consumes :class:`FaultPlan` via
:class:`~repro.parallel.runner.ExecutionPlan`.  See
``docs/robustness.md`` for the full catalogue and knobs.
"""

from repro.robust.invariants import (
    InvariantChecker,
    InvariantViolation,
    checked_run,
)
from repro.robust.faults import (
    FaultPlan,
    FaultyBankPredictor,
    FaultyCHT,
    FaultyHMP,
    KILL_EXIT_CODE,
    LatencyFaultHierarchy,
    LyingOrdering,
    SabotagedMOB,
    SkipSquashMachine,
    apply_fault_plan,
    corrupt_cache,
    parse_chaos_spec,
)

__all__ = [
    "FaultPlan",
    "FaultyBankPredictor",
    "FaultyCHT",
    "FaultyHMP",
    "InvariantChecker",
    "InvariantViolation",
    "KILL_EXIT_CODE",
    "LatencyFaultHierarchy",
    "LyingOrdering",
    "SabotagedMOB",
    "SkipSquashMachine",
    "apply_fault_plan",
    "checked_run",
    "corrupt_cache",
    "parse_chaos_spec",
]
