"""Backend selection for the vectorized fast path.

Every table-indexed predictor accepts ``backend="reference"`` (the
scalar, pure-Python loops — always available, always authoritative) or
``backend="vectorized"`` (numpy batch kernels from :mod:`repro.fastpath`
that the replay harnesses use to process whole event streams at once).

This leaf module is also where the ``"auto"`` modes of
:class:`repro.api.ExecutionPolicy` read the environment, and the only
place that does: ``backend="auto"`` (and a predictor's ``backend=None``)
resolves from ``REPRO_BACKEND``, else ``"reference"``;
``check_invariants="auto"`` arms the shadow oracles when
``REPRO_CHECK_INVARIANTS`` is set to anything but empty or ``"0"``.
These are the switches CI and tests use for a whole run.  numpy is
optional: when it is missing the vectorized backend silently degrades
to the reference loops, so nothing in the repository *requires* numpy.
"""

from __future__ import annotations

import os
from typing import Optional

try:  # numpy is an optional accelerator, never a hard dependency
    import numpy  # noqa: F401

    HAS_NUMPY = True
except ImportError:  # pragma: no cover - exercised only without numpy
    HAS_NUMPY = False

BACKENDS = ("reference", "vectorized")

_BACKEND_ENV = "REPRO_BACKEND"
_INVARIANTS_ENV = "REPRO_CHECK_INVARIANTS"


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKENDS}")
    return name


def default_backend() -> str:
    """The backend ``"auto"`` resolves to: ``REPRO_BACKEND``, else
    ``"reference"``."""
    env = os.environ.get(_BACKEND_ENV)
    if env:
        return _validate(env)
    return "reference"


def default_invariants() -> bool:
    """Whether ``check_invariants="auto"`` arms the shadow oracles."""
    return os.environ.get(_INVARIANTS_ENV, "") not in ("", "0")


def resolve_backend(backend: Optional[str]) -> str:
    """Resolve a constructor's ``backend`` argument to a concrete name.

    ``None`` means "use the default".  A request for the vectorized
    backend on an interpreter without numpy degrades to the reference
    backend rather than failing: the fast path is an accelerator, not a
    capability.
    """
    name = default_backend() if backend is None else _validate(backend)
    if name == "vectorized" and not HAS_NUMPY:
        return "reference"
    return name
