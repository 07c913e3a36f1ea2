"""Workload ``engine_gcc``: ``Machine.run`` on a seeded gcc trace.

One sweep is six cold runs under ``ExecutionPolicy(backend=
"vectorized")``: the five section-3.1 ordering schemes of Figure 7 and
the hybrid-HMP-guided perfect-disambiguation machine of Figure 11.
Each run gets a fresh ``Trace`` object, so its lanes are converted
again, as in every figure job; the memory hierarchy, the HMP and the
CHT are built here and injected into ``Machine``.
"""

from __future__ import annotations

import hashlib
import json
import time

_clock = time.perf_counter

#: Uops of the gcc trace (the profile's full 100k would leave no time
#: for repeats inside one run; lane conversion scales linearly).
N_UOPS = 40_000
SCHEMES = ("postponing", "opportunistic", "inclusive", "exclusive",
           "perfect")
CHT_SCHEMES = ("postponing", "inclusive", "exclusive")
CONFIGS = SCHEMES + ("hybrid-hmp",)


def build_machine(label: str):
    """(machine, hierarchy, hmp, cht) for one sweep entry."""
    from repro import Machine, make_scheme
    from repro.api import build_predictor, spec_for
    from repro.cht.full import FullCHT
    from repro.common.config import BASELINE_MACHINE
    from repro.hitmiss.oracle import AlwaysHitHMP
    from repro.memory.hierarchy import MemoryHierarchy

    if label == "hybrid-hmp":  # Figure 11's machine and predictor
        config = BASELINE_MACHINE.with_units(4, 2)
        scheme_name, hmp = "perfect", build_predictor(spec_for("hmp.hybrid"))
    else:
        config, scheme_name, hmp = BASELINE_MACHINE, label, AlwaysHitHMP()
    cht = None
    if scheme_name in CHT_SCHEMES:  # Figure 7's 2K-entry 4-way Full CHT
        cht = FullCHT(n_entries=2048, ways=4, counter_bits=2,
                      track_distance=(scheme_name == "exclusive"))
    hierarchy = MemoryHierarchy(config.memory)
    machine = Machine(config=config, scheme=make_scheme(scheme_name, cht=cht),
                      hmp=hmp, hierarchy=hierarchy)
    return machine, hierarchy, hmp, cht


def result_digest(result) -> str:
    text = json.dumps(result.to_dict(), sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def run(job, start: float) -> dict:
    traced = job["role"] == "traced"
    from tracing import Tracer, patch_function, patch_method
    from repro import Machine, build_trace, profile_for
    from repro.api import ExecutionPolicy
    from repro.fastpath import uoparrays
    from repro.trace.trace import Trace

    b0 = _clock()
    master = build_trace(profile_for("gcc"), n_uops=N_UOPS,
                         seed=job["seed"], name="gcc")
    build_s = _clock() - b0
    setup_s = _clock() - start

    backend = "reference" if job["role"] == "check" else "vectorized"
    policy = ExecutionPolicy(backend=backend)
    tracer = Tracer() if traced else None
    if traced:
        Machine.run = tracer.wrap(Machine.run, "engine.run", "engine")
        patch_function(uoparrays.trace_arrays, tracer.wrap(
            uoparrays.trace_arrays, "fastpath.uoparrays", "fastpath"))

    run_s, uops, digests, degrades = [], 0, {}, 0
    l0 = _clock()
    root = tracer.open("engine_gcc", "other") if traced else None
    for label in CONFIGS:
        machine, hierarchy, hmp, cht = build_machine(label)
        if traced:
            for method in ("load", "store"):
                patch_method(hierarchy, method, tracer,
                             f"memory.{method}", "memory")
            for method in ("predict_hit", "observed_update"):
                patch_method(hmp, method, tracer, f"hitmiss.{method}",
                             "hitmiss")
            if cht is not None:
                for method in ("lookup", "observed_train"):
                    patch_method(cht, method, tracer, f"cht.{method}",
                                 "cht")
        trace = Trace(name=master.name, uops=list(master.uops),
                      group=master.group, seed=master.seed)
        t0 = _clock()
        result = machine.run(trace, policy=policy)
        run_s.append(_clock() - t0)
        uops += result.retired_uops
        degrades += machine.last_degrade_reason is not None
        digests[label] = result_digest(result)
    if traced:
        tracer.close(root)
    region_s = _clock() - l0

    # ``wall_s`` is the Machine.run calls alone; ``region_s`` also
    # covers building each machine and copying the trace.
    out = {"setup_s": setup_s, "build_s": build_s, "run_s": run_s,
           "wall_s": sum(run_s), "region_s": region_s, "sim_uops": uops,
           "digests": digests, "degrades": degrades}
    if traced:
        incl, calls = tracer.incl_s, tracer.calls
        out["layers"] = {
            "trace.build_s": build_s,
            "trace.builds": 1,
            "engine.run_s": incl.get("engine.run", 0.0),
            "engine.runs": calls.get("engine.run", 0),
            "fastpath.uoparrays_s": incl.get("fastpath.uoparrays", 0.0),
            "engine.vector_self_s": tracer.self_s.get("engine", 0.0),
            "memory.load_s": incl.get("memory.load", 0.0),
            "memory.loads": calls.get("memory.load", 0),
            "hitmiss.s": (incl.get("hitmiss.predict_hit", 0.0)
                          + incl.get("hitmiss.observed_update", 0.0)),
            "hitmiss.calls": (calls.get("hitmiss.predict_hit", 0)
                              + calls.get("hitmiss.observed_update", 0)),
            "cht.s": (incl.get("cht.lookup", 0.0)
                      + incl.get("cht.observed_train", 0.0)),
            "cht.calls": (calls.get("cht.lookup", 0)
                          + calls.get("cht.observed_train", 0)),
            "engine.degrades": degrades,
        }
        out["tracer"] = tracer
    return out
