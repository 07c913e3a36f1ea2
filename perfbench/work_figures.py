"""Workload ``figures``: the paper's figure suite at a small budget.

Runs every figure of ``python -m repro.experiments all`` the way the
CLI does: serial, no result cache, default execution policy, one
``execution(ExecutionPlan())`` context per figure.  Trace seeds come
from the paper roster's trace names, so ``--seed`` does not change the
inputs of this workload.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

_clock = time.perf_counter

#: The benchmark's budget (CLI: ``--uops 1000 --traces-per-group 1``).
N_UOPS = 1000
TRACES_PER_GROUP = 1
DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "figure_digests.json")
BUDGET_KEY = f"uops={N_UOPS},traces_per_group={TRACES_PER_GROUP}"


def figure_order(experiments) -> list:
    """Paper figures first, extension studies after (the CLI's order)."""
    return (sorted(n for n in experiments if n.startswith("fig"))
            + sorted(n for n in experiments if n.startswith("ext")))


def digest(data) -> str:
    """Digest of one figure's data as the CLI's ``--json`` encodes it."""
    text = json.dumps(data, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def run(job, start: float) -> dict:
    traced = job["role"] == "traced"
    from tracing import Tracer, patch_function
    from repro.engine.machine import Machine
    from repro.experiments import EXPERIMENTS, ExperimentSettings
    from repro.experiments import bank_metric, cht_accuracy, hitmiss_stats
    from repro.parallel import ExecutionPlan, execution
    from repro.parallel.runner import run_jobs
    from repro.trace.builder import build_trace
    setup_s = _clock() - start

    settings = ExperimentSettings(n_uops=N_UOPS,
                                  traces_per_group=TRACES_PER_GROUP)
    figures = figure_order(EXPERIMENTS)
    sim = {"uops": 0, "runs": 0}
    machine_run = Machine.run

    def counted_run(self, trace, *args, **kwargs):
        result = machine_run(self, trace, *args, **kwargs)
        sim["uops"] += result.retired_uops
        sim["runs"] += 1
        return result

    tracer = Tracer() if traced else None
    if traced:
        Machine.run = tracer.wrap(counted_run, "engine.run", "engine")
        patch_function(build_trace, tracer.wrap(
            build_trace, "trace.build", "trace"))
        patch_function(run_jobs, tracer.wrap(
            run_jobs, "parallel.run_jobs", "parallel"))
        cht_accuracy.replay = tracer.wrap(
            cht_accuracy.replay, "cht.replay", "cht")
        hitmiss_stats.replay = tracer.wrap(
            hitmiss_stats.replay, "hitmiss.replay", "hitmiss")
        bank_metric.evaluate = tracer.wrap(
            bank_metric.evaluate, "bank.replay", "bank")
    else:
        Machine.run = counted_run

    plan = ExecutionPlan()
    collected = {}
    per_figure = {}
    job_s = []
    t0 = _clock()
    root = tracer.open("figures", "other") if traced else None
    for figure in figures:
        f0 = _clock()
        if traced:
            with tracer.span(f"experiments.{figure}", "experiments"):
                with execution(plan) as report:
                    collected[figure] = EXPERIMENTS[figure](settings)
        else:
            with execution(plan) as report:
                collected[figure] = EXPERIMENTS[figure](settings)
        per_figure[figure] = _clock() - f0
        job_s.extend(r.wall_seconds for r in report.records)
    if traced:
        tracer.close(root)
    wall_s = _clock() - t0

    # -- everything below is outside the timed region ------------------
    digests = {figure: digest(collected[figure]) for figure in figures}
    result = {"setup_s": setup_s, "wall_s": wall_s, "region_s": wall_s,
              "figure_s": per_figure,
              "job_s": job_s, "sim_uops": sim["uops"],
              "engine_runs": sim["runs"], "digests": digests}
    if job["role"] == "digests":
        return result
    expected = {}
    if os.path.exists(DIGEST_FILE):
        with open(DIGEST_FILE, encoding="utf-8") as handle:
            expected = json.load(handle).get(BUDGET_KEY, {})
    wrong = [f for f in figures if expected.get(f) != digests[f]]
    result.update(attempted=len(figures), succeeded=len(figures) - len(wrong),
                  failed=len(wrong), wrong=wrong)
    if traced:
        result["layers"] = _layers(tracer, per_figure, job_s)
        result["tracer"] = tracer
    return result


def _layers(tracer, per_figure, job_s) -> dict:
    incl = tracer.incl_s
    calls = tracer.calls
    metrics = {f"experiments.{f}_s": s for f, s in per_figure.items()}
    metrics.update({
        "trace.build_s": incl.get("trace.build", 0.0),
        "trace.builds": calls.get("trace.build", 0),
        "engine.run_s": incl.get("engine.run", 0.0),
        "engine.runs": calls.get("engine.run", 0),
        "cht.replay_s": incl.get("cht.replay", 0.0),
        "hitmiss.replay_s": incl.get("hitmiss.replay", 0.0),
        "bank.replay_s": incl.get("bank.replay", 0.0),
        "parallel.jobs": len(job_s),
        "parallel.overhead_s": (incl.get("parallel.run_jobs", 0.0)
                                - sum(job_s)),
    })
    return metrics
