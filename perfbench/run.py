"""The repository's benchmark: one command for every workload.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Workloads: ``figures`` (the paper's figure suite), ``engine_gcc``
(``Machine.run`` on a seeded gcc trace) and ``serve_steps`` (a
one-worker ``ServeFleet`` under open-loop load).
Run it from the root of a checkout.  Every repetition runs in a fresh
interpreter (``child.py``) with ``REPRO_BACKEND`` and
``REPRO_CHECK_INVARIANTS`` unset and no result cache, and every output
is checked after its timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once traced, prints the per-layer metrics
and writes the spans as a Chrome trace under ``.perfbench_out/``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from loadgen import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Every run, child processes included, ends within this many seconds.
DEADLINE_S = 170.0


def load_spec() -> dict:
    """The metric names and units, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts the fresh-interpreter repetitions within one deadline."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.scratch = os.path.join(OUT_DIR, f"scratch-{os.getpid()}")
        os.makedirs(self.scratch, exist_ok=True)
        self.env = dict(os.environ)
        for name in ("REPRO_BACKEND", "REPRO_CHECK_INVARIANTS"):
            self.env.pop(name, None)
        src = os.path.join(ROOT, "src")
        extra = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + extra if extra else "")

    def child(self, **job) -> dict:
        job.update(seed=self.seed, scratch=self.scratch)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise ChildFailed("out of time before starting a repetition")
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            proc.communicate()
            raise ChildFailed(f"{job['workload']} {job['role']} timed out")
        finally:
            _kill_group(proc.pid)
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"{job['workload']} {job['role']} exited "
                              f"with {proc.returncode}")
        return json.loads(lines[-1])

    def repeat(self, seconds: float, **job) -> list:
        """Repetitions while the next one, if as long as the last,
        would end within half of it past ``seconds`` (at least one), so
        a run measures about ``seconds`` on average."""
        t0 = time.monotonic()
        reps, last = [], 0.0
        while not reps or time.monotonic() - t0 + last / 2 <= seconds:
            r0 = time.monotonic()
            reps.append(self.child(**job))
            last = time.monotonic() - r0
        return reps

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def _kill_group(pgid: int) -> None:
    """Stop anything a repetition left behind (a fleet worker)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def median(values) -> float:
    return float(statistics.median(values))


# -- end-to-end runs (--trace 0) ----------------------------------------

def simulation_metrics(reps, latency_key: str) -> dict:
    """The end-to-end metrics of ``figures`` and ``engine_gcc``.

    ``wall_s`` and ``sim_uops_per_s`` are taken over the run's total
    timed work (``wall_s`` is the mean per repetition): with three or
    four repetitions a median keeps one or two of them and halves the
    averaging.  ``p50_ms`` and ``p99_ms`` are percentiles of every job
    time (``latency_key`` names the per-repetition list, in s) pooled
    over the repetitions."""
    wall = sum(r["wall_s"] for r in reps)
    jobs = sorted(t for r in reps for t in r[latency_key])
    return {
        "setup_s": median(r["setup_s"] for r in reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
        "wall_s": wall / len(reps),
        "sim_uops_per_s": sum(r["sim_uops"] for r in reps) / wall,
        "p50_ms": percentile(jobs, 0.50) * 1e3,
        "p99_ms": percentile(jobs, 0.99) * 1e3,
    }


def measure_figures(runner: Runner, seconds: float) -> tuple:
    reps = runner.repeat(seconds, workload="figures", role="measure")
    metrics = simulation_metrics(reps, "job_s")
    fig8 = median(r["figure_s"]["fig8"] / r["wall_s"] for r in reps)
    notes = [_reps_line(reps),
             f"simulation jobs per suite {len(reps[0]['job_s'])}; "
             f"fig8 share of wall {fig8:.1%}"]
    for r in reps:
        if r["wrong"]:
            notes.append("figure digests differ: " + ", ".join(r["wrong"]))
    counts = _counts(sum(r["attempted"] for r in reps),
                     sum(r["failed"] for r in reps))
    return metrics, counts, notes


def measure_engine(runner: Runner, seconds: float) -> tuple:
    reps = runner.repeat(seconds, workload="engine_gcc", role="measure")
    reference = runner.child(workload="engine_gcc", role="check")
    metrics = simulation_metrics(reps, "run_s")
    failed, notes = _engine_check(reps, reference)
    notes.insert(0, _reps_line(reps))
    attempted = sum(len(r["run_s"]) for r in reps)
    return metrics, _counts(attempted, failed), notes


def _reps_line(reps) -> str:
    walls = " ".join(f"{r['wall_s']:.3f}" for r in reps)
    return f"repetitions {len(reps)}, wall s: {walls}"


def _engine_check(reps, reference) -> tuple:
    failed, notes = 0, []
    for r in reps:
        for label, digest in r["digests"].items():
            if digest != reference["digests"][label]:
                failed += 1
                notes.append(f"{label}: vectorized result differs from "
                             "the reference backend")
        if r["degrades"]:
            failed += r["degrades"]
            notes.append(f"{r['degrades']} run(s) degraded to the scalar "
                         "engine")
    return failed, notes


def measure_serve(runner: Runner, seconds: float) -> tuple:
    reps = runner.repeat(seconds, workload="serve_steps", role="measure")
    metrics = {
        "setup_s": median(p["setup_s"] for p in reps),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in reps),
        "wall_s": median(p["wall_s"] for p in reps),
        "sim_uops_per_s": median(p["steps_per_s"] for p in reps),
        "p50_ms": median(p["p50_ms"] for p in reps),
        "p99_ms": median(p["p99_ms"] for p in reps),
    }
    notes = [_serve_line("nominal 2000 rps", p) for p in reps]
    return metrics, _serve_counts(reps), notes


def _serve_counts(phases) -> dict:
    return _counts(*(sum(p[key] for p in phases) for key in
                     ("sent", "failed", "succeeded", "refused", "lost")))


def _serve_line(label: str, p: dict) -> str:
    return (f"{label}: sent {p['sent']} succeeded {p['succeeded']} "
            f"refused {p['refused']} lost {p['lost']} failed {p['failed']}"
            f" p50 {p['p50_ms']:.3f} ms p99 {p['p99_ms']:.3f} ms"
            f" stall {p['stall_ms']:.1f} ms generator lag p99 "
            f"{p['lag_p99_ms']:.3f} ms")


def _counts(attempted: int, failed: int, succeeded=None, refused=0,
            lost=0) -> dict:
    return {"sent": attempted,
            "succeeded": (attempted - failed if succeeded is None
                          else succeeded),
            "refused": refused, "lost": lost, "failed": failed}


# -- traced run (--trace 1) ---------------------------------------------

def traced(runner: Runner, workload: str, per_layer) -> tuple:
    trace_out = os.path.join(OUT_DIR, f"trace-{workload}-seed"
                                      f"{runner.seed}.json")
    plain = runner.child(workload=workload, role="untraced")
    run = runner.child(workload=workload, role="traced",
                       trace_out=trace_out)
    layers = dict.fromkeys(per_layer, 0.0)
    layers.update(run["layers"])
    for layer, seconds in run["shares"].items():
        layers[f"self.{layer}_s"] = seconds
    layers["trace.wall_s"] = run["traced_wall_s"]
    # ``region_s``: the untraced time of the region the traced run's
    # root span covers.
    layers["trace.untraced_wall_s"] = plain["region_s"]
    layers["trace.overhead_s"] = run["traced_wall_s"] - plain["region_s"]
    shares = sum(v for k, v in layers.items() if k.startswith("self."))
    notes = [f"spans written to {os.path.relpath(trace_out, ROOT)}",
             f"layer self times sum to {shares:.6f} s of "
             f"{run['traced_wall_s']:.6f} s traced wall"]
    if workload == "engine_gcc":
        reference = runner.child(workload=workload, role="check")
        failed, more = _engine_check([plain, run], reference)
        notes += more
        counts = _counts(2 * len(run["run_s"]), failed)
    elif workload == "figures":
        counts = _counts(plain["attempted"] + run["attempted"],
                         plain["failed"] + run["failed"])
    else:
        ladder = runner.child(workload=workload, role="ladder")
        layers["serve.max_rate_rps"] = ladder["max_rate_rps"]
        notes.append(_serve_line("untraced", plain))
        notes.append(_serve_line("traced", run))
        notes += [_serve_line(f"ladder {p['rate']:g} rps "
                              f"{'pass' if p['passed'] else 'fail'}", p)
                  for p in ladder["probes"]]
        counts = _serve_counts([plain, run, run["in_process"]]
                               + ladder["probes"])
    return layers, counts, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("figures", "engine_gcc", "serve_steps"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"error: no program to benchmark: {ROOT}/src/repro is "
              "missing (run from the root of a checkout)", file=sys.stderr)
        return 2

    # A terminated run still stops its repetition's process group (the
    # ``finally`` in Runner.child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = load_spec()
    group = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in group}
    runner = Runner(args.seed)
    try:
        if args.trace:
            metrics, counts, notes = traced(runner, args.workload, units)
        elif args.workload == "figures":
            metrics, counts, notes = measure_figures(runner, args.seconds)
        elif args.workload == "engine_gcc":
            metrics, counts, notes = measure_engine(runner, args.seconds)
        else:
            metrics, counts, notes = measure_serve(runner, args.seconds)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()
    unknown = set(metrics) ^ set(units)
    if unknown:
        print(f"error: metrics disagree with BENCHMARK.json: "
              f"{sorted(unknown)}", file=sys.stderr)
        return 1

    for line in notes:
        print(f"# {line}")
    print("# " + " ".join(f"{k} {v}" for k, v in counts.items()))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["sent"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
