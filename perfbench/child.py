"""One cold repetition of a workload, in a fresh interpreter.

``run.py`` starts this file once per repetition, so every repetition
imports the program afresh: its trace memo, its CHT event memo and the
``trace_arrays`` lanes start empty, as in a user's own process.

    python3 perfbench/child.py '<json job>'

prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import json
import resource
import sys
import time

#: Set before any import of the program: setup time starts here.
START = time.perf_counter()


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's (a fleet
    worker), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def main(argv) -> int:
    job = json.loads(argv[1])
    workload = job["workload"]
    if workload == "figures":
        import work_figures as module
    elif workload == "engine_gcc":
        import work_engine as module
    else:
        import work_serve as module
    result = module.run(job, START)
    tracer = result.pop("tracer", None)
    if tracer is not None:
        # Every kept span nests under the workload's root span, so the
        # layers' self times add up to the traced wall time.
        tracer.write_chrome(job["trace_out"])
        result["shares"] = dict(tracer.self_s)
        result["traced_wall_s"] = sum(tracer.self_s.values())
    result["peak_rss_mb"] = peak_rss_mb()
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
