"""Regenerate ``figure_digests.json``: the per-figure data digests the
``figures`` workload checks against, produced under the scalar
reference backend at the benchmark's budget.

    python3 perfbench/make_figure_digests.py

Run it from the root of a checkout, only when the figures' data is
meant to change (a modelling change, or a new budget).
"""

from __future__ import annotations

import json
import os
import sys

import work_figures
from run import Runner


def main() -> int:
    runner = Runner(seed=0)
    runner.env["REPRO_BACKEND"] = "reference"
    try:
        digests = runner.child(workload="figures", role="digests")["digests"]
    finally:
        runner.close()
    table = {}
    if os.path.exists(work_figures.DIGEST_FILE):
        with open(work_figures.DIGEST_FILE, encoding="utf-8") as handle:
            table = json.load(handle)
    table[work_figures.BUDGET_KEY] = digests
    with open(work_figures.DIGEST_FILE, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests for {work_figures.BUDGET_KEY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
