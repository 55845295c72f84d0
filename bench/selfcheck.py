"""Fast self-check of the benchmark harness: three steps per episode at 16x16x17.

    python3 bench/selfcheck.py

Confirms that an untraced run emits every end-to-end metric and a traced
run every per-layer metric named in BENCHMARK.json, that two traced runs
count the same transforms and Picard iterations per step, and that the
output checks reject a short run, a negative minimum, dry-mass drift, a
non-finite value and a final row off its reference.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from dataclasses import replace

import run_bench as rb

GRID = (16, 16, 17)         # the smallest grid whose runs pass the output checks
EXACT = ("spectral_ops.fwd_per_step", "spectral_ops.inv_per_step", "solver.iters_per_step")


def main() -> int:
    with open(rb.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for w in rb.WORKLOADS.values():
        tiny = replace(w, grid=GRID, steps=3)
        plain = rb.run_workload(tiny, 0, 0.0, trace=False, min_steps=1)
        traced = [rb.run_workload(tiny, 0, 0.0, trace=True, min_steps=1) for _ in range(2)]
        for rec in [plain] + traced:
            if rec["failed"]:
                problems.append(f"{w.name}: {rec['failed']} failed episodes")
            got = set(rec["metrics"]) - set(rb.RECORD_ONLY)
            if got != want[rec["trace"]]:
                problems.append(f"{w.name} trace={rec['trace']}: metrics differ from "
                                f"BENCHMARK.json by {sorted(got ^ want[rec['trace']])}")
        for name in EXACT:
            a, b = (rec["metrics"].get(name, (None,))[0] for rec in traced)
            if a is None or a != b:
                problems.append(f"{w.name}: {name} differs between traced runs ({a} vs {b})")

    # the output checks must reject broken runs
    w = replace(rb.WORKLOADS["direct_32"], grid=GRID, steps=3)
    workdir = rb.WORK / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with rb.StepClock() as clock:
            good = rb.run_episode(w, 0, clock, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    broken = {"short run": lambda ep: ep.rows.pop(),
              "negative minimum": lambda ep: ep.rows[-1].update(min_qv=-1.0),
              "dry-mass drift": lambda ep: ep.rows[-1].update(
                  dry_mass=ep.rows[0]["dry_mass"] * (1 + 1e-5)),
              "non-finite value": lambda ep: ep.rows[-1].update(l2_u=float("nan"))}
    final = {k: v for k, v in good.rows[-1].items() if k not in rb.UNCOMPARED}
    reference = {"rtol": rb.REF_RTOL, "atol": rb.REF_ATOL, "workloads": {w.name: {
        "seed": 0, "grid": list(w.grid), "steps": w.steps, "final_row": final}}}
    broken["reference mismatch"] = lambda ep: ep.rows[-1].update(
        l2_T=ep.rows[-1]["l2_T"] * (1 + 1e-5))
    if rb.check_episode(w, 0, good, reference):
        problems.append("output checks reject a good run")
    for what, breaks in broken.items():
        ep = copy.deepcopy(good)
        breaks(ep)
        if not rb.check_episode(w, 0, ep, reference):
            problems.append(f"output checks miss a {what}")

    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
