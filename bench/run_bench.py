"""moistflow step-time benchmark.

    python3 bench/run_bench.py --workload direct_32 --seed 3 --seconds 35 --trace 0
    python3 bench/run_bench.py                  # every workload, untraced and traced

With ``--workload`` one process runs one workload for ``--seconds`` seconds
as a series of episodes.  An episode sets up the initial state and the
``Simulation`` from the seed, runs a fixed number of steps, and checks the
outputs.  The last line of standard output is one JSON object holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
The program is imported from ``src/`` next to this directory; see
``bench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")    # must precede the numpy import

import argparse
import contextlib
import csv
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "moistflow"
sys.path.insert(0, str(SRC))

try:
    import numpy as np
    import scipy
    import moistflow
except ImportError as exc:
    raise SystemExit(f"cannot import moistflow from {SRC}: {exc}")
if Path(moistflow.__file__).resolve().parent.parent != SRC:
    raise SystemExit(f"moistflow was imported from {moistflow.__file__}, not from {SRC}")

from moistflow import cli, diagnostics, presets, solver, spectral_ops  # noqa: E402
from moistflow.boundary import dehomogenize  # noqa: E402
from moistflow.fields import PhysConstants, make_grid  # noqa: E402

from tracer import LayerTotals, StepClock, Tracer, write_spans  # noqa: E402

PERTURB_L2 = 1.0e-3          # L2 norm of the seeded frak_T perturbation
SAT_RATIO_BAND = (1.05, 1.15)
POSITIVITY_TOL = 1.0e-8      # acceptance criterion 01: min >= -tol * initial max
DRY_MASS_TOL = 1.0e-6        # acceptance criterion 02
MIN_STEPS = 100              # p90 needs 10 samples beyond it
MIN_EPISODES = 3
SETUP_REPEATS = 5            # set-ups timed per episode
# Each vCPU of the baseline machine (bench/README.md) flips, for seconds at
# a time, between a fast state and one 1.5-1.7x slower, so every time metric
# moves with the share of a run spent in each state.  Between two sets of ten
# runs, the median set-up moved by up to 25%; the mean (27%) and the fastest
# set-up (28%) did no better, so setup_s stays the median.
# Printed and kept in the record, but left out of the result line:
# step_ms_p50, whose spread over ten seeds (0.21-0.26) exceeds any bound the
# result line may carry, and the output and CLI times, which are 0 on every
# run of the two library workloads (they write no files and skip the CLI).
RECORD_ONLY = ("step_ms_p50", "diagnostics.emit_ms_per_step", "fields.save_state_ms",
               "cli.build_simulation_ms")


@dataclass(frozen=True)
class Workload:
    """One benchmark input; BENCHMARK.json and README.md say why each exists."""

    name: str
    grid: tuple
    mode: str
    steps: int               # accepted steps per episode
    via_cli: bool = False
    dt: float = 1.0e-3


WORKLOADS = {w.name: w for w in (
    Workload("cli_sample_16", (16, 16, 17), "direct", 100, via_cli=True),
    Workload("direct_32", (32, 32, 33), "direct", 30),
    Workload("picard_16", (16, 16, 17), "picard", 30),
)}

# demos/sample_config.cfg with the grid, the run length and ic.sat_ratio filled in
CLI_CONFIG = """\
grid.nx = {nx}
grid.ny = {ny}
grid.nz = {nz}
constants.set = nondimensional
boundary.T.alpha_bottom = -1.0
boundary.T.alpha_top = 1.0
boundary.v.alpha_bottom = -1.0
boundary.v.alpha_top = 1.0
boundary.c.alpha_bottom = -1.0
boundary.c.alpha_top = 1.0
boundary.r.alpha_bottom = -1.0
boundary.r.alpha_top = 1.0
solver.dt = {dt!r}
solver.t_end = {t_end!r}
solver.mode = {mode}
solver.checkpoint_every = 50
solver.snapshot_every = 50
ic.preset = saturated_layer
ic.sat_ratio = {sat_ratio!r}
run.threads = 1
output.dir = out
"""

# final-row tolerance against reference.json: 1-ulp input noise moves the
# final row by about 3e-13 relative, so this admits reordered sums
REF_RTOL, REF_ATOL = 1e-9, 1e-13
# columns left out of the reference comparison: an iteration count and a
# ratio of increments near the Picard tolerance move when sums are reordered
UNCOMPARED = ("step", "picard_iterations", "picard_final_ratio")


def sat_ratio_for(seed: int) -> float:
    lo, hi = SAT_RATIO_BAND
    return lo + (hi - lo) * float(np.random.default_rng(seed).random())


@dataclass
class Episode:
    setup_s: list            # seconds per set-up
    step_s: list
    rows: list               # diagnostics rows as {column: float}
    init_max: dict           # initial max of physical T, qv, qc, qr


def _initial_maxima(sim, state) -> dict:
    factors = sim.factors_at(state.time, sim.config.dt)
    return {name: float(np.max(dehomogenize(getattr(state, attr), factors[var]).values))
            for attr, var, name in (("frak_T", "T", "T"), ("frak_q_v", "v", "qv"),
                                    ("frak_q_c", "c", "qc"), ("frak_q_r", "r", "qr"))}


def set_up(w: Workload, seed: int, cfg: Path):
    """Build the initial state and the Simulation; return (sim, state, seconds)."""
    if w.via_cli:
        rc = cli.parse_config(cfg)
        t0 = time.perf_counter()
        sim, state = cli.build_simulation(rc)
        return sim, state, time.perf_counter() - t0
    const = PhysConstants.nondimensional()
    t0 = time.perf_counter()
    state, bspec = presets.preset_initial("saturated_layer", make_grid(*w.grid), const)
    sim = solver.Simulation(state.grid, const, bspec, solver.SolverConfig(
        dt=w.dt, t_end=w.steps * w.dt, mode=w.mode, picard_tol=1.0e-8))
    seconds = time.perf_counter() - t0
    state = presets.perturb_state(state, sim.bases, field="frak_T",
                                  amplitude=PERTURB_L2, seed=seed)
    return sim, state, seconds


def run_episode(w: Workload, seed: int, clock: StepClock, workdir: Path) -> Episode:
    """Set up SETUP_REPEATS times, then run and collect the diagnostics rows.
    The clock must be installed."""
    spectral_ops.set_workers(1)     # the CLI sets this global from run.threads
    cfg = workdir / "run.cfg"
    if w.via_cli:
        nx, ny, nz = w.grid
        cfg.write_text(CLI_CONFIG.format(
            nx=nx, ny=ny, nz=nz, mode=w.mode, dt=w.dt, t_end=w.steps * w.dt,
            sat_ratio=sat_ratio_for(seed)), encoding="utf-8")
    setups = []
    for _ in range(SETUP_REPEATS):
        sim, state, seconds = set_up(w, seed, cfg)
        setups.append(seconds)
    if w.via_cli:
        out = workdir / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(cfg), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"moistflow run exited with code {code}")
        sim, state = clock.built
        setups.append(clock.setup_s)
        with open(out / "diagnostics.csv", encoding="utf-8", newline="") as fh:
            rows = [{k: float(v) for k, v in r.items()} for r in csv.DictReader(fh)]
    else:
        rows = [{k: float(v) for k, v in zip(diagnostics.COLUMNS, r.csv_values())}
                for r in sim.run(state).rows]
    return Episode(setups, clock.step_seconds(), rows, _initial_maxima(sim, state))


def load_reference() -> dict:
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_episode(w: Workload, seed: int, ep: Episode, reference: dict) -> list:
    """Return the failed output checks of one episode (empty when all pass)."""
    rows, fails = ep.rows, []
    if len(rows) != w.steps + 1 or rows[-1]["step"] != w.steps \
            or abs(rows[-1]["time"] - w.steps * w.dt) > 1e-9:
        fails.append(f"ran {len(rows) - 1} steps to t={rows[-1]['time']!r}, "
                     f"asked for {w.steps} to t={w.steps * w.dt!r}")
    if not all(math.isfinite(v) for r in rows for v in r.values()):
        fails.append("non-finite diagnostics value")
    for name, top in ep.init_max.items():
        low = min(r[f"min_{name}"] for r in rows)
        if low < -POSITIVITY_TOL * top:
            fails.append(f"min {name} = {low:.3e} below -{POSITIVITY_TOL:g} x {top:.3e}")
    m0 = rows[0]["dry_mass"]
    drift = max(abs(r["dry_mass"] - m0) for r in rows) / m0
    if drift > DRY_MASS_TOL:
        fails.append(f"dry-mass drift {drift:.3e} > {DRY_MASS_TOL:g}")
    ref = reference["workloads"].get(w.name)
    if ref and seed == ref["seed"] and tuple(ref["grid"]) == w.grid \
            and ref["steps"] == w.steps:
        rtol, atol = reference["rtol"], reference["atol"]
        for col, want in ref["final_row"].items():
            got = rows[-1][col]
            if not abs(got - want) <= atol + rtol * abs(want):
                fails.append(f"final {col} = {got!r}, reference {want!r}")
    return fails


def environment(w: Workload) -> dict:
    env = {"cpu_model": "unknown", "cpu_count": os.cpu_count(), "caches": {},
           "python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "git_commit": git_commit()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        env["cpu_model"] = models[0] if models else "unknown"
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(cache_dir.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                env["caches"][f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    nx, ny, nz = w.grid
    env["state_working_set_MiB"] = 8 * nx * ny * nz * 8 / 2**20   # 8 float64 fields
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 spans_path: Path | None = None, min_steps: int = MIN_STEPS) -> dict:
    """Run episodes of one workload for ``seconds``; return the result record.

    Untraced, every episode is timed.  Traced, episodes alternate between
    untraced and traced, so the tracing overhead is measured in one process.
    """
    reference = load_reference()
    workdir = WORK / f"{w.name}-{os.getpid()}"
    plain, traced, setups = [], [], []
    totals, traced_eps = LayerTotals(), []
    attempted = failed = 0
    first_row = None
    try:
        # warm-up: first-call costs (imports, FFT plans) stay out of the metrics
        workdir.mkdir(parents=True, exist_ok=True)
        with StepClock() as clock:
            run_episode(replace(w, steps=2), seed, clock, workdir)
        deadline = time.perf_counter() + seconds
        while (time.perf_counter() < deadline or len(plain) < min_steps
               or attempted < MIN_EPISODES or (trace and not traced_eps)):
            traced_now = trace and attempted % 2 == 1
            attempted += 1
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                clock = StepClock()
                tracer = Tracer(clock) if traced_now else None
                with tracer or contextlib.nullcontext(), clock:
                    ep = run_episode(w, seed, clock, workdir)
                fails = check_episode(w, seed, ep, reference)
                if first_row is not None and ep.rows[-1] != first_row:
                    fails.append("final row differs from the first episode of this run")
            except Exception:
                fails = ["raised:\n" + traceback.format_exc()]
            if fails:
                failed += 1
                print(f"episode {attempted} FAILED: " + "; ".join(fails), file=sys.stderr)
                if time.perf_counter() > deadline:
                    break
                continue
            first_row = first_row or ep.rows[-1]
            timed = ep.step_s[:w.steps]
            if traced_now:
                totals.add(tracer, w.steps, sum(timed), len(ep.setup_s))
                traced_eps.append((attempted, tracer))
                traced.extend(timed)
            else:
                plain.extend(timed)
                setups.extend(ep.setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(w), "attempted": attempted, "failed": failed,
              "metrics": {}}
    if failed or not plain:
        return record
    ms = [1e3 * s for s in plain]
    if trace:
        if spans_path is not None:
            write_spans(spans_path, traced_eps)
        layer = totals.metrics(w.grid)
        overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        layer["trace.overhead_pct"] = (overhead, "%")
        record["traced_steps"] = totals.steps
        record["metrics"] = layer
    else:
        record["metrics"] = {
            "steps_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
            "step_ms_p50": (statistics.median(ms), "ms"),
            "step_ms_p90": (percentile(ms, 90), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        record["step_samples"] = len(ms)
        record["setup_samples"] = len(setups)
    return record


def write_reference() -> None:
    """Store the final diagnostics row of one seed-0 episode per workload."""
    tables = {}
    for w in WORKLOADS.values():
        workdir = WORK / f"reference-{w.name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        with StepClock() as clock:
            ep = run_episode(w, 0, clock, workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        tables[w.name] = {"seed": 0, "grid": list(w.grid), "steps": w.steps,
                          "final_row": {k: v for k, v in ep.rows[-1].items()
                                        if k not in UNCOMPARED}}
    reference = {
        "rtol": REF_RTOL, "atol": REF_ATOL,
        "note": ("final diagnostics row of the first seed-0 episode; "
                 "|got - want| <= atol + rtol |want| admits reordered "
                 "floating-point sums; " + ", ".join(UNCOMPARED) + " not compared"),
        "git_commit": git_commit(), "workloads": tables}
    with open(BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0 and bool(record["metrics"]),
        "attempted": record["attempted"], "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()
                    if k not in RECORD_ONLY}})


def print_record(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    for name, (value, unit) in record["metrics"].items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':36s} {record['failed'] / record['attempted']:14.6g} "
          f"({record['failed']}/{record['attempted']} episodes)")
    for key in ("step_samples", "setup_samples", "traced_steps"):
        if key in record:
            print(f"  {key:36s} {record[key]:14d}")


def run_all(seconds: float, seed: int) -> int:
    """Every workload, untraced then traced, each in its own process so that
    peak RSS belongs to one workload.  Writes .bench_build/results.json."""
    results, status = [], 0
    for w in WORKLOADS.values():
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", w.name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            record = json.loads(lines[-2]) if len(lines) >= 2 else {}
            print(proc.stdout.strip().rsplit("\n", 2)[0])
            status = status or proc.returncode
            results.append(record)
    out = WORK.parent / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"results in {out}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store the seed-0 final rows in bench/reference.json")
    args = ap.parse_args(argv)
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        return run_all(args.seconds, args.seed)
    w = WORKLOADS[args.workload]
    spans = WORK.parent / "spans" / f"{w.name}-seed{args.seed}.csv" if args.trace else None
    record = run_workload(w, args.seed, args.seconds, bool(args.trace), spans)
    print_record(record)
    print(json.dumps(record))
    print(result_line(record))
    return 0 if record["failed"] == 0 and record["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
