"""The README's concurrency guarantees: one and two BLAS threads give the
same bits, and independent simulations stepped in Python threads give the
rows and final state of each simulation run alone."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import moistflow as mf

SAMPLE = Path(__file__).resolve().parent.parent / "demos" / "sample_config.cfg"
SRC = Path(mf.__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_sample(tmp_path, name, threads, edits):
    """Run the sample config, with each (old, new) line of ``edits``
    replaced, in a fresh process whose BLAS uses ``threads`` threads;
    returns the run directory."""
    text = SAMPLE.read_text(encoding="utf-8")
    for old, new in edits:
        assert old in text.splitlines(), old
        text = text.replace(old, new)
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / f"{name}-{threads}"
    env = dict(os.environ, **{var: str(threads) for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-W", "error", "-m", "moistflow", "run", str(cfg),
                    "--out", str(out)], env=env, check=True, capture_output=True)
    return out


@pytest.mark.parametrize("name, edits", [
    ("sample", [("solver.t_end = 0.1", "solver.t_end = 0.01")]),
    ("sample32", [("solver.t_end = 0.1", "solver.t_end = 0.004"),
                  ("grid.nx = 16", "grid.nx = 32"), ("grid.ny = 16", "grid.ny = 32"),
                  ("grid.nz = 17", "grid.nz = 33")])])
def test_one_and_two_blas_threads_give_the_same_bits(tmp_path, name, edits):
    """A short sample-config run at one BLAS thread and at two (never more
    than the CPUs there are) writes the same diagnostics.csv and
    final_state/ bytes, at 16x16x17 and at 32x32x33."""
    one, two = (run_sample(tmp_path, name, n, edits)
                for n in (1, min(2, os.cpu_count() or 1)))
    assert (one / "diagnostics.csv").read_bytes() == (two / "diagnostics.csv").read_bytes()
    files = sorted(p.name for p in (one / "final_state").iterdir())
    assert files and files == sorted(p.name for p in (two / "final_state").iterdir())
    for f in files:
        assert (one / "final_state" / f).read_bytes() == \
            (two / "final_state" / f).read_bytes(), f


def run_alone(n, mode, preset, constants, start=None):
    """The rows (exact reprs) and final fields (bytes) of a 10-step run of
    ``preset`` on an n x n x (n + 1) grid, stepped once the barrier
    ``start``, if any, lets it go."""
    grid = mf.make_grid(n, n, n + 1)
    state, bspec = mf.preset_initial(preset, grid, constants)
    sim = mf.Simulation(grid, constants, bspec,
                        mf.SolverConfig(dt=1e-3, t_end=1e-2, mode=mode))
    if start is not None:
        start.wait()
    traj = sim.run(state)
    s = traj.final_state
    fields = (s.log_rho_d, *s.u.components(), s.frak_T, s.frak_q_v, s.frak_q_c, s.frak_q_r)
    return ([row.csv_values() for row in traj.rows],
            [f.values.tobytes() for f in fields])


def test_simulations_in_threads_give_the_rows_run_alone(nondim):
    """Three independent simulations (16^3 picard, 16^3 direct, 24^3
    direct), each built and stepped in its own Python thread, started
    together, give bitwise the rows and final state of each run alone, in
    each of two rounds.  The two 16^3 runs start from different presets, so that arrays of one
    shape hold different data in two threads at once."""
    specs = [(16, "picard", "saturated_layer"), (16, "direct", "thermal_bubble"),
             (24, "direct", "saturated_layer")]
    alone = [run_alone(*spec, nondim) for spec in specs]

    def in_threads():
        results = [None] * len(specs)
        start = threading.Barrier(len(specs))

        def work(i, spec):
            try:
                results[i] = run_alone(*spec, nondim, start)
            except BaseException as exc:     # reported below, not lost in the thread
                results[i] = exc

        threads = [threading.Thread(target=work, args=(i, spec))
                   for i, spec in enumerate(specs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return results

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads often, so that they interleave
    try:
        rounds = [in_threads() for _ in range(2)]
    finally:
        sys.setswitchinterval(interval)
    for results in rounds:
        for spec, got, want in zip(specs, results, alone):
            assert not isinstance(got, BaseException), (spec, got)
            assert got[0] == want[0], spec
            assert got[1] == want[1], spec
