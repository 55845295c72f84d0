"""Step clock and call tracer for the moistflow benchmark.

Both work from outside the package: they replace a function at the name its
callers look up (a module attribute or a class attribute) with a wrapper,
and put the original back on exit.  ``StepClock`` stamps the start of every
diagnostics row, which delimits the steps; ``Tracer`` records one span
(name, start, end, parent, step) per call of each public function listed in
``_targets`` and keeps them in memory.  ``LayerTotals`` turns the spans of
the timed steps into per-layer numbers.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

_perf = time.perf_counter

TO_MODAL = "spectral_ops.to_modal_values"
TO_PHYS = "spectral_ops.to_phys_values"
TRANSFORMS = (TO_MODAL, TO_PHYS)


class _Patches:
    """Context manager that swaps attributes and restores them in reverse."""

    def __init__(self):
        self._undo = []

    def patch(self, owner, attr, make_wrapper):
        orig = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(orig)(make_wrapper(orig)))
        self._undo.append((owner, attr, orig))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


class StepClock(_Patches):
    """Stamps each ``compute_row`` call and times ``cli.build_simulation``.

    Row k is computed at the end of step k, so ``stamps[k] - stamps[k-1]``
    is the wall time of step k including one diagnostics row and its output.
    """

    def __init__(self):
        super().__init__()
        self.stamps = []
        self.setup_s = None
        self.built = None           # (Simulation, initial State) from the CLI

    def __enter__(self):
        from moistflow import cli, diagnostics
        stamps = self.stamps

        def row(orig):
            def stamped(*args, **kwargs):
                stamps.append(_perf())
                return orig(*args, **kwargs)
            return stamped

        def build(orig):
            def timed(*args, **kwargs):
                t0 = _perf()
                self.built = orig(*args, **kwargs)
                self.setup_s = _perf() - t0
                return self.built
            return timed

        self.patch(diagnostics, "compute_row", row)
        self.patch(cli, "build_simulation", build)
        return self

    @property
    def step(self) -> int:
        """Index of the step under way: 0 during set-up, k while step k runs."""
        return len(self.stamps)

    def step_seconds(self) -> list:
        return [b - a for a, b in zip(self.stamps, self.stamps[1:])]


def _targets():
    from moistflow import (cli, diagnostics, microphysics, presets, solver,
                           spectral_ops)
    out = [(spectral_ops, "to_modal_values"), (spectral_ops, "to_phys_values"),
           (spectral_ops, "make_bases"),
           (solver, "build_factors"), (presets, "build_factors"),
           (presets, "preset_initial"), (cli, "preset_initial"),
           (cli, "build_simulation"), (solver, "save_state"),
           (diagnostics, "dehomogenize"), (diagnostics, "compute_row"),
           (microphysics.SaturationClosure, "__call__")]
    out += [(solver.Simulation, m) for m in
            ("__init__", "run", "direct_step", "picard_solve", "density_step",
             "assemble_rhs", "linear_step")]
    out += [(diagnostics.DiagnosticsWriter, m) for m in ("__init__", "emit", "close")]
    return out


def span_name(func) -> str:
    """'module.qualname' with the module named relative to the package."""
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__qualname__}"


class Tracer(_Patches):
    """Records a span per call of every function in ``_targets``.

    A span is ``[name, start, end, parent, step]``: ``parent`` is the index
    of the innermost enclosing span (-1 for none) and ``step`` is the
    clock's step when the span started.  Enter the tracer before the clock,
    so that the clock's stamp precedes the ``compute_row`` span it belongs
    to.  ``fields.save_state`` also records the bytes it left on disk.
    """

    def __init__(self, clock: StepClock):
        super().__init__()
        self.clock = clock
        self.spans = []
        self.writes = []            # (step, bytes) per save_state call
        self._open = []

    def __enter__(self):
        spans, open_, clock = self.spans, self._open, self.clock

        def spanned(name):
            def make(orig):
                def wrapper(*args, **kwargs):
                    rec = [name, _perf(), 0.0, open_[-1] if open_ else -1, clock.step]
                    open_.append(len(spans))
                    spans.append(rec)
                    try:
                        return orig(*args, **kwargs)
                    finally:
                        rec[2] = _perf()
                        open_.pop()
                return wrapper
            return make

        for owner, attr in _targets():
            self.patch(owner, attr, spanned(span_name(getattr(owner, attr))))

        from moistflow import solver

        def measured(orig):
            def save_state(dirpath, state):
                orig(dirpath, state)
                size = sum(e.stat().st_size for e in os.scandir(dirpath) if e.is_file())
                self.writes.append((clock.step, size))
            return save_state

        self.patch(solver, "save_state", measured)
        return self


class LayerTotals:
    """Per-layer sums over the spans of one or more traced episodes.

    Spans that started during steps 1..n of an episode form the timed
    window; spans that started during set-up (step 0) are kept apart.
    """

    def __init__(self):
        self.steps = 0
        self.setups = 0
        self.window_s = 0.0
        self.total = {}             # name -> summed duration in the window
        self.calls = {}             # name -> calls in the window
        self.self_s = {}            # metric key -> summed exclusive time
        self.setup_total = {}       # name -> summed duration during set-up
        self.per_call = {TO_MODAL: [], TO_PHYS: []}
        self.bytes_written = 0

    # exclusive times: span name -> descendants whose time is taken out
    EXCLUDE = {
        "solve_self": ("solver.Simulation.linear_step",
                       ("solver.Simulation.assemble_rhs",)),
        "picard_self": ("solver.Simulation.picard_solve",
                        ("solver.Simulation.density_step",
                         "solver.Simulation.linear_step")),
        "compute_row_self": ("diagnostics.compute_row",
                             TRANSFORMS + ("boundary.dehomogenize",)),
    }

    def add(self, tracer: Tracer, nsteps: int, window_s: float, setups: int) -> None:
        spans = tracer.spans
        children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                children[s[3]].append(i)

        def covered(i, names):
            """Time of the outermost descendants of span i named in names."""
            out = 0.0
            for c in children[i]:
                if spans[c][0] in names:
                    out += spans[c][2] - spans[c][1]
                else:
                    out += covered(c, names)
            return out

        by_name = {}
        for i, (name, start, end, _, step) in enumerate(spans):
            if step == 0:
                self.setup_total[name] = self.setup_total.get(name, 0.0) + end - start
            elif step <= nsteps:
                by_name.setdefault(name, []).append(i)
                self.total[name] = self.total.get(name, 0.0) + end - start
                self.calls[name] = self.calls.get(name, 0) + 1
                if name in self.per_call:
                    self.per_call[name].append(end - start)
        for key, (name, minus) in self.EXCLUDE.items():
            self.self_s[key] = self.self_s.get(key, 0.0) + sum(
                spans[i][2] - spans[i][1] - covered(i, minus)
                for i in by_name.get(name, ()))
        self.bytes_written += sum(b for step, b in tracer.writes if 1 <= step <= nsteps)
        self.steps += nsteps
        self.setups += setups
        self.window_s += window_s

    def metrics(self, grid: tuple) -> dict:
        """Per-layer metric name -> (value, unit)."""
        n = self.steps
        ms = lambda seconds: 1e3 * seconds / n
        tot = lambda name: self.total.get(name, 0.0)
        calls = lambda name: self.calls.get(name, 0)
        setup_ms = lambda name: 1e3 * self.setup_total.get(name, 0.0) / self.setups
        nx, ny, nz = grid
        # one transform reads one array and writes the other
        mb_per_call = (nx * ny * nz * 8 + nx * (ny // 2 + 1) * nz * 16) / 1e6
        fwd, inv = calls(TO_MODAL) / n, calls(TO_PHYS) / n
        picard = "solver.Simulation.picard_solve"
        return {
            "spectral_ops.fwd_per_step": (fwd, "count"),
            "spectral_ops.inv_per_step": (inv, "count"),
            "spectral_ops.fwd_us": (1e6 * statistics.median(self.per_call[TO_MODAL]), "us"),
            "spectral_ops.inv_us": (1e6 * statistics.median(self.per_call[TO_PHYS]), "us"),
            "spectral_ops.busy_ms_per_step": (ms(tot(TO_MODAL) + tot(TO_PHYS)), "ms"),
            "spectral_ops.mb_per_step": ((fwd + inv) * mb_per_call, "MB-computed"),
            "solver.density_step_ms": (ms(tot("solver.Simulation.density_step")), "ms"),
            "solver.assemble_rhs_ms": (ms(tot("solver.Simulation.assemble_rhs")), "ms"),
            "solver.solve_self_ms": (ms(self.self_s["solve_self"]), "ms"),
            "solver.picard_self_ms": (ms(self.self_s["picard_self"]), "ms"),
            "solver.iters_per_step": (calls("solver.Simulation.linear_step") / n, "count"),
            # each dt halving re-runs the step as two half steps
            "solver.rejections": ((calls(picard) - n) // 2, "count"),
            "solver.run_self_ms_per_step": (
                ms(self.window_s - tot(picard) - tot("diagnostics.compute_row")), "ms"),
            "diagnostics.compute_row_ms": (ms(tot("diagnostics.compute_row")), "ms"),
            "diagnostics.compute_row_self_ms": (ms(self.self_s["compute_row_self"]), "ms"),
            "diagnostics.emit_ms_per_step": (
                ms(tot("diagnostics.DiagnosticsWriter.emit")), "ms"),
            "fields.save_state_ms": (ms(tot("fields.save_state")), "ms"),
            "fields.bytes_written_per_step": (self.bytes_written / n, "bytes"),
            "microphysics.closure_ms_per_step": (
                ms(tot("microphysics.SaturationClosure.__call__")), "ms"),
            "boundary.dehomogenize_ms_per_step": (ms(tot("boundary.dehomogenize")), "ms"),
            "boundary.build_factors_ms": (setup_ms("boundary.build_factors"), "ms"),
            "presets.preset_initial_ms": (setup_ms("presets.preset_initial"), "ms"),
            "cli.build_simulation_ms": (setup_ms("cli.build_simulation"), "ms"),
            "spectral_ops.make_bases_ms": (setup_ms("spectral_ops.make_bases"), "ms"),
        }


def write_spans(path, episodes) -> None:
    """Write ``[(episode, tracer), ...]`` as CSV: one span per line."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("episode,name,start,end,parent,step\n")
        for ep, tracer in episodes:
            for name, start, end, parent, step in tracer.spans:
                fh.write(f"{ep},{name},{start!r},{end!r},{parent},{step}\n")
