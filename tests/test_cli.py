import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import moistflow as mf
from moistflow import diagnostics as dg
from moistflow.cli import SCHEMA, build_simulation, main, parse_config
from moistflow.presets import discrete_hydrostatic_rho
from moistflow.spectral_ops import dz_modal, to_modal_values, to_phys_values

from conftest import clipped_rates


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


BASE = """
grid.nx = 8
grid.ny = 8
grid.nz = 9
constants.set = nondimensional
solver.dt = 1e-3
solver.t_end = 3e-3
solver.mode = direct
ic.preset = thermal_bubble
"""


def sample_config():
    """The text of demos/sample_config.cfg."""
    path = os.path.join(os.path.dirname(__file__), "..", "demos", "sample_config.cfg")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# the retired keys, each with a value an old echo file may list
RETIRED = {"solver.psi_dt_mode": "fd", "run.seed": "0", "solver.dealias": "true",
           "microphysics.q_vs.kind": "default", "run.threads": "1"}
OLD_ECHO = BASE + "".join(f"{key} = {value}\n" for key, value in RETIRED.items())


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        rc = parse_config(write_config(tmp_path / "c.cfg", ""))
        assert rc["grid.nx"] == 16
        assert rc["solver.mode"] == "direct"
        # echo lists every schema key
        echo = rc.echo_text()
        for key in SCHEMA:
            assert f"\n{key} = " in "\n" + echo

    def test_unknown_key_reports_line(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", "grid.nx = 8\nbogus.key = 1\n")
        with pytest.raises(mf.ConfigError, match=r"c\.cfg:2.*bogus\.key"):
            parse_config(path)

    def test_type_mismatch_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", "grid.nx = five\n")
        with pytest.raises(mf.ConfigError, match="grid.nx"):
            parse_config(path)

    def test_sign_condition_enforced(self, tmp_path):
        """The parser leaves the wall sign condition to the library, whose
        rejection build_simulation raises as a config error."""
        path = write_config(tmp_path / "c.cfg", "boundary.T.alpha_bottom = 0.5\n")
        rc = parse_config(path)
        with pytest.raises(mf.ConfigError, match=r"c\.cfg: sign condition"):
            build_simulation(rc)

    @pytest.mark.parametrize("var,line", [("c", "boundary.c.alpha_bottom = 0.5"),
                                          ("r", "boundary.r.alpha_top = -0.5")])
    def test_sign_condition_names_the_variable(self, tmp_path, var, line):
        path = write_config(tmp_path / "c.cfg", line + "\n")
        with pytest.raises(mf.ConfigError,
                           match=rf"sign condition violated for variable '{var}'"):
            build_simulation(parse_config(path))

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", "grid.nx = 8\ngrid.nx = 16\n")
        with pytest.raises(mf.ConfigError, match="duplicate"):
            parse_config(path)

    def test_comments_and_blank_lines(self, tmp_path):
        path = write_config(tmp_path / "c.cfg",
                            "# full line comment\n\ngrid.nx = 8  # trailing\n")
        assert parse_config(path)["grid.nx"] == 8

    def test_grid_invariants_checked(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", "grid.nx = 7\n")
        with pytest.raises(mf.ConfigError, match="even"):
            build_simulation(parse_config(path))

    def test_unknown_constants_set_reports_line(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", "grid.nx = 8\nconstants.set = martian\n")
        with pytest.raises(mf.ConfigError, match=r"c\.cfg:2: unknown constants\.set"):
            parse_config(path)

    def test_echo_reparse_round_trip(self, tmp_path):
        cfg = BASE + "boundary.T.alpha_bottom = -1.0\nboundary.T.alpha_top = 1.0\n" \
            + "boundary.T.value_bottom = modes: 0,0,1.0,0; 1,0,0.25,0.1\n"
        rc = parse_config(write_config(tmp_path / "a.cfg", cfg))
        echo1 = rc.echo_text()
        rc2 = parse_config(write_config(tmp_path / "b.cfg", echo1))
        assert rc2 == rc
        assert rc2.echo_text() == echo1

    def test_retired_keys_of_old_echo_warn_and_are_ignored(self, tmp_path):
        """Echo files of earlier versions list the retired keys; they still
        parse, so their checkpoints still resume."""
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            rc = parse_config(write_config(tmp_path / "config.echo", OLD_ECHO))
        messages = [str(w.message) for w in rec]
        for key in RETIRED:
            assert sum(f"{key} is retired" in m for m in messages) == 1
            assert key not in rc.echo_text()
        assert rc == parse_config(write_config(tmp_path / "c.cfg", BASE))

    def test_config_hash_ignores_retired_and_default_keys(self, tmp_path,
                                                           monkeypatch):
        """The hash covers the keys whose values differ from the defaults,
        so an old echo carrying retired keys, or a schema that gains a key
        at its default, leaves the hash of the same settings unchanged."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            old = parse_config(write_config(tmp_path / "old.echo", OLD_ECHO))
        rc = parse_config(write_config(tmp_path / "c.cfg", BASE))
        digest = rc.config_hash()
        assert old.config_hash() == digest
        assert digest != parse_config(write_config(
            tmp_path / "d.cfg", BASE + "ic.amplitude = 0.5\n")).config_hash()

        monkeypatch.setitem(SCHEMA, "run.new_knob", ("int", 3))
        grown = parse_config(write_config(tmp_path / "e.cfg", BASE))
        assert "run.new_knob = 3" in grown.echo_text()
        assert grown.config_hash() == digest

    def test_mode_table_parsing(self, tmp_path):
        cfg = "boundary.v.value_bottom = modes: 2,1,0.5,0.25\n"
        rc = parse_config(write_config(tmp_path / "c.cfg", cfg))
        table = rc["boundary.v.value_bottom"]
        assert table[(2, 1)] == pytest.approx((0.5 - 0.25j) / 2)
        assert table[(-2, -1)] == pytest.approx((0.5 + 0.25j) / 2)


class TestPresets:
    def test_equilibrium_is_picard_fixed_point(self, grid16, nondim):
        state, bspec = mf.preset_initial("equilibrium", grid16, nondim)
        sim = mf.Simulation(grid16, nondim, bspec,
                            mf.SolverConfig(dt=1e-3, t_end=1e-3, mode="picard"))
        _, rep = sim.picard_solve(state, 1e-3)
        assert rep.iterations == 1 and rep.converged

    @pytest.mark.parametrize("nz", [9, 17, 33])
    def test_hydrostatic_column_balances_solver_gradient(self, nz, nondim):
        """Through the solver's own transforms, the sine coefficients of
        R_d T0 dz(rho) + g rho vanish on every resolved mode."""
        grid = mf.make_grid(4, 4, nz)
        bases = mf.make_bases(grid)
        T0 = nondim.T_ref
        rho = discrete_hydrostatic_rho(grid, nondim, T0, nondim.p_ref / (nondim.R_d * T0))
        p = np.broadcast_to(nondim.R_d * T0 * rho, grid.shape).copy()
        neu = bases.neumann
        dz_p = to_phys_values(dz_modal(to_modal_values(p, neu), neu), neu.other)
        coeffs = to_modal_values(dz_p + nondim.g * rho, bases.dirichlet)
        assert np.max(np.abs(coeffs)) <= 1e-13 * nondim.g * np.max(rho)

    @pytest.mark.parametrize("amplitude", [-2.0, -1.0, float("nan")])
    def test_bubble_without_positive_temperature_rejected(self, grid8, nondim, amplitude):
        """A cold bubble whose peak reaches T0 (1 here) leaves a temperature
        that is not positive everywhere: a ValueError naming amplitude."""
        with pytest.raises(ValueError, match="amplitude"):
            mf.preset_initial("thermal_bubble", grid8, nondim, amplitude=amplitude)

    def test_zero_amplitude_bubble_equals_equilibrium(self, grid16, nondim):
        eq, _ = mf.preset_initial("equilibrium", grid16, nondim)
        bb, _ = mf.preset_initial("thermal_bubble", grid16, nondim, amplitude=0.0)
        assert np.array_equal(eq.frak_T.values, bb.frak_T.values)
        assert np.array_equal(eq.log_rho_d.values, bb.log_rho_d.values)

    def test_saturated_layer_activates_condensation(self, grid16, nondim):
        """Direct source evaluation on the initial condition."""
        state, bspec = mf.preset_initial("saturated_layer", grid16, nondim)
        factors = mf.build_factors(bspec, grid16)
        closure = mf.SaturationClosure(nondim)
        T = mf.dehomogenize(state.frak_T, factors["T"])
        qv = mf.dehomogenize(state.frak_q_v, factors["v"])
        qc = mf.dehomogenize(state.frak_q_c, factors["c"])
        qr = mf.dehomogenize(state.frak_q_r, factors["r"])
        rho = np.exp(state.log_rho_d.values)
        p = mf.pressure_values(rho, qv.values, T.values, nondim)
        qvs = closure(p, T.values)
        rates = clipped_rates(T.values, qv.values, qc.values, qr.values, qvs, nondim)
        assert np.max(rates["S_cd"]) > 0.0
        assert np.max(rates["S_ev"]) > 0.0
        assert np.max(rates["S_ac"]) > 0.0
        assert np.max(rates["S_cr"]) > 0.0

    def test_unknown_preset_rejected(self, grid8, nondim):
        with pytest.raises(ValueError, match="unknown preset"):
            mf.preset_initial("vortex", grid8, nondim)

    def test_sat_ratio_scales_vapour(self, grid8, nondim):
        """sat_ratio scales q_v, whose wall data are 0, against the default
        1.1; the removed params= dict is an error."""
        ref, _ = mf.preset_initial("saturated_layer", grid8, nondim)
        got, _ = mf.preset_initial("saturated_layer", grid8, nondim, sat_ratio=2.0)
        assert np.max(ref.frak_q_v.values) > 0.0
        np.testing.assert_allclose(got.frak_q_v.values,
                                   ref.frak_q_v.values * (2.0 / 1.1), rtol=1e-14)
        with pytest.raises(TypeError):
            mf.preset_initial("saturated_layer", grid8, nondim, params={"sat_ratio": 2.0})

    def test_negative_sat_ratio_rejected(self, grid8, nondim):
        with pytest.raises(ValueError, match="sat_ratio must be nonnegative"):
            mf.preset_initial("saturated_layer", grid8, nondim, sat_ratio=-3.0)

    @pytest.mark.parametrize("keyword", ["T0", "rho0", "qc_seed", "qr_seed"])
    def test_negative_input_rejected_by_name(self, grid8, nondim, keyword):
        with pytest.raises(ValueError, match=f"^{keyword} must be nonnegative"):
            mf.preset_initial("saturated_layer", grid8, nondim, **{keyword: -1.0})

    @pytest.mark.parametrize("keyword", ["T0", "rho0", "sat_ratio", "qc_seed", "qr_seed"])
    def test_nan_input_rejected_by_name(self, grid8, nondim, keyword):
        """A NaN fails the range check of its keyword, as a ValueError that
        names it."""
        with pytest.raises(ValueError, match=f"^{keyword} must be nonnegative, got nan$"):
            mf.preset_initial("saturated_layer", grid8, nondim, **{keyword: float("nan")})

    def test_nonpositive_hydrostatic_density_is_a_value_error(self, grid8, nondim):
        with pytest.raises(ValueError, match="density is not positive"):
            discrete_hydrostatic_rho(grid8, nondim, 1e-300, 1.0)

    def test_presets_satisfy_discrete_robin_condition(self, grid16, nondim, bases16):
        """Wall-normal derivative of the homogenized fields vanishes in the
        cosine representation and wall traces match the boundary data."""
        state, bspec = mf.preset_initial("saturated_layer", grid16, nondim)
        factors = mf.build_factors(bspec, grid16)
        T = mf.dehomogenize(state.frak_T, factors["T"])
        assert T.values[:, :, 0] == pytest.approx(
            np.full((16, 16), float(np.real(
                mf.build_extension(bspec["T"].data_bottom, 0.0, grid16)
                .beta_bottom[0, 0]))), abs=1e-10)


class TestMain:
    def test_check_valid_config(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.cfg", BASE)
        assert main(["check", path]) == 0
        assert "config ok" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_check_invalid_config_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.cfg", "boundary.c.alpha_top = -2\n")
        assert main(["check", path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_mode_table_without_colon_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.cfg",
                            "grid.nx = 8\nboundary.T.value_bottom = modes 1,0,1.0,0\n")
        assert main(["check", path]) == 2
        assert re.search(r"config error: .*c\.cfg:2: .*modes:", capsys.readouterr().err)

    @pytest.mark.parametrize("line,message", [
        ("solver.picard_tol = nan", "not a finite number"),
        ("constants.q_vs_star = nan", "not a finite number"),
        ("solver.v_r_scale = nan", "not a finite number"),
        ("constants.lambda = inf", "not a finite number"),
        ("constants.mu = inf", "not a finite number"),
        ("ic.sat_ratio = nan", "not a finite number"),
        ("solver.t_end = inf", "not a finite number"),
        ("constants.g = -inf", "not a finite number"),
        ("boundary.T.value_top = nan", "not a finite number"),
        ("boundary.v.value_bottom = modes: 1,0,0.5,infinity", "not a finite number"),
        ("solver.dealias = false", "2/3 rule is always applied"),
        ("solver.dealias = maybe", "not a boolean"),
        ("microphysics.q_vs.kind = user", "plug closures in via the API")])
    def test_value_no_run_can_take_exit_2(self, tmp_path, capsys, line, message):
        """Non-finite numbers, and a retired key's other values, which ask
        for a run this version cannot make, are config errors naming the
        line."""
        path = write_config(tmp_path / "c.cfg", "grid.nx = 8\n" + line + "\n")
        assert main(["check", path]) == 2
        err = capsys.readouterr().err
        assert "c.cfg:2: " in err and message in err

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_retired_set_workers_still_checks(self, tmp_path, threads):
        """run.threads is retired: any value, even one below 1, warns and is
        left out of the echo.  spectral_ops.set_workers does nothing, but
        still rejects a count below 1."""
        path = write_config(tmp_path / "c.cfg", BASE + f"run.threads = {threads}\n")
        with pytest.warns(UserWarning, match=r"c\.cfg:10: run\.threads is retired"):
            rc = parse_config(path)
        assert rc == parse_config(write_config(tmp_path / "base.cfg", BASE))
        assert "run.threads" not in rc.echo_text()
        with pytest.warns(UserWarning, match="run.threads is retired"):
            assert main(["check", path]) == 0
        with pytest.raises(ValueError, match="worker count must be >= 1"):
            mf.spectral_ops.set_workers(threads)

    @pytest.mark.parametrize("line,message", [
        ("ic.sat_ratio = -3", "sat_ratio must be nonnegative"),
        ("solver.v_r_scale = -1", "v_r_scale must be nonnegative")])
    def test_negative_vapour_or_upward_rain_exit_2(self, tmp_path, capsys, line, message):
        """A negative saturation ratio (negative vapour) and a negative rain
        fall speed (rain falling upward) are config errors."""
        path = write_config(tmp_path / "c.cfg", BASE + line + "\n")
        assert main(["check", path]) == 2
        assert message in capsys.readouterr().err

    def test_unknown_subcommand_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_run_writes_outputs(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", BASE)
        out = str(tmp_path / "out")
        assert main(["run", path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "diagnostics.csv"))
        assert os.path.exists(os.path.join(out, "config.echo"))
        assert os.path.exists(os.path.join(out, "final_state", "meta.txt"))

    def test_runtime_needs_no_scipy(self, tmp_path):
        """A CLI run and a library Picard step succeed in a process in which
        SciPy cannot be imported, and load no SciPy module; SciPy is a test
        dependency only."""
        path = write_config(tmp_path / "c.cfg", BASE)
        script = f"""
import sys
sys.modules["scipy"] = None     # any import of scipy now fails
import moistflow as mf
from moistflow import diagnostics as dg
assert mf.main(["run", {path!r}, "--out", {str(tmp_path / "out")!r}]) == 0
grid, const = mf.make_grid(8, 8, 9), mf.PhysConstants.nondimensional()
state, bspec = mf.preset_initial("saturated_layer", grid, const)
sim = mf.Simulation(grid, const, bspec, mf.SolverConfig(dt=1e-3, t_end=1e-3, mode="picard"))
sim.picard_solve(dg.with_coefficients(state, sim.bases), 1e-3)
print(sorted(m for m, mod in sys.modules.items() if m.startswith("scipy") and mod))
"""
        src = os.path.dirname(os.path.dirname(mf.__file__))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_env_out_override(self, tmp_path, monkeypatch):
        path = write_config(tmp_path / "c.cfg", BASE)
        envdir = str(tmp_path / "envout")
        monkeypatch.setenv("MOISTFLOW_OUT", envdir)
        assert main(["run", path]) == 0
        assert os.path.exists(os.path.join(envdir, "diagnostics.csv"))

    def test_determinism_bitwise_csv(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", BASE)
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert main(["run", path, "--out", out1]) == 0
        assert main(["run", path, "--out", out2]) == 0
        a = Path(out1, "diagnostics.csv").read_bytes()
        b = Path(out2, "diagnostics.csv").read_bytes()
        assert a == b

    def test_run_then_resume_matches_uninterrupted(self, tmp_path):
        full_cfg = BASE + "solver.t_end = 6e-3\nsolver.checkpoint_every = 3\n"
        full_cfg = full_cfg.replace("solver.t_end = 3e-3\n", "")
        path = write_config(tmp_path / "full.cfg", full_cfg)
        out_full = str(tmp_path / "full")
        assert main(["run", path, "--out", out_full]) == 0

        # resume a second copy of the run from its half-way checkpoint
        out_half = str(tmp_path / "half")
        assert main(["run", path, "--out", out_half]) == 0
        ckpt = os.path.join(out_half, "checkpoints", "step_000003")
        out_res = str(tmp_path / "resumed")
        assert main(["resume", ckpt, "--out", out_res]) == 0

        ref = mf.load_state(os.path.join(out_full, "final_state"))
        got = mf.load_state(os.path.join(out_res, "final_state"))
        assert got.time == ref.time
        for fa, fb in ((ref.log_rho_d, got.log_rho_d), (ref.u.w, got.u.w),
                       (ref.frak_T, got.frak_T), (ref.frak_q_r, got.frak_q_r)):
            assert np.array_equal(fa.values, fb.values)

    @pytest.mark.parametrize("mode", ["direct", "picard"])
    def test_resume_keeps_step_numbers(self, tmp_path, mode):
        """The sample config at 8x8x9, resumed from its step-4 checkpoint:
        the diagnostics rows, checkpoint names and final meta.txt carry the
        step numbers of the uninterrupted run, and the rows are bitwise the
        same from the resume point on, that point's Picard iteration count
        and final ratio included."""
        cfg = (sample_config()
               .replace("grid.nx = 16\ngrid.ny = 16\ngrid.nz = 17\n",
                        "grid.nx = 8\ngrid.ny = 8\ngrid.nz = 9\n")
               .replace("solver.t_end = 0.1\n", "solver.t_end = 0.01\n")
               .replace("solver.mode = direct\n", f"solver.mode = {mode}\n")
               .replace("solver.checkpoint_every = 50\n",
                        "solver.checkpoint_every = 4\n"))
        assert "grid.nz = 9" in cfg and "checkpoint_every = 4" in cfg
        assert f"solver.mode = {mode}" in cfg
        path = write_config(tmp_path / "c.cfg", cfg)
        out_full, out_res = str(tmp_path / "full"), str(tmp_path / "resumed")
        assert main(["run", path, "--out", out_full]) == 0
        ckpt = os.path.join(out_full, "checkpoints", "step_000004")
        assert main(["resume", ckpt, "--out", out_res]) == 0

        def read(out, *parts):
            with open(os.path.join(out, *parts), encoding="utf-8") as fh:
                return fh.read().splitlines()

        full_rows = read(out_full, "diagnostics.csv")
        res_rows = read(out_res, "diagnostics.csv")
        assert [r.split(",")[0] for r in res_rows[1:]] == [str(k) for k in range(4, 11)]
        # the row at the resume point too: the checkpoint keeps its Picard report
        assert res_rows[1:] == full_rows[5:]
        if mode == "picard":
            assert int(res_rows[1].split(",")[2]) > 0
        assert (sorted(os.listdir(os.path.join(out_res, "checkpoints")))
                == sorted(os.listdir(os.path.join(out_full, "checkpoints")))
                == ["step_000004", "step_000008", "step_000010"])
        assert read(out_res, "final_state", "meta.txt") == \
            read(out_full, "final_state", "meta.txt")
        assert "step=10" in read(out_full, "final_state", "meta.txt")

    def test_checkpoint_without_picard_report(self, tmp_path):
        """A meta.txt written before checkpoints kept the Picard report
        gives the resume's first row 0 iterations and ratio 0.0."""
        cfg = BASE.replace("solver.mode = direct\n", "solver.mode = picard\n")
        path = write_config(tmp_path / "c.cfg", cfg + "solver.checkpoint_every = 3\n")
        out, res = tmp_path / "out", tmp_path / "resumed"
        assert main(["run", path, "--out", str(out)]) == 0
        ckpt = out / "checkpoints" / "step_000003"
        (ckpt / "meta.txt").write_text("time=0.003\nstep=3\nconfig_hash=abc\n",
                                       encoding="utf-8")
        _, report, _ = mf.solver.read_checkpoint(str(ckpt))
        assert (report.iterations, report.final_ratio) == (0, 0.0)
        assert main(["resume", str(ckpt), "--out", str(res)]) == 0

        def row_3(out):
            lines = (out / "diagnostics.csv").read_text(encoding="utf-8").splitlines()
            return next(line.split(",") for line in lines if line.startswith("3,"))

        assert int(row_3(out)[2]) > 0
        assert row_3(res)[2:4] == ["0", "0.0"]

    def test_strict_positivity_that_fixes_nothing_moves_no_bit(self, tmp_path):
        """On the sample config the fixer never acts, so a run with
        diagnostics.strict_positivity = true is bitwise the default run:
        the rows and every field of the final state."""
        cfg = sample_config().replace("solver.t_end = 0.1\n", "solver.t_end = 0.005\n")
        assert "solver.t_end = 0.005" in cfg
        outs = {}
        for strict in ("false", "true"):
            path = write_config(tmp_path / f"{strict}.cfg",
                                cfg + f"diagnostics.strict_positivity = {strict}\n")
            outs[strict] = str(tmp_path / strict)
            with warnings.catch_warnings():
                warnings.simplefilter("error")      # no "positivity fixer active"
                assert main(["run", path, "--out", outs[strict]]) == 0

        def read(out, *parts):
            with open(os.path.join(out, *parts), "rb") as fh:
                return fh.read()

        assert read(outs["true"], "diagnostics.csv") == read(outs["false"], "diagnostics.csv")
        names = [f for f in os.listdir(os.path.join(outs["false"], "final_state"))
                 if f.endswith(".dat")]
        assert len(names) == 8
        for name in names:
            assert (read(outs["true"], "final_state", name)
                    == read(outs["false"], "final_state", name)), name

    def test_resume_from_checkpoint_without_coefficients(self, tmp_path):
        """A checkpoint written before coefficient files existed resumes by
        transforming its fields; the result agrees with the uninterrupted
        run to rounding."""
        cfg = BASE.replace("solver.t_end = 3e-3\n", "solver.t_end = 6e-3\n")
        path = write_config(tmp_path / "c.cfg", cfg + "solver.checkpoint_every = 3\n")
        out_full, out_res = str(tmp_path / "full"), str(tmp_path / "resumed")
        assert main(["run", path, "--out", out_full]) == 0
        ckpt = os.path.join(out_full, "checkpoints", "step_000003")
        os.remove(os.path.join(ckpt, "modal.npz"))
        assert main(["resume", ckpt, "--out", out_res]) == 0
        ref = mf.load_state(os.path.join(out_full, "final_state"))
        got = mf.load_state(os.path.join(out_res, "final_state"))
        assert got.time == ref.time
        for fa, fb in ((ref.u.v1, got.u.v1), (ref.frak_T, got.frak_T)):
            assert np.max(np.abs(fa.values - fb.values)) <= 1e-12 * np.max(np.abs(fa.values))

    @pytest.mark.parametrize("key, change", [
        ("log_rho_d", lambda a: a[:, :3, :6].copy()),
        ("qv", lambda a: np.where(np.arange(a.size).reshape(a.shape) == 7, np.nan, a))],
        ids=["kept-log-rho", "nan"])
    def test_resume_rejects_bad_coefficients_before_writing(self, tmp_path, capsys,
                                                            key, change):
        """A checkpoint whose modal.npz holds log rho_d on the kept block, or
        a NaN, exits 1 with a message naming the file and the array, and
        makes no output directory."""
        path = write_config(tmp_path / "c.cfg", BASE + "solver.checkpoint_every = 2\n")
        assert main(["run", path, "--out", str(tmp_path / "full")]) == 0
        ckpt = tmp_path / "full" / "checkpoints" / "step_000002"
        with np.load(ckpt / "modal.npz") as npz:
            arrays = dict(npz)
        arrays[key] = change(arrays[key])
        with open(ckpt / "modal.npz", "wb") as fh:
            np.savez(fh, **arrays)
        capsys.readouterr()
        out = tmp_path / "resumed"
        assert main(["resume", str(ckpt), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(ckpt / "modal.npz") in err and repr(key) in err
        assert not out.exists()

    def test_rerun_replaces_state_directories_whole(self, tmp_path):
        """Files an earlier run left in a checkpoint or final_state/ are
        gone once a new run writes that directory, and no temporary
        sibling is left behind."""
        path = write_config(tmp_path / "c.cfg", BASE + "solver.checkpoint_every = 2\n")
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        for d in (out / "checkpoints" / "step_000002", out / "final_state"):
            (d / "u_x.dat.old").write_text("from an earlier run")
        assert main(["run", path, "--out", str(out)]) == 0
        for d in (out / "checkpoints" / "step_000002", out / "final_state"):
            assert not (d / "u_x.dat.old").exists()
            assert (d / "modal.npz").exists() and (d / "meta.txt").exists()
        assert sorted(os.listdir(out / "checkpoints")) == ["step_000002", "step_000003"]
        assert not [n for n in os.listdir(out) if n.startswith(".")]

    def test_export_plot(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", BASE)
        out = str(tmp_path / "out")
        assert main(["run", path, "--out", out]) == 0
        assert main(["export-plot", out]) == 0
        long_path = os.path.join(out, "diagnostics_long.csv")
        with open(long_path) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["time", "step", "variable", "value"]

    def test_export_plot_missing_dir_exit_1(self, tmp_path):
        assert main(["export-plot", str(tmp_path / "nope")]) == 1


FIELD_FILES = ["frak_T.dat", "frak_q_c.dat", "frak_q_r.dat", "frak_q_v.dat",
               "log_rho_d.dat", "u_x.dat", "u_y.dat", "u_z.dat"]
CHECKPOINT_FILES = ["config.echo", "frak_T.dat", "frak_q_c.dat", "frak_q_r.dat",
                    "frak_q_v.dat", "log_rho_d.dat", "meta.txt", "modal.npz",
                    "u_x.dat", "u_y.dat", "u_z.dat"]


def layout(root):
    """{directory relative to root: sorted names of the files in it}"""
    return {Path(d).relative_to(root).as_posix(): sorted(files)
            for d, _, files in os.walk(root) if files}


class TestRunDirectory:
    """The files a run leaves in its directory, pinned for a command-line
    run, its resume into a fresh directory, and a library run, three steps
    with checkpoints and snapshots every two."""

    CADENCES = "solver.checkpoint_every = 2\nsolver.snapshot_every = 2\n"

    def test_command_line_run_and_resume(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", BASE + self.CADENCES)
        out, res = tmp_path / "out", tmp_path / "resumed"
        assert main(["run", path, "--out", str(out)]) == 0
        assert main(["resume", str(out / "checkpoints" / "step_000002"),
                     "--out", str(res)]) == 0
        assert layout(out) == {
            ".": ["config.echo", "diagnostics.csv", "timings.csv"],
            "checkpoints/step_000002": CHECKPOINT_FILES,
            "checkpoints/step_000003": CHECKPOINT_FILES,
            "final_state": CHECKPOINT_FILES,
            "snapshot_000000": FIELD_FILES,
            "snapshot_000002": FIELD_FILES}
        # the resume writes the checkpoint and snapshot of its start step,
        # which is on both cadences
        assert layout(res) == {
            ".": ["config.echo", "diagnostics.csv", "timings.csv"],
            "checkpoints/step_000002": CHECKPOINT_FILES,
            "checkpoints/step_000003": CHECKPOINT_FILES,
            "final_state": CHECKPOINT_FILES,
            "snapshot_000002": FIELD_FILES}

    def test_zero_step_run(self, tmp_path):
        """A run of no steps checkpoints its initial state in the layout of
        every other checkpoint, coefficients included: the forward
        transforms of the fields it wrote."""
        cfg = BASE.replace("solver.t_end = 3e-3\n", "solver.t_end = 0.0\n")
        path = write_config(tmp_path / "c.cfg", cfg + "solver.checkpoint_every = 2\n")
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        assert layout(out) == {
            ".": ["config.echo", "diagnostics.csv", "timings.csv"],
            "checkpoints/step_000000": CHECKPOINT_FILES,
            "final_state": CHECKPOINT_FILES}
        sim = build_simulation(parse_config(path))[0]
        for d in (out / "checkpoints" / "step_000000", out / "final_state"):
            loaded = mf.load_state(d)
            fresh = dg.with_coefficients(loaded.copy(), sim.bases)
            for name, modal in fresh.modal.items():
                assert np.array_equal(loaded.modal[name], modal), name

    def test_library_run(self, tmp_path, grid8, nondim):
        """A simulation built without a config writes no echo and no
        final_state/."""
        state, bspec = mf.preset_initial("thermal_bubble", grid8, nondim)
        cfg = mf.SolverConfig(dt=1e-3, t_end=3e-3, checkpoint_every=2, snapshot_every=2)
        mf.Simulation(grid8, nondim, bspec, cfg).run(state, out_dir=str(tmp_path / "out"))
        checkpoint = [name for name in CHECKPOINT_FILES if name != "config.echo"]
        assert layout(tmp_path / "out") == {
            ".": ["diagnostics.csv", "timings.csv"],
            "checkpoints/step_000002": checkpoint,
            "checkpoints/step_000003": checkpoint,
            "snapshot_000000": FIELD_FILES,
            "snapshot_000002": FIELD_FILES}


class TestBuildSimulation:
    def test_boundary_override_applies(self, tmp_path):
        cfg = BASE + ("boundary.T.alpha_bottom = -1.0\n"
                      "boundary.T.alpha_top = 1.0\n"
                      "boundary.T.value_bottom = 1.0\n"
                      "boundary.T.value_top = 1.0\n")
        rc = parse_config(write_config(tmp_path / "c.cfg", cfg))
        sim, state = build_simulation(rc)
        assert sim.bspec["T"].alpha_bottom == -1.0
        assert sim.bspec["T"].data_bottom == 1.0

    def test_nondimensional_constants_with_override(self, tmp_path):
        cfg = "constants.set = nondimensional\nconstants.g = 0.5\n"
        rc = parse_config(write_config(tmp_path / "c.cfg", cfg))
        c = rc.constants()
        assert c.R_d == 1.0 and c.g == 0.5


class TestLibraryRejectionsExit2:
    """The parser checks syntax; the library's constructors check whether
    the values can run, and build_simulation turns their rejections into
    exit 2, before any file is written."""

    @pytest.mark.parametrize("line,message", [
        ("grid.nx = 7", "nx must be even"),
        ("grid.nz = 3", "nz must be >= 4"),
        ("constants.mu = 0", "mu must be positive"),
        ("solver.dt = 0", "dt must be positive"),
        ("solver.t_end = 2.5e-3", "t_end"),
        ("solver.mode = implicit", "unknown solver mode"),
        ("solver.v_r_scale = -1", "v_r_scale must be nonnegative"),
        ("boundary.v.alpha_top = -1", "sign condition violated for variable 'v'"),
        ("ic.sat_ratio = -0.5", "sat_ratio must be nonnegative"),
        ("ic.amplitude = -2", "amplitude -2.0 makes the initial temperature not positive"),
        ("constants.T_ref = 1e300", "T_ref must have a finite square"),
        ("constants.T_ref = 1e154", "T_ref must have a finite square, twice over"),
        ("ic.T0 = 1e300", "must have a finite square, twice over (2 T^2)"),
        ("ic.preset = vortex", "unknown preset 'vortex'")])
    def test_check_and_run_exit_2_and_write_nothing(self, tmp_path, capsys, line,
                                                    message):
        key = line.split(" = ")[0]
        cfg = "".join(f"{kept}\n" for kept in BASE.splitlines()
                      if not kept.startswith(f"{key} = "))
        path = write_config(tmp_path / "c.cfg", cfg + line + "\n")
        assert main(["check", path]) == 2
        assert message in capsys.readouterr().err
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 2
        assert "config error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("preset", ["equilibrium", "thermal_bubble",
                                        "saturated_layer", "manufactured"])
    @pytest.mark.parametrize("line", ["ic.T0 = -1", "ic.T0 = 1e-300", "ic.rho0 = -1",
                                      "constants.g = 1e6", "constants.T_ref = 1e-300"])
    def test_data_without_positive_density_exit_2(self, tmp_path, preset, line):
        """A negative base temperature or density, or gravity too strong for
        the column, leave no positive hydrostatic density: a config error,
        not a runtime failure."""
        cfg = BASE.replace("ic.preset = thermal_bubble", f"ic.preset = {preset}")
        assert main(["check", write_config(tmp_path / "c.cfg", cfg + line + "\n")]) == 2

    @pytest.mark.parametrize("preset", ["equilibrium", "thermal_bubble",
                                        "saturated_layer", "manufactured"])
    @pytest.mark.parametrize("line", ["ic.T0 = 1e300", "ic.T0 = 1e154"])
    def test_overflowing_closure_square_exit_2(self, tmp_path, preset, line):
        """The saturation closure forms 2 T^2 and T^2 + T_ref^2: an initial
        temperature whose 2 T^2 overflows (1e154 has a finite square) is a
        config error in every preset, not a non-finite right-hand side at
        the first step.  A T_ref that does the same is rejected with the
        constants, above."""
        cfg = BASE.replace("ic.preset = thermal_bubble", f"ic.preset = {preset}")
        path = write_config(tmp_path / "c.cfg", cfg + line + "\n")
        assert main(["check", path]) == 2
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("key", ["qc_seed", "qr_seed"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, key):
        cfg = BASE.replace("ic.preset = thermal_bubble", "ic.preset = saturated_layer")
        path = write_config(tmp_path / "c.cfg", cfg + f"ic.{key} = -1\n")
        assert main(["check", path]) == 2
        assert f"{key} must be nonnegative" in capsys.readouterr().err

    def test_negative_amplitude_is_a_cold_bubble(self, tmp_path, nondim):
        path = write_config(tmp_path / "c.cfg", BASE + "ic.amplitude = -0.5\n")
        _, state = build_simulation(parse_config(path))
        assert np.min(state.frak_T.values) < nondim.T_ref
