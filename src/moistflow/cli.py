"""Configuration parsing, run orchestration, and the command-line entry
points: ``run``, ``check``, ``resume``, and ``export-plot``.

Config files are plain UTF-8 ``key = value`` lines with dotted keys and
``#`` comments.  Unknown keys are errors (no silent typos), keys retired
from earlier versions are read with a warning, numbers must be finite, every
key has a documented default, and each run writes an echo file listing every
consumed key so runs are reproducible from their outputs alone.  Exit codes:
0 on success, 1 on runtime failure, 2 on usage or configuration errors;
MOISTFLOW_OUT overrides the output directory.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import warnings
from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from .boundary import BOUNDARY_VARS
from .fields import PhysConstants, make_grid
from .presets import preset_initial
from .solver import Simulation, SolverConfig, export_long, read_checkpoint


class ConfigError(ValueError):
    """Configuration-file problem; maps to exit code 2."""


def _field_keys(cls, section: str, renamed: dict) -> dict:
    """field name -> config key for each field of a config dataclass; a key
    is ``section.name`` unless ``renamed`` names it."""
    return {f.name: renamed.get(f.name, f"{section}.{f.name}")
            for f in fields(cls)}


_CONSTANT_FIELDS = _field_keys(PhysConstants, "constants",
                               {"lam": "constants.lambda"})
_SOLVER_FIELDS = _field_keys(SolverConfig, "solver",
                             {"strict_positivity": "diagnostics.strict_positivity"})


def _field_entries(cls, keys: dict) -> dict:
    """Schema entries of a config dataclass: its defaults, tagged by type."""
    return {keys[f.name]: (type(f.default).__name__, f.default)
            for f in fields(cls)}


def _schema() -> dict:
    """key -> (type tag, default).  Type tags: int, float, bool, str, data."""
    s = {
        "grid.nx": ("int", 16),
        "grid.ny": ("int", 16),
        "grid.nz": ("int", 17),
        "constants.set": ("str", "atmospheric"),
    }
    s.update(_field_entries(PhysConstants, _CONSTANT_FIELDS))
    for var in BOUNDARY_VARS:
        s[f"boundary.{var}.alpha_bottom"] = ("float", 0.0)
        s[f"boundary.{var}.alpha_top"] = ("float", 0.0)
        s[f"boundary.{var}.value_bottom"] = ("data", "preset")
        s[f"boundary.{var}.value_top"] = ("data", "preset")
    solver = _field_entries(SolverConfig, _SOLVER_FIELDS)
    s.update((k, v) for k, v in solver.items() if k.startswith("solver."))
    s.update({
        "ic.preset": ("str", "equilibrium"),
        "ic.T0": ("float", 0.0),          # 0 -> use constants.T_ref
        "ic.rho0": ("float", 0.0),        # 0 -> p_ref / (R_d T0)
        "ic.amplitude": ("float", 0.0),   # 0 -> preset default
        "ic.sat_ratio": ("float", 1.1),
        "ic.qc_seed": ("float", 1.0e-3),
        "ic.qr_seed": ("float", 5.0e-4),
    })
    s.update(solver)    # the renamed field: diagnostics.strict_positivity
    s["output.dir"] = ("str", "out")
    return s


SCHEMA = _schema()
_CONSTANT_SETS = {"atmospheric": PhysConstants,
                  "nondimensional": PhysConstants.nondimensional}

# keys of earlier versions that no longer do anything, read with a warning
# (old echo files list them); one that chose what this version always
# does maps to (type tag, that value, why): other values ask for another run
_RETIRED_KEYS = {"solver.psi_dt_mode": None, "run.seed": None, "run.threads": None,
                 "solver.dealias": ("bool", True, "the 2/3 rule is always applied"),
                 "microphysics.q_vs.kind": (
                     "str", "default", "only the 'default' saturation closure is "
                     "file-configurable; plug closures in via the API")}


def _finite(text: str) -> float:
    x = float(text)
    if not np.isfinite(x):
        raise ValueError(f"not a finite number: {text!r}")
    return x


def _parse_modes(text: str) -> dict:
    """Mode-table syntax: 'modes: k1,k2,re,im; k1,k2,re,im; ...'.

    Each entry contributes re*cos(pi(k1 x + k2 y)) + im*sin(pi(k1 x + k2 y))
    to the boundary field; the Hermitian pair of coefficients is added
    automatically so the field is real.
    """
    head, colon, body = text.partition(":")
    if not colon or head.strip() != "modes":
        raise ValueError(f"mode table must start with 'modes:': {text!r}")
    beta: dict = {}
    for chunk in body.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 4:
            raise ValueError(f"mode entry needs k1,k2,re,im: {chunk!r}")
        k1, k2 = int(parts[0]), int(parts[1])
        re, im = _finite(parts[2]), _finite(parts[3])
        if (k1, k2) == (0, 0):
            if im != 0.0:
                raise ValueError("mean mode (0,0) must have im = 0")
            beta[(0, 0)] = beta.get((0, 0), 0.0) + re
        else:
            beta[(k1, k2)] = beta.get((k1, k2), 0.0) + (re - 1j * im) / 2.0
            beta[(-k1, -k2)] = beta.get((-k1, -k2), 0.0) + (re + 1j * im) / 2.0
    return beta


def _format_data(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        entries = []
        seen = set()
        for (k1, k2), amp in sorted(value.items()):
            if (k1, k2) in seen:
                continue
            if (k1, k2) == (0, 0):
                entries.append(f"0,0,{float(np.real(amp))!r},0")
                continue
            seen.add((-k1, -k2))
            re = float(2.0 * np.real(amp))
            im = float(-2.0 * np.imag(amp))
            entries.append(f"{k1},{k2},{re!r},{im!r}")
        return "modes: " + "; ".join(entries)
    return repr(float(value))


def _coerce(key: str, text: str, where: str, kind: str | None = None):
    kind = kind or SCHEMA[key][0]
    text = text.strip()
    try:
        if kind == "data" and text.startswith("modes"):
            return _parse_modes(text)
        if kind == "int":
            return int(text)
        if kind == "float":
            return _finite(text)
        if kind == "bool":
            low = text.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if kind == "data":
            if text == "preset":
                return "preset"
            return _finite(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse value for {key}: {exc}") from exc


@dataclass
class RunConfig:
    """Fully resolved configuration: every schema key has a value."""

    values: dict
    explicit: set = dc_field(default_factory=set)
    path: str = ""

    def __getitem__(self, key):
        return self.values[key]

    def __eq__(self, other):
        """Equality of effective configurations (canonical echo form)."""
        return isinstance(other, RunConfig) and self.echo_text() == other.echo_text()

    def constants(self) -> PhysConstants:
        base = _CONSTANT_SETS[self["constants.set"]]()
        return PhysConstants(**{
            name: self[key] if key in self.explicit else getattr(base, name)
            for name, key in _CONSTANT_FIELDS.items()})

    def solver_config(self) -> SolverConfig:
        return SolverConfig(**{name: self[key] for name, key in _SOLVER_FIELDS.items()})

    def _effective(self) -> dict:
        """key -> effective value, in schema order (constants resolved)."""
        constants = self.constants()
        resolved = {key: getattr(constants, name)
                    for name, key in _CONSTANT_FIELDS.items()}
        return {key: resolved.get(key, self.values[key]) for key in SCHEMA}

    def echo_text(self) -> str:
        """Every consumed key with its effective value, in a form parse_config
        accepts; reparsing an echo reproduces the configuration exactly."""
        lines = ["# resolved configuration (all keys, defaults included)"]
        lines += [_echo_line(key, v) for key, v in self._effective().items()]
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        """SHA-256 of the echo lines of the keys whose values differ from the
        schema defaults, in schema order, so that adding or retiring a key
        leaves the hash of an unchanged configuration alone."""
        changed = [_echo_line(key, v) for key, v in self._effective().items()
                   if v != SCHEMA[key][1]]
        return hashlib.sha256("\n".join(changed).encode()).hexdigest()


def _echo_line(key: str, v) -> str:
    if isinstance(v, bool):
        text = "true" if v else "false"
    elif SCHEMA[key][0] == "data":
        text = _format_data(v)
    elif isinstance(v, float):
        text = repr(v)
    else:
        text = str(v)
    return f"{key} = {text}"


def parse_config(path) -> RunConfig:
    """Parse a config file; raises ConfigError with file/line information on
    unknown, duplicate or retired keys, values of the wrong type, non-finite
    numbers, malformed mode tables and an unknown constants.set.  Whether
    the values make a runnable simulation (grid sizes, constants, solver
    settings, wall sign conditions, initial data) is for the library to
    decide, in ``build_simulation``."""
    values = {k: v for k, (_, v) in SCHEMA.items()}
    explicit = set()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, text = (part.strip() for part in line.split("=", 1))
        where = f"{path}:{lineno}"
        if key in _RETIRED_KEYS:
            fixed = _RETIRED_KEYS[key]
            if fixed is not None and _coerce(key, text, where, fixed[0]) != fixed[1]:
                raise ConfigError(f"{where}: {key} = {text}: {fixed[2]}")
            warnings.warn(f"{where}: {key} is retired and ignored")
            continue
        if key not in SCHEMA:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in explicit:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        values[key] = _coerce(key, text, where)
        if key == "constants.set" and values[key] not in _CONSTANT_SETS:
            raise ConfigError(f"{where}: unknown constants.set {values[key]!r}")
        explicit.add(key)

    return RunConfig(values=values, explicit=explicit, path=str(path))


def build_simulation(rc: RunConfig):
    """Construct (Simulation, initial State) from a parsed config.  The
    library's constructors check the values; what they reject is raised as
    a ConfigError naming the config file."""
    try:
        grid = make_grid(rc["grid.nx"], rc["grid.ny"], rc["grid.nz"])
        constants = rc.constants()
        alphas = {var: (rc[f"boundary.{var}.alpha_bottom"],
                        rc[f"boundary.{var}.alpha_top"]) for var in BOUNDARY_VARS}
        state, bspec = preset_initial(
            rc["ic.preset"], grid, constants, alphas=alphas,
            T0=rc["ic.T0"], rho0=rc["ic.rho0"],
            amplitude=rc["ic.amplitude"] or None,
            sat_ratio=rc["ic.sat_ratio"], qc_seed=rc["ic.qc_seed"],
            qr_seed=rc["ic.qr_seed"])
        for var in BOUNDARY_VARS:
            for side, attr in (("bottom", "data_bottom"), ("top", "data_top")):
                override = rc[f"boundary.{var}.value_{side}"]
                if override != "preset":
                    setattr(bspec[var], attr, override)
        sim = Simulation(grid, constants, bspec, rc.solver_config())
    except ValueError as exc:
        raise ConfigError(f"{rc.path}: {exc}") from exc
    sim.config_hash = rc.config_hash()
    sim.config_echo = rc.echo_text()
    return sim, state


def _resolve_out(rc: RunConfig, cli_out: str | None) -> str:
    env = os.environ.get("MOISTFLOW_OUT")
    return cli_out or env or rc["output.dir"]


def _cmd_run(args) -> int:
    rc = parse_config(args.config)
    out = _resolve_out(rc, args.out)
    sim, state = build_simulation(rc)
    traj = sim.run(state, out_dir=out)
    print(f"run complete: {traj.steps} steps to t={traj.final_state.time:g}, "
          f"outputs in {out}")
    return 0


def _cmd_check(args) -> int:
    rc = parse_config(args.config)
    build_simulation(rc)
    print(f"config ok: grid {rc['grid.nx']}x{rc['grid.ny']}x{rc['grid.nz']}, "
          f"preset {rc['ic.preset']}, mode {rc['solver.mode']}, "
          f"dt {rc['solver.dt']:g}, t_end {rc['solver.t_end']:g}")
    return 0


def _cmd_resume(args) -> int:
    state, report, echo = read_checkpoint(args.checkpoint)
    rc = parse_config(echo)
    out = _resolve_out(rc, args.out)
    sim, _ = build_simulation(rc)
    traj = sim.run(state, out_dir=out, initial_report=report)
    print(f"resumed to t={traj.final_state.time:g}, outputs in {out}")
    return 0


def _cmd_export_plot(args) -> int:
    print(f"wrote {export_long(args.csvdir)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="moistflow",
        description="Pseudo-spectral moist-air channel simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a simulation from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="validate a config without running")
    p_check.add_argument("config")
    p_check.set_defaults(func=_cmd_check)

    p_res = sub.add_parser("resume", help="continue from a checkpoint directory")
    p_res.add_argument("checkpoint")
    p_res.add_argument("--out", default=None)
    p_res.set_defaults(func=_cmd_resume)

    p_exp = sub.add_parser("export-plot",
                           help="emit a long-format CSV for plotting tools")
    p_exp.add_argument("csvdir")
    p_exp.set_defaults(func=_cmd_export_plot)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 1
