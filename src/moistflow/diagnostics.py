"""Run monitors: Sobolev norms, conservation and sign diagnostics, CSV
emission, and the two-run continuous-dependence probe.

The monitored quantities mirror the regularity class of the local solution:
H2 control of velocity, temperature, mixing ratios, sqrt(rho_d), and
log(rho_d), dry-air mass, total water content, field minima, and the L2
norms of the negative parts of the physical (dehomogenized) variables.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from . import spectral_ops as sp
from .boundary import dehomogenize
from .fields import MODAL_NAMES, State

# the CSV's variable groups, in column order: Sobolev norms, minima and
# L2 norms of negative parts
NORMED = ("u", "T", "qv", "qc", "qr", "sqrt_rho", "log_rho")
MINIMA = ("T", "qv", "qc", "qr", "rho")
NEGATIVE = ("T", "qv", "qc", "qr")

COLUMNS = (
    "step", "time", "picard_iterations", "picard_final_ratio",
    *(f"{norm}_{name}" for name in NORMED for norm in ("l2", "h1", "h2")),
    "dry_mass", "total_water",
    *(f"min_{name}" for name in MINIMA),
    *(f"neg_{name}" for name in NEGATIVE),
)


@dataclass
class DiagnosticsRow:
    step: int
    time: float
    picard_iterations: int
    picard_final_ratio: float
    norms: dict                 # name -> (l2, h1, h2)
    dry_mass: float
    total_water: float
    minima: dict                # name -> min value
    negative_norms: dict        # name -> ||f-||_2
    wall_clock: float = 0.0     # kept out of the CSV so runs stay bitwise reproducible

    def csv_values(self):
        vals = [self.step, repr(self.time), self.picard_iterations,
                repr(self.picard_final_ratio)]
        for name in NORMED:
            vals.extend(repr(x) for x in self.norms[name])
        vals.append(repr(self.dry_mass))
        vals.append(repr(self.total_water))
        for name in MINIMA:
            vals.append(repr(self.minima[name]))
        for name in NEGATIVE:
            vals.append(repr(self.negative_norms[name]))
        return vals


def _norm_triplet(modal: np.ndarray, basis) -> tuple:
    return tuple(float(np.sqrt(x)) for x in sp.modal_sobolev_sqs(modal, basis))


def _negative_l2(vals: np.ndarray, w: np.ndarray) -> float:
    """L2 norm of the negative part f- = max(-f, 0) under quadrature weights
    w, squared from min(f, 0) = -f- in one pass."""
    neg = np.minimum(vals, 0.0)
    return float(np.sqrt(np.sum(neg * neg * w)))


def physical_values(state: State, factors: dict) -> dict:
    """The dehomogenized T, q_v, q_c, q_r of ``state``, keyed T, qv, qc, qr."""
    return {name: dehomogenize(getattr(state, attr), factors[var]).values
            for attr, var, name in (("frak_T", "T", "T"), ("frak_q_v", "v", "qv"),
                                    ("frak_q_c", "c", "qc"), ("frak_q_r", "r", "qr"))}


def compute_row(state: State, factors: dict, bases: sp.BasisPair, step: int,
                picard_report=None, wall_clock: float = 0.0) -> DiagnosticsRow:
    state = with_coefficients(state, bases)
    g = state.grid
    neu = bases.neumann
    rho = np.exp(state.log_rho_d.values)

    tri = {}
    comp = [_norm_triplet(state.modal[name], iterated_basis(name, bases))
            for name in ("u1", "u2", "w")]
    tri["u"] = tuple(float(np.sqrt(sum(t[k] ** 2 for t in comp))) for k in range(3))
    # the physical scalars' norms from the coefficients of frak (see
    # HomogenizationFactors.dehomogenized_modal), their values for the rest
    phys = physical_values(state, factors)
    for var, name in zip("Tvcr", phys):
        tri[name] = _norm_triplet(
            factors[var].dehomogenized_modal(state.modal[name], neu), neu)
    tri["sqrt_rho"] = _norm_triplet(sp.to_modal_values(np.sqrt(rho), neu), neu)
    tri["log_rho"] = _norm_triplet(state.modal["log_rho_d"], neu)

    w = g.quad_weights()
    dry_mass = float(np.sum(rho * w))
    total_water = float(np.sum(rho * (phys["qv"] + phys["qc"] + phys["qr"]) * w))

    minima = {name: float(np.min(vals)) for name, vals in phys.items()}
    minima["rho"] = float(np.min(rho))
    neg = {name: _negative_l2(vals, w) for name, vals in phys.items()}

    iters = picard_report.iterations if picard_report is not None else 0
    ratio = picard_report.final_ratio if picard_report is not None else 0.0
    return DiagnosticsRow(step=step, time=state.time, picard_iterations=iters,
                          picard_final_ratio=ratio, norms=tri, dry_mass=dry_mass,
                          total_water=total_water, minima=minima,
                          negative_norms=neg, wall_clock=wall_clock)


class DiagnosticsWriter:
    """Append-only CSV emitter; header written once, column order frozen,
    RFC-4180 quoting (values are plain numerics, so never quoted)."""

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8", newline="")
        self._writer = csv.writer(self._fh, quoting=csv.QUOTE_MINIMAL)
        self._writer.writerow(COLUMNS)
        self._fh.flush()

    def emit(self, row: DiagnosticsRow) -> None:
        self._writer.writerow(row.csv_values())
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


@dataclass
class StabilityReport:
    """Continuous-dependence measurement between two runs."""

    times: np.ndarray
    delta_rho: np.ndarray
    delta_fields: np.ndarray        # combined L2 of (u, frak_T, frak_q_j)
    cumulative_h1: np.ndarray       # running dt-weighted sum of H1 differences
    growth_rate: float              # fitted C in c * exp(C t)
    envelope_coef: float            # max delta / (exp(C t) * delta(0))
    initial_delta: float


ITERATED = MODAL_NAMES[:-1]    # all carried variables but log rho_d


def iterated_values(s: State) -> dict:
    """Values of the variables the Picard map iterates, keyed as ITERATED."""
    return dict(zip(ITERATED, (f.values for f in s.fields()[1:])))


def iterated_basis(name: str, bases: sp.BasisPair) -> sp.Basis:
    """The vertical velocity is a sine series, every other variable of
    ``State.modal`` a cosine series."""
    return bases.dirichlet if name == "w" else bases.neumann


def with_coefficients(s: State, bases: sp.BasisPair) -> State:
    """``s`` itself when it carries the coefficients of its fields
    (``State.modal``), else a copy that carries the forward transforms of
    its eight fields."""
    if s.modal is not None:
        return s
    vals = {**iterated_values(s), "log_rho_d": s.log_rho_d.values}
    out = replace(s)
    out.modal = {name: sp.to_modal_values(vals[name], iterated_basis(name, bases))
                 for name in MODAL_NAMES}
    return out


def difference_sqs(a: State, b: State, bases: sp.BasisPair) -> dict:
    """Squared L2 and H1 norms of a - b for each iterated variable, keyed
    u1, u2, w, T, qv, qc, qr in that order."""
    va, vb = iterated_values(a), iterated_values(b)
    return {name: sp.modal_sobolev_sqs(
        sp.to_modal_values(va[name] - vb[name], iterated_basis(name, bases)),
        iterated_basis(name, bases), 1) for name in ITERATED}


def stability_probe(run_a, run_b, bases: sp.BasisPair) -> StabilityReport:
    """Difference trajectory of two runs with identical configuration and
    perturbed initial data; fits a log-linear growth rate and reports the
    exponential-envelope constant."""
    if run_a.config != run_b.config:
        raise ValueError("stability probe requires identical run configurations")
    if len(run_a.states) != len(run_b.states) or not run_a.states:
        raise ValueError("runs must record states on the same cadence")

    times, drho, dfields, cum = [], [], [], []
    running = 0.0
    dt = run_a.config.dt
    grid = run_a.final_state.grid
    w = grid.quad_weights()
    for (sa, a), (sb, b) in zip(run_a.states, run_b.states):
        if sa != sb:
            raise ValueError("recorded steps are not aligned")
        times.append(a.time)
        dr = np.exp(a.log_rho_d.values) - np.exp(b.log_rho_d.values)
        drho.append(float(np.sqrt(np.sum(dr * dr * w))))
        sqs = difference_sqs(a, b, bases).values()
        dfields.append(float(np.sqrt(sum(l2 for l2, _ in sqs))))
        running += dt * sum(h1 for _, h1 in sqs)
        cum.append(running)

    times = np.asarray(times)
    dfields = np.asarray(dfields)
    drho = np.asarray(drho)
    cum = np.sqrt(np.asarray(cum))

    mask = dfields > 0.0
    if np.count_nonzero(mask) >= 2:
        slope, intercept = np.polyfit(times[mask], np.log(dfields[mask]), 1)
    else:
        slope, intercept = 0.0, -np.inf
    d0 = dfields[0] if dfields[0] > 0.0 else max(float(np.max(dfields)), 1e-300)
    envelope = float(np.max(dfields / (np.exp(slope * times) * d0)))
    return StabilityReport(times=times, delta_rho=drho, delta_fields=dfields,
                           cumulative_h1=cum, growth_rate=float(slope),
                           envelope_coef=envelope, initial_delta=float(dfields[0]))
