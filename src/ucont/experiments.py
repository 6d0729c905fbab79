"""Batch experiment front door: sectioned key=value configs, validation,
deterministic runners for each experiment kind, and report/CSV persistence.

Config files are INI-style with JSON-typed values::

    [experiment]
    kind = convexity
    seed = 7
    output = out/convexity

    [field]
    dimension = 1
    a11 = "1 + 0.06*exp(-x1^2/4)"

A kind reads only the keys its ``_TABLE`` entry declares.  Every run writes
a JSON report (config echo, per-check status, metrics with their tolerances,
artifact paths) plus CSV data files; identical (config, seed) pairs produce
byte-identical CSVs.
"""

from __future__ import annotations

import configparser
import io
import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import sympy as sp

from . import __version__
from .analysis import SubordinationCase, poincare_weighted_check, \
    subordination_ratio
from .carleman import FrontierError, SupportError, SweepConfig, \
    carleman_sweep
from .coefficients import CoefficientField, EllipticityError, GaugeError, \
    SamplingBox, TransversalField, gauge_reduce, verify_gauge_transport
from .diagnostics import AnnulusResolutionError, BoundaryMassError, \
    annulus_mass_profile, derivative_bound_check, logconvexity_check, \
    weighted_norm
from .evolution import BlowUpError, DissipationParams, GaussianPacket, \
    NonFiniteFieldError, StabilityError, WaveState, free_flow_closed_form, \
    mass, propagate, write_checkpoint
from .expressions import ExpressionError, SamplingError, parse_expression
from .grids import Grid, ResolutionError, band_limited_noise
from .operators import VARIANTS, WeightSpec, remainder_grouping_report, \
    verify_T_decomposition

# ---------------------------------------------------------------------------
# the config table: kind -> section -> key -> (accepted, default)
# ---------------------------------------------------------------------------
# ``accepted`` is a type, a tuple of types, or a tuple of valid choices; a
# ``list`` takes a JSON list of numbers.  A callable default is derived from
# the rest of the config.  A carleman-sweep without [field] runs on the field
# its mode implies (see ``carleman_sweep``).

_NUM = (int, float)
_EXPR = (str, int, float)       # parsed by parse_expression


def _matrix(prefix: str, m: int) -> dict:
    return {f"{prefix}{j}{k}": (_EXPR, "1" if j == k else "0")
            for j in range(1, m + 1) for k in range(j, m + 1)}


_EXPERIMENT = {"seed": (int, 0), "output": (str, lambda cfg: f"out/{cfg.kind}")}
_FIELD = {"dimension": (int, 1), "transversal": (bool, False),
          "potential": (_EXPR, "0"), **_matrix("a", 3), **_matrix("atilde", 2)}
_GRID = {"extents": (list, [12.0]), "points": (list, [1024])}
_FLOW = {
    "experiment": _EXPERIMENT, "field": _FIELD, "grid": _GRID,
    "initial": {"s_re": (_NUM, 1.0), "s_im": (_NUM, 0.0), "amplitude": (_NUM, 1.0),
                "center": (list, lambda cfg: [0.0] * cfg.get("field", "dimension"))},
    "evolution": {"a": (_NUM, 0.0), "b": (_NUM, 1.0), "steps": (int, 1024),
                  "frames": (int, 65), "t_end": (_NUM, 1.0)}}

_TABLE = {
    "simulate": {**_FLOW, "weight": {"beta": (_NUM, 0.0)}},
    "convexity": {
        **_FLOW,
        "weight": {"beta": (_NUM, 0.1),
                   "beta_values": (list, lambda cfg: [cfg.get("weight", "beta")])},
        "tolerances": {"boundary_budget": (_NUM, 1e-12),
                       "interp_C": (_NUM, 1.0 + 1e-6), "d2_floor": (_NUM, -1e-3)}},
    "carleman-sweep": {
        "experiment": _EXPERIMENT, "field": _FIELD,
        "grid": {**_GRID, "nt": (int, 64)},
        "params": {"mode": (("annulus", "translated"), "annulus"),
                   "R_values": (list, [1.0, 1.5, 2.0]), "n_samples": (int, 20),
                   "r0": (_NUM, 1.0), "c0": (_NUM, 4.0),
                   "space_width": (_NUM, 0.5),
                   "frontier_R_values": (list, []), "frontier_probes": (int, 8)},
        "tolerances": {"slack_tol": (_NUM, 1e-6)}},
    "symbolic-verify": {
        "experiment": _EXPERIMENT, "field": _FIELD,
        "weight": {"variant": (VARIANTS, "quadratic"), "alpha": (_NUM, 2),
                   "beta": (_NUM, None), "R": (_NUM, None)}},  # None: symbolic
    "subordination": {
        "experiment": _EXPERIMENT,
        "params": {"p": (_NUM, 1.5), "kappa": (_NUM, 10.0), "lambda0": (_NUM, 1.0),
                   "r_values": (list, [float(r) for r in np.logspace(-1, 1, 20)])},
        "tolerances": {"slack_tol": (_NUM, 1.25)}},
    "poincare": {
        "experiment": _EXPERIMENT, "grid": _GRID,
        "params": {"radii": (list, [0.5, 1.0, 2.0]), "n_fields": (int, 200),
                   "k_cut": (_NUM, 6.0)},
        "tolerances": {"interp_C": (_NUM, 2.0)}},
    "hardy": {
        "experiment": _EXPERIMENT,
        "params": {"s_values": (list, [1.0, 0.5, 0.1, 0.01])},
        "tolerances": {"slack_tol": (_NUM, 1e-8)}},
    "lowerbound-fit": {
        **_FLOW,
        "params": {"radii": (list, [float(r) for r in np.linspace(2, 6, 9)]),
                   "t_window": (list, [0.125, 0.875]),
                   "R0": (_NUM, None), "E2": (_NUM, None)},
        "tolerances": {"slack_tol": (_NUM, 0.05)}},
    "gauge-reduce": {
        "experiment": _EXPERIMENT, "field": _FIELD,
        "params": {"x1_range": (list, [-10.0, 10.0]), "npts": (int, 4001),
                   "n_tests": (int, 10)},
        "tolerances": {"slack_tol": (_NUM, 1e-6)}},
}
KINDS = tuple(_TABLE)


def _field_keys(dim: int, transversal: bool) -> set[str]:
    """The [field] keys a ``dim``-dimensional field reads."""
    entries = {"a11", *_matrix("atilde", dim - 1)} if transversal \
        else _matrix("a", dim).keys()
    return {"dimension", "transversal", "potential", *entries}


def _accepts(accepted, value) -> bool:
    if isinstance(accepted, tuple) and isinstance(accepted[0], str):
        return value in accepted
    if accepted is list:
        return isinstance(value, list) and all(_accepts(_NUM, v) for v in value)
    if isinstance(value, float) and not math.isfinite(value):
        return False        # JSON's NaN, Infinity and -Infinity
    return isinstance(value, accepted) and (accepted is bool
                                            or not isinstance(value, bool))


def _expected(accepted) -> str:
    if isinstance(accepted, tuple) and isinstance(accepted[0], str):
        return "one of " + ", ".join(repr(c) for c in accepted)
    return {int: "an integer", _NUM: "a finite number",
            _EXPR: "a string or a finite number", bool: "true or false",
            str: "a string", list: "a list of finite numbers"}[accepted]


class ConfigError(ValueError):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass
class ExperimentConfig:
    kind: str
    sections: dict            # section -> {key: typed value}, as written

    def get(self, section: str, key: str, default=None):
        """The config's value of ``key``, else the kind's table default,
        else ``default`` for a key the kind does not read."""
        if key in self.sections.get(section, {}):
            return self.sections[section][key]
        value = _TABLE[self.kind].get(section, {}).get(key, (None, default))[1]
        return value(self) if callable(value) else value

    @property
    def seed(self) -> int:
        return self.get("experiment", "seed")

    @property
    def output(self) -> Path:
        return Path(self.get("experiment", "output"))


@dataclass
class ExperimentReport:
    config: dict
    kind: str
    checks: dict              # name -> {"status": pass|fail|exploratory, ...}
    metrics: dict
    artifacts: list[str]
    wall_clock: float
    version: str = __version__

    @property
    def failed(self) -> bool:
        return any(c.get("status") == "fail" for c in self.checks.values())

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------

def _typed(raw: str):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def validate(text: str) -> ExperimentConfig:
    """Full validation of a config text against its kind's table; raises
    :class:`ConfigError` with the aggregated error list."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"config syntax: {exc}"]) from exc
    sections = {sec: {key: _typed(raw) for key, raw in parser.items(sec)}
                for sec in parser.sections()}

    kind = sections.get("experiment", {}).get("kind")
    if kind is None:
        raise ConfigError(["missing required key 'kind' in section [experiment]"])
    if kind not in KINDS:
        raise ConfigError([f"unknown experiment kind {kind!r}; known: "
                           f"{', '.join(KINDS)}"])
    table = _TABLE[kind]
    errors: list[str] = []
    for sec, values in sections.items():
        if sec not in table:
            errors.append(f"section [{sec}] is not read by kind {kind!r}")
            continue
        for key, value in values.items():
            if sec == "experiment" and key == "kind":
                continue
            if key not in table[sec]:
                errors.append(f"key {key!r} in section [{sec}] is not read by "
                              f"kind {kind!r}")
            elif not _accepts(table[sec][key][0], value):
                errors.append(f"{sec}.{key} = {value!r}: expected "
                              f"{_expected(table[sec][key][0])}")
            elif table[sec][key][0] is _EXPR and isinstance(value, str):
                try:
                    parse_expression(value)
                except ExpressionError as exc:
                    errors.append(f"{sec}.{key}: {exc}")

    cfg = ExperimentConfig(kind, sections)
    fs = sections.get("field", {})
    dim, transversal = cfg.get("field", "dimension"), cfg.get("field", "transversal")
    if _accepts(int, dim) and not 1 <= dim <= 3:
        errors.append(f"field.dimension = {dim}: fields have 1 to 3 dimensions")
    elif _accepts(int, dim) and _accepts(bool, transversal):
        shape = f"{'transversal ' if transversal else ''}{dim}-D field"
        errors += [f"key {key!r} in section [field] is not read by a {shape}"
                   for key in sorted((fs.keys() & _FIELD.keys())
                                     - _field_keys(dim, transversal))]

    def numbers(section: str, key: str) -> list:
        """The numbers in effect for ``key`` (given, else the table default):
        its value or its list's entries."""
        val = cfg.get(section, key)
        return [v for v in (val if isinstance(val, list) else [val])
                if _accepts(_NUM, v)]
    scale = "the weighted-inequality scale requires R >= 1"
    errors += [f"weight.R = {v}: {scale}" for v in numbers("weight", "R") if v < 1]
    errors += [f"params.{key} contains {v}: {scale}"
               for key in ("R_values", "frontier_R_values")
               for v in numbers("params", key) if v < 1]
    if cfg.get("weight", "variant") == "power":
        errors += [f"weight.alpha = {v}: the power weight requires alpha > 1"
                   for v in numbers("weight", "alpha") if v <= 1]
    if kind == "symbolic-verify":
        errors += [f"weight.beta = {v}: the weight requires beta >= 0"
                   for v in numbers("weight", "beta") if v < 0]
    if "evolution" in table:
        steps, frames = (cfg.get("evolution", key) for key in ("steps", "frames"))
        if _accepts(int, frames) and frames < 2:
            errors.append(f"evolution.frames = {frames}: a trajectory stores "
                          f"at least 2 frames")
        elif _accepts(int, steps) and _accepts(int, frames) \
                and (steps <= 0 or steps % (frames - 1)):
            errors.append(f"evolution.steps = {steps}: not a positive multiple "
                          f"of evolution.frames - 1 = {frames - 1}")
    window, t_end = cfg.get("params", "t_window"), cfg.get("evolution", "t_end")
    if kind == "lowerbound-fit" and _accepts(list, window) and len(window) != 2:
        errors.append(f"params.t_window = {window}: expected [start, end]")
    elif kind == "lowerbound-fit" and _accepts(list, window) \
            and _accepts(_NUM, t_end) and _accepts(int, frames) and frames >= 2:
        # the frame times, and the slack annulus_mass_profile selects with
        times = np.linspace(0.0, float(t_end), frames)
        inside = np.sum((times >= window[0] - 1e-12) & (times <= window[1] + 1e-12))
        if inside < 2:
            errors.append(f"params.t_window = {window} holds {inside} of the "
                          f"{frames} frame times; the fit needs 2")
    positive_list = {"poincare": "radii", "hardy": "s_values",
                     "subordination": "r_values"}.get(kind)
    if positive_list:
        errors += [f"params.{positive_list} contains {v}: entries must be positive"
                   for v in numbers("params", positive_list) if v <= 0]
    if kind == "subordination":
        errors += [f"params.{key} = {v}: {key} must be positive"
                   for key in ("kappa", "lambda0")
                   for v in numbers("params", key) if v <= 0]
        errors += [f"params.p = {v}: p must lie in (1, 2)"
                   for v in numbers("params", "p") if not 1 < v < 2]
    if sections.get("weight", {}).get("beta_values") == []:
        errors.append("weight.beta_values is empty")
    if kind == "gauge-reduce" and dim != 1 and transversal is not True:
        errors.append(f"field.dimension = {dim}: gauge-reduce takes a 1-D or "
                      f"a transversal field")
    extents, points = cfg.get("grid", "extents"), cfg.get("grid", "points")
    if _accepts(list, extents) and _accepts(list, points):
        if len(extents) != len(points):
            errors.append(f"len(grid.extents) = {len(extents)} differs from "
                          f"len(grid.points) = {len(points)}")
        # a carleman-sweep without [field] builds its field from the grid
        elif _accepts(int, dim) and dim != len(extents) \
                and (kind != "carleman-sweep" or "field" in sections):
            errors.append(f"field.dimension = {dim} differs from "
                          f"len(grid.extents) = {len(extents)}")
        if kind == "poincare" and extents:
            errors += [f"params.radii contains {v}: the ball B_2r exceeds "
                       f"min(grid.extents) / 2 = {min(extents) / 2}"
                       for v in numbers("params", "radii") if 2 * v > min(extents)]
        if kind == "lowerbound-fit" and extents:
            errors += [f"params.radii contains {v}: the annulus exceeds "
                       f"min(grid.extents) = {min(extents)}"
                       for v in numbers("params", "radii") if v > min(extents)]
    errors += [f"grid.points entry {n} is not a power of two"
               for n in numbers("grid", "points")
               if not (_accepts(int, n) and n >= 2 and (n & (n - 1)) == 0)]
    if errors:
        raise ConfigError(errors)
    return cfg


def load_config(path) -> ExperimentConfig:
    return validate(Path(path).read_text())


# ---------------------------------------------------------------------------
# deterministic CSV writing
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: Path, header: list[str], rows) -> None:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    path.write_text(buf.getvalue())


# ---------------------------------------------------------------------------
# runners and their shared builders
# ---------------------------------------------------------------------------

def _build_field(cfg: ExperimentConfig):
    dim = cfg.get("field", "dimension")

    def expr(key: str):
        return parse_expression(str(cfg.get("field", key)))

    def table(prefix: str, m: int):
        """Symmetric m x m table from keys prefix11, prefix12, ..."""
        return tuple(tuple(expr(f"{prefix}{min(k, j) + 1}{max(k, j) + 1}")
                           for j in range(m)) for k in range(m))
    if cfg.get("field", "transversal"):
        return TransversalField(dim, expr("a11"), table("atilde", dim - 1),
                                expr("potential"))
    return CoefficientField(dim, table("a", dim), expr("potential"))


def _build_grid(cfg: ExperimentConfig) -> Grid:
    return Grid(tuple(float(e) for e in cfg.get("grid", "extents")),
                tuple(int(p) for p in cfg.get("grid", "points")))


def _propagate_from_config(cfg: ExperimentConfig):
    fld = _build_field(cfg)
    base = fld.to_field() if isinstance(fld, TransversalField) else fld
    grid = _build_grid(cfg)

    def num(section: str, key: str) -> float:
        return float(cfg.get(section, key))
    packet = GaussianPacket(
        complex(num("initial", "s_re"), num("initial", "s_im")),
        tuple(float(c) for c in cfg.get("initial", "center")),
        complex(num("initial", "amplitude")))
    d = DissipationParams(num("evolution", "a"), num("evolution", "b"))
    traj = propagate(WaveState(0.0, packet.sample(grid), grid), base, d,
                     (0.0, num("evolution", "t_end")),
                     cfg.get("evolution", "steps"), cfg.get("evolution", "frames"))
    return base, traj


def _run_simulate(cfg: ExperimentConfig, out: Path):
    _, traj = _propagate_from_config(cfg)
    beta = float(cfg.get("weight", "beta"))
    rows = []
    for i, t in enumerate(traj.times):
        st = traj.state(i)
        H = weighted_norm(st, beta, strict=False) if beta else mass(st)
        rows.append((float(t), mass(st), H))
    csv_path = out / "trajectory.csv"
    write_csv(csv_path, ["t", "mass", "H"], rows)
    ckpt = out / "trajectory.uctj"
    write_checkpoint(ckpt, traj)
    drift = abs(rows[-1][1] - rows[0][1]) / rows[0][1]
    n_inf = sum(not math.isfinite(H) for *_, H in rows)
    checks = {"H_finite": {"status": "pass" if n_inf == 0 else "fail",
                           "non_finite": n_inf, "tolerance": 0}}
    if float(cfg.get("evolution", "a")) == 0.0:
        checks["mass_conservation"] = {
            "status": "pass" if drift < 1e-7 else "fail",
            "value": drift, "tolerance": 1e-7}
    else:
        mono = all(rows[i + 1][1] <= rows[i][1] * (1 + 1e-12)
                   for i in range(len(rows) - 1))
        checks["dissipation_monotone"] = {
            "status": "pass" if mono else "fail", "tolerance": 1e-12}
    return checks, {"mass_drift": drift}, [csv_path, ckpt]


def _run_convexity(cfg: ExperimentConfig, out: Path):
    fld, traj = _propagate_from_config(cfg)
    betas = cfg.get("weight", "beta_values")
    budget, interp_C, d2_floor = (float(cfg.get("tolerances", key)) for key in
                                  ("boundary_budget", "interp_C", "d2_floor"))
    box = SamplingBox.cube(traj.grid.dim, min(traj.grid.extents), 33)
    M1 = fld.m1_norm(box)
    checks, metrics, artifacts = {}, {}, []
    for beta in betas:
        tr = logconvexity_check(traj, float(beta), M1, C=interp_C,
                                boundary_budget=budget)
        d2 = tr.d2_logH()
        rows = [(float(t), tr.H[i], math.log(tr.H[i]),
                 float(d2[i - 1]) if 0 < i < len(tr.times) - 1 else math.nan)
                for i, t in enumerate(tr.times)]
        path = out / f"convexity_beta{beta}.csv"
        write_csv(path, ["t", "H", "logH", "d2logH"], rows)
        artifacts.append(path)
        tag = f"beta={beta}"
        checks[f"interp_bound[{tag}]"] = {
            "status": "fail" if tr.violation else "pass",
            "max_ratio_C1": tr.max_interp_ratio_c1, "C": interp_C,
            "tolerance": interp_C}
        checks[f"d2_logH_floor[{tag}]"] = {
            "status": "pass" if tr.min_d2_logH >= d2_floor else "fail",
            "min_d2": tr.min_d2_logH, "tolerance": d2_floor}
        metrics[f"max_interp_ratio_C1[{tag}]"] = tr.max_interp_ratio_c1
        metrics[f"min_d2_logH[{tag}]"] = tr.min_d2_logH
    metrics["M1"] = M1
    metrics["derivative_bound_ratio"] = derivative_bound_check(
        traj, float(betas[0]), M1, strict=False)
    return checks, metrics, artifacts


def _run_carleman(cfg: ExperimentConfig, out: Path):
    fld = _build_field(cfg) if "field" in cfg.sections else None
    grid = _build_grid(cfg)
    # the params keys are SweepConfig's field names
    params = {key: cfg.get("params", key) for key in _TABLE[cfg.kind]["params"]}
    for key in ("R_values", "frontier_R_values"):
        params[key] = tuple(float(v) for v in params[key])
    sweep = carleman_sweep(SweepConfig(
        **params, nt=cfg.get("grid", "nt"), extents=grid.extents,
        points=grid.points, seed0=cfg.seed), fld)
    path = out / "carleman_samples.csv"
    write_csv(path, ["mode", "beta", "R", "seed", "lhs", "rhs", "slack", "pass"],
              sweep.rows)
    artifacts = [path]
    slack_tol = float(cfg.get("tolerances", "slack_tol"))
    checks = {"inequality_at_threshold": {
        "status": "pass" if sweep.min_slack >= 1 - slack_tol else "fail",
        "min_slack": sweep.min_slack, "tolerance": 1 - slack_tol}}
    metrics = {"min_slack": sweep.min_slack, "n_failures": len(sweep.failures)}
    if sweep.frontier_R is not None:
        rows = list(zip(sweep.frontier_R, sweep.frontier_beta))
        fpath = out / "frontier.csv"
        write_csv(fpath, ["R", "beta_star"], rows)
        artifacts.append(fpath)
        metrics["frontier_exponent"] = sweep.frontier_exponent
        metrics["frontier_coef"] = sweep.frontier_coef
        if sweep.fitted_c0 is not None:
            metrics["fitted_c0"] = sweep.fitted_c0
    return checks, metrics, artifacts


def _run_symbolic(cfg: ExperimentConfig, out: Path):
    fld = _build_field(cfg)
    base = fld.to_field() if isinstance(fld, TransversalField) else fld
    variant, alpha = cfg.get("weight", "variant"), cfg.get("weight", "alpha")

    def exact(key: str) -> sp.Expr:
        """The config number as an exact rational; absent, a symbol."""
        value = cfg.get("weight", key)
        return sp.Symbol(key, positive=True) if value is None \
            else parse_expression(str(value))
    w = WeightSpec(variant, exact("beta"), alpha=exact("alpha"), R=exact("R"))
    rep = verify_T_decomposition(base, w)
    rows = [(label, rep.residual_max[label], rep.residual_exprs[label] or "0")
            for label in sorted(rep.residual_max)]
    path = out / "residuals.csv"
    write_csv(path, ["grade", "residual_max", "residual_expr"], rows)
    checks = {"t_decomposition": {
        "status": "pass" if rep.identically_zero else "fail",
        "residuals": rep.residual_max, "tolerance": 0.0}}
    checks["order_collapse"] = {
        "status": "pass" if rep.commutator_spatial_order <= 2 else "fail",
        "order": rep.commutator_spatial_order, "tolerance": 2}
    metrics = {"residual_max": rep.residual_max}
    try:
        metrics.update(remainder_grouping_report(
            base, WeightSpec(variant, 1.0, alpha=alpha, R=2.0),
            SamplingBox.cube(base.dim, 4.0, 9)))
    except SamplingError as exc:
        checks["remainder_grouping"] = {"status": "fail", "error": "SamplingError",
                                        "message": str(exc)}
    return checks, metrics, [path]


def _run_subordination(cfg: ExperimentConfig, out: Path):
    p, kappa, lambda0 = (float(cfg.get("params", key))
                         for key in ("p", "kappa", "lambda0"))
    case = SubordinationCase(p, kappa, lambda0, tuple(
        float(r) for r in cfg.get("params", "r_values")))
    res = subordination_ratio(case)
    rows = [(case.p, case.q, case.kappa, case.lambda0, r,
             res.log_integrals[i], res.log_targets[i], res.ratios[i])
            for i, r in enumerate(case.r_values)]
    path = out / "subordination.csv"
    write_csv(path, ["p", "q", "kappa", "lambda0", "r", "log_integral",
                     "log_target", "ratio"], rows)
    band_limit = float(cfg.get("tolerances", "slack_tol"))
    mono = bool(np.all(np.diff(res.log_integrals) > 0))
    checks = {
        "ratio_band": {"status": "pass" if res.band < band_limit else "fail",
                       "band": res.band, "tolerance": band_limit},
        "integral_monotone": {"status": "pass" if mono else "fail",
                              "tolerance": 0.0},
    }
    return checks, {"band": res.band, "ratio_min": float(res.ratios.min()),
                    "ratio_max": float(res.ratios.max())}, [path]


def _run_poincare(cfg: ExperimentConfig, out: Path):
    grid = _build_grid(cfg)
    radii = [float(r) for r in cfg.get("params", "radii")]
    k_cut = float(cfg.get("params", "k_cut"))
    rows = []
    worst = 0.0
    for i in range(cfg.get("params", "n_fields")):
        f = band_limited_noise(grid, np.random.default_rng(cfg.seed + i), k_cut)
        for chk in poincare_weighted_check(f, grid, radii):
            worst = max(worst, chk.ratio)
            rows.append((chk.r, chk.lhs, chk.rhs_grad, chk.rhs_moment,
                         chk.ratio))
    path = out / "poincare.csv"
    write_csv(path, ["r", "lhs", "rhs_grad", "rhs_moment", "ratio"], rows)
    cn = float(cfg.get("tolerances", "interp_C"))
    checks = {"ratio_below_C": {"status": "pass" if worst < cn else "fail",
                                "worst": worst, "tolerance": cn}}
    return checks, {"worst_ratio": worst}, [path]


def _run_hardy(cfg: ExperimentConfig, out: Path):
    s_values = [float(s) for s in cfg.get("params", "s_values")]
    rows = []
    prods = []
    for s in s_values:
        p = GaussianPacket(complex(s, 0.0), (0.0,))
        A = p.modulus_rate()
        B = free_flow_closed_form(p, 1.0).modulus_rate()
        oracle = 1.0 / (16.0 * (s ** 2 + 1.0))
        rows.append((s, A, B, A * B, oracle, 1.0 / 16.0))
        prods.append((A * B, oracle))
    path = out / "hardy.csv"
    write_csv(path, ["s", "A", "B", "AB", "oracle", "threshold"], rows)
    tol = float(cfg.get("tolerances", "slack_tol"))
    agree = all(abs(ab - orc) <= tol for ab, orc in prods)
    below = all(ab <= 1.0 / 16.0 + 1e-15 for ab, _ in prods)
    mono = all(prods[i][0] < prods[i + 1][0] for i in range(len(prods) - 1)
               if s_values[i] > s_values[i + 1])
    checks = {
        "product_matches_oracle": {"status": "pass" if agree else "fail",
                                   "tolerance": tol},
        "below_threshold": {"status": "pass" if below else "fail",
                            "tolerance": 1.0 / 16.0},
        "monotone_approach": {"status": "pass" if mono else "fail",
                              "tolerance": 0.0},
    }
    return checks, {"products": [p for p, _ in prods]}, [path]


def _run_lowerbound(cfg: ExperimentConfig, out: Path):
    _, traj = _propagate_from_config(cfg)
    radii, window, R0, E2 = (cfg.get("params", key)
                             for key in ("radii", "t_window", "R0", "E2"))
    prof = annulus_mass_profile(traj, np.asarray(radii, dtype=float),
                                tuple(window), R0=R0, E2=E2)
    rows = [(float(R), float(d), float(math.log(d)) if d > 0 else math.nan)
            for R, d in zip(prof.radii, prof.deltas)]
    path = out / "profile.csv"
    write_csv(path, ["R", "delta", "logdelta"], rows)
    res_tol = float(cfg.get("tolerances", "slack_tol"))
    ok = prof.preferred_p == 2 and prof.fits[2]["rel_residual"] < res_tol
    checks = {"quadratic_fit_preferred": {
        "status": "pass" if ok else "fail",
        "preferred_p": prof.preferred_p,
        "rel_residual": prof.fits.get(2, {}).get("rel_residual"),
        "tolerance": res_tol}}
    if not prof.hypothesis_met:
        checks["core_mass_hypothesis"] = {"status": "exploratory",
                                          "label": prof.label, "tolerance": 0.0}
    metrics = {"fits": prof.fits, "E1": prof.E1, "label": prof.label}
    return checks, metrics, [path]


def _run_gauge(cfg: ExperimentConfig, out: Path):
    fld = _build_field(cfg)
    if isinstance(fld, CoefficientField):
        fld = TransversalField(1, fld.entries[0][0], (), fld.potential)
    gr = gauge_reduce(fld, tuple(float(x) for x in cfg.get("params", "x1_range")),
                      cfg.get("params", "npts"))
    ys = np.linspace(gr.y1_grid[0] * 0.92, gr.y1_grid[-1] * 0.92, 257)
    rows = [(float(y), float(gr.x_of_y(y)), float(gr.psi(np.array([y]))[0]),
             float(gr.reduced_potential(np.array([y]))[0])) for y in ys]
    path = out / "gauge.csv"
    write_csv(path, ["y1", "x1", "psi", "V_reduced"], rows)
    err = verify_gauge_transport(gr, n_tests=cfg.get("params", "n_tests"),
                                 seed=cfg.seed)
    tol = float(cfg.get("tolerances", "slack_tol"))
    mono = bool(np.all(np.diff(gr.y1_grid) > 0))
    checks = {
        "transport_identity": {"status": "pass" if err < tol else "fail",
                               "max_rel_err": err, "tolerance": tol},
        "map_monotone": {"status": "pass" if mono else "fail", "tolerance": 0.0},
    }
    return checks, {"transport_max_rel_err": err}, [path]


# numeric guards that end a run: recorded as one failed check, not raised
_GUARD_ERRORS = (FrontierError, ResolutionError, SupportError, StabilityError,
                 BlowUpError, NonFiniteFieldError, BoundaryMassError,
                 AnnulusResolutionError, EllipticityError, GaugeError)

_RUNNERS = {
    "simulate": _run_simulate,
    "convexity": _run_convexity,
    "carleman-sweep": _run_carleman,
    "symbolic-verify": _run_symbolic,
    "subordination": _run_subordination,
    "poincare": _run_poincare,
    "hardy": _run_hardy,
    "lowerbound-fit": _run_lowerbound,
    "gauge-reduce": _run_gauge,
}


def run(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute the experiment, write its artifacts, and return the report.
    Deterministic for a fixed (config, seed).  A numeric guard error ends
    the run as one failed ``numeric_guard`` check."""
    out = cfg.output
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        checks, metrics, artifacts = _RUNNERS[cfg.kind](cfg, out)
    except _GUARD_ERRORS as exc:
        checks = {"numeric_guard": {"status": "fail",
                                    "error": type(exc).__name__,
                                    "message": str(exc)}}
        metrics, artifacts = {}, []
    wall = time.perf_counter() - t0
    report = ExperimentReport(
        config={"kind": cfg.kind, "seed": cfg.seed, "output": str(cfg.output),
                "sections": cfg.sections},
        kind=cfg.kind, checks=checks, metrics=metrics,
        artifacts=[str(a) for a in artifacts], wall_clock=wall)
    (out / "report.json").write_text(report.to_json())
    return report
