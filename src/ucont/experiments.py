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
from .carleman import SLACK_FLOOR, SweepConfig, _require_block, carleman_sweep
from .coefficients import CoefficientField, SamplingBox, TransversalField, \
    decay_smallness, gauge_reduce, transversal_smallness, verify_gauge_transport
from .diagnostics import INTERP_C, _in_window, annulus_mass_profile, \
    derivative_bound_check, logconvexity_check, weighted_norm
from .evolution import DissipationParams, GaussianPacket, WaveState, \
    mass, propagate, write_checkpoint
from .expressions import ExpressionError, SamplingError, parse_expression
from .grids import Grid, NumericGuardError, _is_pow2, band_limited_noise
from .operators import VARIANTS, WeightSpec, remainder_grouping_report, \
    verify_T_decomposition

# ---------------------------------------------------------------------------
# the config table: kind -> section -> key -> (accepted, default[, rule])
# ---------------------------------------------------------------------------
# ``accepted`` is a type, a tuple of types, or a tuple of valid choices; a
# ``list`` takes a JSON list of numbers.  A callable default is derived from
# the rest of the config.  A range rule ``(predicate, reason)`` holds for a
# given value, or for each entry of a given list; a list rule
# ``(predicate, reason, list)`` holds for a given list as a whole.

_NUM = (int, float)
_EXPR = (str, int, float)       # parsed by parse_expression
_POSITIVE = (lambda v: v > 0, "must be positive")
_POW2 = (lambda n: isinstance(n, int) and _is_pow2(n), "must be a power of two")
_SCALE = (lambda R: R >= 1, "the weighted-inequality scale requires R >= 1")
_NONEMPTY = (bool, "must not be empty", list)


def _matrix(prefix: str, m: int) -> dict:
    return {f"{prefix}{j}{k}": (_EXPR, "1" if j == k else "0")
            for j in range(1, m + 1) for k in range(j, m + 1)}


_EXPERIMENT = {"seed": (int, 0), "output": (str, lambda cfg: f"out/{cfg.kind}")}
_FIELD = {"dimension": (int, 1, (lambda d: 1 <= d <= 3,
                                  "fields have 1 to 3 dimensions")),
          "potential": (_EXPR, "0"), **_matrix("a", 3)}
_AXES = (lambda v: 1 <= len(v) <= 3, "a grid has 1 to 3 axes", list)
_GRID = {"extents": (list, [12.0], _POSITIVE, _AXES),
         "points": (list, [1024], _POW2, _AXES)}
_FLOW = {
    "experiment": _EXPERIMENT, "field": _FIELD, "grid": _GRID,
    "initial": {"s_re": (_NUM, 1.0, _POSITIVE), "s_im": (_NUM, 0.0),
                "amplitude": (_NUM, 1.0, (lambda v: v != 0, "must be nonzero")),
                "center": (list, lambda cfg: [0.0] * cfg.get("field", "dimension"))},
    "evolution": {"a": (_NUM, 0.0, (lambda a: a >= 0, "dissipation requires a >= 0")),
                  "b": (_NUM, 1.0), "steps": (int, 1024),
                  "frames": (int, 65, (lambda n: n >= 2, "a trajectory stores "
                                       "at least 2 frames")),
                  "t_end": (_NUM, 1.0, _POSITIVE)}}

_TABLE = {
    "simulate": {**_FLOW, "weight": {"beta": (_NUM, 0.0)}},
    "convexity": {
        **_FLOW,
        "weight": {"beta_values": (list, [0.1], _NONEMPTY)},
        "tolerances": {"boundary_budget": (_NUM, 1e-12)}},
    "carleman-sweep": {
        "experiment": _EXPERIMENT, "field": _FIELD,
        "grid": {**_GRID, "nt": (int, 64, _POW2)},
        "params": {"mode": (("annulus", "translated"), "annulus"),
                   "R_values": (list, [1.0, 1.5, 2.0], _SCALE, _NONEMPTY),
                   "n_samples": (int, 20, _POSITIVE),
                   "r0": (_NUM, 1.0, _POSITIVE), "c0": (_NUM, 4.0, _POSITIVE),
                   "space_width": (_NUM, 0.5),
                   "frontier_R_values": (list, [], _SCALE),
                   "frontier_probes": (int, 8, _POSITIVE)}},
    "symbolic-verify": {
        "experiment": _EXPERIMENT, "field": _FIELD,
        "weight": {"variant": (VARIANTS, "quadratic"), "alpha": (_NUM, 2),
                   "beta": (_NUM, None, (lambda b: b >= 0,
                                         "the weight requires beta >= 0")),
                   "R": (_NUM, None, _SCALE)}},  # None: symbolic
    "subordination": {
        "experiment": _EXPERIMENT,
        "params": {"p": (_NUM, 1.5, (lambda p: 1 < p < 2, "must lie in (1, 2)")),
                   "kappa": (_NUM, 10.0, _POSITIVE),
                   "lambda0": (_NUM, 1.0, _POSITIVE),
                   "r_values": (list, [float(r) for r in np.logspace(-1, 1, 20)],
                                _POSITIVE, _NONEMPTY)}},
    "poincare": {
        "experiment": _EXPERIMENT, "grid": _GRID,
        "params": {"radii": (list, [0.5, 1.0, 2.0], _POSITIVE, _NONEMPTY),
                   "n_fields": (int, 200, _POSITIVE),
                   "k_cut": (_NUM, 6.0, _POSITIVE)}},
    "hardy": {
        "experiment": _EXPERIMENT,
        "params": {"s_values": (list, [1.0, 0.5, 0.1, 0.01], _POSITIVE,
                                _NONEMPTY)}},
    "lowerbound-fit": {
        **_FLOW,
        "params": {"radii": (list, [float(r) for r in np.linspace(2, 6, 9)]),
                   "t_window": (list, [0.125, 0.875]),
                   "R0": (_NUM, None), "E2": (_NUM, None)}},
    "gauge-reduce": {
        "experiment": _EXPERIMENT, "field": _FIELD,
        "params": {"x1_range": (list, [-10.0, 10.0], (
                       lambda v: len(v) == 2 and v[0] < v[1],
                       "expected [start, end] with start < end", list)),
                   "npts": (int, 4001, (lambda n: n >= 2,
                                        "the map needs at least 2 points")),
                   "n_tests": (int, 10, _POSITIVE)}},
}
KINDS = tuple(_TABLE)


def _field_keys(dim: int) -> set[str]:
    """The [field] keys a ``dim``-dimensional field reads."""
    return {"dimension", "potential", *_matrix("a", dim)}


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


def _entry_errors(name: str, entry: tuple, value) -> list[str]:
    """What the table entry ``(accepted, default, *rules)`` finds wrong with
    the given ``value`` of key ``name``: its type, its expression or its
    rules, a range rule checked on each entry of a list."""
    accepted, _, *rules = entry
    if not _accepts(accepted, value):
        return [f"{name} = {value!r}: expected {_expected(accepted)}"]
    if accepted is _EXPR and isinstance(value, str):
        try:
            parse_expression(value)
        except ExpressionError as exc:
            return [f"{name}: {exc}"]
    errors = []
    for holds, reason, *whole in rules:
        if isinstance(value, list) and not whole:
            errors += [f"{name} contains {v}: {reason}" for v in value if not holds(v)]
        elif not holds(value):
            errors.append(f"{name} = {value}: {reason}")
    return errors


class ConfigError(ValueError):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass
class ExperimentConfig:
    kind: str
    sections: dict            # section -> {key: typed value}, as written

    def get(self, section: str, key: str):
        """The config's value of ``key``, else the kind's table default,
        else None for a key the kind does not read."""
        if key in self.sections.get(section, {}):
            return self.sections[section][key]
        value = _TABLE[self.kind].get(section, {}).get(key, (None, None))[1]
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
    rejected = {}       # (section, key) -> the errors of its given value
    for sec, values in sections.items():
        if sec not in table:
            errors.append(f"section [{sec}] is not read by kind {kind!r}")
        for key, value in values.items():
            if sec == "experiment" and key == "kind":
                continue
            if key not in table.get(sec, {}):
                errors.append(f"key {key!r} in section [{sec}] is not read by "
                              f"kind {kind!r}")
            else:
                rejected[sec, key] = _entry_errors(f"{sec}.{key}",
                                                   table[sec][key], value)
                errors += rejected[sec, key]

    def good(sec: str, *keys: str) -> bool:
        """The kind reads these keys and their values pass their entries;
        a cross-key rule is checked only on such values."""
        return all(key in table.get(sec, {}) and not rejected.get((sec, key))
                   for key in keys)
    cfg = ExperimentConfig(kind, sections)
    fs = sections.get("field", {})
    dim = cfg.get("field", "dimension")
    if good("field", "dimension"):
        errors += [f"key {key!r} in section [field] is not read by a {dim}-D field"
                   for key in sorted((fs.keys() & _FIELD.keys()) - _field_keys(dim))]
    alpha = cfg.get("weight", "alpha")
    if good("weight", "variant", "alpha") and alpha <= 1 \
            and cfg.get("weight", "variant") == "power":
        errors.append(f"weight.alpha = {alpha}: the power weight requires "
                      f"alpha > 1")
    steps, frames = (cfg.get("evolution", key) for key in ("steps", "frames"))
    if good("evolution", "steps", "frames") and (steps <= 0 or steps % (frames - 1)):
        errors.append(f"evolution.steps = {steps}: not a positive multiple "
                      f"of evolution.frames - 1 = {frames - 1}")
    window, t_end = cfg.get("params", "t_window"), cfg.get("evolution", "t_end")
    if good("params", "t_window") and len(window) != 2:
        errors.append(f"params.t_window = {window}: expected [start, end]")
    elif good("params", "t_window") and good("evolution", "t_end", "frames"):
        inside = np.sum(_in_window(np.linspace(0.0, float(t_end), frames), window))
        if inside < 2:
            errors.append(f"params.t_window = {window} holds {inside} of the "
                          f"{frames} frame times; the fit needs 2")
    R0, E2 = cfg.get("params", "R0"), cfg.get("params", "E2")
    if good("params", "R0", "E2") and (R0 is None) != (E2 is None):
        errors.append("params.R0 and params.E2: set both or neither")
    p, kappa, lambda0 = (cfg.get("params", key) for key in ("p", "kappa", "lambda0"))
    if good("params", "p", "kappa", "lambda0") \
            and not SubordinationCase(p, kappa, lambda0, ()).admissible:
        errors.append(f"params.kappa = {kappa}: inadmissible for p = {p} and "
                      f"lambda0 = {lambda0}; the subordination needs "
                      f"kappa > 2 lambda0 (2/(q-2))^(1/q)")
    a, b = cfg.get("evolution", "a"), cfg.get("evolution", "b")
    if good("evolution", "a", "b") and a == b == 0:
        errors.append("evolution.a = evolution.b = 0: the flow needs "
                      "a^2 + b^2 > 0")
    if good("initial", "center") and good("field", "dimension") \
            and len(cfg.get("initial", "center")) != dim:
        errors.append(f"initial.center = {cfg.get('initial', 'center')}: "
                      f"needs one entry per field dimension ({dim})")
    # the field itself: entries on its own variables and, for a translated
    # sweep or a gauge reduction, the block form diag(a11(x1), Atilde(x'))
    if "field" in sections and good("field", "dimension", *fs):
        try:
            fld = _build_field(cfg)
            if kind == "carleman-sweep" and good("params", "mode") \
                    and cfg.get("params", "mode") == "translated":
                _require_block(fld)
        except ValueError as exc:
            errors.append(f"[field]: {exc}")
        else:
            if kind == "gauge-reduce" and TransversalField.of(fld) is None:
                errors.append("[field]: gauge-reduce needs block form "
                              "diag(a11(x1), Atilde(x'))")
    extents, points = cfg.get("grid", "extents"), cfg.get("grid", "points")
    if good("grid", "extents", "points") and len(extents) != len(points):
        errors.append(f"len(grid.extents) = {len(extents)} differs from "
                      f"len(grid.points) = {len(points)}")
    # a carleman-sweep without [field] builds its field from the grid
    elif good("grid", "extents", "points") and good("field", "dimension") \
            and dim != len(extents) \
            and (kind != "carleman-sweep" or "field" in sections):
        errors.append(f"field.dimension = {dim} differs from "
                      f"len(grid.extents) = {len(extents)}")
    if good("grid", "extents") and good("params", "radii") and extents:
        radii, edge = cfg.get("params", "radii"), min(extents)
        if kind == "poincare":
            errors += [f"params.radii contains {v}: the ball B_2r exceeds "
                       f"min(grid.extents) / 2 = {edge / 2}"
                       for v in radii if 2 * v > edge]
        else:
            errors += [f"params.radii contains {v}: the annulus exceeds "
                       f"min(grid.extents) = {edge}" for v in radii if v > edge]
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

def _check(ok: bool, tolerance, **values) -> dict:
    """One asserted check of a report: its status, its tolerance and the
    values it compared."""
    return {"status": "pass" if ok else "fail", "tolerance": tolerance, **values}


def _guard_failure(exc: Exception) -> dict:
    """The failed check a guard error leaves: its class and message."""
    return {"status": "fail", "error": type(exc).__name__, "message": str(exc)}


def _build_field(cfg: ExperimentConfig) -> CoefficientField:
    dim = cfg.get("field", "dimension")

    def expr(key: str):
        return parse_expression(str(cfg.get("field", key)))
    # the symmetric table from the keys a11, a12, ...
    return CoefficientField(dim, tuple(
        tuple(expr(f"a{min(k, j) + 1}{max(k, j) + 1}") for j in range(dim))
        for k in range(dim)), expr("potential"))


def _build_grid(cfg: ExperimentConfig) -> Grid:
    return Grid(tuple(float(e) for e in cfg.get("grid", "extents")),
                tuple(int(p) for p in cfg.get("grid", "points")))


def _propagate_from_config(cfg: ExperimentConfig):
    fld = _build_field(cfg)
    grid = _build_grid(cfg)

    def num(section: str, key: str) -> float:
        return float(cfg.get(section, key))
    packet = GaussianPacket(
        complex(num("initial", "s_re"), num("initial", "s_im")),
        tuple(float(c) for c in cfg.get("initial", "center")),
        complex(num("initial", "amplitude")))
    d = DissipationParams(num("evolution", "a"), num("evolution", "b"))
    traj = propagate(WaveState(0.0, packet.sample(grid), grid), fld, d,
                     (0.0, num("evolution", "t_end")),
                     cfg.get("evolution", "steps"), cfg.get("evolution", "frames"))
    return fld, traj


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
    checks = {"H_finite": _check(n_inf == 0, 0, non_finite=n_inf)}
    if float(cfg.get("evolution", "a")) == 0.0:
        checks["mass_conservation"] = _check(drift < 1e-7, 1e-7, value=drift)
    else:
        mono = all(rows[i + 1][1] <= rows[i][1] * (1 + 1e-12)
                   for i in range(len(rows) - 1))
        checks["dissipation_monotone"] = _check(mono, 1e-12)
    return checks, {"mass_drift": drift}, [csv_path, ckpt]


def _run_convexity(cfg: ExperimentConfig, out: Path):
    fld, traj = _propagate_from_config(cfg)
    betas = cfg.get("weight", "beta_values")
    budget = float(cfg.get("tolerances", "boundary_budget"))
    box = SamplingBox.cube(traj.grid.dim, min(traj.grid.extents), 33)
    M1 = fld.m1_norm(box)
    checks, metrics, artifacts = {}, {}, []
    for beta in betas:
        tr = logconvexity_check(traj, float(beta), M1, boundary_budget=budget)
        d2 = tr.d2_logH()
        rows = [(float(t), tr.H[i], math.log(tr.H[i]),
                 float(d2[i - 1]) if 0 < i < len(tr.times) - 1 else math.nan)
                for i, t in enumerate(tr.times)]
        path = out / f"convexity_beta{beta}.csv"
        write_csv(path, ["t", "H", "logH", "d2logH"], rows)
        artifacts.append(path)
        tag = f"beta={beta}"
        checks[f"interp_bound[{tag}]"] = _check(
            not tr.violation, INTERP_C, max_ratio_C1=tr.max_interp_ratio_c1,
            C=INTERP_C)
        checks[f"d2_logH_floor[{tag}]"] = _check(
            tr.min_d2_logH >= -1e-3, -1e-3, min_d2=tr.min_d2_logH)
        metrics[f"max_interp_ratio_C1[{tag}]"] = tr.max_interp_ratio_c1
        metrics[f"min_d2_logH[{tag}]"] = tr.min_d2_logH
    metrics["M1"] = M1
    metrics["derivative_bound_ratio"] = derivative_bound_check(
        traj, float(betas[0]), M1, strict=False)
    return checks, metrics, artifacts


def _run_carleman(cfg: ExperimentConfig, out: Path):
    grid = _build_grid(cfg)
    fld = _build_field(cfg) if "field" in cfg.sections \
        else CoefficientField.identity(grid.dim)
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
    checks = {"inequality_at_threshold": _check(
        not sweep.failures, SLACK_FLOOR, min_slack=sweep.min_slack)}
    metrics = {"min_slack": sweep.min_slack, "n_failures": len(sweep.failures)}
    # the smallness of the sweep's own hypothesis, in the report only
    box = SamplingBox.cube(fld.dim, min(grid.extents), 65)
    if params["mode"] == "annulus":
        metrics["decay_smallness"] = decay_smallness(fld, box)
    else:
        metrics["transversal_smallness"] = transversal_smallness(fld, box)
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
    variant, alpha = cfg.get("weight", "variant"), cfg.get("weight", "alpha")

    def param(key: str) -> float | sp.Expr:
        """The config number, which the check takes exactly; absent, a
        symbol."""
        value = cfg.get("weight", key)
        return sp.Symbol(key, positive=True) if value is None else value
    w = WeightSpec(variant, param("beta"), alpha=param("alpha"), R=param("R"))
    rep = verify_T_decomposition(fld, w)
    rows = [(label, rep.residual_max[label], rep.residual_exprs[label] or "0")
            for label in sorted(rep.residual_max)]
    path = out / "residuals.csv"
    write_csv(path, ["grade", "residual_max", "residual_expr"], rows)
    checks = {
        "t_decomposition": _check(rep.identically_zero, 0.0,
                                  residuals=rep.residual_max),
        "order_collapse": _check(rep.commutator_spatial_order <= 2, 2,
                                 order=rep.commutator_spatial_order)}
    metrics = {"residual_max": rep.residual_max}
    try:
        metrics.update(remainder_grouping_report(
            fld, WeightSpec(variant, 1.0, alpha=alpha, R=2.0),
            SamplingBox.cube(fld.dim, 4.0, 9)))
    except SamplingError as exc:
        checks["remainder_grouping"] = _guard_failure(exc)
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
    mono = bool(np.all(np.diff(res.log_integrals) > 0))
    checks = {"ratio_band": _check(res.band < 1.25, 1.25, band=res.band),
              "integral_monotone": _check(mono, 0.0)}
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
    checks = {"ratio_below_C": _check(worst < 2.0, 2.0, worst=worst)}
    return checks, {"worst_ratio": worst}, [path]


def _run_hardy(cfg: ExperimentConfig, out: Path):
    s_values = [float(s) for s in cfg.get("params", "s_values")]
    rows = []
    prods = []
    for s in s_values:
        p = GaussianPacket(complex(s, 0.0), (0.0,))
        A = p.modulus_rate()
        B = p.flow(1j, 1.0).modulus_rate()
        oracle = 1.0 / (16.0 * (s ** 2 + 1.0))
        rows.append((s, A, B, A * B, oracle, 1.0 / 16.0))
        prods.append((A * B, oracle))
    path = out / "hardy.csv"
    write_csv(path, ["s", "A", "B", "AB", "oracle", "threshold"], rows)
    agree = all(abs(ab - orc) <= 1e-8 for ab, orc in prods)
    below = all(ab <= 1.0 / 16.0 + 1e-15 for ab, _ in prods)
    mono = all(prods[i][0] < prods[i + 1][0] for i in range(len(prods) - 1)
               if s_values[i] > s_values[i + 1])
    checks = {"product_matches_oracle": _check(agree, 1e-8),
              "below_threshold": _check(below, 1.0 / 16.0),
              "monotone_approach": _check(mono, 0.0)}
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
    ok = prof.preferred_p == 2 and prof.fits[2]["rel_residual"] < 0.05
    checks = {"quadratic_fit_preferred": _check(
        ok, 0.05, preferred_p=prof.preferred_p,
        rel_residual=prof.fits.get(2, {}).get("rel_residual"))}
    if not prof.hypothesis_met:
        checks["core_mass_hypothesis"] = {
            "status": "exploratory", "label": prof.label,
            "tolerance": float(E2) ** 2, "core_mass": prof.core_mass}
    metrics = {"fits": prof.fits, "E1": prof.E1, "label": prof.label}
    return checks, metrics, [path]


def _run_gauge(cfg: ExperimentConfig, out: Path):
    x1_range = tuple(float(x) for x in cfg.get("params", "x1_range"))
    gr = gauge_reduce(_build_field(cfg), x1_range, cfg.get("params", "npts"))
    ys = np.linspace(gr.y1_grid[0] * 0.92, gr.y1_grid[-1] * 0.92, 257)
    rows = zip(ys, gr.x_of_y(ys), gr.psi(ys), gr.reduced_potential(ys))
    path = out / "gauge.csv"
    write_csv(path, ["y1", "x1", "psi", "V_reduced"], rows)
    err = verify_gauge_transport(gr, n_tests=cfg.get("params", "n_tests"),
                                 seed=cfg.seed)
    checks = {"transport_identity": _check(err < 1e-6, 1e-6, max_rel_err=err)}
    return checks, {"transport_max_rel_err": err}, [path]


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
    except NumericGuardError as exc:
        checks, metrics, artifacts = {"numeric_guard": _guard_failure(exc)}, {}, []
    wall = time.perf_counter() - t0
    report = ExperimentReport(
        config={"kind": cfg.kind, "seed": cfg.seed, "output": str(cfg.output),
                "sections": cfg.sections},
        kind=cfg.kind, checks=checks, metrics=metrics,
        artifacts=[str(a) for a in artifacts], wall_clock=wall)
    (out / "report.json").write_text(report.to_json())
    return report
