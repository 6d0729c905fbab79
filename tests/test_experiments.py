import ast
import csv
import importlib
import itertools
import json
import math
import pkgutil
from pathlib import Path

import pytest

import ucont
from ucont import experiments
from ucont.carleman import SweepConfig, carleman_sweep
from ucont.cli import main as cli_main
from ucont.coefficients import CoefficientField, SamplingBox, \
    TransversalField, decay_smallness, transversal_smallness
from ucont.experiments import KINDS, ConfigError, ExperimentConfig, \
    load_config, run, validate
from ucont.expressions import const, parse_expression as pe
from ucont.grids import NumericGuardError

CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.cfg"))

MINIMAL_SIMULATE = """
[experiment]
kind = simulate
seed = 5
output = {out}

[field]
dimension = 1

[grid]
extents = [12.0]
points = [512]

[initial]
s_re = 1.0

[evolution]
a = 0.0
b = 1.0
steps = 32
frames = 5
"""


def test_empty_config_names_missing_kind():
    with pytest.raises(ConfigError) as err:
        validate("")
    assert any("kind" in e for e in err.value.errors)


def test_unknown_key_named():
    with pytest.raises(ConfigError) as err:
        validate("[experiment]\nkind = hardy\nbogus = 1\n")
    assert any("bogus" in e for e in err.value.errors)


def test_unknown_section_named():
    with pytest.raises(ConfigError) as err:
        validate("[experiment]\nkind = hardy\n\n[mystery]\nx = 1\n")
    assert any("mystery" in e for e in err.value.errors)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        validate("[experiment]\nkind = frobnicate\n")


def test_carleman_R_below_one_cites_constraint():
    text = ("[experiment]\nkind = carleman-sweep\n\n"
            "[params]\nmode = \"annulus\"\nR_values = [0.5, 1.0]\n")
    with pytest.raises(ConfigError) as err:
        validate(text)
    assert any("R >= 1" in e for e in err.value.errors)


def test_bad_expression_reported_with_field():
    text = ("[experiment]\nkind = simulate\n\n[field]\ndimension = 1\n"
            "a11 = 1 + * x1\n")
    with pytest.raises(ConfigError) as err:
        validate(text)
    assert any("field.a11" in e for e in err.value.errors)


def test_non_pow2_points_rejected():
    text = ("[experiment]\nkind = simulate\n\n[grid]\npoints = [300]\n")
    with pytest.raises(ConfigError, match="power of two"):
        validate(text)


def test_minimal_config_normalizes_with_defaults(tmp_path):
    cfg = validate(MINIMAL_SIMULATE.format(out=tmp_path / "o"))
    assert cfg.kind == "simulate"
    assert cfg.seed == 5
    assert cfg.get("evolution", "b") == 1.0
    assert cfg.get("initial", "s_im") == 0.0
    assert cfg.get("params", "mode") is None


def test_run_simulate_writes_artifacts(tmp_path):
    cfg = validate(MINIMAL_SIMULATE.format(out=tmp_path / "o"))
    report = run(cfg)
    assert not report.failed
    assert (tmp_path / "o" / "trajectory.csv").exists()
    assert (tmp_path / "o" / "trajectory.uctj").exists()
    payload = json.loads((tmp_path / "o" / "report.json").read_text())
    assert payload["kind"] == "simulate"
    assert payload["checks"]["mass_conservation"]["status"] == "pass"
    assert "tolerance" in payload["checks"]["mass_conservation"]
    header = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,mass,H"


def test_run_simulate_checks_dissipation_for_a_positive(tmp_path):
    # with a > 0 the mass decays, and the report checks that it never grows
    cfg = validate(MINIMAL_SIMULATE.format(out=tmp_path / "o")
                   .replace("a = 0.0", "a = 0.5"))
    report = run(cfg)
    assert report.checks["dissipation_monotone"]["status"] == "pass"
    assert "mass_conservation" not in report.checks
    masses = [float(line.split(",")[1]) for line in
              (tmp_path / "o" / "trajectory.csv").read_text().splitlines()[1:]]
    assert masses[-1] < masses[0]


def test_rerun_same_seed_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(validate(MINIMAL_SIMULATE.format(out=out1)))
    run(validate(MINIMAL_SIMULATE.format(out=out2)))
    assert (out1 / "trajectory.csv").read_bytes() == \
        (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "trajectory.uctj").read_bytes() == \
        (out2 / "trajectory.uctj").read_bytes()


def test_cli_validate_and_exit_codes(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text(MINIMAL_SIMULATE.format(out=tmp_path / "o"))
    assert cli_main(["validate", str(path)]) == 0
    echo = json.loads(capsys.readouterr().out)
    assert echo["kind"] == "simulate"

    bad = tmp_path / "bad.cfg"
    bad.write_text("[experiment]\nkind = nope\n")
    assert cli_main(["validate", str(bad)]) == 2
    assert cli_main(["run", str(bad)]) == 2
    assert cli_main(["list-kinds"]) == 0
    kinds = capsys.readouterr().out.split()
    assert "carleman-sweep" in kinds and len(kinds) == 9


def test_cli_run_exit_zero_on_pass(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(MINIMAL_SIMULATE.format(out=tmp_path / "o"))
    assert cli_main(["run", str(path)]) == 0


def test_cli_run_exit_one_on_failed_check(tmp_path):
    # a lower-bound fit on heat flow prefers no quadratic decay in R on this
    # tiny configuration, forcing the asserted check to fail
    text = """
[experiment]
kind = lowerbound-fit
seed = 1
output = {out}

[field]
dimension = 1

[grid]
extents = [12.0]
points = [512]

[initial]
s_re = 0.2

[evolution]
a = 1.0
b = 0.0
steps = 32
frames = 17

[params]
radii = [2.0, 3.0, 4.0]
t_window = [0.125, 0.875]
""".format(out=tmp_path / "o")
    path = tmp_path / "c.cfg"
    path.write_text(text)
    code = cli_main(["run", str(path)])
    payload = json.loads((tmp_path / "o" / "report.json").read_text())
    status = payload["checks"]["quadratic_fit_preferred"]["status"]
    assert (code == 1) == (status == "fail")


def test_symbolic_verify_translated_writes_report(tmp_path):
    # the remainder grouping samples the abstract time profile through its
    # stand-in, so the translated weight runs to a finite constant
    text = """
[experiment]
kind = symbolic-verify
output = {out}

[field]
dimension = 1

[weight]
variant = "translated"
""".format(out=tmp_path / "o")
    report = run(validate(text))
    payload = json.loads((tmp_path / "o" / "report.json").read_text())
    assert payload["checks"]["t_decomposition"]["status"] == "pass"
    assert not report.failed
    for key in ("order1_containment_C", "majorant_sup", "remainder_sup"):
        assert math.isfinite(payload["metrics"][key])


@pytest.mark.parametrize("value", ["two", "0"])
def test_cli_run_rejects_bad_thread_count(tmp_path, monkeypatch, capsys, value):
    path = tmp_path / "c.cfg"
    path.write_text(MINIMAL_SIMULATE.format(out=tmp_path / "o"))
    monkeypatch.setenv("UCONT_THREADS", value)
    assert cli_main(["run", str(path)]) == 2
    assert "UCONT_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_sample_config_runs(path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_main(["run", str(path)]) == 0
    out = tmp_path / load_config(path).output
    payload = json.loads((out / "report.json").read_text())
    if path.name == "carleman_cubic.cfg":
        with open(out / "frontier.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(
            payload["config"]["sections"]["params"]["frontier_R_values"])
        assert abs(payload["metrics"]["frontier_exponent"] - 3.0) <= 0.2


# one config a kind's table rejects, with the keys its errors must name
REJECTED = {
    "poincare-unread-keys": ("""
[experiment]
kind = poincare
[grid]
extents = [4.0, 4.0]
points = [64, 64]
nt = 32
[params]
n_fields = 2
r_values = [1.0]
gamma = 1.0
M1 = 0.5
[tolerances]
boundary_budget = 1e-6
""", ["'nt'", "'r_values'", "'gamma'", "'M1'", "'boundary_budget'"]),
    "carleman-n_samples-type": ("""
[experiment]
kind = carleman-sweep
[params]
n_samples = "ten"
""", ["n_samples", "integer"]),
    "carleman-mode-choice": ("""
[experiment]
kind = carleman-sweep
[params]
mode = "radial"
""", ["mode", "'annulus', 'translated'"]),
    # the sides' constants are fixed: lambda^-2 radial, 1 translated
    "carleman-C1-unread": ("""
[experiment]
kind = carleman-sweep
[params]
C1 = 2.0
""", ["'C1'", "not read"]),
    "carleman-constant-unread": ("""
[experiment]
kind = carleman-sweep
[params]
constant = 2.0
""", ["'constant'", "not read"]),
    "simulate-entry-beyond-dimension": ("""
[experiment]
kind = simulate
[field]
dimension = 1
a22 = 2
""", ["'a22'", "1-D"]),
    "scalar-extents": ("""
[experiment]
kind = poincare
[grid]
extents = 4.0
""", ["grid.extents", "list"]),
    "variant-choice": ("""
[experiment]
kind = symbolic-verify
[weight]
variant = "cubic"
""", ["weight.variant", "'quadratic'"]),
    "power-alpha-at-most-one": ("""
[experiment]
kind = symbolic-verify
[weight]
variant = "power"
alpha = 0.5
""", ["weight.alpha = 0.5", "alpha > 1"]),
    "field-dimension-differs-from-grid": ("""
[experiment]
kind = simulate
[field]
dimension = 2
[grid]
extents = [12.0]
points = [256]
""", ["field.dimension = 2", "len(grid.extents) = 1"]),
    "extents-points-lengths": ("""
[experiment]
kind = poincare
[grid]
extents = [4.0, 4.0]
points = [64]
""", ["len(grid.extents) = 2", "len(grid.points) = 1"]),
    "frontier-R-below-one": ("""
[experiment]
kind = carleman-sweep
[params]
frontier_R_values = [0.5, 2.0]
""", ["frontier_R_values contains 0.5", "R >= 1"]),
    "empty-beta-values": ("""
[experiment]
kind = convexity
[weight]
beta_values = []
""", ["weight.beta_values"]),
    "gauge-non-transversal-2d": ("""
[experiment]
kind = gauge-reduce
[field]
dimension = 2
a12 = 0.3
a22 = 5
""", ["[field]", "gauge-reduce needs block form"]),
    "symbolic-beta-nan": ("""
[experiment]
kind = symbolic-verify
[weight]
beta = NaN
""", ["weight.beta = nan", "finite number"]),
    "symbolic-beta-negative": ("""
[experiment]
kind = symbolic-verify
[weight]
beta = -0.5
""", ["weight.beta = -0.5", "beta >= 0"]),
    "simulate-t_end-infinity": ("""
[experiment]
kind = simulate
[evolution]
t_end = Infinity
""", ["evolution.t_end = inf", "finite number"]),
    "field-entry-nan": ("""
[experiment]
kind = simulate
[field]
a11 = NaN
""", ["field.a11 = nan", "finite number"]),
    "extents-entry-minus-infinity": ("""
[experiment]
kind = poincare
[grid]
extents = [4.0, -Infinity]
points = [64, 64]
""", ["grid.extents = [4.0, -inf]", "finite numbers"]),
    "simulate-steps-not-multiple": ("""
[experiment]
kind = simulate
[evolution]
steps = 100
frames = 65
""", ["evolution.steps = 100", "evolution.frames - 1 = 64"]),
    "simulate-steps-zero": ("""
[experiment]
kind = simulate
[evolution]
steps = 0
frames = 2
""", ["evolution.steps = 0", "positive multiple"]),
    "convexity-one-frame": ("""
[experiment]
kind = convexity
[evolution]
frames = 1
""", ["evolution.frames = 1", "at least 2"]),
    "lowerbound-fit-steps-not-multiple": ("""
[experiment]
kind = lowerbound-fit
[evolution]
steps = 64
frames = 6
""", ["evolution.steps = 64", "evolution.frames - 1 = 5"]),
    "poincare-radius-zero": ("""
[experiment]
kind = poincare
[params]
radii = [0.0, 1.0]
""", ["params.radii contains 0.0", "positive"]),
    "poincare-radius-beyond-grid": ("""
[experiment]
kind = poincare
[grid]
extents = [4.0, 4.0]
points = [64, 64]
[params]
radii = [1.0, 2.5]
""", ["params.radii contains 2.5", "min(grid.extents) / 2 = 2.0"]),
    "subordination-r-negative": ("""
[experiment]
kind = subordination
[params]
r_values = [-1.0, 1.0]
""", ["params.r_values contains -1.0", "positive"]),
    "subordination-p-outside": ("""
[experiment]
kind = subordination
[params]
p = 2.0
""", ["params.p = 2.0", "(1, 2)"]),
    "subordination-kappa-zero": ("""
[experiment]
kind = subordination
[params]
kappa = 0.0
""", ["params.kappa = 0.0", "positive"]),
    "subordination-lambda0-negative": ("""
[experiment]
kind = subordination
[params]
lambda0 = -1.0
""", ["params.lambda0 = -1.0", "positive"]),
    "hardy-s-zero": ("""
[experiment]
kind = hardy
[params]
s_values = [1.0, 0.0]
""", ["params.s_values contains 0.0", "positive"]),
    "lowerbound-fit-radius-beyond-grid": ("""
[experiment]
kind = lowerbound-fit
[grid]
extents = [4.0]
points = [256]
[params]
radii = [2.0, 5.0]
""", ["params.radii contains 5.0", "min(grid.extents) = 4.0"]),
    "poincare-extent-negative": ("""
[experiment]
kind = poincare
[grid]
extents = [-4.0, 4.0]
points = [64, 64]
""", ["grid.extents contains -4.0", "positive"]),
    "simulate-s_re-zero": ("""
[experiment]
kind = simulate
[initial]
s_re = 0.0
""", ["initial.s_re = 0.0", "positive"]),
    "simulate-a-negative": ("""
[experiment]
kind = simulate
[evolution]
a = -1.0
""", ["evolution.a = -1.0", "a >= 0"]),
    "carleman-nt-not-pow2": ("""
[experiment]
kind = carleman-sweep
[grid]
nt = 48
""", ["grid.nt = 48", "power of two"]),
    # q = 3: kappa must exceed 2 lambda0 2^(1/3) = 2.52
    "subordination-kappa-inadmissible": ("""
[experiment]
kind = subordination
[params]
kappa = 1.0
""", ["params.kappa = 1.0", "inadmissible"]),
    # the frame times are i/16: the window [0.5, 0.5] holds only t = 0.5
    "lowerbound-fit-window-one-frame": ("""
[experiment]
kind = lowerbound-fit
[evolution]
steps = 256
frames = 17
[params]
t_window = [0.5, 0.5]
""", ["params.t_window = [0.5, 0.5]", "1 of the 17 frame times"]),
    "lowerbound-fit-window-three-entries": ("""
[experiment]
kind = lowerbound-fit
[params]
t_window = [0.125, 0.5, 0.875]
""", ["params.t_window = [0.125, 0.5, 0.875]", "expected [start, end]"]),
    # one key of the pair skipped the core-mass hypothesis, and the report
    # still read label "ok"
    "lowerbound-fit-R0-without-E2": ("""
[experiment]
kind = lowerbound-fit
[grid]
extents = [12.0]
points = [512]
[evolution]
steps = 32
frames = 17
[params]
radii = [2.0, 3.0, 4.0]
R0 = 0.5
""", ["params.R0 and params.E2", "set both or neither"]),
    # checks that would pass on no data
    "carleman-R-values-empty": ("""
[experiment]
kind = carleman-sweep
[grid]
extents = [8.0]
points = [256]
nt = 32
[params]
R_values = []
""", ["params.R_values = []", "must not be empty"]),
    "carleman-n_samples-zero": ("""
[experiment]
kind = carleman-sweep
[grid]
extents = [8.0]
points = [256]
nt = 32
[params]
R_values = [1.0]
n_samples = 0
""", ["params.n_samples = 0", "positive"]),
    "hardy-s-values-empty": ("""
[experiment]
kind = hardy
[params]
s_values = []
""", ["params.s_values = []", "must not be empty"]),
    "poincare-n_fields-zero": ("""
[experiment]
kind = poincare
[grid]
extents = [4.0, 4.0]
points = [32, 32]
[params]
n_fields = 0
""", ["params.n_fields = 0", "positive"]),
    "poincare-radii-empty": ("""
[experiment]
kind = poincare
[grid]
extents = [4.0, 4.0]
points = [32, 32]
[params]
radii = []
n_fields = 2
""", ["params.radii = []", "must not be empty"]),
    "subordination-r-values-empty": ("""
[experiment]
kind = subordination
[params]
r_values = []
""", ["params.r_values = []", "must not be empty"]),
    # values the runners cannot use
    "gauge-x1-range-one-entry": ("""
[experiment]
kind = gauge-reduce
[field]
dimension = 1
a11 = 1 + 0.5*exp(-x1^2)
[params]
x1_range = [10.0]
""", ["params.x1_range = [10.0]", "[start, end]"]),
    "gauge-npts-one": ("""
[experiment]
kind = gauge-reduce
[field]
dimension = 1
a11 = 1 + 0.5*exp(-x1^2)
[params]
npts = 1
""", ["'npts'", "not read"]),
    "poincare-grid-without-axes": ("""
[experiment]
kind = poincare
[grid]
extents = []
points = []
""", ["grid.extents = []", "grid.points = []", "1 to 3 axes"]),
    "simulate-a-b-zero": ("""
[experiment]
kind = simulate
[grid]
extents = [12.0]
points = [256]
[evolution]
a = 0.0
b = 0.0
steps = 32
frames = 5
""", ["evolution.a = evolution.b = 0", "a^2 + b^2"]),
    # t_end = 0 rescaled time by 0/0, so the interpolation ratio read NaN
    # and its check passed
    "convexity-t_end-zero": ("""
[experiment]
kind = convexity
[grid]
extents = [11.25]
points = [1024]
[initial]
s_re = 0.5
s_im = -0.5
[evolution]
steps = 64
frames = 65
t_end = 0
[weight]
beta_values = [0.05, 0.1]
""", ["evolution.t_end = 0", "must be positive"]),
    # a zero packet divided by zero (simulate's mass drift) or took log 0
    # (convexity's log H)
    "simulate-amplitude-zero": ("""
[experiment]
kind = simulate
[grid]
extents = [12.0]
points = [256]
[initial]
amplitude = 0
[evolution]
steps = 32
frames = 5
""", ["initial.amplitude = 0", "must be nonzero"]),
    "convexity-amplitude-zero": ("""
[experiment]
kind = convexity
[grid]
extents = [11.25]
points = [1024]
[initial]
amplitude = 0.0
[evolution]
steps = 64
frames = 65
""", ["initial.amplitude = 0.0", "must be nonzero"]),
    # a 1-D packet has no centre (0, 1)
    "simulate-center-longer-than-field": ("""
[experiment]
kind = simulate
[grid]
extents = [12.0]
points = [256]
[initial]
center = [0.0, 1.0]
[evolution]
steps = 32
frames = 5
""", ["initial.center = [0.0, 1.0]", "one entry per field dimension (1)"]),
    # at most 0, these keys would pass on no data (n_tests, k_cut), pass
    # with beta < 0 (c0), divide by zero (r0) or end in a FrontierError
    # that names the wrong cause (frontier_probes)
    "gauge-n_tests-zero": ("""
[experiment]
kind = gauge-reduce
[field]
dimension = 1
a11 = 1 + 0.5*exp(-x1^2)
[params]
n_tests = 0
""", ["params.n_tests = 0", "positive"]),
    "poincare-k_cut-negative": ("""
[experiment]
kind = poincare
[params]
k_cut = -1.0
""", ["params.k_cut = -1.0", "positive"]),
    "translated-c0-negative": ("""
[experiment]
kind = carleman-sweep
[params]
mode = "translated"
c0 = -1.0
""", ["params.c0 = -1.0", "positive"]),
    "annulus-r0-zero": ("""
[experiment]
kind = carleman-sweep
[params]
r0 = 0
""", ["params.r0 = 0", "positive"]),
    "frontier-probes-zero": ("""
[experiment]
kind = carleman-sweep
[params]
frontier_R_values = [1.0, 2.0]
frontier_probes = 0
""", ["params.frontier_probes = 0", "positive"]),
    # the translated inequality holds under the block assumption, block
    # form diag(a11, Atilde(x')) with constant a11 > 0; these ended in a raw
    # AttributeError or ValueError
    "translated-field-off-block": ("""
[experiment]
kind = carleman-sweep
[field]
dimension = 2
a12 = 0.1
[grid]
extents = [8.0, 4.0]
points = [128, 64]
[params]
mode = "translated"
""", ["translated", "block form", "constant a11 > 0"]),
    "translated-a11-varying": ("""
[experiment]
kind = carleman-sweep
[field]
dimension = 1
a11 = "1 + 0.1*exp(-x1^2)"
[params]
mode = "translated"
""", ["translated", "constant a11 > 0"]),
    "translated-a11-negative": ("""
[experiment]
kind = carleman-sweep
[field]
dimension = 1
a11 = "-1"
[params]
mode = "translated"
""", ["translated", "constant a11 > 0"]),
    # a field entry on a variable beyond the dimension ended in a raw
    # ValueError
    "field-entry-beyond-dimension": ("""
[experiment]
kind = simulate
[field]
dimension = 1
a11 = "1 + x2^2"
""", ["[field]", "outside x1..x1"]),
}


@pytest.mark.parametrize("name", REJECTED)
def test_table_rejects_config(name, tmp_path, capsys):
    text, named = REJECTED[name]
    path = tmp_path / "c.cfg"
    path.write_text(text.replace(
        "[experiment]\n", f"[experiment]\noutput = {tmp_path / 'o'}\n"))
    assert cli_main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    for word in named:
        assert word in err
    assert not (tmp_path / "o").exists()


# the gates a config could once loosen; each check now states its own
DELETED_GATES = [("convexity", "interp_C"), ("convexity", "d2_floor"),
                 ("carleman-sweep", "slack_tol"), ("subordination", "slack_tol"),
                 ("poincare", "interp_C"), ("hardy", "slack_tol"),
                 ("lowerbound-fit", "slack_tol"), ("gauge-reduce", "slack_tol")]


@pytest.mark.parametrize("kind, key", DELETED_GATES,
                         ids=[f"{kind}-{key}" for kind, key in DELETED_GATES])
def test_config_cannot_set_a_gate(kind, key, tmp_path, capsys):
    text = (f"[experiment]\nkind = {kind}\noutput = {tmp_path / 'o'}\n"
            f"[tolerances]\n{key} = 2\n")
    with pytest.raises(ConfigError) as err:
        validate(text)
    assert any(f"key {key!r} in section [tolerances]" in e
               for e in err.value.errors)
    path = tmp_path / "c.cfg"
    path.write_text(text)
    assert cli_main(["run", str(path)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _sweep_csvs(tmp_path, params: str, sweep, fld):
    """The samples CSV of a carleman-sweep config with ``params``, and the
    one ``carleman_sweep(sweep, fld)`` gives under the same header."""
    path = tmp_path / "c.cfg"
    path.write_text(f"[experiment]\nkind = carleman-sweep\noutput = "
                    f"{tmp_path / 'o'}\n" + params)
    assert cli_main(["run", str(path)]) == 0
    ours = (tmp_path / "o" / "carleman_samples.csv").read_bytes()
    header = ours.decode().splitlines()[0].split(",")
    experiments.write_csv(tmp_path / "direct.csv", header,
                          carleman_sweep(sweep, fld).rows)
    return ours, (tmp_path / "direct.csv").read_bytes()


def test_annulus_sweep_reads_a_transversal_field_as_its_matrix(tmp_path):
    # the block matrix diag(a11) of a TransversalField gives the samples of
    # the same matrix given entry by entry
    ours, direct = _sweep_csvs(tmp_path, """
[field]
dimension = 1
a11 = "1 + 0.1*exp(-x1^2)"
[grid]
extents = [6.0]
points = [256]
[params]
R_values = [1.0]
n_samples = 2
""", SweepConfig(mode="annulus", extents=(6.0,), points=(256,),
                 R_values=(1.0,), n_samples=2, seed0=0),
        TransversalField(1, pe("1 + 0.1*exp(-x1^2)"), ()))
    assert ours == direct


def test_translated_sweep_reads_block_form_from_the_entries(tmp_path):
    # a 2-D block field written entry by entry is the translated sweep's
    # TransversalField; no flag declares it
    ours, direct = _sweep_csvs(tmp_path, """
[field]
dimension = 2
a22 = "1 + 0.06*exp(-x2^2/4)"
[grid]
extents = [8.0, 4.0]
points = [128, 64]
nt = 128
[params]
mode = "translated"
R_values = [1.0]
n_samples = 2
space_width = 1.0
""", SweepConfig(mode="translated", nt=128, extents=(8.0, 4.0),
                 points=(128, 64), R_values=(1.0,), n_samples=2, seed0=0,
                 space_width=1.0),
        TransversalField(2, const(1), ((pe("1 + 0.06*exp(-x2^2/4)"),),)))
    assert ours == direct


@pytest.mark.parametrize("mode, metric", [("annulus", decay_smallness),
                                          ("translated", transversal_smallness)])
def test_sweep_report_records_its_own_hypothesis_smallness(tmp_path, mode, metric):
    # the report, not the CSV, gains the smallness of the mode's hypothesis
    ours, direct = _sweep_csvs(tmp_path, f"""
[field]
dimension = 2
a22 = "1 + 0.1*exp(-x2^2)"
[grid]
extents = [8.0, 8.0]
points = [128, 128]
[params]
mode = "{mode}"
R_values = [1.0]
n_samples = 1
space_width = 1.0
""", SweepConfig(mode=mode, extents=(8.0, 8.0), points=(128, 128),
                 R_values=(1.0,), n_samples=1, seed0=0, space_width=1.0),
        TransversalField(2, const(1), ((pe("1 + 0.1*exp(-x2^2)"),),)))
    assert ours == direct
    metrics = json.loads((tmp_path / "o" / "report.json").read_text())["metrics"]
    other = {"decay_smallness", "transversal_smallness"} - {metric.__name__}
    assert metrics[metric.__name__] == metric(
        CoefficientField.diagonal((const(1), pe("1 + 0.1*exp(-x2^2)"))),
        SamplingBox.cube(2, 8.0, 65)) > 0
    assert not other & metrics.keys()


def test_translated_sweep_reports_fitted_c0(tmp_path):
    # the translated frontier's c0 is the largest beta* / R^2 it measured
    path = tmp_path / "c.cfg"
    path.write_text(f"""
[experiment]
kind = carleman-sweep
seed = 3
output = {tmp_path / 'o'}
[grid]
extents = [6.0]
points = [256]
nt = 256
[params]
mode = "translated"
R_values = [1.0]
n_samples = 1
frontier_R_values = [1.1, 1.5]
frontier_probes = 1
""")
    assert cli_main(["run", str(path)]) == 0
    with open(tmp_path / "o" / "frontier.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    metrics = json.loads((tmp_path / "o" / "report.json").read_text())["metrics"]
    assert [float(row["R"]) for row in rows] == [1.1, 1.5]
    assert metrics["fitted_c0"] == max(
        float(row["beta_star"]) / float(row["R"]) ** 2 for row in rows)


def test_gauge_reduce_reads_a_2d_block_field(tmp_path):
    # a11(x1) and a22(x2) are block form, so the gauge reduction runs on x1
    path = tmp_path / "c.cfg"
    path.write_text(f"""
[experiment]
kind = gauge-reduce
output = {tmp_path / 'o'}
[field]
dimension = 2
a11 = "1 + 0.5*exp(-x1^2)"
a22 = "2 + 0.3*cos(x2)"
potential = "sin(x1)"
[params]
n_tests = 2
""")
    assert cli_main(["run", str(path)]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["checks"]["transport_identity"]["status"] == "pass"


def test_symbolic_power_without_alpha_runs(tmp_path):
    text = ("[experiment]\nkind = symbolic-verify\noutput = {out}\n"
            "[field]\ndimension = 1\n[weight]\nvariant = \"power\"\n")
    path = tmp_path / "c.cfg"
    path.write_text(text.format(out=tmp_path / "o"))
    assert cli_main(["run", str(path)]) == 0


def test_symbolic_decimal_weight_numbers_pass(tmp_path):
    # beta and R reach the weight as the exact rationals 3/10 and 5/2, so
    # the residuals cancel exactly
    text = ("[experiment]\nkind = symbolic-verify\noutput = {out}\n"
            "[field]\ndimension = 1\na11 = \"1 + 0.1/(1+x1^2)\"\n"
            "[weight]\nvariant = \"scaled-time\"\nbeta = 0.3\nR = 2.5\n")
    path = tmp_path / "c.cfg"
    path.write_text(text.format(out=tmp_path / "o"))
    assert cli_main(["run", str(path)]) == 0


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_simulate_non_finite_H_fails(tmp_path):
    # the weight e^{1.6 x^2} against the rate-0.05 packet overflows float64
    # on the box, so H ends in inf
    text = """
[experiment]
kind = simulate
output = {out}
[field]
dimension = 1
[grid]
extents = [15.0]
points = [1024]
[initial]
s_re = 0.05
[weight]
beta = 1.6
[evolution]
steps = 64
frames = 5
""".format(out=tmp_path / "o")
    path = tmp_path / "c.cfg"
    path.write_text(text)
    assert cli_main(["run", str(path)]) == 1
    payload = json.loads((tmp_path / "o" / "report.json").read_text())
    assert payload["checks"]["H_finite"]["status"] == "fail"
    assert payload["checks"]["H_finite"]["non_finite"] >= 1


def test_numeric_guard_error_is_a_failed_check(tmp_path):
    # the translated probe at R = 2.4 leaves a time tail of 5.09e-3 on
    # nt = 128, over make_test_function's 5e-3 resolution budget
    text = """
[experiment]
kind = carleman-sweep
seed = 19
output = {out}
[grid]
extents = [6.0]
points = [512]
nt = 128
[params]
mode = "translated"
R_values = [1.0]
n_samples = 1
frontier_R_values = [2.4]
frontier_probes = 1
""".format(out=tmp_path / "o")
    path = tmp_path / "c.cfg"
    path.write_text(text)
    assert cli_main(["run", str(path)]) == 1
    payload = json.loads((tmp_path / "o" / "report.json").read_text())
    guard = payload["checks"]["numeric_guard"]
    assert guard["status"] == "fail" and guard["error"] == "ResolutionError"
    assert "spectral tail fraction" in guard["message"]
    # the message names the task that tripped the guard
    assert guard["message"].startswith("R = 2.4, probe seed 1019: ")


def test_unmet_core_mass_hypothesis_records_its_values(tmp_path):
    # the unit packet's mass within |x| <= 0.5 over t in [1/4, 3/4] is far
    # below E2^2 = 100
    text = """
[experiment]
kind = lowerbound-fit
output = {out}
[field]
dimension = 1
[grid]
extents = [12.0]
points = [512]
[evolution]
steps = 32
frames = 17
[params]
radii = [2.0, 3.0, 4.0]
R0 = 0.5
E2 = 10
""".format(out=tmp_path / "o")
    report = run(validate(text))
    check = report.checks["core_mass_hypothesis"]
    assert check["status"] == "exploratory"
    assert check["label"] == "hypothesis not met"
    assert check["tolerance"] == 100.0
    assert 0 < check["core_mass"] < 100.0


# one config per guard error of the field and diagnostics layers, with a
# phrase of its message; a key may name a second case after a colon
GUARDED = {
    "AnnulusResolutionError": ("""
[experiment]
kind = lowerbound-fit
[grid]
extents = [12.0]
points = [64]
""", "annulus width 1 spans only 2.7 cells"),
    "EllipticityError": ("""
[experiment]
kind = carleman-sweep
[field]
dimension = 1
a11 = "-1"
[grid]
extents = [6.0]
points = [256]
[params]
R_values = [1.0]
n_samples = 1
""", "non-positive-definite sample"),
    "GaugeError": ("""
[experiment]
kind = gauge-reduce
[field]
dimension = 1
a11 = "-1 + 0.5*exp(-x1^2)"
""", "a11 not bounded below"),
    # a11 is near 2 - pi/2 for x1 << 0, so the y-box cuts the transported
    # test functions there (edge value 1.3e-2 of the peak) and the transport
    # error would read 679; on x1_range [-20, 20] it reads 3.7e-7
    "GaugeError:y-box": ("""
[experiment]
kind = gauge-reduce
[field]
dimension = 1
a11 = "2 + atan(x1)"
""", "widen x1_range"),
    # edge values 1.5e-7 and 9.9e-11 of the peak pass a bare 1e-6 budget,
    # but times k_max^2 they read 3.2e-2 and 1.3e-5, and the transport
    # errors were 3.5e-3 and 1.13e-6
    "GaugeError:identity-on-(-8,8)": ("""
[experiment]
kind = gauge-reduce
[field]
dimension = 1
[params]
x1_range = [-8.0, 8.0]
""", "times k_max^2"),
    "GaugeError:cos-on-(-10,10)": ("""
[experiment]
kind = gauge-reduce
seed = 1
[field]
dimension = 1
a11 = "1 - 0.4*cos(x1)"
[params]
n_tests = 5
""", "times k_max^2"),
    # |u0|^2 = 1e-340 underflows to 0: simulate's mass drift divided by
    # zero, and convexity took log 0 of H
    "ZeroMassError": ("""
[experiment]
kind = simulate
[field]
dimension = 1
[grid]
extents = [12.0]
points = [256]
[initial]
amplitude = 1e-170
""", "initial squared norm 0.0 is not positive"),
    "ZeroMassError:convexity": ("""
[experiment]
kind = convexity
[field]
dimension = 1
[grid]
extents = [12.0]
points = [256]
[initial]
amplitude = 1e-170
""", "initial squared norm 0.0 is not positive"),
    # a coefficient that is NaN at x1 = 0 read as ellipticity (nan, nan),
    # every sample passed with slack inf, and the run exited 0
    "SamplingError:sweep": ("""
[experiment]
kind = carleman-sweep
[field]
dimension = 1
a11 = "2 + sin(x1)/x1"
[grid]
extents = [8.0]
points = [512]
nt = 64
[params]
R_values = [1.0]
n_samples = 2
""", "not finite at x1 = 0"),
    # an infinite coefficient ended the frontier in "no root (... = nan)"
    "SamplingError:frontier": ("""
[experiment]
kind = carleman-sweep
[field]
dimension = 1
a11 = "1 + 1/x1^2"
[grid]
extents = [8.0]
points = [512]
nt = 64
[params]
R_values = [1.0]
n_samples = 2
frontier_R_values = [2.0, 4.0]
frontier_probes = 2
""", "not finite at x1 = 0"),
    # a NaN coefficient ended the gauge reduction in a Newton failure
    "SamplingError:gauge": ("""
[experiment]
kind = gauge-reduce
[field]
dimension = 1
a11 = "2 + sin(x1)/x1"
""", "not finite at x1 = 0"),
}


@pytest.mark.parametrize("case", GUARDED)
def test_field_and_diagnostics_guards_are_failed_checks(case, tmp_path):
    text, phrase = GUARDED[case]
    error = case.partition(":")[0]
    path = tmp_path / "c.cfg"
    path.write_text(text.replace(
        "[experiment]\n", f"[experiment]\noutput = {tmp_path / 'o'}\n"))
    assert cli_main(["run", str(path)]) == 1
    payload = json.loads((tmp_path / "o" / "report.json").read_text())
    assert list(payload["checks"]) == ["numeric_guard"]
    guard = payload["checks"]["numeric_guard"]
    assert guard["status"] == "fail" and guard["error"] == error
    assert phrase in guard["message"]


# ucont's exception classes that are not numeric guards: a run raises them
NON_GUARD_ERRORS = {"ConfigError", "ExpressionError", "CheckpointError",
                    "ThreadCountError", "OrderOverflowError"}


def test_every_error_class_is_a_guard_or_listed():
    """A numeric guard ends a run as a failed check through its base class,
    so each new exception class must subclass it or be listed above."""
    defined = {}
    for info in pkgutil.iter_modules(ucont.__path__):
        module = importlib.import_module(f"ucont.{info.name}")
        defined.update({name: cls for name, cls in vars(module).items()
                        if isinstance(cls, type) and issubclass(cls, Exception)
                        and cls.__module__ == module.__name__})
    guards = {name for name, cls in defined.items()
              if issubclass(cls, NumericGuardError)}
    assert set(defined) - guards == NON_GUARD_ERRORS
    assert {"QuadratureError", "ResolutionError", "SamplingError"} <= guards
    assert all(issubclass(defined[name], ValueError)
               for name in ("SupportError", "EllipticityError", "GaugeError"))


# r_values = 1e-3 ... 1e3; at q = 11 the quadrature does not converge, at
# q = 101 the integrand overflows
@pytest.mark.parametrize("params,phrase", [
    ("p = 1.1\nkappa = 0.01\nlambda0 = 0.001",
     "r = 0.001: quadrature did not converge"),
    ("p = 1.01\nkappa = 1000\nlambda0 = 1.0",
     "r = 0.001: the integrand overflows")], ids=["converge", "overflow"])
def test_subordination_quadrature_error_is_a_failed_check(params, phrase,
                                                          tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("[experiment]\nkind = subordination\n"
                    f"output = {tmp_path / 'o'}\n[params]\n{params}\n"
                    "r_values = [1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0]\n")
    assert cli_main(["run", str(path)]) == 1
    payload = json.loads((tmp_path / "o" / "report.json").read_text())
    assert list(payload["checks"]) == ["numeric_guard"]
    guard = payload["checks"]["numeric_guard"]
    assert guard["status"] == "fail" and guard["error"] == "QuadratureError"
    assert phrase in guard["message"]


# x1 = 0 is a node of the 1024-point grid: 1/x1 is inf there
@pytest.mark.parametrize("field", ['potential = "1/x1"',
                                   'potential = "1/x1"\n'
                                   'a11 = "1 + 0.06*exp(-x1^2/4)"'],
                         ids=["potential", "potential-variable-a11"])
def test_non_finite_field_is_a_failed_check(field, tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("[experiment]\nkind = simulate\n"
                    f"output = {tmp_path / 'o'}\n"
                    f"[field]\ndimension = 1\n{field}\n"
                    "[grid]\nextents = [15.0]\npoints = [1024]\n")
    assert cli_main(["run", str(path)]) == 1
    payload = json.loads((tmp_path / "o" / "report.json").read_text())
    assert list(payload["checks"]) == ["numeric_guard"]
    guard = payload["checks"]["numeric_guard"]
    assert guard["status"] == "fail"
    assert guard["error"] == "SamplingError"
    assert "1/x1 is not finite at x1 = 0" in guard["message"]


# the power weight beta |x|^3 is not smooth at the origin: in 1-D its
# remainder carries DiracDelta(x1), in 2-D D^2 phi samples as NaN at x = 0
@pytest.mark.parametrize("field,cause", [
    ('dimension = 1\na11 = "1 + 0.1*exp(-x1^2)"', "DiracDelta"),
    ('dimension = 2\na11 = "1 + 0.1*exp(-x1^2)"\na12 = "0.05*x1*x2"\n'
     'a22 = "1 + 0.1*exp(-x2^2)"', "not finite at t = 0, x1 = 0, x2 = 0")],
    ids=["1d", "2d"])
def test_unsamplable_remainder_grouping_is_a_failed_check(field, cause,
                                                          tmp_path):
    text = ("[experiment]\nkind = symbolic-verify\noutput = {out}\n"
            "[field]\n{field}\n"
            "[weight]\nvariant = \"power\"\nalpha = 1.5\n")
    path = tmp_path / "c.cfg"
    path.write_text(text.format(out=tmp_path / "o", field=field))
    assert cli_main(["run", str(path)]) == 1
    payload = json.loads((tmp_path / "o" / "report.json").read_text())
    grouping = payload["checks"]["remainder_grouping"]
    assert grouping["status"] == "fail" and grouping["error"] == "SamplingError"
    assert cause in grouping["message"]
    assert "order1_containment_C" not in payload["metrics"]

def test_convexity_d2_column_is_the_gated_value(tmp_path):
    # with t_end = 0.5 raw-time and rescaled-time second differences of
    # log H differ by 1/t_end^2; the CSV and the floor check share one
    text = """
[experiment]
kind = convexity
output = {out}
[field]
dimension = 1
[grid]
extents = [11.25]
points = [512]
[initial]
s_re = 0.5
s_im = -0.5
[evolution]
steps = 32
frames = 17
t_end = 0.5
[weight]
beta_values = [0.05]
""".format(out=tmp_path / "o")
    report = run(validate(text))
    with open(tmp_path / "o" / "convexity_beta0.05.csv", newline="") as fh:
        d2 = [float(r["d2logH"]) for r in csv.DictReader(fh)][1:-1]
    gated = report.checks["d2_logH_floor[beta=0.05]"]["min_d2"]
    assert min(d2) == gated
    assert report.metrics["min_d2_logH[beta=0.05]"] == gated


# a small config per kind that leaves every table key readable
GUARD_CONFIGS = {
    "simulate": """
[field]
dimension = 1
[grid]
extents = [12.0]
points = [256]
[evolution]
steps = 16
frames = 5
""",
    "convexity": """
[field]
dimension = 1
[grid]
extents = [11.25]
points = [512]
[initial]
s_re = 0.5
s_im = -0.5
[evolution]
steps = 16
frames = 9
""",
    "carleman-sweep": """
[field]
dimension = 1
[grid]
extents = [8.0]
points = [256]
nt = 64
[params]
R_values = [1.0]
n_samples = 2
""",
    "symbolic-verify": """
[field]
dimension = 1
""",
    "subordination": """
[params]
r_values = [0.5, 1.0, 2.0]
""",
    "poincare": """
[grid]
extents = [4.0, 4.0]
points = [64, 64]
[params]
n_fields = 2
""",
    "hardy": "",
    "lowerbound-fit": """
[field]
dimension = 1
[grid]
extents = [12.0]
points = [512]
[evolution]
steps = 32
frames = 17
[params]
radii = [2.0, 3.0, 4.0]
""",
    "gauge-reduce": """
[field]
dimension = 1
a11 = 1 + 0.5*exp(-x1^2)
[params]
n_tests = 2
""",
}


def test_every_table_key_is_read(tmp_path, monkeypatch):
    """Each kind's runner reads every key its table declares (field entries
    that the dimension leaves unused exempt) and no key the table does not
    declare."""
    assert set(GUARD_CONFIGS) == set(KINDS)
    read = set()
    get = ExperimentConfig.get

    def recording(self, section, key):
        read.add((section, key))
        return get(self, section, key)
    monkeypatch.setattr(ExperimentConfig, "get", recording)
    for kind, body in GUARD_CONFIGS.items():
        cfg = validate(f"[experiment]\nkind = {kind}\noutput = "
                       f"{tmp_path / kind}\n" + body)
        read.clear()
        run(cfg)
        table = experiments._TABLE[kind]
        unused = set()
        if "field" in table:
            unused = set(table["field"]) - experiments._field_keys(
                cfg.get("field", "dimension"))
        declared = {(sec, key) for sec, keys in table.items() for key in keys}
        exempt = {("field", key) for key in unused}
        assert declared - exempt - read == set(), kind
        assert read <= declared - exempt, kind


def _literal_reads(tree) -> list:
    """(section, key) of each ``cfg.get(section, key)`` call in ``tree``
    whose arguments are string literals, or names that a comprehension or
    a for loop binds to a literal tuple or list of strings."""
    def strings(node):
        nodes = node.elts if isinstance(node, (ast.Tuple, ast.List)) else [node]
        if all(isinstance(e, ast.Constant) and isinstance(e.value, str)
               for e in nodes):
            return [e.value for e in nodes]
        return None
    out = []

    def visit(node, env):
        loops = [node] if isinstance(node, ast.For) else \
            getattr(node, "generators", [])
        for loop in loops:
            if isinstance(loop.target, ast.Name) and strings(loop.iter):
                env = {**env, loop.target.id: strings(loop.iter)}
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "get" \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == "cfg" and len(node.args) == 2:
            values = [strings(a) or (env.get(a.id) if isinstance(a, ast.Name)
                                     else None) for a in node.args]
            if all(values):
                out.extend(itertools.product(*values))
        for child in ast.iter_child_nodes(node):
            visit(child, env)
    visit(tree, {})
    return out


def test_every_literal_read_names_a_table_slot():
    """``ExperimentConfig.get`` returns None for a key no table declares, so
    a read of a deleted key would otherwise fail only when it runs."""
    tree = ast.parse(Path(experiments.__file__).read_text())
    reads = set(_literal_reads(tree))
    slots = {(sec, key) for table in experiments._TABLE.values()
             for sec, keys in table.items() for key in keys}
    assert not reads - slots, sorted(reads - slots)
    # the guard sees the runners' reads, looped ones included
    assert {("tolerances", "boundary_budget"), ("evolution", "frames"),
            ("params", "E2")} <= reads
    stale = ast.parse('for key in ("a", "slack_tol"):\n'
                      '    tol = cfg.get("tolerances", key)\n')
    assert ("tolerances", "slack_tol") in set(_literal_reads(stale)) - slots
