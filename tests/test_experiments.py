import csv
import json
import math
from pathlib import Path

import pytest

from ucont import experiments
from ucont.cli import main as cli_main
from ucont.experiments import KINDS, ConfigError, ExperimentConfig, \
    load_config, run, validate

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
    assert cfg.get("initial", "s_im", 0.0) == 0.0


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
    assert math.isfinite(payload["metrics"]["order1_containment_C"])


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
    "transversal-leaves-a12-unread": ("""
[experiment]
kind = gauge-reduce
[field]
dimension = 2
transversal = true
a12 = 0.5
""", ["'a12'", "transversal 2-D"]),
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
""", ["field.dimension = 2", "transversal"]),
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
transversal = true
a11 = 1 + 0.5*exp(-x1^2)
[params]
npts = 401
n_tests = 2
""",
}


def test_every_table_key_is_read(tmp_path, monkeypatch):
    """Each kind's runner reads every key its table declares (field entries
    that the dimension and the transversal flag leave unused exempt) and no
    key the table does not declare."""
    assert set(GUARD_CONFIGS) == set(KINDS)
    read = set()
    get = ExperimentConfig.get

    def recording(self, section, key, default=None):
        read.add((section, key))
        return get(self, section, key, default)
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
                cfg.get("field", "dimension"), cfg.get("field", "transversal"))
        declared = {(sec, key) for sec, keys in table.items() for key in keys}
        exempt = {("field", key) for key in unused}
        assert declared - exempt - read == set(), kind
        assert read <= declared - exempt, kind
