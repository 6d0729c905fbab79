import csv
import json
import math
from pathlib import Path

import pytest

from ucont.cli import main as cli_main
from ucont.experiments import ConfigError, load_config, run, validate

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
