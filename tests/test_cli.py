"""Config loading, the check runner, report emission and the CLI contract."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pdmsusy.cli import (ConfigError, DEFAULT_TOLERANCES, KNOWN_CHECKS,
                         emit_curves, load_config, main, paper_examples,
                         parse_config_dict, run)
from pdmsusy import Grid, MassFn, ModelSpec, cli, discrete, parse
from pdmsusy.expr import ParamEnv, node_counts
from pdmsusy.susy1 import build_first_order
from pdmsusy.susy2 import build_second_order


MINIMAL = {
    "order": 1,
    "mass": "1",
    "superpotential": {"kind": "deformed", "expr": "i*x"},
    "susy_constants": [0.0],
    "grid": {"xmin": -2.0, "xmax": 2.0, "points": 33},
    "checks": ["riccati", "eigenvalues"],
}

# W_m vanishes inside the window: a numerical failure (exit 3) at the build
SINGULAR = {
    "order": 2, "mass": "1",
    "superpotential": {"kind": "deformed", "expr": "x"},
    "susy_constants": [0.0, 0.0],
    "grid": {"xmin": -2.0, "xmax": 2.0, "points": 33},
    "checks": ["riccati"],
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_minimal_config_loads_and_passes(tmp_path):
    config = load_config(write_config(tmp_path, MINIMAL))
    assert config.spec.order == 1
    assert config.checks == ("riccati", "eigenvalues")
    report = run(config)
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == ["riccati", "eigenvalues"]


def test_wrong_susy_constant_count():
    bad = dict(MINIMAL, susy_constants=[0.0, 1.0])
    with pytest.raises(ConfigError, match="susy_constants"):
        parse_config_dict(bad)
    # JSON true and false are not numbers, wherever a number is expected
    for field, bad in (
            ("susy_constants[0]", dict(MINIMAL, susy_constants=[True])),
            ("susy_constants[0]", dict(MINIMAL, susy_constants=[[0.0, False]])),
            ("params.a", dict(MINIMAL, params={"a": True})),
            ("grid.xmin", dict(MINIMAL, grid=dict(MINIMAL["grid"], xmin=False))),
            ("grid.xmax", dict(MINIMAL, grid=dict(MINIMAL["grid"], xmax=True)))):
        with pytest.raises(ConfigError, match=re.escape(f"'{field}'")):
            parse_config_dict(bad)
    # nor are JSON NaN and Infinity
    for field, bad in (
            ("susy_constants[0]", dict(MINIMAL, susy_constants=[float("nan")])),
            ("susy_constants[0]", dict(MINIMAL, susy_constants=[[0.0, np.inf]])),
            ("params.a", dict(MINIMAL, params={"a": -np.inf})),
            ("grid.xmin", dict(MINIMAL, grid=dict(MINIMAL["grid"], xmin=np.nan))),
            ("grid.xmax", dict(MINIMAL, grid=dict(MINIMAL["grid"], xmax=np.inf)))):
        with pytest.raises(ConfigError, match=re.escape(f"'{field}'")):
            parse_config_dict(bad)


def test_unknown_check_name_lists_valid_checks():
    bad = dict(MINIMAL, checks=["riccati", "nonsense"])
    with pytest.raises(ConfigError) as err:
        parse_config_dict(bad)
    for name in KNOWN_CHECKS:
        assert name in str(err.value)


def test_unknown_top_level_key_rejected():
    bad = dict(MINIMAL)
    bad["grids"] = {}
    with pytest.raises(ConfigError, match="unknown field 'grids'"):
        parse_config_dict(bad)
    for value in (None, 1, ["r.json"]):
        bad = dict(MINIMAL, output={"report": value})
        with pytest.raises(ConfigError, match="'output.report' has wrong type"):
            parse_config_dict(bad)


def test_unknown_tolerance_rejected():
    bad = dict(MINIMAL, tolerances={"identty": 1e-9})
    with pytest.raises(ConfigError, match="identty"):
        parse_config_dict(bad)
    for value in ("abc", [1], True, False, float("nan"), np.inf):
        bad = dict(MINIMAL, tolerances={"identity": value})
        with pytest.raises(ConfigError,
                           match="'tolerances.identity'.*not a number"):
            parse_config_dict(bad)
    for value in ("nan", "inf", "-inf", -1, -1e-30):
        bad = dict(MINIMAL, tolerances={"identity": value})
        with pytest.raises(ConfigError,
                           match="'tolerances.identity'.*finite number >= 0"):
            parse_config_dict(bad)
    assert parse_config_dict(dict(MINIMAL, tolerances={"identity": 0})) \
        .tolerances["identity"] == 0.0
    # no run reads a superpotential-recovery tolerance
    with pytest.raises(ConfigError, match="unknown tolerance 'recovery'"):
        parse_config_dict(dict(MINIMAL, tolerances={"recovery": 1e-12}))


def test_expression_error_carries_field_and_offset():
    bad = dict(MINIMAL, mass="1 + $")
    with pytest.raises(ConfigError, match="mass"):
        parse_config_dict(bad)


def test_boundary_restricted_to_dirichlet(tmp_path, capsys):
    # Dirichlet is the only boundary condition, so no field selects it
    for value in ("dirichlet", "periodic"):
        with pytest.raises(ConfigError, match="unknown field 'boundary'"):
            parse_config_dict(dict(MINIMAL, boundary=value))
    path = write_config(tmp_path, dict(MINIMAL, boundary="dirichlet"))
    assert main(["check", path, "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: unknown field 'boundary'\n")


@pytest.mark.parametrize("text, message", [
    (json.dumps({k: v for k, v in MINIMAL.items() if k != "grid"}),
     "missing field 'grid'"),
    ("[]", "config root must be a JSON object"),
    ('{"order": 1,', "config is not valid JSON: Expecting property name "
                     "enclosed in double quotes: line 1 column 13 (char 12)"),
    (json.dumps(dict(MINIMAL, order=0)),
     "field 'order' must be a positive integer"),
    (json.dumps(dict(MINIMAL, superpotential={"kind": "exact", "expr": "i*x"})),
     "field 'superpotential.kind' must be 'constant_mass' or 'deformed'"),
    (json.dumps(dict(MINIMAL, grid=dict(MINIMAL["grid"], points=15))),
     "field 'grid.points' must be >= 16"),
    (json.dumps(dict(MINIMAL, grid=dict(MINIMAL["grid"], xmin=2.0))),
     "field 'grid': empty grid (2.0, 2.0)"),
    # finite bounds whose difference overflows, so h would not be finite
    (json.dumps(dict(MINIMAL, grid=dict(MINIMAL["grid"], xmin=-1.7e308,
                                        xmax=1.7e308))),
     "field 'grid': grid (-1.7e+308, 1.7e+308) is wider than the float "
     "range")])
def test_config_rejections(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["check", str(path), "--quiet"]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("payload, name", [
    (dict(MINIMAL, params={"beta": 1.0}), "beta"),
    (dict(MINIMAL, mass="1+alpha*x^2", params={"alpha": 0.1, "beta": 1.0}),
     "beta"),
    (dict(MINIMAL, superpotential={"kind": "deformed", "expr": "alpha*i*x"},
          params={"gamma": 2.0, "alpha": 1.0}), "gamma")])
def test_unused_parameters_are_configuration_errors(tmp_path, capsys, payload,
                                                    name):
    assert main(["check", write_config(tmp_path, payload), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: field 'params.{name}': parameter not used by "
        "'mass' or 'superpotential.expr'\n")
    # the parameters that the expressions read are accepted
    used = {k: v for k, v in payload["params"].items() if k != name}
    parse_config_dict(dict(payload, params=used))


def test_u0_routes_requires_second_order():
    bad = dict(MINIMAL, checks=["u0_routes"])
    with pytest.raises(ConfigError, match="order 2"):
        parse_config_dict(bad)


def test_high_order_restricted_to_formula_checks(tmp_path, capsys):
    cfg = dict(MINIMAL, order=3, susy_constants=[1.0, 2.0, 3.0],
               checks=["eigenvalues"])
    config = parse_config_dict(cfg)
    report = run(config)
    assert report.passed
    assert len(report.closed_form_eigenvalues) == 3
    bad = dict(cfg, checks=["riccati"])
    with pytest.raises(ConfigError, match="order 3"):
        parse_config_dict(bad)
    # on MINIMAL's symmetric grid the symmetry check measures m and W_m only
    report = run(parse_config_dict(dict(cfg, checks=["symmetry", "eigenvalues"])))
    assert report.passed
    assert set(report.symmetry) == {"mass_parity_defect", "wm_pt_defect"}
    # the commands that need the closed-form system refuse order 3 up front
    path = write_config(tmp_path, cfg)
    for command in ("spectrum", "curves", "convergence"):
        assert main([command, path, "--quiet"]) == 2
        assert "order 3" in capsys.readouterr().err


def test_complex_constants_accepted_and_flagged():
    cfg = dict(MINIMAL, susy_constants=[[0.0, 1.0]])
    report = run(parse_config_dict(cfg))
    assert report.susy_constants_real is False
    assert any("not all real" in note for note in report.notes)


def test_report_idempotent_apart_from_wall_clock(tmp_path):
    config = load_config(write_config(tmp_path, MINIMAL))
    a = run(config).as_dict()
    b = run(config).as_dict()
    a.pop("wall_clock_seconds")
    b.pop("wall_clock_seconds")
    assert json.dumps(a, default=str) == json.dumps(b, default=str)


def test_exit_codes(tmp_path, capsys):
    good = write_config(tmp_path, MINIMAL, "good.json")
    assert main(["check", good, "--quiet"]) == 0

    # failing check: impossible tolerance (a model whose Riccati residual is
    # roundoff-level but nonzero; the MINIMAL one evaluates to exactly 0)
    rough = write_config(tmp_path, {
        "order": 1, "mass": "1/(1+x^2)",
        "superpotential": {"kind": "deformed", "expr": "x^2+i*x"},
        "susy_constants": [1.0],
        "grid": {"xmin": -2.0, "xmax": 2.0, "points": 33},
        "checks": ["riccati"],
    }, "rough.json")
    assert main(["check", rough, "--quiet", "--tol", "identity=1e-30"]) == 1

    # configuration error
    bad = write_config(tmp_path, dict(MINIMAL, checks=["nope"]), "bad.json")
    assert main(["check", bad, "--quiet"]) == 2
    assert main(["check", str(tmp_path / "missing.json"), "--quiet"]) == 2
    # unreadable config files: a directory and a file that is not UTF-8
    assert main(["check", str(tmp_path), "--quiet"]) == 2
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"order": 1, "mass": "\xe9"}')
    assert main(["check", str(latin1), "--quiet"]) == 2
    # a literal that overflows a double is a configuration error
    huge = write_config(tmp_path, dict(MINIMAL, mass="1.5+1e999*x"), "huge.json")
    assert main(["check", huge, "--quiet"]) == 2

    # numerical failure: W_m vanishes inside the window at order 2
    singular = write_config(tmp_path, SINGULAR, "singular.json")
    assert main(["check", singular, "--quiet"]) == 3

    # a mass positive at the 257 samples checked at load but negative
    # around the first grid midpoint x = -1.9375, where the Hamiltonian
    # samples it, is a configuration error too
    capsys.readouterr()
    dip = write_config(tmp_path, dict(
        MINIMAL, mass="1-2*exp(-1e6*(x+1.9375)^2)", checks=["pseudo"]),
        "dip.json")
    assert main(["check", dip, "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "configuration error [stage pseudo]: mass not positive at "
        "x=-1.9375: m=(-1+0j)\n")


def test_build_failure_names_the_system_stage(tmp_path, capsys):
    singular = write_config(tmp_path, dict(
        SINGULAR, output={"curves": str(tmp_path / "curves.csv")}))
    for command in ("check", "curves"):
        assert main([command, singular, "--quiet"]) == 3
        assert capsys.readouterr().err == (
            "numerical failure [stage system]: W_m vanishes (|W_m| < 1e-08) "
            "near x = 0\n")


def test_paper_examples_failure_names_its_stage(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise cli.ModelError("no symmetry report")

    monkeypatch.setattr(cli, "symmetry_report", fail)
    assert main(["paper-examples", "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "configuration error [stage symmetry]: no symmetry report\n")


@pytest.mark.parametrize("source", [
    "(" * 3000 + "x" + ")" * 3000, "-" * 5000 + "x", "^".join(["x"] * 3000)],
    ids=["parentheses", "unary_minus", "power_tower"])
def test_deep_nesting_is_a_configuration_error(tmp_path, capsys, source):
    path = write_config(tmp_path, dict(
        MINIMAL, superpotential={"kind": "deformed", "expr": source}))
    assert main(["check", path, "--quiet"]) == 2
    assert re.fullmatch(
        r"configuration error: field 'superpotential\.expr': expression "
        r"nested too deeply \(offset \d+\)\n", capsys.readouterr().err)


@pytest.mark.parametrize("tolerances, overrides", [
    ({"slope_min": 3, "slope_max": 2}, []),
    ({}, ["--tol", "slope_min=3", "--tol", "slope_max=2"])])
def test_empty_slope_window_is_a_configuration_error(tmp_path, capsys,
                                                     tolerances, overrides):
    path = write_config(tmp_path, dict(MINIMAL, tolerances=tolerances))
    assert main(["check", path, "--quiet", *overrides]) == 2
    assert capsys.readouterr().err == (
        "configuration error: tolerances: slope_min = 3 exceeds "
        "slope_max = 2, an empty convergence window\n")
    # an equal pair is a window of one order
    assert main(["check", path, "--quiet", *overrides,
                 "--tol", "slope_max=3"]) == 0


def test_tol_override_validation(tmp_path):
    good = write_config(tmp_path, MINIMAL)
    assert main(["check", good, "--quiet", "--tol", "bogus=1"]) == 2
    assert main(["check", good, "--quiet", "--tol", "identity"]) == 2
    assert main(["check", good, "--quiet", "--tol", "identity=abc"]) == 2
    for value in ("inf", "nan", "-1"):
        assert main(["check", good, "--quiet", "--tol", f"identity={value}"]) == 2
    assert main(["check", good, "--quiet", "--tol", "recovery=1"]) == 2
    # json.dumps writes float("nan") as the JSON literal NaN
    for value in ("abc", [1], float("nan"), "nan", -1):
        bad = write_config(tmp_path, dict(MINIMAL, tolerances={"identity": value}),
                           "bad.json")
        assert main(["check", bad, "--quiet"]) == 2
    # paper-examples reads no config and no tolerance
    with pytest.raises(SystemExit) as exc:
        main(["paper-examples", "--quiet", "--tol", "identity=1"])
    assert exc.value.code == 2


def test_first_order_worked_example_config(tmp_path):
    payload = {
        "order": 1, "mass": "1/4*sec(x)^2",
        "superpotential": {"kind": "constant_mass",
                           "expr": "exp(i*alpha*x)-sin(x)"},
        "params": {"alpha": 1.0},
        "susy_constants": [1.0],
        "grid": {"xmin": 0.02, "xmax": 1.55, "points": 101},
        "checks": ["symmetry", "riccati", "delta_v", "pseudo", "cpt", "susy",
                   "conjugate_closure", "convergence"],
    }
    report = run(load_config(write_config(tmp_path, payload)))
    by_name = {c.name: c for c in report.checks}
    assert by_name["symmetry"].status == "skip"
    assert by_name["symmetry"].reason == "domain not symmetric about 0"
    for name in ("pseudo", "cpt", "susy", "conjugate_closure", "convergence"):
        assert by_name[name].status == "skip"
        assert by_name[name].reason == "grid not symmetric about 0"
    assert by_name["riccati"].status == "pass"
    assert by_name["delta_v"].status == "pass"
    assert report.passed


def test_second_order_worked_example_config(tmp_path):
    payload = {
        "order": 2, "mass": "sec(x)",
        "superpotential": {"kind": "constant_mass",
                           "expr": "exp(i*alpha*x)-sin(x)"},
        "params": {"alpha": 1.0},
        "susy_constants": [-3.0, 2.0],
        "grid": {"xmin": 0.02, "xmax": 1.55, "points": 101},
        "checks": ["u0_routes", "riccati", "eigenvalues"],
    }
    report = run(load_config(write_config(tmp_path, payload)))
    assert report.passed
    assert abs(report.closed_form_eigenvalues[0] - 1.0) < 1e-12
    assert abs(report.closed_form_eigenvalues[1] - 2.0) < 1e-12
    assert report.reality_condition is True


def test_synthetic_model_full_battery(tmp_path):
    payload = {
        "order": 1, "mass": "1/(1+x^2)",
        "superpotential": {"kind": "deformed", "expr": "x^2+i*x"},
        "susy_constants": [1.0],
        "grid": {"xmin": -6.0, "xmax": 6.0, "points": 201},
        "checks": ["pseudo", "cpt", "susy", "conjugate_closure", "convergence"],
    }
    report = run(load_config(write_config(tmp_path, payload)))
    assert report.passed
    by_name = {c.name: c for c in report.checks}
    for name in ("pseudo", "cpt", "susy"):
        assert 1.7 <= by_name["convergence"].values[f"{name}_order"] <= 2.3
    assert by_name["conjugate_closure"].values["susy_algebra_distance"] <= 1e-6


def test_curves_first_order(tmp_path):
    spec = ModelSpec(order=1, mass=MassFn(parse("1/(1+x^2)"), -2.0, 2.0),
                     deformed=parse("x^2+i*x"), susy_constants=(1.0,))
    system = build_first_order(spec)
    grid = Grid(-2.0, 2.0, 41)
    path = tmp_path / "curves.csv"
    emit_curves(system, grid, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,re_m,re_wm,im_wm,re_v,im_v,re_psi0,im_psi0"
    assert len(lines) == 1 + 41
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.all(np.isfinite(data))
    assert data.shape == (41, 8)


def test_curves_second_order_header(tmp_path):
    spec = ModelSpec(order=2, mass=MassFn(parse("sec(x)"), 0.05, 1.5),
                     superpotential=parse("exp(i*alpha*x)-sin(x)"),
                     susy_constants=(-3.0, 2.0), params=ParamEnv(alpha=1.0))
    system = build_second_order(spec)
    grid = Grid(0.05, 1.5, 33)
    path = tmp_path / "curves2.csv"
    emit_curves(system, grid, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ("x,re_m,re_wm,im_wm,re_v,im_v,re_psi0,im_psi0,"
                        "re_u0,im_u0,re_psi1,im_psi1,re_psi2,im_psi2")
    assert len(lines) == 1 + 33
    # psi2 is the ground mode psi0: the same text, formatted once
    rows = [line.split(",") for line in lines[1:]]
    assert [row[12:14] for row in rows] == [row[6:8] for row in rows]
    assert [row[10:12] for row in rows] != [row[6:8] for row in rows]


def test_spectrum_command_on_confined_model(tmp_path):
    payload = {
        "order": 2, "mass": "1",
        "superpotential": {"kind": "deformed", "expr": "-x+i"},
        "susy_constants": [-3.0, 2.0],
        "grid": {"xmin": -8.0, "xmax": 8.0, "points": 401},
        "checks": ["eigenvalues"],
    }
    path = write_config(tmp_path, payload)
    report_path = tmp_path / "spectrum.json"
    assert main(["spectrum", path, "--quiet", "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    match = report["checks"][0]
    assert match["name"] == "spectrum_match"
    assert match["status"] == "pass"


CONFINED = {
    "order": 2, "mass": "1",
    "superpotential": {"kind": "deformed", "expr": "-x+i"},
    "susy_constants": [-3.0, 2.0],
    "grid": {"xmin": -8.0, "xmax": 8.0, "points": 101},
    "checks": ["eigenvalues"],
}


def test_spectrum_failures_carry_the_stage(tmp_path, capsys, monkeypatch):
    # the mass dips below zero around the first grid midpoint, where H
    # samples it: a configuration error of the spectrum stage
    dip = write_config(tmp_path, dict(
        MINIMAL, mass="1-2*exp(-1e6*(x+1.9375)^2)"), "dip.json")
    assert main(["spectrum", dip, "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "configuration error [stage spectrum]: mass not positive at "
        "x=-1.9375: m=(-1+0j)\n")

    # an eigensolver failure is a numerical failure of the same stage: a
    # result with a repeated level fails the certification
    aberth = discrete._aberth

    def duplicate(*args, **kwargs):
        z, bound, sweeps = aberth(*args, **kwargs)
        z[1] = z[0]
        return z, bound, sweeps

    monkeypatch.setattr(discrete, "_aberth", duplicate)
    path = write_config(tmp_path, dict(
        CONFINED, grid=dict(CONFINED["grid"], points=401)))
    assert main(["spectrum", path, "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure [stage spectrum]: ")
    assert "within their error bounds of each other" in err


@pytest.mark.parametrize("payload, header", [
    (MINIMAL, "x,re_m,re_wm,im_wm,re_v,im_v,re_psi0,im_psi0"),
    (CONFINED, "x,re_m,re_wm,im_wm,re_v,im_v,re_psi0,im_psi0,"
               "re_u0,im_u0,re_psi1,im_psi1,re_psi2,im_psi2")])
def test_curves_command(tmp_path, capsys, payload, header):
    csv = tmp_path / "curves.csv"
    path = write_config(tmp_path, dict(payload, output={"curves": str(csv)}))
    assert main(["curves", path]) == 0
    assert capsys.readouterr().out == f"curves written to {csv}\n"
    lines = csv.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + payload["grid"]["points"]
    assert all(len(line.split(",")) == header.count(",") + 1
               for line in lines[1:])


@pytest.mark.parametrize("flag", [("--report", "r.json"),
                                  ("--tol", "identity=1")])
def test_curves_takes_no_report_and_no_tolerance(tmp_path, capsys, flag):
    # curves writes no report and checks nothing
    path = write_config(tmp_path, dict(
        MINIMAL, output={"curves": str(tmp_path / "curves.csv")}))
    with pytest.raises(SystemExit) as exc:
        main(["curves", path, "--quiet", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "curves.csv").exists()


@pytest.mark.parametrize("command", ["check", "curves"])
def test_unwritable_output_is_a_configuration_error(tmp_path, capsys, command):
    out = str(tmp_path / "missing" / "out")
    if command == "check":
        argv = ["check", write_config(tmp_path, MINIMAL), "--report", out]
    else:
        argv = ["curves", write_config(tmp_path, dict(
            MINIMAL, output={"curves": out}))]
    assert main(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: output file unwritable: ")
    assert out in err


@pytest.mark.parametrize("command", ["check", "paper-examples", "curves"])
@pytest.mark.parametrize("where", ["missing/out", "."])
def test_unwritable_output_fails_before_the_run(tmp_path, capsys, monkeypatch,
                                                command, where):
    def refuse(*args):
        raise AssertionError("the run started before its output was tried")

    for name in ("run", "paper_examples", "emit_curves"):
        monkeypatch.setattr(cli, name, refuse)
    out = str(tmp_path / where)         # a missing directory, or a directory
    if command == "curves":
        argv = ["curves", write_config(tmp_path, dict(
            MINIMAL, output={"curves": out}))]
    elif command == "check":
        argv = ["check", write_config(tmp_path, MINIMAL), "--report", out]
    else:
        argv = ["paper-examples", "--report", out]
    assert main(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: output file unwritable: ")
    assert out in err


@pytest.mark.parametrize("command", ["check", "curves"])
def test_failed_run_leaves_the_output_path_as_it_was(tmp_path, command):
    out = tmp_path / "out"
    argv = [command, write_config(tmp_path, dict(
        SINGULAR, output={command.replace("check", "report"): str(out)})),
        "--quiet"]
    assert main(argv) == 3
    assert not out.exists()
    out.write_text("earlier\n")
    assert main(argv) == 3
    assert out.read_text() == "earlier\n"


def test_tolerance_override_does_not_reach_the_next_call(tmp_path):
    # the parser is built once per process, and keeps no state of a call
    path = write_config(tmp_path, MINIMAL)
    tolerances = []
    for extra in (["--tol", "identity=1e-3"], []):
        report = tmp_path / "report.json"
        assert main(["check", path, "--quiet", "--report", str(report),
                     *extra]) == 0
        tolerances.append(json.loads(report.read_text())["checks"][0]["tolerance"])
    assert tolerances == [1e-3, DEFAULT_TOLERANCES["identity"]]
    assert cli._parser() is cli._parser()


def test_curves_rows_print_each_value_as_repr_of_its_float(tmp_path, monkeypatch):
    # signed zeros, subnormals and huge values keep their shortest
    # round-trip form, bit for bit
    spec = ModelSpec(order=1, mass=MassFn(parse("1"), -2.0, 2.0),
                     deformed=parse("i*x"), susy_constants=(0.0,))
    system = build_first_order(spec)
    grid = Grid(-2.0, 2.0, 16)
    special = np.resize([-0.0, 5e-324, 1e300, -2.5e-310, 0.1], 16)
    m, wm = special.astype(complex), special - 1j * special[::-1]
    v = 1e8 * special + 0.1j
    psi = np.resize([complex(-0.0, 5e-324), 1e300j, -1e-300, 0.3 - 0.0j], 16)
    monkeypatch.setattr(cli, "evaluate_many", lambda *args: (m, wm, v))
    monkeypatch.setattr(discrete, "wavefunction_from_log_derivative",
                        lambda *args: psi)
    path = tmp_path / "curves.csv"
    emit_curves(system, grid, str(path))
    columns = [grid.nodes(), m.real, wm.real, wm.imag, v.real, v.imag,
               psi.real, psi.imag]
    assert path.read_text() == "".join(
        ["x,re_m,re_wm,im_wm,re_v,im_v,re_psi0,im_psi0\n"]
        + [",".join(repr(float(value)) for value in row) + "\n"
           for row in zip(*columns)])


def test_spectrum_is_a_registry_check(tmp_path):
    # the spectrum command is the check run with only the spectrum check
    path = write_config(tmp_path, dict(CONFINED, checks=["spectrum"]))
    reports = []
    for command in ("check", "spectrum"):
        report_path = tmp_path / f"{command}.json"
        assert main([command, path, "--quiet",
                     "--report", str(report_path)]) == 0
        reports.append(json.loads(report_path.read_text()))
    walls = [report.pop("wall_clock_seconds") for report in reports]
    assert reports[0] == reports[1]
    assert reports[0]["checks"][0]["name"] == "spectrum_match"
    assert all(set(wall) == {"system", "spectrum"} for wall in walls)


def test_spectrum_report_notes_complex_constants(tmp_path):
    path = write_config(tmp_path, dict(CONFINED, susy_constants=[[-3.0, 0.5],
                                                                 2.0]))
    report_path = tmp_path / "report.json"
    main(["spectrum", path, "--quiet", "--report", str(report_path)])
    report = json.loads(report_path.read_text())
    assert report["susy_constants_real"] is False
    assert report["spectrum"]
    assert any("not all real" in note for note in report["notes"])


def test_check_prints_one_line_per_check(tmp_path, capsys):
    path = write_config(tmp_path, dict(
        MINIMAL, grid=dict(MINIMAL["grid"], xmax=3.0),
        checks=["riccati", "eigenvalues", "pseudo"]))
    assert main(["check", path]) == 0
    assert capsys.readouterr().out == (
        "PASS riccati  phi0=0.000e+00\n"
        "PASS eigenvalues  polynomial_residual=0.000e+00\n"
        "SKIP pseudo  (grid not symmetric about 0)\n"
        "result: PASS\n")


def test_spectrum_builds_no_dense_operator(tmp_path, monkeypatch):
    # the levels of H come from its diagonals; the dense solver sees only
    # the coarsest grid, never an n x n operator
    solve = discrete.dense_eigenvalues

    def refuse(a):
        if len(a) > discrete.COARSE_ROWS:
            raise AssertionError(f"spectrum solved {len(a)} rows dense")
        return solve(a)

    monkeypatch.setattr(discrete, "dense_eigenvalues", refuse)
    assert main(["spectrum", write_config(tmp_path, dict(
        CONFINED, grid=dict(CONFINED["grid"], points=401))), "--quiet"]) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("wm", ["60*x+i", "30*x+i"])
def test_overflowing_zero_modes_are_not_confined(tmp_path, capsys, wm):
    # psi grows toward the walls, past the float range with 60 x and past
    # the square root of it (|psi|^2 overflows) with 30 x: neither mode is
    # window-confined, and neither NaN nor a warning comes out
    path = write_config(tmp_path, dict(
        CONFINED, superpotential={"kind": "deformed", "expr": wm},
        grid=dict(CONFINED["grid"], points=401)))
    report_path = tmp_path / "spectrum.json"
    assert main(["spectrum", path, "--quiet", "--report", str(report_path)]) == 0
    text = report_path.read_text()
    assert "NaN" not in text and "Infinity" not in text
    match = json.loads(text)["checks"][0]
    assert match["status"] == "skip"
    values = match["values"]
    assert values["e0_confined"] is False and values["e1_confined"] is False
    assert ("psi0_pt_defect" in values) == (wm == "30*x+i")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("constants, checks", [
    ([1e200, 1.0], ["eigenvalues"]),        # roots -inf+nanj and inf+nanj
    ([1e120, 1.0, 1.0], ["symmetry"]),      # |E|^3 = 1e360 overflows
])
def test_closed_form_eigenvalues_past_the_float_range(tmp_path, capsys,
                                                      constants, checks):
    path = write_config(tmp_path, dict(CONFINED, order=len(constants),
                                       susy_constants=constants,
                                       checks=checks))
    assert main(["check", path, "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: field 'susy_constants': closed-form eigenvalues")


def test_spectrum_widens_the_window_to_the_closed_form_levels(
        tmp_path, monkeypatch):
    # E1 = 2 lies above the lowest level alone: the window is widened until
    # its distance is the one to the whole spectrum
    path = write_config(tmp_path, CONFINED)
    full = tmp_path / "full.json"
    assert main(["spectrum", path, "--quiet", "--report", str(full)]) == 0
    monkeypatch.setattr(discrete, "LOW_LEVELS", 1)
    narrow = tmp_path / "narrow.json"
    assert main(["spectrum", path, "--quiet", "--report", str(narrow)]) == 0
    reports = [json.loads(p.read_text()) for p in (full, narrow)]
    assert len(reports[1]["spectrum"]) < len(reports[0]["spectrum"])
    values = [r["checks"][0]["values"] for r in reports]
    assert values[1]["e1_distance"] == values[0]["e1_distance"]
    assert values[1]["e0_distance"] == values[0]["e0_distance"]


# CPT-conserved models with a variable mass whose H has eigenvalue
# condition numbers up to ~1e10: an absolute Aberth stop lies below the
# rounding noise there, and the stop scaled by each level's condition
# number is met
ILL_CONDITIONED = {
    "A": dict(MINIMAL, mass="1+0.3*x^2",
              superpotential={"kind": "deformed", "expr": "-x+0.5*i"},
              susy_constants=[1.0],
              grid={"xmin": -8.0, "xmax": 8.0, "points": 601}),
    "B": dict(CONFINED, mass="1+0.3*x^2",
              grid={"xmin": -8.0, "xmax": 8.0, "points": 601}),
    "C": dict(CONFINED, mass="1+0.3*x^2",
              superpotential={"kind": "deformed", "expr": "1.5+0.2*x^2+i*x"},
              grid={"xmin": -4.0, "xmax": 4.0, "points": 601},
              checks=["conjugate_closure"]),
}


@pytest.mark.parametrize("name, command, code", [
    ("A", "spectrum", 0), ("B", "spectrum", 0), ("C", "spectrum", 0),
    # the closure distance exceeds the absolute closure bound on C
    ("C", "check", 1)])
def test_ill_conditioned_spectra_are_solved(tmp_path, name, command, code):
    path = write_config(tmp_path, ILL_CONDITIONED[name])
    report_path = tmp_path / "report.json"
    assert main([command, path, "--quiet", "--report", str(report_path)]) == code
    report = json.loads(report_path.read_text())
    if command == "spectrum":
        assert len(report["spectrum"]) == discrete.LOW_LEVELS
        if name == "B":             # a confined model: E0 = 1 is matched
            match = report["checks"][0]
            assert match["status"] == "pass"
            assert match["values"]["e0_distance"] == pytest.approx(
                5.0e-6, rel=0.05)
    else:
        assert np.isfinite(report["checks"][0]["values"]["h_spectrum_distance"])


@pytest.mark.parametrize("command, change, field, name", [
    ("check", {"mass": "1+beta*x^2"}, "mass", "beta"),
    ("check", {"superpotential": {"kind": "deformed", "expr": "-x+alpha*i"},
               "checks": ["eigenvalues"]}, "superpotential.expr", "alpha"),
    ("spectrum", {"superpotential": {"kind": "deformed", "expr": "-x+alpha*i"}},
     "superpotential.expr", "alpha")])
def test_unbound_parameters_are_configuration_errors(tmp_path, capsys, command,
                                                     change, field, name):
    path = write_config(tmp_path, dict(MINIMAL, **change))
    assert main([command, path, "--quiet"]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: field '{field}': unbound parameter '{name}'\n")


def test_verbose_logs_stages_and_solver(tmp_path, capsys, caplog):
    path = write_config(tmp_path, CONFINED)
    plain, verbose = tmp_path / "plain.json", tmp_path / "verbose.json"

    assert main(["spectrum", path, "--quiet", "--report", str(plain)]) == 0
    assert capsys.readouterr() == ("", "")
    assert not [r for r in caplog.records if r.name.startswith("pdmsusy")]

    assert main(["spectrum", path, "--quiet", "-v",
                 "--report", str(verbose)]) == 0
    messages = [r.getMessage() for r in caplog.records
                if r.name.startswith("pdmsusy")]
    assert any(m.startswith("stage spectrum: ") for m in messages)
    # the potential's size, once for the one system built
    system = build_second_order(load_config(path).spec)
    tree, unique = node_counts(system.vtilde)
    assert tree > unique > 0
    assert [m for m in messages if "potential" in m] == [
        f"order-2 potential: {tree} tree nodes, {unique} unique"]
    solver = [m for m in messages if m.startswith("tridiagonal eigenvalues")]
    assert len(solver) == 1
    for part in ("n=99,", "16 lowest", "sweeps per grid (coarse to fine) []",
                 "largest phase step", "largest kappa"):
        assert part in solver[0]
    assert "winding count" not in solver[0]     # it is the level count
    assert "pdmsusy.cli: stage spectrum: " in capsys.readouterr().err

    # the logging leaves the report alone, and is off again afterwards
    reports = [json.loads(p.read_text()) for p in (plain, verbose)]
    for report in reports:
        report.pop("wall_clock_seconds")
    assert reports[0] == reports[1]
    caplog.clear()
    assert main(["spectrum", path, "--quiet"]) == 0
    assert capsys.readouterr() == ("", "")
    assert not caplog.records


@pytest.mark.parametrize("payload", [MINIMAL, CONFINED],
                         ids=["order1", "order2"])
def test_verbose_leaves_the_residual_reports_alone(tmp_path, capsys, caplog,
                                                   payload):
    # the residual checks and the convergence study share the base grid's
    # residuals, so -v logs one residual line per grid of the study
    path = write_config(tmp_path, dict(
        payload, checks=["pseudo", "cpt", "susy", "convergence"]))
    runs = []
    for flags in ([], ["-v"]):
        report = tmp_path / f"report{len(runs)}.json"
        code = main(["check", path, "--quiet", "--report", str(report),
                     *flags])
        runs.append((code, json.loads(report.read_text())))
        runs[-1][1].pop("wall_clock_seconds")
    assert runs[0] == runs[1]
    n, order = payload["grid"]["points"], payload["order"]
    lines = [f"constraint residuals: n={m}, order {order}, product "
             "half-width 2" for m in (n, 2 * n - 1, 4 * n - 3)]
    assert [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("constraint residuals")] == lines
    err = capsys.readouterr().err
    assert [line for line in err.splitlines()
            if line.startswith("pdmsusy.discrete: constraint residuals")] == [
        f"pdmsusy.discrete: {line}" for line in lines]


def test_failed_allocation_is_a_numerical_failure(tmp_path, capsys,
                                                  monkeypatch):
    # an array larger than the memory left (the nodes of a grid of 10^12
    # points, say) exits 3 and names the stage it failed in.  The
    # allocation is faked: a real one of that size may be granted under
    # memory overcommit, and the process killed when it is touched
    message = ("Unable to allocate 7.28 TiB for an array with shape "
               "(1000000000000,) and data type float64")
    args = [message]

    def refuse(self):
        raise MemoryError(*args)

    monkeypatch.setattr(discrete.Grid, "nodes", refuse)
    path = write_config(tmp_path, dict(
        CONFINED, output={"curves": str(tmp_path / "curves.csv")}))
    assert main(["spectrum", path, "--quiet"]) == 3
    assert capsys.readouterr() == (
        "", f"numerical failure [stage spectrum]: {message}\n")
    assert main(["curves", path, "--quiet"]) == 3
    assert capsys.readouterr() == (
        "", f"numerical failure [stage curves]: {message}\n")
    args.clear()            # one without a message
    assert main(["spectrum", path, "--quiet"]) == 3
    assert capsys.readouterr() == (
        "", "numerical failure [stage spectrum]: out of memory\n")
    assert not (tmp_path / "curves.csv").exists()


class _ClosedStdout:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_closed_stdout_keeps_report_and_exit_code(tmp_path, monkeypatch,
                                                  capsys):
    rough = write_config(tmp_path, {
        "order": 1, "mass": "1/(1+x^2)",
        "superpotential": {"kind": "deformed", "expr": "x^2+i*x"},
        "susy_constants": [1.0],
        "grid": {"xmin": -2.0, "xmax": 2.0, "points": 33},
        "checks": ["riccati"],
    })
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    for argv, code in ((["check", rough], 0),
                       (["check", rough, "--tol", "identity=1e-30"], 1)):
        report = tmp_path / f"report{code}.json"
        assert main(argv + ["--report", str(report)]) == code
        assert json.loads(report.read_text())["passed"] == (code == 0)
    assert capsys.readouterr().err == ""


def test_closed_stdout_pipe_ends_quietly(tmp_path):
    # the pipe has no reader before the child starts, so its first write
    # fails, as under "pdmsusy paper-examples | head" when head exits early;
    # stderr holds the -v log and nothing else
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    report = tmp_path / "report.json"
    read, write = os.pipe()
    os.close(read)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "pdmsusy.cli", "paper-examples", "-v",
             "--report", str(report)],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env,
            timeout=120)
    finally:
        os.close(write)
    assert child.returncode == 0
    log = child.stderr.splitlines()
    assert all(line.startswith("pdmsusy.") for line in log)
    assert "pdmsusy.cli: order-2 potential: 774 tree nodes, 102 unique" in log
    assert json.loads(report.read_text())["passed"]


def test_convergence_command(tmp_path):
    payload = {
        "order": 1, "mass": "1/(1+x^2)",
        "superpotential": {"kind": "deformed", "expr": "x^2+i*x"},
        "susy_constants": [1.0],
        "grid": {"xmin": -6.0, "xmax": 6.0, "points": 101},
        "checks": ["riccati"],   # the command forces the convergence check
    }
    path = write_config(tmp_path, payload)
    report_path = tmp_path / "conv.json"
    assert main(["convergence", path, "--refinements", "3", "--quiet",
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    conv = report["checks"][0]
    assert conv["name"] == "convergence"
    for name in ("pseudo", "cpt", "susy"):
        assert 1.7 <= conv["values"][f"{name}_order"] <= 2.3
    assert main(["convergence", path, "--refinements", "2", "--quiet"]) == 2
    # a slope window above the measured orders fails the study
    assert main(["convergence", path, "--refinements", "3", "--quiet",
                 "--tol", "slope_min=2.2", "--report", str(report_path)]) == 1
    conv = json.loads(report_path.read_text())["checks"][0]
    assert (conv["status"], conv["tolerance"]) == ("fail", 2.2)
    assert "reason" not in conv


@pytest.mark.parametrize("refinements", [8, 1100, 20000])
def test_convergence_past_the_dense_budget_fails_first(
        tmp_path, capsys, monkeypatch, refinements):
    def refuse(*args):
        raise AssertionError("residuals computed past the dense budget")

    monkeypatch.setattr(discrete, "constraint_residuals", refuse)
    path = write_config(tmp_path, MINIMAL)     # 33 points
    assert main(["convergence", path, "--refinements", str(refinements),
                 "--quiet"]) == 3
    # the refinement chain stops at its first grid past the limit, 32 *
    # 2^7 + 1 points (the 8th grid), however many refinements are asked
    assert capsys.readouterr().err == (
        "numerical failure [stage convergence]: dense budget is n <= 4096, "
        "got 4097\n")


@pytest.mark.parametrize("check", ["pseudo", "conjugate_closure"])
def test_dense_limited_checks_refuse_before_assembly(tmp_path, capsys,
                                                     monkeypatch, check):
    def refuse(*args):
        raise AssertionError("operator assembled past the dense budget")

    monkeypatch.setattr(discrete, "assemble_hamiltonian", refuse)
    monkeypatch.setattr(discrete, "assemble_charge", refuse)
    path = write_config(tmp_path, dict(
        MINIMAL, grid=dict(MINIMAL["grid"], points=4097), checks=[check]))
    assert main(["check", path, "--quiet"]) == 3
    assert capsys.readouterr().err == (
        f"numerical failure [stage {check}]: dense budget is n <= 4096, "
        "got 4097\n")


def test_paper_examples_battery():
    report = paper_examples()
    assert report.passed
    # perfbench/reference.json compares these names exactly
    assert [(c.name, c.tolerance) for c in report.checks] == [
        *((f"wm_recovery_n{order}_alpha{alpha}", 1e-12)
          for order in (1, 2) for alpha in ("0.5", "1", "2", "0")),
        ("u0_triple_agreement", 1e-10),
        ("delta_v_general_reduction", 1e-10),
        ("potential_general_reduction", 1e-10),
        ("riccati_first_order", 1e-9),
        ("riccati_second_order", 1e-9),
        ("quadratic_eigenvalues", 1e-12),
        ("symmetry_defects", 1e-12)]
    residuals = [c.values["residual"] for c in report.checks
                 if "residual" in c.values]
    assert max(residuals) <= 1e-9


def test_config_spec_uses_grid_as_domain(tmp_path):
    spec = load_config(write_config(tmp_path, MINIMAL)).spec
    assert (spec.mass.x_min, spec.mass.x_max) == (-2.0, 2.0)
    assert spec.order == 1


def test_convergence_reuses_base_grid_residuals(monkeypatch):
    calls = []
    residuals = discrete.constraint_residuals

    def counted(*args):
        calls.append(args[0].n)
        return residuals(*args)

    monkeypatch.setattr(discrete, "constraint_residuals", counted)
    run(parse_config_dict(dict(MINIMAL, checks=["pseudo", "convergence"])),
        refinements=3)
    assert calls == [33, 65, 129]


def test_spectral_checks_share_one_solve_of_h(monkeypatch):
    # conjugate_closure and spectrum read the same certified levels of H;
    # only a widened spectrum window would solve again
    calls = []
    solve = discrete.lowest_levels

    def counted(M, count=discrete.LOW_LEVELS):
        calls.append(count)
        return solve(M, count)

    monkeypatch.setattr(discrete, "lowest_levels", counted)
    names = ["conjugate_closure", "spectrum"]
    both = run(parse_config_dict(dict(CONFINED, checks=names)))
    assert calls == [discrete.LOW_LEVELS]
    for name, outcome in zip(names, both.checks):
        alone = run(parse_config_dict(dict(CONFINED, checks=[name])))
        assert alone.checks[0].values == outcome.values


SEEDED_ORDER2 = {
    "order": 2, "mass": "1.2+0.3*cos(0.8*x)",
    "superpotential": {"kind": "deformed",
                       "expr": "1.5+0.2*x^2+i*(0.6*x+0.3*sin(x))"},
    "susy_constants": [-2.5, 1.2],
    "grid": {"xmin": -1.5, "xmax": 1.5, "points": 101},
    "checks": ["delta_v", "u0_routes", "riccati"],
}


def test_identity_checks_share_one_evaluation(monkeypatch):
    # delta_v, u0_routes and riccati read one evaluation at the identity
    # samples; delta_v adds one of Vtilde at the mirrored samples
    config = parse_config_dict(SEEDED_ORDER2)
    xs = config.spec.mass.interior_points(cli.IDENTITY_SAMPLES)
    calls = []
    evaluate = cli.evaluate_many

    def counted(e, points, env=None):
        calls.append((e, np.array(points)))
        return evaluate(e, points, env)

    for module in (cli, discrete):
        monkeypatch.setattr(module, "evaluate_many", counted)
    joint = run(config)
    system = build_second_order(config.spec)
    assert [len(e) if isinstance(e, tuple) else e for e, _ in calls] == [
        len(calls[0][0]), system.vtilde]
    assert calls[0][1].tobytes() == xs.tobytes()
    assert calls[1][1].tobytes() == (-xs).tobytes()
    assert "samples" in joint.wall_clock_seconds
    for name, outcome in zip(SEEDED_ORDER2["checks"], joint.checks):
        alone = run(parse_config_dict(dict(SEEDED_ORDER2, checks=[name])))
        assert repr(alone.checks[0].values) == repr(outcome.values)
        assert outcome.status == "pass"


def test_verbose_logs_the_identity_samples_once(tmp_path, capsys):
    path = write_config(tmp_path, SEEDED_ORDER2)
    assert main(["check", path, "--quiet", "-v"]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines()
             if "identity samples" in line]
    assert len(lines) == 1
    assert re.fullmatch(r"pdmsusy\.cli: identity samples: 100 points, "
                        r"\d+ expressions, \d+ unique nodes", lines[0])


def test_identity_sample_pole_names_the_samples_stage(tmp_path, capsys):
    # |W_m| = 1e-7 at x = 0, one of the identity samples: (2 W_m)^2 in
    # phi' falls below the pole tolerance, while every quantity of delta_v,
    # Vtilde's 4 m W_m^2 = 4e-12 among them, stays clear of it
    payload = {
        "order": 2, "mass": "100",
        "superpotential": {"kind": "deformed", "expr": "1e-7+i*x"},
        "susy_constants": [-3.0, 2.0],
        "grid": {"xmin": -1.546875, "xmax": 1.578125, "points": 101},
        "checks": ["delta_v", "riccati"],
    }
    config = parse_config_dict(payload)
    assert 0.0 in config.spec.mass.interior_points(cli.IDENTITY_SAMPLES)
    run(parse_config_dict(dict(payload, checks=["delta_v"])))
    assert main(["check", write_config(tmp_path, payload), "--quiet"]) == 3
    assert capsys.readouterr().err == (
        "numerical failure [stage samples]: pole hit in "
        "'2/(2*(1e-07+i*x)*(2*(1e-07+i*x)))' at x=0.0\n")


def test_convergence_samples_its_coefficients_once(tmp_path, monkeypatch):
    # the four grids' coefficients come from one evaluation at the finest
    # grid's interior nodes and one mass validation at all their
    # midpoints, and give the residuals that each grid's own gives
    path = write_config(tmp_path, SEEDED_ORDER2)
    argv = ["convergence", path, "--refinements", "4", "--quiet",
            "--report", str(tmp_path / "report.json")]
    calls, masses = [], []
    evaluate, validate = discrete.evaluate_many, MassFn.validate

    def counted(e, xs, env=None):
        calls.append((len(e) if isinstance(e, tuple) else 1, len(xs)))
        return evaluate(e, xs, env)

    def validated(self, env=None, samples=None):
        if samples is not None:         # not the check at config load
            masses.append(len(samples))
        return validate(self, env, samples)

    monkeypatch.setattr(discrete, "evaluate_many", counted)
    monkeypatch.setattr(MassFn, "validate", validated)
    assert main(argv) == 0
    shared = json.loads((tmp_path / "report.json").read_text())
    # Vtilde, lead, sub and u0 at the 799 interior nodes of 801
    assert calls == [(4, 799)]
    assert masses == [100 + 200 + 400 + 800]

    def refuse(*args):
        raise cli.EvaluationError("no shared sampling")

    calls.clear()
    monkeypatch.setattr(discrete, "coefficient_samples", refuse)
    assert main(argv) == 0
    alone = json.loads((tmp_path / "report.json").read_text())
    assert calls == [(1, 99), (3, 99), (1, 199), (3, 199), (1, 399),
                     (3, 399), (1, 799), (3, 799)]
    assert alone["checks"] == shared["checks"]


def test_verbose_logs_the_operator_coefficients_once(tmp_path, capsys):
    path = write_config(tmp_path, SEEDED_ORDER2)
    assert main(["convergence", path, "--quiet", "-v"]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines()
             if "operator coefficients" in line]
    assert len(lines) == 1
    assert re.fullmatch(r"pdmsusy\.discrete: operator coefficients: 3 grids, "
                        r"399 points, 700 midpoints, 4 expressions, "
                        r"\d+ unique nodes", lines[0])


# A node of the second grid of the chain on [-1.5, 1.5] from 33 points
# that the first grid lacks, and a midpoint of the second grid at least
# 2.2e-3 from each of the 257 samples the mass is checked at on loading
SECOND_GRID_NODE, SECOND_GRID_MIDPOINT = 0.046875, 0.5859375


@pytest.mark.parametrize("payload, code, message", [
    # W_m vanishes at the node, so u0 (and Vtilde) have a pole there
    ({"order": 2, "mass": "1",
      "superpotential": {"kind": "deformed",
                         "expr": f"x-{SECOND_GRID_NODE!r}"},
      "susy_constants": [-3.0, 2.0]}, 3,
     "numerical failure [stage convergence]: pole hit in "
     "'0/(2*(x-0.046875))' at x=0.046875\n"),
    # a dip of the mass to -1 at the midpoint, 1e-3 wide
    ({"order": 1,
      "mass": f"1-2*exp(-((x-{SECOND_GRID_MIDPOINT!r})/0.001)^2)",
      "superpotential": {"kind": "deformed", "expr": "1.5+0.2*x^2+i*x"},
      "susy_constants": [1.0]}, 2,
     "configuration error [stage convergence]: mass not positive at "
     "x=0.5859375: m=(-1+0j)\n"),
], ids=["u0_pole", "mass_dip"])
def test_failed_shared_sampling_fails_grid_by_grid(tmp_path, capsys,
                                                    monkeypatch, payload,
                                                    code, message):
    # the shared sampling of the chain fails, and each grid then evaluates
    # its own: the first grid's residuals are computed, and the second
    # grid fails with the message an evaluation grid by grid gives
    calls = []
    residuals = discrete.constraint_residuals

    def counted(*args):
        calls.append(args[0].n)
        return residuals(*args)

    monkeypatch.setattr(discrete, "constraint_residuals", counted)
    path = write_config(tmp_path, dict(
        payload, grid={"xmin": -1.5, "xmax": 1.5, "points": 33},
        checks=["pseudo"]))
    assert main(["convergence", path, "--quiet"]) == code
    assert capsys.readouterr().err == message
    assert calls == [33]


def test_default_tolerances_are_complete():
    for name in ("identity", "closure", "slope_min", "slope_max",
                 "discrete_residual", "eigen_match"):
        assert name in DEFAULT_TOLERANCES


def test_readme_names_every_check_and_tolerance():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    for name in (*KNOWN_CHECKS, *DEFAULT_TOLERANCES):
        assert f"`{name}`" in readme, name
