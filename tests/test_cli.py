"""Command-line interface: subcommand round trips, formats, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import lilbound
from lilbound import (
    AnalyticCovering,
    FieldSpec,
    GridFunction,
    GridMeasureSpace,
    MomentEnvelope,
    covering_to_json,
    envelope_for_field_spec,
    envelope_to_json,
    grid_function_to_json,
    mixed_norm,
    rosenthal_upper,
)
from lilbound.cli import run


def _write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _read_csv_rows(text: str):
    rows = list(csv.reader(text.strip().splitlines()))
    return rows[0], rows[1:]


def test_norm_subcommand_matches_library(tmp_path, capsys):
    rng = np.random.default_rng(20260860)
    axes = (GridMeasureSpace(rng.uniform(0.5, 1.0, 3)), GridMeasureSpace(rng.uniform(0.5, 1.0, 4)))
    f = GridFunction(axes, rng.normal(size=(3, 4)))
    fn_path = _write_json(tmp_path / "f.json", grid_function_to_json(f))
    code = run(["norm", "--function", fn_path, "--p", "2,3"])
    out = capsys.readouterr()
    assert code == 0
    doc = json.loads(out.out)
    assert doc["norm"] == pytest.approx(mixed_norm(f, (2.0, 3.0)), rel=1e-15)
    # the run config echo goes to stderr as one JSON line
    config = json.loads(out.err.strip().splitlines()[0])
    assert config["subcommand"] == "norm"


def test_norm_subcommand_rejects_wrong_exponent_count(tmp_path, capsys):
    f = GridFunction((GridMeasureSpace(np.ones(2)),), np.ones(2))
    fn_path = _write_json(tmp_path / "f.json", grid_function_to_json(f))
    assert run(["norm", "--function", fn_path, "--p", "2,3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_constants_subcommand_reports_requested_values(capsys):
    code = run(
        [
            "constants",
            "--p",
            "4.0",
            "--doob",
            "4.0",
            "--km-m",
            "2.0",
            "--km-geometric",
            "0.5,1.0",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rosenthal"] == pytest.approx(rosenthal_upper(4.0), rel=1e-15)
    assert doc["doob_factor"] == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert doc["mixingale"] == pytest.approx(2.0, rel=1e-15)

    # beta(k) = k^-3 at m = 2: m (sum_k beta(k))^(1/m) = 2 sqrt(zeta(3))
    assert run(["constants", "--km-m", "2.0", "--km-power", "3.0,1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mixingale"] == pytest.approx(2.0 * math.sqrt(1.2020569031595942), rel=1e-10)


def test_constants_subcommand_with_no_request_fails(capsys):
    assert run(["constants"]) == 1
    assert "nothing to compute" in capsys.readouterr().err


def test_bound_subcommand_writes_curve_csv(tmp_path, capsys):
    env = MomentEnvelope.from_callable(
        lambda L: 0.5 * L, domain_low=2.0, L_grid=np.geomspace(2.0, 1e8, 257)
    )
    env_path = _write_json(tmp_path / "env.json", envelope_to_json(env))
    out_path = tmp_path / "bound.csv"
    code = run(
        [
            "bound",
            "--envelope",
            env_path,
            "--norming",
            "1.0",
            "--u-grid",
            "e:20:5",
            "--optimize",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    header, rows = _read_csv_rows(out_path.read_text())
    assert header == ["u", "bound", "d", "w", "truncation_k", "vacuous_flag", "diverged"]
    assert len(rows) == 5
    values = [float(r[1]) for r in rows]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert float(rows[0][0]) == pytest.approx(math.e, rel=1e-12)


def test_bound_rows_below_r0_are_diverged_without_a_walk(tmp_path, capsys):
    # a field envelope carries r0 = 1: at r = 1/2 every row is 1, flagged
    # vacuous and diverged, with truncation_k 0; at r = 1 it walks
    spec = FieldSpec(family="rademacher", spaces=(GridMeasureSpace(np.array([1.0])),), p=2.0)
    doc = envelope_to_json(envelope_for_field_spec(spec))
    assert doc["r0"] == 1.0
    env_path = _write_json(tmp_path / "env.json", doc)
    assert run(["bound", "--envelope", env_path, "--u-grid", "e:60:4", "--optimize", "--r", "0.5"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.err)["format_version"] == "2"
    _, rows = _read_csv_rows(captured.out)
    assert [r[1:3] + r[4:] for r in rows] == [["1", "2", "0", "1", "1"]] * 4
    assert run(["bound", "--envelope", env_path, "--u-grid", "e:60:4", "--optimize", "--r", "1.0"]) == 0
    _, rows = _read_csv_rows(capsys.readouterr().out)
    assert all(r[6] == "0" and int(r[4]) > 0 for r in rows)
    assert float(rows[-1][1]) < 1.0


def test_bound_subcommand_stdout_when_no_out(tmp_path, capsys):
    env = MomentEnvelope.from_callable(
        lambda L: 0.5 * L, domain_low=2.0, L_grid=np.geomspace(2.0, 1e8, 257)
    )
    env_path = _write_json(tmp_path / "env.json", envelope_to_json(env))
    code = run(["bound", "--envelope", env_path, "--u-grid", "e:10:3", "--d", "2"])
    assert code == 0
    header, rows = _read_csv_rows(capsys.readouterr().out)
    assert header[0] == "u" and len(rows) == 3
    # a one-point grid a:a:1 is the point a
    assert run(["bound", "--envelope", env_path, "--u-grid", "5:5:1", "--d", "2"]) == 0
    header, rows = _read_csv_rows(capsys.readouterr().out)
    assert len(rows) == 1 and float(rows[0][0]) == 5.0


def test_entropy_subcommand_tabulates_nu(tmp_path, capsys):
    cov_path = _write_json(
        tmp_path / "cov.json", covering_to_json(AnalyticCovering(D=1.0, dim=1))
    )
    code = run(
        [
            "entropy",
            "--covering",
            cov_path,
            "--p",
            "2.0",
            "--sigma-coeff",
            "0.05",
            "--z-grid",
            "1:4:4",
        ]
    )
    assert code == 0
    header, rows = _read_csv_rows(capsys.readouterr().out)
    assert header == ["Z", "sigma_bar", "sigma_hat", "nu_p", "theta"]
    assert len(rows) == 4
    assert all(float(r[3]) > 0.0 for r in rows)


def test_simulate_subcommand_writes_empirical_csv(tmp_path, capsys):
    spec = FieldSpec(family="rademacher", spaces=(GridMeasureSpace(np.array([1.0])),))
    spec_path = _write_json(tmp_path / "spec.json", spec.to_json())
    out_path = tmp_path / "sim.csv"
    code = run(
        [
            "simulate",
            "--spec",
            spec_path,
            "--n-max",
            "64",
            "--trials",
            "200",
            "--seed",
            "3",
            "--r",
            "1.0",
            "--u-grid",
            "e:8:6",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    header, rows = _read_csv_rows(out_path.read_text())
    assert header == ["u", "q_hat", "cp_upper_99", "trials"]
    assert len(rows) == 6
    assert all(int(r[3]) == 200 for r in rows)
    q = [float(r[1]) for r in rows]
    assert all(0.0 <= x <= 1.0 for x in q)
    assert all(b <= a for a, b in zip(q, q[1:]))


def test_compare_subcommand_pass_and_fail_exit_codes(tmp_path, capsys):
    sim = tmp_path / "sim.csv"
    sim.write_text(
        "u,q_hat,cp_upper_99,trials\n"
        "2.72,0.1,0.15,100\n"
        "4.0,0.01,0.05,100\n"
    )
    passing = tmp_path / "bound_ok.csv"
    passing.write_text("u,bound\n2.72,0.2\n4.0,0.06\n")
    assert run(["compare", "--sim", str(sim), "--bound", str(passing)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3  # two rows plus the summary line
    failing = tmp_path / "bound_bad.csv"
    failing.write_text("u,bound\n2.72,0.2\n4.0,0.01\n")
    assert run(["compare", "--sim", str(sim), "--bound", str(failing)]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_compare_subcommand_missing_column_fails(tmp_path, capsys):
    sim = tmp_path / "sim.csv"
    sim.write_text("u,q_hat\n2.72,0.1\n")
    bound = tmp_path / "bound.csv"
    bound.write_text("u,bound\n2.72,0.2\n")
    assert run(["compare", "--sim", str(sim), "--bound", str(bound)]) == 1
    assert "missing column" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sim_text,bound_text",
    [
        ("", ""),
        ("u,q_hat,cp_upper_99,trials\n", "u,bound\n"),
        ("u,q_hat,cp_upper_99,trials\n2.72,0.1,0.2,100\n3.0,0.05\n", "u,bound\n2.72,0.5\n3.0,0.4\n"),
    ],
    ids=["zero-byte", "header-only", "short-row"],
)
def test_compare_rejects_malformed_csv(tmp_path, capsys, sim_text, bound_text):
    sim = tmp_path / "sim.csv"
    sim.write_text(sim_text)
    bound = tmp_path / "bound.csv"
    bound.write_text(bound_text)
    assert run(["compare", "--sim", str(sim), "--bound", str(bound)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "--function", "{}", "--p", "2"],
        ["bound", "--envelope", "{}"],
        ["simulate", "--spec", "{}"],
        ["entropy", "--covering", "{}", "--p", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_json_input_that_is_not_an_object_is_an_error(tmp_path, capsys, argv):
    path = _write_json(tmp_path / "list.json", [1, 2])
    assert run([path if a == "{}" else a for a in argv]) == 1
    assert "must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,doc",
    [
        (["norm", "--function", "{}", "--p", "2"], {"axes": "abc", "values": [1.0]}),
        (["bound", "--envelope", "{}"], {"kind": "grid", "p": [2.0], "L_grid": [2.0, 4.0], "g_values": [1, 1]}),
        (["entropy", "--covering", "{}", "--p", "2"], {"kind": "analytic", "D": [1.0], "d": 1}),
        (["simulate", "--spec", "{}"], {"family": "rademacher", "norm": {"kind": "lp", "p": [2.0]}, "spaces": [{"weights": [1.0]}]}),
    ],
    ids=["norm", "bound", "entropy", "simulate"],
)
def test_json_field_of_the_wrong_type_is_an_error(tmp_path, capsys, argv, doc):
    path = _write_json(tmp_path / "doc.json", doc)
    assert run([path if a == "{}" else a for a in argv]) == 1
    assert "wrong type" in capsys.readouterr().err


def test_bound_rejects_an_envelope_with_an_infinite_knot(tmp_path, capsys):
    doc = {"kind": "grid", "p": 2.0, "L_grid": [2.0, 4.0, math.inf], "g_values": [1, 1, 1]}
    assert run(["bound", "--envelope", _write_json(tmp_path / "env.json", doc)]) == 1
    assert "finite" in capsys.readouterr().err


def _mixed_envelope_doc() -> dict:
    two = (GridMeasureSpace(np.array([1.0])), GridMeasureSpace(np.array([0.4, 0.6])))
    spec = FieldSpec(family="uniform", spaces=two, norm_kind="mixed", p=(2.0, 3.0))
    return envelope_to_json(envelope_for_field_spec(spec))


def _bound_csv(tmp_path, capsys, name, doc):
    argv = ["bound", "--envelope", _write_json(tmp_path / name, doc), "--u-grid", "e:40:4", "--d", "3"]
    code = run(argv)
    return code, capsys.readouterr().out


def test_bound_reads_a_legacy_p_vec_envelope_as_its_largest_exponent(tmp_path, capsys):
    doc = _mixed_envelope_doc()
    assert doc["p"] == 3.0 and "p_vec" not in doc
    legacy = {k: v for k, v in doc.items() if k != "p"}
    legacy["p_vec"] = [2.0, 3.0]
    code_new, csv_new = _bound_csv(tmp_path, capsys, "env.json", doc)
    code_old, csv_old = _bound_csv(tmp_path, capsys, "legacy.json", legacy)
    assert code_new == code_old == 0
    assert csv_new == csv_old


@pytest.mark.parametrize("first", [-1.0, 0.0])
def test_bound_rejects_an_envelope_knot_at_a_nonpositive_order(tmp_path, capsys, first):
    doc = {"kind": "grid", "p": -2.0, "L_grid": [first, 2.0, 4.0], "g_values": [1.0, 1.0, 2.0]}
    assert run(["bound", "--envelope", _write_json(tmp_path / "env.json", doc)]) == 1
    assert "positive order" in capsys.readouterr().err


@pytest.mark.parametrize("L0,code", [(1e7, 1), (1e8, 0), (math.inf, 0), (None, 0)])
def test_bound_rejects_a_finite_L0_below_the_top_knot(tmp_path, capsys, L0, code):
    doc = {"kind": "grid", "L0": L0, "p": 2.0, "L_grid": [2.0, 1e4, 1e8], "g_values": [1.0, 2.0, 3.0]}
    assert _bound_csv(tmp_path, capsys, "env.json", doc)[0] == code


@pytest.mark.parametrize(
    "argv,doc",
    [
        (["entropy", "--covering", "{}", "--p", "2"], {"kind": "analytic", "D": 1.0, "d": 2.9}),
        (["entropy", "--covering", "{}", "--p", "2"], {"kind": "analytic", "D": 1.0, "d": "2"}),
        (["entropy", "--covering", "{}", "--p", "2"], {"kind": "analytic", "D": 1.0, "d": True}),
        (
            ["simulate", "--spec", "{}", "--n-max", "8", "--trials", "4"],
            {"family": "rademacher", "norm": {"kind": "cl", "p": 2.0}, "spaces": [{"weights": [1.0]}], "t_size": 2.5},
        ),
        (
            ["simulate", "--spec", "{}", "--n-max", "8", "--trials", "4"],
            {"family": "rademacher", "norm": {"kind": "cl", "p": 2.0}, "spaces": [{"weights": [1.0]}], "t_size": True},
        ),
        (
            ["norm", "--function", "{}", "--p", "2"],
            {"axes": [{"size": 2.7, "weights": [0.5, 0.5]}], "values": [1.0, -1.0]},
        ),
    ],
    ids=["d-float", "d-string", "d-bool", "t_size-float", "t_size-bool", "size-float"],
)
def test_integer_json_field_that_is_not_an_integer_is_an_error(tmp_path, capsys, argv, doc):
    path = _write_json(tmp_path / "doc.json", doc)
    assert run([path if a == "{}" else a for a in argv]) == 1
    assert "integer" in capsys.readouterr().err


_ENTROPY = ["entropy", "--covering", "{}", "--p", "2"]
_SIMULATE = ["simulate", "--spec", "{}", "--n-max", "8", "--trials", "4"]
_SCALAR_SPEC = {"norm": {"kind": "lp", "p": 2.0}, "spaces": [{"weights": [1.0]}]}
_BOUND = ["bound", "--envelope", "{}", "--u-grid", "e:12:3", "--d", "3"]
_ENVELOPE = {"kind": "grid", "p": 2.0, "L_grid": [2.0, 4.0], "g_values": [1.0, 2.0]}
_NORM = ["norm", "--function", "{}", "--p", "2"]


@pytest.mark.parametrize(
    "argv,doc",
    [
        (_ENTROPY, {"kind": "analytic", "D": True, "d": 2}),
        (_ENTROPY, {"kind": "analytic", "D": "1.0", "d": 2}),
        (_ENTROPY, {"kind": "analytic", "D": 1.0, "d": 2, "l": True}),
        (_ENTROPY, {"kind": "analytic", "D": 1.0, "d": 2, "C_cov": True}),
        (_SIMULATE, {"family": "uniform", **_SCALAR_SPEC, "a": True}),
        (_SIMULATE, {"family": "uniform", **_SCALAR_SPEC, "a": "1.0"}),
        (_SIMULATE, {"family": "weibull", **_SCALAR_SPEC, "beta": True}),
        (_SIMULATE, {"family": "rademacher", **_SCALAR_SPEC, "dependence": "martingale", "kappa": False}),
        (_SIMULATE, {"family": "rademacher", **_SCALAR_SPEC, "norm": {"kind": "lp", "p": True}}),
        (_SIMULATE, {"family": "rademacher", **_SCALAR_SPEC, "norm": {"kind": "lp", "p": "3"}}),
        (_SIMULATE, {"family": "gaussian", **_SCALAR_SPEC, "sigma": True}),
        (_SIMULATE, {"family": "rademacher", **_SCALAR_SPEC, "spaces": [{"weights": ["0.5", True]}]}),
        (_BOUND, {**_ENVELOPE, "p": True}),
        (_BOUND, {**_ENVELOPE, "L_grid": ["2", 4]}),
        (_BOUND, {**_ENVELOPE, "g_values": [True, 2]}),
        (_BOUND, {**_ENVELOPE, "r0": True}),
        (_BOUND, {**_ENVELOPE, "r0": "1.0"}),
        (_ENTROPY, {"kind": "empirical", "thresholds": [True, "0.5"]}),
        (_NORM, {"axes": [{"size": 2, "weights": [0.5, 0.5]}], "values": ["1", True]}),
    ],
    ids=[
        "D-bool", "D-string", "l-bool", "C_cov-bool", "a-bool", "a-string", "beta-bool", "kappa-bool",
        "p-bool", "p-string", "sigma-bool", "weights-string-bool", "envelope-p-bool", "L_grid-string",
        "g_values-bool", "thresholds-bool-string", "values-string-bool", "envelope-r0-bool",
        "envelope-r0-string",
    ],
)
def test_float_json_field_that_is_not_a_number_is_an_error(tmp_path, capsys, argv, doc):
    path = _write_json(tmp_path / "doc.json", doc)
    assert run([path if a == "{}" else a for a in argv]) == 1
    assert "must be a number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"family": "gaussian", **_SCALAR_SPEC, "sigma": math.nan},
        {"family": "weibull", **_SCALAR_SPEC, "beta": math.nan},
        {"family": "uniform", **_SCALAR_SPEC, "a": math.nan},
    ],
    ids=["sigma-nan", "beta-nan", "a-nan"],
)
def test_simulate_rejects_a_non_finite_distribution_parameter(tmp_path, capsys, doc):
    # sigma and beta used to simulate all-NaN sups, and a raised an uncaught OverflowError
    path = _write_json(tmp_path / "spec.json", doc)
    assert run([path if a == "{}" else a for a in _SIMULATE]) == 1
    assert "must be finite" in capsys.readouterr().err


_ANALYTIC = {"kind": "analytic", "D": 1.0, "d": 1}


@pytest.mark.parametrize(
    "argv,doc",
    [
        (_ENTROPY, {**_ANALYTIC, "D": math.nan}),
        (_ENTROPY, {**_ANALYTIC, "D": math.inf}),
        (_ENTROPY, {**_ANALYTIC, "C_cov": math.nan}),
        (_ENTROPY, {"kind": "empirical", "thresholds": [1.0, math.nan, 0.5]}),
        (_ENTROPY + ["--sigma-coeff", "nan"], _ANALYTIC),
        (_ENTROPY + ["--sigma-coeff", "inf"], _ANALYTIC),
        (_BOUND, {**_ENVELOPE, "p": math.nan}),
        (_BOUND, {**_ENVELOPE, "r0": math.nan}),
        (_BOUND, {**_ENVELOPE, "r0": math.inf}),
        (_BOUND, {**_ENVELOPE, "r0": -1.0}),
    ],
    ids=[
        "D-nan", "D-inf", "C_cov-nan", "thresholds-nan", "sigma-coeff-nan", "sigma-coeff-inf", "envelope-p-nan",
        "envelope-r0-nan", "envelope-r0-inf", "envelope-r0-negative",
    ],
)
def test_entropy_and_bound_reject_a_non_finite_input(tmp_path, capsys, argv, doc):
    # each used to exit 0: entropy printed finite rows for the NaN covering
    # fields and NaN or inf rows for the others, bound printed rows at p = NaN
    path = _write_json(tmp_path / "doc.json", doc)
    assert run([path if a == "{}" else a for a in argv]) == 1
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["0.5", "nan"])
def test_entropy_checks_p_before_the_rosenthal_constant(tmp_path, capsys, p):
    # both used to fail inside K_R(pZ) with "rosenthal_upper requires p > 1",
    # where --p 1.5 got the entropy functional's own message
    path = _write_json(tmp_path / "cov.json", _ANALYTIC)
    assert run(["entropy", "--covering", path, "--p", p]) == 1
    assert "p must be finite and >= 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,doc",
    [
        (_BOUND + ["--norming", "nan"], _ENVELOPE),
        (_BOUND + ["--norming", "inf"], _ENVELOPE),
        (_SIMULATE + ["--r", "nan"], {"family": "rademacher", **_SCALAR_SPEC}),
    ],
    ids=["bound-norming-nan", "bound-norming-inf", "simulate-r-nan"],
)
def test_a_non_finite_norming_power_is_an_error(tmp_path, capsys, argv, doc):
    # bound failed later at NaN ("tail conversion requires z > 0") and printed
    # a curve at inf; simulate failed at NaN on its own sups
    path = _write_json(tmp_path / "doc.json", doc)
    assert run([path if a == "{}" else a for a in argv]) == 1
    assert "norming power" in capsys.readouterr().err


def test_missing_input_file_is_reported_not_raised(capsys):
    assert run(["norm", "--function", "/nonexistent.json", "--p", "2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_json_is_reported_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["norm", "--function", str(bad), "--p", "2"]) == 1
    assert "malformed JSON" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "usage" in capsys.readouterr().out.lower()


@pytest.mark.parametrize("module", ["lilbound", "lilbound.cli"])
def test_python_dash_m_runs_the_cli(module):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lilbound.__file__)))
    ok = subprocess.run(
        [sys.executable, "-m", module, "constants", "--p", "4"], env=env, capture_output=True, text=True
    )
    assert ok.returncode == 0
    assert json.loads(ok.stdout.splitlines()[-1])["rosenthal"] == pytest.approx(rosenthal_upper(4.0))
    bad = subprocess.run([sys.executable, "-m", module, "constants", "--bogus"], env=env, capture_output=True)
    assert bad.returncode != 0


def test_unknown_subcommand_exits_one(capsys):
    assert run(["frobnicate"]) == 1


def test_bad_grid_spec_is_an_error(tmp_path, capsys):
    env = MomentEnvelope.from_callable(
        lambda L: 0.5 * L, domain_low=2.0, L_grid=np.geomspace(2.0, 1e8, 257)
    )
    env_path = _write_json(tmp_path / "env.json", envelope_to_json(env))
    assert run(["bound", "--envelope", env_path, "--u-grid", "10:2:5"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["nan:12:3", "2:inf:3", "e:nan:3"])
def test_non_finite_grid_bounds_are_an_error(tmp_path, capsys, grid):
    spec = FieldSpec(family="rademacher", spaces=(GridMeasureSpace(np.array([1.0])),))
    spec_path = _write_json(tmp_path / "spec.json", spec.to_json())
    out_path = tmp_path / "sim.csv"
    args = ["simulate", "--spec", spec_path, "--n-max", "8", "--trials", "10"]
    assert run(args + ["--u-grid", grid, "--out", str(out_path)]) == 1
    assert "bad grid spec" in capsys.readouterr().err
    assert not out_path.exists()


def test_run_config_echo_lists_inputs(tmp_path, capsys):
    spec = FieldSpec(family="rademacher", spaces=(GridMeasureSpace(np.array([1.0])),))
    spec_path = _write_json(tmp_path / "spec.json", spec.to_json())
    out_path = str(tmp_path / "sim.csv")
    run(
        [
            "simulate",
            "--spec",
            spec_path,
            "--n-max",
            "8",
            "--trials",
            "10",
            "--u-grid",
            "e:5:3",
            "--out",
            out_path,
        ]
    )
    config = json.loads(capsys.readouterr().err.strip().splitlines()[0])
    assert config["inputs"] == [spec_path]
    assert config["output"] == out_path
    assert config["parameters"]["trials"] == 10
