"""Command-line interface: subcommand round trips, formats, exit codes."""

import csv
import json
import math

import numpy as np
import pytest

from lilbound import (
    AnalyticCovering,
    FieldSpec,
    GridFunction,
    GridMeasureSpace,
    MomentEnvelope,
    covering_to_json,
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
    assert header == ["u", "bound", "d", "w", "truncation_k", "vacuous_flag"]
    assert len(rows) == 5
    values = [float(r[1]) for r in rows]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert float(rows[0][0]) == pytest.approx(math.e, rel=1e-12)


def test_bound_subcommand_stdout_when_no_out(tmp_path, capsys):
    env = MomentEnvelope.from_callable(
        lambda L: 0.5 * L, domain_low=2.0, L_grid=np.geomspace(2.0, 1e8, 257)
    )
    env_path = _write_json(tmp_path / "env.json", envelope_to_json(env))
    code = run(["bound", "--envelope", env_path, "--u-grid", "e:10:3", "--d", "2"])
    assert code == 0
    header, rows = _read_csv_rows(capsys.readouterr().out)
    assert header[0] == "u" and len(rows) == 3


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
