"""Golden CLI outputs: `bound` and `simulate` CSVs must stay byte-identical.

The files under tests/fixtures/ were written by the code before the block
walk, the simulation entry point and the field-spec envelopes were
consolidated; a refactor that changes any printed digit fails here.  The
bound CSVs cover vacuous rows (truncation_k 1), diverged rows (10000),
walks that stop inside the refined prefix (k <= 32) and walks that reach
the batched grid scans (k > 32).

Regenerate (only for an intended output change, logged in CHANGES.md) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import json
import sys
from pathlib import Path

import numpy as np

from lilbound import FieldSpec, GridMeasureSpace, envelope_for_field_spec, envelope_to_json
from lilbound.cli import run

FIXTURES = Path(__file__).parent / "fixtures"
ENVELOPE = "rademacher_lp_envelope.json"
SPEC = "rademacher_lp_spec.json"

# output file -> CLI arguments; {env} and {spec} name the fixture inputs
CASES = {
    "bound_optimize_r0.5.csv": ["bound", "--envelope", "{env}", "--optimize", "--u-grid", "e:40:9", "--r", "0.5"],
    "bound_optimize_r1.0.csv": ["bound", "--envelope", "{env}", "--optimize", "--u-grid", "e:40:9", "--r", "1.0"],
    "bound_d4_r1.0.csv": ["bound", "--envelope", "{env}", "--d", "4", "--r", "1.0"],
    "simulate_r0.5.csv": [
        "simulate", "--spec", "{spec}", "--n-max", "200", "--trials", "300",
        "--seed", "17", "--r", "0.5", "--u-grid", "1:4:9",
    ],
}


def _spec() -> FieldSpec:
    return FieldSpec(family="rademacher", spaces=(GridMeasureSpace(np.array([1.0])),), p=2.0)


def _envelope_text() -> str:
    return json.dumps(envelope_to_json(envelope_for_field_spec(_spec())))


def _run_case(name: str, out_dir: Path) -> bytes:
    out = out_dir / name
    argv = [
        a.format(env=FIXTURES / ENVELOPE, spec=FIXTURES / SPEC) for a in CASES[name]
    ] + ["--out", str(out)]
    assert run(argv) == 0
    return out.read_bytes()


def test_field_spec_envelope_matches_fixture():
    assert _envelope_text() == (FIXTURES / ENVELOPE).read_text()


def test_cli_outputs_match_fixtures(tmp_path):
    for name in CASES:
        assert _run_case(name, tmp_path) == (FIXTURES / name).read_bytes(), name


def test_bound_fixtures_cover_every_walk_regime():
    ks = set()
    for name in CASES:
        if name.startswith("bound"):
            lines = (FIXTURES / name).read_text().splitlines()[1:]
            ks.update(int(line.split(",")[4]) for line in lines)
    assert 1 in ks and 10_000 in ks
    assert any(1 < k <= 32 for k in ks)
    assert any(32 < k < 10_000 for k in ks)


if __name__ == "__main__":
    FIXTURES.mkdir(exist_ok=True)
    (FIXTURES / ENVELOPE).write_text(_envelope_text())
    (FIXTURES / SPEC).write_text(json.dumps(_spec().to_json()))
    for case in CASES:
        _run_case(case, FIXTURES)
    sys.exit(0)
