"""Command-line interface.

Subcommands: norm (mixed norms of grid functions), constants (Rosenthal /
Doob / mixingale coefficients), bound (tail bound curves), entropy (nu_p(Z)
tables), simulate (Monte Carlo tail estimates), compare (dominance report).

Every run echoes its effective configuration as one JSON line to stderr;
together with the seed that reproduces the outputs bit-exactly.  CSV floats
carry 17 significant digits so files re-ingest without loss.  Exit codes:
0 success, 1 usage or configuration error, 2 dominance failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .constants import (
    MixingProfile,
    doob_factor,
    mixingale_coefficient,
    rosenthal_upper,
)
from .envelopes import envelope_from_json
from .grid_spaces import grid_function_from_json, mixed_norm
from .lil_bounds import TailBoundCurve, evaluate_bound_curve
from .partitions import NormingSequence
from .entropy_ct import covering_from_json, nu_p_detail
from .simulate import EmpiricalCurve, FieldSpec, dominance_report, empirical_Q, simulate_many

__all__ = ["RunConfig", "run", "main"]

FORMAT_VERSION = "2"


@dataclass
class RunConfig:
    subcommand: str
    parameters: dict = field(default_factory=dict)
    inputs: list = field(default_factory=list)
    output: str = ""
    format_version: str = FORMAT_VERSION

    def echo(self) -> None:
        print(json.dumps(asdict(self), sort_keys=True), file=sys.stderr)


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _write_csv(path: str, header, rows) -> None:
    if path:
        handle = open(path, "w", newline="")
    else:
        handle = io.StringIO()
    try:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
        if not path:
            sys.stdout.write(handle.getvalue())
    finally:
        handle.close()


def _read_csv(path: str) -> dict:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty CSV, no header row")
        cols = {name: [] for name in header}
        for row in reader:
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num} has {len(row)} cells, the header has {len(header)}"
                )
            for name, cell in zip(header, row):
                cols[name].append(cell)
    return cols


def _parse_grid(text: str, *, log: bool) -> np.ndarray:
    """Parse 'a:b:n' into n points from a to b; 'e' is accepted as a bound, nan and inf are not."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must look like a:b:n, got {text!r}")
    lo = math.e if parts[0].strip() == "e" else float(parts[0])
    hi = math.e if parts[1].strip() == "e" else float(parts[1])
    n = int(parts[2])
    if n < 1 or not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo or (log and lo <= 0.0):
        raise ValueError(f"bad grid spec {text!r}")
    if n == 1:
        return np.array([lo])
    return np.geomspace(lo, hi, n) if log else np.linspace(lo, hi, n)


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be a JSON object, got {type(doc).__name__}")
    return doc


def _cmd_norm(args) -> int:
    f = grid_function_from_json(_load_json(args.function))
    p = tuple(float(x) for x in args.p.split(","))
    if len(p) != len(f.axes):
        raise ValueError(f"got {len(p)} exponents for {len(f.axes)} axes")
    value = mixed_norm(f, p)
    print(json.dumps({"norm": value, "p": list(p)}))
    return 0


def _cmd_constants(args) -> int:
    out = {}
    if args.p is not None:
        out["rosenthal"] = rosenthal_upper(args.p, symmetric=args.symmetric)
        out["p"] = args.p
    if args.doob is not None:
        out["doob_factor"] = doob_factor(args.doob)
    if args.km_m is not None:
        if args.km_geometric is not None:
            ratio, coeff = args.km_geometric
            profile = MixingProfile.geometric(ratio=ratio, coeff=coeff)
        elif args.km_power is not None:
            power, coeff = args.km_power
            profile = MixingProfile.power(power=power, coeff=coeff)
        else:
            raise ValueError("--km-m needs --km-geometric or --km-power")
        value = mixingale_coefficient(args.km_m, profile)
        out["mixingale"] = value if math.isfinite(value) else "inf"
    if not out:
        raise ValueError("nothing to compute: pass --p, --doob, or --km-m")
    print(json.dumps(out))
    return 0


def _cmd_bound(args) -> int:
    env = envelope_from_json(_load_json(args.envelope))
    u_grid = _parse_grid(args.u_grid, log=True)
    norming = NormingSequence.iterated_log(args.norming)
    curve = evaluate_bound_curve(
        env,
        norming,
        u_grid,
        optimize=args.optimize,
        d=args.d,
        w=args.w,
    )
    rows = zip(
        curve.u_grid,
        curve.values,
        curve.d_values,
        curve.w_values,
        curve.truncation_k,
        curve.vacuous_flags.astype(int),
        curve.diverged_flags.astype(int),
    )
    _write_csv(args.out, ["u", "bound", "d", "w", "truncation_k", "vacuous_flag", "diverged"], rows)
    return 0


def _cmd_entropy(args) -> int:
    covering = covering_from_json(_load_json(args.covering))
    z_grid = _parse_grid(args.z_grid, log=False)
    theta = None
    if args.theta_grid:
        theta = tuple(float(x) for x in args.theta_grid.split(","))
    rows = []
    for Z in z_grid:
        sig_bar = args.sigma_coeff * Z**args.sigma_power
        sig_hat = rosenthal_upper(args.p * Z) ** args.p * sig_bar
        detail = nu_p_detail(sig_hat, args.p, Z, covering=covering, theta_grid=theta)
        rows.append((Z, sig_bar, sig_hat, detail.value, detail.best_theta))
    _write_csv(args.out, ["Z", "sigma_bar", "sigma_hat", "nu_p", "theta"], rows)
    return 0


def _cmd_simulate(args) -> int:
    spec = FieldSpec.from_json(_load_json(args.spec))
    (ens,) = simulate_many(spec, args.n_max, args.trials, args.seed, rs=(args.r,))
    u_grid = _parse_grid(args.u_grid, log=True)
    curve = empirical_Q(ens, u_grid)
    rows = zip(curve.u_grid, curve.q_hat, curve.cp_upper_99, [curve.trials] * curve.u_grid.size)
    _write_csv(args.out, ["u", "q_hat", "cp_upper_99", "trials"], rows)
    return 0


def _cmd_compare(args) -> int:
    sim = _read_csv(args.sim)
    bnd = _read_csv(args.bound)
    for name in ("u", "q_hat", "cp_upper_99", "trials"):
        if name not in sim:
            raise ValueError(f"{args.sim}: missing column {name!r}")
    for name in ("u", "bound"):
        if name not in bnd:
            raise ValueError(f"{args.bound}: missing column {name!r}")
    curve = EmpiricalCurve(
        u_grid=np.array([float(x) for x in sim["u"]]),
        q_hat=np.array([float(x) for x in sim["q_hat"]]),
        cp_upper_99=np.array([float(x) for x in sim["cp_upper_99"]]),
        trials=int(sim["trials"][0]) if sim["trials"] else 0,
    )
    bound_curve = TailBoundCurve(
        u_grid=np.array([float(x) for x in bnd["u"]]),
        values=np.array([float(x) for x in bnd["bound"]]),
    )
    report = dominance_report(curve, bound_curve)
    for u, cp, b, ok in zip(report.u_grid, report.cp_upper, report.bound, report.passed):
        print(f"u={_fmt(u)} cp_upper={_fmt(cp)} bound={_fmt(b)} {'PASS' if ok else 'FAIL'}")
    n_fail = int((~report.passed).sum())
    print(f"{'all rows PASS' if report.all_pass else f'{n_fail} rows FAIL'}")
    return 0 if report.all_pass else 2


def _two_floats(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated numbers")
    return float(parts[0]), float(parts[1])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lilbound", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_norm = sub.add_parser("norm", help="mixed norm of a grid function JSON")
    p_norm.add_argument("--function", required=True, help="grid function JSON file")
    p_norm.add_argument("--p", required=True, help="comma-separated exponents, one per axis")

    p_const = sub.add_parser("constants", help="Rosenthal / Doob / mixingale coefficients as JSON")
    p_const.add_argument("--p", type=float, help="Rosenthal moment order (> 1)")
    p_const.add_argument("--symmetric", action="store_true", help="symmetric-summand Rosenthal constant")
    p_const.add_argument("--doob", type=float, help="Doob factor L/(L-1) at this L")
    p_const.add_argument("--km-m", type=float, help="mixingale coefficient moment order")
    p_const.add_argument("--km-geometric", type=_two_floats, metavar="RATIO,COEFF", help="beta(k) = coeff * ratio^k")
    p_const.add_argument("--km-power", type=_two_floats, metavar="POWER,COEFF", help="beta(k) = coeff * k^-power")

    p_bound = sub.add_parser("bound", help="tail bound curve CSV from an envelope JSON")
    p_bound.add_argument("--envelope", required=True, help="moment envelope JSON file")
    p_bound.add_argument("--norming", "--r", dest="norming", type=float, default=0.5, help="norming power r (default 1/2)")
    p_bound.add_argument("--u-grid", default="e:100:50", help="log-spaced grid a:b:n; 'e' allowed")
    p_bound.add_argument("--optimize", action="store_true", help="optimize (d, w) per u")
    p_bound.add_argument("--d", type=int, default=2, help="geometric partition parameter (no --optimize)")
    p_bound.add_argument("--w", type=float, default=None, help="class parameter; default sqrt(d) - 1e-9")
    p_bound.add_argument("--out", default="", help="output CSV path (default stdout)")

    p_ent = sub.add_parser("entropy", help="nu_p(Z) table from a covering JSON")
    p_ent.add_argument("--covering", required=True, help="covering function JSON file")
    p_ent.add_argument("--p", type=float, required=True, help="base exponent p >= 2")
    p_ent.add_argument("--sigma-coeff", type=float, default=1.0, help="sigma_bar(Z) = coeff * Z^power")
    p_ent.add_argument("--sigma-power", type=float, default=0.0)
    p_ent.add_argument("--z-grid", default="1:8:8", help="linear grid a:b:n of Z values")
    p_ent.add_argument("--theta-grid", default="", help="comma-separated thetas in (0,1); default scan")
    p_ent.add_argument("--out", default="", help="output CSV path (default stdout)")

    p_sim = sub.add_parser("simulate", help="Monte Carlo tail curve CSV from a field spec JSON")
    p_sim.add_argument("--spec", required=True, help="field spec JSON file")
    p_sim.add_argument("--n-max", type=int, default=1000)
    p_sim.add_argument("--trials", type=int, default=10000)
    p_sim.add_argument("--seed", type=int, default=1234)
    p_sim.add_argument("--r", type=float, default=0.5, help="norming power")
    p_sim.add_argument("--u-grid", default="e:20:25", help="log-spaced grid a:b:n; 'e' allowed")
    p_sim.add_argument("--out", default="", help="output CSV path (default stdout)")

    p_cmp = sub.add_parser("compare", help="dominance report joining simulation and bound CSVs")
    p_cmp.add_argument("--sim", required=True, help="simulation CSV (from `simulate`)")
    p_cmp.add_argument("--bound", required=True, help="bound CSV (from `bound`)")

    return parser


_HANDLERS = {
    "norm": (_cmd_norm, ("function",), ()),
    "constants": (_cmd_constants, (), ()),
    "bound": (_cmd_bound, ("envelope",), ("out",)),
    "entropy": (_cmd_entropy, ("covering",), ("out",)),
    "simulate": (_cmd_simulate, ("spec",), ("out",)),
    "compare": (_cmd_compare, ("sim", "bound"), ()),
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    handler, input_keys, output_keys = _HANDLERS[args.cmd]
    params = {
        k: v
        for k, v in vars(args).items()
        if k != "cmd" and k not in input_keys and k not in output_keys and v is not None
    }
    config = RunConfig(
        subcommand=args.cmd,
        parameters=params,
        inputs=[getattr(args, k) for k in input_keys],
        output=getattr(args, output_keys[0]) if output_keys else "",
    )
    config.echo()
    try:
        return handler(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
