"""Command-line front end.

Exit codes: 0 success (all built-in assertions passing), 1 assertion
failure (the report is still written), 2 usage, configuration, capacity
or accuracy error.
"""

import argparse
import csv
import decimal
import io
import json
import math
import sys
from fractions import Fraction

from . import ratefn
from .arith import BohrSpec, classify
from .cycles import read_cycles_csv, sample_cycle_structure, write_cycles_csv
from .errors import AccuracyError, CapacityError, ConfigError, InvalidArgumentError
from .experiments import default_config, parse_torus_point, run_experiment
from .field import FieldSpec, Mesh, eval_point, scan_max, write_trace_csv
from .reports import ExperimentReport
from .streams import stream
from .svgplot import emit_plot

__all__ = ["run", "main"]


def _parse_theta(text):
    try:
        frac = Fraction(text)
    except ZeroDivisionError:
        raise InvalidArgumentError(f"theta {text!r} has denominator 0") from None
    if abs(frac) > 1:
        raise InvalidArgumentError("|theta| must be <= 1")
    return frac.numerator, frac.denominator


def _count(text):
    """An exact integer >= 1, in scientific notation too: 1e7, 2.5E3."""
    try:
        value = decimal.Decimal(text)  # exact where float() would round
        if value.is_finite() and value == value.to_integral_value() and value >= 1:
            return int(value)
    except decimal.InvalidOperation:
        pass
    raise argparse.ArgumentTypeError(f"need an integer >= 1, got {text!r}")


def _write_out(text, path):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="permfield",
        description="Simulation toolkit for the extremes of the "
        "log-characteristic-polynomial field of random permutations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("constants", help="print the critical constants")

    p = sub.add_parser("ratefn-table", help="tabulate the rate function")
    p.add_argument("--x-min", type=float, default=0.02)
    p.add_argument("--x-max", type=float, default=0.68)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None)

    p = sub.add_parser("sample", help="sample a cycle structure")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("eval", help="evaluate the field at a point")
    p.add_argument("--cycles", required=True, help="cycle-structure CSV file")
    p.add_argument("--t", required=True, help="torus point (p/q or decimal)")
    p.add_argument("--imag", action="store_true")

    p = sub.add_parser("scan", help="scan the field over a rotated mesh")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--mesh-factor", type=int, default=2)
    p.add_argument("--theta", default="1/7")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--imag", action="store_true")
    p.add_argument("--threads", type=int, default=0)
    p.add_argument("--trace", default=None, help="write the full trace CSV here")
    p.add_argument("--svg", default=None, help="write a trace plot here")

    p = sub.add_parser("arcs", help="arc arithmetic")
    p.add_argument("action", choices=["classify"])
    p.add_argument("--xi0", type=int, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--in", dest="infile", required=True,
                   help='CSV with a "t" column')
    p.add_argument("--out", default=None)

    p = sub.add_parser("fourier", help="Fourier coefficients of |1-e(t)|^z")
    p.add_argument("action", choices=["dump"])
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--xi-max", type=int, default=64)
    p.add_argument("--out", default=None)

    p = sub.add_parser("experiment", help="run a named experiment")
    p.add_argument("name")
    p.add_argument("--config", default=None, help="JSON config overrides")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--svg", action="store_true")
    p.add_argument("--threads", type=int, default=0)
    return parser


def _cmd_constants(_args):
    sol = ratefn.solve_critical()
    print(f"x_crit = {sol.x_crit:.10f}")
    print(f"beta_crit = {sol.beta_crit:.10f}")
    print(f"lambda(beta_crit) = {sol.lambda_at:.10f}")
    print(f"lambda''(beta_crit) = {sol.lambda2_at:.10f}")
    print(f"residual = {sol.residual:.3e}")
    return 0


def _cmd_ratefn_table(args):
    if not 0.0 < args.x_min < args.x_max < ratefn.LOG2:
        raise ConfigError("need 0 < x-min < x-max < log 2")
    if args.steps < 1:
        raise ConfigError("steps must be >= 1")
    lines = ["x,lambda_star,beta_star"]
    xs, ys = [], []
    for i in range(args.steps + 1):
        x = args.x_min + (args.x_max - args.x_min) * i / args.steps
        val, beta = ratefn.legendre(x)
        lines.append(f"{x!r},{val!r},{beta!r}")
        xs.append(x)
        ys.append(val)
    _write_out("\n".join(lines) + "\n", args.out)
    if args.svg:
        sol = ratefn.solve_critical()
        y_top = max(max(ys), 1.0)
        report = ExperimentReport(name="ratefn-table", seed=0, config={})
        report.series = [
            {"name": "rate function", "x": xs, "y": ys},
            {"name": "x^2 (Gaussian)", "x": xs, "y": [x * x for x in xs]},
            # vertical markers: the critical point and the divergence edge
            {"name": "x = x_crit", "x": [sol.x_crit, sol.x_crit],
             "y": [0.0, y_top]},
            {"name": "x = log 2", "x": [ratefn.LOG2, ratefn.LOG2],
             "y": [0.0, y_top]},
        ]
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(emit_plot(report))
    return 0


def _cmd_sample(args):
    cs = sample_cycle_structure(args.n, stream(args.seed, "sample"))
    _write_out(write_cycles_csv(cs), args.out)
    return 0


def _cmd_eval(args):
    with open(args.cycles, encoding="utf-8") as fh:
        cs = read_cycles_csv(fh.read())
    t = parse_torus_point(args.t)
    value = eval_point(FieldSpec(counts=cs, kind="imag" if args.imag else "real"), t)
    print(repr(value))
    return 0


def _cmd_scan(args):
    cs = sample_cycle_structure(args.n, stream(args.seed, "sample"))
    tn, td = _parse_theta(args.theta)
    mesh = Mesh(q=args.mesh_factor * args.n, theta_num=tn, theta_den=td)
    spec = FieldSpec(counts=cs, kind="imag" if args.imag else "real")
    want_trace = bool(args.trace or args.svg)
    res = scan_max(spec, mesh, threads=args.threads, want_trace=want_trace)
    print(f"argmax_j = {res.index}")
    print(f"t = {mesh.point_float(res.index)!r}")
    print(f"max = {res.value!r}")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(write_trace_csv(mesh, res.trace))
    if args.svg:
        # decimate to per-bucket minima so the singular dips stay visible
        import numpy as np

        n_buckets = min(4096, mesh.q)
        edges = np.linspace(0, mesh.q, n_buckets + 1, dtype=int)
        xs, ys = [], []
        for i in range(n_buckets):
            seg = res.trace[edges[i]:edges[i + 1]]
            if len(seg) == 0:
                continue
            v = float(np.min(seg))
            if math.isfinite(v):
                xs.append(mesh.point_float(int(edges[i])))
                ys.append(v)
        report = ExperimentReport(name=f"scan-n{args.n}", seed=args.seed, config={})
        report.series = [{"name": "field (bucket minima)", "x": xs, "y": ys}]
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(emit_plot(report))
    return 0


def _cmd_arcs(args):
    with open(args.infile, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "t" not in reader.fieldnames:
            raise ConfigError('input CSV must have a "t" column')
        rows = list(reader)
        fields = list(reader.fieldnames)
    BohrSpec(xi=1, kappa=args.kappa)  # validates kappa
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fields + ["kind", "witness"],
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        arc = classify(parse_torus_point(row["t"]), args.xi0, args.kappa)
        row["kind"] = arc.kind
        row["witness"] = "" if arc.witness is None else arc.witness
        writer.writerow(row)
    _write_out(out.getvalue(), args.out)
    return 0


def _cmd_fourier(args):
    from .kronecker import phi_hat

    z = complex(args.beta, args.tau) if args.tau else args.beta
    lines = ["xi,re,im,abs"]
    for xi in range(0, args.xi_max + 1):
        row = phi_hat(z, xi)
        lines.append(
            f"{xi},{row.value.real!r},{row.value.imag!r},{abs(row.value)!r}"
        )
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_experiment(args):
    overrides = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ConfigError(f"--config {args.config}: not a JSON object of config keys")
    # the command line alone sets these keys
    for key, flag in (("name", "the NAME argument"), ("seed", "--seed"),
                      ("threads", "--threads")):
        if key in overrides:
            raise ConfigError(f"--config {args.config}: key {key!r} is set on the "
                              f"command line; use {flag}")
    overrides["threads"] = args.threads
    config = default_config(args.name, seed=args.seed, **overrides)
    report = run_experiment(args.name, config)
    json_path, csv_path = report.write(args.out_dir)
    written = [json_path, csv_path]
    if args.svg and report.series:
        svg_path = json_path[:-5] + ".svg"
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(emit_plot(report))
        written.append(svg_path)
    for v in report.verdicts:
        tag = "PASS" if v["passed"] else ("WARN" if v["warning"] else "FAIL")
        print(f"[{tag}] {v['name']}: {v['detail']}")
    print("wrote " + " ".join(written))
    return 0 if report.passed else 1


_COMMANDS = {
    "constants": _cmd_constants,
    "ratefn-table": _cmd_ratefn_table,
    "sample": _cmd_sample,
    "eval": _cmd_eval,
    "scan": _cmd_scan,
    "arcs": _cmd_arcs,
    "fourier": _cmd_fourier,
    "experiment": _cmd_experiment,
}


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse usage errors already print to stderr
        return int(exc.code or 0)
    except (AccuracyError, CapacityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
