"""The benchmark's workloads: what one pass runs, and the checks on its output.

A workload is three parts; a pass runs each part once. A part's time covers
what a user waits for: the run plus serializing its report (JSON and CSV
for an experiment, as ``permfield experiment`` writes them; the printed
text for the CLI-style parts). Inputs come from ``--seed``: every seeded
part adds it to the acceptance suite's pinned seed, so ``--seed 0`` runs
the pinned inputs.

The checks count one operation per checked output (a scan result, an
estimate, a table row) and fail it only on properties that every correct
implementation has, whatever its random draws. Statistical verdicts of the
reports are counted apart and only reported.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from permfield.cycles import sample_cycle_structure
from permfield.experiments import SQRT2, default_config, run_experiment
from permfield.field import NEG_INF, FieldSpec, Mesh, eval_point
from permfield.ratefn import log_mgf, log_mgf_derivs
from permfield.streams import stream

from layers import distinct_lengths

# pinned seeds of tests/test_acceptance.py
SEED_SCAN, SEED_CLT, SEED_TAIL, SEED_TWOPOINT, SEED_ARC, SEED_OCC = 4, 18, 1, 1, 1, 1

SCAN_N = 10**7
SCAN_DISTINCT = 16  # distinct lengths of the 1e7 structure: fixes its work
SAMPLED_POINTS = 3  # mesh points each scan result is compared against
TOL = 1e-9


@dataclass
class Part:
    metric: str  # end-to-end metric stem: "<metric>_s"
    prepare: Callable  # (seed, threads) -> inputs
    run: Callable  # (layers, inputs) -> (data, payload bytes)
    check: Callable  # (inputs, data, layers, checker, counts) -> None
    repeat: int = 1  # runs per pass; short parts run often, spread over it
    experiment: str = ""  # permfield experiment name, if the part is one


class Checker:
    """Attempted/failed tally of checked operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def _finite_nonneg(x):
    return isinstance(x, (int, float)) and math.isfinite(x) and x >= 0.0


def _same_value(a, b):
    if a == NEG_INF or b == NEG_INF:
        return a == b
    return abs(a - b) <= TOL * max(1.0, abs(a))


def _float_eval(spec, t):
    """eval_point by vectorised float arithmetic: an independent oracle.

    Residues of rational points are exact integers; float points reduce
    ell*t in floating point, which is accurate to ~ell * 2^-53.
    """
    lengths, counts = spec.counts.as_arrays()
    if spec.truncation is not None:
        keep = lengths <= spec.truncation
        lengths, counts = lengths[keep], counts[keep]
    if isinstance(t, (Fraction, int)):
        t = Fraction(t)
        num = np.array([(int(ell) * t.numerator) % t.denominator
                        for ell in lengths], dtype=np.float64)
        u = num / t.denominator
    else:
        u = np.mod(lengths * float(t), 1.0)
    if spec.kind == "imag":
        return float(np.sum(counts * (math.pi * (u - 0.5))))
    if np.any(u == 0.0):
        return NEG_INF
    w = np.minimum(u, 1.0 - u)
    return float(np.sum(counts * np.log(2.0 * np.sin(np.pi * w))))


# ---------------------------------------------------------------------------
# checks shared by several parts


def _check_scans(layers, checker, counts, label, seed):
    """Every scan_max result is the exact field value at its index, and no
    sampled mesh point beats it."""
    rng = np.random.default_rng([seed, 0x5CA7])
    scans = layers.records["field.scan_max"]
    for i, (spec, mesh, index, value) in enumerate(scans):
        counts["scan_max.calls"] += 1
        counts["scan_max.terms"] += mesh.q * distinct_lengths(spec)
        ok = 0 <= index < mesh.q and _same_value(value, eval_point(spec, mesh.point(index)))
        for j in rng.integers(0, mesh.q, size=SAMPLED_POINTS).tolist():
            other = eval_point(spec, mesh.point(j))
            ok = ok and (other == NEG_INF or value >= other - TOL * max(1.0, abs(other)))
        checker.check(ok, f"{label}: scan {i} value {value!r} at index {index} "
                          "is not the exact mesh maximum")
    return scans


def _check_evals(layers, checker, label):
    for spec, t, value in layers.records["field.eval_point"]:
        oracle = _float_eval(spec, t)
        ok = (value == oracle == NEG_INF) or (
            math.isfinite(value) and abs(value - oracle) <= 1e-6 * (1.0 + abs(value)))
        checker.check(ok, f"{label}: eval_point {value!r} vs float oracle {oracle!r} "
                          f"at t={t!r}")


def _check_tilted(layers, checker, counts, label):
    for q, samples, (est, se) in layers.records["ratefn.tilted_tail_estimate"]:
        counts["tilted_draws"] += q * samples
        checker.check(_finite_nonneg(est) and _finite_nonneg(se),
                      f"{label}: tilted_tail_estimate returned ({est!r}, {se!r})")


# ---------------------------------------------------------------------------
# experiment parts


def _experiment(metric, name, pinned, check, repeat=1):
    def prepare(seed, threads):
        return default_config(name, seed=pinned + seed, threads=threads)

    def run(layers, config):
        with layers.span(f"experiments.{name}"):
            report = run_experiment(name, config)
        return report, layers.json_bytes(report) + layers.csv_text(report)

    return Part(metric, prepare, run, check, repeat, name)


def _check_scan_report(config, report, layers, checker, counts):
    label = config.name
    scans = _check_scans(layers, checker, counts, label, config.seed)
    checker.check(len(scans) == len(report.rows),
                  f"{label}: {len(scans)} scans for {len(report.rows)} replicas")
    counts["replicas"] += len(report.rows)
    if config.name != "imag":
        return
    theta = config.theta_num / config.theta_den
    for n, r, value, _, _, total_cycles, witness in report.rows:
        q = config.mesh_factor * n
        predicted = (math.pi / 2.0) * total_cycles - math.pi * n / q \
            + math.pi * theta * n / q**2
        ok = value <= (math.pi / 2.0) * total_cycles + 1e-9
        if config.mesh_factor >= 2:
            ok = ok and abs(witness - predicted) <= 1e-6
        checker.check(ok, f"imag n={n} replica {r}: pointwise bound or endpoint "
                          "witness identity violated")


def _check_clt(config, report, layers, checker, counts):
    n = config.n_values[-1]
    norm = math.sqrt((math.pi**2 / 12.0) * math.log(n))
    for _, r, value, normalized in report.rows:
        checker.check(math.isfinite(value)
                      and abs(normalized - value / norm) <= 1e-12 * (1.0 + abs(normalized)),
                      f"clt replica {r}: value {value!r} normalized {normalized!r}")
    _check_evals(layers, checker, "clt")
    counts["replicas"] += len(report.rows)


def _check_conditional_tail(config, report, layers, checker, counts):
    for cell in report.cells:
        ok = _finite_nonneg(cell["estimate"]) and _finite_nonneg(cell.get("stderr", 0.0))
        checker.check(ok, f"conditional-tail {cell['estimator']}: estimate "
                          f"{cell['estimate']!r} stderr {cell.get('stderr')!r}")
    _check_tilted(layers, checker, counts, "conditional-tail")
    counts["block_draws"] += config.q * sum(
        row[2] for row in report.rows if row[0] == "block-conditioned")


def _check_two_point(config, report, layers, checker, counts):
    for pair, _, _, _, _, samples, hits_s, hits_t, joint, corr in report.rows:
        ok = (0 <= joint <= min(hits_s, hits_t) and max(hits_s, hits_t) <= samples
              and math.isfinite(corr) and abs(corr) <= 1.0 + 1e-9)
        checker.check(ok, f"two-point pair {pair}: hits ({hits_s}, {hits_t}, "
                          f"{joint}) of {samples}, corr {corr!r}")
        counts["block_draws"] += config.q * samples
    _check_tilted(layers, checker, counts, "two-point")


def _check_arc_profile(config, report, layers, checker, counts):
    scans = _check_scans(layers, checker, counts, "arc-profile", config.seed)
    checker.check(len(scans) == len(report.rows),
                  f"arc-profile: {len(scans)} scans for {len(report.rows)} replicas")
    for (spec, _, _, value), row in zip(scans, report.rows):
        r, major_sup, minor_sup, _, distinct = row
        # every mesh point is major or minor, so the two sups cover the max;
        # the Poisson field at t = 0 is -inf whenever a cycle exists
        zero = eval_point(spec, Fraction(0)) if distinct else NEG_INF
        ok = (max(major_sup, minor_sup) == value and distinct == distinct_lengths(spec)
              and zero == NEG_INF)
        checker.check(ok, f"arc-profile replica {r}: sups ({major_sup!r}, "
                          f"{minor_sup!r}) vs max {value!r}, field at 0 = {zero!r}")
    counts["replicas"] += len(report.rows)


def _check_occupancy(config, report, layers, checker, counts):
    nb = config.n_blocks
    for chunk, size, q1, _, q2, tot, _ in report.rows:
        ok = 0 <= q1 + q2 <= size * nb and tot >= q1 + 2 * q2
        checker.check(ok, f"occupancy chunk {chunk}: |Q1|={q1} |Q2+|={q2} N={tot}")
    counts["replicas"] += config.replicas


# ---------------------------------------------------------------------------
# CLI-style parts


def _scan_prepare(seed, threads):
    """The stream index of the first 1e7 structure with SCAN_DISTINCT lengths.

    The scan costs q * (distinct lengths), which for one unconditioned draw
    ranges over 10..23 between seeds; fixing it keeps the work per seed
    equal while the structure itself still comes from the seed.
    """
    base = SEED_SCAN + seed
    for i in range(10_000):
        cs = sample_cycle_structure(SCAN_N, stream(base, "sample", i))
        if distinct_lengths(FieldSpec(counts=cs)) == SCAN_DISTINCT:
            return base, i, threads
    raise RuntimeError(f"no 1e7 structure with {SCAN_DISTINCT} distinct lengths")


def _scan_run(layers, inputs):
    base, i, threads = inputs
    with layers.span("cli.scan"):
        cs = layers.sample_cycle_structure(SCAN_N, layers.stream(base, "sample", i))
        mesh = Mesh(q=2 * SCAN_N, theta_num=1, theta_den=7)
        res = layers.scan_max(FieldSpec(counts=cs), mesh, threads=threads)
        text = (f"argmax_j = {res.index}\nt = {mesh.point_float(res.index)!r}\n"
                f"max = {'-inf' if res.value == NEG_INF else repr(res.value)}\n")
    return res, text.encode("utf-8")


def _scan_check(inputs, res, layers, checker, counts):
    _check_scans(layers, checker, counts, "scan 1e7", inputs[0])


RATE_X = (0.05, 0.69)
RATE_STEPS = 200
FOURIER_Z = (2.5, complex(1.0, 5.0))
FOURIER_XI_MAX = 256
LOG_AVERAGE_BLOCKS = range(185, 185 + 32)  # the conditional-tail blocks
LOG_AVERAGE_RHO = 0.05


def _analytic_prepare(seed, threads):
    return None


def _analytic_run(layers, _inputs):
    """ratefn-table, two fourier dumps and the conditional-tail log averages."""
    with layers.span("cli.analytic"):
        table = []
        for i in range(RATE_STEPS + 1):
            x = RATE_X[0] + (RATE_X[1] - RATE_X[0]) * i / RATE_STEPS
            table.append((x, *layers.legendre(x)))
        lines = ["x,lambda_star,beta_star"]
        lines += [f"{x!r},{val!r},{beta!r}" for x, val, beta in table]
        coeffs = []
        for z in FOURIER_Z:
            lines.append("xi,re,im,abs")
            for xi in range(FOURIER_XI_MAX + 1):
                v = layers.phi_hat(z, xi).value
                coeffs.append((z, xi, v))
                lines.append(f"{xi},{v.real!r},{v.imag!r},{abs(v)!r}")
        sol = layers.solve_critical()
        averages = [layers.log_average(sol.beta_crit, SQRT2, k, LOG_AVERAGE_RHO)
                    for k in LOG_AVERAGE_BLOCKS]
        lines.append("k,log_average")
        lines += [f"{k},{v!r}" for k, v in zip(LOG_AVERAGE_BLOCKS, averages)]
    data = {"table": table, "coeffs": coeffs, "sol": sol, "averages": averages}
    return data, ("\n".join(lines) + "\n").encode("utf-8")


def _analytic_check(_inputs, data, layers, checker, counts):
    for x, val, beta in data["table"]:
        slope = log_mgf_derivs(beta)[0]
        checker.check(abs(slope - x) <= 1e-9 and val >= 0.0
                      and abs(val - (x * beta - log_mgf(beta))) <= 1e-12 * (1.0 + val),
                      f"legendre({x!r}) = ({val!r}, {beta!r}) fails the identity")
    sol = data["sol"]
    checker.check(sol.residual <= 1e-10
                  and abs(sol.x_crit * sol.beta_crit - sol.lambda_at - 1.0) <= 1e-10,
                  f"solve_critical residual {sol.residual!r}")
    for z, xi, v in data["coeffs"]:
        # |hat phi_z(xi)| <= integral |phi_z| = hat phi_{Re z}(0) = e^{log_mgf(Re z)}
        bound = math.exp(log_mgf(complex(z).real))
        ok = math.isfinite(abs(v)) and abs(v) <= bound * (1.0 + 1e-8)
        if xi == 0:
            ok = ok and abs(v - np.exp(log_mgf(z))) <= 1e-8 * abs(v)
        checker.check(ok, f"phi_hat({z!r}, {xi}) = {v!r}")
    cap = 2.0 ** sol.beta_crit
    for k, v in zip(LOG_AVERAGE_BLOCKS, data["averages"]):
        checker.check(0.0 < v <= cap * (1.0 + 1e-12),
                      f"log_average block {k} = {v!r} outside (0, 2^beta]")


WORKLOADS = {
    "scan": [
        _experiment("lln", "lln", SEED_SCAN, _check_scan_report),
        _experiment("imag", "imag", SEED_SCAN, _check_scan_report, repeat=2),
        Part("scan_1e7", _scan_prepare, _scan_run, _scan_check, repeat=2),
    ],
    "tail": [
        _experiment("conditional_tail", "conditional-tail", SEED_TAIL,
                    _check_conditional_tail),
        _experiment("two_point", "two-point", SEED_TWOPOINT,
                    _check_two_point),
        Part("analytic", _analytic_prepare, _analytic_run, _analytic_check, repeat=10),
    ],
    "replicas": [
        _experiment("clt", "clt", SEED_CLT, _check_clt, repeat=20),
        _experiment("arc_profile", "arc-profile", SEED_ARC,
                    _check_arc_profile),
        _experiment("occupancy", "occupancy", SEED_OCC,
                    _check_occupancy, repeat=10),
    ],
}
