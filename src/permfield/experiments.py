"""Seeded Monte Carlo experiment harness.

Each run_* function maps (config) -> ExperimentReport deterministically:
replica streams derive from (seed, task label, cell, replica), chunk sizes
are fixed constants, and aggregation follows a fixed order, so reports are
byte-identical across thread counts and reruns. On config.threads workers
that share no state, two-point runs its point pairs, each walking its blocks
once over its own chunks. Conditional-tail computes its tails, by FFT
convolution (_block_tail) and quadrature (ratefn.iid_tail); its blocks are
transformed on config.threads workers and multiplied in block order.
Occupancy computes the exact means of the Poisson block model, block by
block, and samples nothing.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import optimize

from . import ratefn
from .arith import arithmetic_distance, classify, major_ranges
from .cycles import (
    block_bounds,
    block_mean,
    guide_index,
    one_over_ell_table,
    sample_cycle_structure,
    sample_poisson_counts,
)
from .errors import CapacityError, ConfigError, InvalidArgumentError
from .field import (
    NEG_INF,
    FieldSpec,
    Mesh,
    eval_point,
    log_abs_term_array,
    resolve_threads,
    scan_max,
    term_array,
    thread_map,
)
from .reports import ExperimentConfig, ExperimentReport
from .streams import stream

__all__ = [
    "parse_torus_point",
    "run_lln_scan",
    "run_imag_scan",
    "run_clt_check",
    "run_conditional_tail",
    "run_two_point",
    "run_arc_profile",
    "run_occupancy",
    "EXPERIMENTS",
    "default_config",
]

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2 = math.sqrt(2.0) - 1.0

CRUDE_SLACK = 0.05  # upper-bound margin over log 2 for real-part ratios
LLN_BRACKET = (0.45, ratefn.LOG2)
# per-replica band observed in the pilot at N = 1e6 (q05/q95 widened); the
# published (0.45, log 2) bracket describes the asymptotic limit, while the
# per-replica spread at desk scale is dominated by the Poisson fluctuation
# of the total cycle count (relative sd ~ 1/sqrt(log N))
LLN_PILOT_BAND = (0.40, 0.97)
MEDIAN_TREND_SLACK = 0.04  # ~1 sd of a 20-replica cell median
IMAG_BRACKET = (0.85 * math.pi / 2.0, 1.05 * math.pi / 2.0)
CHUNK = 1 << 16
TAIL_WIDTH = 0.0045  # grid of the exact tail: its default bracket is 0.45% wide
TAIL_SPAN = 1 << 20  # block lengths per bincount of the exact tail
TAIL_MAX_L = 1 << 23  # longest transform of the exact tail


def parse_torus_point(spec):
    """Torus point from a string: exact "p/q", finite decimal, or a named irrational."""
    text = str(spec).strip()
    if text in ("golden", "phi"):
        return GOLDEN
    if text in ("sqrt2",):
        return SQRT2
    if "/" in text:
        num, den = (int(part) for part in text.split("/"))
        if den == 0:
            raise InvalidArgumentError(f"torus point {text!r} has denominator 0")
        return Fraction(num, den)
    value = float(text)
    if not math.isfinite(value):
        raise InvalidArgumentError(f"torus point {text!r} is not a finite number")
    return value


@lru_cache(maxsize=1)
def _critical():
    return ratefn.solve_critical()


def _stats(values):
    arr = np.asarray(values, dtype=float)
    return {
        "count": int(arr.size),
        "mean": float(np.mean(arr)),
        "median": float(np.median(arr)),
        "std": float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0,
        "q10": float(np.quantile(arr, 0.10)),
        "q90": float(np.quantile(arr, 0.90)),
        "min": float(np.min(arr)),
        "max": float(np.max(arr)),
    }


# ---------------------------------------------------------------------------
# mesh scans: law of large numbers for the real and imaginary parts


def _run_scan(config, kind):
    name = config.name or ("imag" if kind == "imag" else "lln")
    if config.kind != kind:
        raise ConfigError(f"kind = {config.kind}: {name} scans the {kind} field; run "
                          f"{'imag' if kind == 'real' else 'lln'} for the {config.kind} one")
    report = ExperimentReport(name=name, seed=config.seed, config=config.echo())
    report.columns = [
        "n", "replica", "max_value", "argmax", "ratio", "total_cycles",
        "witness_value",
    ]
    medians = []
    pointwise_ok = True
    witness_identity_ok = True
    witness_hits = 0
    witness_total = 0
    if config.n_values[-1] < 2:
        raise ConfigError(f"n = {config.n_values[-1]}: max/log N needs some N >= 2")
    for n in config.n_values:
        if n > 10**8:
            raise ConfigError(f"n = {n} exceeds the 1e8 scan capacity")
        if n < 2:
            report.cells.append({"n": int(n), "excluded": True,
                                 "reason": "log N = 0 at N = 1"})
            report.notes.append(f"cell n={n} excluded: ratio undefined")
            continue
        mesh = Mesh(q=config.mesh_factor * n, theta_num=config.theta_num,
                    theta_den=config.theta_den)
        theta = config.theta_num / config.theta_den
        ratios = []
        for r in range(config.replicas):
            # stream path is shared by the real and imaginary experiments, so
            # runs at equal seeds scan the same sampled structures
            rng = stream(config.seed, "scan", str(int(n)), r)
            cs = sample_cycle_structure(n, rng)
            res = scan_max(FieldSpec(counts=cs, kind=kind), mesh,
                           threads=config.threads)
            ratio = res.value / math.log(n)
            ratios.append(ratio)
            witness = ""
            if kind == "imag":
                # at the last mesh point t = 1 - 1/q + theta/q^2 every
                # frac(ell*t) equals 1 - ell*(1-t), collapsing the value to
                # the exact identity (pi/2)K - pi*n/q + pi*theta*n/q^2
                wv = eval_point(FieldSpec(counts=cs, kind="imag"),
                                mesh.point(mesh.q - 1))
                witness = wv
                witness_total += 1
                predicted = (math.pi / 2.0) * cs.total_cycles \
                    - math.pi * n / mesh.q + math.pi * theta * n / (mesh.q**2)
                if config.mesh_factor >= 2 and abs(wv - predicted) > 1e-6:
                    witness_identity_ok = False
                if wv >= (math.pi / 2.0) * (math.log(n) - 2.0):
                    witness_hits += 1
                if res.value > (math.pi / 2.0) * cs.total_cycles + 1e-9:
                    pointwise_ok = False
            report.rows.append([int(n), r, res.value, res.index, ratio,
                                cs.total_cycles, witness])
        arr = np.asarray(ratios)
        cell = {
            "n": int(n), "excluded": False, "ratio": _stats(ratios),
            "crude_violation_fraction":
                float(np.mean(arr >= ratefn.LOG2 + CRUDE_SLACK)),
            "band_observed": [float(np.min(arr)), float(np.max(arr))],
        }
        report.cells.append(cell)
        medians.append((n, cell["ratio"]["median"]))
    # the last cell has N >= 2 (checked above): medians[-1] and ratios are its
    report.series.append({
        "name": f"median max/{'log N (imag)' if kind == 'imag' else 'log N'}",
        "x": [float(n) for n, _ in medians],
        "y": [m for _, m in medians],
    })
    top_n, med = medians[-1]
    if kind == "imag":
        lo, hi = IMAG_BRACKET
        report.add_verdict(
            "imag-median-bracket", lo < med < hi,
            f"median ratio {med:.4f} at N={top_n}, bracket ({lo:.4f}, {hi:.4f})")
        report.add_verdict(
            "imag-pointwise-bound", pointwise_ok,
            "max Im <= (pi/2) * total cycle count in every replica")
        report.add_verdict(
            "imag-witness-identity", witness_identity_ok,
            "endpoint witness equals (pi/2)K - pi*n/q + pi*theta*n/q^2 exactly")
        report.notes.append(
            f"witness >= (pi/2)(log N - 2) in {witness_hits}/{witness_total} "
            "replicas (fluctuates with the total cycle count; reported only)")
    else:
        worst = max(m for _, m in medians)
        report.add_verdict(
            "median-crude-bound", worst < ratefn.LOG2 + CRUDE_SLACK,
            f"median max/log N < log2 + {CRUDE_SLACK} at every N "
            f"(worst {worst:.4f})")
        report.add_verdict(
            "median-bracket-top-n", LLN_BRACKET[0] < med < LLN_BRACKET[1],
            f"median ratio {med:.4f} at N={top_n} in ({LLN_BRACKET[0]}, log2)")
        frac_band = np.mean([LLN_PILOT_BAND[0] < v < LLN_PILOT_BAND[1] for v in ratios])
        report.add_verdict(
            "pilot-band-top-n", frac_band >= 0.9,
            f"ratio within the recorded pilot band {LLN_PILOT_BAND} for "
            f"{frac_band:.0%} of replicas at N={top_n}")
        # trend across sizes: a least-squares slope over all replicas is far
        # less noisy than comparing consecutive 20-replica cell medians
        # (whose differences wobble by ~0.07 under the flat desk-scale truth)
        xs = [math.log(row[0]) for row in report.rows]
        ys = [row[4] for row in report.rows]
        slope = (float(np.polyfit(xs, ys, 1)[0])
                 if len(set(xs)) > 1 else 0.0)
        report.add_verdict(
            "trend-not-decreasing", slope >= -MEDIAN_TREND_SLACK / 2.0,
            f"ratio-vs-log N slope {slope:+.4f} >= -{MEDIAN_TREND_SLACK / 2.0}"
            f" (medians: {[round(m, 3) for _, m in medians]})")
    return report


def run_lln_scan(config):
    """Real-part mesh maxima across sizes; reproduces the LLN trend."""
    return _run_scan(config, "real")


def run_imag_scan(config):
    """Imaginary-part mesh maxima; the trivial bound is sharp here."""
    return _run_scan(config, "imag")


# ---------------------------------------------------------------------------
# central limit theorem at a fixed point


def run_clt_check(config):
    """Distribution of the field at one point against the CLT normalization."""
    from scipy import stats as sstats

    resolve_threads(config.threads)  # refuse a bad count, as every experiment does
    name = config.name or "clt"
    point = parse_torus_point(config.t or "golden")
    n = config.n_values[-1]
    if n < 2:
        raise ConfigError(f"n = {n}: the CLT scale sqrt(pi^2/12 log N) is 0 below N = 2")
    if config.replicas < 2:
        raise ConfigError(f"replicas = {config.replicas}: clt needs replicas >= 2 "
                          "for a sample variance")
    norm = math.sqrt((math.pi**2 / 12.0) * math.log(n))
    report = ExperimentReport(name=name, seed=config.seed, config=config.echo())
    report.columns = ["n", "replica", "value", "normalized"]
    values = []
    for r in range(config.replicas):
        rng = stream(config.seed, name, 0, r)
        cs = sample_cycle_structure(n, rng)
        v = eval_point(FieldSpec(counts=cs, kind=config.kind), point)
        values.append(v)
        report.rows.append([int(n), r, v,
                            v / norm if v > NEG_INF else NEG_INF])
    arr = np.asarray(values)
    # the histogram leaves out the atom at -inf of a rational point
    normalized = arr[arr > NEG_INF] / norm
    hist, edges = np.histogram(normalized, bins=40) if normalized.size else ([], [0, 1])
    report.series.append({
        "name": "normalized-values",
        "x": [float(0.5 * (edges[i] + edges[i + 1])) for i in range(len(hist))],
        "y": [int(h) for h in hist],
    })
    degenerate = isinstance(point, Fraction)
    atom_frac = float(np.mean(arr == NEG_INF))
    if degenerate or atom_frac > 0.0:
        report.cells.append({
            "n": int(n), "degenerate": True, "atom_fraction": atom_frac,
            "t": str(point),
        })
        report.notes.append(
            "rational point excluded by the CLT hypothesis; no assertion")
        report.add_verdict("clt-degenerate-flagged", True,
                           f"atom fraction at -inf: {atom_frac:.4f}", warning=True)
        return report
    var = float(np.var(normalized, ddof=1))
    # shape test: standardize first (the variance clause pins the scale, the
    # KS clause the shape; on the raw values the finite-N mean offset of the
    # field, a convergent constant, would dominate the statistic)
    standardized = (arr - arr.mean()) / arr.std(ddof=1)
    ks = float(sstats.kstest(standardized, "norm").statistic)
    ell = np.arange(1, n + 1, dtype=np.int64)
    terms = term_array(np.mod(ell * float(point), 1.0), 1.0, config.kind)
    det_mean = float((terms / ell).sum())
    report.cells.append({
        "n": int(n), "degenerate": False, "t": repr(float(point)),
        "kind": config.kind, "normalized": _stats(normalized),
        "sample_variance": var, "ks_distance": ks,
        "finite_size_mean": det_mean,
        "finite_size_mean_normalized": det_mean / norm,
    })
    report.add_verdict("clt-variance", 0.85 <= var <= 1.15,
                       f"sample variance {var:.4f} of X/sqrt(pi^2/12 log N)")
    if config.kind == "imag":
        # values sit on an exact (pi/2) lattice (sum of ell*c_ell = n makes
        # pi*sum c_ell*frac(ell t) an integer shift of pi*t*n), so the KS
        # statistic against a continuous law cannot drop below the half-cell
        # mass at this variance; report it without asserting
        report.add_verdict("clt-ks-lattice", True,
                           f"KS {ks:.4f} reported only: imaginary values lie "
                           "on a pi/2 lattice", warning=True)
    else:
        report.add_verdict("clt-ks", ks < 0.05,
                           f"KS distance {ks:.4f} of standardized values to N(0,1)")
    return report


# ---------------------------------------------------------------------------
# conditional single-cycle-per-block tails vs i.i.d. tails


def _block_range(name, config):
    """Blocks m .. m + q - 1, refusing rho <= 0 and q < 1 before any arithmetic."""
    if not config.rho > 0:
        raise ConfigError(f"rho = {config.rho!r}: {name} needs rho > 0")
    if config.q < 1:
        raise ConfigError(f"q = {config.q}: {name} needs q >= 1 blocks")
    return list(range(config.m, config.m + config.q))


def _block_tail(blocks, rho, t, y, beta, threads=None):
    """(lower, upper) around P(sum of the blocks' values at t >= y q), exact up to a grid.

    Bins j = floor(D / h) of the deficits D = log 2 - V >= 0, h = TAIL_WIDTH / (beta q),
    give P(sum j <= K - q) <= P <= P(sum j <= K), K = floor((log 2 - y) q / h); bins
    past K never count. The blocks' pmfs of j, tilted by e^{-g j} (g = 1.5 beta h) to
    lift the sums near K above the rounding, multiply as real FFTs of length L: a sum
    wrapped past L adds at most e^{-g L} times the kept mass, taken off the lower end.
    While that bound passes 10^-6 of the lower end, L doubles, up to TAIL_MAX_L.
    Each bin is within 8 (q + 1) log2(L) eps M of the truth, M = acc[0] the tilted
    mass: q + 1 transforms of values >= 0 at 7 eps log2(L) of their 2-norm (Higham 2002,
    Accuracy and Stability of Numerical Algorithms, Thm 24.2) and q - 1 products at
    3 eps. notes/decisions.md has the argument, and why 1.5. The blocks are binned
    and transformed on `threads` workers and multiplied here in block order.
    """
    q = len(blocks)
    h = TAIL_WIDTH / (beta * q)
    top = math.floor((ratefn.LOG2 - y) * q / h)
    if top > 1 << 22:
        raise CapacityError(f"q = {q}, y = {y!r}: K = {top} bins pass the exact tail's 2^22")
    g = 1.5 * beta * h
    tilt = np.exp(-g * np.arange(top + 1))
    size = 1 << (max(2 * top + 2, min(q * top, math.ceil(48.0 / g))) - 1).bit_length()

    def spectrum(k):
        a, b = block_bounds(k, rho)
        if b <= a:
            raise ConfigError(f"block k={k} = [{a}, {b}) has no length")
        pmf = np.zeros(top + 1)
        for start in range(a, b, TAIL_SPAN):
            lengths = np.arange(start, min(start + TAIL_SPAN, b), dtype=np.int64)
            j = np.floor((ratefn.LOG2 - log_abs_term_array(lengths, float(t))) / h)
            keep = j <= top  # a singular length has D = +inf
            pmf += np.bincount(j[keep].astype(np.int64), 1.0 / lengths[keep], top + 1)
        pmf /= block_mean(k, rho)
        mass_k = pmf.sum()
        pmf *= tilt  # in place: one buffer fewer per worker
        return mass_k, np.fft.rfft(pmf, size)

    low = max(top - q + 1, 0)
    while True:
        acc, mass = np.ones(size // 2 + 1, complex), 1.0
        with thread_map(threads) as block_map:
            for mass_k, spec in block_map(spectrum, blocks):
                mass *= mass_k
                acc *= spec
        vals = np.fft.irfft(acc, size)[:top + 1] / tilt
        spread = 8.0 * (q + 1) * math.log2(size) * np.finfo(float).eps * acc[0].real
        wrap = math.exp(-g * size) * mass if size <= q * top else 0.0
        kept = vals[:low].sum() - spread * math.expm1(g * low) / math.expm1(g)
        if not 0.0 < kept < 1e6 * wrap:  # a longer L lifts no lower end lost to rounding
            break
        if size >= TAIL_MAX_L:
            raise CapacityError(f"q = {q}, y = {y!r}: the wrap bound needs L = {2 * size} "
                                f"points, past the exact tail's {TAIL_MAX_L}")
        size *= 2
    upper = vals.sum() + spread * math.expm1(g * (top + 1)) / math.expm1(g)
    return max(float(kept - wrap), 0.0), float(upper)


def run_conditional_tail(config):
    """Three values of the upper tail at level y*q.

    (a) the block-conditioned tail, bracketed by _block_tail, (b) the exact
    i.i.d. tail, (c) the sharp analytic asymptotic. Asserts (b)/(c) and (a)/(b).
    """
    resolve_threads(config.threads)  # refuse a bad count, as every experiment does
    name = config.name or "conditional-tail"
    blocks = _block_range(name, config)
    t = parse_torus_point(config.t or "sqrt2")
    y = config.y or _critical().x_crit
    q, rho, m = config.q, config.rho, config.m
    report = ExperimentReport(name=name, seed=config.seed, config=config.echo())
    report.columns = ["estimator", "lower", "upper"]

    kappa_check = config.kappa or math.exp(-rho * m / 2.0)
    if not config.kappa and not 0.0 < kappa_check < 0.5:
        raise ConfigError(f"kappa = e^(-rho m/2) = {kappa_check!r}, derived from "
                          f"rho = {rho!r} and m = {m}, must lie in (0, 1/2): "
                          "set kappa or change rho * m")
    arc = classify(t, config.xi0, kappa_check)
    major = arc.kind == "major"
    if major:
        report.add_verdict(
            "minor-arc-input", False,
            f"t={t} is major (witness xi={arc.witness}); assertions skipped",
            warning=True)

    if y >= ratefn.LOG2:
        # the summands are bounded by log 2 almost surely: the level is
        # outside the support and every tail probability is exactly zero
        for est in ("block-conditioned", "iid-exact", "bahadur-rao"):
            report.cells.append({"estimator": est, "estimate": 0.0})
        report.series.append({"name": "tail-estimates", "x": [1.0, 2.0, 3.0],
                              "y": [0.0, 0.0, 0.0]})
        report.add_verdict("level-above-support", True,
                           f"y = {y!r} >= log 2: P = 0 exactly")
        return report

    _, beta = ratefn.legendre(y)
    predicted = ratefn.bahadur_rao_tail(y, q)
    report.notes.append(
        f"y={y!r} beta={beta!r} predicted={predicted!r} method=exact-convolution")

    lower, upper = _block_tail(blocks, rho, t, y, beta, config.threads)
    est_a = 0.5 * (lower + upper)
    est_b = ratefn.iid_tail(y, q)
    report.cells.append({"estimator": "block-conditioned", "estimate": est_a, "lower": lower,
                         "upper": upper, "blocks": [int(b) for b in blocks[:4]] + ["..."],
                         "first_block_start": block_bounds(m, rho)[0]})
    report.cells.append({"estimator": "iid-exact", "estimate": est_b})
    report.cells.append({"estimator": "bahadur-rao", "estimate": predicted})
    report.rows = [["block-conditioned", lower, upper], ["iid-exact", est_b, est_b],
                   ["bahadur-rao", predicted, predicted]]
    report.series.append({"name": "tail-estimates", "x": [1.0, 2.0, 3.0],
                          "y": [est_a, est_b, predicted]})

    ratio_bc = est_b / predicted if predicted > 0 else float("inf")
    report.add_verdict(
        "iid-vs-bahadur-rao", (2.0 / 3.0 <= ratio_bc <= 1.5) or major,
        f"(b)/(c) = {ratio_bc:.4f}", warning=major)
    low_ab, high_ab = (v / est_b if est_b > 0 else math.inf for v in (lower, upper))
    report.add_verdict(
        "conditioned-vs-iid", (0.5 <= low_ab and high_ab <= 2.0) or major,
        f"(a)/(b) in [{low_ab:.4f}, {high_ab:.4f}]", warning=major)
    return report


# ---------------------------------------------------------------------------
# two-point decorrelation


def _calibrate_level(q):
    """Level y in [0.05, x*] whose exact i.i.d. q-block tail is 10^-2.

    Solved on ratefn.iid_tail rather than on the Bahadur-Rao asymptotic,
    whose prefactor is about 11% high at q = 32 near this level.
    """
    low, high = 0.05, _critical().x_crit
    if not ratefn.iid_tail(high, q) < 1e-2 < ratefn.iid_tail(low, q):
        raise ConfigError(f"q = {q}: no level in [0.05, x*] has an i.i.d. tail of "
                          "10^-2 to calibrate; set y in (0, log 2)")
    return optimize.brentq(lambda y: ratefn.iid_tail(y, q) - 1e-2, low, high)


def run_two_point(config):
    """Joint exceedances of the conditioned field at point pairs.

    Pairs are bucketed by arithmetic distance; in the top bucket the
    joint/product ratio must sit in [1/2, 2] and the correlation must be
    small. The near-zero bucket is reported without assertion.
    """
    name = config.name or "two-point"
    blocks = _block_range(name, config)
    q, rho, xi0 = config.q, config.rho, config.xi0
    if config.y and not 0.0 < config.y < ratefn.LOG2:
        # the values lie below log 2, so no draw reaches y >= log 2; below
        # y = 0 the sums, of mean 0, nearly all do
        raise ConfigError(f"y = {config.y!r}: two-point needs 0 < y < log 2 "
                          "(0 calibrates the level)")
    y = config.y or _calibrate_level(q)
    threshold = y * q
    n_pairs = 12
    report = ExperimentReport(name=name, seed=config.seed, config=config.echo())
    report.columns = ["pair", "bucket", "s", "t", "distance", "samples",
                      "hits_s", "hits_t", "hits_joint", "corr"]
    report.notes.append(f"y={y!r} threshold={threshold!r}")

    points = stream(config.seed, name, "pairs").random((n_pairs, 2)).tolist()
    pairs = sorted((arithmetic_distance(s, t, xi0), s, t) for s, t in points)
    n_buckets = 4

    def pair_sums(acc):
        ys, yt = acc.real, acc.imag
        hs, ht = ys >= threshold, yt >= threshold
        return (int(np.count_nonzero(hs)), int(np.count_nonzero(ht)),
                int(np.count_nonzero(hs & ht)), float(ys.sum()), float(yt.sum()),
                float((ys * yt).sum()), float((ys * ys).sum()), float((yt * yt).sum()))

    # the 1/ell tables do not depend on the point: one set serves every pair
    lengths, guides = zip(*(one_over_ell_table(*block_bounds(k, rho)) for k in blocks))

    def pair_row(pair_idx):
        dist, s, t = pairs[pair_idx]
        # chunk i holds min(CHUNK, samples - i * CHUNK) draws from its own stream
        chunks = [(min(CHUNK, config.samples - start),
                   stream(config.seed, name, "mc", pair_idx, i))
                  for i, start in enumerate(range(0, config.samples, CHUNK))]
        accs = [np.zeros(n, complex) for n, _ in chunks]
        for ell, table in zip(lengths, guides):
            # the same drawn cycle lengths drive both points: block i's values
            # at s and t are one complex array, read by every chunk in turn
            vals = np.empty(len(ell), complex)
            vals.real = log_abs_term_array(ell, s)
            vals.imag = log_abs_term_array(ell, t)
            for (n, rng), acc in zip(chunks, accs):
                # keep idx named: freed at once inside the one-liner, each 512 KB
                # index array (likely) lets glibc trim the heap top and fault it
                # back in for the next block; a default 1-thread run then took
                # 14x the minor faults (12k -> 172k) and 0.3 s more wall time
                idx = guide_index(table, rng.random(n))
                acc += vals[idx]
        # each chunk's sums, added in chunk order
        hits_s, hits_t, hits_joint, sum_s, sum_t, sum_st, sum_s2, sum_t2 = (
            sum(col) for col in zip(*map(pair_sums, accs)))
        nn = config.samples
        cov = sum_st / nn - (sum_s / nn) * (sum_t / nn)
        var_s = sum_s2 / nn - (sum_s / nn) ** 2
        var_t = sum_t2 / nn - (sum_t / nn) ** 2
        corr = cov / math.sqrt(max(var_s * var_t, 1e-300))
        bucket = min(pair_idx * n_buckets // n_pairs, n_buckets - 1)
        return [pair_idx, bucket, s, t, dist, nn, hits_s, hits_t, hits_joint, corr]

    with thread_map(config.threads) as pair_map:
        report.rows = list(pair_map(pair_row, range(n_pairs)))

    # degenerate diagonal cell: at s = t the joint rate IS the marginal
    # rate, so joint/product collapses to 1/p (maximal correlation)
    last = report.rows[-1]
    if last[6] > 0:
        p_last = last[6] / last[5]
        report.cells.append({
            "bucket": "diagonal", "s": last[2], "t": last[2],
            "rate": p_last, "joint_over_product": 1.0 / p_last,
        })

    ratios = []
    for b in range(n_buckets):
        rows = [row for row in report.rows if row[1] == b]
        nn = sum(row[5] for row in rows)
        ps, pt, pj = (sum(row[col] for row in rows) / nn for col in (6, 7, 8))
        ratio = pj / (ps * pt) if ps > 0 and pt > 0 else float("inf")
        ratios.append(ratio)
        max_corr = max(abs(row[9]) for row in rows)
        report.cells.append({
            "bucket": b, "samples": nn, "rate_s": ps, "rate_t": pt,
            "rate_joint": pj, "joint_over_product": ratio, "max_abs_corr": max_corr,
        })
    report.series.append({
        "name": "joint/product by distance bucket",
        "x": [float(b) for b in range(n_buckets)], "y": ratios,
    })
    top_ratio = ratios[-1]
    report.add_verdict(
        "top-bucket-factorization", 0.5 <= top_ratio <= 2.0,
        f"joint/product = {top_ratio:.3f} in the top distance bucket")
    # max_corr is the top bucket's, the last the loop above read
    report.add_verdict(
        "top-bucket-correlation", max_corr < 0.1,
        f"max |corr(Y(s), Y(t))| = {max_corr:.4f} in the top bucket")
    report.notes.append(
        f"near-zero bucket joint/product = {ratios[0]!r} (reported, not asserted)")
    return report


# ---------------------------------------------------------------------------
# arc dichotomy for the Poisson field


def run_arc_profile(config):
    """Supremum of the Poisson field over major vs minor mesh points."""
    name = config.name or "arc-profile"
    n = config.n_values[-1]
    if n < 2:
        raise ConfigError(f"n = {n}: sup / log N is undefined below N = 2")
    mesh = Mesh(q=config.mesh_factor * n, theta_num=config.theta_num,
                theta_den=config.theta_den)
    kappa = config.kappa or n ** (-config.alpha)
    report = ExperimentReport(name=name, seed=config.seed, config=config.echo())
    report.columns = ["replica", "major_sup", "minor_sup", "minor_ratio",
                      "distinct_lengths"]
    major = major_ranges(mesh, config.xi0, kappa)
    n_major = sum(b - a for a, b in major)
    if n_major in (0, mesh.q):
        raise ConfigError(
            f"Maj(xi0={config.xi0}, kappa={kappa!r}) holds {n_major} of the q = "
            f"{mesh.q} mesh points: the {'minor' if n_major else 'major'} side is empty")
    logn = math.log(n)
    major_ok = minor_ok = 0
    minor_ratios = []
    zero_vals = []
    for r in range(config.replicas):
        rng = stream(config.seed, name, 0, r)
        pc = sample_poisson_counts(n, rng)
        spec = FieldSpec(counts=pc, kind="real")
        (_, major_sup), (_, minor_sup) = scan_max(spec, mesh, threads=config.threads,
                                                  ranges=major).split
        zero_vals.append(eval_point(spec, Fraction(0)) if len(pc.lengths) else NEG_INF)
        major_ok += major_sup <= 0.0
        minor_ok += minor_sup > 0.0
        minor_ratios.append(minor_sup / logn)
        report.rows.append([r, major_sup, minor_sup, minor_sup / logn,
                            len(pc.lengths)])
    frac_major = major_ok / config.replicas
    frac_minor = minor_ok / config.replicas
    report.cells.append({
        "n": int(n), "kappa": kappa, "xi0": config.xi0,
        "major_frac_nonpositive": frac_major,
        "minor_frac_positive": frac_minor,
        "minor_ratio": _stats(minor_ratios),
        "zero_point_all_neg_inf": all(v == NEG_INF for v in zero_vals),
    })
    report.series.append({
        "name": "minor_sup/log N", "x": [float(r) for r in range(config.replicas)],
        "y": minor_ratios,
    })
    report.add_verdict(
        "major-arc-nonpositive", frac_major >= 0.9,
        f"major-arc sup <= 0 in {frac_major:.0%} of {config.replicas} replicas")
    report.add_verdict(
        "minor-arc-positive", frac_minor >= 0.9,
        f"minor-arc sup > 0 in {frac_minor:.0%} of replicas")
    report.add_verdict(
        "zero-point-neg-inf", all(v == NEG_INF for v in zero_vals),
        "field at t=0 is -inf in every replica")
    return report


# ---------------------------------------------------------------------------
# coarse-scale occupancy statistics


def run_occupancy(config):
    """Block occupancy statistics of the Poisson block model, computed exactly.

    Block k's cycle count is an independent Poisson(lambda_k), lambda_k =
    block_mean(k, rho), so E|Q1| = sum lambda e^-lambda, E|Q>=2| =
    sum 1 - e^-lambda (1 + lambda) and E N = sum lambda. Each row holds one
    block's terms; replicas and seed are ignored.
    """
    resolve_threads(config.threads)  # refuse a bad count, as every experiment does
    name = config.name or "occupancy"
    rho, m, nb = config.rho, config.m, config.n_blocks
    if not rho > 0:
        raise ConfigError(f"rho = {rho!r}: occupancy needs rho > 0")
    if nb < 1:
        raise ConfigError(f"n_blocks = {nb}: occupancy needs n_blocks >= 1")
    n = m + nb
    if m < (8.0 / rho) * math.log(1.0 / rho):
        raise ConfigError(
            f"m = {m} too small: need m >= (8/rho) log(1/rho) = "
            f"{(8.0 / rho) * math.log(1.0 / rho):.1f}")
    report = ExperimentReport(name=name, seed=config.seed, config=config.echo())
    report.columns = ["block", "lengths", "p_one", "p_none", "p_two_plus", "lambda",
                      "first_length"]
    log_ends = 0.0
    for k in range(m, n):
        a, b = block_bounds(k, rho)
        lam = block_mean(k, rho)
        absent = math.exp(-lam)
        # P(N_k >= 2) as P(N_k >= 1) - P(N_k = 1): no cancellation against 1
        report.rows.append([k, b - a, lam * absent, absent,
                            -math.expm1(-lam) - lam * absent, lam, a])
        log_ends += math.log(b)
    mean_q1, mean_q2, mean_tot = (math.fsum(row[col] for row in report.rows)
                                  for col in (2, 4, 5))
    pred_q1 = nb * rho * (1.0 - rho)
    pred_tot = rho * nb
    tol_q1 = rho**3 * nb
    # sum lambda is 1/ell summed over [ceil(e^{rho m}), ceil(e^{rho n})), within
    # 2 / ceil(e^{rho m}) of rho nb; the rest bounds the rounding of the lambdas,
    # of the two block ends and of the two sums (notes/decisions.md)
    eps = math.ulp(1.0)
    tol_tot = 2.0 / report.rows[0][6] + eps * (
        4.0 * (log_ends + nb) + rho * (m + n) / 2.0 + 2.0 + mean_tot + pred_tot)
    report.cells.append({
        "rho": rho, "m": m, "n": n,
        "mean_q1": mean_q1, "predicted_q1": pred_q1, "tolerance_q1": tol_q1,
        "mean_q2plus": mean_q2, "bound_q2plus": 5.0 * rho**2 * nb,
        "mean_total": mean_tot, "predicted_total": pred_tot,
        "tolerance_total": tol_tot,
    })
    report.series.append({
        "name": "occupancy means", "x": [1.0, 2.0, 3.0],
        "y": [mean_q1, mean_q2, mean_tot],
    })
    report.add_verdict(
        "q1-mean", abs(mean_q1 - pred_q1) <= tol_q1,
        f"E|Q1| = {mean_q1:.3f} vs {pred_q1:.3f} +- {tol_q1:.3f}")
    report.add_verdict(
        "q2-mean-bound", mean_q2 <= 5.0 * rho**2 * nb,
        f"E|Q>=2| = {mean_q2:.3f} <= {5.0 * rho**2 * nb:.3f}")
    report.add_verdict(
        "total-concentration", abs(mean_tot - pred_tot) <= tol_tot,
        f"E N = {mean_tot!r} vs {pred_tot!r} +- {tol_tot:.3g}")
    return report


# ---------------------------------------------------------------------------
# registry

# name -> (runner, default config keys)
EXPERIMENTS = {
    "lln": (run_lln_scan, dict(n_values=(1000, 10000, 100000, 1000000), replicas=20)),
    "imag": (run_imag_scan, dict(n_values=(1000000,), replicas=20, kind="imag")),
    "clt": (run_clt_check, dict(n_values=(1000000,), replicas=2000, t="golden")),
    "conditional-tail": (run_conditional_tail,
                         dict(rho=0.05, m=185, q=32, t="sqrt2", xi0=32)),
    "two-point": (run_two_point, dict(rho=0.05, m=230, q=32, xi0=4, samples=100000)),
    "arc-profile": (run_arc_profile,
                    dict(n_values=(100000,), replicas=200, xi0=5, alpha=0.3)),
    "occupancy": (run_occupancy, dict(rho=0.1, m=200, n_blocks=2000, replicas=10000)),
}


def _experiment(name):
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise ConfigError(f"unknown experiment {name!r}; "
                          f"known: {sorted(EXPERIMENTS)}") from None


def default_config(name, seed=0, **overrides):
    return ExperimentConfig.from_dict(
        {**_experiment(name)[1], **overrides, "name": name, "seed": seed})


def run_experiment(name, config):
    return _experiment(name)[0](config)
