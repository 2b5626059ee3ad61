"""Seeded Monte Carlo experiment harness.

Each run_* function maps (config) -> ExperimentReport deterministically:
replica streams derive from (seed, task label, cell, replica), chunk sizes
are fixed constants, and aggregation follows a fixed order, so reports are
byte-identical across thread counts and reruns. Rare block-conditioned
upper tails are estimated by exponential tilting at the maximizing tilt
with likelihood-ratio reweighting; naive Monte Carlo is refused when the
predicted probability is below 1e-5. The i.i.d. tail they are compared
with is exact (ratefn.iid_tail).
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import optimize

from . import ratefn
from .arith import arithmetic_distance, classify
from .cycles import (
    _harmonic_cumsum,
    block_bounds,
    block_mean,
    sample_cycle_structure,
    sample_poisson_counts,
)
from .errors import ConfigError
from .field import (
    NEG_INF,
    FieldSpec,
    Mesh,
    eval_point,
    log_abs_term_array,
    scan_max,
    term_array,
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
NAIVE_MC_FLOOR = 1e-5
CHUNK = 1 << 16
OCC_CHUNK = 256


def parse_torus_point(spec):
    """Torus point from a string: exact "p/q", decimal, or a named irrational."""
    if isinstance(spec, (float, Fraction)):
        return spec
    text = str(spec).strip()
    if text in ("golden", "phi"):
        return GOLDEN
    if text in ("sqrt2",):
        return SQRT2
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return float(text)


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
    report = ExperimentReport(name=name, seed=config.seed, config=config.echo())
    report.columns = [
        "n", "replica", "max_value", "argmax", "ratio", "total_cycles",
        "witness_value",
    ]
    medians = []
    top_ratios = None
    pointwise_ok = True
    witness_identity_ok = True
    witness_hits = 0
    witness_total = 0
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
        top_ratios = ratios
    if medians:
        report.series.append({
            "name": f"median max/{'log N (imag)' if kind == 'imag' else 'log N'}",
            "x": [float(n) for n, _ in medians],
            "y": [m for _, m in medians],
        })
    top_n = medians[-1][0] if medians else 0
    med = medians[-1][1] if medians else float("nan")
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
        frac_band = (np.mean([LLN_PILOT_BAND[0] < v < LLN_PILOT_BAND[1]
                              for v in top_ratios]) if top_ratios else 0.0)
        report.add_verdict(
            "pilot-band-top-n", frac_band >= 0.9,
            f"ratio within the recorded pilot band {LLN_PILOT_BAND} for "
            f"{frac_band:.0%} of replicas at N={top_n}")
        # trend across sizes: a least-squares slope over all replicas is far
        # less noisy than comparing consecutive 20-replica cell medians
        # (whose differences wobble by ~0.07 under the flat desk-scale truth)
        xs, ys = [], []
        for row in report.rows:
            if row[0] >= 2:
                xs.append(math.log(row[0]))
                ys.append(row[4])
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


def run_clt_check(config, t=None):
    """Distribution of the field at one point against the CLT normalization."""
    from scipy import stats as sstats

    name = config.name or "clt"
    point = parse_torus_point(t if t is not None else (config.t or "golden"))
    n = config.n_values[-1]
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
        finite = arr[arr > NEG_INF] / norm
        hist, edges = np.histogram(finite, bins=40) if finite.size else ([], [0, 1])
        report.series.append({
            "name": "normalized-values",
            "x": [float(0.5 * (edges[i] + edges[i + 1])) for i in range(len(hist))],
            "y": [int(h) for h in hist],
        })
        return report
    normalized = arr / norm
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
    hist, edges = np.histogram(normalized, bins=40)
    report.series.append({
        "name": "normalized-values",
        "x": [float(0.5 * (edges[i] + edges[i + 1])) for i in range(len(hist))],
        "y": [int(h) for h in hist],
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


def _bucket_position(x, total, size):
    # x / total * size in two rounded steps, each monotone in x; dividing
    # first keeps it finite for every positive finite total, subnormal ones
    # too (inf / inf = NaN is expected, see _guide_table)
    with np.errstate(invalid="ignore"):
        pos = x / total
    pos *= size
    return pos


def _guide_table(cum, total):
    """Guide table ("indexed search") over a cumulative weight array.

    Chen & Asau (1974); Devroye, Non-Uniform Random Variate Generation
    (1986), III.2.4. With G = len(cum) buckets, guide[g] is the first index
    i with floor(cum[i] / total * G) >= g, clipped to G - 1. The bucket map
    is monotone after rounding, so for a uniform u the bucket
    min(floor(u / total * G), G - 1) never starts past the answer of the
    inverse-CDF search, and _guide_index only walks forward from it. An
    infinite total (tilted weights that overflowed) maps finite cum to
    bucket 0 and infinite cum to NaN, which sorts last.
    """
    size = len(cum)
    pos = np.floor(_bucket_position(cum, total, size))
    guide = np.searchsorted(pos, np.arange(size), side="left")
    np.minimum(guide, size - 1, out=guide)
    return {"cum": cum, "total": total, "guide": guide}


def _guide_index(table, u):
    """np.searchsorted(cum, u, side="left") clipped to len(cum) - 1, exactly.

    Starts each u at its bucket's guide entry and steps the still-active
    indices forward while cum[idx] < u and idx is not the last index.
    """
    cum, guide = table["cum"], table["guide"]
    last = len(cum) - 1
    # fmin also sends the NaN of u = total = inf (an overflowed tilt) to the
    # last bucket, whose guide entry is the first infinite cum
    bucket = np.fmin(_bucket_position(u, table["total"], len(cum)), last)
    idx = guide[bucket.astype(np.int64)]
    active = np.flatnonzero((cum[idx] < u) & (idx < last))
    while active.size:
        idx[active] += 1
        step = idx[active]
        active = active[(cum[step] < u[active]) & (step < last)]
    return idx


@lru_cache(maxsize=256)
def _conditional_table(a, b):
    # the conditional pmf of a block does not depend on the point t, so it
    # and its guide are built once per block, not once per two-point point;
    # every caller shares the cached arrays, which are only read
    lengths = np.arange(a, b, dtype=np.int64)
    table = _guide_table(_harmonic_cumsum(a, b), float((1.0 / lengths).sum()))
    for arr in (lengths, table["cum"], table["guide"]):
        arr.setflags(write=False)
    return lengths, table


def _block_tables(blocks, rho, t, beta=None):
    """Per-block lengths, term values at t, and guide tables of the pmf.

    With beta=None the pmf is the conditional one (proportional to 1/ell,
    its cumulative weights from cycles._harmonic_cumsum, its table cached
    per block); otherwise it is tilted by e^{beta V}, its weights
    e^{beta (V - max V)} / ell are finite at any tilt, and log_phi holds the
    log normalizer beta max V + log(total / rho_k). Returns a list of dicts
    with the keys of _guide_table plus "lengths", "vals", "log_phi".
    """
    tables = []
    tf = float(t)
    for k in blocks:
        a, b = block_bounds(k, rho)
        if b <= a:
            raise ConfigError(f"block k={k} at rho={rho} contains no integer")
        if beta is None:
            lengths, table = _conditional_table(a, b)
            vals = log_abs_term_array(lengths, tf)
            log_phi = 0.0
        else:
            lengths = np.arange(a, b, dtype=np.int64)
            vals = log_abs_term_array(lengths, tf)
            top = float(vals.max())
            if top == NEG_INF:
                raise ConfigError(f"every length of block k={k} is a zero of "
                                  f"the field at t={t}: the tilt has no mass")
            w = np.exp(beta * (vals - top)) / lengths
            table = _guide_table(np.cumsum(w), float(w.sum()))
            log_phi = beta * top + math.log(table["total"] / block_mean(k, rho))
        tables.append(dict(table, lengths=lengths, vals=vals, log_phi=log_phi))
    return tables


def _block_draws(tables, samples, seed_args, *other_vals):
    """Sums over the blocks of values at lengths drawn from each table's pmf.

    Yields (chunk_idx, sums) for chunks of at most CHUNK samples, whose
    uniforms come from stream(*seed_args, chunk_idx). Each uniform is
    scaled by the table's total and mapped to an index by the guide walk,
    which returns exactly the clipped searchsorted index of the cumulative
    weights. sums[0] adds the tables' own "vals"; each further per-block
    value list in other_vals is read through the same drawn indices into
    one more sum.
    """
    value_sets = ([tb["vals"] for tb in tables],) + other_vals
    done = 0
    chunk_idx = 0
    while done < samples:
        mlen = min(CHUNK, samples - done)
        rng = stream(*seed_args, chunk_idx)
        sums = [np.zeros(mlen) for _ in value_sets]
        for i, tb in enumerate(tables):
            idx = _guide_index(tb, rng.random(mlen) * tb["total"])
            for acc, vals in zip(sums, value_sets):
                acc += vals[i][idx]
        yield chunk_idx, sums
        done += mlen
        chunk_idx += 1


def _conditional_tail(tables, beta, threshold, samples, seed_args):
    """Estimate of P(sum_k V_k >= threshold) under the block-conditioned law.

    With beta, the tables are tilted by e^{beta V} and each hit carries the
    likelihood ratio; with beta=None they hold the conditional pmf and each
    hit counts 1 (direct Monte Carlo, binomial standard error).
    """
    log_phi_sum = sum(tb["log_phi"] for tb in tables)
    rows = []
    total_w = total_w2 = 0.0
    hits = 0
    for chunk_idx, (y,) in _block_draws(tables, samples, seed_args):
        if beta is None:
            w = (y >= threshold).astype(float)
        else:
            w = np.where(y >= threshold, np.exp(-beta * y + log_phi_sum), 0.0)
        total_w += float(w.sum())
        total_w2 += float((w * w).sum())
        hits += int(np.count_nonzero(w))
        rows.append([chunk_idx, y.size, float(w.sum()), float((w * w).sum()), hits])
    mean = total_w / samples
    if beta is None:
        return mean, math.sqrt(max(mean * (1 - mean), 0.0) / samples), rows
    var = max(total_w2 / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples), rows


def run_conditional_tail(config):
    """Three values of the upper tail at level y*q.

    (a) Monte Carlo of the conditioned field (tilted importance sampling
    when the tail is rare), (b) the exact i.i.d. tail, (c) the sharp
    analytic asymptotic. Asserts (b)/(c) and (a)/(b) ratios.
    """
    name = config.name or "conditional-tail"
    t = parse_torus_point(config.t or "sqrt2")
    y = config.y or _critical().x_crit
    q = config.q
    rho, m = config.rho, config.m
    blocks = list(range(m, m + q))
    report = ExperimentReport(name=name, seed=config.seed, config=config.echo())
    report.columns = ["estimator", "chunk", "samples", "sum_w", "sum_w2", "hits"]

    kappa_check = config.kappa or math.exp(-rho * m / 2.0)
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

    rate, beta = ratefn.legendre(y)
    predicted = ratefn.bahadur_rao_tail(y, q)
    threshold = y * q
    rare = predicted < NAIVE_MC_FLOOR
    report.notes.append(
        f"y={y!r} beta={beta!r} predicted={predicted!r} "
        f"method={'tilted-importance' if rare else 'direct'}")

    # (a) block-conditioned estimate
    tilt = beta if rare else None
    est_a, se_a, rows_a = _conditional_tail(
        _block_tables(blocks, rho, t, beta=tilt), tilt, threshold,
        config.samples, (config.seed, name, "block"))
    for row in rows_a:
        report.rows.append(["block-conditioned"] + row)

    est_b = ratefn.iid_tail(y, q)
    report.cells.append({"estimator": "block-conditioned", "estimate": est_a,
                         "stderr": se_a, "blocks": [int(b) for b in blocks[:4]] +
                         ["..."], "first_block_start": block_bounds(m, rho)[0]})
    report.cells.append({"estimator": "iid-exact", "estimate": est_b})
    report.cells.append({"estimator": "bahadur-rao", "estimate": predicted})
    report.series.append({
        "name": "tail-estimates", "x": [1.0, 2.0, 3.0],
        "y": [est_a, est_b, predicted],
    })

    ratio_bc = est_b / predicted if predicted > 0 else float("inf")
    report.add_verdict(
        "iid-vs-bahadur-rao", (2.0 / 3.0 <= ratio_bc <= 1.5) or major,
        f"(b)/(c) = {ratio_bc:.4f}", warning=major)
    ratio_ab = est_a / est_b if est_b > 0 else float("inf")
    report.add_verdict(
        "conditioned-vs-iid", (0.5 <= ratio_ab <= 2.0) or major,
        f"(a)/(b) = {ratio_ab:.4f}", warning=major)
    return report


# ---------------------------------------------------------------------------
# two-point decorrelation


def _calibrate_level(q, target=1e-2):
    """Level y in [0.05, x*] whose exact i.i.d. q-block tail is target.

    Solved on ratefn.iid_tail rather than on the Bahadur-Rao asymptotic,
    whose prefactor is about 11% high at q = 32 near this level.
    """
    return optimize.brentq(lambda y: ratefn.iid_tail(y, q) - target,
                           0.05, _critical().x_crit)


def run_two_point(config):
    """Joint exceedances of the conditioned field at point pairs.

    Pairs are bucketed by arithmetic distance; in the top bucket the
    joint/product ratio must sit in [1/2, 2] and the correlation must be
    small. The near-zero bucket is reported without assertion.
    """
    name = config.name or "two-point"
    q, rho, m, xi0 = config.q, config.rho, config.m, config.xi0
    blocks = list(range(m, m + q))
    y = config.y or _calibrate_level(q)
    threshold = y * q
    n_pairs = 12
    report = ExperimentReport(name=name, seed=config.seed, config=config.echo())
    report.columns = ["pair", "bucket", "s", "t", "distance", "samples",
                      "hits_s", "hits_t", "hits_joint", "corr"]
    report.notes.append(f"y={y!r} threshold={threshold!r}")

    rng_pairs = stream(config.seed, name, "pairs")
    pairs = []
    for _ in range(n_pairs):
        s, t = float(rng_pairs.random()), float(rng_pairs.random())
        pairs.append((arithmetic_distance(s, t, xi0), s, t))
    pairs.sort()
    n_buckets = 4
    bucket_of = {}
    for i, p in enumerate(pairs):
        bucket_of[p] = min(i * n_buckets // n_pairs, n_buckets - 1)

    bucket_acc = [dict(samples=0, hits_s=0, hits_t=0, hits_joint=0, corrs=[])
                  for _ in range(n_buckets)]
    for pair_idx, (dist, s, t) in enumerate(pairs):
        tables_s = _block_tables(blocks, rho, s, beta=None)
        tables_t = _block_tables(blocks, rho, t, beta=None)
        hits_s = hits_t = hits_joint = 0
        sum_s = sum_t = sum_st = sum_s2 = sum_t2 = 0.0
        # the same drawn cycle lengths drive both points
        for _, (ys, yt) in _block_draws(
                tables_s, config.samples, (config.seed, name, "mc", pair_idx),
                [tb["vals"] for tb in tables_t]):
            hs = ys >= threshold
            ht = yt >= threshold
            hits_s += int(np.count_nonzero(hs))
            hits_t += int(np.count_nonzero(ht))
            hits_joint += int(np.count_nonzero(hs & ht))
            sum_s += float(ys.sum())
            sum_t += float(yt.sum())
            sum_st += float((ys * yt).sum())
            sum_s2 += float((ys * ys).sum())
            sum_t2 += float((yt * yt).sum())
        nn = config.samples
        cov = sum_st / nn - (sum_s / nn) * (sum_t / nn)
        var_s = sum_s2 / nn - (sum_s / nn) ** 2
        var_t = sum_t2 / nn - (sum_t / nn) ** 2
        corr = cov / math.sqrt(max(var_s * var_t, 1e-300))
        bucket = bucket_of[(dist, s, t)]
        acc = bucket_acc[bucket]
        acc["samples"] += nn
        acc["hits_s"] += hits_s
        acc["hits_t"] += hits_t
        acc["hits_joint"] += hits_joint
        acc["corrs"].append(corr)
        report.rows.append([pair_idx, bucket, s, t, dist, nn, hits_s, hits_t,
                            hits_joint, corr])

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
    for b, acc in enumerate(bucket_acc):
        nn = acc["samples"]
        ps, pt = acc["hits_s"] / nn, acc["hits_t"] / nn
        pj = acc["hits_joint"] / nn
        ratio = pj / (ps * pt) if ps > 0 and pt > 0 else float("inf")
        ratios.append(ratio)
        report.cells.append({
            "bucket": b, "samples": nn, "rate_s": ps, "rate_t": pt,
            "rate_joint": pj, "joint_over_product": ratio,
            "max_abs_corr": max(abs(c) for c in acc["corrs"]),
        })
    report.series.append({
        "name": "joint/product by distance bucket",
        "x": [float(b) for b in range(n_buckets)], "y": ratios,
    })
    top = bucket_acc[-1]
    top_ratio = ratios[-1]
    report.add_verdict(
        "top-bucket-factorization", 0.5 <= top_ratio <= 2.0,
        f"joint/product = {top_ratio:.3f} in the top distance bucket")
    max_corr = max(abs(c) for c in top["corrs"])
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
    mesh = Mesh(q=config.mesh_factor * n, theta_num=config.theta_num,
                theta_den=config.theta_den)
    kappa = config.kappa or n ** (-config.alpha)
    report = ExperimentReport(name=name, seed=config.seed, config=config.echo())
    report.columns = ["replica", "major_sup", "minor_sup", "minor_ratio",
                      "distinct_lengths"]
    pts = mesh.points_float()
    major_mask = np.zeros(mesh.q, dtype=bool)
    for xi in range(1, config.xi0 + 1):
        frac = np.mod(xi * pts, 1.0)
        major_mask |= np.minimum(frac, 1.0 - frac) <= kappa
    minor_mask = ~major_mask
    logn = math.log(n)
    major_ok = minor_ok = 0
    minor_ratios = []
    zero_vals = []
    for r in range(config.replicas):
        rng = stream(config.seed, name, 0, r)
        pc = sample_poisson_counts(n, rng)
        spec = FieldSpec(counts=pc, kind="real")
        res = scan_max(spec, mesh, threads=config.threads, want_trace=True)
        major_sup = float(np.max(res.trace[major_mask]))
        minor_sup = float(np.max(res.trace[minor_mask]))
        zero_vals.append(eval_point(spec, Fraction(0)) if pc.counts else NEG_INF)
        major_ok += major_sup <= 0.0
        minor_ok += minor_sup > 0.0
        minor_ratios.append(minor_sup / logn)
        report.rows.append([r, major_sup, minor_sup, minor_sup / logn,
                            len(pc.counts)])
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
    """Monte Carlo of block occupancy counts against their predicted means."""
    name = config.name or "occupancy"
    rho, m, nb = config.rho, config.m, config.n_blocks
    n = m + nb
    if m < (8.0 / rho) * math.log(1.0 / rho):
        raise ConfigError(
            f"m = {m} too small: need m >= (8/rho) log(1/rho) = "
            f"{(8.0 / rho) * math.log(1.0 / rho):.1f}")
    report = ExperimentReport(name=name, seed=config.seed, config=config.echo())
    report.columns = ["chunk", "size", "sum_q1", "sum_sq_q1", "sum_q2",
                      "sum_tot", "sum_sq_tot"]
    rho_vec = np.array([block_mean(k, rho) for k in range(m, n)])
    sums = np.zeros(5)
    done = 0
    chunk_idx = 0
    while done < config.replicas:
        sz = min(OCC_CHUNK, config.replicas - done)
        rng = stream(config.seed, name, chunk_idx)
        cnt = rng.poisson(lam=rho_vec, size=(sz, nb))
        q1 = (cnt == 1).sum(axis=1).astype(float)
        q2 = (cnt >= 2).sum(axis=1).astype(float)
        tot = cnt.sum(axis=1).astype(float)
        chunk_sums = [q1.sum(), (q1 * q1).sum(), q2.sum(), tot.sum(),
                      (tot * tot).sum()]
        sums += np.array(chunk_sums)
        report.rows.append([chunk_idx, sz] + [float(v) for v in chunk_sums])
        done += sz
        chunk_idx += 1
    reps = config.replicas
    mean_q1, mean_q2, mean_tot = sums[0] / reps, sums[2] / reps, sums[3] / reps
    var_q1 = max(sums[1] / reps - mean_q1**2, 0.0)
    var_tot = max(sums[4] / reps - mean_tot**2, 0.0)
    pred_q1 = nb * rho * (1.0 - rho)
    pred_tot = rho * nb
    tol_q1 = 3.0 * math.sqrt(var_q1 / reps) + rho**3 * nb
    tol_tot = 3.0 * math.sqrt(var_tot / reps)
    report.cells.append({
        "rho": rho, "m": m, "n": n, "replicas": reps,
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
        f"mean |Q1| = {mean_q1:.3f} vs {pred_q1:.3f} +- {tol_q1:.3f}")
    report.add_verdict(
        "q2-mean-bound", mean_q2 <= 5.0 * rho**2 * nb,
        f"mean |Q>=2| = {mean_q2:.3f} <= {5.0 * rho**2 * nb:.3f}")
    report.add_verdict(
        "total-concentration", abs(mean_tot - pred_tot) <= tol_tot,
        f"mean N = {mean_tot:.3f} vs {pred_tot:.3f} +- {tol_tot:.3f}")
    return report


# ---------------------------------------------------------------------------
# registry

EXPERIMENTS = {
    "lln": run_lln_scan,
    "imag": run_imag_scan,
    "clt": run_clt_check,
    "conditional-tail": run_conditional_tail,
    "two-point": run_two_point,
    "arc-profile": run_arc_profile,
    "occupancy": run_occupancy,
}

_DEFAULTS = {
    "lln": dict(n_values=(1000, 10000, 100000, 1000000), replicas=20),
    "imag": dict(n_values=(1000000,), replicas=20, kind="imag"),
    "clt": dict(n_values=(1000000,), replicas=2000, t="golden"),
    "conditional-tail": dict(rho=0.05, m=185, q=32, t="sqrt2", xi0=32,
                             samples=1000000),
    "two-point": dict(rho=0.05, m=230, q=32, xi0=4, samples=100000),
    "arc-profile": dict(n_values=(100000,), replicas=200, xi0=5, alpha=0.3),
    "occupancy": dict(rho=0.1, m=200, n_blocks=2000, replicas=10000),
}


def default_config(name, seed=0, **overrides):
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; "
                          f"known: {sorted(EXPERIMENTS)}")
    base = dict(_DEFAULTS.get(name, {}))
    base.update(overrides)
    base["name"] = name
    base["seed"] = seed
    return ExperimentConfig.from_dict(base)


def run_experiment(name, config):
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; "
                          f"known: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[name](config)
