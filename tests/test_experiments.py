import hashlib
import itertools
import json
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from permfield import experiments, ratefn
from permfield.cycles import (
    block_bounds,
    block_mean,
    guide_index,
    guide_table,
    harmonic_sum,
    one_over_ell_table,
    sample_cycle_structure,
)
from permfield.errors import CapacityError, ConfigError, InvalidArgumentError
from permfield.experiments import (
    _calibrate_level,
    _critical,
    default_config,
    parse_torus_point,
    run_arc_profile,
    run_clt_check,
    run_conditional_tail,
    run_experiment,
    run_imag_scan,
    run_lln_scan,
    run_occupancy,
    run_two_point,
)
from permfield.field import log_abs_term_array
from permfield.reports import ExperimentConfig
from permfield.streams import stream


def verdict(report, name):
    for v in report.verdicts:
        if v["name"] == name:
            return v
    raise KeyError(name)


def test_parse_torus_point():
    from fractions import Fraction

    assert parse_torus_point("1/3") == Fraction(1, 3)
    assert parse_torus_point("0.25") == 0.25
    assert abs(parse_torus_point("golden") - 0.6180339887498949) < 1e-15
    assert abs(parse_torus_point("sqrt2") - 0.41421356237309515) < 1e-15


def test_config_rejects_unknown_and_unsorted():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"name": "x", "bogus": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig(name="x", n_values=(100, 10))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"name": "x", "samples": 0})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"name": "x", "n_values": []})
    with pytest.raises(ConfigError):
        default_config("no-such-experiment")


def test_config_echo_excludes_threads():
    cfg = default_config("occupancy", seed=3, threads=8)
    assert "threads" not in cfg.echo()


def test_occupancy_small_run_passes():
    report = run_occupancy(default_config("occupancy", seed=1, replicas=2000))
    assert report.passed
    cell = report.cells[0]
    # every verdict recomputed from the per-block rows
    rows = np.array(report.rows, dtype=float)
    nb, rho = len(rows), cell["rho"]
    assert rows[:, 0].tolist() == list(range(cell["m"], cell["n"]))
    q1, q2, total = rows[:, 2].sum(), rows[:, 4].sum(), rows[:, 5].sum()
    assert abs(q1 - nb * rho * (1 - rho)) <= rho**3 * nb
    assert q2 <= 5 * rho**2 * nb
    assert abs(total - rho * nb) <= cell["tolerance_total"]
    assert np.allclose(rows[:, 2] + rows[:, 3] + rows[:, 4], 1.0, rtol=0, atol=1e-15)


def test_occupancy_precondition():
    with pytest.raises(ConfigError):
        run_occupancy(default_config("occupancy", m=10))


def test_occupancy_q2_shrinks_with_rho():
    r1 = run_occupancy(default_config("occupancy", seed=2, replicas=500,
                                      rho=0.1, m=200, n_blocks=500))
    r2 = run_occupancy(default_config("occupancy", seed=2, replicas=500,
                                      rho=0.02, m=1600, n_blocks=500))
    q2_big = r1.cells[0]["mean_q2plus"] / 500
    q2_small = r2.cells[0]["mean_q2plus"] / 500
    assert q2_small < q2_big


def test_lln_scan_structure_and_exclusion():
    cfg = default_config("lln", seed=4, replicas=4, n_values=(1, 300, 3000))
    report = run_lln_scan(cfg)
    assert report.cells[0]["excluded"] is True
    included = [c for c in report.cells if not c.get("excluded")]
    assert [c["n"] for c in included] == [300, 3000]
    assert len(report.rows) == 8
    for row in report.rows:
        assert row[4] <= math.log(2) * row[5] / math.log(row[0]) + 1e-9
    names = {v["name"] for v in report.verdicts}
    assert {"median-crude-bound", "median-bracket-top-n", "pilot-band-top-n",
            "trend-not-decreasing"} <= names


def test_lln_capacity_precondition():
    with pytest.raises(ConfigError):
        run_lln_scan(default_config("lln", n_values=(2 * 10**8,), replicas=1))


def test_imag_scan_witness_identity_small():
    cfg = default_config("imag", seed=4, replicas=6, n_values=(20000,))
    report = run_imag_scan(cfg)
    assert verdict(report, "imag-witness-identity")["passed"]
    assert verdict(report, "imag-pointwise-bound")["passed"]
    # witness column replays the identity: (pi/2) K - pi n/q + pi theta n/q^2
    n = 20000
    q = 2 * n
    for row in report.rows:
        k = row[5]
        pred = math.pi / 2 * k - math.pi * n / q + math.pi * (1 / 7) * n / q**2
        assert row[6] == pytest.approx(pred, abs=1e-9)


def test_clt_check_real_small():
    cfg = default_config("clt", seed=18, replicas=800, n_values=(10**5,))
    report = run_clt_check(cfg)
    cell = report.cells[0]
    assert 0.7 < cell["sample_variance"] < 1.2
    assert cell["ks_distance"] < 0.08
    assert abs(cell["finite_size_mean"] - 0.9386) < 0.01  # deterministic sum
    assert len(report.rows) == 800


def test_clt_check_imag_variance():
    cfg = default_config("clt", seed=18, replicas=800, n_values=(10**5,),
                         kind="imag")
    report = run_clt_check(cfg)
    cell = report.cells[0]
    assert 0.85 <= cell["sample_variance"] <= 1.15
    assert verdict(report, "clt-variance")["passed"]
    assert verdict(report, "clt-ks-lattice")["warning"]


def test_clt_check_rational_point_degenerate():
    cfg = default_config("clt", seed=5, replicas=300, n_values=(1000,), t="1/2")
    report = run_clt_check(cfg)
    cell = report.cells[0]
    assert cell["degenerate"] is True
    assert cell["atom_fraction"] > 0.2  # a length divisible by 2 occurs often
    assert report.passed  # flagged, not asserted


def test_clt_refuses_a_single_replica():
    # one value has no sample variance and no standardized KS distance
    with pytest.raises(ConfigError, match=r"replicas = 1: clt needs replicas >= 2"):
        run_clt_check(default_config("clt", replicas=1, n_values=(1000,)))


def test_conditional_tail_small():
    cfg = default_config("conditional-tail", seed=1)
    report = run_conditional_tail(cfg)
    assert report.passed
    cells = {c["estimator"]: c for c in report.cells}
    a = cells["block-conditioned"]["estimate"]
    b = cells["iid-exact"]["estimate"]
    c = cells["bahadur-rao"]["estimate"]
    assert 0.5 <= a / b <= 2.0
    assert 2 / 3 <= b / c <= 1.5
    # one row per estimator: (a)'s bracket, around its midpoint estimate,
    # and the exact (b) and asymptotic (c) as points
    assert report.columns == ["estimator", "lower", "upper"]
    assert report.rows == [
        ["block-conditioned", cells["block-conditioned"]["lower"],
         cells["block-conditioned"]["upper"]],
        ["iid-exact", b, b], ["bahadur-rao", c, c]]
    lower, upper = report.rows[0][1:]
    assert 0.0 < lower <= a <= upper
    assert a == 0.5 * (lower + upper)
    # the grid TAIL_WIDTH = 0.0045 keeps the default bracket under 0.5% wide
    assert upper - lower <= 0.005 * lower


def _enumerated_tail(q, m, t, y, rho=0.05):
    """P(sum of the q blocks' values at t >= y q), summed over every tuple of lengths."""
    sums, probs = np.zeros(1), np.ones(1)
    for k in range(m, m + q):
        lengths = np.arange(*block_bounds(k, rho), dtype=np.int64)
        sums = np.add.outer(sums, log_abs_term_array(lengths, t)).ravel()
        probs = np.multiply.outer(probs, 1.0 / lengths / block_mean(k, rho)).ravel()
    return float(probs[sums >= y * q].sum())


@pytest.mark.parametrize("q,m,t,y,zero", [
    (2, 90, "sqrt2", 0.4, False),
    (2, 90, "sqrt2", 0.6704, True),  # just above the largest sum, 0.67035 q
    (3, 60, "sqrt2", 0.2, False),  # one length per block: P = 1
    (3, 80, "sqrt2", 0.6094, True),  # just above the largest sum, 0.60930 q
    (3, 80, "1/3", 0.4, False),  # singular lengths: D = +inf, never kept
    (3, 80, "1/3", 0.5494, True),
    (4, 70, "golden", 0.4, True),  # no block has a kept bin
    (4, 90, "sqrt2", 0.673, False),  # just below the largest sum, 0.67397 q
    (5, 85, "sqrt2", 0.1, False),
    (5, 85, "sqrt2", 0.6638, False),
])
def test_conditional_tail_bracket_contains_the_enumerated_tail(q, m, t, y, zero):
    # every tuple of block lengths, up to 960 of them, weighted by its
    # probability: the exact tail of the very values the bracket bins
    exact = _enumerated_tail(q, m, float(parse_torus_point(t)), y)
    assert (exact == 0.0) == zero
    cfg = default_config("conditional-tail", q=q, m=m, t=t, y=y)
    cell = run_conditional_tail(cfg).cells[0]
    assert cell["lower"] <= exact <= cell["upper"]


def test_conditional_tail_tilted_estimate_matches_a_bruteforce_count():
    # a common event (predicted 0.35): hits of the block-conditioned law,
    # each block drawn by searchsorted on its 1/ell table, counted here; the
    # count must lie in the bracket widened by 4 of its standard errors
    cfg = default_config("conditional-tail", seed=3, y=0.25, q=8)
    cell = run_conditional_tail(cfg).cells[0]
    n, t = 60000, float(parse_torus_point("sqrt2"))
    rng = stream(3, "oracle")
    sums = np.zeros(n)
    for k in range(cfg.m, cfg.m + cfg.q):
        lengths, table = one_over_ell_table(*block_bounds(k, cfg.rho))
        idx = np.searchsorted(table["cum"], rng.random(n) * table["total"])
        sums += log_abs_term_array(lengths[np.minimum(idx, len(lengths) - 1)], t)
    p = np.count_nonzero(sums >= 0.25 * 8) / n
    assert 0.2 < p < 0.5
    se = math.sqrt(p * (1.0 - p) / n)
    assert cell["lower"] - 4.0 * se <= p <= cell["upper"] + 4.0 * se


def test_conditional_tail_quadrature_oracle_q1():
    # q = 1, small y: P(V >= y) = 1 - 2 arcsin(e^y/2)/pi
    y = 0.3
    cfg = default_config("conditional-tail", seed=7, y=y, q=1, m=400)
    report = run_conditional_tail(cfg)
    cells = {c["estimator"]: c for c in report.cells}
    exact = 1.0 - 2.0 * math.asin(math.exp(y) / 2.0) / math.pi
    assert cells["block-conditioned"]["estimate"] == pytest.approx(exact, rel=0.05)
    assert cells["iid-exact"]["estimate"] == pytest.approx(exact, rel=0.05)
    # and the exact finite sum over the block's 25 million lengths, in chunks
    a, b = block_bounds(cfg.m, cfg.rho)
    hits = 0.0
    for start in range(a, b, 1 << 20):
        lengths = np.arange(start, min(start + (1 << 20), b), dtype=np.int64)
        kept = log_abs_term_array(lengths, experiments.SQRT2) >= y
        hits += float((1.0 / lengths[kept]).sum())
    cell = cells["block-conditioned"]
    assert cell["lower"] <= hits / block_mean(cfg.m, cfg.rho) <= cell["upper"]


def test_conditional_tail_tilt_without_overflow():
    # beta = 3397 at y = 0.693: a tail of 2e-54, far below the rounding of
    # untilted transforms of mass 1, and an untilt factor of e^{1.5 beta c}
    cfg = default_config("conditional-tail", seed=1, y=0.693)
    cells = {c["estimator"]: c for c in run_conditional_tail(cfg).cells}
    a = cells["block-conditioned"]["estimate"]
    assert math.isfinite(a) and a > 0.0
    assert cells["iid-exact"]["estimate"] == ratefn.iid_tail(0.693, 32)
    assert cells["iid-exact"]["estimate"] == pytest.approx(2.035e-54, rel=1e-3)


@pytest.mark.parametrize("q", [1, 8, 32])
def test_block_tail_is_thread_count_invariant(q):
    # each worker bins and transforms whole blocks; the caller multiplies
    # their spectra in block order, so every product keeps its bits
    y = _critical().x_crit
    beta = ratefn.legendre(y)[1]
    args = (list(range(185, 185 + q)), 0.05, parse_torus_point("sqrt2"), y, beta)
    one = experiments._block_tail(*args, threads=1)
    assert 0.0 < one[0] < one[1]
    for threads in (2, 8):
        assert experiments._block_tail(*args, threads=threads) == one


def test_conditional_tail_doubles_the_transform_past_its_wrap(monkeypatch):
    # at q = 96 near log 2 the first length, 2^17 on a 16x coarser grid,
    # wraps e^{-g L} of the kept mass, more than the lower end itself; the
    # bracket is redone at 2^18, where the wrap is e^{-2 g L}
    monkeypatch.setattr(experiments, "TAIL_WIDTH", 16 * experiments.TAIL_WIDTH)
    sizes, rfft = [], np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda a, n: sizes.append(n) or rfft(a, n))
    cfg = default_config("conditional-tail", seed=1, q=96, y=0.69, threads=2)
    report = run_conditional_tail(cfg)
    assert sizes == [1 << 17] * 96 + [1 << 18] * 96
    lower, upper = report.rows[0][1:]
    assert 0.0 < lower < upper < 1.1 * lower
    assert verdict(report, "conditioned-vs-iid")["passed"]


def test_conditional_tail_refuses_a_transform_past_its_cap(monkeypatch):
    # the same run with the longest transform cut to 2^17: the 2^18 that
    # the wrap bound needs is refused, and the message names it
    monkeypatch.setattr(experiments, "TAIL_WIDTH", 16 * experiments.TAIL_WIDTH)
    monkeypatch.setattr(experiments, "TAIL_MAX_L", 1 << 17)
    cfg = default_config("conditional-tail", seed=1, q=96, y=0.69)
    with pytest.raises(CapacityError, match=r"q = 96, y = 0\.69: the wrap bound needs "
                                            r"L = 262144 points, past the exact tail's 131072"):
        run_conditional_tail(cfg)


def test_conditional_tail_level_above_support_is_exact_zero():
    # the summands are bounded by log 2, so at y >= log 2 the probability
    # is zero exactly, not merely small
    cfg = default_config("conditional-tail", seed=9, samples=20000, y=0.695, q=4)
    report = run_conditional_tail(cfg)
    assert report.passed
    for cell in report.cells:
        assert cell["estimate"] == 0.0


def test_conditional_tail_major_arc_warns():
    cfg = default_config("conditional-tail", seed=11, samples=20000, t="1/3")
    report = run_conditional_tail(cfg)
    v = verdict(report, "minor-arc-input")
    assert v["warning"] and not v["passed"]
    assert report.passed  # warnings do not fail the run


def test_two_point_small():
    cfg = default_config("two-point", seed=1, samples=30000, y=0.28)
    report = run_two_point(cfg)
    buckets = [c for c in report.cells if isinstance(c.get("bucket"), int)]
    assert len(buckets) == 4
    top = buckets[-1]
    assert 0.4 <= top["joint_over_product"] <= 2.5
    assert top["max_abs_corr"] < 0.1
    diag = [c for c in report.cells if c.get("bucket") == "diagonal"][0]
    assert diag["joint_over_product"] == pytest.approx(1.0 / diag["rate"], rel=1e-9)


def test_two_point_refuses_an_empty_block():
    # rho = 0.05, m = 1: block k = 1 is [2, 2), whose 1/ell table is empty
    cfg = default_config("two-point", seed=1, m=1, samples=1000, y=0.28)
    with pytest.raises(InvalidArgumentError, match=r"empty integer range \[2, 2\)"):
        run_two_point(cfg)


def test_tilted_conditional_tail_refuses_an_empty_block():
    # the exact tail takes its lengths from the block bounds directly; a
    # worker's error reaches the caller with its message
    for threads in (1, 8):
        cfg = default_config("conditional-tail", seed=1, m=1, kappa=0.01, threads=threads)
        with pytest.raises(ConfigError, match=r"block k=1 = \[2, 2\) has no length"):
            run_conditional_tail(cfg)


# at most 300 weights below 1e250: their sum stays finite; subnormal
# weights give totals whose inverse overflows
_weight = st.one_of(st.just(0.0), st.floats(5e-324, 1e250))


@st.composite
def _weight_tables(draw):
    """Weights of a block pmf: arbitrary ones with zero runs, or tilted ones.

    Tilted weights e^{beta V} / ell at a dyadic rational t are exactly 0
    wherever ell t is an integer (V = -inf), and underflow to 0 far below
    the top of the tilted pmf at large beta.
    """
    if draw(st.booleans()):
        w = np.array(draw(st.lists(_weight, min_size=1, max_size=300)))
        w[draw(st.integers(0, len(w) - 1))] = draw(st.floats(5e-324, 1e250))
        return w
    a = draw(st.integers(1, 5000))
    lengths = np.arange(a, a + draw(st.integers(1, 300)), dtype=np.int64)
    t = draw(st.one_of(
        st.builds(Fraction, st.integers(1, 63), st.sampled_from([2, 4, 8, 64])),
        st.floats(0.0, 1.0)))
    beta = draw(st.floats(0.01, 64.0))
    with np.errstate(over="ignore"):
        return np.exp(beta * log_abs_term_array(lengths, float(t))) / lengths


@settings(max_examples=300, deadline=None)
@given(w=_weight_tables(), seed=st.integers(0, 2**32 - 1),
       excess=st.sampled_from([0.0, 0.0, 0.0, 1e-12, 0.5]))
@example(w=np.array([2.5]), seed=0, excess=0.0)
@example(w=np.array([1.0, 3.0]), seed=0, excess=0.0)
@example(w=np.array([1.0, 0.0, 0.0, 2.0, 0.0, 0.0]), seed=1, excess=0.0)
@example(w=np.array([0.1] * 10), seed=2, excess=0.0)
@example(w=np.array([1e-320, 2e-320, 0.0, 3e-321]), seed=3, excess=0.0)
@example(w=np.exp(64.0 * log_abs_term_array(np.arange(1, 301), 7e-9))
         / np.arange(1, 301), seed=4, excess=0.0)  # tilted to a subnormal total
@example(w=np.array([1.0, 2.0, 3.0]), seed=5, excess=0.5)
@example(w=np.array([2.5]), seed=6, excess=0.5)  # G = 1, total past cum[-1]
def test_guide_walk_matches_searchsorted(w, seed, excess):
    cum = np.cumsum(w)
    # the total may exceed cum[-1] (pairwise vs running sum); excess makes
    # the gap as large as it could only get for astronomically long tables
    total = float(w.sum()) * (1.0 + excess)
    assume(total > 0.0)  # every tilted weight may underflow: no pmf
    table = guide_table(cum, total)
    buckets = len(table["guide"])
    assert table["guide"].dtype == np.int64
    assert buckets >= len(cum) and buckets & (buckets - 1) == 0
    assert np.array_equal(table["cum"], cum) and table["cum"].base is table["sentinel"]
    rng = np.random.default_rng(seed)
    edges = np.arange(buckets) / buckets  # k / G, every bucket's first uniform
    hits = cum / total  # r * total at or next to a cumulative weight
    r = np.concatenate([
        rng.random(2000),  # uniform draws, as two-point's chunks make them
        [0.0, np.nextafter(1.0, 0.0)],
        edges, np.nextafter(edges[1:], 0.0), np.nextafter(edges, 1.0),
        hits, np.nextafter(hits, 0.0), np.nextafter(hits, 1.0),
    ])
    r = r[r < 1.0]
    expected = np.clip(np.searchsorted(cum, r * total, side="left"), 0, len(cum) - 1)
    assert np.array_equal(guide_index(table, r), expected)


def test_guide_walk_longer_than_two_steps():
    # 100 tiny weights share the bucket of the first heavy one: a walk of
    # 101 whole-array steps
    w = np.array([1.0] + [1e-12] * 100 + [1.0, 0.5])
    table = guide_table(np.cumsum(w), float(w.sum()))
    assert table["walk"] > 2
    r = np.concatenate([np.random.default_rng(0).random(5000),
                        np.nextafter(np.arange(1, 257) / 256, 0.0)])
    expected = np.searchsorted(table["cum"], r * table["total"], side="left")
    assert np.array_equal(guide_index(table, r), expected)


def test_calibrate_level_solves_exact_tail():
    y = _calibrate_level(32)
    assert _calibrate_level(32) == y
    assert 0.05 < y < _critical().x_crit
    assert ratefn.iid_tail(y, 32) == pytest.approx(1e-2, rel=1e-8)
    # the level holds up on an independent Monte Carlo substream
    est, _ = ratefn.tilted_tail_estimate(y, 32, 2 * 10**5, stream(3, "check"))
    assert 0.7e-2 <= est <= 1.4e-2


@pytest.mark.parametrize("y", [-1.0, -1e-9, math.log(2.0), 0.7, math.nan])
def test_two_point_refuses_a_level_outside_the_values(y):
    # y <= 0 lets nearly every draw hit; no draw reaches y >= log 2
    with pytest.raises(ConfigError, match=r"two-point needs 0 < y < log 2"):
        run_two_point(default_config("two-point", seed=1, samples=1000, y=y))


@pytest.mark.parametrize("q", [1, 3, 5000])
def test_calibrate_level_without_a_root_names_q(q):
    # at q <= 3 even x* has an i.i.d. tail above 10^-2; at q = 5000 even 0.05
    # has one below it
    with pytest.raises(ConfigError, match=rf"q = {q}: no level in \[0\.05, x\*\].*set y"):
        _calibrate_level(q)


def test_two_point_default_level_is_the_exact_one():
    report = run_two_point(default_config("two-point", seed=1, samples=2000))
    y = _calibrate_level(32)
    assert report.notes[0] == f"y={y!r} threshold={y * 32!r}"
    assert not any(n.startswith("calibration") for n in report.notes)


def test_arc_profile_deep_single_bohr_set():
    # a single low-frequency Bohr set with a thin width: the field is
    # decisively negative there and positive on the complement
    cfg = default_config("arc-profile", seed=1, replicas=40, xi0=1, alpha=0.8)
    report = run_arc_profile(cfg)
    assert verdict(report, "major-arc-nonpositive")["passed"]
    assert verdict(report, "minor-arc-positive")["passed"]
    assert verdict(report, "zero-point-neg-inf")["passed"]


def test_arc_profile_negativity_strengthens_with_thinner_arcs():
    fracs = []
    for alpha in (0.5, 0.8):
        cfg = default_config("arc-profile", seed=1, replicas=40, alpha=alpha)
        report = run_arc_profile(cfg)
        fracs.append(report.cells[0]["major_frac_nonpositive"])
    assert fracs[1] > fracs[0]


def test_arc_profile_minor_ratio_bracket():
    cfg = default_config("arc-profile", seed=1, replicas=40)
    report = run_arc_profile(cfg)
    med = report.cells[0]["minor_ratio"]["median"]
    assert 0.3 < med < 0.75


@pytest.mark.parametrize("overrides, empty", [
    (dict(alpha=0.05), "minor"),  # kappa = 100^-0.05 > 1/2
    (dict(kappa=0.49), "minor"),  # ||t|| > 0.49 puts ||2t|| < 0.02
    (dict(alpha=5.0), "major"),  # kappa = 1e-10 misses every rotated point
])
def test_arc_profile_rejects_an_empty_side(monkeypatch, overrides, empty):
    def no_draws(*args):
        raise AssertionError("a replica was drawn")

    monkeypatch.setattr(experiments, "sample_poisson_counts", no_draws)
    cfg = default_config("arc-profile", seed=1, n_values=(100,), **overrides)
    with pytest.raises(ConfigError, match=rf"xi0=5, kappa=.* q = 200 .*the {empty} side"):
        run_arc_profile(cfg)


def test_poisson_vs_permutation_truncated_counts():
    # N = 1e4, W = 100: counts of short cycles match the Poisson surrogate
    n, cutoff, draws = 10**4, 100, 100000
    rng = stream(101, "arta")
    perm_totals = np.empty(draws, dtype=np.int64)
    for i in range(draws):
        cs = sample_cycle_structure(n, rng)
        perm_totals[i] = cs.counts[cs.lengths <= cutoff].sum()
    pois_totals = stream(101, "artapois").poisson(
        harmonic_sum(1, cutoff + 1), size=draws
    )
    hi = int(max(perm_totals.max(), pois_totals.max())) + 1
    obs_p = np.bincount(perm_totals, minlength=hi).astype(float)
    obs_z = np.bincount(pois_totals, minlength=hi).astype(float)
    keep = (obs_p + obs_z) >= 10
    obs_p = np.append(obs_p[keep], obs_p[~keep].sum())
    obs_z = np.append(obs_z[keep], obs_z[~keep].sum())
    # two-sample chi-square with equal sample sizes
    chi2 = float(((obs_p - obs_z) ** 2 / (obs_p + obs_z + 1e-30)).sum())
    dof = len(obs_p) - 1
    pvalue = stats.chi2.sf(chi2, dof)
    assert pvalue > 1e-3


@pytest.mark.parametrize("name,overrides", [
    ("lln", dict(replicas=3, n_values=(500, 2000))),
    ("imag", dict(replicas=3, n_values=(2000,))),
    ("clt", dict(replicas=50, n_values=(2000,))),
    ("conditional-tail", dict(samples=20000)),
    ("two-point", dict(samples=5000, y=0.25)),
    ("arc-profile", dict(replicas=5, n_values=(10000,))),
    ("occupancy", dict(replicas=300)),
])
def test_reports_thread_count_invariant_and_schema(name, overrides):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as res

    cfg1 = default_config(name, seed=12, threads=1, **overrides)
    cfg8 = default_config(name, seed=12, threads=8, **overrides)
    r1 = run_experiment(name, cfg1)
    r8 = run_experiment(name, cfg8)
    assert r1.json_bytes() == r8.json_bytes()
    assert r1.csv_text() == r8.csv_text()
    schema = json.loads(
        res.files("permfield").joinpath("report.schema.json").read_text()
    )
    jsonschema.validate(json.loads(r1.json_bytes()), schema)


def test_reports_thread_count_invariant_across_chunks(monkeypatch):
    # small chunks, so that several of them run on the workers at once; the
    # last chunk is short
    monkeypatch.setattr(experiments, "CHUNK", 1000)
    reports = [run_two_point(default_config("two-point", seed=12, threads=threads,
                                            samples=2500, y=0.25))
               for threads in (1, 2, 8)]
    assert len({r.json_bytes() for r in reports}) == 1
    assert len({r.csv_text() for r in reports}) == 1


@pytest.mark.parametrize("name,overrides,hashes", [
    ("conditional-tail", dict(samples=30000), ("edc1b6a8", "ca820f6c")),
    ("two-point", dict(samples=10000, y=0.25), ("1baf1a90", "cb2ba868")),
])
@pytest.mark.parametrize("threads", [1, 2])
def test_block_draw_reports_keep_their_bytes(name, overrides, hashes, threads):
    # sha256 prefixes of the JSON and CSV of the reduced criterion-14 runs
    # (scripts/report_hashes.py): a faster draw must leave every byte
    report = run_experiment(name, default_config(name, seed=12, threads=threads,
                                                  **overrides))
    assert (hashlib.sha256(report.json_bytes()).hexdigest()[:8],
            hashlib.sha256(report.csv_text().encode()).hexdigest()[:8]) == hashes


def test_occupancy_means_match_the_exact_poisson_means():
    # lambda_k as psi(b) - psi(a) at 30 digits, and P(N_k = 1) and
    # P(N_k >= 2) of Poisson(lambda_k) from scipy.stats, summed block by block
    mpmath = pytest.importorskip("mpmath")
    cfg = default_config("occupancy", n_blocks=50)
    report = run_occupancy(cfg)
    with mpmath.workdps(30):
        lam = np.array([float(mpmath.psi(0, b) - mpmath.psi(0, a)) for a, b in
                        (block_bounds(k, cfg.rho) for k in range(cfg.m, cfg.m + 50))])
    for key, col, terms in (("q1", 2, stats.poisson.pmf(1, lam)),
                            ("q2plus", 4, stats.poisson.sf(1, lam)),
                            ("total", 5, lam)):
        assert report.cells[0][f"mean_{key}"] == pytest.approx(terms.sum(), rel=1e-12), key
        assert np.allclose([row[col] for row in report.rows], terms, rtol=1e-12, atol=0)


def test_occupancy_report_is_the_same_at_every_seed_and_thread_count():
    # computed, not sampled: seed and threads move no byte but the echoed seed,
    # and the rows add up to the cell's means
    reports = [run_occupancy(default_config("occupancy", seed=seed, threads=threads,
                                            n_blocks=300))
               for seed in (1, 2) for threads in (1, 2, 8)]

    def unseeded(report):
        data = json.loads(report.json_bytes())
        del data["seed"], data["config"]["seed"]
        return data

    assert all(unseeded(r) == unseeded(reports[0]) for r in reports)
    assert len({r.csv_text() for r in reports}) == 1
    cell = reports[0].cells[0]
    for key, col in (("q1", 2), ("q2plus", 4), ("total", 5)):
        assert math.fsum(row[col] for row in reports[0].rows) == pytest.approx(
            cell[f"mean_{key}"], rel=1e-12, abs=0)


@pytest.mark.parametrize("rho,m,n_blocks,min_gap", [(0.3, 200, 100, 0.0),
                                                    (0.35, 200, 150, 1e-15)])
def test_occupancy_total_tolerance_covers_the_rounding(rho, m, n_blocks, min_gap):
    # 2 / ceil(e^{rho m}) is below 1e-20 here, so only the rounding term of the
    # tolerance can cover E N - rho nb, which at (0.35, 200, 150) is 1.4e-14
    report = run_occupancy(default_config("occupancy", rho=rho, m=m, n_blocks=n_blocks))
    cell = report.cells[0]
    assert 2.0 / block_bounds(m, rho)[0] < 1e-20
    assert verdict(report, "total-concentration")["passed"]
    assert min_gap <= abs(cell["mean_total"] - cell["predicted_total"])
    assert cell["tolerance_total"] < 1e-10


def _error_of(run):
    """The exception run() raises, from a helper thread that must finish in 60 s."""
    box = {}

    def target():
        try:
            run()
        except Exception as exc:
            box["error"] = exc

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(timeout=60)
    assert not helper.is_alive(), "the run hung"
    return box.get("error")


def test_two_point_value_build_error_reaches_the_caller(monkeypatch):
    calls = itertools.count()

    def failing(lengths, t):
        # two calls per block, at s and at t: call 8 builds a block of one
        # of the pairs running on the two workers
        if next(calls) == 8:
            raise RuntimeError("value build failed")
        return log_abs_term_array(lengths, t)

    monkeypatch.setattr(experiments, "log_abs_term_array", failing)
    monkeypatch.setattr(experiments, "CHUNK", 500)
    cfg = default_config("two-point", seed=3, samples=4000, y=0.25, threads=2)
    error = _error_of(lambda: run_two_point(cfg))
    assert isinstance(error, RuntimeError) and str(error) == "value build failed"


def test_two_point_builds_each_block_once_per_pair(monkeypatch):
    # 16 chunks per pair, pairs on more workers than cores, switching
    # threads often: every chunk of a pair reads the one build of a block
    calls = itertools.count()

    def counted(lengths, t):
        next(calls)
        return log_abs_term_array(lengths, t)

    monkeypatch.setattr(experiments, "log_abs_term_array", counted)
    monkeypatch.setattr(experiments, "CHUNK", 250)
    cfg = default_config("two-point", seed=3, samples=4000, y=0.25, threads=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _error_of(lambda: run_two_point(cfg)) is None
    finally:
        sys.setswitchinterval(interval)
    assert next(calls) == 2 * cfg.q * 12  # s and t, every block, 12 pairs


def test_two_point_runs_its_pairs_on_every_worker(monkeypatch):
    callers = set()

    def recorded(lengths, t):
        callers.add(threading.get_ident())
        return log_abs_term_array(lengths, t)

    monkeypatch.setattr(experiments, "log_abs_term_array", recorded)
    cfg = default_config("two-point", seed=3, samples=4000, y=0.25, threads=4)
    assert _error_of(lambda: run_two_point(cfg)) is None
    assert len(callers) >= 3  # 12 pairs on 4 workers, not one chunk per pair


def test_worker_error_reaches_the_caller(monkeypatch):
    calls = itertools.count()
    failed_on = []

    def failing(table, u):
        if next(calls) == 40:
            failed_on.append(threading.current_thread())
            raise RuntimeError("draw failed")
        return guide_index(table, u)

    monkeypatch.setattr(experiments, "guide_index", failing)
    monkeypatch.setattr(experiments, "CHUNK", 500)
    cfg = default_config("two-point", seed=3, threads=2, samples=4000, y=0.25)
    error = _error_of(lambda: run_two_point(cfg))
    assert isinstance(error, RuntimeError) and str(error) == "draw failed"
    assert failed_on and failed_on[0] is not threading.main_thread()


def test_report_write_naming(tmp_path):
    cfg = default_config("occupancy", seed=77, replicas=200)
    report = run_occupancy(cfg)
    jp, cp = report.write(tmp_path)
    assert jp.endswith("occupancy-77.json") and cp.endswith("occupancy-77.csv")
    data = json.loads(open(jp, "rb").read())
    assert data["seed"] == 77 and data["row_count"] == len(report.rows)
    # byte-identical rerun
    report2 = run_occupancy(cfg)
    assert report2.json_bytes() == open(jp, "rb").read()
