import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from permfield import ratefn
from permfield.cycles import harmonic_sum, sample_cycle_structure
from permfield.errors import ConfigError
from permfield.experiments import (
    _calibrate_level,
    _critical,
    _guide_index,
    _guide_table,
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
        default_config("no-such-experiment")


def test_config_echo_excludes_threads():
    cfg = default_config("occupancy", seed=3, threads=8)
    assert "threads" not in cfg.echo()


def test_occupancy_small_run_passes():
    report = run_occupancy(default_config("occupancy", seed=1, replicas=2000))
    assert report.passed
    cell = report.cells[0]
    assert abs(cell["mean_q1"] - cell["predicted_q1"]) <= cell["tolerance_q1"]
    # verdicts recomputable from raw rows
    total_q1 = sum(row[2] for row in report.rows)
    reps = sum(row[1] for row in report.rows)
    assert total_q1 / reps == pytest.approx(cell["mean_q1"], rel=1e-12)


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


def test_conditional_tail_small():
    cfg = default_config("conditional-tail", seed=1, samples=150000)
    report = run_conditional_tail(cfg)
    assert report.passed
    cells = {c["estimator"]: c for c in report.cells}
    a = cells["block-conditioned"]["estimate"]
    b = cells["iid-exact"]["estimate"]
    c = cells["bahadur-rao"]["estimate"]
    assert 0.5 <= a / b <= 2.0
    assert 2 / 3 <= b / c <= 1.5
    # the raw rows recompute the block-conditioned estimate
    rows_a = [r for r in report.rows if r[0] == "block-conditioned"]
    est = sum(r[3] for r in rows_a) / sum(r[2] for r in rows_a)
    assert est == pytest.approx(a, rel=1e-12)


def test_conditional_tail_direct_path_for_common_events():
    # moderate level: the predicted tail is above the naive-MC floor, so the
    # direct sampler (exact conditional pmf per block) is used
    cfg = default_config("conditional-tail", seed=3, samples=60000, y=0.25, q=8)
    report = run_conditional_tail(cfg)
    assert "method=direct" in report.notes[0].replace("'", "")
    cells = {c["estimator"]: c for c in report.cells}
    assert cells["block-conditioned"]["estimate"] > 1e-3


def test_conditional_tail_quadrature_oracle_q1():
    # q = 1, small y: P(V >= y) = 1 - 2 arcsin(e^y/2)/pi
    y = 0.3
    cfg = default_config("conditional-tail", seed=7, samples=200000, y=y, q=1,
                         m=400)
    report = run_conditional_tail(cfg)
    cells = {c["estimator"]: c for c in report.cells}
    exact = 1.0 - 2.0 * math.asin(math.exp(y) / 2.0) / math.pi
    assert cells["block-conditioned"]["estimate"] == pytest.approx(exact, rel=0.05)
    assert cells["iid-exact"]["estimate"] == pytest.approx(exact, rel=0.05)


def test_conditional_tail_tilt_without_overflow():
    # beta = 3397 at y = 0.693: e^{beta V} overflows unless the weights are
    # shifted by max V, which used to make (a) exactly 0.0
    cfg = default_config("conditional-tail", seed=1, samples=20000, y=0.693)
    cells = {c["estimator"]: c for c in run_conditional_tail(cfg).cells}
    a = cells["block-conditioned"]["estimate"]
    assert math.isfinite(a) and a > 0.0
    assert cells["iid-exact"]["estimate"] == ratefn.iid_tail(0.693, 32)
    assert cells["iid-exact"]["estimate"] == pytest.approx(2.035e-54, rel=1e-3)


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
@example(w=np.array([1.0, 0.0, np.inf, 2.0]), seed=6, excess=0.0)  # overflowed tilt
def test_guide_walk_matches_searchsorted(w, seed, excess):
    cum = np.cumsum(w)
    # the total may exceed cum[-1] (pairwise vs running sum); excess makes
    # the gap as large as it could only get for astronomically long tables
    total = float(w.sum()) * (1.0 + excess)
    assume(total > 0.0)  # every tilted weight may underflow: no pmf
    table = _guide_table(cum, total)
    assert table["guide"].dtype == np.int64 and len(table["guide"]) == len(cum)
    rng = np.random.default_rng(seed)
    u = np.concatenate([
        rng.random(2000) * total,  # the draws of _block_draws
        [0.0, total, cum[-1], max(total, cum[-1]) * (1.0 + 1e-15)],
        cum, np.nextafter(cum, 0.0), np.nextafter(cum, np.inf),
        rng.random(50) * 2.0 * total,  # u beyond cum[-1] clips to the end
    ])
    expected = np.clip(np.searchsorted(cum, u, side="left"), 0, len(cum) - 1)
    assert np.array_equal(_guide_index(table, u), expected)


def test_calibrate_level_solves_exact_tail():
    y = _calibrate_level(32)
    assert _calibrate_level(32) == y
    assert 0.05 < y < _critical().x_crit
    assert ratefn.iid_tail(y, 32) == pytest.approx(1e-2, rel=1e-8)
    # the level holds up on an independent Monte Carlo substream
    est, _ = ratefn.tilted_tail_estimate(y, 32, 2 * 10**5, stream(3, "check"))
    assert 0.7e-2 <= est <= 1.4e-2


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


def test_poisson_vs_permutation_truncated_counts():
    # N = 1e4, W = 100: counts of short cycles match the Poisson surrogate
    n, cutoff, draws = 10**4, 100, 100000
    rng = stream(101, "arta")
    perm_totals = np.empty(draws, dtype=np.int64)
    for i in range(draws):
        cs = sample_cycle_structure(n, rng)
        perm_totals[i] = sum(c for ell, c in cs.counts.items() if ell <= cutoff)
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
