"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Seeds are pinned so every Monte Carlo verdict is deterministic. Runtime
budgets are asserted where the criterion states one. Criteria 6 and 10
are implemented exactly as stated; the parts of them that desk-scale
simulation provably cannot satisfy (finite-size fluctuations the
asymptotic statements absorb into o(1) terms) are left to fail honestly
rather than weakened -- see notes/decisions.md for the analysis.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
from scipy import stats

from permfield import ratefn
from permfield.cycles import (
    CycleCounts,
    exact_cycle_type_probability,
    sample_cycle_structure,
)
from permfield.experiments import (
    default_config,
    run_arc_profile,
    run_clt_check,
    run_conditional_tail,
    run_experiment,
    run_imag_scan,
    run_lln_scan,
    run_occupancy,
    run_two_point,
)
from permfield.field import FieldSpec, Mesh, NEG_INF, scan_max
from permfield.kronecker import decay_envelope, phi_hat
from permfield.streams import stream

SEED_SCAN = 4  # drives both the real and imaginary mesh scans (shared draws)
SEED_CLT = 18
SEED_TAIL = 1
SEED_TWOPOINT = 1
SEED_ARC = 1
SEED_OCC = 1

_scan_cache = {}


@contextmanager
def budget(criterion, seconds):
    t0 = time.perf_counter()
    state = {"detail": ""}
    yield state
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.1f}s) {state['detail']}")
    assert elapsed < seconds, f"{criterion} exceeded its {seconds}s budget"


def lln_report():
    if "lln" not in _scan_cache:
        _scan_cache["lln"] = run_lln_scan(
            default_config("lln", seed=SEED_SCAN, replicas=20))
    return _scan_cache["lln"]


def imag_report():
    if "imag" not in _scan_cache:
        _scan_cache["imag"] = run_imag_scan(
            default_config("imag", seed=SEED_SCAN, replicas=20))
    return _scan_cache["imag"]


def test_criterion_01_critical_constants(capsys):
    with budget("01 critical-constants", 1.0) as st:
        sol = ratefn.solve_critical()
        assert abs(sol.x_crit - 0.6524) <= 5e-4
        assert abs(sol.beta_crit - 11.746) <= 5e-3
        assert sol.residual <= 1e-10
        st["detail"] = f"x*={sol.x_crit:.6f} beta*={sol.beta_crit:.4f}"


def test_criterion_02_rate_function_identities():
    with budget("02 rate-identities", 5.0) as st:
        assert abs(ratefn.log_mgf(2.0) - math.log(2.0)) <= 1e-10
        assert abs(ratefn.log_mgf(2.0) - ratefn.log_mgf_quad(2.0)) <= 1e-10
        from scipy import integrate

        ev, _ = integrate.quad(
            lambda u: math.log(2.0 * math.sin(math.pi * u)), 0, 1, limit=400)
        assert abs(ev) <= 1e-10
        for beta in np.linspace(1.0, 20.0, 39):
            assert ratefn.log_mgf_derivs(float(beta))[1] > 0.0
        sol = ratefn.solve_critical()
        assert sol.beta_crit >= 1.0 / math.log(2.0)
        st["detail"] = "log_mgf(2)=log 2, E[V]=0, convex, beta*>=1/log2"


def test_criterion_03_sampler_exactness():
    with budget("03 sampler-chi2", 30.0) as st:
        from test_cycles import partitions

        worst_p = 1.0
        for n in (3, 4, 5, 6):
            types = list(partitions(n))
            probs = np.array(
                [exact_cycle_type_probability(CycleCounts.from_dict(n, p)) for p in types])
            index = {tuple(sorted(p.items())): i for i, p in enumerate(types)}
            rng = stream(SEED_TAIL, "acc3", n)
            observed = np.zeros(len(types))
            for _ in range(100000):
                cs = sample_cycle_structure(n, rng)
                assert int(cs.lengths @ cs.counts) == n
                observed[index[tuple(zip(cs.lengths.tolist(), cs.counts.tolist()))]] += 1
            _, pvalue = stats.chisquare(observed, probs * 100000)
            worst_p = min(worst_p, pvalue)
            assert pvalue > 1e-3
        st["detail"] = f"worst chi2 p-value {worst_p:.4f} over n in 3..6"


def test_criterion_04_clt_reproduction():
    with budget("04 clt", 120.0) as st:
        cfg = default_config("clt", seed=SEED_CLT, replicas=2000,
                             n_values=(10**6,), t="golden")
        report = run_clt_check(cfg)
        cell = report.cells[0]
        assert 0.85 <= cell["sample_variance"] <= 1.15
        assert cell["ks_distance"] < 0.05
        st["detail"] = (f"variance {cell['sample_variance']:.4f}, "
                        f"KS {cell['ks_distance']:.4f} (2000 reps, N=1e6)")


def test_criterion_05_imaginary_lln():
    with budget("05 imag-lln", 180.0) as st:
        report = imag_report()
        med = report.cells[-1]["ratio"]["median"]
        lo, hi = 0.85 * math.pi / 2.0, 1.05 * math.pi / 2.0
        assert lo < med < hi
        for v in report.verdicts:
            if v["name"] in ("imag-pointwise-bound", "imag-witness-identity"):
                assert v["passed"], v
        st["detail"] = f"median max Im/log N = {med:.4f} in ({lo:.4f}, {hi:.4f})"


def test_criterion_06_real_part_bounds():
    # implemented exactly as stated; the 100%-of-replicas crude bound and the
    # >=90% bracket are not attainable at N <= 1e6, where the total cycle
    # count fluctuates by Poisson(log N) (relative sd ~ 27%); the run-level
    # verdicts use the module's median forms instead (see decisions ledger)
    t0 = time.perf_counter()
    report = lln_report()
    ratios_by_n = {}
    for row in report.rows:
        ratios_by_n.setdefault(row[0], []).append(row[4])
    crude = math.log(2.0) + 0.05
    frac_crude_ok = np.mean([r < crude for rs in ratios_by_n.values() for r in rs])
    top = max(ratios_by_n)
    in_bracket = np.mean([0.45 < r < math.log(2.0) for r in ratios_by_n[top]])
    medians = [float(np.median(ratios_by_n[n])) for n in sorted(ratios_by_n)]
    monotone = all(b >= a for a, b in zip(medians, medians[1:]))
    clauses = {
        "crude bound in 100% of replicas": frac_crude_ok == 1.0,
        "bracket (0.45, log2) in >=90% at N=1e6": in_bracket >= 0.9,
        "median increasing or flat 1e3->1e6": monotone,
    }
    elapsed = time.perf_counter() - t0
    detail = (f"crude-ok fraction {frac_crude_ok:.2f}, bracket fraction "
              f"{in_bracket:.2f}, medians {[round(m, 3) for m in medians]}")
    passed = all(clauses.values())
    print(f"ACCEPTANCE 06 real-bounds: {'PASS' if passed else 'FAIL'} "
          f"({elapsed:.1f}s) {detail}")
    for name, ok in clauses.items():
        print(f"  clause: {name}: {'PASS' if ok else 'FAIL'}")
    assert passed, (
        f"criterion 6 as stated fails at desk scale: {detail}. The max/log N "
        "per replica is driven by the Poisson(log N) total cycle count whose "
        "relative fluctuation is ~27% at N=1e6; see notes/decisions.md.")


def test_criterion_07_bahadur_rao_oracle():
    with budget("07 bahadur-rao", 60.0) as st:
        sol = ratefn.solve_critical()
        est, se = ratefn.tilted_tail_estimate(
            sol.x_crit, 32, 10**6, stream(SEED_TAIL, "acc7"))
        pred = ratefn.bahadur_rao_tail(sol.x_crit, 32)
        ratio = est / pred
        assert 2.0 / 3.0 <= ratio <= 1.5
        st["detail"] = f"IS/analytic = {ratio:.4f} at q=32 (1e6 tilted samples)"


def test_criterion_08_conditional_vs_iid_tails():
    with budget("08 conditional-tail", 300.0) as st:
        cfg = default_config("conditional-tail", seed=SEED_TAIL, samples=10**6)
        assert math.exp(cfg.rho * cfg.m) >= 1e4
        report = run_conditional_tail(cfg)
        cells = {c["estimator"]: c for c in report.cells}
        ratio_ab = (cells["block-conditioned"]["estimate"]
                    / cells["iid-exact"]["estimate"])
        assert 0.5 <= ratio_ab <= 2.0
        for v in report.verdicts:
            assert v["passed"] or v["warning"], v
        st["detail"] = f"(a)/(b) = {ratio_ab:.4f} at q=32, minor-arc t=sqrt2-1"


def test_criterion_09_two_point_decorrelation():
    with budget("09 two-point", 300.0) as st:
        cfg = default_config("two-point", seed=SEED_TWOPOINT, samples=10**5)
        report = run_two_point(cfg)
        buckets = [c for c in report.cells if isinstance(c.get("bucket"), int)]
        top = buckets[-1]
        assert 0.5 <= top["joint_over_product"] <= 2.0
        assert top["max_abs_corr"] < 0.1
        assert 3e-3 < top["rate_s"] < 3e-2  # single-point level ~1e-2
        st["detail"] = (f"joint/product = {top['joint_over_product']:.3f}, "
                        f"corr {top['max_abs_corr']:.4f}, p ~ {top['rate_s']:.4f}")


def test_criterion_10_arc_dichotomy():
    # exactly as stated: N=1e5, xi0=5, kappa=N^{-0.3}; at this width the
    # union of Bohr sets covers 6.93 kappa = 21.9% of the torus and its
    # outer arcs behave like generic points, so the sup over the major arcs
    # is positive in every replica -- the proposition's negativity needs
    # thinner arcs (the mechanism is demonstrated at xi0=1 in
    # test_experiments); see ledger
    t0 = time.perf_counter()
    cfg = default_config("arc-profile", seed=SEED_ARC, replicas=200,
                         xi0=5, alpha=0.3)
    report = run_arc_profile(cfg)
    cell = report.cells[0]
    zero_ok = cell["zero_point_all_neg_inf"]
    frac = cell["major_frac_nonpositive"]
    elapsed = time.perf_counter() - t0
    passed = frac >= 0.9 and zero_ok
    print(f"ACCEPTANCE 10 arc-dichotomy: {'PASS' if passed else 'FAIL'} "
          f"({elapsed:.1f}s) major sup <= 0 in {frac:.0%} of 200 replicas; "
          f"t=0 cell -inf: {zero_ok}")
    assert zero_ok, "the t=0 cell must be -inf in every replica"
    assert passed, (
        f"criterion 10 as stated fails at desk scale: major-arc sup <= 0 in "
        f"{frac:.0%} of replicas (needs >= 90%). kappa = N^-0.3 = 0.032 makes "
        "Maj(5, kappa) cover 6.93 kappa = 21.9% of the torus; see notes/decisions.md.")


def test_criterion_11_occupancy_statistics():
    with budget("11 occupancy", 120.0) as st:
        cfg = default_config("occupancy", seed=SEED_OCC, replicas=10**4,
                             rho=0.1, m=200, n_blocks=2000)
        report = run_occupancy(cfg)
        assert report.passed
        cell = report.cells[0]
        assert abs(cell["mean_q1"] - cell["predicted_q1"]) <= cell["tolerance_q1"]
        assert cell["mean_q2plus"] <= cell["bound_q2plus"]
        st["detail"] = (f"mean |Q1| = {cell['mean_q1']:.2f} vs "
                        f"{cell['predicted_q1']:.2f} +- {cell['tolerance_q1']:.2f}")


def test_criterion_12_fourier_decay():
    with budget("12 fourier-decay", 60.0) as st:
        slopes = {}
        for z in (1.0, 1 + 5j, 2.5):
            slope, _ = decay_envelope(z, 256)
            slopes[str(z)] = slope
            assert slope <= -1.4
        assert slopes["2.5"] <= -1.8
        for xi in (2, 3, 5, 16):
            assert abs(phi_hat(2.0, xi).value) < 1e-9
            assert abs(phi_hat(2.0, -xi).value) < 1e-9
        st["detail"] = "slopes " + ", ".join(
            f"{k}: {v:.2f}" for k, v in slopes.items())


def test_criterion_13_performance():
    with budget("13 performance", 90.0) as st:
        rng = stream(SEED_TAIL, "acc13")
        t0 = time.perf_counter()
        cs9 = sample_cycle_structure(10**9, rng)
        t_sample = time.perf_counter() - t0
        assert t_sample < 1.0
        assert int(cs9.lengths @ cs9.counts) == 10**9
        n = 10**7
        cs = sample_cycle_structure(n, rng)
        mesh = Mesh(q=2 * n, theta_num=1, theta_den=7)
        t0 = time.perf_counter()
        res = scan_max(FieldSpec(counts=cs), mesh, threads=8)
        t_scan = time.perf_counter() - t0
        assert t_scan < 60.0
        assert res.value > NEG_INF
        st["detail"] = (f"1e9 structure in {t_sample * 1e3:.0f} ms; 2e7-point "
                        f"scan at N=1e7 in {t_scan:.1f} s (8 threads)")


def test_criterion_14_determinism():
    with budget("14 determinism", 240.0) as st:
        reduced = {
            "lln": dict(replicas=3, n_values=(500, 5000)),
            "imag": dict(replicas=3, n_values=(5000,)),
            "clt": dict(replicas=100, n_values=(10**4,)),
            "conditional-tail": dict(samples=30000),
            "two-point": dict(samples=10000, y=0.25),
            "arc-profile": dict(replicas=8, n_values=(20000,)),
            "occupancy": dict(replicas=500),
        }
        for name, overrides in reduced.items():
            r1 = run_experiment(name, default_config(name, seed=12, threads=1,
                                                     **overrides))
            r8 = run_experiment(name, default_config(name, seed=12, threads=8,
                                                     **overrides))
            assert r1.json_bytes() == r8.json_bytes(), name
            assert r1.csv_text() == r8.csv_text(), name
        cs = sample_cycle_structure(10**6, stream(SEED_TAIL, "acc14"))
        mesh = Mesh(q=2 * 10**6, theta_num=1, theta_den=7)
        one = scan_max(FieldSpec(counts=cs), mesh, threads=1, want_trace=True)
        eight = scan_max(FieldSpec(counts=cs), mesh, threads=8, want_trace=True)
        assert one.index == eight.index and one.value == eight.value
        assert np.array_equal(one.trace, eight.trace)
        st["detail"] = "all experiment reports and a 2e6-point scan bit-identical"
