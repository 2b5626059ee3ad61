import math
from fractions import Fraction

import numpy as np
import pytest

from permfield.cycles import CycleStructure, PoissonCounts, sample_cycle_structure
from permfield.errors import CapacityError, InvalidArgumentError
from permfield.field import (
    NEG_INF,
    FieldSpec,
    Mesh,
    arg_term,
    eval_point,
    log_abs_term,
    scan_max,
    split_field,
    write_trace_csv,
)
from permfield.streams import stream

FIG_PARTITION = CycleStructure(100, {56: 1, 22: 1, 9: 2, 4: 1})


def test_log_abs_term_values():
    assert log_abs_term(Fraction(1, 2)) == pytest.approx(math.log(2), abs=1e-15)
    assert log_abs_term(0.5) == pytest.approx(math.log(2), abs=1e-15)
    assert log_abs_term(Fraction(0)) == NEG_INF
    assert log_abs_term(0.0) == NEG_INF
    # 2 sin(pi/6) = 1
    assert log_abs_term(Fraction(1, 6)) == pytest.approx(0.0, abs=1e-15)
    # float threshold vs exact rational
    assert log_abs_term(1e-16) == NEG_INF
    assert log_abs_term(Fraction(1, 10**20)) > NEG_INF
    assert log_abs_term(1e-12, exact_zero=True) > NEG_INF
    # the reduction mod 1 is exact: a tiny negative float is not 0 mod 1
    assert log_abs_term(-1e-20, exact_zero=True) == log_abs_term(Fraction(-1e-20))
    assert log_abs_term(-1e-20, exact_zero=True) == pytest.approx(
        math.log(2 * math.pi * 1e-20), rel=1e-12)


def test_arg_term_values():
    assert arg_term(0.5) == pytest.approx(0.0, abs=1e-15)
    assert arg_term(0.25) == pytest.approx(-math.pi / 4, abs=1e-15)
    assert arg_term(1.0 - 1e-9) == pytest.approx(math.pi / 2, abs=1e-8)
    assert arg_term(Fraction(1, 4)) == pytest.approx(-math.pi / 4, abs=1e-15)


def test_eval_point_examples():
    spec = FieldSpec(counts=CycleStructure(2, {1: 2}))
    assert eval_point(spec, Fraction(1, 2)) == pytest.approx(2 * math.log(2), abs=1e-14)
    # a length divisible by 3 forces the singularity at t = 1/3
    assert eval_point(FieldSpec(counts=FIG_PARTITION), Fraction(1, 3)) == NEG_INF
    assert eval_point(FieldSpec(counts=FIG_PARTITION), Fraction(0)) == NEG_INF
    assert eval_point(FieldSpec(counts=CycleStructure(5, {5: 1})), 0.0) == NEG_INF


def test_imaginary_kind_always_finite():
    spec = FieldSpec(counts=FIG_PARTITION, kind="imag")
    for t in (Fraction(0), Fraction(1, 3), Fraction(1, 9), 0.123, 0.0):
        assert math.isfinite(eval_point(spec, t))


def test_pointwise_upper_bound():
    rng = stream(61, "bound")
    for _ in range(200):
        cs = sample_cycle_structure(int(rng.integers(1, 400)), rng)
        t = float(rng.random())
        v = eval_point(FieldSpec(counts=cs), t)
        assert v <= math.log(2) * cs.total_cycles + 1e-9


def test_split_field_consistency():
    rng = stream(67, "split")
    for _ in range(1000):
        n = int(rng.integers(4, 300))
        cs = sample_cycle_structure(n, rng)
        w = int(rng.integers(2, n + 1))
        t = float(rng.random())
        low, high = split_field(FieldSpec(counts=cs), w, t)
        total = eval_point(FieldSpec(counts=cs), t)
        if total == NEG_INF:
            assert low + high == NEG_INF
        else:
            assert low + high == pytest.approx(total, abs=1e-9)
        # high part bounded by log2 times the number of high cycles
        cutoff = n // w
        high_cycles = sum(c for ell, c in cs.counts.items() if ell > cutoff)
        assert high <= math.log(2) * high_cycles + 1e-9


def test_split_field_boundary_w_equals_n():
    cs = CycleStructure(10, {1: 2, 3: 1, 5: 1})
    low, high = split_field(FieldSpec(counts=cs), 10, 0.37)
    # low covers only fixed points
    assert low == pytest.approx(2 * log_abs_term(0.37), abs=1e-12)


def test_eval_point_exact_rational_vs_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    rng = stream(71, "mpm")
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 60))
        cs = sample_cycle_structure(n, rng)
        den = int(rng.integers(3, 10**6))
        num = int(rng.integers(1, den))
        t = Fraction(num, den)
        v = eval_point(FieldSpec(counts=cs), t)
        if v == NEG_INF:
            continue
        ref = mp.mpf(0)
        for ell, c in cs.counts.items():
            u = mp.mpf((ell * num) % den) / den
            ref += c * mp.log(2 * mp.sin(mp.pi * u))
        assert abs(v - float(ref)) <= 1e-9
        checked += 1


def test_scan_max_fixed_point_mesh4():
    res = scan_max(FieldSpec(counts=CycleStructure(1, {1: 1})), Mesh(q=4))
    assert res.index == 2
    assert res.value == pytest.approx(math.log(2), abs=1e-15)


def test_scan_max_single_long_cycle():
    for n in (25, 100):
        mesh = Mesh(q=2 * n, theta_num=1, theta_den=7)
        res = scan_max(FieldSpec(counts=CycleStructure(n, {n: 1})), mesh)
        assert abs(res.value - math.log(2)) < 1e-3


def test_scan_matches_eval_point_on_trace():
    rng = stream(73, "scantrace")
    cs = sample_cycle_structure(500, rng)
    mesh = Mesh(q=512, theta_num=1, theta_den=7)
    res = scan_max(FieldSpec(counts=cs), mesh, want_trace=True)
    for j in (0, 1, 100, 255, 511, res.index):
        assert res.trace[j] == pytest.approx(
            eval_point(FieldSpec(counts=cs), mesh.point(j)), abs=1e-9
        )
    assert res.value == res.trace.max()


def test_scan_exact_singularities_on_unrotated_mesh():
    # 3 * (j/12) is an integer exactly at j in {0, 4, 8}
    res = scan_max(FieldSpec(counts=CycleStructure(3, {3: 1})), Mesh(q=12),
                   want_trace=True)
    singular = {j for j in range(12) if res.trace[j] == NEG_INF}
    assert singular == {0, 4, 8}
    imag = scan_max(FieldSpec(counts=CycleStructure(3, {3: 1}), kind="imag"),
                    Mesh(q=12), want_trace=True)
    assert np.isfinite(imag.trace).all()


def test_imag_identity_permutation_bounded_by_pi():
    # two fixed points: max Im = 2 * max arg term, strictly below pi
    res = scan_max(FieldSpec(counts=CycleStructure(2, {1: 2}), kind="imag"),
                   Mesh(q=4096, theta_num=1, theta_den=7))
    assert res.value < math.pi
    assert res.value == pytest.approx(2 * arg_term(Mesh(q=4096, theta_num=1,
                                                        theta_den=7).point(4095)),
                                      abs=1e-12)


def test_scan_all_neg_inf_returns_smallest_index():
    res = scan_max(FieldSpec(counts=CycleStructure(1, {1: 1})), Mesh(q=1))
    assert res.index == 0 and res.value == NEG_INF


def test_scan_thread_count_invariance():
    rng = stream(79, "threads")
    cs = sample_cycle_structure(10**5, rng)
    mesh = Mesh(q=3 * (1 << 16) + 17, theta_num=1, theta_den=7)
    for kind in ("real", "imag"):
        spec = FieldSpec(counts=cs, kind=kind)
        base = scan_max(spec, mesh, threads=1, want_trace=True)
        multi = scan_max(spec, mesh, threads=8, want_trace=True)
        assert base.index == multi.index
        assert base.value == multi.value  # bitwise
        assert np.array_equal(base.trace, multi.trace)


def test_mesh_supremum_factor_14():
    # fine-mesh maximum of |char poly| within factor 14 of the 2n-point mesh
    rng = stream(83, "cmn")
    log14 = math.log(14.0)
    for _ in range(200):
        n = int(rng.integers(2, 500))
        cs = sample_cycle_structure(n, rng)
        spec = FieldSpec(counts=cs)
        coarse = scan_max(spec, Mesh(q=2 * n)).value
        fine = scan_max(spec, Mesh(q=64 * n, theta_num=1, theta_den=7)).value
        assert fine <= log14 + coarse + 1e-9


def test_capacity_errors():
    cs = CycleStructure(10, {10: 1})
    big = Fraction(1, 2**127)
    with pytest.raises(CapacityError):
        eval_point(FieldSpec(counts=cs), big)
    with pytest.raises(CapacityError):
        scan_max(FieldSpec(counts=cs), Mesh(q=3 * 10**9, theta_num=1, theta_den=7))


def test_mesh_validation_and_points():
    with pytest.raises(InvalidArgumentError):
        Mesh(q=0)
    with pytest.raises(InvalidArgumentError):
        Mesh(q=4, theta_num=9, theta_den=7)
    mesh = Mesh(q=4, theta_num=1, theta_den=7)
    assert mesh.point(1) == Fraction(1 * 4 * 7 + 1, 16 * 7)
    assert mesh.points_float()[1] == pytest.approx(float(mesh.point(1)), abs=1e-18)


def test_field_spec_validation():
    with pytest.raises(InvalidArgumentError):
        FieldSpec(counts=FIG_PARTITION, kind="complex")
    with pytest.raises(InvalidArgumentError):
        FieldSpec(counts=FIG_PARTITION, truncation=200)


def test_trace_csv_format():
    res = scan_max(FieldSpec(counts=CycleStructure(3, {3: 1})), Mesh(q=12),
                   want_trace=True)
    text = write_trace_csv(Mesh(q=12), res.trace)
    lines = text.splitlines()
    assert lines[0].startswith('# {"q": 12')
    assert lines[1] == "j,t_float,value"
    assert lines[2].split(",")[2] == "-inf"
    assert len(lines) == 2 + 12


def test_scan_respects_truncation():
    cs = CycleStructure(12, {1: 2, 4: 1, 6: 1})
    mesh = Mesh(q=64, theta_num=1, theta_den=7)
    full = scan_max(FieldSpec(counts=cs), mesh, want_trace=True)
    low = scan_max(FieldSpec(counts=cs, truncation=4), mesh, want_trace=True)
    ref = scan_max(FieldSpec(counts=CycleStructure(6, {1: 2, 4: 1})), mesh,
                   want_trace=True)
    assert np.array_equal(low.trace, ref.trace)
    assert not np.array_equal(low.trace, full.trace)


def test_scan_negative_rotation_matches_eval():
    rng = stream(89, "negtheta")
    cs = sample_cycle_structure(200, rng)
    mesh = Mesh(q=97, theta_num=-2, theta_den=7)
    res = scan_max(FieldSpec(counts=cs), mesh, want_trace=True)
    for j in (0, 13, 96):
        assert res.trace[j] == pytest.approx(
            eval_point(FieldSpec(counts=cs), mesh.point(j)), abs=1e-9
        )


def test_eval_point_accepts_integer_t():
    spec = FieldSpec(counts=CycleStructure(3, {3: 1}))
    assert eval_point(spec, 0) == NEG_INF
    assert eval_point(FieldSpec(counts=CycleStructure(3, {3: 1}), kind="imag"), 1) \
        == pytest.approx(-math.pi / 2, abs=1e-12)


def test_resolve_threads_env(monkeypatch):
    from permfield.field import resolve_threads

    assert resolve_threads(3) == 3
    monkeypatch.setenv("PERMFIELD_THREADS", "5")
    assert resolve_threads() == 5
    assert resolve_threads(2) == 2  # explicit argument wins
    monkeypatch.delenv("PERMFIELD_THREADS")
    assert resolve_threads() >= 1


def test_poisson_counts_field():
    pc = PoissonCounts(max_len=50, counts={2: 1, 7: 2})
    spec = FieldSpec(counts=pc)
    v = eval_point(spec, 0.2)
    expected = log_abs_term(0.4) + 2 * log_abs_term(0.4)
    assert v == pytest.approx(expected, abs=1e-12)
