import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permfield.cycles import (
    CycleCounts,
    sample_cycle_structure,
    sample_poisson_counts,
)
from permfield import field
from permfield.errors import CapacityError, ConfigError, InvalidArgumentError
from permfield.field import (
    BLOCK,
    INT64_SAFE,
    NEG_INF,
    RUNS,
    FieldSpec,
    Mesh,
    _bound_runs,
    _lengths,
    _run_sup,
    _sides,
    _subruns,
    _walk,
    arg_term,
    eval_point,
    log_abs_term,
    log_abs_term_array,
    poisson_mean,
    scan_max,
    term_array,
    write_trace_csv,
)
from permfield.streams import stream

FIG_PARTITION = CycleCounts.from_dict(100, {56: 1, 22: 1, 9: 2, 4: 1})


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
    assert log_abs_term(Fraction(1e-12)) > NEG_INF
    # the reduction mod 1 is exact: a tiny negative float is not 0 mod 1
    assert log_abs_term(Fraction(-1e-20)) == pytest.approx(
        math.log(2 * math.pi * 1e-20), rel=1e-12)


def test_arg_term_values():
    assert arg_term(0.5) == pytest.approx(0.0, abs=1e-15)
    assert arg_term(0.25) == pytest.approx(-math.pi / 4, abs=1e-15)
    assert arg_term(1.0 - 1e-9) == pytest.approx(math.pi / 2, abs=1e-8)
    assert arg_term(Fraction(1, 4)) == pytest.approx(-math.pi / 4, abs=1e-15)


def test_eval_point_examples():
    spec = FieldSpec(counts=CycleCounts.from_dict(2, {1: 2}))
    assert eval_point(spec, Fraction(1, 2)) == pytest.approx(2 * math.log(2), abs=1e-14)
    # a length divisible by 3 forces the singularity at t = 1/3
    assert eval_point(FieldSpec(counts=FIG_PARTITION), Fraction(1, 3)) == NEG_INF
    assert eval_point(FieldSpec(counts=FIG_PARTITION), Fraction(0)) == NEG_INF
    assert eval_point(FieldSpec(counts=CycleCounts.from_dict(5, {5: 1})), 0.0) == NEG_INF


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
        for ell, c in zip(cs.lengths.tolist(), cs.counts.tolist()):
            u = mp.mpf((ell * num) % den) / den
            ref += c * mp.log(2 * mp.sin(mp.pi * u))
        assert abs(v - float(ref)) <= 1e-9
        checked += 1


def test_scan_max_fixed_point_mesh4():
    res = scan_max(FieldSpec(counts=CycleCounts.from_dict(1, {1: 1})), Mesh(q=4))
    assert res.index == 2
    assert res.value == pytest.approx(math.log(2), abs=1e-15)


def test_scan_max_single_long_cycle():
    for n in (25, 100):
        mesh = Mesh(q=2 * n, theta_num=1, theta_den=7)
        res = scan_max(FieldSpec(counts=CycleCounts.from_dict(n, {n: 1})), mesh)
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
    res = scan_max(FieldSpec(counts=CycleCounts.from_dict(3, {3: 1})), Mesh(q=12),
                   want_trace=True)
    singular = {j for j in range(12) if res.trace[j] == NEG_INF}
    assert singular == {0, 4, 8}
    imag = scan_max(FieldSpec(counts=CycleCounts.from_dict(3, {3: 1}), kind="imag"),
                    Mesh(q=12), want_trace=True)
    assert np.isfinite(imag.trace).all()


def test_imag_identity_permutation_bounded_by_pi():
    # two fixed points: max Im = 2 * max arg term, strictly below pi
    res = scan_max(FieldSpec(counts=CycleCounts.from_dict(2, {1: 2}), kind="imag"),
                   Mesh(q=4096, theta_num=1, theta_den=7))
    assert res.value < math.pi
    assert res.value == pytest.approx(2 * arg_term(Mesh(q=4096, theta_num=1,
                                                        theta_den=7).point(4095)),
                                      abs=1e-12)


def test_scan_all_neg_inf_returns_smallest_index():
    res = scan_max(FieldSpec(counts=CycleCounts.from_dict(1, {1: 1})), Mesh(q=1))
    assert res.index == 0 and res.value == NEG_INF


def test_scan_thread_count_invariance():
    rng = stream(79, "threads")
    cs = sample_cycle_structure(10**5, rng)
    mesh = Mesh(q=3 * BLOCK + 17, theta_num=1, theta_den=7)
    for kind in ("real", "imag"):
        spec = FieldSpec(counts=cs, kind=kind)
        base = scan_max(spec, mesh, threads=1, want_trace=True)
        for multi in (scan_max(spec, mesh, threads=t, want_trace=True) for t in (2, 8)):
            assert base.index == multi.index
            assert base.value == multi.value  # bitwise
            assert np.array_equal(base.trace, multi.trace)
            assert base.terms == multi.terms == mesh.q * len(cs.lengths)
        # the pruned scan: same maximum, and the same work at any thread count
        one = scan_max(spec, mesh, threads=1)
        eight = scan_max(spec, mesh, threads=8)
        assert (one.index, one.value) == (eight.index, eight.value) == (base.index, base.value)
        assert one.trace is None and eight.trace is None
        assert one.terms == eight.terms
        assert 0 < one.terms < base.terms


def test_untraced_scan_starts_no_thread(monkeypatch):
    # the pruned path runs on the calling thread at any count; a traced scan
    # still maps its blocks on a pool, and a bad count is refused on both
    cs = sample_cycle_structure(10**4, stream(79, "pool"))
    mesh = Mesh(q=2 * BLOCK + 3, theta_num=1, theta_den=7)
    ranges = [(5, BLOCK + 9)]
    specs = [FieldSpec(counts=cs, kind=kind) for kind in ("real", "imag")]
    refs = [scan_max(spec, mesh, threads=1, ranges=r) for spec in specs for r in (None, ranges)]

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(field, "ThreadPoolExecutor", no_pool)
    for ref, res in zip(refs, (scan_max(spec, mesh, threads=8, ranges=r)
                               for spec in specs for r in (None, ranges))):
        assert (res.index, res.value, res.split, res.terms, res.bounds) \
            == (ref.index, ref.value, ref.split, ref.terms, ref.bounds)
    with pytest.raises(AssertionError, match="thread pool"):
        scan_max(specs[0], mesh, threads=2, want_trace=True)
    with pytest.raises(ConfigError):
        scan_max(specs[0], mesh, threads=-1)


@st.composite
def scan_cases(draw):
    """A cycle-count structure, a field kind and truncation, and a mesh."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3000))
    if draw(st.booleans()):
        counts = sample_cycle_structure(n, rng)
    else:
        counts = sample_poisson_counts(n, rng)
    spec = FieldSpec(counts=counts, kind=draw(st.sampled_from(["real", "imag"])),
                     truncation=draw(st.none() | st.integers(1, n)))
    q = draw(st.integers(1, 200) | st.integers(BLOCK - 70, 2 * BLOCK + 70))
    theta_den = draw(st.integers(1, 9))
    theta_num = draw(st.just(0) | st.integers(-theta_den, theta_den))
    return spec, Mesh(q=q, theta_num=theta_num, theta_den=theta_den)


@settings(max_examples=60, deadline=None)
@given(case=scan_cases(), threads=st.sampled_from([1, 2, 8]))
@example(case=(FieldSpec(counts=CycleCounts.from_dict(2, {1: 2})), Mesh(q=3)), threads=1)
@example(case=(FieldSpec(counts=CycleCounts.from_dict(2, {1: 2})), Mesh(q=199)), threads=2)
@example(case=(FieldSpec(counts=CycleCounts.from_dict(2, {1: 2}), kind="imag"), Mesh(q=64)),
         threads=1)
@example(case=(FieldSpec(counts=CycleCounts.from_dict(1, {1: 1})), Mesh(q=1)), threads=8)
@example(case=(FieldSpec(counts=CycleCounts.from_dict(3, {3: 1}), truncation=2), Mesh(q=130)),
         threads=2)
@example(case=(FieldSpec(counts=CycleCounts.from_dict(6, {2: 3})), Mesh(q=2 * BLOCK + 2)),
         threads=8)
# a symmetric field: tied maxima at j and q - j
@example(case=(FieldSpec(counts=CycleCounts.from_dict(93, {1: 1, 3: 2, 9: 2, 26: 1, 32: 1})),
               Mesh(q=65536)), threads=1)
def test_pruned_scan_matches_full_trace(case, threads):
    # differential test: branch and bound against the argmax of the full trace
    spec, mesh = case
    full = scan_max(spec, mesh, threads=1, want_trace=True)
    k = int(np.argmax(full.trace))
    res = scan_max(spec, mesh, threads=threads)
    assert res.index == k
    assert res.value == float(full.trace[k])
    assert res.terms <= full.terms


@st.composite
def range_scan_cases(draw):
    """A scan case and index ranges: none, the whole mesh, one point, two
    adjacent ranges (the first shorter than 64 points) or any few."""
    spec, mesh = draw(scan_cases())
    q = mesh.q
    pick = draw(st.sampled_from(["none", "whole", "point", "adjacent", "any"]))
    if pick == "none":
        ranges = []
    elif pick == "whole":
        ranges = [(0, q)]
    elif pick == "point":
        j = draw(st.integers(0, q - 1))
        ranges = [(j, j + 1)]
    elif pick == "adjacent":
        a = draw(st.integers(0, q))
        b = draw(st.integers(a, min(q, a + 63)))
        ranges = [(a, b), (b, draw(st.integers(b, q)))]
    else:
        ends = sorted(draw(st.lists(st.integers(0, q), max_size=8)))
        ranges = list(zip(ends[::2], ends[1::2]))
    return spec, mesh, ranges


def _first_argmax(trace, mask):
    if not mask.any():
        return None, NEG_INF
    k = int(np.argmax(trace[mask]))
    return int(np.flatnonzero(mask)[k]), float(trace[mask][k])


# ties: the length-2 field on an unrotated mesh of q = 2 mod 4 points peaks
# at the four points next to t = 1/4 and 3/4 (j = 32, 33, 97, 98 at q = 130)
TIES = FieldSpec(counts=CycleCounts.from_dict(6, {2: 3}))


@settings(max_examples=60, deadline=None)
@given(case=range_scan_cases())
@example(case=(TIES, Mesh(q=130), [(33, 98)]))
@example(case=(TIES, Mesh(q=130), [(33, 34), (34, 97)]))
@example(case=(TIES, Mesh(q=2 * BLOCK + 2), [(BLOCK // 2 + 1, 3 * BLOCK // 2 + 2)]))
@example(case=(FieldSpec(counts=CycleCounts.from_dict(1, {1: 1})), Mesh(q=1), [(0, 1)]))
@example(case=(FieldSpec(counts=CycleCounts.from_dict(1, {1: 1})), Mesh(q=1), []))
@example(case=(FieldSpec(counts=CycleCounts.from_dict(2, {1: 2}), kind="imag"), Mesh(q=200),
               [(199, 200)]))
def test_range_scan_matches_masked_trace(case):
    # differential test: each side's pruned maximum against the masked trace
    spec, mesh, ranges = case
    mask = np.zeros(mesh.q, dtype=bool)
    for a, b in ranges:
        mask[a:b] = True
    full = scan_max(spec, mesh, threads=1, want_trace=True)
    expected = (_first_argmax(full.trace, mask), _first_argmax(full.trace, ~mask))
    k = int(np.argmax(full.trace))
    results = [scan_max(spec, mesh, threads=t, ranges=ranges) for t in (1, 2, 8)]
    # prune windows of one 4096-run: the walk over the ranges of both
    # sides crosses many windows
    with mock.patch.multiple(field, PRUNE_RUNS=1):
        results += [scan_max(spec, mesh, threads=t, ranges=ranges) for t in (2, 8)]
    for res in results:
        assert res.split == expected
        assert (res.index, res.value) == (k, float(full.trace[k]))
        assert res.trace is None and res.terms <= full.terms
    assert len({(res.split, res.terms, res.bounds) for res in results}) == 1


@settings(max_examples=40, deadline=None)
@given(case=scan_cases(), q=st.integers(1, 1024), cut=st.floats(0.0, 1.0),
       pick=st.sampled_from(["none", "head", "tail"]))
@example(case=(TIES, Mesh(q=1)), q=1024, cut=0.5, pick="none")
@example(case=(TIES, Mesh(q=1)), q=1000, cut=0.03, pick="tail")
def test_small_sides_are_settled_by_the_threshold_step(case, q, cut, pick):
    # a side of one index range of at most 1 024 points holds at most 16
    # 64-runs, all of which the threshold step evaluates in full
    spec, mesh = case
    mesh = Mesh(q=q, theta_num=mesh.theta_num, theta_den=mesh.theta_den)
    a = int(cut * q)
    ranges = {"none": None, "head": [(0, a)], "tail": [(a, q)]}[pick]
    full = scan_max(spec, mesh, threads=1, want_trace=True)
    k = int(np.argmax(full.trace))
    split = None
    if ranges is not None:
        mask = np.zeros(q, dtype=bool)
        mask[slice(*ranges[0])] = True
        split = (_first_argmax(full.trace, mask), _first_argmax(full.trace, ~mask))
    for threads in (1, 8):
        res = scan_max(spec, mesh, threads=threads, ranges=ranges)
        assert res.terms == full.terms == q * len(_lengths(spec)[0])
        assert (res.index, res.value, res.split) == (k, float(full.trace[k]), split)


def test_scan_work_without_ranges_is_unchanged():
    # the whole mesh is one side: the same work as the scan before ranges
    cs = sample_cycle_structure(10**5, stream(79, "threads"))
    mesh = Mesh(q=3 * BLOCK + 17, theta_num=1, theta_den=7)
    for kind, terms, bounds in (("real", 26886, 18201), ("imag", 12701, 2861)):
        spec = FieldSpec(counts=cs, kind=kind)
        res = scan_max(spec, mesh, threads=1)
        assert (res.terms, res.bounds, res.split) == (terms, bounds, None)
        whole = scan_max(spec, mesh, threads=1, ranges=[(0, mesh.q)])
        assert (whole.terms, whole.bounds) == (terms, bounds)


def test_scan_rejects_ranges_outside_the_mesh():
    spec = FieldSpec(counts=CycleCounts.from_dict(2, {1: 2}))
    for ranges in ([(0, 11)], [(-1, 3)], [(5, 4)]):
        with pytest.raises(InvalidArgumentError):
            scan_max(spec, Mesh(q=10), ranges=ranges)
    with pytest.raises(InvalidArgumentError):
        scan_max(spec, Mesh(q=10), want_trace=True, ranges=[(0, 5)])


@st.composite
def residue_runs(draw):
    """A run of m residues a + k s mod d, k < m, turning less than a period."""
    kind = draw(st.sampled_from(["real", "imag"]))
    m = draw(st.sampled_from(RUNS))
    # d just below 2^62 puts the last residue near 2^63: 2b would overflow
    d = draw(st.integers(m, 10**6) | st.integers(INT64_SAFE - 10**6, INT64_SAFE - 1))
    s = draw(st.integers(1, (d - 1) // (m - 1)))
    span = (m - 1) * s
    # edges: a zero at either end, a half-integer at either end, a wrap
    edge = draw(st.sampled_from([0, d // 2 - span, d // 2, (d + 1) // 2, d - span,
                                 d - span // 2, 3 * d // 2 - span]))
    a = draw(st.integers(0, d - 1) | st.integers(-2, 2).map(lambda k: (edge + k) % d))
    return kind, d, a, s, m


@settings(max_examples=300, deadline=None)
@given(case=residue_runs())
@example(case=("real", INT64_SAFE - 1, INT64_SAFE - 2, (INT64_SAFE - 2) // 63, 64))
@example(case=("real", 4096 * 3 + 1, 0, 2, 4096))
@example(case=("imag", INT64_SAFE - 3, INT64_SAFE - 4, (INT64_SAFE - 4) // 4095, 4096))
def test_run_sup_bounds_dense_terms(case):
    # the bound of one run and length against the term at every point in it
    kind, d, a, s, m = case
    b = a + (m - 1) * s
    dense = term_array((a + s * np.arange(m, dtype=np.int64)) % d, d, kind)
    bound = float(_run_sup(np.array([a]), np.array([b]), d, kind)[0])
    assert dense.max() <= bound + 1e-15 * (1.0 + abs(bound))
    ends = max(dense[0], dense[-1]) if kind == "real" else dense[-1]
    if kind == "imag":
        peak = b >= d  # (a, b] holds the integer d
    else:  # [a, b] holds d/2 or 3d/2 (exact Python integers)
        peak = any(2 * a <= (2 * k + 1) * d <= 2 * b for k in (0, 1))
    # tight: the peak value, or exactly the term at an endpoint
    assert bound == ((math.pi / 2.0 if kind == "imag" else math.log(2.0)) if peak else ends)


@settings(max_examples=40, deadline=None)
@given(case=scan_cases(), m=st.sampled_from(RUNS), rank=st.floats(0.0, 1.0))
def test_bound_runs_keep_every_run_reaching_the_floor(case, m, rank):
    # a run whose bound is below the level - slack holds no point at or above it,
    # including the lengths that turn a full period over the run
    spec, mesh = case
    trace = scan_max(spec, mesh, threads=1, want_trace=True).trace
    level = float(np.sort(trace)[int(rank * (mesh.q - 1))])
    lengths, counts = _lengths(spec)
    q, td, tn = mesh.q, mesh.theta_den, mesh.theta_num
    d, qtd = q * q * td, q * td
    ells = lengths.tolist()
    residues = np.array([ell % q for ell in ells], dtype=np.int64)
    offsets = np.array([(ell * tn) % d for ell in ells], dtype=np.int64)
    per = math.pi / 2.0 if spec.kind == "imag" else math.log(2.0)
    slack = 1e-9 * (1.0 + abs(level) + per * int(counts.sum()))
    starts = np.arange(0, q, m, dtype=np.int64)
    bound, _, bounds = _bound_runs(starts, m, q, qtd, d, lengths, residues, offsets,
                                   counts, spec.kind)
    kept = starts[bound >= level - slack]
    reached = [j0 for j0 in starts.tolist() if trace[j0:j0 + m].max() >= level]
    assert set(reached) <= set(kept.tolist())
    assert bounds <= len(starts) * len(ells)


@settings(max_examples=60, deadline=None)
@given(case=range_scan_cases(), inside=st.booleans(), level=st.none() | st.floats(0.0, 1.0))
@example(case=(TIES, Mesh(q=130), [(33, 98)]), inside=True, level=1.0)
@example(case=(FieldSpec(counts=CycleCounts.from_dict(3, {3: 1}), truncation=2), Mesh(q=70),
               []), inside=False, level=0.5)
def test_longest_first_walk_keeps_every_point_reaching_the_level(case, inside, level):
    # the pruned walk over one side's 64-runs: level None is -inf, else the
    # traced value of the side's point at that rank
    spec, mesh, ranges = case
    side = _sides(ranges, mesh.q)[0 if inside else 1]
    if not side:
        return
    trace = scan_max(spec, mesh, threads=1, want_trace=True).trace
    lengths, counts = _lengths(spec)
    q, td, tn = mesh.q, mesh.theta_den, mesh.theta_num
    d, qtd = q * q * td, q * td
    residues = np.array([ell % q for ell in lengths.tolist()], dtype=np.int64)
    offsets = np.array([(ell * tn) % d for ell in lengths.tolist()], dtype=np.int64)
    hi = np.array([b for _, b in side], dtype=np.int64)
    fine = np.array([j0 for a, b in side for j0 in range(a, b, RUNS[1])], dtype=np.int64)
    _, sups, _ = _bound_runs(fine, RUNS[1], q, qtd, d, lengths, residues, offsets, counts,
                             spec.kind)
    points = _subruns(fine, RUNS[1], 1, hi)
    owner = np.searchsorted(fine, points, side="right") - 1
    if level is None:
        level = NEG_INF
    else:
        level = float(np.sort(trace[points])[int(level * (len(points) - 1))])
    per = math.pi / 2.0 if spec.kind == "imag" else math.log(2.0)
    slack = 1e-9 * (1.0 + abs(level) + per * int(counts.sum()))
    kept, values, terms = _walk(points, owner, sups, level - slack,
                                (q, qtd, d, residues, offsets, counts, spec.kind))
    assert set(points[trace[points] >= level].tolist()) <= set(kept.tolist())
    assert np.array_equal(values, trace[kept])  # bit for bit, -inf included
    assert terms <= len(points) * len(lengths) <= q * len(lengths)
    if level == NEG_INF:
        assert np.array_equal(kept, points) and terms == len(points) * len(lengths)


@settings(max_examples=200, deadline=None)
@given(q=st.integers(1, 2**31 - 1), below=st.integers(1, 10**6), tn=st.integers(-1, 1),
       lengths=st.lists(st.integers(1, 10**9), min_size=1, max_size=8),
       picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
@example(q=2**31 - 1, below=1, tn=1, lengths=[2**31 - 2, 1], picks=[1.0, 0.0])
def test_residues_into_matches_the_integer_reduction(q, below, tn, lengths, picks):
    # d = q^2 theta_den just below 2^62, where (q - 1) qtd + off nears 2d:
    # the table against the Python integer (ell t_j d) mod d
    td = max(1, (INT64_SAFE - below) // (q * q))
    tn *= td
    d = q * q * td
    js = sorted({int(p * (q - 1)) for p in picks} | {0, q - 1})
    num = np.empty((len(lengths), len(js)), dtype=np.int64)
    field._residues_into(num, np.array(js, dtype=np.int64),
                         np.array([[ell % q] for ell in lengths], dtype=np.int64),
                         np.array([[ell * tn % d] for ell in lengths], dtype=np.int64),
                         q, q * td, d)
    assert num.tolist() == [[ell * (j * q * td + tn) % d for j in js] for ell in lengths]


@settings(max_examples=30, deadline=None)
@given(case=scan_cases())
def test_scan_bounds_thread_count_invariance(case):
    spec, mesh = case
    one, two, eight = (scan_max(spec, mesh, threads=t) for t in (1, 2, 8))
    assert (one.index, one.value, one.terms, one.bounds) \
        == (two.index, two.value, two.terms, two.bounds) \
        == (eight.index, eight.value, eight.terms, eight.bounds)
    n_lengths = len(_lengths(spec)[0])
    assert one.bounds <= 2 * n_lengths * (-(-mesh.q // 64) + -(-mesh.q // 4096))
    assert one.terms <= mesh.q * n_lengths  # no (point, length) term twice


def test_scan_counters_do_not_depend_on_task_size(monkeypatch):
    # runs and points are bounded and dropped one by one, so the work is
    # the same however the walk is cut into windows, at any count
    cs = sample_cycle_structure(10**5, stream(79, "tasks"))
    mesh = Mesh(q=3 * BLOCK + 17, theta_num=1, theta_den=7)
    for kind in ("real", "imag"):
        spec = FieldSpec(counts=cs, kind=kind)
        ref = scan_max(spec, mesh, threads=1)
        monkeypatch.setattr(field, "PRUNE_RUNS", 1)
        for threads in (1, 2, 8):
            res = scan_max(spec, mesh, threads=threads)
            assert (res.index, res.value, res.terms, res.bounds) \
                == (ref.index, ref.value, ref.terms, ref.bounds)
        monkeypatch.undo()
        assert 0 < ref.bounds and 0 < ref.terms < mesh.q * len(cs.lengths) // 8


def test_term_array_buffer_matches_fresh_fold():
    # the buffered fold is the integer fold, rounded, also just below 2^62
    rng = np.random.default_rng(7)
    for d in (12, 10**6 + 3, INT64_SAFE - 1):
        num = rng.integers(0, d, size=4096, dtype=np.int64)
        num[:3] = (0, d // 2, d - 1)
        with np.errstate(divide="ignore"):
            fresh = np.log(2.0 * np.sin(np.pi * (np.minimum(num, d - num) / d)))
        assert np.array_equal(term_array(num, d, "real"), fresh)
        assert np.array_equal(term_array(num, d, "imag"), np.pi * (num / d - 0.5))


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
    cs = CycleCounts.from_dict(10, {10: 1})
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


def test_field_spec_validation():
    with pytest.raises(InvalidArgumentError):
        FieldSpec(counts=FIG_PARTITION, kind="complex")
    with pytest.raises(InvalidArgumentError):
        FieldSpec(counts=FIG_PARTITION, truncation=200)


def test_trace_csv_format():
    res = scan_max(FieldSpec(counts=CycleCounts.from_dict(3, {3: 1})), Mesh(q=12),
                   want_trace=True)
    text = write_trace_csv(Mesh(q=12), res.trace)
    lines = text.splitlines()
    assert lines[0].startswith('# {"q": 12')
    assert lines[1] == "j,t_float,value"
    assert lines[2].split(",")[2] == "-inf"
    assert len(lines) == 2 + 12


def test_scan_respects_truncation():
    cs = CycleCounts.from_dict(12, {1: 2, 4: 1, 6: 1})
    mesh = Mesh(q=64, theta_num=1, theta_den=7)
    full = scan_max(FieldSpec(counts=cs), mesh, want_trace=True)
    low = scan_max(FieldSpec(counts=cs, truncation=4), mesh, want_trace=True)
    ref = scan_max(FieldSpec(counts=CycleCounts.from_dict(6, {1: 2, 4: 1})), mesh,
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
    spec = FieldSpec(counts=CycleCounts.from_dict(3, {3: 1}))
    assert eval_point(spec, 0) == NEG_INF
    assert eval_point(FieldSpec(counts=CycleCounts.from_dict(3, {3: 1}), kind="imag"), 1) \
        == pytest.approx(-math.pi / 2, abs=1e-12)


def test_resolve_threads_env(monkeypatch):
    from permfield.field import resolve_threads

    assert resolve_threads(3) == 3
    monkeypatch.setenv("PERMFIELD_THREADS", "5")
    assert resolve_threads() == 5
    assert resolve_threads(2) == 2  # explicit argument wins
    monkeypatch.delenv("PERMFIELD_THREADS")
    assert resolve_threads() >= 1


def test_resolve_threads_refuses_what_is_not_a_count(monkeypatch):
    from permfield.errors import ConfigError
    from permfield.field import resolve_threads

    for bad in (-2, 2.5, "two"):
        with pytest.raises(ConfigError, match=rf"--threads .* got {bad!r}"):
            resolve_threads(bad)
    for unset in ("", "0"):
        monkeypatch.setenv("PERMFIELD_THREADS", unset)
        assert resolve_threads(0) == resolve_threads(None) >= 1
    for bad in ("abc", "-1", "1.5"):
        monkeypatch.setenv("PERMFIELD_THREADS", bad)
        with pytest.raises(ConfigError, match=rf"PERMFIELD_THREADS .* got {bad!r}"):
            resolve_threads()
        assert resolve_threads(3) == 3  # an explicit count does not read it


def test_poisson_counts_field():
    pc = CycleCounts.from_dict(50, {2: 1, 7: 2})
    spec = FieldSpec(counts=pc)
    v = eval_point(spec, 0.2)
    expected = log_abs_term(0.4) + 2 * log_abs_term(0.4)
    assert v == pytest.approx(expected, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(lengths=st.lists(st.integers(1, 2**40), min_size=1, max_size=50),
       t=st.one_of(st.floats(-1e3, 1e3, allow_nan=False),
                   st.floats(-1e-300, 1e-300, allow_nan=False),
                   st.integers(-2**20, 2**20).map(lambda k: k / 2.0),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 1.0, -1.0])))
@example(lengths=[1, 2, 3], t=-1e-20)  # x mod 1 rounds up to 1.0
@example(lengths=[2**40, 2**40 - 1], t=math.sqrt(2.0))
def test_log_abs_term_array_matches_the_mod_residue(lengths, t):
    # the residue x - floor(x) against the np.mod form it replaced: every
    # bit, the sign of a zero and of -inf included
    lengths = np.array(lengths, dtype=np.int64)
    reference = term_array(np.mod(lengths.astype(np.float64) * t, 1.0), 1.0, "real")
    got = log_abs_term_array(lengths, t)
    assert np.array_equal(got.view(np.int64), reference.view(np.int64))


def _one_shot_mean(n, t, kind):
    """The finite-size mean as clt computed it in one piece."""
    ell = np.arange(1, n + 1, dtype=np.int64)
    return float((term_array(np.mod(ell * t, 1.0), 1.0, kind) / ell).sum())


def _bits(x):
    return np.float64(x).view(np.int64)


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 5000), kind=st.sampled_from(["real", "imag"]),
       t=st.one_of(st.floats(-1e3, -1e-300, allow_nan=False),
                   st.sampled_from([1e-12, -1e-12, 0.5, 1.0 / 3.0, GOLDEN, 0.0]),
                   st.floats(-1e3, 1e3, allow_nan=False)))
@example(n=5000, kind="real", t=GOLDEN)
@example(n=129, kind="imag", t=-1e-12)
def test_poisson_mean_matches_the_one_shot_sum(n, kind, t):
    # 64-length pieces, so that n up to 5000 splits up to six levels deep:
    # every bit of the one-shot numpy sum, the sign of a zero and -inf included
    with mock.patch.object(field, "MEAN_PIECE", 64):
        got = poisson_mean(n, t, kind)
    assert _bits(got) == _bits(_one_shot_mean(n, t, kind))


@pytest.mark.parametrize("n", [10**6, 2**20 + 3])
@pytest.mark.parametrize("kind", ["real", "imag"])
@pytest.mark.parametrize("t", [GOLDEN, 0.123456789])
def test_poisson_mean_matches_the_one_shot_sum_in_many_pieces(n, kind, t):
    # 32 or more pieces of the default size: a numpy whose pairwise sum
    # splits otherwise fails here rather than moving the clt report
    assert _bits(poisson_mean(n, t, kind)) == _bits(_one_shot_mean(n, t, kind))


def test_poisson_mean_memory_stays_in_pieces():
    peaks = []
    for mean in (poisson_mean, _one_shot_mean):
        tracemalloc.start()
        try:
            mean(10**6, GOLDEN, "real")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 2 << 20
    assert peaks[1] > 16 << 20  # tracemalloc sees numpy's arrays
