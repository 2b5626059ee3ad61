import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permfield.arith import (
    ArcClassification,
    BohrSpec,
    arithmetic_distance,
    classify,
    major_ranges,
    mesh_bohr_count,
    torus_norm,
    vinogradov_detect,
)
from permfield.errors import CapacityError, InvalidArgumentError
from permfield.field import Mesh
from permfield.streams import stream

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def test_torus_norm_values():
    assert torus_norm(0.75) == pytest.approx(0.25, abs=1e-15)
    assert torus_norm(0.0) == 0.0
    assert torus_norm(Fraction(13, 5)) == Fraction(2, 5)
    assert isinstance(torus_norm(Fraction(13, 5)), Fraction)
    assert torus_norm(-0.1) == pytest.approx(0.1, abs=1e-15)


def test_classify_examples():
    arc = classify(Fraction(1, 3), 3, 0.1)
    assert arc.kind == "major" and arc.witness == 3
    assert classify(GOLDEN, 10, 1e-3).kind == "minor"
    arc = classify(0.5001, 2, 0.001)
    assert arc.kind == "major" and arc.witness == 2


def test_classify_agrees_with_bruteforce():
    rng = stream(37, "classify")
    xi0, kappa = 7, 0.02
    for _ in range(10000):
        t = float(rng.random())
        arc = classify(t, xi0, kappa)
        brute = [xi for xi in range(1, xi0 + 1) if torus_norm(xi * t) <= kappa]
        if brute:
            assert arc.kind == "major" and arc.witness == brute[0]
        else:
            assert arc.kind == "minor" and arc.witness is None


def test_classification_invariant():
    with pytest.raises(InvalidArgumentError):
        ArcClassification(kind="major", witness=None)
    with pytest.raises(InvalidArgumentError):
        ArcClassification(kind="minor", witness=3)


def exact_major_measure(xi0, kappa):
    """Lebesgue measure of the union of Bohr sets, by interval merging."""
    kf = Fraction(kappa)
    arcs = []
    for xi in range(1, xi0 + 1):
        for i in range(xi + 1):
            lo, hi = Fraction(i - kf, xi), Fraction(i + kf, xi)
            arcs.append((max(lo, Fraction(0)), min(hi, Fraction(1))))
    arcs.sort()
    total = Fraction(0)
    cur_lo, cur_hi = arcs[0]
    for lo, hi in arcs[1:]:
        if lo <= cur_hi:
            cur_hi = max(cur_hi, hi)
        else:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
    total += cur_hi - cur_lo
    return float(total)


def test_major_measure_fraction():
    # empirical major fraction matches the exact union measure (xi0 <= 4)
    import numpy as np

    xi0, kappa = 4, 0.01
    measure = exact_major_measure(xi0, kappa)
    assert measure <= 2 * kappa * sum(1 for _ in range(1, xi0 + 1))  # union bound
    rng = stream(41, "measure")
    t = rng.random(1000000)
    major = np.zeros(len(t), dtype=bool)
    for xi in range(1, xi0 + 1):
        frac = np.mod(xi * t, 1.0)
        major |= np.minimum(frac, 1.0 - frac) <= kappa
    frac_major = major.mean()
    sigma = math.sqrt(measure * (1 - measure) / len(t))
    assert abs(frac_major - measure) <= 3 * sigma
    # spot-check agreement of the vectorized membership with classify
    for x in t[:200]:
        assert (classify(float(x), xi0, kappa).kind == "major") == bool(
            np.minimum(np.mod(np.arange(1, xi0 + 1) * x, 1.0),
                       1.0 - np.mod(np.arange(1, xi0 + 1) * x, 1.0)).min() <= kappa
        )


def test_arithmetic_distance_examples():
    assert arithmetic_distance(0.25, 0.5, 2) == pytest.approx(0.0, abs=1e-15)
    assert arithmetic_distance(0.3, 0.3, 1) == pytest.approx(0.0, abs=1e-15)
    rng = stream(43, "dist")
    for _ in range(100):
        s, t = float(rng.random()), float(rng.random())
        d = arithmetic_distance(s, t, 3)
        assert d == pytest.approx(arithmetic_distance(t, s, 3), abs=1e-15)
        assert d <= torus_norm(s - t) + 1e-15  # xi=1, xi'=-1 is in the index set


def test_mesh_bohr_count_example():
    assert mesh_bohr_count(Mesh(q=1000), BohrSpec(xi=1, kappa=0.1)) == 201


def bohr_bruteforce(mesh, spec):
    xi = abs(spec.xi)
    kf = Fraction(spec.kappa)
    count = 0
    for j in range(mesh.q):
        if torus_norm(xi * mesh.point(j)) <= kf:
            count += 1
    return count


def test_mesh_bohr_count_matches_bruteforce():
    rng = stream(47, "bohr")
    for _ in range(120):
        q = int(rng.integers(1, 2000))
        td = int(rng.integers(1, 12))
        tn = int(rng.integers(-td, td + 1))
        xi = int(rng.integers(1, 9))
        kappa = float(rng.uniform(1e-4, 0.499))
        mesh = Mesh(q=q, theta_num=tn, theta_den=td)
        spec = BohrSpec(xi=xi, kappa=kappa)
        assert mesh_bohr_count(mesh, spec) == bohr_bruteforce(mesh, spec)


def test_mesh_bohr_count_linear_in_kappa():
    # |count - 2 kappa q| <= 2 xi + 2 over randomized parameters
    rng = stream(53, "bohrlin")
    for _ in range(500):
        q = int(rng.integers(10, 100000))
        xi = int(rng.integers(1, 10))
        kappa = float(rng.uniform(1e-3, 0.49))
        tn = int(rng.integers(0, 8))
        mesh = Mesh(q=q, theta_num=tn, theta_den=7)
        count = mesh_bohr_count(mesh, BohrSpec(xi=xi, kappa=kappa))
        assert abs(count - 2 * kappa * q) <= 2 * xi + 2


def test_mesh_bohr_count_kappa_to_zero():
    # only exact hits survive; their number is 0 or divides into the arcs
    count = mesh_bohr_count(Mesh(q=6, theta_num=0, theta_den=1),
                            BohrSpec(xi=2, kappa=1e-15))
    assert count == 2  # j in {0, 3}: 2*t_j integer
    count = mesh_bohr_count(Mesh(q=1000, theta_num=1, theta_den=7),
                            BohrSpec(xi=3, kappa=1e-15))
    assert count == 0
    for q, xi in ((12, 3), (30, 5), (100, 4)):
        c = mesh_bohr_count(Mesh(q=q, theta_num=0, theta_den=1),
                            BohrSpec(xi=xi, kappa=1e-15))
        assert c in (0, math.gcd(xi, q)) and c <= xi


@st.composite
def arc_meshes(draw):
    """A small mesh, rotated or not, with xi0 and kappa of the major arcs."""
    q = draw(st.integers(1, 300))
    theta_den = draw(st.integers(1, 9))
    theta_num = draw(st.just(0) | st.integers(-theta_den, theta_den))
    xi0 = draw(st.integers(1, 6))
    # kappa at a boundary: on an unrotated mesh every ||xi t_j|| is some m/q,
    # and k/(xi q) rounded to a float falls on either side of such a value
    boundary = st.builds(lambda k, xi: float(Fraction(k, xi * q)),
                         st.integers(1, q // 3 + 1), st.integers(1, xi0))
    kappa = draw(st.floats(1e-6, 0.499) | boundary.filter(lambda k: 0.0 < k < 0.5))
    return Mesh(q=q, theta_num=theta_num, theta_den=theta_den), xi0, kappa


@settings(max_examples=300, deadline=None)
@given(case=arc_meshes())
def test_major_ranges_match_classify_pointwise(case):
    mesh, xi0, kappa = case
    ranges = major_ranges(mesh, xi0, kappa)
    assert all(0 <= a < b <= mesh.q for a, b in ranges)
    # sorted, disjoint and merged
    assert all(b < a for (_, b), (a, _) in zip(ranges, ranges[1:]))
    members = {j for a, b in ranges for j in range(a, b)}
    for j in range(mesh.q):
        assert (j in members) == (classify(mesh.point(j), xi0, kappa).kind == "major")
    assert mesh_bohr_count(mesh, BohrSpec(xi=1, kappa=kappa)) \
        == sum(b - a for a, b in major_ranges(mesh, 1, kappa))


def test_major_ranges_limits():
    assert major_ranges(Mesh(q=10, theta_num=1, theta_den=7), 3, 0.5) == [(0, 10)]
    assert major_ranges(Mesh(q=10, theta_num=1, theta_den=7), 3, 1e-9) == []
    with pytest.raises(InvalidArgumentError):
        major_ranges(Mesh(q=10), 0, 0.1)
    with pytest.raises(InvalidArgumentError):
        major_ranges(Mesh(q=10), 2, 0.0)
    with pytest.raises(CapacityError):
        major_ranges(Mesh(q=3 * 10**9, theta_num=1, theta_den=7), 5, 0.01)


def test_vinogradov_detection():
    # near 1/7 with a slack range: the detector recovers xi = 7
    t = 1.0 / 7.0 + 1e-9
    assert vinogradov_detect(t, 10**6, 1e-3, 0.25) == 7
    # degenerate interval: alternatives hold, no detection attempted
    assert vinogradov_detect(GOLDEN, 4, 1e-6, 0.9) is None
    # wide kappa branch
    assert vinogradov_detect(GOLDEN, 10**6, 0.5e-1, 0.9) is None


def test_vinogradov_random_points_rarely_detect():
    rng = stream(59, "vino")
    false_hits = 0
    for _ in range(1000):
        t = float(rng.random())
        if vinogradov_detect(t, 10**6, 1e-6, 0.01) is not None:
            false_hits += 1
    assert false_hits / 1000 < 0.05


def test_bohr_spec_validation():
    with pytest.raises(InvalidArgumentError):
        BohrSpec(xi=0, kappa=0.1)
    with pytest.raises(InvalidArgumentError):
        BohrSpec(xi=1, kappa=0.5)
