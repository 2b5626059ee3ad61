import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from permfield import ratefn
from permfield.errors import AccuracyError, DomainError
from permfield.streams import stream

LOG2 = math.log(2.0)


def test_log_mgf_closed_form_vs_quadrature():
    for beta in (0.5, 1.0, 2.0, 5.0, 11.746, 20.0):
        assert abs(ratefn.log_mgf(beta) - ratefn.log_mgf_quad(beta)) <= 1e-10


def test_log_mgf_special_values():
    assert ratefn.log_mgf(2.0) == pytest.approx(LOG2, abs=1e-12)
    assert abs(ratefn.log_mgf(1e-9)) < 1e-8  # continuous at 0 with value 0
    # large-beta asymptote beta*log2 - log(beta)/2 + O(1)
    beta = 30.0
    assert abs(ratefn.log_mgf(beta) - (beta * LOG2 - 0.5 * math.log(beta))) <= 1.0
    with pytest.raises(DomainError):
        ratefn.log_mgf(0.0)
    with pytest.raises(DomainError):
        ratefn.log_mgf(-1.0)


def test_log_mgf_complex_matches_quadrature():
    z = 2.0 + 3.0j
    def f_re(u):
        return ((2 * math.sin(math.pi * u)) ** z).real if u not in (0, 1) else 0.0
    def f_im(u):
        return ((2 * math.sin(math.pi * u)) ** z).imag if u not in (0, 1) else 0.0
    re, _ = integrate.quad(f_re, 0, 1, limit=200)
    im, _ = integrate.quad(f_im, 0, 1, limit=200)
    val = ratefn.log_mgf(z)
    assert abs(complex(math.e) ** val - complex(re, im)) < 1e-8 * abs(complex(re, im))


def test_mean_of_v_is_zero():
    val, err = integrate.quad(
        lambda u: math.log(2 * math.sin(math.pi * u)), 0, 1, limit=400
    )
    assert abs(val) <= 1e-10


def test_derivatives_match_finite_differences():
    h = 1e-5
    for beta in (1.0, 2.0, 5.0, 11.75, 20.0):
        d1, d2 = ratefn.log_mgf_derivs(beta)
        fd1 = (ratefn.log_mgf(beta + h) - ratefn.log_mgf(beta - h)) / (2 * h)
        fd2 = (
            ratefn.log_mgf(beta + h) - 2 * ratefn.log_mgf(beta) + ratefn.log_mgf(beta - h)
        ) / h**2
        assert abs(d1 - fd1) < 1e-6
        assert abs(d2 - fd2) < 1e-4


def _deriv_grid():
    # a log-spaced grid over [1e-6, 1e7], the critical tilt and the tilt of
    # y = 0.693 (beta ~ 3397)
    return ([float(b) for b in np.geomspace(1e-6, 1e7, 27)]
            + [ratefn.solve_critical().beta_crit, 3397.0])


def test_log_mgf_derivs_trigamma_bits_equal_polygamma():
    # reference: d2 through scipy's trigamma, polygamma(1, x), which returns
    # 1.0 * 1.0 * zeta(2, x)
    for b in _deriv_grid():
        reference = 0.25 * (special.polygamma(1, (b + 1) / 2) - special.polygamma(1, b / 2 + 1))
        assert ratefn.log_mgf_derivs(b)[1] == float(reference), b


def test_log_mgf_derivs_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for b in _deriv_grid():
            d1, d2 = ratefn.log_mgf_derivs(b)
            w = mpmath.mpf(b)
            exact1 = mpmath.log(2) + (mpmath.digamma((w + 1) / 2) - mpmath.digamma(w / 2 + 1)) / 2
            exact2 = (mpmath.psi(1, (w + 1) / 2) - mpmath.psi(1, w / 2 + 1)) / 4
            assert abs(mpmath.mpf(d1) - exact1) <= 2e-15, b
            # zeta(2, a) - zeta(2, a + 1/2) cancels about log10(beta) digits
            # (4e-10 relative at beta = 1e7)
            assert abs(mpmath.mpf(d2) - exact2) <= max(1e-14, 4e-16 * b) * exact2, b


@pytest.mark.parametrize("call", [
    lambda v: ratefn.log_mgf(v),
    lambda v: ratefn.log_mgf(complex(1.0, v)),
    lambda v: ratefn.log_mgf(complex(v, 1.0)),
    lambda v: ratefn.log_mgf_quad(v),
    lambda v: ratefn.log_mgf_derivs(v),
    lambda v: ratefn.sample_tilted_v(v, stream(13, "nonfinite")),
], ids=["log_mgf", "log_mgf-imag", "log_mgf-real", "log_mgf_quad", "log_mgf_derivs",
        "sample_tilted_v"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_beta_is_refused(call, value):
    with pytest.raises(DomainError, match=r"finite, got .*(nan|inf)"):
        call(value)


@pytest.mark.parametrize("call", [
    lambda q: ratefn.bahadur_rao_tail(0.3, q),
    lambda q: ratefn.iid_tail(0.3, q),
    lambda q: ratefn.tilted_tail_estimate(0.3, q, 100, stream(13, "nonfinite-q")),
], ids=["bahadur_rao_tail", "iid_tail", "tilted_tail_estimate"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_q_is_refused(call, value):
    # a NaN q passes q < 1 and would return nan or raise AccuracyError
    with pytest.raises(DomainError, match=r"finite, got (nan|inf)"):
        call(value)


def test_convexity_and_derivative_limit():
    for beta in range(1, 21):
        _, d2 = ratefn.log_mgf_derivs(float(beta))
        assert d2 > 0.0
    d1_large, _ = ratefn.log_mgf_derivs(1e7)
    assert d1_large == pytest.approx(LOG2, abs=1e-6)


def test_legendre_basics():
    val, beta = ratefn.legendre(0.05)
    assert val > 0.0 and beta > 0.0
    # small x: transform tends to 0
    val_small, _ = ratefn.legendre(1e-4)
    assert val_small < 1e-4
    with pytest.raises(DomainError):
        ratefn.legendre(0.0)
    with pytest.raises(DomainError):
        ratefn.legendre(LOG2)
    with pytest.raises(DomainError):
        ratefn.legendre(0.8)


def test_legendre_involution():
    for beta in (1.0, 2.5, 7.0, 11.746, 20.0):
        x, _ = ratefn.log_mgf_derivs(beta)
        _, beta_back = ratefn.legendre(x)
        assert beta_back == pytest.approx(beta, abs=1e-8 * max(1.0, beta))


def test_legendre_derivative_is_tilt():
    h = 1e-6
    for x in (0.3, 0.5, 0.6524):
        vp, _ = ratefn.legendre(x + h)
        vm, _ = ratefn.legendre(x - h)
        _, beta = ratefn.legendre(x)
        assert (vp - vm) / (2 * h) == pytest.approx(beta, rel=1e-6)


def test_legendre_top_sliver_beyond_fixed_bracket():
    # x above log_mgf'(200) ~ 0.69065 needs the adaptive bracket
    x = 0.6929
    val, beta = ratefn.legendre(x)
    assert beta > 200.0
    assert val == pytest.approx(x * beta - ratefn.log_mgf(beta), rel=1e-12)


def test_rate_function_vs_gaussian_shape():
    # below the parabola near 0, above it near log 2
    assert ratefn.legendre(0.1)[0] < 0.01
    assert ratefn.legendre(0.69)[0] > 0.69**2


def test_solve_critical_constants():
    sol = ratefn.solve_critical()
    assert abs(sol.x_crit - 0.6524) <= 5e-4
    assert abs(sol.beta_crit - 11.746) <= 5e-3
    assert sol.residual <= 1e-10
    assert abs(sol.x_crit * sol.beta_crit - sol.lambda_at - 1.0) <= 1e-10
    assert sol.beta_crit >= 1.0 / LOG2
    d1, _ = ratefn.log_mgf_derivs(sol.beta_crit)
    assert d1 == pytest.approx(sol.x_crit, abs=1e-10)


def test_bahadur_rao_assembly_and_monotonicity():
    sol = ratefn.solve_critical()
    q = 100
    expected = math.exp(-q) / (
        sol.beta_crit * math.sqrt(2 * math.pi * sol.lambda2_at * q)
    )
    assert ratefn.bahadur_rao_tail(sol.x_crit, q) == pytest.approx(expected, rel=1e-10)
    prev = math.inf
    for q in (1, 2, 4, 8, 16, 32, 64):
        cur = ratefn.bahadur_rao_tail(sol.x_crit, q)
        assert cur < prev
        prev = cur


def test_tilted_sampler_limits_and_errors():
    rng = stream(13, "tilt0")
    for beta in (0.0, -1.0):
        with pytest.raises(DomainError):
            ratefn.sample_tilted_v(beta, rng)
    # beta -> 0: uniform on the torus
    u = ratefn.sample_tilted_v(1e-9, rng, size=200000)
    assert abs(u.mean() - 0.5) < 3 * 0.2887 / math.sqrt(len(u))
    assert abs(u.var() - 1 / 12) < 5e-4


def test_tilted_sampler_moments_match_cgf_derivatives():
    # the critical tilt, and the tilt of y = 0.693 that tilted_tail_estimate
    # draws at (no cap on beta)
    for beta in (ratefn.solve_critical().beta_crit, 3397.0):
        u = ratefn.sample_tilted_v(beta, stream(17, "tiltmom"), size=1000000)
        v = np.log(2.0 * np.sin(math.pi * u))
        d1, d2 = ratefn.log_mgf_derivs(beta)
        se_mean = v.std(ddof=1) / math.sqrt(len(v))
        assert abs(v.mean() - d1) < 3 * se_mean
        # variance of V under the tilt equals the second cumulant derivative
        var = v.var(ddof=1)
        # normal-theory scale: it ignores the excess kurtosis of V, and
        # stream (17, "tiltmom") sits at 3.59 of the 4 standard errors at
        # beta* (see the FOUND entry on this test in CHANGES.md)
        se_var = math.sqrt(2.0 / (len(v) - 1)) * var
        assert abs(var - d2) < 4 * se_var


def test_sample_tilted_v_scalar_and_range():
    rng = stream(31, "tiltscalar")
    u = ratefn.sample_tilted_v(11.746, rng)
    assert 0.0 <= float(u) <= 1.0
    arr = ratefn.sample_tilted_v(11.746, rng, size=1000)
    assert arr.shape == (1000,)
    assert (arr >= 0.0).all() and (arr <= 1.0).all()
    # the tilt concentrates mass near the mode at 1/2
    assert abs(arr.mean() - 0.5) < 0.02


def test_tilted_density_histogram():
    beta = 3.0
    u = ratefn.sample_tilted_v(beta, stream(19, "tilthist"), size=200000)
    z = math.exp(ratefn.log_mgf(beta))
    edges = np.linspace(0.0, 1.0, 41)
    observed, _ = np.histogram(u, bins=edges)
    expected = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(
            lambda x: (2 * math.sin(math.pi * x)) ** beta / z, lo, hi
        )
        expected.append(val * len(u))
    # merge tiny-expectation edge bins for a valid chi-square
    observed = np.array([observed[:3].sum()] + observed[3:-3].tolist() + [observed[-3:].sum()])
    expected = np.array([sum(expected[:3])] + expected[3:-3] + [sum(expected[-3:])])
    _, pvalue = stats.chisquare(observed, expected * observed.sum() / expected.sum())
    assert pvalue > 1e-3


def test_tilted_tail_estimate_against_quadrature_oracle():
    # q = 1: P(V >= y) = 1 - 2*arcsin(e^y / 2)/pi exactly
    for y in (0.2, 0.5):
        exact = 1.0 - 2.0 * math.asin(math.exp(y) / 2.0) / math.pi
        est, se = ratefn.tilted_tail_estimate(y, 1, 400000, stream(23, "tail1", int(y * 10)))
        assert abs(est - exact) < 4 * se + 1e-12
        assert se < 0.01 * exact


def test_tilted_tail_estimate_matches_bahadur_rao_at_moderate_q():
    sol = ratefn.solve_critical()
    est, se = ratefn.tilted_tail_estimate(sol.x_crit, 64, 200000, stream(29, "tail64"))
    pred = ratefn.bahadur_rao_tail(sol.x_crit, 64)
    assert 2 / 3 <= est / pred <= 3 / 2


def _tail_q1(y):
    # P(V >= y) = P(2 sin(pi U) >= e^y) exactly
    return 1.0 - 2.0 * math.asin(math.exp(y) / 2.0) / math.pi


def test_iid_tail_q1_closed_form():
    for y in (0.05, 0.1, 0.3, 0.6, 0.69):
        assert ratefn.iid_tail(y, 1) == pytest.approx(_tail_q1(y), rel=1e-9)


def test_iid_tail_q2_exact_convolution():
    mpmath = pytest.importorskip("mpmath")

    def convolution(y):
        # P(V1 + V2 >= 2y) = int_0^1 P(V >= 2y - V(u)) du; the integrand
        # vanishes outside [u1, 1 - u1], sin(pi u1) = e^{2y}/4, and is
        # symmetric about 1/2 (min clips rounding at the endpoint u1)
        with mpmath.workdps(20):
            y = mpmath.mpf(y)
            u1 = mpmath.asin(mpmath.exp(2 * y) / 4) / mpmath.pi

            def inner(u):
                w = mpmath.exp(2 * y) / (4 * mpmath.sin(mpmath.pi * u))
                return 1 - 2 / mpmath.pi * mpmath.asin(min(w, 1))

            return float(2 * mpmath.quad(inner, [u1, 0.5]))

    assert convolution(0.3) == pytest.approx(0.409173610596197, rel=1e-12)
    for y in (0.05, 0.3, 0.6, 0.69):
        assert ratefn.iid_tail(y, 2) == pytest.approx(convolution(y), rel=1e-9)


def test_iid_tail_pinned_mpmath_values():
    # the same Bromwich integral on the vertical line, by mpmath at dps 30
    x_crit = ratefn.solve_critical().x_crit
    for (y, q), value in [((0.3214814, 32), 0.0099999935272812),
                          ((0.5, 8), 0.0204270691098372),
                          ((x_crit, 32), 1.30940584503614e-15)]:
        assert ratefn.iid_tail(y, q) == pytest.approx(value, rel=1e-9)


def test_iid_tail_monte_carlo_oracle():
    x_crit = ratefn.solve_critical().x_crit
    cases = [(x_crit, 32), (0.5, 8), (0.693, 32), (0.5, 10), (0.6483, 18)]
    for i, (y, q) in enumerate(cases):
        est, se = ratefn.tilted_tail_estimate(y, q, 200000, stream(41, "iidtail", i))
        assert abs(est - ratefn.iid_tail(y, q)) <= 4 * se


def test_iid_tail_certifies_levels_near_x_crit():
    # levels where each quadrature piece meeting IID_TAIL_RTOL on its own
    # sums to an error estimate just past it
    for y in np.linspace(0.6480, 0.6487, 71):
        assert ratefn.iid_tail(float(y), 18) > 0.0


def test_iid_tail_domain_and_accuracy_errors():
    for y in (0.0, -0.1, LOG2, 0.7):
        with pytest.raises(DomainError):
            ratefn.iid_tail(y, 8)
    with pytest.raises(DomainError):
        ratefn.iid_tail(0.3, 0)
    # q = 1e9: the peak of the integrand at s = 0 is ~1e-4 wide, QUADPACK's
    # nodes miss it, and an integral of 0 certifies nothing
    with pytest.raises(AccuracyError):
        ratefn.iid_tail(0.3, 10**9)


def test_iid_tail_near_log2():
    # beta ~ 7e4: subtracting log-gamma values near 3e5 leaves ~1e-10 of
    # rounding, which q multiplies past what QUADPACK can certify; the
    # Stirling difference does not cancel. At q = 1000 the tail, ~e^-5300,
    # underflows to 0.0 on both sides
    y = 0.69314
    for q in (128, 1000):
        assert ratefn.iid_tail(y, q) == pytest.approx(ratefn.bahadur_rao_tail(y, q),
                                                      rel=1.0 / q, abs=0.0)
    exact = ratefn.iid_tail(y, 128)
    assert exact > 1e-297
    est, se = ratefn.tilted_tail_estimate(y, 128, 20000, stream(41, "iidtail-log2"))
    assert 0.0 < se and abs(est - exact) <= 4 * se
