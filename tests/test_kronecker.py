import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from permfield.cycles import block_bounds, block_mean
from permfield.errors import CapacityError, DomainError, InvalidArgumentError
from permfield.kronecker import decay_envelope, log_average, phi, phi_hat
from permfield.ratefn import log_mgf, solve_critical

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2 = math.sqrt(2.0) - 1.0


def quad_phi_hat(z, xi):
    """QUADPACK reference for phi_hat: (value, error estimate).

    Integrates the real and imaginary parts of |1-e(t)|^z against the
    oscillatory cosine weight (the sine component vanishes by t -> 1-t).
    """
    zc = complex(z)
    is_complex = zc.imag != 0.0
    zz = zc if is_complex else zc.real

    def part(take):
        def f(u):
            s = 2.0 * math.sin(math.pi * u)
            return take(s**zz) if s > 0.0 else 0.0
        return f

    kwargs = dict(epsabs=1e-12, epsrel=1e-10, limit=400)
    if xi != 0:
        kwargs.update(weight="cos", wvar=2.0 * math.pi * abs(xi))
    re, err_re = integrate.quad(part(lambda v: v.real), 0.0, 1.0, **kwargs)
    im, err_im = (integrate.quad(part(lambda v: v.imag), 0.0, 1.0, **kwargs)
                  if is_complex else (0.0, 0.0))
    return complex(re, im), err_re + err_im


def test_phi_hat_trig_identity_at_two():
    # phi_2(t) = 2 - 2 cos(2 pi t): coefficients 2, -1, 0, 0, ...
    assert phi_hat(2.0, 0).value.real == pytest.approx(2.0, abs=1e-10)
    assert phi_hat(2.0, 1).value.real == pytest.approx(-1.0, abs=1e-10)
    assert phi_hat(2.0, -1).value.real == pytest.approx(-1.0, abs=1e-10)
    for xi in (2, 3, 17):
        assert abs(phi_hat(2.0, xi).value) < 1e-10


def test_phi_hat_zero_frequency_is_mgf():
    for beta in (1.0, 2.5, 11.746):
        row = phi_hat(beta, 0)
        assert row.value.real == pytest.approx(math.exp(log_mgf(beta)), rel=1e-8)
    # complex tilt: matches the analytic continuation of the closed form
    z = 1.0 + 5.0j
    row = phi_hat(z, 0)
    expected = np.exp(complex(log_mgf(z)))
    assert abs(row.value - expected) < 1e-8 * abs(expected)


def test_phi_hat_conjugate_symmetry_real_z():
    for xi in (1, 5, 32):
        a = phi_hat(2.5, xi).value
        b = phi_hat(2.5, -xi).value
        assert a.imag == pytest.approx(0.0, abs=1e-10)
        assert a.real == pytest.approx(b.real, rel=1e-9)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_phi_hat_matches_quadrature():
    xis = [-64, -31, -7, -2, -1, 0, 1, 2, 3, 5, 8, 13, 21, 31, 34, 55, 63, 64,
           65, 89, 100, 128, 200, 255, 256]
    for z in (0.75, 1.0, 2.5, 3.0, 11.746, 1.0 + 5.0j):
        for xi in xis:
            closed = phi_hat(z, xi).value
            quad, err = quad_phi_hat(z, xi)
            assert abs(closed - quad) <= 1e-8 * abs(quad) + 10.0 * err, (z, xi)
            if not isinstance(z, complex):
                assert closed.imag == 0.0


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_phi_hat_exact_zeros_at_even_integers():
    # phi_z is a trigonometric polynomial of degree z/2 for even integer z:
    # beyond it the closed form gives exact zeros, where quadrature leaves
    # roundoff below its absolute tolerance
    for z in (2.0, 4):
        for xi in (-100, -3, int(z) // 2 + 1, 17, 64, 65, 256):
            assert phi_hat(z, xi).value == 0.0
            assert abs(quad_phi_hat(z, xi)[0]) < 1e-12
    assert phi_hat(4, 2).value.real == pytest.approx(quad_phi_hat(4, 2)[0].real, rel=1e-10)


def test_phi_hat_domain():
    with pytest.raises(DomainError):
        phi_hat(0.2, 1)


def test_decay_envelope_slopes():
    slope, env = decay_envelope(1.0, 256)
    assert slope <= -1.4 and env > 0
    slope, env = decay_envelope(1 + 5j, 256)
    assert slope <= -1.4 and math.isfinite(env)
    slope, _ = decay_envelope(2.5, 256)
    assert slope <= -1.8


def test_decay_envelope_sentinel_at_two():
    slope, env = decay_envelope(2.0, 64)
    assert slope == float("-inf")
    assert env < 1e-8


def test_decay_envelope_check_raises():
    # the check flag trips on a slope above the bound; beta=1 never does
    slope, _ = decay_envelope(1.0, 64, check=True)
    assert slope <= -1.4


def test_fourier_reconstruction():
    # partial sums of the Fourier series converge uniformly away from 0
    for beta in (1.5, 2.5):
        coeffs = {xi: phi_hat(beta, xi).value.real for xi in range(0, 513)}
        for u in np.linspace(0.05, 0.95, 19):
            series = coeffs[0] + 2.0 * math.fsum(
                coeffs[xi] * math.cos(2 * math.pi * xi * u) for xi in range(1, 513)
            )
            assert abs(series - phi(beta, u)) < 1e-3


def test_log_average_singleton_block():
    # block {7}: the average is phi(beta, 7t) itself
    t = 0.3123
    assert log_average(2.0, t, 38, 0.05) == pytest.approx(phi(2.0, 7 * t), rel=1e-12)


def test_log_average_exact_vanishing_terms():
    # rational t: multiples of the denominator contribute exactly zero and
    # at large tilt the orbit average falls well below the torus mean
    sol = solve_critical()
    beta = sol.beta_crit
    target = math.exp(log_mgf(beta))
    avg = log_average(beta, Fraction(1, 3), 200, 0.05)
    assert avg < 0.75 * target
    orbit = (2.0 / 3.0) * phi(beta, Fraction(1, 3))
    assert avg == pytest.approx(orbit, rel=0.02)


def test_log_average_beta_two_period_three_identity():
    # phi_2 has only frequencies {0, +-1}, so the period-3 orbit average
    # collapses to the torus mean exactly (up to the 1/ell weighting drift)
    avg = log_average(2.0, Fraction(1, 3), 200, 0.05)
    assert avg == pytest.approx(2.0, rel=5e-3)


def test_log_average_generic_point_near_mgf():
    # e^{rho k} ~ 1e5 block at a badly approximable point
    k = math.ceil(math.log(1e5) / 0.05)
    avg = log_average(2.0, SQRT2, k, 0.05)
    assert abs(avg - 2.0) < 0.05


def test_log_average_exact_residues_match_fsum():
    t, k, rho, beta = Fraction(22, 97), 185, 0.05, 2.0
    a, b = block_bounds(k, rho)
    direct = math.fsum(phi(beta, Fraction((ell * 22) % 97, 97)) / ell
                       for ell in range(a, b))
    assert log_average(beta, t, k, rho) == pytest.approx(
        direct / block_mean(k, rho), rel=1e-12
    )


def test_log_average_refuses_int64_overflow():
    # (b - 1) * (p mod d) ~ 1.1e19 would wrap int64 silently
    t = Fraction(10**15 + 37, 2 * 10**15 + 1)
    with pytest.raises(CapacityError, match="int64-safe"):
        log_average(2.0, t, 185, 0.05)


def test_log_average_refuses_int64_denominator():
    # the exact residues go through the int64 term kernel, so d itself
    # must fit, even when every reduction (b - 1) * (p mod d) is small
    with pytest.raises(CapacityError, match="denominator d"):
        log_average(2.0, Fraction(1, 2**62 + 1), 185, 0.05)


def test_log_average_errors():
    with pytest.raises(InvalidArgumentError):
        log_average(2.0, 0.3, 1, 0.05)  # empty block
    with pytest.raises(DomainError):
        log_average(0.0, 0.3, 38, 0.05)


def test_equidistribution_along_kronecker_orbits():
    sol = solve_critical()
    beta = sol.beta_crit
    target = math.exp(log_mgf(beta))
    rho = 0.05
    k_lo = math.ceil(math.log(1e4) / rho)
    k_hi = math.floor(math.log(1e6) / rho)
    for t in (SQRT2, GOLDEN):
        devs = []
        for k in range(k_lo, k_hi + 1):
            avg = log_average(beta, t, k, rho)
            devs.append((k, abs(avg - target) / target))
        assert max(d for _, d in devs) <= 0.25
        low = np.median([d for k, d in devs if math.exp(rho * k) < 1e5])
        high = np.median([d for k, d in devs if math.exp(rho * k) >= 1e5])
        assert high <= low + 1e-12  # error shrinks with the block scale


def test_major_arc_equidistribution_failure():
    sol = solve_critical()
    beta = sol.beta_crit
    target = math.exp(log_mgf(beta))
    rho = 0.05
    k_lo = math.ceil(math.log(1e4) / rho)
    k_hi = math.floor(math.log(1e6) / rho)
    bad = 0
    total = 0
    for k in range(k_lo, k_hi + 1):
        avg = log_average(beta, Fraction(1, 3), k, rho)
        total += 1
        if abs(avg - target) / target > 0.25:
            bad += 1
    assert bad >= 0.9 * total


def test_block_sums_are_exact_loops():
    # log_average must agree with a direct python-loop evaluation
    k, rho, beta, t = 190, 0.05, 3.0, 0.377
    a, b = block_bounds(k, rho)
    direct = math.fsum(phi(beta, (ell * t) % 1.0) / ell for ell in range(a, b))
    assert log_average(beta, t, k, rho) == pytest.approx(
        direct / block_mean(k, rho), rel=1e-12
    )
