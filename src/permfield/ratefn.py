"""Rate-function pipeline for V = log|1 - e(U)|, U uniform on the torus.

log_mgf is the cumulant generating function log E[e^{beta V}]
= log integral of |1-e(u)|^beta du. Its Legendre transform drives the
large-deviation tail of i.i.d. sums of V; the critical constant x_crit
solves legendre(x) = 1 and is the law-of-large-numbers constant for the
field maximum. iid_tail is the exact i.i.d. tail, by contour inversion of
the closed-form mgf; bahadur_rao_tail is its sharp asymptotic. The tilted
sampler and the importance-sampling estimate tilted_tail_estimate are
Monte Carlo oracles of both.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .errors import AccuracyError, DomainError, UnsupportedError

__all__ = [
    "LOG2",
    "RateSolution",
    "TiltedSampler",
    "log_mgf",
    "log_mgf_quad",
    "log_mgf_derivs",
    "legendre",
    "solve_critical",
    "bahadur_rao_tail",
    "iid_tail",
    "make_tilted_sampler",
    "sample_tilted_v",
    "tilted_tail_estimate",
]

LOG2 = math.log(2.0)
_HALF_LOG_PI = 0.5 * math.log(math.pi)
IID_TAIL_RTOL = 1e-10  # relative error iid_tail's quadrature must certify


def _log_gamma_ratio(z):
    # log Gamma((z+1)/2) - log Gamma(z/2+1), analytic off the real axis
    return special.loggamma((z + 1.0) / 2.0) - special.loggamma(z / 2.0 + 1.0)


def log_mgf(beta):
    """log integral_0^1 (2 sin pi u)^beta du, via the log-gamma closed form.

    Equals beta*log 2 + lgamma((beta+1)/2) - lgamma(beta/2 + 1) - log(pi)/2.
    Accepts complex beta with positive real part (principal branch).
    """
    if isinstance(beta, complex):
        if beta.real <= 0.0:
            raise DomainError(f"Re(beta) must be positive, got {beta}")
        return beta * LOG2 + _log_gamma_ratio(beta) - _HALF_LOG_PI
    if beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    return float(
        beta * LOG2
        + special.gammaln((beta + 1.0) / 2.0)
        - special.gammaln(beta / 2.0 + 1.0)
        - _HALF_LOG_PI
    )


def log_mgf_quad(beta):
    """Adaptive-quadrature cross-check of log_mgf (real beta only).

    For beta < 2 the substitution sin(pi u) = sqrt(v) turns the integral
    into a Beta integral with explicit algebraic endpoint weights, which
    QUADPACK integrates to near machine precision.
    """
    if beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if beta < 2.0:
        val, _ = integrate.quad(
            lambda v: 1.0, 0.0, 1.0, weight="alg", wvar=((beta - 1.0) / 2.0, -0.5)
        )
        return beta * LOG2 + math.log(val) - math.log(math.pi)
    val, _ = integrate.quad(
        lambda u: (2.0 * math.sin(math.pi * u)) ** beta, 0.0, 1.0, limit=200
    )
    return math.log(val)


def log_mgf_derivs(beta):
    """(d/dbeta, d^2/dbeta^2) of log_mgf via digamma / trigamma."""
    if beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    d1 = LOG2 + 0.5 * (
        special.digamma((beta + 1.0) / 2.0) - special.digamma(beta / 2.0 + 1.0)
    )
    d2 = 0.25 * (
        special.polygamma(1, (beta + 1.0) / 2.0)
        - special.polygamma(1, beta / 2.0 + 1.0)
    )
    return float(d1), float(d2)


def _solve_tilt(x):
    """beta with log_mgf'(beta) = x, by safeguarded Newton on a bracket."""
    lo, hi = 1e-6, 200.0
    # log_mgf' increases to log 2; grow the bracket for x in the top sliver
    while log_mgf_derivs(hi)[0] < x:
        hi *= 2.0
        if hi > 1e18:
            raise DomainError(f"no tilt parameter found for x = {x}")
    beta = min(max(1.0, 0.5 / max(LOG2 - x, 1e-18)), hi)
    for _ in range(200):
        f, fp = log_mgf_derivs(beta)
        f -= x
        if f > 0.0:
            hi = beta
        else:
            lo = beta
        step = f / fp
        nxt = beta - step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(f) <= 1e-12 and abs(nxt - beta) <= 1e-12 * max(1.0, beta):
            return nxt
        beta = nxt
    return beta


def legendre(x):
    """Legendre transform sup_{beta>0} (x*beta - log_mgf(beta)).

    Returns (value, maximizing beta). Defined for 0 < x < log 2; the
    transform increases from 0 and diverges as x approaches log 2.
    """
    if not 0.0 < x < LOG2:
        raise DomainError(f"x must lie in (0, log 2), got {x}")
    beta = _solve_tilt(x)
    return x * beta - log_mgf(beta), beta


@dataclass
class RateSolution:
    """Solution bundle of legendre(x) = 1."""

    x_crit: float
    beta_crit: float
    lambda_at: float
    lambda2_at: float
    residual: float

    def __post_init__(self):
        if not 0.0 < self.x_crit < LOG2:
            raise DomainError(f"x_crit {self.x_crit} outside (0, log 2)")
        if self.beta_crit < 1.0 / LOG2:
            raise DomainError(f"beta_crit {self.beta_crit} below 1/log 2")
        if self.residual > 1e-10:
            raise DomainError(f"residual {self.residual} exceeds 1e-10")
        identity = self.x_crit * self.beta_crit - self.lambda_at
        if abs(identity - 1.0) > 1e-10:
            raise DomainError(f"Legendre identity violated: {identity}")


def solve_critical():
    """Solve legendre(x) = 1 for the critical constant, plus its tilt data."""
    lo, hi = 0.05, LOG2 - 1e-12
    x = 0.65
    for _ in range(200):
        val, beta = legendre(x)
        f = val - 1.0
        if f > 0.0:
            hi = x
        else:
            lo = x
        nxt = x - f / beta  # d/dx legendre = beta
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(f) <= 1e-13 and abs(nxt - x) <= 1e-14:
            x = nxt
            break
        x = nxt
    val, beta = legendre(x)
    _, d2 = log_mgf_derivs(beta)
    return RateSolution(
        x_crit=x,
        beta_crit=beta,
        lambda_at=log_mgf(beta),
        lambda2_at=d2,
        residual=abs(val - 1.0),
    )


def bahadur_rao_tail(y, q):
    """Sharp asymptotic for P(sum of q i.i.d. copies of V >= y*q).

    Returns exp(-legendre(y)*q) / (beta * sqrt(2*pi*log_mgf''(beta)*q))
    with beta the maximizing tilt (the exact-asymptotics prefactor of the
    Bahadur-Rao theorem, including the 2*pi constant). Accurate up to a
    (1 + o(1)) factor as q grows.
    """
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    rate, beta = legendre(y)
    _, d2 = log_mgf_derivs(beta)
    return math.exp(-rate * q) / (beta * math.sqrt(2.0 * math.pi * d2 * q))


def iid_tail(y, q):
    """P(sum of q i.i.d. copies of V >= y*q), exact to IID_TAIL_RTOL.

    Bromwich inversion of the closed-form mgf (Abate & Whitt 1992) at the
    saddle tilt beta of legendre(y): P = e^{-q I(y)} / pi times the integral
    over s > 0 of Re g(beta + i s), with g(z) = e^{q (log_mgf(z) -
    log_mgf(beta)) - (z - beta) q y} / z. There g decays only like
    s^{-1-q/2}, so past s = A = 2 (beta + 1) the contour turns left onto
    z = beta - r + i A, where g (log_mgf continued analytically; its poles
    are real) decays like e^{-q (log 2 - y) r}. The same two QUADPACK
    integrals serve every q; AccuracyError if their error estimates sum to
    more than IID_TAIL_RTOL of the result.
    """
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    rate, beta = legendre(y)
    drift = LOG2 - y
    rho0 = _log_gamma_ratio(complex(beta))

    def g(z):
        return np.exp(q * ((z - beta) * drift + _log_gamma_ratio(z) - rho0)) / z

    def piece(f, upper, epsabs):
        # full_output turns a QUADPACK failure into a message, not a warning
        val, err, _, *failure = integrate.quad(
            f, 0.0, upper, epsabs=epsabs, epsrel=IID_TAIL_RTOL, limit=200,
            full_output=1)
        return val, math.inf if failure else err

    corner = 2.0 * (beta + 1.0)
    vertical, err_v = piece(lambda s: g(complex(beta, s)).real, corner, 0.0)
    # dz = -corner du; with its mirror image the ray adds Im(int g dz) / pi.
    # Often negligible, it is held to an accuracy relative to the vertical.
    turned, err_t = piece(
        lambda u: -corner * g(complex(beta - corner * u, corner)).imag,
        np.inf, 0.1 * IID_TAIL_RTOL * abs(vertical))
    total = vertical + turned
    if not (total > 0.0 and err_v + err_t <= IID_TAIL_RTOL * total):
        raise AccuracyError(
            f"iid_tail(y={y!r}, q={q}): quadrature error {err_v + err_t:.3g} "
            f"exceeds {IID_TAIL_RTOL} of the integral {total:.6g}")
    return math.exp(math.log(total / math.pi) - q * rate)


@dataclass
class TiltedSampler:
    """Sampler for the tilted torus density |1-e(u)|^beta / e^{log_mgf(beta)}."""

    beta: float
    log_normalizer: float


def make_tilted_sampler(beta):
    if beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if beta > 64.0:
        raise UnsupportedError(f"tilt beta = {beta} > 64 is not supported")
    return TiltedSampler(beta=float(beta), log_normalizer=log_mgf(beta))


def sample_tilted_v(sampler, rng, size=None):
    """Torus points with density (2 sin pi u)^beta / e^{log_mgf(beta)}.

    Substituting w = cos(pi u) maps the density to a symmetric Beta law:
    w = 2B - 1 with B ~ Beta(a, a), a = (beta+1)/2, so the draw is exact.
    """
    a = 0.5 * (sampler.beta + 1.0)
    b = rng.beta(a, a, size=size)
    return np.arccos(2.0 * b - 1.0) / math.pi


def _tilted_v_values(beta, rng, size):
    # V = log(2 sin pi u) computed from the Beta draw without trigonometry:
    # sin(pi u)^2 = 1 - w^2 = 4 b (1 - b)
    a = 0.5 * (beta + 1.0)
    b = rng.beta(a, a, size=size)
    return 2.0 * LOG2 + 0.5 * (np.log(b) + np.log1p(-b))


def tilted_tail_estimate(y, q, samples, rng, batch=None):
    """Importance-sampling estimate of P(sum of q i.i.d. V >= y*q).

    The Monte Carlo oracle of iid_tail. Draws under the tilt beta with
    log_mgf'(beta) = y and reweights by the likelihood ratio
    e^{-beta*Y + q*log_mgf(beta)}. Returns (estimate, standard error).
    """
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    _, beta = legendre(y)
    lam = log_mgf(beta)
    threshold = y * q
    if batch is None:
        batch = max(1, (1 << 22) // q)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(batch, samples - done)
        vals = _tilted_v_values(beta, rng, (m, q))
        ysum = vals.sum(axis=1)
        w = np.where(ysum >= threshold, np.exp(-beta * ysum + q * lam), 0.0)
        total += float(w.sum())
        total_sq += float((w * w).sum())
        done += m
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)
