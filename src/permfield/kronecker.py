"""Fourier coefficients of |1-e(t)|^z and logarithmic block averages.

phi_hat evaluates hat(phi)_z(xi) = integral |1-e(t)|^z e(-xi t) dt in
closed form through the gamma function. decay_envelope fits the empirical
coefficient decay. log_average evaluates the exact logarithmic average of
phi over one geometric length block along the orbit (ell t)_ell, the
single-block conditional Laplace transform of the field.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import special

from .cycles import block_bounds, block_mean, one_over_ell_table
from .errors import AccuracyError, CapacityError, DomainError, InvalidArgumentError
from .field import INT64_SAFE, log_abs_term_array, term_array

__all__ = [
    "FourierRow",
    "phi",
    "phi_hat",
    "decay_envelope",
    "log_average",
]

DIRECT_XI_MAX = 64  # beyond this |xi| the reciprocal gammas of the direct
# form head for over/underflow (0 * inf = nan by xi = 256)


@dataclass
class FourierRow:
    z: complex
    xi: int
    value: complex


def phi(z, u):
    """|1 - e(u)|^z = (2 sin pi u)^z; 0 at the singularity for Re z > 0."""
    s = 2.0 * math.sin(math.pi * (float(u) % 1.0))
    if s <= 0.0:
        return 0.0 if not isinstance(z, complex) else complex(0.0)
    return s**z


def phi_hat(z, xi):
    """Fourier coefficient of phi_z at integer frequency xi.

    Requires Re z >= 0.5 and z finite. Closed form, even in xi:
    hat(phi)_z(xi) = (-1)^xi Gamma(z+1) / (Gamma(1+z/2+xi) Gamma(1+z/2-xi)).
    For |xi| above both DIRECT_XI_MAX and Re z/2 the reflection formula gives
    -(sin(pi z/2)/pi) Gamma(z+1) Gamma(|xi|-z/2) / Gamma(|xi|+1+z/2), the
    gamma ratio taken through loggamma. For even integer z, phi_z is a
    trigonometric polynomial and the coefficients are exactly 0 for
    |xi| > z/2. Real z is evaluated in real arithmetic (imaginary part 0).
    """
    zc = complex(z)
    if not (zc.real >= 0.5 and cmath.isfinite(zc)):
        raise DomainError(f"Re z must be >= 0.5 and z finite, got {z}")
    zz = zc if zc.imag != 0.0 else zc.real
    m = abs(int(xi))
    if zc.imag == 0.0 and zz % 2.0 == 0.0 and m > zz / 2.0:
        value = 0.0
    elif m <= max(DIRECT_XI_MAX, zc.real / 2.0):  # reflection needs |xi| > z/2
        value = ((-1) ** m * special.gamma(zz + 1.0)
                 * special.rgamma(1.0 + zz / 2.0 + m)
                 * special.rgamma(1.0 + zz / 2.0 - m))
    else:
        value = (-np.sin(np.pi * zz / 2.0) / np.pi * special.gamma(zz + 1.0)
                 * np.exp(special.loggamma(m - zz / 2.0)
                          - special.loggamma(m + 1.0 + zz / 2.0)))
    return FourierRow(z=zc, xi=int(xi), value=complex(value))


def decay_envelope(z, xi_max):
    """Fitted log-log decay slope and empirical 3/2-normalized envelope.

    Computes |phi_hat(z, xi)| * xi^{3/2} over a geometric grid of
    frequencies in [2, xi_max] and returns (slope, max envelope). The
    slope is fit over xi in [4, min(256, xi_max)]; frequencies whose
    coefficients vanish are excluded, and if fewer than three remain the
    slope is the -inf sentinel (trigonometric-polynomial case). A fitted
    slope above -1.4 raises AccuracyError.
    """
    if complex(z).real < 1.0:
        raise DomainError(f"Re z must be >= 1, got {z}")
    if xi_max < 4:
        raise InvalidArgumentError(f"xi_max must be >= 4, got {xi_max}")
    grid = sorted(
        {2, 3}
        | {int(round(4 * (xi_max / 4) ** (i / 24))) for i in range(25)}
        | {4, xi_max}
    )
    rows = [phi_hat(z, xi) for xi in grid if xi <= xi_max]
    mags = np.array([abs(r.value) for r in rows])
    xs = np.array([r.xi for r in rows], dtype=float)
    envelope = float(np.max(mags * xs**1.5))
    fit_mask = (xs >= 4) & (xs <= min(256, xi_max)) & (mags > 0)
    if fit_mask.sum() < 3:
        return float("-inf"), envelope
    slope = float(np.polyfit(np.log(xs[fit_mask]), np.log(mags[fit_mask]), 1)[0])
    if not slope <= -1.4:
        raise AccuracyError(
            f"fitted Fourier decay slope {slope:.3f} for z={z} exceeds -1.4"
        )
    return slope, envelope


def log_average(beta, t, k, rho):
    """(1/rho_k) * sum over the block of phi(beta, ell t) / ell.

    Exact finite sum over the integers of block k (never an integral
    approximation); equals the conditional Laplace transform of the
    single-cycle block field at tilt beta.
    """
    if not 0.0 < beta < math.inf:
        raise DomainError(f"beta must be positive and finite, got {beta}")
    a, b = block_bounds(k, rho)
    lengths, _ = one_over_ell_table(a, b)
    if isinstance(t, Fraction):
        # exact residues: phi vanishes exactly on lattice hits
        p, d = t.numerator, t.denominator
        if max(d, (b - 1) * (p % d)) >= INT64_SAFE:
            raise CapacityError(
                f"denominator d = {d} or reduction (b - 1) * (p mod d) = "
                f"{b - 1} * {p % d} exceeds the int64-safe range of the block "
                "average"
            )
        terms = term_array((lengths * (p % d)) % d, d, "real")
    else:
        terms = log_abs_term_array(lengths, float(t))
    # exp(-inf) = 0 keeps the exact zeros of phi
    return float(np.sum(np.exp(beta * terms) / lengths) / block_mean(k, rho))
