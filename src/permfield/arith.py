"""Diophantine arithmetic on the torus.

Bohr sets B_xi(kappa) = {t : ||xi t|| <= kappa} and their unions over
small frequencies (the "major arc" points) classify how well a point is
approximated by low-denominator rationals. The two-point arithmetic
distance min ||xi s + xi' t|| quantifies integer-linear independence of
1, s, t. Rational inputs are handled exactly via fractions.Fraction.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InvalidArgumentError
from .field import _scan_capacity_check, _sides

__all__ = [
    "ArcClassification",
    "BohrSpec",
    "torus_norm",
    "classify",
    "arithmetic_distance",
    "mesh_bohr_count",
    "major_ranges",
    "vinogradov_detect",
]

VINOGRADOV_CONSTANT = 100.0


@dataclass
class ArcClassification:
    kind: str  # "major" | "minor"
    witness: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("major", "minor"):
            raise InvalidArgumentError(f"kind must be major|minor, got {self.kind}")
        if (self.kind == "major") != (self.witness is not None):
            raise InvalidArgumentError("witness must be present iff kind is major")


@dataclass
class BohrSpec:
    xi: int
    kappa: float

    def __post_init__(self):
        if self.xi == 0:
            raise InvalidArgumentError("frequency xi must be nonzero")
        if not 0.0 < self.kappa < 0.5:
            raise InvalidArgumentError(f"kappa must lie in (0, 1/2), got {self.kappa}")


def torus_norm(x):
    """Distance from x to the nearest integer; exact for Fraction inputs."""
    if isinstance(x, Fraction):
        frac = x - math.floor(x)
        return min(frac, 1 - frac)
    frac = float(x) % 1.0
    return min(frac, 1.0 - frac)


def classify(t, xi0, kappa):
    """Major/minor classification: scan xi = 1..xi0 for ||xi t|| <= kappa.

    Returns the smallest witnessing frequency, so the result is
    deterministic. Minor means no frequency up to xi0 witnesses.
    """
    if xi0 < 1:
        raise InvalidArgumentError(f"xi0 must be >= 1, got {xi0}")
    if not 0.0 < kappa < 0.5:
        raise InvalidArgumentError(f"kappa must lie in (0, 1/2), got {kappa}")
    exact = isinstance(t, Fraction)
    bound = Fraction(kappa) if exact else kappa
    for xi in range(1, xi0 + 1):
        if torus_norm(xi * t) <= bound:
            return ArcClassification(kind="major", witness=xi)
    return ArcClassification(kind="minor", witness=None)


def arithmetic_distance(s, t, xi0):
    """min over nonzero |xi|, |xi'| <= xi0 of ||xi s + xi' t||.

    Exhaustive O(xi0^2) search; the index set is symmetric so only
    xi >= 1 needs scanning, with both signs of xi'.
    """
    if xi0 < 1:
        raise InvalidArgumentError(f"xi0 must be >= 1, got {xi0}")
    best = None
    for xi in range(1, xi0 + 1):
        for xip in range(-xi0, xi0 + 1):
            if xip == 0:
                continue
            d = torus_norm(xi * s + xip * t)
            if best is None or d < best:
                best = d
    return best


def _bohr_ranges(mesh, xi, kappa):
    """Index ranges [a, b) of the mesh points t with ||xi t|| <= kappa.

    kappa is a Fraction. Mesh points are {j/q + shift : 0 <= j < q}; the
    arcs [(i - kappa)/xi, (i + kappa)/xi] are lifted to the stretch of the
    real line covering them, one range per arc, in ascending order (they
    overlap once kappa >= 1/2). O(xi) work in exact rational arithmetic.
    """
    q = mesh.q
    shift = Fraction(mesh.theta_num, q * q * mesh.theta_den)  # theta / q^2
    for i in range(math.floor(xi * shift - kappa), math.ceil(xi * (1 + shift) + kappa) + 1):
        a = max(math.ceil(q * (Fraction(i - kappa, xi) - shift)), 0)
        b = min(math.floor(q * (Fraction(i + kappa, xi) - shift)) + 1, q)
        if a < b:
            yield a, b


def mesh_bohr_count(mesh, spec):
    """Exact number of mesh points t with ||xi t|| <= kappa.

    Counts integers j per arc of the Bohr set in exact rational
    arithmetic, O(xi) work; never enumerates the q mesh points.
    """
    return sum(b - a for a, b in _bohr_ranges(mesh, abs(spec.xi), Fraction(spec.kappa)))


def major_ranges(mesh, xi0, kappa):
    """Maj(xi0, kappa) on the mesh: sorted, disjoint index ranges [a, b).

    Mesh point j is major iff ||xi t_j|| <= kappa for some 1 <= xi <= xi0,
    the membership classify decides, compared exactly with Fraction(kappa).
    Every kappa >= 1/2 makes every point major. O(xi0^2) work; never
    enumerates the q mesh points. A mesh past the int64 limit of the scan
    raises CapacityError.
    """
    if xi0 < 1:
        raise InvalidArgumentError(f"xi0 must be >= 1, got {xi0}")
    if not kappa > 0.0:
        raise InvalidArgumentError(f"kappa must be positive, got {kappa}")
    _scan_capacity_check(mesh, 1)
    kappa = Fraction(kappa)
    arcs = (r for xi in range(1, xi0 + 1) for r in _bohr_ranges(mesh, xi, kappa))
    return _sides(arcs, mesh.q)[0]


def vinogradov_detect(t, interval_len, kappa, delta):
    """Search for a small frequency forced by many near-integer multiples.

    If a proportion delta of an interval of length interval_len has
    ||ell t|| <= kappa, then (unless the interval is degenerate or kappa
    is large) some xi <= 2/delta has ||xi t|| <= C*kappa/(delta*M) with an
    explicit artifact constant C = 100. Returns that xi, or None when a
    degenerate alternative holds or no witness passes the re-check.
    """
    if not 0.0 < kappa < 1.0 or not 0.0 < delta < 1.0:
        raise InvalidArgumentError("kappa and delta must lie in (0, 1)")
    if interval_len <= 2.0 / delta:
        return None
    if kappa >= delta / 100.0:
        return None
    threshold = VINOGRADOV_CONSTANT * kappa / (delta * interval_len)
    for xi in range(1, int(2.0 / delta) + 1):
        if torus_norm(xi * t) <= threshold:
            return xi
    return None
