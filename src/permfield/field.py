"""Evaluation of the log-characteristic-polynomial field on points and meshes.

The real field at t is sum_ell c_ell * log|1 - e(ell t)| with
log|1 - e(u)| = log(2 |sin pi u|); the imaginary field replaces the log
term by the principal branch arg(1 - e(u)) = pi (u - 1/2). Field values
live in [-inf, inf) and are represented as IEEE floats: -inf is an exact
state that absorbs addition and compares below every finite value.

On rational points and rotated rational meshes the reduction ell*t mod 1
is carried out in exact integer arithmetic, so the singularity ell*t in Z
(value -inf, real kind) is decided exactly, never by floating-point
underflow. Mesh scans run the reduction in blocked int64 numpy kernels.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import CapacityError, InvalidArgumentError

__all__ = [
    "NEG_INF",
    "Mesh",
    "FieldSpec",
    "ScanResult",
    "log_abs_term",
    "arg_term",
    "log_abs_term_array",
    "term_array",
    "eval_point",
    "split_field",
    "scan_max",
    "resolve_threads",
    "write_trace_csv",
]

NEG_INF = float("-inf")

FLOAT_ZERO_TOL = 1e-15  # torus distance below which float input counts as 0
BLOCK = 1 << 16  # mesh points per scan task
INT128_LIMIT = 1 << 127
INT64_SAFE = 1 << 62


@dataclass
class Mesh:
    """Rotated rational grid {j/q + theta/q^2 : 0 <= j < q}, theta = num/den."""

    q: int
    theta_num: int = 0
    theta_den: int = 1

    def __post_init__(self):
        if self.q < 1:
            raise InvalidArgumentError(f"mesh size q must be >= 1, got {self.q}")
        if self.theta_den < 1:
            raise InvalidArgumentError("theta_den must be >= 1")
        if abs(self.theta_num) > self.theta_den:
            raise InvalidArgumentError("rotation theta must satisfy |theta| <= 1")

    def point(self, j):
        """Exact rational value of mesh point j."""
        return Fraction(
            j * self.q * self.theta_den + self.theta_num,
            self.q * self.q * self.theta_den,
        )

    def point_float(self, j):
        return (j * self.q * self.theta_den + self.theta_num) / (
            self.q * self.q * self.theta_den
        )

    def points_float(self):
        d = self.q * self.q * self.theta_den
        if d >= INT64_SAFE:
            raise CapacityError(f"q^2 * theta_den = {d} exceeds the int64-safe range")
        j = np.arange(self.q, dtype=np.int64)
        return (j * (self.q * self.theta_den) + self.theta_num) / d


@dataclass
class FieldSpec:
    """Which field to evaluate: counts, real or imaginary kind, optional cutoff."""

    counts: object  # a cycles.CycleCounts: CycleStructure or PoissonCounts
    kind: str = "real"
    truncation: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("real", "imag"):
            raise InvalidArgumentError(f"kind must be real|imag, got {self.kind}")
        if self.truncation is not None and not 1 <= self.truncation <= self.counts.size:
            raise InvalidArgumentError(
                f"truncation {self.truncation} outside [1, {self.counts.size}]"
            )


@dataclass
class ScanResult:
    index: int
    value: float
    trace: Optional[np.ndarray] = None


def log_abs_term(u, exact_zero=None):
    """log|1 - e(u)| = log(2 |sin pi u|); -inf exactly at u == 0 mod 1.

    exact_zero selects how the singularity is detected: None dispatches on
    the input type (exact for Fraction/int, threshold ||u|| < 1e-15 for
    float), True forces the exact test, False forces the threshold. The
    reduction u mod 1 is exact in every case.
    """
    frac, exact = _as_fraction(u)
    d = frac.denominator
    return _term_from_residue(frac.numerator % d, d, "real",
                              exact if exact_zero is None else exact_zero)


def arg_term(u):
    """Principal branch arg(1 - e(u)) = pi (u - 1/2), u reduced to [0, 1)."""
    frac, _ = _as_fraction(u)
    d = frac.denominator
    return _term_from_residue(frac.numerator % d, d, "imag", True)


def log_abs_term_array(lengths, t):
    """Vectorized log|1 - e(ell t)| over an int64 array of lengths, float t."""
    u = np.mod(np.asarray(lengths, dtype=np.float64) * t, 1.0)
    return term_array(u, 1.0, "real")


def term_array(num, den, kind):
    """Vectorized term of the residues num/den in [0, 1).

    num is an int64 array over the integer den (the exact scan residues) or
    a float array with den = 1.0. Real kind: log(2 sin(pi min(u, 1-u))),
    -inf at u = 0; imaginary kind: pi (u - 1/2).
    """
    if kind == "imag":
        return np.pi * (num / den - 0.5)
    # in place: a fresh 2^16-element array per step costs the scan ~20%
    # on one thread; the operations and their order are the same
    u = np.minimum(num, den - num) / den
    u *= np.pi
    np.sin(u, out=u)
    u *= 2.0
    with np.errstate(divide="ignore"):
        return np.log(u, out=u)


def _as_fraction(t):
    """Exact rational form of a torus point and whether it arrived exact."""
    if isinstance(t, Fraction):
        return t, True
    if isinstance(t, int):
        return Fraction(t), True
    # floats are dyadic rationals; reduce them exactly
    return Fraction(*float(t).as_integer_ratio()), False


def _term_from_residue(num, den, kind, exact):
    """Term of the exact residue num/den in [0, 1); exact selects the -inf test."""
    if kind == "imag":
        return math.pi * (num / den - 0.5)
    num = min(num, den - num)
    if exact:
        if num == 0:
            return NEG_INF
    elif num / den < FLOAT_ZERO_TOL:
        return NEG_INF
    return math.log(2.0 * math.sin(math.pi * (num / den)))


def _lengths(spec):
    """Occupied lengths and their multiplicities, cut at spec.truncation."""
    lengths, counts = spec.counts.as_arrays()
    if spec.truncation is not None:
        keep = lengths <= spec.truncation
        lengths, counts = lengths[keep], counts[keep]
    return lengths, counts


def _residue_sum(lengths, counts, t, kind):
    """sum c * term(ell t mod 1) with the reduction in exact integer arithmetic."""
    frac_t, exact = _as_fraction(t)
    p, d = frac_t.numerator, frac_t.denominator
    total = 0.0
    for ell, c in zip(lengths.tolist(), counts.tolist()):
        if d * ell >= INT128_LIMIT:
            raise CapacityError(
                f"reduction ell * denominator = {ell} * {d} exceeds the "
                "128-bit range supported for exact rational evaluation"
            )
        num = (ell * p) % d
        total += c * _term_from_residue(num, d, kind, exact)
        if total == NEG_INF:
            break
    return total


def eval_point(spec, t):
    """Field value sum_ell c_ell * term(ell t mod 1) at a single point.

    The reduction ell*t mod 1 is exact integer arithmetic on the rational
    form of t. Real kind returns -inf iff some occupied length has
    ell*t in Z (threshold rule for float inputs); imaginary kind is finite.
    """
    return _residue_sum(*_lengths(spec), t, spec.kind)


def split_field(spec, w, t):
    """(low, high) parts of the field split at length n/W; low + high = total."""
    n = spec.counts.size
    if not 2 <= w <= n:
        raise InvalidArgumentError(f"W must lie in [2, {n}], got {w}")
    lengths, counts = spec.counts.as_arrays()
    low = lengths <= n // w  # the cutoff is >= 1 since w <= n
    return (_residue_sum(lengths[low], counts[low], t, spec.kind),
            _residue_sum(lengths[~low], counts[~low], t, spec.kind))


def resolve_threads(threads=None):
    if threads:
        return max(1, int(threads))
    env = os.environ.get("PERMFIELD_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _scan_capacity_check(mesh, max_len):
    q, td, tn = mesh.q, mesh.theta_den, mesh.theta_num
    d = q * q * td
    if d >= INT64_SAFE:
        raise CapacityError(
            f"mesh denominator q^2 * theta_den = {d} exceeds the int64-safe "
            "range of the scan kernel"
        )
    if max_len * abs(tn) >= INT64_SAFE:
        raise CapacityError(
            f"max length * |theta_num| = {max_len * abs(tn)} exceeds the "
            "int64-safe range of the scan kernel"
        )


def _scan_block(j0, j1, q, qtd, d, residues, offsets, counts, kind):
    j = np.arange(j0, j1, dtype=np.int64)
    acc = np.zeros(j1 - j0)
    for r, off, c in zip(residues, offsets, counts):
        num = ((r * j) % q) * qtd + off
        num %= d
        acc += c * term_array(num, d, kind)
    return acc


def scan_max(spec, mesh, threads=None, want_trace=False):
    """Exact maximizer of the field over all mesh points.

    Deterministic parallel reduction over contiguous blocks of 2^16
    points; the result (and optional trace) is bit-identical for every
    thread count. Ties, including the all--inf mesh, resolve to the
    smallest index. Cost O(q * #distinct lengths).
    """
    lengths, counts = _lengths(spec)
    max_len = int(lengths[-1]) if len(lengths) else 1
    _scan_capacity_check(mesh, max_len)
    q, td, tn = mesh.q, mesh.theta_den, mesh.theta_num
    d = q * q * td
    qtd = q * td
    residues = np.array([ell % q for ell in lengths.tolist()], dtype=np.int64)
    offsets = np.array([(ell * tn) % d for ell in lengths.tolist()], dtype=np.int64)
    n_threads = resolve_threads(threads)

    starts = list(range(0, q, BLOCK))

    def work(j0):
        return _scan_block(j0, min(j0 + BLOCK, q), q, qtd, d, residues, offsets, counts, spec.kind)

    if n_threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            chunks = list(pool.map(work, starts))
    else:
        chunks = [work(j0) for j0 in starts]

    best_val = NEG_INF
    best_j = 0
    for j0, acc in zip(starts, chunks):
        k = int(np.argmax(acc))
        v = float(acc[k])
        if v > best_val:
            best_val, best_j = v, j0 + k
    trace = np.concatenate(chunks) if want_trace else None
    return ScanResult(index=best_j, value=best_val, trace=trace)


def write_trace_csv(mesh, trace):
    """Trace CSV: a JSON mesh header line, then rows j,t_float,value."""
    import json

    lines = [
        "# "
        + json.dumps(
            {"q": mesh.q, "theta_num": mesh.theta_num, "theta_den": mesh.theta_den},
            sort_keys=True,
        ),
        "j,t_float,value",
    ]
    d = mesh.q * mesh.q * mesh.theta_den
    qtd = mesh.q * mesh.theta_den
    for j, v in enumerate(trace.tolist()):
        t = (j * qtd + mesh.theta_num) / d
        lines.append(f"{j},{t!r},{'-inf' if v == NEG_INF else repr(v)}")
    return "\n".join(lines) + "\n"
