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
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import CapacityError, ConfigError, InvalidArgumentError

__all__ = [
    "NEG_INF",
    "Mesh",
    "FieldSpec",
    "ScanResult",
    "log_abs_term",
    "arg_term",
    "log_abs_term_array",
    "term_array",
    "poisson_mean",
    "eval_point",
    "scan_max",
    "resolve_threads",
    "thread_map",
    "write_trace_csv",
]

NEG_INF = float("-inf")

FLOAT_ZERO_TOL = 1e-15  # torus distance below which float input counts as 0
BLOCK = 1 << 16  # points per traced task, and most terms per tile: 512 KB stays in cache
TILE = 3  # lengths per tile of the pruned walk, longest first
PRUNE_RUNS = 64  # surviving 4096-runs per step of the prune walk: bounds its memory
BOUND_SPAN = 1 << 22  # mesh points per window of the unpruned 4096-run bound pass
RUNS = (4096, 64)  # run lengths of the bound passes, coarse to fine
BEST = (4, 16)  # best runs of each length whose points set the threshold
LENGTH_GROUP = 32  # lengths per vectorized step of a bound pass
MEAN_PIECE = 1 << 15  # most lengths per piece of poisson_mean: 256 KB stays in cache
_PEAK = {"real": math.log(2.0), "imag": math.pi / 2.0}  # the supremum of each term
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


@dataclass
class FieldSpec:
    """Which field to evaluate: counts, real or imaginary kind, optional cutoff."""

    counts: object  # a cycles.CycleCounts
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
    terms: int = 0  # (point, length) terms evaluated: q * #lengths for a traced scan
    bounds: int = 0  # (run, length) bounds computed by the untraced scan
    split: Optional[tuple] = None  # ((index, value) inside the ranges, outside)


def log_abs_term(u):
    """log|1 - e(u)| = log(2 |sin pi u|); -inf exactly at u == 0 mod 1.

    The singularity test follows the input type: exact for Fraction/int,
    the threshold ||u|| < 1e-15 for float. The reduction u mod 1 is exact
    in every case.
    """
    frac, exact = _as_fraction(u)
    d = frac.denominator
    return _term_from_residue(frac.numerator % d, d, "real", exact)


def arg_term(u):
    """Principal branch arg(1 - e(u)) = pi (u - 1/2), u reduced to [0, 1)."""
    frac, _ = _as_fraction(u)
    d = frac.denominator
    return _term_from_residue(frac.numerator % d, d, "imag", True)


def log_abs_term_array(lengths, t):
    """Vectorized log|1 - e(ell t)| over an int64 array of lengths, float t.

    The residue x - floor(x) of x = fl(ell t) rounds the exact x mod 1 once,
    bit for bit as np.mod(x, 1.0).
    """
    u = np.multiply(lengths, t, dtype=np.float64)
    u -= np.floor(u)
    return term_array(u, 1.0, "real")


def poisson_mean(n, t, kind):
    """Poisson-model mean sum_{ell <= n} term(ell t mod 1) / ell at a float t.

    Bit for bit float((term_array(np.mod(ell * t, 1.0), 1.0, kind) / ell).sum())
    over ell = 1..n, in pieces of at most MEAN_PIECE lengths: [1, n] splits
    where numpy's pairwise sum splits an array, so the piece sums add up alike.
    """
    def total(lo, hi):
        if hi - lo > max(MEAN_PIECE, 128):  # numpy: half, down to a multiple of 8
            mid = lo + (hi - lo) // 16 * 8
            return total(lo, mid) + total(mid, hi)
        ell = np.arange(lo, hi, dtype=np.int64)
        x = ell * t  # x - floor(x) is np.mod(x, 1.0) bit for bit, at a fraction of its cost
        terms = term_array(x - np.floor(x), 1.0, kind)
        terms /= ell
        return terms.sum()
    return float(total(1, n + 1))


def term_array(num, den, kind):
    """Vectorized term of the residues num/den in [0, 1).

    num is an int64 array over the integer den (the exact scan residues) or
    a float array with den = 1.0. Real kind: log(2 sin(pi min(u, 1-u))),
    -inf at u = 0; imaginary kind: pi (u - 1/2).
    """
    # in place: fresh arrays per step cost the scan ~15-20%. Rounding is
    # monotone, so the float minimum of the rounded num and den - num is
    # the rounded integer minimum, and the terms are those of the exact fold
    out = np.empty(np.shape(num))
    if kind == "imag":
        np.divide(num, den, out=out)
        out -= 0.5
        out *= np.pi
        return out
    np.subtract(den, num, out=out)
    np.minimum(num, out, out=out)
    out /= den
    out *= np.pi
    np.sin(out, out=out)
    out *= 2.0
    with np.errstate(divide="ignore"):
        return np.log(out, out=out)


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


def resolve_threads(threads=None):
    """threads, else PERMFIELD_THREADS, else the cpu count; 0, None and "" are unset."""
    for source, value in (("--threads", threads),
                          ("PERMFIELD_THREADS", os.environ.get("PERMFIELD_THREADS"))):
        if value is None or value == "":
            continue
        if not str(value).strip().isdecimal():
            raise ConfigError(
                f"{source} must be an integer >= 0 (0 = automatic), got {value!r}")
        if int(value):
            return int(value)
    return os.cpu_count() or 1


@contextmanager
def thread_map(threads=None):
    """Ordered map on resolve_threads(threads) pool workers; builtin map for one."""
    n_threads = resolve_threads(threads)
    with ThreadPoolExecutor(n_threads) if n_threads > 1 else nullcontext() as pool:
        yield pool.map if pool else map


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


def _tile(j, lo, hi, kernel):
    """The scan kernel: the table of c * term(ell t_j) over the lengths lo ..
    hi - 1 (rows) and the mesh indices j (columns, the contiguous axis)."""
    q, qtd, d, residues, offsets, counts, kind = kernel
    num = np.empty((hi - lo, len(j)), dtype=np.int64)
    _residues_into(num, j, residues[lo:hi, None], offsets[lo:hi, None], q, qtd, d)
    val = term_array(num, d, kind)
    val *= counts[lo:hi, None]
    return val


def _evaluate(j, kernel):
    """(j, field values at the mesh indices j, terms evaluated): tiles of at
    most BLOCK terms, each row added as it is made, shortest length first."""
    acc, n = np.zeros(len(j)), len(kernel[5])
    step = max(1, BLOCK // max(len(j), 1))
    for lo in range(0, n, step):
        for row in _tile(j, lo, min(lo + step, n), kernel):
            acc += row
    return j, acc, len(j) * n


def _walk(j, owner, sups, level, kernel):
    """(survivors, their values, terms evaluated) of the pruned walk over
    the mesh indices j; sups[:, owner] bounds each term over a point's run.
    Tiles of TILE lengths are taken longest first; after each, a point is
    dropped when its partial sum plus its run's bound of the lengths not
    yet taken is below level. A survivor's value is the sum of its terms in
    ascending length order, bit for bit that of _evaluate."""
    rest = np.zeros((len(sups) + 1, sups.shape[1]))  # rest[lo]: lengths below lo
    np.cumsum(sups, axis=0, out=rest[1:])
    tiles, part, terms = [], np.zeros(len(j)), 0
    for hi in range(len(kernel[5]), 0, -TILE):
        if not len(j):
            break
        lo = max(hi - TILE, 0)
        tiles.append(_tile(j, lo, hi, kernel))
        terms += tiles[-1].size
        part += tiles[-1].sum(axis=0)
        keep = part + rest[lo, owner] >= level
        if not keep.all():
            j, part, owner = j[keep], part[keep], owner[keep]
            tiles = [tile[:, keep] for tile in tiles]
    acc = np.zeros(len(j))
    for row in (row for tile in tiles[::-1] for row in tile):
        acc += row
    return j, acc, terms


def _residues_into(num, j, r, off, q, qtd, d):
    """num = ((r j mod q) qtd + off) mod d: the exact residue of ell t_j,
    scaled by d, for ell mod q = r and ell theta_num mod d = off. The
    arguments broadcast: r, off columns and j a row give a table."""
    # in place: fresh arrays per step made this step ~1.6x slower on
    # 2^16-point blocks
    np.multiply(j, r, out=num)
    num %= q
    num *= qtd
    num += off
    # (q - 1) qtd + off < 2d, so one subtraction reduces mod d
    np.subtract(num, d, out=num, where=num >= d)


def _run_sup(a, b, d, kind):
    """Supremum of the term over each residue interval [a, b] / d.

    a in [0, d) is the exact residue of a run's first point and b = a +
    ell (m - 1) qtd < a + d that of its last point, unreduced, so b < 2d.
    The real term is concave between integers and peaks at log 2 on the
    half-integers; the imaginary term increases up to pi/2 just below
    each integer. b is reduced mod d in place.
    """
    wraps = b >= d
    if kind == "imag":
        sup = term_array(b, d, "imag")
        sup[wraps] = math.pi / 2.0
        return sup
    # (k + 1/2) d in [a, b] for k = 0 or 1; the integer forms of 2a <= d,
    # 2b >= d and 2(b - d) >= d, free of overflow up to d = 2^62
    half = ((a <= d // 2) & (b >= (d + 1) // 2)) | (b >= d + (d + 1) // 2)
    np.subtract(b, d, out=b, where=wraps)
    # the end farther from an integer has the larger fold min(x, d - x)
    fold = d - a
    np.minimum(a, fold, out=fold)
    b_fold = d - b
    np.minimum(b, b_fold, out=b_fold)
    np.maximum(fold, b_fold, out=fold)
    sup = term_array(fold, d, "real")
    sup[half] = math.log(2.0)
    return sup


def _bound_runs(starts, m, q, qtd, d, lengths, residues, offsets, counts, kind):
    """Bound of the field over each run starts .. starts + m - 1.

    A run turns ell t through a full period once ell (m - 1) >= q; lengths
    ascend, so those are a suffix, each bounded by c log 2 (c pi/2). Over
    the prefix of k shorter lengths each term is bounded by c times its
    supremum over the run, in (lengths x runs) tables of LENGTH_GROUP
    lengths. Returns the bounds; sups, the (lengths x runs) table of the
    bounds of each term; and the number of (run, length) bounds computed,
    len(starts) * k.
    """
    k = int(np.searchsorted(lengths, (q - 1) // (m - 1), side="right"))
    sups = np.empty((len(lengths), len(starts)))
    for g in range(0, k, LENGTH_GROUP):
        group = slice(g, min(g + LENGTH_GROUP, k))
        a = np.empty((group.stop - g, len(starts)), dtype=np.int64)
        _residues_into(a, starts, residues[group, None], offsets[group, None], q, qtd, d)
        sups[group] = _run_sup(a, a + lengths[group, None] * ((m - 1) * qtd), d, kind)
    sups[:k] *= counts[:k, None]
    sups[k:] = _PEAK[kind] * counts[k:, None]
    return sups.sum(axis=0), sups, len(starts) * k


def _first_max(results):
    """(index, value) of the maximum over (j, acc, terms) results, smallest
    index on ties; (None, -inf) when there is no point."""
    js, accs, _ = zip(*results)
    j, acc = np.concatenate(js), np.concatenate(accs)
    if not len(acc):
        return None, NEG_INF
    top = acc.max()
    return int(j[acc == top].min()), float(top)


def _sides(ranges, q):
    """The union of the index ranges [a, b), merged, and its complement in [0, q)."""
    inside = []
    for a, b in sorted((int(a), int(b)) for a, b in ranges):
        if not 0 <= a <= b <= q:
            raise InvalidArgumentError(f"index range [{a}, {b}) outside [0, {q}]")
        if inside and a <= inside[-1][1]:
            inside[-1] = (inside[-1][0], max(inside[-1][1], b))
        elif a < b:
            inside.append((a, b))
    edges = [0] + [e for r in inside for e in r] + [q]
    return inside, [(a, b) for a, b in zip(edges[::2], edges[1::2]) if a < b]


def _subruns(starts, m, sub, hi):
    """Starts of the sub-point runs tiling the m-point runs at starts, cut at
    the end of each run's index range (hi: the ends of a side's ranges)."""
    stop = np.repeat(hi[np.searchsorted(hi, starts, side="right")], m // sub)
    fine = (starts[:, None] + np.arange(0, m, sub)).ravel()
    return fine[fine < stop]


def scan_max(spec, mesh, threads=None, want_trace=False, ranges=None):
    """Exact maximizer of the field over all mesh points.

    threads applies to traced scans only, which map their 2^16-point
    blocks on that many threads; a bad count is refused either way, and
    the result is bit-identical at any count. Ties, including the all--inf
    mesh, resolve to the smallest index.

    ranges, an iterable of half-open index ranges [a, b) within [0, q),
    splits the mesh in two sides: the points in their union and the rest.
    ScanResult.split is then ((index, value) inside, (index, value)
    outside), each the side's first maximizer, or (None, -inf) for a side
    without points; index and value stay the whole-mesh maximum. Without
    ranges the mesh is one side. A traced scan takes no ranges.

    Without a trace the scan is an exact branch and bound on each side.
    Runs of 4096 and then of 64 consecutive points of the side's ranges
    are bounded before any point is evaluated, each term by its exact
    supremum over the run (_run_sup), or c log 2 (c pi/2) once the run
    turns ell t through a full period. The points of the best 16 64-runs
    in the best 4 4096-runs (at most 1 024; ranked by bound, ties to the
    smaller start) are evaluated in full, and their best value is the
    side's threshold, a function of the inputs alone. A run is kept when
    its bound is at least the level, threshold - slack; no other run can
    hold the side's maximum. The kept 4096-runs are walked in index order,
    PRUNE_RUNS at a time, and the points of their kept 64-runs take their
    terms TILE lengths at a time, longest first: they are dropped once
    their partial sum plus their run's bounds of the lengths not yet taken
    falls below the level (_walk). Long lengths have the loose bound
    c log 2 and short ones tight run bounds, so this drops points early.
    A survivor's value sums its terms in ascending length order, bit for
    bit the full scan's. ScanResult.terms counts the (point, length)
    terms evaluated, each at most once, and ScanResult.bounds the (run,
    length) bounds; both depend on the inputs alone. A side of one range
    of at most 1 024 points is evaluated in full by the threshold step; on
    sampled permutations at N = 10^6 the terms are 0.05-0.07% of
    q * #lengths.

    want_trace=True evaluates every term and returns the field on the
    whole mesh.
    """
    if want_trace and ranges is not None:
        raise InvalidArgumentError("a traced scan takes no index ranges")
    lengths, counts = _lengths(spec)
    max_len = int(lengths[-1]) if len(lengths) else 1
    _scan_capacity_check(mesh, max_len)
    q, td, tn = mesh.q, mesh.theta_den, mesh.theta_num
    d = q * q * td
    qtd = q * td
    residues = np.array([ell % q for ell in lengths.tolist()], dtype=np.int64)
    offsets = np.array([(ell * tn) % d for ell in lengths.tolist()], dtype=np.int64)
    n_threads = resolve_threads(threads)
    kind = spec.kind
    kernel = (q, qtd, d, residues, offsets, counts, kind)

    def bound(starts, m):
        return _bound_runs(starts, m, q, qtd, d, lengths, residues, offsets, counts, kind)

    if want_trace:
        j = np.arange(q, dtype=np.int64)
        blocks = [j[i:i + BLOCK] for i in range(0, q, BLOCK)]
        with thread_map(n_threads) as tmap:
            trace = np.concatenate([acc for _, acc, _ in tmap(
                _evaluate, blocks, [kernel] * len(blocks))])
        index = int(np.argmax(trace))
        return ScanResult(index=index, value=float(trace[index]), trace=trace,
                          terms=q * len(lengths))
    per, total = _PEAK[kind], int(counts.sum())
    split, terms, bounds = [], 0, 0
    for side in ([[(0, q)]] if ranges is None else _sides(ranges, q)):
        hi = np.array([b for _, b in side], dtype=np.int64)
        starts = np.array([j0 for a, b in side for j0 in range(a, b, RUNS[0])],
                          dtype=np.int64)
        # the unpruned pass one window at a time; a run's bound is its own row
        window = BOUND_SPAN // RUNS[0]
        passes = [bound(starts[i:i + window], RUNS[0])
                  for i in range(0, len(starts), window)]
        coarse = np.concatenate([c for c, _, _ in passes] or [np.zeros(0)])
        b0 = sum(b for _, _, b in passes)
        # best first, ties to the smaller start
        fine = _subruns(starts[np.lexsort((starts, -coarse))[:BEST[0]]],
                        RUNS[0], RUNS[1], hi)
        fine_bound, _, b1 = bound(fine, RUNS[1])
        done = fine[np.lexsort((fine, -fine_bound))[:BEST[1]]]
        best = _evaluate(_subruns(done, RUNS[1], 1, hi), kernel)
        found, bounds = [best], bounds + b0 + b1
        threshold = float(best[1].max()) if len(best[1]) else NEG_INF
        # the keep level: the rounding of the sums and of the bounds stays
        # far below 1e-9 of the largest partial sum a survivor can reach; a
        # -inf threshold gives an infinite slack and a -inf level, so
        # nothing is dropped
        level = threshold - 1e-9 * (1.0 + abs(threshold) + per * total)
        kept = starts[coarse >= level]
        step = BLOCK // TILE  # points per walk: its tiles hold at most BLOCK terms
        for i in range(0, len(kept), PRUNE_RUNS):
            # their 64-runs not yet evaluated, then the points of those kept,
            # each with its run's column of sups
            fine = _subruns(kept[i:i + PRUNE_RUNS], RUNS[0], RUNS[1], hi)
            fine = fine[~np.isin(fine, done)]
            fine_bound, sups, b = bound(fine, RUNS[1])
            keep = fine_bound >= level
            fine, sups = fine[keep], sups[:, keep]
            j = _subruns(fine, RUNS[1], 1, hi)
            owner = np.searchsorted(fine, j, side="right") - 1
            found += [_walk(j[s:s + step], owner[s:s + step], sups, level, kernel)
                      for s in range(0, len(j), step)]
            bounds += b
        split.append(_first_max(found))
        terms += sum(t for _, _, t in found)
    best_j, best_val = min((r for r in split if r[0] is not None),
                           key=lambda r: (-r[1], r[0]))
    return ScanResult(index=best_j, value=best_val, terms=terms, bounds=bounds,
                      split=None if ranges is None else tuple(split))


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
    for j, v in enumerate(trace.tolist()):
        lines.append(f"{j},{mesh.point_float(j)!r},{v!r}")
    return "\n".join(lines) + "\n"
