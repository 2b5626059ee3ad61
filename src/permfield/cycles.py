"""Cycle-structure samplers and the 1/length law they draw from.

A uniform random permutation of [n] is represented only through its cycle
type: the occupied lengths and their multiplicities, held in a CycleCounts.
The Poisson surrogate replaces the multiplicities with independent
Poisson(1/length) counts and is held in the same type. Lengths are
grouped into geometric blocks [ceil(e^{rho*k}), ceil(e^{rho*(k+1)})),
whose expected cycle counts block_mean gives. The cached 1/length table
serves the Poisson sampler, two-point's guide walk and
kronecker.log_average.
"""

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import CapacityError, InvalidArgumentError

__all__ = [
    "CycleCounts",
    "sample_cycle_structure",
    "exact_cycle_type_probability",
    "sample_poisson_counts",
    "block_bounds",
    "block_mean",
    "harmonic_sum",
    "write_cycles_csv",
    "read_cycles_csv",
]


@dataclass(eq=False)
class CycleCounts:
    """Cycle counts over the lengths [1, size], as two read-only int64 arrays.

    lengths holds the occupied lengths in strictly increasing order and
    counts their multiplicities, each >= 1. The cycle type of a permutation
    of [size] has sum(lengths * counts) == size; the Poisson surrogate has
    no such constraint, so it is checked only where a permutation is
    required (read_cycles_csv, exact_cycle_type_probability).
    """

    size: int
    lengths: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        if self.size < 1:
            raise InvalidArgumentError(f"size must be >= 1, got {self.size}")
        try:
            lengths = self.lengths = np.array(self.lengths, dtype=np.int64)
            counts = self.counts = np.array(self.counts, dtype=np.int64)
        except OverflowError as exc:  # a number in a cycle CSV, say
            raise InvalidArgumentError(f"cycle lengths and counts must fit in int64: {exc}")
        if lengths.ndim != 1 or counts.shape != lengths.shape:
            raise InvalidArgumentError(
                f"lengths and counts must be 1-d arrays of one length, got "
                f"shapes {lengths.shape} and {counts.shape}")
        # checked as Python ints: on the few dozen lengths a sampler draws
        # that is about half the time of the numpy reductions
        ells = lengths.tolist()
        for a, b in zip(ells, ells[1:]):
            if a >= b:
                raise InvalidArgumentError(
                    f"cycle lengths must be strictly increasing, got {a} then {b}")
        for ell in ells[:1] + ells[-1:]:
            if not 1 <= ell <= self.size:
                raise InvalidArgumentError(f"cycle length {ell} outside [1, {self.size}]")
        low = min(counts.tolist(), default=1)
        if low < 1:
            raise InvalidArgumentError(f"stored multiplicity must be >= 1, got {low}")
        lengths.setflags(write=False)
        counts.setflags(write=False)

    @classmethod
    def from_dict(cls, size, mapping):
        """Counts from a map length -> multiplicity, in any key order."""
        lengths = sorted(mapping)
        return cls(size, lengths, [mapping[ell] for ell in lengths])

    def as_arrays(self):
        """The stored (lengths, counts) arrays themselves, not copies."""
        return self.lengths, self.counts

    @property
    def total_cycles(self):
        return int(self.counts.sum())


def _require_permutation(structure):
    # Python ints: the sum of an outside file must not wrap around
    total = sum(ell * c for ell, c in zip(structure.lengths.tolist(),
                                          structure.counts.tolist()))
    if total != structure.size:
        raise InvalidArgumentError(
            f"cycle lengths sum to {total}, expected n = {structure.size}")


@lru_cache(maxsize=4096)
def _harmonic_sum_exact(a, b):
    return math.fsum(1.0 / ell for ell in range(a, b))


def harmonic_sum(a, b):
    """Sum of 1/ell over integers a <= ell < b.

    Direct compensated summation for short ranges; for long ranges the
    identity digamma(b) - digamma(a) = sum_{a <= ell < b} 1/ell is used.
    """
    a, b = int(a), int(b)
    if a < 1 or b < a:
        raise InvalidArgumentError(f"need 1 <= a <= b, got a={a}, b={b}")
    if b == a:
        return 0.0
    if b - a <= (1 << 16):
        return _harmonic_sum_exact(a, b)
    return float(special.digamma(float(b)) - special.digamma(float(a)))


def block_bounds(k, rho):
    """Integer endpoints [a, b) of block k: a = ceil(e^{rho k}), b = ceil(e^{rho (k+1)})."""
    if not 0.0 < rho:
        raise InvalidArgumentError(f"rho must be positive, got {rho}")
    a = math.ceil(math.exp(rho * k))
    b = math.ceil(math.exp(rho * (k + 1)))
    return a, b


def block_mean(k, rho):
    """Expected cycle count of block k: sum of 1/ell over the block, 0 if empty."""
    return harmonic_sum(*block_bounds(k, rho))


def sample_cycle_structure(n, rng):
    """Cycle type of a uniform permutation of [n].

    Stick-breaking recursion: the cycle containing the smallest remaining
    element has length uniform on {1, ..., remaining}, which matches the
    Chinese restaurant construction in distribution and costs O(#cycles).
    n must fit in int64, the range of the uniform draws.
    """
    if n < 1:
        raise InvalidArgumentError(f"permutation size must be >= 1, got {n}")
    if n > (1 << 63) - 1:
        raise CapacityError(f"permutation size n = {n} exceeds 2^63 - 1, the int64 "
                            "range of the cycle sampler")
    remaining = int(n)
    drawn = []
    while remaining > 0:
        ell = int(rng.integers(1, remaining + 1))
        drawn.append(ell)
        remaining -= ell
    return CycleCounts.from_dict(int(n), Counter(drawn))


def exact_cycle_type_probability(structure):
    """P(cycle type) for a uniform permutation: prod_ell ell^{-c_ell} / c_ell!."""
    _require_permutation(structure)
    logp = 0.0
    for ell, c in zip(structure.lengths.tolist(), structure.counts.tolist()):
        logp -= c * math.log(ell) + math.lgamma(c + 1)
    return math.exp(logp)


def guide_table(cum, total):
    """Guide table ("indexed search") over a cumulative weight array.

    Chen & Asau (1974); Devroye, Non-Uniform Random Variate Generation
    (1986), III.2.4. The table is indexed by the uniform r in [0, 1) that
    guide_index draws at: with G the power of two >= len(cum), bucket g
    holds the r in [g / G, (g + 1) / G), and guide[g] is the searchsorted
    index of fl(g / G * total) in cum, clipped to len(cum) - 1. g / G is
    exact and fl(r * total) is monotone in r, so the answer for every r of
    bucket g lies in [guide[g], guide[g + 1]]; walk is the largest such
    step. cum is stored in one buffer with a trailing +inf ("sentinel"),
    of which "cum" is a view, so a walk stops at the end unchecked.
    """
    buckets = 1 << (len(cum) - 1).bit_length()
    edges = np.searchsorted(cum, np.arange(buckets + 1) / buckets * total, side="left")
    np.minimum(edges, len(cum) - 1, out=edges)
    sentinel = np.append(cum, np.inf)
    return {"cum": sentinel[:-1], "sentinel": sentinel, "total": total,
            "guide": edges[:-1], "walk": int(np.diff(edges).max())}


def guide_index(table, r):
    """np.searchsorted(cum, fl(r * total), side="left") clipped to len(cum) - 1,
    exactly, for uniforms r in [0, 1).

    Starts each r at its bucket's guide entry and steps forward while
    cum[idx] < r * total, in walk whole-array steps.
    """
    cum, guide = table["sentinel"], table["guide"]
    u = r * table["total"]
    # int(r G), exact; cast on output it makes no float temporary
    idx = guide[np.multiply(r, len(guide), out=np.empty(len(r), np.int64), casting="unsafe")]
    for _ in range(table["walk"]):
        idx += cum[idx] < u
    return np.minimum(idx, len(cum) - 2, out=idx)


@lru_cache(maxsize=256)
def one_over_ell_table(a, b):
    """(lengths, table): arange(a, b) and the guide_table of P(ell) ~ 1/ell on it.

    The table's cum is cumsum(1 / lengths) and its total cum[-1]. Cached
    per range and shared by every caller, the arrays are read-only.
    """
    if b <= a:
        raise InvalidArgumentError(f"empty integer range [{a}, {b})")
    lengths = np.arange(a, b, dtype=np.int64)
    cum = np.cumsum(1.0 / lengths)
    table = guide_table(cum, float(cum[-1]))
    for arr in (lengths, table["cum"], table["sentinel"], table["guide"]):
        arr.setflags(write=False)
    return lengths, table


def _sample_one_over_ell(a, b, size, rng):
    """i.i.d. draws from P(ell) proportional to 1/ell on integers [a, b)."""
    a, b = int(a), int(b)
    if b - a <= 4096:
        # a handful of draws per call: searchsorted beats the guide walk here
        cum = one_over_ell_table(a, b)[1]["cum"]
        u = rng.random(size) * cum[-1]
        return a + np.searchsorted(cum, u, side="left").astype(np.int64)
    # Long range: floor of a log-uniform proposal, thinned to the exact pmf.
    # Acceptance ratio (a*log(1+1/a)) / (ell*log(1+1/ell)) is in (0, 1].
    log_ratio = math.log(b / a)
    top = a * math.log1p(1.0 / a)
    out = np.empty(size, dtype=np.int64)
    need = np.arange(size)
    while need.size:
        y = a * np.exp(rng.random(need.size) * log_ratio)
        ell = np.minimum(y.astype(np.int64), b - 1)
        accept = rng.random(need.size) * (ell * np.log1p(1.0 / ell)) <= top
        out[need[accept]] = ell[accept]
        need = need[~accept]
    return out


def sample_poisson_counts(max_len, rng):
    """Independent Z_ell ~ Poisson(1/ell) for ell <= max_len, as CycleCounts.

    Sampled as a marked point process: the total is Poisson(H) with
    H = sum 1/ell and the lengths are i.i.d. with P(ell) proportional to
    1/ell, which reproduces the joint law of the independent coordinates.
    """
    if max_len < 1:
        raise InvalidArgumentError(f"max_len must be >= 1, got {max_len}")
    total = int(rng.poisson(harmonic_sum(1, max_len + 1)))
    draws = _sample_one_over_ell(1, max_len + 1, total, rng)
    return CycleCounts.from_dict(int(max_len), Counter(draws.tolist()))


def write_cycles_csv(structure):
    """CSV serialization: header row "n,<n>", then one "length,count" row per length."""
    lines = [f"n,{structure.size}"]
    for ell, c in zip(structure.lengths.tolist(), structure.counts.tolist()):
        lines.append(f"{ell},{c}")
    return "\n".join(lines) + "\n"


def read_cycles_csv(text):
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n,"):
        raise InvalidArgumentError('cycle CSV must start with header "n,<n>"')
    n = int(lines[0].split(",")[1])
    # rows in any order; a repeated length is refused by CycleCounts
    rows = sorted((int(ell), int(c)) for ell, c in (ln.split(",") for ln in lines[1:]))
    structure = CycleCounts(n, [ell for ell, _ in rows], [c for _, c in rows])
    _require_permutation(structure)
    return structure
