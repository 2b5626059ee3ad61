"""Cycle-structure samplers and coarse-scale occupancy bookkeeping.

A uniform random permutation of [n] is represented only through its cycle
type: a sparse map length -> multiplicity. The Poisson surrogate replaces
the multiplicities with independent Poisson(1/length) counts. Lengths are
grouped into geometric blocks [ceil(e^{rho*k}), ceil(e^{rho*(k+1)})) and
occupancy of the blocks (0 / 1 / >=2 cycles) drives the conditioning used
by the experiment harness.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import InvalidArgumentError

__all__ = [
    "CycleStructure",
    "PoissonCounts",
    "Occupancy",
    "sample_cycle_structure",
    "exact_cycle_type_probability",
    "sample_poisson_counts",
    "sample_block_cycle",
    "coarse_occupancy",
    "block_bounds",
    "block_mean",
    "harmonic_sum",
    "write_cycles_csv",
    "read_cycles_csv",
]


class CycleCounts:
    """Sparse map length -> multiplicity >= 1 over the lengths [1, size].

    Base of CycleStructure and PoissonCounts; subclasses are dataclasses
    holding `counts` and defining `size`.
    """

    def __post_init__(self):
        size = self.size
        if size < 1:
            raise InvalidArgumentError(f"size must be >= 1, got {size}")
        for ell, c in self.counts.items():
            if ell < 1 or ell > size:
                raise InvalidArgumentError(f"cycle length {ell} outside [1, {size}]")
            if c < 1:
                raise InvalidArgumentError(f"stored multiplicity must be >= 1, got {c}")

    def as_arrays(self):
        lengths = np.array(sorted(self.counts), dtype=np.int64)
        counts = np.array([self.counts[int(l)] for l in lengths], dtype=np.int64)
        return lengths, counts

    @property
    def total_cycles(self):
        return sum(self.counts.values())


@dataclass
class CycleStructure(CycleCounts):
    """Cycle type of a permutation of [n]: sparse map length -> count >= 1."""

    n: int
    counts: dict = field(default_factory=dict)

    @property
    def size(self):
        return self.n

    def __post_init__(self):
        super().__post_init__()
        total = sum(ell * c for ell, c in self.counts.items())
        if total != self.n:
            raise InvalidArgumentError(
                f"cycle lengths sum to {total}, expected n = {self.n}"
            )


@dataclass
class PoissonCounts(CycleCounts):
    """Independent Poisson(1/length) surrogate counts, stored sparsely."""

    max_len: int
    counts: dict = field(default_factory=dict)

    @property
    def size(self):
        return self.max_len


@dataclass
class Occupancy:
    """Partition of block indices [m, n) by occupancy 0 / 1 / >= 2."""

    rho: float
    m: int
    n: int
    q0: tuple
    q1: tuple
    q2plus: tuple

    def __post_init__(self):
        merged = sorted(self.q0 + self.q1 + self.q2plus)
        if merged != list(range(self.m, self.n)):
            raise InvalidArgumentError("q0, q1, q2plus must partition [m, n)")


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
    """Expected cycle count of block k: sum of 1/ell over the block."""
    a, b = block_bounds(k, rho)
    if b <= a:
        return 0.0
    return harmonic_sum(a, b)


def sample_cycle_structure(n, rng):
    """Cycle type of a uniform permutation of [n].

    Stick-breaking recursion: the cycle containing the smallest remaining
    element has length uniform on {1, ..., remaining}, which matches the
    Chinese restaurant construction in distribution and costs O(#cycles).
    """
    if n < 1:
        raise InvalidArgumentError(f"permutation size must be >= 1, got {n}")
    remaining = int(n)
    counts = {}
    while remaining > 0:
        ell = int(rng.integers(1, remaining + 1))
        counts[ell] = counts.get(ell, 0) + 1
        remaining -= ell
    return CycleStructure(n=int(n), counts=counts)


def exact_cycle_type_probability(structure):
    """P(cycle type) for a uniform permutation: prod_ell ell^{-c_ell} / c_ell!."""
    logp = 0.0
    for ell, c in structure.counts.items():
        logp -= c * math.log(ell) + math.lgamma(c + 1)
    return math.exp(logp)


@lru_cache(maxsize=64)
def _harmonic_cumsum(a, b):
    return np.cumsum(1.0 / np.arange(a, b, dtype=np.int64))


def _sample_one_over_ell(a, b, size, rng):
    """i.i.d. draws from P(ell) proportional to 1/ell on integers [a, b)."""
    a, b = int(a), int(b)
    if b <= a:
        raise InvalidArgumentError(f"empty integer range [{a}, {b})")
    if b - a == 1:
        return np.full(size, a, dtype=np.int64)
    if b - a <= 4096:
        w = _harmonic_cumsum(a, b)
        u = rng.random(size) * w[-1]
        return a + np.searchsorted(w, u, side="left").astype(np.int64)
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
    """Independent Z_ell ~ Poisson(1/ell) for ell <= max_len, stored sparsely.

    Sampled as a marked point process: the total is Poisson(H) with
    H = sum 1/ell and the lengths are i.i.d. with P(ell) proportional to
    1/ell, which reproduces the joint law of the independent coordinates.
    """
    if max_len < 1:
        raise InvalidArgumentError(f"max_len must be >= 1, got {max_len}")
    total = int(rng.poisson(harmonic_sum(1, max_len + 1)))
    counts = {}
    if total:
        for ell in _sample_one_over_ell(1, max_len + 1, total, rng):
            ell = int(ell)
            counts[ell] = counts.get(ell, 0) + 1
    return PoissonCounts(max_len=int(max_len), counts=counts)


def sample_block_cycle(k, rho, rng, size=None):
    """Length of the single cycle of block k: P(ell) = (1/ell) / rho_k on the block."""
    a, b = block_bounds(k, rho)
    if b <= a:
        raise InvalidArgumentError(f"block k={k} at rho={rho} contains no integer")
    draws = _sample_one_over_ell(a, b, 1 if size is None else size, rng)
    return int(draws[0]) if size is None else draws


def _block_of_length(ell, rho):
    k = int(math.floor(math.log(ell) / rho))
    # ceil rounding of the endpoints can shift the block by one either way
    while block_bounds(k, rho)[0] > ell:
        k -= 1
    while block_bounds(k + 1, rho)[0] <= ell:
        k += 1
    return k


def coarse_occupancy(counts, rho, m, n):
    """Classify blocks k in [m, n) by N(I_k) = 0 / 1 / >= 2."""
    if not 0.0 < rho < 0.5:
        raise InvalidArgumentError(f"rho must lie in (0, 1/2), got {rho}")
    if m >= n:
        raise InvalidArgumentError(f"need m < n, got m={m}, n={n}")
    per_block = {}
    for ell, c in counts.counts.items():
        k = _block_of_length(ell, rho)
        if m <= k < n:
            per_block[k] = per_block.get(k, 0) + c
    q0, q1, q2 = [], [], []
    for k in range(m, n):
        occ = per_block.get(k, 0)
        (q0 if occ == 0 else q1 if occ == 1 else q2).append(k)
    return Occupancy(rho=rho, m=m, n=n, q0=tuple(q0), q1=tuple(q1), q2plus=tuple(q2))


def write_cycles_csv(structure):
    """CSV serialization: header row "n,<n>", then one "length,count" row per length."""
    lines = [f"n,{structure.n}"]
    for ell in sorted(structure.counts):
        lines.append(f"{ell},{structure.counts[ell]}")
    return "\n".join(lines) + "\n"


def read_cycles_csv(text):
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n,"):
        raise InvalidArgumentError('cycle CSV must start with header "n,<n>"')
    n = int(lines[0].split(",")[1])
    counts = {}
    for ln in lines[1:]:
        ell_s, c_s = ln.split(",")
        counts[int(ell_s)] = int(c_s)
    return CycleStructure(n=n, counts=counts)
