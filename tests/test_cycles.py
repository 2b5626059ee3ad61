import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from permfield.cycles import (
    CycleCounts,
    block_bounds,
    block_mean,
    coarse_occupancy,
    exact_cycle_type_probability,
    harmonic_sum,
    read_cycles_csv,
    sample_block_cycle,
    sample_cycle_structure,
    sample_poisson_counts,
    write_cycles_csv,
)
from permfield.errors import InvalidArgumentError
from permfield.streams import stream

EULER_GAMMA = 0.5772156649015329


def as_dict(counts):
    return dict(zip(counts.lengths.tolist(), counts.counts.tolist()))


def partitions(n, max_part=None):
    """All partitions of n as length->count dicts (test oracle)."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield {}
        return
    for part in range(min(n, max_part), 0, -1):
        for rest in partitions(n - part, part):
            out = dict(rest)
            out[part] = out.get(part, 0) + 1
            yield out


def test_sample_n1_only_fixed_point():
    rng = stream(0, "n1")
    for _ in range(20):
        cs = sample_cycle_structure(1, rng)
        assert as_dict(cs) == {1: 1}


def test_sample_rejects_zero():
    with pytest.raises(InvalidArgumentError):
        sample_cycle_structure(0, stream(0))


def test_conservation_on_every_draw():
    rng = stream(1, "conserve")
    for n in (2, 5, 17, 1000, 12345):
        for _ in range(50):
            cs = sample_cycle_structure(n, rng)
            assert int(cs.lengths @ cs.counts) == n


def test_structure_validation():
    with pytest.raises(InvalidArgumentError, match="sum to 2, expected n = 5"):
        exact_cycle_type_probability(CycleCounts.from_dict(5, {2: 1}))
    with pytest.raises(InvalidArgumentError):
        CycleCounts.from_dict(4, {2: 0, 4: 1})  # zero multiplicity stored


def test_exact_probability_small_cases():
    assert exact_cycle_type_probability(CycleCounts.from_dict(3, {1: 3})) == pytest.approx(1 / 6, rel=1e-12)
    assert exact_cycle_type_probability(CycleCounts.from_dict(3, {3: 1})) == pytest.approx(1 / 3, rel=1e-12)
    assert exact_cycle_type_probability(CycleCounts.from_dict(1, {1: 1})) == 1.0


@pytest.mark.parametrize("n", [3, 5, 8])
def test_probabilities_sum_to_one(n):
    total = math.fsum(
        exact_cycle_type_probability(CycleCounts.from_dict(n, p)) for p in partitions(n)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_three_cycle_frequency():
    # P({3:1}) = 1/3: 2 three-cycles among the 6 permutations of S_3
    rng = stream(7, "freq3")
    draws = 100000
    hits = sum(
        1 for _ in range(draws) if as_dict(sample_cycle_structure(3, rng)) == {3: 1}
    )
    p = 1 / 3
    sigma = math.sqrt(p * (1 - p) / draws)
    assert abs(hits / draws - p) < 3 * sigma


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_chi2_against_cauchy_formula(n):
    types = list(partitions(n))
    probs = np.array([exact_cycle_type_probability(CycleCounts.from_dict(n, p)) for p in types])
    index = {tuple(sorted(p.items())): i for i, p in enumerate(types)}
    rng = stream(11, "chi2", n)
    draws = 100000
    observed = np.zeros(len(types))
    for _ in range(draws):
        cs = sample_cycle_structure(n, rng)
        observed[index[tuple(as_dict(cs).items())]] += 1
    chi2, pvalue = stats.chisquare(observed, probs * draws)
    assert pvalue > 1e-3, f"chi2={chi2}, p={pvalue}"


def test_cycle_count_moments():
    # E[C_ell] = 1/ell and E[C_k C_ell] = 1/(k ell) for k != ell
    rng = stream(3, "moments")
    draws = 20000
    n = 1000
    counts = np.zeros((draws, 10))
    for i in range(draws):
        cs = as_dict(sample_cycle_structure(n, rng))
        for ell in range(1, 11):
            counts[i, ell - 1] = cs.get(ell, 0)
    for ell in range(1, 11):
        mean = counts[:, ell - 1].mean()
        sigma = counts[:, ell - 1].std(ddof=1) / math.sqrt(draws)
        assert abs(mean - 1 / ell) < 3 * sigma + 1e-12
    for k in (1, 2, 3):
        for ell in range(k + 1, 11):
            prod = counts[:, k - 1] * counts[:, ell - 1]
            sigma = prod.std(ddof=1) / math.sqrt(draws)
            assert abs(prod.mean() - 1 / (k * ell)) < 3 * sigma + 1e-12


def test_poisson_counts_basic():
    rng = stream(5, "poisson1")
    # max_len=1: single Poisson(1) coordinate
    draws = 50000
    vals = [sample_poisson_counts(1, rng).total_cycles for _ in range(draws)]
    mean = np.mean(vals)
    assert abs(mean - 1.0) < 3 * np.std(vals, ddof=1) / math.sqrt(draws)
    # stored invariants
    pc = sample_poisson_counts(1000, rng)
    assert np.all(np.diff(pc.lengths) > 0) and np.all(pc.counts >= 1)
    assert len(pc.lengths) == 0 or 1 <= pc.lengths[0] <= pc.lengths[-1] <= 1000


def test_poisson_mean_and_total():
    # E[Z_10] = 1/10 and E[sum Z_ell] = log M + gamma +- 0.01 at M = 1000
    rng = stream(19, "poissontot")
    draws = 1000000
    m = 1000
    z10 = 0
    total = 0
    for _ in range(draws):
        pc = sample_poisson_counts(m, rng)
        z10 += as_dict(pc).get(10, 0)
        total += pc.total_cycles
    mean10 = z10 / draws
    sigma10 = math.sqrt(0.1 / draws)
    assert abs(mean10 - 0.1) < 3 * sigma10
    assert abs(total / draws - (math.log(m) + EULER_GAMMA)) < 0.01


def test_harmonic_sum_paths_agree():
    rng = stream(2, "harmonic")
    for _ in range(20):
        a = int(rng.integers(1, 10**6))
        b = a + int(rng.integers(1, 10**5))
        direct = math.fsum(1.0 / ell for ell in range(a, b))
        assert harmonic_sum(a, b) == pytest.approx(direct, rel=1e-12)
    assert harmonic_sum(5, 5) == 0.0


def test_block_bounds_and_mean():
    a, b = block_bounds(3, 0.745)  # block {10, ..., 19}
    assert (a, b) == (10, 20)
    assert block_mean(3, 0.745) == pytest.approx(
        math.fsum(1 / ell for ell in range(10, 20)), rel=1e-14
    )


def test_block_cycle_two_and_singleton():
    # block {2,3}: P(2) = (1/2)/(1/2+1/3) = 3/5
    a, b = block_bounds(1, 0.6)
    assert (a, b) == (2, 4)
    rng = stream(21, "block23")
    draws = 40000
    vals = sample_block_cycle(1, 0.6, rng, size=draws)
    p2 = np.mean(vals == 2)
    sigma = math.sqrt(0.6 * 0.4 / draws)
    assert abs(p2 - 0.6) < 3 * sigma
    # singleton block {7}
    a, b = block_bounds(38, 0.05)
    assert (a, b) == (7, 8)
    assert sample_block_cycle(38, 0.05, stream(0, "b7")) == 7


def test_block_cycle_chi2_matches_pmf():
    # block {10..19}, exact conditional pmf (1/ell)/rho_k
    rng = stream(23, "blockchi")
    draws = 1000000
    vals = sample_block_cycle(3, 0.745, rng, size=draws)
    ells = np.arange(10, 20)
    probs = (1.0 / ells) / np.sum(1.0 / ells)
    observed = np.array([(vals == ell).sum() for ell in ells])
    _, pvalue = stats.chisquare(observed, probs * draws)
    assert pvalue > 1e-3


def test_block_cycle_long_range_rejection_path():
    # force the log-uniform rejection branch (range > 4096) and check the
    # first two moments against the exact pmf
    rng = stream(29, "blocklong")
    k, rho = 200, 0.05  # block starts near e^10 ~ 22026, ~1100 integers wide
    a, b = block_bounds(k, rho)
    assert b - a > 1000
    rho_big = 0.5
    k2 = 20  # bounds e^10..e^10.5: ~14k integers, rejection path
    a2, b2 = block_bounds(k2, rho_big)
    assert b2 - a2 > 4096
    draws = 200000
    vals = sample_block_cycle(k2, rho_big, rng, size=draws)
    assert vals.min() >= a2 and vals.max() < b2
    ells = np.arange(a2, b2, dtype=np.float64)
    w = (1.0 / ells) / np.sum(1.0 / ells)
    exact_mean = float(np.sum(ells * w))
    exact_sd = math.sqrt(float(np.sum(ells**2 * w)) - exact_mean**2)
    assert abs(vals.mean() - exact_mean) < 4 * exact_sd / math.sqrt(draws)


def test_block_cycle_empty_block():
    # rho=0.05, k=0: block [1, 2) contains 1; k=1: [2, 2) is empty
    with pytest.raises(InvalidArgumentError):
        sample_block_cycle(1, 0.05, stream(0))


def test_coarse_occupancy_trivial():
    pc = CycleCounts.from_dict(100, {})
    occ = coarse_occupancy(pc, 0.1, 5, 30)
    assert occ.q0 == tuple(range(5, 30)) and occ.q1 == () and occ.q2plus == ()
    # single length lands in exactly one block
    pc = CycleCounts.from_dict(100, {10: 1})
    occ = coarse_occupancy(pc, 0.1, 0, 40)
    assert len(occ.q1) == 1
    (k,) = occ.q1
    a, b = block_bounds(k, 0.1)
    assert a <= 10 < b


def test_coarse_occupancy_matches_bruteforce():
    rng = stream(31, "occbrute")
    for _ in range(30):
        rho = float(rng.uniform(0.05, 0.45))
        pc = sample_poisson_counts(5000, rng)
        m, n = 0, int(math.log(6000) / rho) + 2
        occ = coarse_occupancy(pc, rho, m, n)
        per_block = {}
        for ell, c in zip(pc.lengths.tolist(), pc.counts.tolist()):
            for k in range(m, n):
                a, b = block_bounds(k, rho)
                if a <= ell < b:
                    per_block[k] = per_block.get(k, 0) + c
        for k in range(m, n):
            v = per_block.get(k, 0)
            if v == 0:
                assert k in occ.q0
            elif v == 1:
                assert k in occ.q1
            else:
                assert k in occ.q2plus


def test_occupancy_partition_validated():
    with pytest.raises(InvalidArgumentError):
        from permfield.cycles import Occupancy

        Occupancy(rho=0.1, m=0, n=3, q0=(0,), q1=(1,), q2plus=())


def test_csv_roundtrip_exact():
    cs = CycleCounts.from_dict(100, {56: 1, 22: 1, 9: 2, 4: 1})
    text = write_cycles_csv(cs)
    assert text.splitlines()[0] == "n,100"
    back = read_cycles_csv(text)
    assert back.size == cs.size and as_dict(back) == as_dict(cs)
    with pytest.raises(InvalidArgumentError):
        read_cycles_csv("4,1\n")


def _assert_invariants(counts):
    lengths, mult = counts.as_arrays()
    assert lengths is counts.lengths and mult is counts.counts  # no copies
    assert lengths.dtype == mult.dtype == np.int64
    assert lengths.shape == mult.shape and lengths.ndim == 1
    assert np.all(np.diff(lengths) > 0) and np.all(mult >= 1)
    assert np.all((lengths >= 1) & (lengths <= counts.size))
    assert type(counts.total_cycles) is int and counts.total_cycles == mult.sum()
    for arr in (lengths, mult):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 1


def test_sampler_outputs_hold_invariants():
    rng = stream(37, "invariants")
    for n in (1, 2, 3, 10, 1000, 10**6):
        cs = sample_cycle_structure(n, rng)
        _assert_invariants(cs)
        assert cs.size == n and int(cs.lengths @ cs.counts) == n
        pc = sample_poisson_counts(n, rng)
        _assert_invariants(pc)
        assert pc.size == n
    # max_len = 1 draws no cycle with probability e^-1: empty arrays
    empties = [pc for pc in (sample_poisson_counts(1, rng) for _ in range(50))
               if pc.total_cycles == 0]
    assert empties
    _assert_invariants(empties[0])
    assert empties[0].lengths.shape == (0,)


@pytest.mark.parametrize("size, lengths, counts, message", [
    (10, [3, 2], [1, 1], "strictly increasing, got 3 then 2"),
    (10, [2, 2], [1, 1], "strictly increasing, got 2 then 2"),
    (10, [2, 5], [1, 0], "multiplicity must be >= 1, got 0"),
    (10, [2], [-1], "multiplicity must be >= 1, got -1"),
    (10, [0, 5], [1, 1], "cycle length 0 outside"),
    (10, [5, 11], [1, 1], "cycle length 11 outside"),
    (0, [], [], "size must be >= 1"),
    (10, [2, 5], [1], "1-d arrays of one length"),
    (10, [[2, 5]], [[1, 1]], "1-d arrays of one length"),
    (10, [2], [10**20], "must fit in int64"),
])
def test_cycle_counts_validation(size, lengths, counts, message):
    with pytest.raises(InvalidArgumentError, match=message):
        CycleCounts(size, lengths, counts)


def test_cycle_counts_copies_its_input():
    lengths = np.array([1, 3], dtype=np.int64)
    counts = CycleCounts(4, lengths, [1, 1])
    assert lengths.flags.writeable  # the caller's array stays as it was
    lengths[0] = 2
    assert counts.lengths.tolist() == [1, 3]
    assert CycleCounts.from_dict(4, {3: 1, 1: 1}).lengths.tolist() == [1, 3]


def test_permutation_sum_is_checked():
    # a Poisson surrogate need not sum to its size; a permutation must
    not_a_permutation = CycleCounts.from_dict(7, {2: 1, 3: 1})
    assert not_a_permutation.total_cycles == 2
    with pytest.raises(InvalidArgumentError, match="sum to 5, expected n = 7"):
        exact_cycle_type_probability(not_a_permutation)
    with pytest.raises(InvalidArgumentError, match="sum to 5, expected n = 7"):
        read_cycles_csv("n,7\n2,1\n3,1\n")
    with pytest.raises(InvalidArgumentError, match="sum to 0, expected n = 3"):
        read_cycles_csv("n,3\n")
    with pytest.raises(InvalidArgumentError, match="strictly increasing"):
        read_cycles_csv("n,3\n1,1\n1,2\n")  # a repeated length row
    with pytest.raises(InvalidArgumentError, match="outside"):
        read_cycles_csv("n,3\n4,1\n")
    with pytest.raises(InvalidArgumentError, match="int64"):
        read_cycles_csv("n,3\n1,100000000000000000003\n2,-50000000000000000000\n")


@settings(max_examples=200, deadline=None)
@given(cycle_type=st.dictionaries(st.integers(1, 10**6), st.integers(1, 50),
                                  min_size=1, max_size=30),
       seed=st.integers(0, 2**32 - 1))
def test_csv_roundtrip_hypothesis(cycle_type, seed):
    n = sum(ell * c for ell, c in cycle_type.items())
    counts = CycleCounts.from_dict(n, cycle_type)
    assert counts.lengths.tolist() == sorted(cycle_type)
    assert counts.counts.tolist() == [cycle_type[ell] for ell in sorted(cycle_type)]
    text = write_cycles_csv(counts)
    back = read_cycles_csv(text)
    _assert_invariants(back)
    assert back.size == n
    assert np.array_equal(back.lengths, counts.lengths)
    assert np.array_equal(back.counts, counts.counts)
    assert write_cycles_csv(back) == text
    # the rows may come in any order
    header, *rows = text.splitlines()
    np.random.default_rng(seed).shuffle(rows)
    shuffled = read_cycles_csv("\n".join([header] + rows))
    assert np.array_equal(shuffled.lengths, counts.lengths)
    assert np.array_equal(shuffled.counts, counts.counts)
