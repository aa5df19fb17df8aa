import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import pairsieve
from pairsieve import legendre, xi
from pairsieve import (
    COMPOSITE_METHODS,
    PRIME_METHODS,
    build_prime_table,
    composite_count,
    count_multiples,
    make_basis,
    pi_oracle,
    prime_count,
    varpi_p,
    varpi_pq,
)
from pairsieve.legendre import DEFAULT_BLOCK


class TestMakeBasis:
    def test_examples(self, table_20k):
        assert make_basis(100, table_20k) == (2, 3, 5, 7)
        assert make_basis(4, table_20k) == (2,)
        assert len(make_basis(10000, table_20k)) == 25

    def test_sqrt_bracketing(self, table_20k):
        for n in range(4, 3000, 2):
            b, r = make_basis(n, table_20k), math.isqrt(n)
            assert all(p <= r for p in b)
            assert len(b) == pi_oracle(table_20k, r)

    def test_rejects_odd_and_small(self, table_20k):
        with pytest.raises(ValueError):
            make_basis(9, table_20k)
        with pytest.raises(ValueError):
            make_basis(2, table_20k)

    def test_rejects_short_table(self):
        t = build_prime_table(5)
        with pytest.raises(ValueError):
            make_basis(100, t)


class TestCountMultiples:
    def test_examples(self):
        assert count_multiples(1, 10, 3) == 3
        assert count_multiples(1, 10, 6) == 1
        assert count_multiples(10, 90, 10) == 9

    def test_zero_divisor(self):
        with pytest.raises(ValueError):
            count_multiples(1, 10, 0)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            count_multiples(10, 5, 3)

    @given(st.integers(1, 500), st.integers(0, 500), st.integers(1, 60))
    def test_matches_brute_enumeration(self, a, extra, d):
        b = a + extra
        assert count_multiples(a, b, d) == sum(1 for x in range(a, b + 1) if x % d == 0)


class TestVarpi:
    def test_varpi_p_examples(self):
        assert varpi_p(10, 3) == 2
        assert varpi_p(10, 2) == 4
        assert varpi_p(4, 2) == 1

    def test_varpi_p_counts_proper_multiples(self):
        # multiples of p in [1, n] excluding p itself
        for n in (10, 50, 144):
            for p in (2, 3, 5, 7):
                if p * p <= n:
                    brute = sum(1 for x in range(1, n + 1) if x % p == 0) - 1
                    assert varpi_p(n, p) == brute

    def test_varpi_p_rejects_large_or_composite(self):
        with pytest.raises(ValueError):
            varpi_p(10, 5)
        with pytest.raises(ValueError):
            varpi_p(100, 9)

    def test_varpi_pq_examples(self):
        assert varpi_pq(10, 2, 3) == 5
        assert varpi_pq(10, 3, 2) == 5
        assert varpi_pq(100, 2, 5) == 58

    def test_varpi_pq_matches_brute(self):
        for n, p, q in [(100, 2, 5), (100, 3, 7), (144, 5, 11), (64, 2, 7)]:
            brute = sum(1 for x in range(1, n + 1) if x % p == 0 or x % q == 0) - 2
            assert varpi_pq(n, p, q) == brute
            assert varpi_pq(n, q, p) == varpi_pq(n, p, q)

    # equal primes, a composite or a prime above sqrt(n) in either slot,
    # and an odd n
    @pytest.mark.parametrize("n,p,q", [(100, 3, 3), (100, 9, 3), (100, 3, 9), (100, 11, 3),
                                       (100, 3, 11), (99, 2, 3)])
    def test_varpi_pq_rejects(self, n, p, q):
        with pytest.raises(ValueError):
            varpi_pq(n, p, q)


class TestCompositeCount:
    def test_examples(self):
        assert composite_count(10) == 5
        assert composite_count(4) == 1
        assert composite_count(100) == 74

    def test_methods_agree_with_oracle(self, table_20k):
        for n in range(4, 2001, 2):
            expected = n - pi_oracle(table_20k, n) - 1
            for method in COMPOSITE_METHODS:
                assert composite_count(n, method) == expected, (n, method)

    def test_bad_method(self):
        with pytest.raises(ValueError):
            composite_count(10, "guess")

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            composite_count(9)


class TestPrimeCount:
    def test_examples(self, table_20k):
        assert prime_count(10) == 4
        assert prime_count(4) == 2
        assert prime_count(10000) == pi_oracle(table_20k, 10000) == 1229

    def test_methods_agree_with_oracle(self, table_20k):
        for n in range(4, 2001, 2):
            expected = pi_oracle(table_20k, n)
            for method in PRIME_METHODS:
                assert prime_count(n, method) == expected, (n, method)

    def test_partition_identity(self):
        for n in range(4, 2001, 2):
            assert composite_count(n) + prime_count(n) + 1 == n


# n < 169 (wheel primes above sqrt(n), which the count takes off the
# wheel marks), 30030k +- 2 (the wheel period),
# 34 and 68 periods +- 2, 2e7, and 69 and 138 periods +- 2: the odd
# indices of one and two kernel blocks of the odd layout, the latter past
# the switch to the wheel-30 lanes
PERIODS_34 = 34 * 30030
BLOCK = DEFAULT_BLOCK // 15015 * 30030
EDGE_N = [4, 6, 8, 48, 120, 166, 168, 170,
          30028, 30032, 60058, 60062, 30030 * 7 - 2, 30030 * 7 + 2,
          PERIODS_34 - 2, PERIODS_34 + 2, 2 * PERIODS_34 - 2, 2 * PERIODS_34 + 2, 20_000_000,
          BLOCK - 2, BLOCK + 2, 2 * BLOCK - 2, 2 * BLOCK + 2]


@pytest.fixture(scope="module")
def table_2e7():
    return build_prime_table(20_000_000)


def _every_method_matches_oracle(table, n):
    expected = pi_oracle(table, n)
    for method in PRIME_METHODS:
        assert prime_count(n, method) == expected, method
    for method in COMPOSITE_METHODS:
        assert composite_count(n, method) == n - expected - 1, method


class TestEdges:
    @pytest.mark.parametrize("n", EDGE_N)
    def test_every_method_matches_oracle(self, table_2e7, n):
        _every_method_matches_oracle(table_2e7, n)

    @pytest.mark.parametrize("n", [100, 30032, PERIODS_34 + 2])
    def test_table_argument(self, table_2e7, n):
        for method in PRIME_METHODS:
            assert prime_count(n, method, table_2e7) == prime_count(n, method)
        for method in COMPOSITE_METHODS:
            assert composite_count(n, method, table_2e7) == composite_count(n, method)

    # a count starts from the odd wheel marks: one period of them as they
    # are below n = 30030, tiled from there; from n = 13^2 on, no wheel
    # prime is taken off them. The n = 2 (mod 4) take both steps, 166 to
    # 170 and 30026 to 30030.
    def test_every_method_matches_oracle_from_the_wheel_start(self):
        table = build_prime_table(30040)
        for n in range(162, 30041, 4):
            _every_method_matches_oracle(table, n)

    # below one period (a single block) and above it (the tiled odd wheel,
    # in one or more blocks)
    @given(st.one_of(st.integers(2, 15_014), st.integers(15_015, 2_500_000)).map(lambda k: 2 * k))
    @example(n=4)
    @example(n=30_030)
    @example(n=BLOCK + 30_030)
    def test_every_method_matches_oracle_at_random_n(self, table_2e7, n):
        _every_method_matches_oracle(table_2e7, n)

    # every N mod 30 on both sides of the switch to the wheel-30 lanes, at
    # N // 2 = _LANE_SWITCH blocks of odd positions
    def test_every_residue_mod_30_at_the_lane_switch(self):
        switch = 2 * math.ceil(legendre._LANE_SWITCH * DEFAULT_BLOCK)
        table = build_prime_table(switch + 30)
        for n in range(switch - 30, switch + 30, 2):
            assert legendre._wheel(n // 2, DEFAULT_BLOCK) == (30 if n >= switch else 2), n
            _every_method_matches_oracle(table, n)

    # the lanes from the smallest n on: the counts of 2, 3 and 5 from the
    # lanes' sizes, and the wheel primes above sqrt(n) taken off
    def test_every_method_matches_oracle_in_the_lanes_at_small_n(self, monkeypatch, table_20k):
        monkeypatch.setattr(legendre, "_LANE_SWITCH", 0)
        for n in range(4, 3001, 2):
            assert legendre._wheel(n // 2, DEFAULT_BLOCK) == 30
            _every_method_matches_oracle(table_20k, n)

    def test_marking_methods_at_1e8(self):
        # the published pi(1e8)
        for method in ("theta-sum", "survivor"):
            assert prime_count(10**8, method) == 5_761_455, method
        assert composite_count(10**8, "direct-mark") == 10**8 - 5_761_455 - 1

    def test_survivor_is_its_own_count(self, monkeypatch, table_20k):
        # with the count marked from p one too high, theta-sum is one too
        # low; survivor reads the composites marked from p^2, as
        # direct-mark does, so it still equals the oracle
        marked = legendre._marked_count
        monkeypatch.setattr(legendre, "_marked_count", lambda n, primes, from_squares=False:
                            marked(n, primes, from_squares) + (not from_squares))
        for n in (4, 100, 168, 170, 10_000, 20_000):
            expected = pi_oracle(table_20k, n)
            assert prime_count(n, "survivor", table_20k) == expected, n
            assert prime_count(n, "theta-sum", table_20k) == expected - 1, n
            assert composite_count(n, "direct-mark", table_20k) == n - 1 - expected, n

    def test_short_table_rejected(self, table_2e7):
        short = build_prime_table(100)
        with pytest.raises(ValueError):
            prime_count(10_404, "legendre", short)  # sqrt = 102
        with pytest.raises(ValueError):
            composite_count(10_404, "direct-mark", short)
        # floor(sqrt(10200)) = 100: the same table is long enough
        assert prime_count(10_200, "survivor", short) == pi_oracle(table_2e7, 10_200)


class TestPhi:
    def test_deep_basis(self):
        # pi(sqrt(1e8)) = 1229 basis primes: a phi(x, a - 1) recursion
        # per prime would pass Python's recursion limit
        assert prime_count(10**8, "legendre") == 5_761_455

    @pytest.mark.slow
    def test_published_1e9(self):
        assert prime_count(10**9, "legendre") == 50_847_534

    @given(st.integers(0, 200_000), st.integers(0, 40))
    def test_phi_is_the_signed_floor_sum(self, x, a):
        # the literal inclusion-exclusion: sum of mu(d) * floor(x / d) over
        # the squarefree products d of the first a primes
        primes = tuple(int(p) for p in build_prime_table(200).primes[:a])
        literal = x - sum(s * (x // d) for d, s in xi._signed_divisors(primes, max(x, 1)))
        assert legendre._phi(x, a, primes) == literal

    def test_python_ints_beyond_int64(self):
        # phi(x, a) for x past 2^63 with a small basis, against the
        # closed form for a = 6: 5760 survivors per period of 30030
        x = 30030 * 2**70 + 1
        assert legendre._phi(x, 6, (2, 3, 5, 7, 11, 13)) == 5760 * 2**70 + 1


# the package and each of its modules; importing __main__ would run the CLI
@pytest.mark.parametrize("module_name", ["pairsieve", *(
    f"pairsieve.{info.name}" for info in pkgutil.iter_modules(pairsieve.__path__)
    if info.name != "__main__")], ids=lambda module_name: module_name.rpartition(".")[2])
def test_no_module_global_mutable_state(module_name):
    for name, value in vars(importlib.import_module(module_name)).items():
        if name.startswith("__"):
            continue
        assert not isinstance(value, (dict, list, set, bytearray)), name
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, name


def _literal_marks(lo, hi, passes, block_size, blank):
    """The marks after each pass, position by position."""
    marked = np.array([blank is not None and bool(blank[(x - lo) % block_size])
                       for x in range(lo, hi + 1)], dtype=bool)
    after = []
    for marks in passes:
        for p, first in marks:
            for x in range(max(lo, first), hi + 1):
                if (x - first) % p == 0:
                    marked[x - lo] = True
        after.append(marked.copy())
    return marked, after


class TestMarkingKernel:
    # firsts up to past the range: p*p beyond block 0, a class's first
    # member inside a later block, or no member at all
    @given(data=st.data())
    @example(data=None)
    def test_matches_literal_marking(self, data):
        if data is None:
            lo, hi, block_size, blank = 0, 99, 10, None
            passes = [[(3, 9), (7, 49)], [(11, 121), (2, 0)]]
        else:
            lo = data.draw(st.integers(0, 300), label="lo")
            hi = data.draw(st.integers(lo, lo + 300), label="hi")
            block_size = data.draw(st.integers(1, hi - lo + 1), label="block_size")
            mark = st.tuples(st.integers(1, 40), st.integers(0, hi + 50))
            passes = data.draw(st.lists(st.lists(mark, max_size=6), max_size=3),
                               label="passes")
            blank = data.draw(st.none() | st.lists(st.booleans(), min_size=block_size,
                                                   max_size=block_size), label="blank")
            blank = None if blank is None else np.array(blank, dtype=bool)
        final, after = _literal_marks(lo, hi, passes, block_size, blank)
        # the kernel takes each pass as parallel lists of primes and firsts
        columns = [([p for p, _ in marks], [first for _, first in marks]) for marks in passes]
        starts, blocks = [], []
        for start, block, counts in legendre._mark_blocks(lo, hi, columns, block_size, blank):
            i = start - lo
            assert block.size == min(block_size, hi + 1 - start)
            assert counts == [int(a[i : i + block.size].sum()) for a in after]
            starts.append(start)
            blocks.append(block.copy())
        assert starts == list(range(lo, hi + 1, block_size))
        assert np.array_equal(np.concatenate(blocks), final)

    # the first j of each prime's marks in a lane x = 30j + r, against the
    # first x >= x0 in the class of x0 mod p and in the lane, found by steps
    def test_lane_marks_match_the_first_x_in_the_lane(self):
        primes = [p for p in range(7, 98) if all(p % q for q in range(2, p))]
        # and the squares of the primes nearest 10^6 on either side
        large = [999_983, 1_000_003]
        for r in (1, 7, 11, 13, 17, 19, 23, 29):
            for p in [*primes, *large]:
                x0s = [p * p] if p in large else [*range(0, 3 * p + 30), p * p, 2**31 + p]
                marked, firsts = legendre._lane_marks([p] * len(x0s), x0s)(r)
                assert list(marked) == [p] * len(x0s)
                for j, x0 in zip(firsts, x0s, strict=True):
                    x = x0
                    while x % 30 != r:
                        x += p
                    assert 30 * j + r == x, (r, p, x0)

    def test_empty_range_yields_no_block(self):
        assert list(legendre._mark_blocks(5, 4, [([3], [0])], 2)) == []
        with pytest.raises(ValueError):
            list(legendre._mark_blocks(5, 4, [([3], [0])], 0))


def _odd_prime_flags(n):
    return legendre._odd_prime_flags(n, build_prime_table(max(math.isqrt(n), 1)).primes.tolist())


class TestOddPrimeFlags:
    # the kernel's flags of the odd x <= N against the oracle's table

    def test_below_13_squared(self):
        # the wheel primes lie above sqrt(N) here, and only the blank marks
        for n in range(1, 201):
            assert np.array_equal(_odd_prime_flags(n), build_prime_table(n).flags[1::2]), n

    # one period of the odd wheel blank either side, and both sides of the
    # tiled blank's first block edge, x = 2,072,071 at i = 69 * 15015
    @pytest.mark.parametrize("n", [*(30030 * k + d for k in (1, 2, 7) for d in (-1, 1)),
                                   *range(BLOCK - 2, BLOCK + 3)])
    def test_at_the_period_and_block_edges(self, n):
        assert np.array_equal(_odd_prime_flags(n), build_prime_table(n).flags[1::2]), n

    @given(st.one_of(st.integers(1, 30_029), st.integers(30_030, 5_000_000)))
    def test_at_random_n(self, n):
        assert np.array_equal(_odd_prime_flags(n), build_prime_table(n).flags[1::2]), n
