import dataclasses
import functools
import math
import multiprocessing
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pairsieve import (
    ScanSummary,
    bound_value,
    build_prime_table,
    default_interval,
    goldbach_pairs_oracle,
    is_prime_trial,
    iter_pair_counts,
    make_residue_basis,
    pair_counts,
    pair_counts_and_array,
    prime_pair_list,
    scan_bounds,
    tilde_composite_pairs,
    tilde_composite_pairs_ie,
)
from pairsieve import legendre, xi
from pairsieve.legendre import DEFAULT_BLOCK
from pairsieve.xi import ResidueBasis
from test_legendre import EDGE_N

GOLDEN_100 = [11, 17, 29, 41, 47, 53, 59, 71, 83, 89]


@pytest.fixture(scope="module")
def table_100k():
    return build_prime_table(100_000)


class TestDefaultInterval:
    @pytest.mark.parametrize(
        "n,expected",
        [(8, (3, 5)), (16, (4, 12)), (100, (10, 90)),
         (1000, (32, 968)), (10000, (100, 9900))],
    )
    def test_known_intervals(self, n, expected):
        assert default_interval(n) == expected


def _dividing(basis):
    """The primes of the basis that divide its n."""
    return [p for p in basis.primes if basis.n % p == 0]


class TestResidueBasis:
    """A basis holds n, its interval and the primes of
    ``legendre.make_basis``; each reader takes the residues n % p."""

    def test_fields_are_n_interval_and_primes(self, table_20k):
        assert [f.name for f in dataclasses.fields(ResidueBasis)] == ["n", "interval", "primes"]
        assert not hasattr(xi, "ResidueEntry")
        assert type(make_residue_basis(100, table_20k).primes) is tuple

    def test_n_100(self, table_20k):
        basis = make_residue_basis(100, table_20k)
        assert basis.interval == (10, 90)
        assert basis.primes == legendre.make_basis(100, table_20k) == (2, 3, 5, 7)
        assert [100 % p for p in basis.primes] == [0, 1, 0, 2]

    def test_n_1000_spot_residues(self, table_20k):
        primes = make_residue_basis(1000, table_20k).primes
        assert primes == legendre.make_basis(1000, table_20k)
        assert primes[-1] == 31
        assert [1000 % p for p in (3, 7, 31)] == [1, 6, 8]

    def test_n_16(self, table_20k):
        basis = make_residue_basis(16, table_20k)
        assert basis.primes == legendre.make_basis(16, table_20k) == (2, 3)
        assert basis.interval == (4, 12)

    def test_two_always_divides(self, table_20k):
        for n in range(8, 500, 2):
            assert make_residue_basis(n, table_20k).primes[0] == 2

    # every n of 8..64, then the marking kernel's edge cases, whose
    # smallest two are below the pair sieve's minimum of 8
    @pytest.mark.parametrize("n", [*range(8, 65, 2), *EDGE_N])
    def test_primes_are_the_legendre_basis(self, table_20k, n):
        if n < 8:
            with pytest.raises(ValueError):
                make_residue_basis(n, table_20k)
            return
        basis = make_residue_basis(n, table_20k)
        assert (basis.n, basis.interval) == (n, default_interval(n))
        assert basis.primes == legendre.make_basis(n, table_20k)

    def test_rejects_small_or_odd(self, table_20k):
        with pytest.raises(ValueError):
            make_residue_basis(6, table_20k)
        with pytest.raises(ValueError):
            make_residue_basis(15, table_20k)

    def test_inconsistent_entries_rejected(self):
        for interval in ((90, 10), (0, 50), (10, 100)):
            with pytest.raises(ValueError):
                ResidueBasis(n=100, interval=interval, primes=(2, 3, 5, 7))


class TestDoubleSieve:
    def test_n_100_survivors(self, table_20k):
        assert pair_counts_and_array(100, table_20k)[1].tolist() == GOLDEN_100

    def test_n_8(self, table_20k):
        assert pair_counts_and_array(8, table_20k)[1].tolist() == [3, 5]

    def test_n_16_default_interval(self, table_20k):
        # default interval [4, 12] keeps only the inner pair 5 + 11
        assert pair_counts_and_array(16, table_20k)[1].tolist() == [5, 11]

    def test_n_16_wide_interval(self, table_20k):
        # outside (sqrt(n), n - sqrt(n)) residue avoidance is stricter than
        # primality: 3 and 13 are a prime pair of 16, but 3 | 3 and 3 | 16-13
        # knock both out of the sieve
        assert pair_counts_and_array(16, table_20k, (3, 13))[1].tolist() == [5, 11]
        assert goldbach_pairs_oracle(table_20k, 16, (3, 13)) == [3, 5, 11, 13]

    def test_survivor_condition_is_residue_avoidance(self, table_20k):
        basis = make_residue_basis(360, table_20k)
        survivors = set(xi._sieve(basis, with_list=True)[2].tolist())
        a, b = basis.interval
        for x in range(a, b + 1):
            expected = all(x % p != 0 and x % p != 360 % p for p in basis.primes)
            assert (x in survivors) == expected, x

    # n = 30030*m has the seven smallest primes dividing it (hat-heavy),
    # n = 2q only 2 (tilde-heavy); the third case overrides the interval
    @pytest.mark.parametrize("n,interval", [(30030, None), (2 * 4999, None),
                                            (30030 * 7, (1000, 4000))])
    def test_block_size_transparency(self, table_20k, n, interval):
        basis = make_residue_basis(n, table_20k, interval)
        counts = pair_counts(n, table_20k, interval)
        pairs = prime_pair_list(n, table_20k, interval)
        assert pairs == pair_counts_and_array(n, table_20k, interval)[1].tolist()
        assert counts.prime_pairs == len(pairs)
        # the public calls sieve at the default block; the block edges are
        # driven through the private sieve they share
        for block in (1, 2, 3, 17, 64, 1001, 1 << 20):
            hat, composite, survivors = xi._sieve(basis, with_list=True, block_size=block)
            assert (hat, composite) == (counts.hat, counts.composite_pairs), block
            assert survivors.tolist() == pairs, block

    def test_bad_block_size(self, table_20k):
        with pytest.raises(ValueError):
            xi._sieve(make_residue_basis(100, table_20k), block_size=0)

    # the marked hat is compared with inclusion-exclusion exactly: one off
    # raises, in the one lane of odd x and in the lanes of 30 alike
    @pytest.mark.parametrize("n,wheel", [(1000, 2), (30030 * 211, 30)])
    def test_hat_cross_check_raises_on_one_off(self, monkeypatch, table_20k, n, wheel):
        lo, hi = default_interval(n)[0] | 1, (n // 2 - 1) | 1
        assert legendre._wheel((hi - lo) // 2 + 1, DEFAULT_BLOCK) == wheel
        hat_ie = xi._hat_inclusion_exclusion
        monkeypatch.setattr(xi, "_hat_inclusion_exclusion", lambda *args: hat_ie(*args) + 1)
        with pytest.raises(RuntimeError, match=rf"^hat marking (\d+) != inclusion-exclusion "
                                               rf"(\d+) for n={n}$") as raised:
            pair_counts(n, table_20k)
        marked, ie = map(int, re.findall(r"\d+", str(raised.value))[:2])
        assert ie == marked + 1


def _literal_sieve(basis):
    """hat, hat + tilde and the survivors of the basis interval, marked
    x by x over the whole interval, even x and both halves included."""
    xs = np.arange(basis.interval[0], basis.interval[1] + 1)
    hat = np.zeros(xs.size, dtype=bool)
    for p in _dividing(basis):
        hat |= xs % p == 0
    marked = hat.copy()
    for p in basis.primes:
        marked |= (xs % p == 0) | (xs % p == basis.n % p)
    return int(hat.sum()), int(marked.sum()), xs[~marked].tolist()


class TestOddHalfLayout:
    """The sieve marks odd x only, and over the half [a, n/2] of a
    symmetric interval; both must give what marking every x gives."""

    @staticmethod
    def _check(table, n, interval, block):
        basis = make_residue_basis(n, table, interval)
        hat, composite, survivors = _literal_sieve(basis)
        sieved = xi._sieve(basis, with_list=True, block_size=block)
        assert (*sieved[:2], sieved[2].tolist()) == (hat, composite, survivors)
        # the public form and the count-only pass, at the default block
        counts, pairs = pair_counts_and_array(n, table, interval)
        assert (counts.hat, counts.composite_pairs, pairs.tolist()) == (hat, composite, survivors)
        assert xi._sieve(basis)[:2] == (hat, composite)
        # inside (sqrt(n), n - sqrt(n)) the survivors are the prime pairs
        r, (a, b) = math.isqrt(n), basis.interval
        lo, hi = max(a, r + 1), min(b, n - r - 1)
        if lo <= hi:
            assert [x for x in survivors if lo <= x <= hi] == \
                goldbach_pairs_oracle(table, n, (lo, hi))

    # n/2 even; n = 2q, q prime, so the odd centre survives; n/2 odd with
    # the odd factor 3 <= sqrt(n), so the centre is hat; n = 0 (mod 30030)
    @pytest.mark.parametrize("n", [1000, 4096, 2 * 4999, 2 * 7919, 2 * 3 * 3331,
                                   2 * 3 * 5 * 7, 30030])
    @pytest.mark.parametrize("block", [3, 1 << 20])
    def test_centre_cases(self, table_100k, n, block):
        h = n // 2
        for interval in (None, (1, n - 1), (h, h), (h - 1, h + 1), (3, h + 2), (h + 1, n - 1)):
            self._check(table_100k, n, interval, block)

    @given(n=st.integers(4, 3000).map(lambda k: 2 * k), data=st.data())
    @example(n=8, data=None)
    def test_matches_literal_marking_and_oracle(self, table_100k, n, data):
        if data is None:
            intervals, block = [(1, 7), (3, 5), (4, 4), (5, 7)], 1
        else:
            a = data.draw(st.integers(1, n // 2), label="a")
            b = data.draw(st.integers(a, n - 1), label="b")
            c = data.draw(st.integers(n // 2, n - 1), label="c")
            intervals = [None, (1, n - 1), (a, n - a), (a, b), (c, data.draw(
                st.integers(c, n - 1), label="d"))]
            block = data.draw(st.integers(1, 64) | st.sampled_from([1000, 1 << 20]),
                              label="block")
        for interval in intervals:
            self._check(table_100k, n, interval, block)

    def test_centre_is_counted_once(self, table_20k):
        # n/2 = 4999 is prime, so the one odd centre is a pair with itself
        assert prime_pair_list(2 * 4999, table_20k, (4999, 4999)) == [4999]
        assert prime_pair_list(2 * 4999, table_20k, (4997, 5001)).count(4999) == 1
        # n/2 = 3 * 3331: 3 divides n, so the centre is hat
        counts = pair_counts(2 * 3 * 3331, table_20k, (3 * 3331, 3 * 3331))
        assert (counts.hat, counts.tilde, counts.prime_pairs) == (1, 0, 0)


class TestOddLayoutAcrossABlockEdge:
    """Below the lane switch the one lane of odd x takes its first indices
    from the residue basis; between one and 1.5 blocks of odd positions the
    second block starts inside each class, not at its first member."""

    # n/2 prime (the centre survives), n = 30030 and n/2 = 3 * 3331 (the
    # centre is hat); the default interval and an asymmetric one
    @pytest.mark.parametrize("n", [2 * 4999, 30030, 2 * 3 * 3331])
    @pytest.mark.parametrize("asymmetric", [False, True])
    def test_matches_literal_marking_and_the_lanes(self, table_20k, n, asymmetric):
        basis = make_residue_basis(n, table_20k, (101, n // 2 + 777) if asymmetric else None)
        a, b = basis.interval
        lo, hi = a | 1, ((n // 2 if a + b == n else b) - 1) | 1
        positions = (hi - lo) // 2 + 1
        block = positions * 3 // 4
        assert block < positions < 1.5 * block
        assert legendre._wheel(positions, block) == 2
        hat, composite, survivors = _literal_sieve(basis)
        sieved = xi._sieve(basis, with_list=True, block_size=block)
        assert (*sieved[:2], sieved[2].tolist()) == (hat, composite, survivors)
        assert sieved[2].dtype == np.int32 and bool(np.all(np.diff(sieved[2]) > 0))
        assert legendre._wheel(positions, 7) == 30
        lanes = xi._sieve(basis, with_list=True, block_size=7)
        assert (*lanes[:2], lanes[2].tolist()) == (hat, composite, survivors)


class TestWheelLanes:
    """From ``legendre._LANE_SWITCH`` blocks of odd positions on, the sieve
    lays them out in the lanes x = 30j + r: 3 and 5 decide whole lanes, as
    hat or as composite, and the other lanes' survivors are sorted into
    one array. A small block brings the lanes to small n."""

    @staticmethod
    def _check(table, n, interval, block):
        basis = make_residue_basis(n, table, interval)
        a, b = basis.interval
        lo, hi = a | 1, ((n // 2 if a + b == n else b) - 1) | 1
        assert legendre._wheel((hi - lo) // 2 + 1, block) == 30, (n, interval, block)
        hat, composite, survivors = _literal_sieve(basis)
        sieved = xi._sieve(basis, with_list=True, block_size=block)
        assert (*sieved[:2], sieved[2].tolist()) == (hat, composite, survivors)
        assert sieved[2].dtype == np.int32 and bool(np.all(np.diff(sieved[2]) > 0))
        assert xi._sieve(basis, block_size=block)[:2] == (hat, composite)
        assert composite - hat == tilde_composite_pairs_ie(basis)

    # every even n mod 30: 3 and 5 each dividing n or not, and m = n mod p
    # in each class of the two that do not; n/2 odd at n = 2 (mod 4)
    @pytest.mark.parametrize("n", range(3000, 3030, 2))
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_every_even_residue_mod_30(self, table_20k, n, block):
        h = n // 2
        # the default interval and symmetric ones about an odd or an even
        # centre, then intervals whose ends lie in different lanes
        for interval in (None, (1, n - 1), (h - 300, h + 300), (101, n - 101),
                         (1, 1000), (7, 2011), (h + 2, n - 16), (1003, 1200)):
            self._check(table_20k, n, interval, block)

    @given(n=st.integers(100, 5000).map(lambda k: 2 * k), data=st.data())
    def test_matches_literal_marking_on_any_interval(self, table_20k, n, data):
        a = data.draw(st.integers(1, n // 2 - 40), label="a")
        b = data.draw(st.integers(a + 80, n - 1), label="b")
        block = data.draw(st.integers(1, 12), label="block")
        for interval in ((a, n - a), (a, b)):
            self._check(table_20k, n, interval, block)

    def test_default_block_takes_the_lanes_above_the_switch(self, table_20k):
        # n = 2q and n = 30030m, just above the switch at the default block
        for n in (2 * 3_200_003, 30030 * 211):
            basis = make_residue_basis(n, table_20k)
            positions = (n // 2 - 1 | 1) - (basis.interval[0] | 1)
            assert legendre._wheel(positions // 2 + 1, DEFAULT_BLOCK) == 30
            counts, pairs = pair_counts_and_array(n, table_20k)
            assert pairs.dtype == np.int32 and bool(np.all(np.diff(pairs) > 0))
            assert counts.prime_pairs == pairs.size
            sample = pairs[:: max(1, pairs.size // 200)].tolist()
            assert all(is_prime_trial(x) and is_prime_trial(n - x) for x in sample)
            small = xi._sieve(basis, with_list=True, block_size=1 << 24)
            assert legendre._wheel(positions // 2 + 1, 1 << 24) == 2
            assert (counts.hat, counts.composite_pairs) == small[:2]
            assert small[2].tolist() == pairs.tolist()


class TestSubsetProducts:
    """The signed squarefree products of a set of primes, ``xi._signed_divisors``,
    which the sieve's hat check and the tilde inclusion-exclusion read."""

    def test_pruning(self):
        assert xi._signed_divisors([2, 3], 5) == [(2, 1), (3, 1)]

    def test_four_primes_bound_100(self):
        got = xi._signed_divisors([2, 3, 5, 7], 100)
        assert len(got) == 13
        # the two pruned subsets are exactly those overflowing the bound
        assert 105 not in [d for d, _ in got] and 210 not in [d for d, _ in got]

    def test_unbounded_yields_full_powerset(self):
        primes = [2, 3, 5, 7, 11, 13]
        got = xi._signed_divisors(primes, 10**9)
        assert len(got) == 2 ** len(primes) - 1
        assert len({d for d, _ in got}) == len(got)

    def test_factor_counts_are_consistent(self):
        primes = [2, 3, 5, 7, 11]
        for d, sign in xi._signed_divisors(primes, 10**6):
            k = sum(d % p == 0 for p in primes)
            assert d >= 2**k  # k distinct primes, each >= 2
            assert sign == (1 if k % 2 else -1)

    def test_deterministic(self):
        a = xi._signed_divisors([2, 3, 5, 7], 100)
        assert a == xi._signed_divisors([2, 3, 5, 7], 100)


class TestHatTilde:
    def test_hat_examples(self, table_20k):
        assert pair_counts(100, table_20k).hat == 49
        assert pair_counts(8, table_20k).hat == 1
        assert pair_counts(16, table_20k).hat == 5

    def test_tilde_examples(self, table_20k):
        assert tilde_composite_pairs(make_residue_basis(100, table_20k)) == 22
        assert tilde_composite_pairs(make_residue_basis(8, table_20k)) == 0
        # on [4, 12] the odd positions hit through residues of 3 are 7 and 9
        assert tilde_composite_pairs(make_residue_basis(16, table_20k)) == 2

    def test_hat_matches_brute(self, table_20k):
        for n in (12, 36, 100, 210, 1024):
            basis = make_residue_basis(n, table_20k)
            div = _dividing(basis)
            a, b = basis.interval
            brute = sum(1 for x in range(a, b + 1) if any(x % p == 0 for p in div))
            assert xi._sieve(basis)[0] == brute

    def test_tilde_matches_brute(self, table_20k):
        for n in (12, 36, 100, 210, 1024):
            basis = make_residue_basis(n, table_20k)
            div = _dividing(basis)
            nd = [(p, n % p) for p in basis.primes if n % p]
            a, b = basis.interval
            brute = sum(
                1 for x in range(a, b + 1)
                if all(x % p for p in div)
                and any(x % p == 0 or x % p == m for p, m in nd)
            )
            assert tilde_composite_pairs(basis) == brute

    def test_tilde_ie_equals_marking(self, table_20k):
        for n in range(8, 601, 2):
            basis = make_residue_basis(n, table_20k)
            assert tilde_composite_pairs_ie(basis) == tilde_composite_pairs(basis), n

    def test_tilde_ie_larger_spot_checks(self, table_20k):
        for n in (9240, 9998, 9996, 6930, 8192):
            basis = make_residue_basis(n, table_20k)
            assert tilde_composite_pairs_ie(basis) == tilde_composite_pairs(basis), n

    @given(n=st.integers(4, 10_000).map(lambda k: 2 * k), data=st.data())
    def test_tilde_ie_and_prime_pairs_on_any_interval(self, table_20k, n, data):
        # default, symmetric, asymmetric and edge intervals; hat from its
        # inclusion-exclusion and tilde from the class tree give the prime
        # pairs a second exact count, with no marking
        a = data.draw(st.integers(1, n // 2), label="a")
        c = data.draw(st.integers(1, n - 1), label="c")
        d = data.draw(st.integers(c, n - 1), label="d")
        for interval in (None, (a, n - a), (c, d), (1, n - 1), (c, c)):
            basis = make_residue_basis(n, table_20k, interval)
            tilde = tilde_composite_pairs_ie(basis)
            assert tilde == tilde_composite_pairs(basis)
            lo, hi = basis.interval
            hat = xi._hat_inclusion_exclusion(xi._signed_divisors(_dividing(basis), hi), lo, hi)
            assert hi - lo + 1 - hat - tilde == pair_counts(n, table_20k, interval).prime_pairs

    def test_inverse_tables(self, table_20k):
        for p in [*table_20k.primes[:60].tolist(), 8191]:
            assert xi._inverse_table(p).tolist() == [0, *(pow(v, -1, p) for v in range(1, p))]

    def test_tilde_ie_domain_edge(self, table_20k, monkeypatch):
        # below 2^26 every modulus of the class tree fits in int64; the
        # tables of inverses, one per basis prime up to 8191, are shared
        # between the three intervals
        monkeypatch.setattr(xi, "_inverse_table", functools.cache(xi._inverse_table))
        n = (1 << 26) - 2
        for interval in ((1, 40), (n // 2 - 20, n // 2 + 20), (n - 40, n - 1)):
            basis = make_residue_basis(n, table_20k, interval)
            assert tilde_composite_pairs_ie(basis) == tilde_composite_pairs(basis), interval

        def no_work(*args):
            raise AssertionError("work started before the domain check")

        for name in ("_union_count", "_signed_divisors", "_inverse_table"):
            monkeypatch.setattr(xi, name, no_work)
        basis = make_residue_basis(1 << 26, table_20k, ((1 << 25) - 20, (1 << 25) + 20))
        with pytest.raises(ValueError, match="2\\^26"):
            tilde_composite_pairs_ie(basis)

    def test_per_period_mark_counts(self, table_20k):
        # one full period of each prime marks 2 positions when p does not
        # divide n, 1 when it does
        basis = make_residue_basis(420, table_20k)
        for p in basis.primes:
            lo, m = basis.interval[0], 420 % p
            period = list(range(lo, lo + p))
            marked = [x for x in period if x % p == 0 or x % p == m]
            assert len(marked) == (2 if m else 1)


class TestPairCounts:
    def test_list_and_array_forms(self, table_20k):
        # one sieve pass behind all three; only the list form makes a list
        counts, array = pair_counts_and_array(30030, table_20k)
        assert isinstance(array, np.ndarray) and array.dtype.kind == "i"
        assert pair_counts(30030, table_20k) == counts
        pairs = prime_pair_list(30030, table_20k)
        assert type(pairs) is list and all(type(x) is int for x in pairs)
        assert pairs == array.tolist()

    @pytest.mark.parametrize("n", [100, 30030, 2 * 4999])
    def test_survivors_are_int32_below_2_31(self, table_20k, n):
        counts, array = pair_counts_and_array(n, table_20k)
        assert array.dtype == np.int32
        assert array.tolist() == goldbach_pairs_oracle(
            build_prime_table(n), n, counts.interval)

    # one block (a lone chunk, copied), many blocks (concatenated), and
    # none (an interval of even x alone)
    @pytest.mark.parametrize("n,interval", [(8, None), (100, None), (2 * 4999, None),
                                            (30030, None), (30030, (1000, 4001)),
                                            (30, (4, 4))])
    def test_survivor_list_at_every_block_size(self, table_20k, n, interval):
        basis = make_residue_basis(n, table_20k, interval)
        literal = _literal_sieve(basis)[2]
        for block in (1, 7, 15015, DEFAULT_BLOCK):
            survivors = xi._sieve(basis, with_list=True, block_size=block)[2]
            assert survivors.dtype == np.int32, block
            assert survivors.tolist() == literal, block

    def test_survivors_are_int64_from_2_31(self):
        # every x and n - x lies in (2^16, 2^32), so a composite one has a
        # prime factor in the table: the pairs are the x with neither x nor
        # n - x divisible by a table prime
        n, (a, b) = 2**32, (2**31 + 1, 2**31 + 2001)
        table = build_prime_table(1 << 16)
        counts, array = pair_counts_and_array(n, table, (a, b))
        x = np.arange(a, b + 1, dtype=np.int64)
        both = np.ones(x.size, bool)
        for primes in np.array_split(table.primes, 32):
            both &= (x[:, None] % primes != 0).all(1) & ((n - x)[:, None] % primes != 0).all(1)
        assert array.dtype == np.int64 and array.min() > 2**31 - 1
        assert array.tolist() == x[both].tolist() and counts.prime_pairs == array.size > 0

    def test_n_100(self, table_20k):
        c = pair_counts(100, table_20k)
        assert (c.hat, c.tilde, c.prime_pairs, c.length) == (49, 22, 10, 81)
        assert c.composite_pairs == 71

    def test_n_1000(self, table_20k):
        assert pair_counts(1000, table_20k).prime_pairs == 48

    def test_n_10000_matches_brute_force(self, table_20k):
        # brute force gives 250 prime pairs on [100, 9900]
        c = pair_counts(10000, table_20k)
        oracle = goldbach_pairs_oracle(table_20k, 10000, (100, 9900))
        assert c.prime_pairs == len(oracle) == 250

    def test_partition_sweep(self, table_20k):
        for n in range(8, 2001, 2):
            c = pair_counts(n, table_20k)
            assert c.hat + c.tilde == c.composite_pairs
            assert c.composite_pairs + c.prime_pairs == c.length
            assert c.length == c.interval[1] - c.interval[0] + 1

    def test_golden_232_is_the_count_over_a_narrower_interval(self, table_20k):
        # criterion 1 records 232 prime pairs for n = 10000, where the default
        # interval [100, 9900] holds 250: 232 is the count over [a, 10000 - a]
        # for exactly a = 312..449, among them a = 400 = 4 sqrt(n), as in the
        # bound's numerator n - 4 sqrt(n)
        def count(a):
            return len(goldbach_pairs_oracle(table_20k, 10000, (a, 10000 - a)))

        assert [a for a in range(300, 460) if count(a) == 232] == list(range(312, 450))
        assert (count(100), count(1)) == (250, 254)
        assert pair_counts(10000, table_20k, (400, 9600)).prime_pairs == 232

    def test_invalid_partition_rejected(self):
        from pairsieve import PairCounts
        with pytest.raises(ValueError):
            PairCounts(n=100, interval=(10, 90), hat=50, tilde=22, prime_pairs=10)


class TestPrimePairList:
    def test_n_100(self, table_20k):
        assert prime_pair_list(100, table_20k) == GOLDEN_100

    def test_n_1000_ends(self, table_20k):
        xs = prime_pair_list(1000, table_20k)
        assert len(xs) == 48
        assert xs[:3] == [47, 53, 59] and xs[-3:] == [941, 947, 953]

    def test_n_10000_ends(self, table_20k):
        xs = prime_pair_list(10000, table_20k)
        assert len(xs) == 250
        assert xs[:3] == [113, 149, 167] and xs[-3:] == [9833, 9851, 9887]

    def test_equals_oracle_sweep(self, table_20k):
        for n in range(8, 2001, 2):
            assert prime_pair_list(n, table_20k) == \
                goldbach_pairs_oracle(table_20k, n, default_interval(n)), n

    def test_closed_under_reflection(self, table_20k):
        for n in (100, 1000, 4444, 9998):
            xs = prime_pair_list(n, table_20k)
            assert sorted(n - x for x in xs) == xs

    def test_members_pass_trial_division(self, table_20k):
        for x in prime_pair_list(5000, table_20k):
            assert is_prime_trial(x) and is_prime_trial(5000 - x)


class TestSymmetryInvariants:
    def test_forward_backward_divisor_counts(self, table_20k):
        # x -> n - x matches multiples of p with positions ≡ n (mod p)
        for n in (100, 1000, 7920):
            for p in make_residue_basis(n, table_20k).primes:
                xs = np.arange(1, n)
                fwd = int(np.count_nonzero(xs % p == 0))
                bwd = int(np.count_nonzero((n - xs) % p == 0))
                assert fwd == bwd, (n, p)

    def test_residue_shift_counts(self, table_20k):
        for n in (100, 1000, 7920):
            for p in make_residue_basis(n, table_20k).primes:
                xs = np.arange(1, n)
                m = n % p
                zero_class = int(np.count_nonzero(xs % p == 0))
                m_class = int(np.count_nonzero(xs % p == m))
                assert zero_class == m_class, (n, p)


class TestBound:
    def test_bound_values_match_direct_evaluation(self):
        for n in (26, 100, 1000, 10000):
            direct = (n - 4 * math.sqrt(n)) / math.log(n - math.sqrt(n)) ** 2
            assert bound_value(n) == direct

    def test_bound_spot_values(self):
        assert bound_value(100) == pytest.approx(2.9632136, abs=1e-6)
        assert bound_value(10000) == pytest.approx(113.414399, abs=1e-5)
        assert bound_value(26) == pytest.approx(0.6064614, abs=1e-6)

    def test_bound_domain(self):
        with pytest.raises(ValueError):
            bound_value(24)
        with pytest.raises(ValueError):
            bound_value(27)

    def test_check_bound_examples(self, table_20k):
        r = pair_counts(100, table_20k)
        assert r.prime_pairs == 10 and r.holds
        assert r.margin == pytest.approx(10 - bound_value(100))
        r = pair_counts(1000, table_20k)
        assert r.prime_pairs == 48 and r.holds
        assert r.margin == pytest.approx(29.5224927, abs=1e-5)
        r = pair_counts(10000, table_20k)
        assert r.prime_pairs == 250 and r.holds


class TestScanBounds:
    def test_three_reports(self):
        reports = list(scan_bounds(100, 104, 2))
        assert [r.n for r in reports] == [100, 102, 104]
        assert all(r.holds for r in reports)

    def test_single_n(self):
        (r,) = scan_bounds(1000, 1000, 2)
        assert r.margin == pytest.approx(29.5224927, abs=1e-5)
        (r,) = scan_bounds(26, 26, 2)
        assert r.n == 26

    def test_parallel_matches_serial(self):
        serial = list(scan_bounds(1000, 1400, 2))
        parallel = list(scan_bounds(1000, 1400, 2, workers=3))
        assert serial == parallel
        assert [r.n for r in parallel] == sorted(r.n for r in parallel)

    def test_validation(self):
        # at the call, before the first record is asked for
        with pytest.raises(ValueError):
            scan_bounds(10, 8)
        with pytest.raises(ValueError):
            scan_bounds(24, 100)
        with pytest.raises(ValueError):
            scan_bounds(26, 100, 3)
        with pytest.raises(ValueError):
            scan_bounds(27, 101, 2)

    def test_summary_accumulation(self):
        summary = ScanSummary()
        for r in scan_bounds(100, 120, 2):
            summary.add(r)
        assert summary.count == 11
        assert summary.violations == 0
        assert summary.min_margin > 0
        assert summary.min_margin_n is not None


class TestScanSummaryRow:
    # a row's bound, margin and holds are worked out once, in add_row

    def test_add_reads_the_bound_once_per_record(self, monkeypatch):
        records = list(scan_bounds(100, 140, 2))
        calls = []

        def counted(n):
            calls.append(n)
            return bound_value(n)

        monkeypatch.setattr(xi, "bound_value", counted)
        summary = ScanSummary()
        for r in records:
            summary.add(r)
        assert calls == [r.n for r in records]

    def test_add_row_matches_sieved_records(self):
        # bitwise, for every even n in [26, 30000], and the summary of the
        # rows is the summary of the records
        table = build_prime_table(math.isqrt(30000))
        rows, records = ScanSummary(), ScanSummary()
        for n in range(26, 30001, 2):
            r = pair_counts(n, table)
            bound, margin, holds = rows.add_row(n, r.prime_pairs)
            assert (bound.hex(), margin.hex(), holds) == (r.bound.hex(), r.margin.hex(), r.holds)
            records.add(r)
        assert rows == records
        assert rows.count == 14988


class TestIterPairCounts:
    def test_matches_single_calls(self, table_20k):
        streamed = list(iter_pair_counts(100, 140, 2))
        singles = [pair_counts(n, table_20k) for n in range(100, 141, 2)]
        assert streamed == singles

    def test_parallel_matches_serial(self, monkeypatch):
        # spans of about 20 n, so the pool takes several
        monkeypatch.setattr(xi, "_SPAN_POSITIONS", 3000)
        assert len(xi._spans(500, 700, 2)) > 2
        assert list(iter_pair_counts(500, 700, 2, workers=4)) == \
            list(iter_pair_counts(500, 700, 2))

    # n = 30030k (seven dividing primes), n = 2q (one), even squares (the
    # interval starts at sqrt(n) itself) and spans down to one n each
    @given(first=st.one_of(st.integers(4, 35000).map(lambda k: 2 * k),
                           st.sampled_from([30030, 60060, 2 * 4999, 2 * 7919, 144, 4096, 10000])),
           count=st.integers(0, 40), step=st.sampled_from([2, 4, 6, 30, 210, 2310]),
           span_positions=st.sampled_from([1, 5000, 1 << 29]))
    @example(first=30030, count=3, step=30030, span_positions=1)
    @example(first=2 * 4999, count=0, step=2, span_positions=1 << 29)
    @example(first=8, count=40, step=2, span_positions=50)
    @example(first=64 * 64, count=4, step=2 * 64 + 2, span_positions=1)  # 64^2, then 66^2
    def test_bitmap_engine_matches_the_sieve(self, table_20k, first, count, step,
                                             span_positions):
        end = first + count * step
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(xi, "_SPAN_POSITIONS", span_positions)
            streamed = list(iter_pair_counts(first, end, step))
        assert streamed == [pair_counts(n, table_20k) for n in range(first, end + 1, step)]

    # steps that share every small prime with n (30030), some (6, 3314 =
    # 2 * 1657) or only 2, starts on both sides of the squares, the even
    # squares 64^2 and 66^2 (66 = 2 * 3 * 11 divides 66^2 but exceeds its
    # r = 65) and n = 30030k, which seven primes divide
    @given(start=st.integers(4, 40000).map(lambda k: 2 * k),
           count=st.integers(1, 300),
           step=st.one_of(st.sampled_from([2, 6, 3314, 30030]),
                          st.integers(1, 5000).map(lambda k: 2 * k)))
    @example(start=8, count=200, step=2)
    @example(start=120, count=3, step=2)  # 11^2 lies between 120 and 122
    @example(start=64 * 64, count=4, step=2 * 64 + 2)  # 64^2, then 66^2
    @example(start=30030, count=40, step=30030)
    def test_hat_column_matches_inclusion_exclusion(self, start, count, step):
        end = start + (count - 1) * step
        primes = build_prime_table(math.isqrt(end)).primes.tolist()
        ns = range(start, end + 1, step)
        want = []
        for n in ns:
            a, b = default_interval(n)
            dividing = [p for p in primes if p * p <= n and n % p == 0]  # trial division
            want.append(xi._hat_inclusion_exclusion(xi._signed_divisors(dividing, b), a, b))
        rs = np.array([math.isqrt(n - 1) for n in ns], dtype=np.int64)
        got = xi._hat_column(np.array(ns, dtype=np.int64), rs, step, primes)
        assert got.tolist() == want

    @pytest.mark.parametrize("bad_n", [1000, 1100])
    def test_sieve_checks_each_span_first_and_last_n(self, monkeypatch, bad_n):
        pair_count = xi._pair_count
        monkeypatch.setattr(xi, "_pair_count",
                            lambda odd, rev, buf, n, a: pair_count(odd, rev, buf, n, a)
                            + (n == bad_n))
        with pytest.raises(RuntimeError, match=f"bitmap counts .*n={bad_n}"):
            list(iter_pair_counts(1000, 1100))

    def test_span_checks_its_last_n_when_its_end_is_off_the_step(self, monkeypatch):
        # 1096 is the last n of 1000 + 4k up to 1098
        pair_count = xi._pair_count
        monkeypatch.setattr(xi, "_pair_count",
                            lambda odd, rev, buf, n, a: pair_count(odd, rev, buf, n, a)
                            + (n == 1096))
        with pytest.raises(RuntimeError, match="bitmap counts .*n=1096"):
            xi._bitmap_span((1000, 1098, 4))

    def test_small_scan_starts_no_pool(self, monkeypatch):
        def no_pool(*args):
            raise AssertionError("a one-span scan started a process pool")
        monkeypatch.setattr(xi.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(xi.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert xi._pool_size(2) == 2
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        assert len(xi._spans(10000, 20000, 2)) == 1
        assert list(scan_bounds(10000, 20000, 2, workers=2)) == list(scan_bounds(10000, 20000))

    def test_every_n_sieved_above_the_end_constant(self, monkeypatch, table_20k):
        def no_bitmap(*args):
            raise AssertionError("bitmap read above the end constant")
        monkeypatch.setattr(xi, "_BITMAP_MAX_END", 1000)
        monkeypatch.setattr(xi, "_pair_count", no_bitmap)
        assert list(iter_pair_counts(900, 1002)) == \
            [pair_counts(n, table_20k) for n in range(900, 1003, 2)]
        with pytest.raises(AssertionError, match="bitmap read"):
            list(iter_pair_counts(900, 1000))

    def test_engine_chosen_per_span_of_a_straddling_scan(self, monkeypatch, table_20k):
        # spans of about a dozen n, the last several above the end
        # constant: each span at or below it still reads the bitmap, and
        # only those above sieve every n
        read = []
        pair_count = xi._pair_count
        monkeypatch.setattr(xi, "_pair_count", lambda odd, rev, buf, n, a:
                            read.append(n) or pair_count(odd, rev, buf, n, a))
        monkeypatch.setattr(xi, "_SPAN_POSITIONS", 3000)
        monkeypatch.setattr(xi, "_BITMAP_MAX_END", 1000)
        spans = xi._spans(900, 1100, 2)
        below = [n for first, last, step in spans if last <= 1000
                 for n in range(first, last + 1, step)]
        assert len(below) > 12 and spans[-1][0] > 1000
        assert list(iter_pair_counts(900, 1100)) == \
            [pair_counts(n, table_20k) for n in range(900, 1101, 2)]
        assert read == below

    def test_interleaved_generators_are_independent(self, table_20k):
        # a second scan started while the first is suspended must not
        # change the primes the first one sieves with
        first = iter_pair_counts(10000, 12000)
        head = next(first)
        list(iter_pair_counts(8, 20))
        streamed = [head, *first]
        assert streamed == [pair_counts(n, table_20k) for n in range(10000, 12001, 2)]

    def test_scan_builds_no_table_above_the_square_root_of_its_end(self, monkeypatch):
        # the bitmap's flags come from the marking kernel; the scan's one
        # table holds the primes <= isqrt(end) that mark them
        limits = []
        build = xi.build_prime_table
        monkeypatch.setattr(xi, "build_prime_table", lambda limit: limits.append(limit)
                            or build(limit))
        list(iter_pair_counts(10000, 12000))
        assert limits and max(limits) <= math.isqrt(12000)

    def test_import_leaves_multiprocessing_unloaded(self):
        # the pool's module is imported where a pool starts, not at load
        code = "import sys, pairsieve.cli; print('multiprocessing' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, check=True)
        assert result.stdout == "False\n"

    def test_pickled_record_holds_only_the_counts(self, table_20k):
        # a pool task's result reaches the scan's parent by pickle: the n,
        # hat and prime_pairs columns of its span, and nothing derived;
        # both tasks give that one shape
        records = [pair_counts(n, table_20k) for n in range(1000, 1011, 2)]
        for task in (xi._bitmap_span, xi._sieve_span):
            back = pickle.loads(pickle.dumps(task((1000, 1010, 2))))
            assert type(back) is tuple and len(back) == 3
            assert all(type(c) is np.ndarray and c.dtype == np.int64 and c.shape == (6,)
                       for c in back)
            assert [c.tolist() for c in back] == [
                [r.n for r in records], [r.hat for r in records],
                [r.prime_pairs for r in records]]

    def test_pool_size_clamped_to_cpu_count(self, monkeypatch):
        # the CPUs this process may run on: under taskset -c 0 on a 2-CPU
        # machine, one, though cpu_count() says 2
        monkeypatch.setattr(xi.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(xi.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert [xi._pool_size(k) for k in (1, 2, 8)] == [1, 1, 1]
        monkeypatch.setattr(xi.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert [xi._pool_size(k) for k in (1, 2, 8, 10**6)] == [1, 2, 2, 2]
        # where the platform has no affinity set, the CPU count
        monkeypatch.delattr(xi.os, "sched_getaffinity", raising=False)
        assert [xi._pool_size(k) for k in (1, 2, 8, 10**6)] == [1, 2, 2, 2]
        monkeypatch.setattr(xi.os, "cpu_count", lambda: None)
        assert xi._pool_size(8) == 1


class TestLargeInterval:
    def test_big_n_spot_check(self, table_20k):
        # segmented path at a size where several blocks are in play
        n = 2_000_000
        table = build_prime_table(math.isqrt(n))
        counts = pair_counts(n, table)
        xs = prime_pair_list(n, table)
        assert counts.prime_pairs == len(xs)
        step = max(1, len(xs) // 50)
        for x in xs[::step]:
            assert is_prime_trial(x) and is_prime_trial(n - x)
