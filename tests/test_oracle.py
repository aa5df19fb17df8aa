import numpy as np
import pytest
from hypothesis import given, strategies as st

from pairsieve import (
    build_prime_table,
    goldbach_pairs_oracle,
    is_prime_trial,
    pi_oracle,
)
from pairsieve.oracle import primes_upto

_TABLE_10K = build_prime_table(10000)


class TestBuildPrimeTable:
    def test_small_table(self):
        t = build_prime_table(10)
        assert t.primes.tolist() == [2, 3, 5, 7]
        assert not t.flags[0] and not t.flags[1]
        assert t.flags[7] and not t.flags[9]

    def test_limit_one_is_empty(self):
        t = build_prime_table(1)
        assert t.primes.tolist() == []
        assert t.flags.tolist() == [False, False]

    def test_limit_100_against_trial_division(self):
        t = build_prime_table(100)
        expected = [k for k in range(101) if is_prime_trial(k)]
        assert t.primes.tolist() == expected
        assert len(expected) == 25

    def test_zero_limit_rejected(self):
        with pytest.raises(ValueError):
            build_prime_table(0)

    def test_flags_and_primes_consistent(self, table_20k):
        assert np.array_equal(np.flatnonzero(table_20k.flags), table_20k.primes)
        diffs = np.diff(table_20k.primes)
        assert (diffs > 0).all()

    def test_table_is_immutable(self, table_20k):
        with pytest.raises(ValueError):
            table_20k.flags[2] = False
        with pytest.raises(ValueError):
            table_20k.primes[0] = 1


class TestPiOracle:
    def test_examples(self, table_20k):
        assert pi_oracle(table_20k, 10) == 4
        assert pi_oracle(table_20k, 1) == 0
        assert pi_oracle(table_20k, 31) == 11
        assert pi_oracle(table_20k, 10000) == 1229

    def test_out_of_range(self, table_20k):
        with pytest.raises(ValueError):
            pi_oracle(table_20k, 20001)
        with pytest.raises(ValueError):
            pi_oracle(table_20k, 0)

    def test_agrees_with_trial_division_up_to_20000(self, table_20k):
        # the two oracles must agree everywhere they overlap
        count = 0
        for k in range(1, 20001):
            if is_prime_trial(k):
                count += 1
            assert pi_oracle(table_20k, k) == count, k


class TestPrimesUpto:
    # below 2, a prime, between two primes, past the table's last prime (9973)
    @pytest.mark.parametrize("limit", [-5, 0, 1, 2, 97, 9973, 98, 100, 9974, 10**6])
    def test_against_a_plain_filter(self, limit):
        got = primes_upto(_TABLE_10K.primes, limit)
        assert got.tolist() == [p for p in _TABLE_10K.primes.tolist() if p <= limit]


class TestIsPrimeTrial:
    @pytest.mark.parametrize(
        "n,expected",
        [(0, False), (1, False), (2, True), (3, True), (4, False),
         (91, False), (97, True), (7919, True), (7917, False)],
    )
    def test_cases(self, n, expected):
        assert is_prime_trial(n) is expected


class TestGoldbachPairsOracle:
    def test_n_100(self, table_20k):
        xs = goldbach_pairs_oracle(table_20k, 100, (10, 90))
        assert xs == [11, 17, 29, 41, 47, 53, 59, 71, 83, 89]

    def test_n_8_and_4(self, table_20k):
        assert goldbach_pairs_oracle(table_20k, 8, (3, 5)) == [3, 5]
        assert goldbach_pairs_oracle(table_20k, 4, (2, 2)) == [2]

    def test_rejects_odd_n(self, table_20k):
        with pytest.raises(ValueError):
            goldbach_pairs_oracle(table_20k, 9, (2, 7))

    def test_rejects_bad_interval(self, table_20k):
        with pytest.raises(ValueError):
            goldbach_pairs_oracle(table_20k, 100, (90, 10))
        with pytest.raises(ValueError):
            goldbach_pairs_oracle(table_20k, 100, (0, 90))
        with pytest.raises(ValueError):
            goldbach_pairs_oracle(table_20k, 100, (10, 100))

    def test_rejects_short_table(self):
        t = build_prime_table(50)
        with pytest.raises(ValueError):
            goldbach_pairs_oracle(t, 100, (10, 90))

    @given(st.integers(min_value=2, max_value=5000))
    def test_symmetric_interval_closed_under_reflection(self, half):
        n = 2 * half
        xs = goldbach_pairs_oracle(_TABLE_10K, n, (1, n - 1))
        assert sorted(n - x for x in xs) == xs

    @given(st.integers(min_value=2, max_value=5000))
    def test_members_pass_trial_division(self, half):
        n = 2 * half
        for x in goldbach_pairs_oracle(_TABLE_10K, n, (2, n - 2)):
            assert is_prime_trial(x) and is_prime_trial(n - x)
