import math
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pairsieve import (
    DEFAULT_EPSILON,
    EXACT,
    GuardError,
    ThetaMode,
    double_theta,
    float_approx,
    theta,
    theta_sin,
    theta_sin_array,
    theta_sin_shift,
    theta_sum_identity,
)

FLOAT8 = float_approx(1e-8)

# Zero or a magnitude in [1e-60, 1e6]: products and fifth powers of such
# values stay clear of double-precision underflow, so the real-number
# identities are exercised without float artifacts.
finite_floats = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-60, max_value=1e6),
    st.floats(min_value=-1e6, max_value=-1e-60),
)


class TestTheta:
    def test_zero_and_nonzero(self):
        assert theta(0) == 1
        assert theta(3.2) == 0
        assert theta(-0.0) == 1

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            theta(math.inf)
        with pytest.raises(ValueError):
            theta(math.nan)

    def test_huge_int_is_fine(self):
        assert theta(10**400) == 0

    @given(finite_floats)
    def test_is_zero_indicator(self, x):
        assert theta(x) == (1 if x == 0 else 0)


class TestThetaSin:
    def test_exact_examples(self):
        assert theta_sin(3, 3) == 1
        assert theta_sin(4, 3) == 0

    def test_float_example(self):
        # |sin(2*pi)| in double precision is ~2.4e-16, far below 1e-8
        assert theta_sin(10, 5, FLOAT8) == 1

    # theta_sin is theta_sin_shift's class 0: the same error, type and
    # message, for every input it rejects, in either mode
    def test_domain_errors(self):
        for x, d, message in [(-1, 3, "x must be >= 0, got -1"), (3, 0, "d must be >= 1, got 0"),
                              (-1, 0, "x must be >= 0, got -1")]:
            for mode in (EXACT, FLOAT8):
                with pytest.raises(ValueError) as scalar:
                    theta_sin(x, d, mode)
                with pytest.raises(ValueError) as shifted:
                    theta_sin_shift(x, 0, d, mode)
                assert (scalar.type, str(scalar.value)) == (shifted.type, str(shifted.value)) \
                    == (ValueError, message)

    def test_guard_errors(self):
        for x, d in [(10**7 + 1, 3), (5, 10**4 + 1), (10**7 + 1, 10**4 + 1)]:
            with pytest.raises(GuardError) as scalar:
                theta_sin(x, d, FLOAT8)
            with pytest.raises(GuardError) as shifted:
                theta_sin_shift(x, 0, d, FLOAT8)
            assert str(scalar.value) == str(shifted.value) == (
                f"float mode is only guaranteed for x <= 10000000 and d <= 10000, "
                f"got x={x}, d={d}")
        with pytest.raises(GuardError):
            theta_sin_shift(10**7 + 1, 1, 3, FLOAT8)
        # the edges themselves are inside
        assert theta_sin(10**7, 10**4, FLOAT8) == 1
        assert theta_sin_shift(10**7, 1, 10**4, FLOAT8) == 0
        # exact mode has no guard
        assert theta_sin(10**9 + 1, 10**6) == 0
        assert theta_sin(10**9, 10**6) == 1

    def test_default_guard_separates_zeros_from_nonzeros(self):
        from pairsieve.theta import _GUARD_MAX_D, _GUARD_MAX_X

        # true zeros at the harshest corner (d=1, x at the guard edge)
        # still evaluate well below epsilon
        for x in range(_GUARD_MAX_X - 20, _GUARD_MAX_X + 1):
            assert abs(math.sin(x * math.pi)) < DEFAULT_EPSILON / 3
        # while the smallest nonzero sine for any admissible d sits two
        # orders of magnitude above it
        assert math.sin(math.pi / _GUARD_MAX_D) > 100 * DEFAULT_EPSILON

    def test_exhaustive_mode_agreement_small(self):
        # and each mode is theta_sin_shift's class 0
        for d in range(1, 31):
            for x in range(0, 3001):
                exact, approx = theta_sin(x, d), theta_sin(x, d, FLOAT8)
                assert exact == approx == theta_sin_shift(x, 0, d) \
                    == theta_sin_shift(x, 0, d, FLOAT8), (x, d)

    @given(st.integers(min_value=0, max_value=10**7),
           st.integers(min_value=1, max_value=10**4))
    @example(10**7, 10**4)
    @example(10**7 - 1, 1)
    def test_mode_agreement_sampled(self, x, d):
        exact, approx = theta_sin(x, d), theta_sin(x, d, FLOAT8)
        assert exact == approx == theta_sin_shift(x, 0, d) == theta_sin_shift(x, 0, d, FLOAT8)


class TestThetaSinArray:
    def test_examples(self):
        x = np.array([0, 3, 4, 10])
        assert theta_sin_array(x, 3).tolist() == [True, True, False, False]
        assert theta_sin_array(x, np.array([1, 3, 3, 5]), FLOAT8).tolist() == [True] * 2 + \
            [False, True]
        assert theta_sin_array(np.array([], dtype=np.int64), 3, FLOAT8).tolist() == []

    def test_criterion_4_domain_agrees_with_margins(self):
        # acceptance criterion 4's exhaustive grid and its 10^6 seeded draws,
        # on the array path: float equals exact. True zeros evaluate to about
        # 4e-11 on the grid (x <= 1e5) and to about 2.8e-9 among the draws
        # (x near 1e7), a third of the tolerance as in the guard test above;
        # the smallest nonzero sine, about 3.1e-4, sits far above it
        zero_max, nonzero_min = 0.0, 1.0

        def agree(x, d):
            nonlocal zero_max, nonzero_min
            exact = theta_sin_array(x, d)
            assert np.array_equal(theta_sin_array(x, d, FLOAT8), exact)
            sines = np.abs(np.sin(x * math.pi / d))
            zero_max = max(zero_max, sines[exact].max(initial=0.0))
            nonzero_min = min(nonzero_min, sines[~exact].min(initial=1.0))

        xs = np.arange(100001)
        for d in range(1, 101):
            agree(xs, d)
        assert zero_max < DEFAULT_EPSILON / 100
        rng = random.Random(0xD1CE)
        for _ in range(10):
            d, x = np.array([(rng.randint(1, 10**4), rng.randint(0, 10**7))
                             for _ in range(10**5)]).T
            agree(x, d)
        assert zero_max < DEFAULT_EPSILON / 3
        assert nonzero_min > 100 * DEFAULT_EPSILON

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=10**7),
                              st.integers(min_value=1, max_value=10**4)), min_size=1))
    def test_matches_scalar_elementwise(self, pairs):
        x, d = np.array(pairs).T
        for mode in (EXACT, FLOAT8):
            assert theta_sin_array(x, d, mode).tolist() == \
                [theta_sin(a, b, mode) == 1 for a, b in pairs]

    @pytest.mark.parametrize("x,d,mode,error", [
        (-1, 3, EXACT, ValueError), (-1, 3, FLOAT8, ValueError),
        (3, 0, EXACT, ValueError), (3, 0, FLOAT8, ValueError),
        (10**7 + 1, 3, FLOAT8, GuardError), (5, 10**4 + 1, FLOAT8, GuardError),
    ])
    def test_errors_match_scalar(self, x, d, mode, error):
        with pytest.raises(ValueError) as scalar:
            theta_sin(x, d, mode)
        # the bad element is not the first one
        with pytest.raises(ValueError) as array:
            theta_sin_array(np.array([6, x]), np.array([2, d]), mode)
        assert scalar.type is array.type is error

    def test_exact_mode_has_no_guard(self):
        assert theta_sin_array(np.array([10**9 + 1, 10**9]), 10**6).tolist() == [False, True]


class TestThetaSinShift:
    def test_examples(self):
        assert theta_sin_shift(11, 1, 5) == 1
        assert theta_sin_shift(13, 2, 7) == 0

    def test_matches_brute_residue_enumeration(self):
        # x in 1..10 with x ≡ 4 (mod 5) is exactly {4, 9}
        hits = [x for x in range(1, 11) if theta_sin_shift(x, 4, 5) == 1]
        assert hits == [4, 9]
        assert theta_sin_shift(9, 4, 5) == 1

    def test_residue_out_of_range(self):
        with pytest.raises(ValueError):
            theta_sin_shift(10, 5, 5)
        with pytest.raises(ValueError):
            theta_sin_shift(10, -1, 5)

    @given(st.integers(min_value=0, max_value=10**5),
           st.integers(min_value=1, max_value=500),
           st.data())
    def test_mode_agreement(self, x, d, data):
        m = data.draw(st.integers(min_value=0, max_value=d - 1))
        assert theta_sin_shift(x, m, d) == theta_sin_shift(x, m, d, FLOAT8)

    @given(st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=1, max_value=1000),
           st.data())
    def test_exact_is_congruence(self, x, d, data):
        m = data.draw(st.integers(min_value=0, max_value=d - 1))
        assert theta_sin_shift(x, m, d) == (1 if x % d == m else 0)


class TestDoubleTheta:
    def test_examples(self):
        assert double_theta(0) == 0
        assert double_theta(7.5) == 1

    def test_unfolds_to_nested_application(self):
        # double application spelled out: theta(theta(0)) = theta(1) = 0
        assert theta(theta(0)) == 0
        assert theta(1) == 0
        for v in (0, 1, -2.5):
            assert double_theta(v) == theta(theta(v))

    @given(finite_floats, finite_floats)
    def test_product_rule_for_all_finite_inputs(self, a, b):
        assert double_theta(a * b) == double_theta(a) * double_theta(b)

    @given(st.integers(min_value=-10, max_value=10).filter(bool),
           st.integers(min_value=1, max_value=5),
           finite_floats)
    def test_scaling_power_identity(self, m, k, s):
        assert theta(m * s**k) == theta(s)


class TestThetaSumIdentity:
    def test_one_side_zero(self):
        assert theta_sum_identity(0, 5) == (1, 1)

    def test_both_zero(self):
        assert theta_sum_identity(0, 0) == (1, 1)

    def test_documented_counterexample(self):
        lhs, rhs = theta_sum_identity(1, -1)
        assert (lhs, rhs) == (0, -1)
        assert lhs != rhs

    @given(finite_floats, finite_floats)
    def test_holds_under_guard(self, x, y):
        if x + y == 0 and x != 0:
            lhs, rhs = theta_sum_identity(x, y)
            assert lhs == 0 and rhs == -1
        else:
            lhs, rhs = theta_sum_identity(x, y)
            assert lhs == rhs


class TestThetaMode:
    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            float_approx(0.0)
        with pytest.raises(ValueError):
            float_approx(1e-3)
        with pytest.raises(ValueError):
            float_approx(-1e-9)
        assert float_approx(9e-4).epsilon == 9e-4

    def test_variant_names(self):
        with pytest.raises(ValueError):
            ThetaMode("fuzzy")
        assert EXACT.is_exact
        assert not FLOAT8.is_exact
