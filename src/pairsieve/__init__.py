"""Verified counting of primes, composites and interval Goldbach prime
pairs through residue sieves, with independent brute-force oracles."""

from .oracle import (
    PrimeTable,
    build_prime_table,
    goldbach_pairs_oracle,
    is_prime_trial,
    pi_oracle,
)
from .theta import (
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
from .legendre import (
    COMPOSITE_METHODS,
    PRIME_METHODS,
    composite_count,
    count_multiples,
    make_basis,
    prime_count,
    varpi_p,
    varpi_pq,
)
from .xi import (
    PairCounts,
    ResidueBasis,
    ScanSummary,
    bound_value,
    default_interval,
    iter_pair_counts,
    make_residue_basis,
    pair_counts,
    pair_counts_and_array,
    prime_pair_list,
    scan_bounds,
    scan_columns,
    tilde_composite_pairs,
    tilde_composite_pairs_ie,
)

__version__ = "0.1.0"
