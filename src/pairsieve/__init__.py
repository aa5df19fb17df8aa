"""Verified counting of primes, composites and interval Goldbach prime
pairs through residue sieves, with independent brute-force oracles."""

import os
import sys

# pairsieve makes no BLAS call, yet numpy's OpenBLAS starts nproc - 1
# worker threads as it loads, and each spins before it sleeps. On a
# 2-vCPU Xeon the spin slowed `import pairsieve` from 0.20 to 0.31 s when
# it shared the importing CPU, or about doubled a short command's CPU time
# when it ran beside it. OpenBLAS reads its thread count once, as it
# loads, so numpy loads here with one thread unless the caller chose a
# count or loaded numpy first. The variable is then removed, so that no
# child process inherits it.
if "numpy" not in sys.modules and not (
        {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys()):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

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
