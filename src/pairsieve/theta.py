"""Zero-indicator primitives with two evaluation semantics.

``theta(x)`` is 1 exactly when x is zero. Divisibility tests are phrased
through it: ``theta_sin(x, d)`` asks whether sin(x*pi/d) vanishes, which
for integers means d | x. Two semantics are provided:

* exact -- integer residue arithmetic, always correct;
* float -- literal double-precision sine with a tolerance, trusted only
  inside the guarded domain x <= 10^7, d <= 10^4, where true zeros and
  the smallest nonzero sine values are provably separated.

The exact semantics is authoritative; the float form exists so the
sine construction can be demonstrated and checked against it.

``theta_sin`` is the scalar, literal form. ``theta_sin_array`` evaluates
the same indicator over whole integer arrays in either semantics, with
the same domain and guard checks, so large agreement checks run as a few
ufunc calls rather than one interpreted call per (x, d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_EPSILON",
    "EXACT",
    "GuardError",
    "ThetaMode",
    "float_approx",
    "theta",
    "theta_sin",
    "theta_sin_array",
    "theta_sin_shift",
    "double_theta",
    "theta_sum_identity",
]

#: Tolerance for the float semantics. For arguments up to 1e7*pi a true
#: zero evaluates below ~4e-9 in double precision, while the smallest
#: nonzero |sin(x*pi/d)| with d <= 1e4 is sin(pi/1e4) ~ 3e-4: four
#: orders of magnitude of separation on either side.
DEFAULT_EPSILON = 1e-8

#: The guarded domain of the float semantics, x <= _GUARD_MAX_X and
#: d <= _GUARD_MAX_D: there the double-precision error at arguments up to
#: _GUARD_MAX_X*pi stays two orders of magnitude below sin(pi/_GUARD_MAX_D),
#: so the default tolerance cleanly separates zeros from nonzeros.
_GUARD_MAX_X = 10**7
_GUARD_MAX_D = 10**4


class GuardError(ValueError):
    """Float-mode evaluation requested outside the guarded domain."""


@dataclass(frozen=True)
class ThetaMode:
    """Evaluation semantics: ``"exact"`` residues or ``"float"`` sines."""

    variant: str
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        if self.variant not in ("exact", "float"):
            raise ValueError(f"variant must be 'exact' or 'float', got {self.variant!r}")
        if self.variant == "float" and not 0.0 < self.epsilon < 1e-3:
            raise ValueError(f"epsilon must lie in (0, 1e-3), got {self.epsilon}")

    @property
    def is_exact(self) -> bool:
        return self.variant == "exact"


EXACT = ThetaMode("exact")


def float_approx(epsilon: float = DEFAULT_EPSILON) -> ThetaMode:
    """Float semantics with the given tolerance."""
    return ThetaMode("float", epsilon)


def theta(x: float) -> int:
    """1 if x == 0 (including -0.0), else 0. Rejects non-finite input."""
    if not isinstance(x, int) and not math.isfinite(x):
        raise ValueError(f"theta requires a finite value, got {x!r}")
    return 1 if x == 0 else 0


def _check_guard(x: int, d: int) -> None:
    if x > _GUARD_MAX_X or d > _GUARD_MAX_D:
        raise GuardError(
            f"float mode is only guaranteed for x <= {_GUARD_MAX_X} and "
            f"d <= {_GUARD_MAX_D}, got x={x}, d={d}"
        )


def theta_sin(x: int, d: int, mode: ThetaMode = EXACT) -> int:
    """Indicator that sin(x*pi/d) vanishes, i.e. that d divides x.

    Exact mode tests ``x % d == 0``. Float mode evaluates the sine
    literally and compares against ``mode.epsilon``; it raises
    GuardError outside x <= 10^7, d <= 10^4, the one domain where the
    tolerance is shown to separate zeros from nonzeros. Both agree on it.
    It is the class m = 0 of ``theta_sin_shift``.
    """
    return theta_sin_shift(x, 0, d, mode)


def theta_sin_array(x: np.ndarray, d: np.ndarray, mode: ThetaMode = EXACT) -> np.ndarray:
    """``theta_sin`` elementwise over integer arrays (broadcast), as bools.

    Exact mode tests ``x % d == 0``; float mode tests
    ``|sin(x*pi/d)| < mode.epsilon``. Like the scalar form it raises
    ValueError for any x < 0 or d < 1, and in float mode GuardError for
    any element outside the guarded domain.
    """
    x, d = np.broadcast_arrays(np.asarray(x), np.asarray(d))
    if x.min(initial=0) < 0:
        raise ValueError(f"x must be >= 0, got {x.min()}")
    if d.min(initial=1) < 1:
        raise ValueError(f"d must be >= 1, got {d.min()}")
    if mode.is_exact:
        return x % d == 0
    outside = (x > _GUARD_MAX_X) | (d > _GUARD_MAX_D)
    if outside.any():
        i = np.flatnonzero(outside)[0]
        _check_guard(int(x.flat[i]), int(d.flat[i]))
    return np.abs(np.sin(x * math.pi / d)) < mode.epsilon


def theta_sin_shift(x: int, m: int, d: int, mode: ThetaMode = EXACT) -> int:
    """Indicator that sin((x - m)*pi/d) vanishes, i.e. x ≡ m (mod d)."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not 0 <= m < d:
        raise ValueError(f"m must satisfy 0 <= m < d, got m={m}, d={d}")
    if mode.is_exact:
        return 1 if (x - m) % d == 0 else 0
    _check_guard(x, d)
    return 1 if abs(math.sin((x - m) * math.pi / d)) < mode.epsilon else 0


def double_theta(x: float) -> int:
    """Survivor indicator: 1 - theta(x), i.e. 1 iff x != 0."""
    return 1 - theta(x)


def theta_sum_identity(x: float, y: float) -> tuple[int, int]:
    """Both sides of the sum identity for product arguments.

    Returns ``(theta(x*y), theta(x) + theta(y) - theta(x+y))``. The two
    components are equal whenever not (x + y == 0 and x != 0); the pair
    (1, -1) is a documented counterexample outside that guard. Counting
    code never relies on this identity.
    """
    return theta(x * y), theta(x) + theta(y) - theta(x + y)
