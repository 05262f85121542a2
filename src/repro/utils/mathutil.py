"""Small integer/real math helpers used across the library."""

from __future__ import annotations

import math

__all__ = [
    "ceil_div", "ceil_inverse", "ceil_log2", "ilog2", "harmonic", "powers_of_two_up_to",
]


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division ``ceil(a / b)`` for positive ``b``.

    >>> ceil_div(7, 3)
    3
    """
    if b <= 0:
        raise ValueError(f"denominator must be positive, got {b}")
    return -(-a // b)


def ceil_inverse(x: float) -> int:
    """``ceil(1 / x)`` for ``x > 0``, exact at ``x = 1/q``, where the float
    ``1.0 / (1 / 49)`` is ``49.00000000000001``.

    >>> [ceil_inverse(d) for d in (1.0, 0.5, 1 / 49, 1 / 197, 0.3)]
    [1, 2, 49, 197, 4]
    """
    inverse = 1.0 / x
    nearest = round(inverse)
    return nearest if math.isclose(inverse, nearest, rel_tol=1e-9) else math.ceil(inverse)


def ilog2(n: int) -> int:
    """Floor of log2 for a positive integer."""
    if n <= 0:
        raise ValueError(f"ilog2 requires a positive integer, got {n}")
    return n.bit_length() - 1


def ceil_log2(n: int) -> int:
    """Ceiling of log2 for a positive integer.

    >>> [ceil_log2(k) for k in (1, 2, 3, 4, 5)]
    [0, 1, 2, 2, 3]
    """
    if n <= 0:
        raise ValueError(f"ceil_log2 requires a positive integer, got {n}")
    return (n - 1).bit_length()


def harmonic(n: int) -> float:
    """The n-th harmonic number H_n = 1 + 1/2 + ... + 1/n.

    This is the classical greedy set-cover approximation factor for
    instances whose largest set has size ``n``.
    """
    if n < 0:
        raise ValueError(f"harmonic number needs n >= 0, got {n}")
    if n < 100:
        return sum(1.0 / i for i in range(1, n + 1))
    # Asymptotic expansion; error < 1/(120 n^4), far below our needs.
    gamma = 0.57721566490153286
    return math.log(n) + gamma + 1.0 / (2 * n) - 1.0 / (12 * n * n)


def powers_of_two_up_to(n: int) -> list[int]:
    """All powers of two ``2^i`` with ``0 <= i <= log2(n)``.

    This is the guess schedule for the optimal cover size used by
    ``iterSetCover`` and ``algGeomSC`` (Figures 1.3 and 4.1 of the paper).

    >>> powers_of_two_up_to(10)
    [1, 2, 4, 8]
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return [1 << i for i in range(ilog2(n) + 1)]
