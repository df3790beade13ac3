"""The characteristic slope pair and its slope-weighted line combination.

The constant-slope solution families are assembled from two one-argument
functions evaluated on the lines ``x + nu1*z + d1`` and ``x + nu2*z + d2``.
:class:`NuPair` holds the two slopes with their derived constants and the one
combination :meth:`NuPair.combine` that every chain field, the top field and
the derivative-level forms are built from.  :func:`box` is the one slope
bracket, for constant slopes and for slope fields alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .jets import _times

__all__ = ["NuPair", "box"]


@dataclass(frozen=True)
class NuPair:
    """The two characteristic slopes with their derived constants.

    Degenerate (equal) or vanishing slopes are rejected at construction:
    every downstream formula divides by ``nu2 - nu1`` or by a slope.
    """

    nu1: complex
    nu2: complex

    def __post_init__(self):
        if self.nu1 == self.nu2:
            raise ConfigError("nu1 == nu2: the slope pair must be distinct (delta != 0)")
        if self.nu1 == 0 or self.nu2 == 0:
            raise ConfigError("slopes must be nonzero (reciprocal powers appear in W)")

    @property
    def delta(self):
        return self.nu2 - self.nu1

    @property
    def rho(self):
        return (self.nu1 + self.nu2) * self.nu1 * self.nu2 / self.box_n(3)

    def box_n(self, n: int):
        """The slope bracket :func:`box` of this pair."""
        return box(n, self.nu1, self.nu2)

    def combine(self, s: int, a1, a2):
        """``(nu2^s a2 - nu1^s a1) / (nu2 - nu1)`` for jets or arrays ``a1``, ``a2``.

        ``a1`` belongs to the line of slope ``nu1`` and ``a2`` to that of
        ``nu2``.  A negative power is taken as the reciprocal of the positive
        one, so ``s = -1`` weighs by exactly ``1/nu``.
        """
        w1, w2 = (nu ** s if s >= 0 else 1.0 / nu ** -s for nu in (self.nu1, self.nu2))
        return _times(_times(a2, w2) - _times(a1, w1), 1.0 / self.delta)


def box(n: int, nu1, nu2):
    """The slope bracket ``sum_{j<n} nu1^j nu2^(n-1-j) == (nu2^n - nu1^n)/(nu2 - nu1)``.

    ``nu1`` and ``nu2`` are numbers or arrays.  The terms are summed from
    ``j = n-1`` down, so ``box(3, ...)`` is ``nu1**2 + nu1*nu2 + nu2**2`` bit
    for bit on real slopes.
    """
    if n < 0:
        raise ValueError("box takes a nonnegative integer")
    return sum(nu1 ** j * nu2 ** (n - 1 - j) for j in range(n - 1, -1, -1))
