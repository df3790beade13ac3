"""Residuals of the four-function constraint and its invariance transform.

A degree-n constant-slope family is pinned down by one constraint tying four
one-argument functions with four distinct arguments,

    sigma_x(x)*theta_z(z) + sigma_x*l(n,1) + theta_z*l(-1,1)
        - (box_n/(nu1*nu2)) * L2'(x+nu2*z) * L1'(x+nu1*z)  =  0,

which is the expanded zero-Jacobian condition between the top field and the
bottom field of the derivative chain.  The variable-slope analogue replaces
the line functions by slope-field weights solved from implicit line
equations.  Both residuals and the reciprocal invariance map live here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DomainError
from .hodograph import solve_implicit
from .jets import Jet1, jet_partial, jet_seed1
from .nu_algebra import NuPair

__all__ = [
    "Quadruple",
    "GeneralQuadruple",
    "SlopeBranch",
    "four_function_residual",
    "four_function_terms",
    "variable_slope_residual",
    "duality_transform",
]

ArrFunc = Callable[[np.ndarray], np.ndarray]
_SLOPE_CHECK_TOL = 1e-10  # largest line-equation defect SlopeBranch.resolve accepts


@dataclass(frozen=True)
class Quadruple:
    """The four derivative-level functions of a constant-slope family.

    Each callable takes (an array of) its own scalar argument:
    ``sigma_x(x)``, ``theta_z(z)``, ``l1_prime(x + nu1*z + d1)``,
    ``l2_dot(x + nu2*z + d2)``.
    """

    sigma_x: ArrFunc
    theta_z: ArrFunc
    l1_prime: ArrFunc
    l2_dot: ArrFunc
    nu: NuPair
    n: int = 3
    d1: float = 0.0
    d2: float = 0.0

    def values(self, x, z):
        """``(sigma_x, theta_z, l1_prime, l2_dot)`` at the points, each at its own argument."""
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        return (self.sigma_x(x), self.theta_z(z), self.l1_prime(x + self.nu.nu1 * z + self.d1),
                self.l2_dot(x + self.nu.nu2 * z + self.d2))


def four_function_terms(q: Quadruple, x, z):
    """The four additive terms of the constraint, separately."""
    s, t, p, qd = q.values(x, z)
    coupling = (q.nu.box_n(q.n) / (q.nu.nu1 * q.nu.nu2)) * qd * p
    return s * t, s * q.nu.combine(q.n, p, qd), t * q.nu.combine(-1, p, qd), -coupling


def _residual_pair(terms):
    """The sum of a constraint's four additive terms, and that sum divided by
    the largest term, so large-field regions cannot mask failures."""
    r = terms[0] + terms[1] + terms[2] + terms[3]
    scale = np.maximum.reduce([np.abs(t) for t in terms])
    return r, r / np.maximum(scale, 1e-30)


def four_function_residual(q: Quadruple, x, z):
    """Signed residual, and the residual over the largest of the four terms;
    zero iff the quadruple solves the constraint there."""
    return _residual_pair(four_function_terms(q, x, z))


def duality_transform(q: Quadruple, variant: str = "symmetric") -> Quadruple:
    """Reciprocal invariance map on quadruples.

    ``symmetric`` sends L2' through 1/(nu2^{n-1} L2'); ``literal`` uses
    nu1^{n-1} for both line functions.  Each component is an involution.
    Transformed functions raise on a zero denominator.
    """
    if variant not in ("symmetric", "literal"):
        raise ValueError(f"unknown duality variant {variant!r}")
    nu1, nu2, n = q.nu.nu1, q.nu.nu2, q.n
    box = q.nu.box_n(n)
    c_sigma = box / (nu1 ** (n + 1) * nu2 ** (n + 1))
    c_theta = box
    c_p = 1.0 / nu1 ** (n - 1)
    c_q = 1.0 / (nu1 ** (n - 1) if variant == "literal" else nu2 ** (n - 1))
    return replace(
        q,
        sigma_x=_reciprocal_of(q.sigma_x, c_sigma, "sigma_x"),
        theta_z=_reciprocal_of(q.theta_z, c_theta, "theta_z"),
        l1_prime=_reciprocal_of(q.l1_prime, c_p, "l1_prime"),
        l2_dot=_reciprocal_of(q.l2_dot, c_q, "l2_dot"),
    )


def _reciprocal_of(f: ArrFunc, const, name: str) -> ArrFunc:
    def g(t):
        v = np.asarray(f(t))
        if np.any(v == 0):
            raise DomainError(f"duality transform: {name} vanishes on the evaluation set")
        return const / v

    return g


# ---------------------------------------------------------------------------
# variable slopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlopeBranch:
    """One characteristic branch of a variable-slope family.

    ``kind="implicit"``: the slope field solves ``x + nu*z = theta(nu)`` and
    the branch weight is ``C'(nu) / (theta'(nu) - z)``.
    ``kind="const"``: the slope is a constant and the weight is ``-L'(x+nu*z)``
    (``lprime=None`` means the line function is absent, weight 0).
    """

    kind: str
    cprime: Callable[[np.ndarray], np.ndarray] | None = None
    theta: Callable[[Jet1], Jet1] | None = None
    seed: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    nu_const: float | None = None
    lprime: ArrFunc | None = None

    def resolve(self, x, z):
        """Slope values and weights ``P`` at the points; verifies the solve."""
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        if self.kind == "const":
            nu = np.full(np.broadcast_shapes(x.shape, z.shape), float(self.nu_const))
            if self.lprime is None:
                return nu, np.zeros_like(nu)
            return nu, -self.lprime(x + self.nu_const * z)
        if self.kind != "implicit":
            raise ValueError(f"unknown branch kind {self.kind!r}")
        seed = self.seed(x, z)
        nu = solve_implicit(self.theta, x, z, seed)
        thj = self.theta(jet_seed1(nu, 1))
        defect = np.abs(x + nu * z - thj.value)
        if np.max(defect) > _SLOPE_CHECK_TOL:
            raise DomainError(
                f"slope solve defect {np.max(defect):.2e} above {_SLOPE_CHECK_TOL:.0e}")
        qden = jet_partial(thj, 1, 0) - z
        if np.any(np.abs(qden) < 1e-10):
            raise DomainError("slope branch: theta'(nu) - z vanishes (caustic)")
        return nu, self.cprime(nu) / qden


@dataclass(frozen=True)
class GeneralQuadruple:
    """Variable-slope analogue of :class:`Quadruple`."""

    branch1: SlopeBranch
    branch2: SlopeBranch
    theta_z: ArrFunc
    sigma_x: ArrFunc


def variable_slope_residual(g: GeneralQuadruple, x, z):
    """Residual and relative residual of the variable-slope constraint at the points.

    Reduces exactly to :func:`four_function_residual` when both slopes are
    constant with weights ``-L1'/delta`` and ``L2'/delta``.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    nu1, p1 = g.branch1.resolve(x, z)
    nu2, p2 = g.branch2.resolve(x, z)
    th = g.theta_z(z)
    sg = g.sigma_x(x)
    delta = nu2 - nu1
    box = nu1 ** 2 + nu1 * nu2 + nu2 ** 2
    return _residual_pair((
        th * sg,
        sg * (nu1 ** 3 * p1 + nu2 ** 3 * p2),
        th * (p1 / nu1 + p2 / nu2),
        (delta ** 2 * box / (nu1 * nu2)) * p1 * p2,
    ))
