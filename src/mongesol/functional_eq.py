"""Residuals of the four-function constraint and its invariance transform.

A degree-n family is pinned down by one constraint tying four one-argument
functions with four distinct arguments.  In slope-weight form, with the two
characteristic slopes ``nu1``, ``nu2``, their weights ``P1``, ``P2`` and
``delta = nu2 - nu1``, it reads

    theta_z*sigma_x + sigma_x*(nu1^n P1 + nu2^n P2) + theta_z*(P1/nu1 + P2/nu2)
        + (delta^2 box_n/(nu1*nu2)) * P1 * P2  =  0,

which is the expanded zero-Jacobian condition between the top field and the
bottom field of the derivative chain.  ``_constraint_terms`` evaluates it,
and both residuals go through it.  A constant-slope family (eq5) has the
weights ``P1 = -L1'(x+nu1*z)/delta`` and ``P2 = L2'(x+nu2*z)/delta``.  A
variable-slope family (eq10) has slope fields solved from implicit line
equations, each weighted by its branch (:class:`SlopeBranch`), at degree 3.
The reciprocal invariance map of constant-slope quadruples lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DomainError
from .hodograph import solve_implicit
from .jets import Jet1, jet_partial, jet_seed1
from .nu_algebra import NuPair, box

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


def _constraint_terms(n: int, theta_z, sigma_x, branch1, branch2):
    """The four additive terms of the degree-``n`` constraint in slope-weight form,
    each branch a pair ``(nu, P)`` of slopes and weights (numbers or arrays)."""
    (nu1, p1), (nu2, p2) = branch1, branch2
    coupling = (nu2 - nu1) ** 2 * box(n, nu1, nu2) / (nu1 * nu2)
    return (theta_z * sigma_x,
            sigma_x * (nu1 ** n * p1 + nu2 ** n * p2),
            theta_z * (p1 / nu1 + p2 / nu2),
            coupling * p1 * p2)


def four_function_terms(q: Quadruple, x, z):
    """The four additive terms of the constraint, separately: the slope-weight form
    at the weights ``-L1'/delta`` and ``L2'/delta``."""
    s, t, p, qd = q.values(x, z)
    nu, delta = q.nu, q.nu.delta
    return _constraint_terms(q.n, t, s, (nu.nu1, -p / delta), (nu.nu2, qd / delta))


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

    The slope field solves ``x + nu*z = theta(nu)``, from the starting slopes
    ``seed(x, z)``, and the branch weight is ``cprime(nu) / (theta'(nu) - z)``.
    """

    cprime: Callable[[np.ndarray], np.ndarray]
    theta: Callable[[Jet1], Jet1]
    seed: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def resolve(self, x, z):
        """Slope values and weights ``P`` at the points.  The slopes are
        ``solve_implicit``'s roots: its tests bound their line-equation defect and
        keep the weight's denominator ``theta'(nu) - z`` off zero (a fold is its
        ``FoldError``)."""
        x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
        nu = solve_implicit(self.theta, x, z, self.seed(x, z))
        qden = jet_partial(self.theta(jet_seed1(nu, 1)), 1, 0) - z
        return nu, self.cprime(nu) / qden


@dataclass(frozen=True)
class GeneralQuadruple:
    """Variable-slope analogue of :class:`Quadruple`, at degree 3.

    ``branch1=None`` is the constant slope 1 with no line function (weight 0),
    which pairs the one root of a one-root family.
    """

    branch1: SlopeBranch | None
    branch2: SlopeBranch
    theta_z: ArrFunc
    sigma_x: ArrFunc


def variable_slope_residual(g: GeneralQuadruple, x, z):
    """Residual and relative residual of the variable-slope constraint at the points."""
    x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
    shape = np.broadcast_shapes(x.shape, z.shape)
    branch1 = ((np.full(shape, 1.0), np.zeros(shape)) if g.branch1 is None
               else g.branch1.resolve(x, z))
    branch2 = g.branch2.resolve(x, z)
    return _residual_pair(_constraint_terms(3, g.theta_z(z), g.sigma_x(x), branch1, branch2))
