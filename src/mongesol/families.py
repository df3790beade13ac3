"""Catalog of explicit solution families of the degree-n equation.

Each family is built as a :class:`FieldBundle`: point-evaluable jets of the
derivative chain ``a0 .. a{n-1}``, the top field ``W`` and the bottom field
``f`` (an alias of ``a0``), together with the family's derivative quadruple
or its variable-slope equivalent, the tagged closed-form W-f relation, and a
safe domain whose predicates guard every logarithm argument and denominator,
so that evaluation outside it is an error, never a NaN.

Ground truth is the derivative level: every family stores closed forms for
the derivative functions, and the antiderivatives used for ``f`` and ``W``
were re-derived to match them exactly (the verifier cross-checks this by
quadrature).  Mutated bundles, used to prove the checks have teeth, rescale
one constituent function together with its antiderivative.

Adding a family means three things here: a frozen config dataclass (its
``tag`` and its parameters), a builder that turns a config into a
:class:`FieldBundle`, and one ``_REGISTRY`` entry that ties the two to the
family's canonical parameters.  The builder leaves the bundle's ``family``,
``config`` and ``mutations`` unset: :func:`make_family` stamps them, and it
rejects a mutation slot the bundle does not list.  ``FAMILY_TAGS``,
:func:`canonical_config` and the JSON form (:func:`family_from_dict` /
:func:`family_to_dict`) all follow from the registry: the JSON keys are the
field names in dataclass order, after ``family`` and ``rect``.  A
constant-slope family's builder makes its bundle with :func:`_line_bundle`,
and a variable-slope family's with :func:`_slope_root_bundle`.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
import sys
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ConvergenceError, DomainError
from .functional_eq import GeneralQuadruple, Quadruple, SlopeBranch
from .hodograph import _FOLD_TOL, _univariate_on_jet, implicit_jet, solve_implicit
from .jets import (
    Jet1,
    Jet2,
    compose_series,
    jet_partial,
    jet_seed,
    jet_seed1,
    jexp,
    jlog,
    jpow,
    jsqrt,
    poly_jet,
    _Sum,
    _sum,
    _times,
)
from .nu_algebra import NuPair

__all__ = [
    "SafeDomain",
    "FieldBundle",
    "TrivialConfig",
    "M1ImplicitConfig",
    "DegenerateConfig",
    "SigmaConstConfig",
    "L1ConstConfig",
    "ThetaConstConfig",
    "HodographExampleConfig",
    "GeneralNuConfig",
    "GeneralNuE0Config",
    "NThetaConstConfig",
    "make_family",
    "family_from_dict",
    "family_to_dict",
    "canonical_config",
    "trivial_random_symmetric",
    "FAMILY_TAGS",
    "MAX_DEGREE",
]

JetFunc = Callable[[Jet2], Jet2]
EPS = 1e-6  # margin required of every log/denominator predicate

# Highest degree n of the families that take one (trivial, mn_theta_const): the
# trivial family builds n chain fields, about 0.06 MB each on a 21x21 grid.
MAX_DEGREE = 64


# ---------------------------------------------------------------------------
# safe domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SafeDomain:
    """Rectangle plus exclusion predicates.

    A predicate maps point arrays to a margin; a point is admissible when
    every margin is positive.  ``require`` raises for points outside the
    admissible set, naming the predicate they violate.  ``x`` and ``z``
    may be any two broadcastable arrays; a predicate may return a margin of
    either's shape, and ``mask`` returns the broadcast shape.
    """

    rect: tuple[float, float, float, float]
    predicates: tuple[tuple[str, Callable[[np.ndarray, np.ndarray], np.ndarray]], ...] = ()

    def mask(self, x, z) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        ok = np.ones(np.broadcast_shapes(x.shape, z.shape), dtype=bool)
        for _, pred in self.predicates:
            ok &= np.asarray(pred(x, z)) > 0
        return ok

    def require(self, x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        for name, pred in self.predicates:
            outside = ~(np.asarray(pred(x, z)) > 0)  # a NaN margin is outside, as in mask
            if np.any(outside):
                raise DomainError(
                    f"point outside safe domain: predicate {name!r} violated at "
                    f"{int(np.count_nonzero(outside))} point(s)"
                )


# ---------------------------------------------------------------------------
# field bundles
# ---------------------------------------------------------------------------


@dataclass
class FieldBundle:
    """One configured family, evaluable everywhere on its safe domain.

    Builders fill in everything up to ``w_value_fn``; :func:`make_family`
    stamps ``family``, ``config`` and ``mutations`` on the bundle it returns.
    The family's parameters are those of ``config`` (a report writes them
    with :func:`family_to_dict`); the bundle keeps no second copy.
    ``fields_fn(x, z, m)`` returns a ``Mapping``, not necessarily a dict, from
    ``a0 .. a{n-1}``, ``W`` and ``f`` to their order-``m`` jets, for any
    ``m >= 0`` (order 0: values only); readers index it by name and never
    mutate it, and an entry may be built only when it is first read (see
    :class:`_Fields`).  ``derivative_forms(x, z)`` returns a
    ``Mapping`` from ``f_x``, ``f_z``, ``W_x``, ``W_z`` to arrays whose
    entries, too, may be built on first read.  It takes broadcastable ``x``
    and ``z``, as the domain predicates do, and may return a form of the
    shape of either (an x-only form on an (nx, 1, 1) column of x runs on nx
    values only).
    """

    n: int
    domain: SafeDomain
    wf_relation: str | None
    mutation_slots: tuple[str, ...]
    fields_fn: Callable[[np.ndarray, np.ndarray, int], Mapping[str, Jet2]]
    quadruple: Quadruple | None = None
    general_quadruple: GeneralQuadruple | None = None
    wf_residual: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    derivative_forms: Callable[[np.ndarray, np.ndarray], Mapping[str, np.ndarray]] | None = None
    wprime_fn: Callable[[Mapping[str, Jet2]], np.ndarray] | None = None
    w_value_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None
    family: str = ""
    config: object = None
    mutations: dict = field(default_factory=dict)

    def w_of_f(self, tvals, x_near, z_near, jets=None):
        """The implied univariate map f -> W, evaluated at ``tvals``.

        Families with an explicit top function use it; otherwise the value is
        looked up by sliding along x at fixed z until the bottom field
        matches, which is valid precisely because W and f are functionally
        dependent.  The slide reads values and d/dx of f and W only, so it
        runs on order-1 jets and never builds a lazy chain field; an iterate
        outside the safe domain is the DomainError of ``SafeDomain.require``.
        ``jets``, if given, maps ``f`` and ``W`` to their jets (order >= 1,
        shaped like ``tvals``) at the admissible points ``x_near, z_near``:
        the first Newton step reads them and evaluates nothing.  Their values
        and x-slopes are those of a fresh order-1 evaluation, so the seed
        moves no bit.
        """
        tvals = np.asarray(tvals)
        if self.w_value_fn is not None:
            return self.w_value_fn(tvals, np.asarray(x_near), np.asarray(z_near))
        x = np.array(np.broadcast_to(np.asarray(x_near, dtype=float), tvals.shape), copy=True)
        z = np.broadcast_to(np.asarray(z_near, dtype=float), tvals.shape)
        scale = np.maximum(np.max(np.abs(tvals)), 1.0)
        fj = jets
        for _ in range(40):
            if fj is None:
                self.domain.require(x, z)
                fj = self.fields_fn(x, z, 1)
            err = fj["f"].value - tvals
            if np.max(np.abs(err)) <= 1e-12 * scale:
                return fj["W"].value
            fx = jet_partial(fj["f"], 1, 0)
            if np.any(np.abs(fx) < 1e-14):
                raise ConvergenceError("w_of_f: flat bottom field along the slice")
            x = x - (err / fx).real
            fj = None
        raise ConvergenceError("w_of_f: slice inversion did not converge")


# ---------------------------------------------------------------------------
# small building blocks
# ---------------------------------------------------------------------------


class _Fields(Mapping):
    """What a ``fields_fn`` returns (field name -> jet) or a ``derivative_forms``
    (form name -> array).

    An entry given as a zero-argument callable is built on its first read and
    kept, so a reader of ``f`` and ``W`` alone (the ``w_of_f`` slide) never
    pays for the chain fields, nor a column of the quadrature cross-check for
    the x-forms.  An entry's value does not depend on when it is built, so
    laziness moves no bit.
    """

    def __init__(self, **entries):
        self._entries = entries

    def __getitem__(self, name):
        entry = self._entries[name]
        if callable(entry):
            entry = self._entries[name] = entry()
        return entry

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)


def _poly_fn(coeffs: Sequence) -> JetFunc:
    coeffs = tuple(coeffs)
    return lambda tj: poly_jet(coeffs, tj)


def _poly_deriv(coeffs: Sequence, order: int = 1) -> tuple:
    """The coefficients of the ``order``-th derivative; one that overflows to a
    non-finite number is an OverflowError, as a Python float product gives none."""
    out = list(coeffs)
    for _ in range(order):
        out = [k * ck for k, ck in enumerate(out)][1:]
    if not all(map(cmath.isfinite, out)):
        raise OverflowError("a derivative coefficient of a polynomial is not finite")
    return tuple(out)


# The 48-node Gauss-Legendre rule on [-1, 1]: its 24 positive nodes, ascending,
# and their weights, as the shortest round-tripping literals of the bits that
# numpy's leggauss(48) gives (numpy 2.4.6).  leggauss makes its rule exactly
# symmetric, so the mirror below reproduces all 48 nodes and weights bit for bit,
# with no numpy.polynomial import at run time and no eigensolve, whose last bits
# may differ between LAPACK builds.
_GAUSS_HALF = (
    (0.03238017096286937, 0.06473769681268365),
    (0.0970046992094627, 0.06446616443594982),
    (0.1612223560688917, 0.06392423858464787),
    (0.22476379039468905, 0.06311419228625373),
    (0.28736248735545555, 0.06203942315989242),
    (0.3487558862921607, 0.0607044391658936),
    (0.4086864819907167, 0.059114839698395344),
    (0.4669029047509584, 0.057277292100402916),
    (0.523160974722233, 0.05519950369998403),
    (0.5772247260839727, 0.05289018948519344),
    (0.6288673967765136, 0.0503590355538542),
    (0.6778723796326639, 0.04761665849249024),
    (0.7240341309238146, 0.04467456085669423),
    (0.7671590325157404, 0.04154508294346455),
    (0.8070662040294426, 0.0382413510658305),
    (0.8435882616243935, 0.034777222564770394),
    (0.8765720202742479, 0.031167227832798097),
    (0.9058791367155696, 0.027426509708357034),
    (0.9313866907065543, 0.023570760839324047),
    (0.9529877031604308, 0.019616160457356056),
    (0.9705915925462473, 0.015579315722943226),
    (0.9841245837228269, 0.011477234579234614),
    (0.9935301722663508, 0.007327553901276135),
    (0.9987710072524261, 0.0031533460523098414),
)
_GAUSS_X, _GAUSS_W = (np.concatenate((sign * half[::-1], half))  # nodes odd, weights even
                      for sign, half in zip((-1.0, 1.0), np.array(_GAUSS_HALF).T))
_BLOCK = 32768  # quadrature nodes per block of _Primitive.value: cache-sized temporaries


class _Primitive:
    """Antiderivatives of a jet-evaluable integrand's components, anchored at ``ref``.

    ``integrand`` maps a jet to a tuple of jets, one per component, so
    components that share a factor (a weight times powers of s) evaluate it
    once per node; ``value`` and ``__call__`` return one antiderivative per
    component, in the same order.  Values come from fixed Gauss-Legendre
    quadrature (the integrand is smooth on every safe domain), summed over
    blocks of at most ``_BLOCK`` nodes; each value is its own row's sum, so
    the blocking moves no bit.  Jet coefficients integrate each component's
    own jet, so all derivatives are exact.
    """

    def __init__(self, integrand: Callable[[Jet1], tuple[Jet1, ...]], ref: float):
        self.integrand = integrand
        self.ref = float(ref)

    def value(self, t) -> tuple[np.ndarray, ...]:
        t = np.asarray(t, dtype=float)
        rows, flat = _BLOCK // _GAUSS_X.size, t.ravel()
        blocks = [self._gauss(flat[k:k + rows]) for k in range(0, max(flat.size, 1), rows)]
        return tuple(np.concatenate(parts).reshape(t.shape) for parts in zip(*blocks))

    def _gauss(self, t):
        half = (t - self.ref) / 2.0
        mid = (t + self.ref) / 2.0
        nodes = mid[..., None] + half[..., None] * _GAUSS_X  # (..., 48)
        # the sums read values only, and a jet's value never depends on its order
        return tuple(np.sum(g.value * _GAUSS_W, axis=-1) * half
                     for g in self.integrand(jet_seed1(nodes, 0)))

    def __call__(self, a: Jet2) -> tuple[Jet2, ...]:
        base = self.value(a.value)
        if a.m == 0:  # + 0.0 as compose_series's +0 start: a -0 value becomes +0
            return tuple(Jet2.constant(b + 0.0, 0) for b in base)
        t = jet_seed1(a.value, a.m - 1)
        return tuple(compose_series([b] + [g.plane(k, 0) / (k + 1) for k in range(a.m)], a)
                     for b, g in zip(base, self.integrand(t)))


def _last_root(solve):
    """``solve(x, z)`` keeping its last (read-only) root, keyed by the bytes of the
    broadcast points: a mask's grid and its flat points, all admitted, share one
    solve.  Another point set, a subset too, is solved again, since a root's bits
    depend on the whole set (its iteration count).  A solve that raises keeps nothing."""
    last = [None, None]  # key, root

    def cached(x, z):
        x, z = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(z, dtype=float))
        key = (x.tobytes(), z.tobytes())
        if key != last[0]:
            root = np.asarray(solve(x, z))  # an array also at a single point
            root.flags.writeable = False
            last[:] = key, root
        return last[1].reshape(x.shape)

    return cached


def _scaled(f, s: float):
    """``f`` (on jets or arrays) scaled by the mutation factor ``s``; ``f`` if unmutated."""
    return f if s == 1.0 else lambda t: f(t) * s


def _centre(rect) -> tuple:
    """The centre ``(x, z)`` of the rectangle ``(x_lo, x_hi, z_lo, z_hi)``."""
    return 0.5 * (rect[0] + rect[1]), 0.5 * (rect[2] + rect[3])


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrivialConfig:
    """Superposition over the n-th roots of unity; the top map is identity."""

    n: int
    terms: tuple  # ((lam, coeffs), ...): real or complex lam, polynomial coeffs
    rect: tuple = (-0.8, 0.8, -0.8, 0.8)
    tag = "trivial"

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("trivial family needs degree n >= 1")
        if self.n > MAX_DEGREE:
            raise ConfigError(f"trivial family degree n must be at most {MAX_DEGREE}, got {self.n}")
        if not self.terms:
            raise ConfigError("trivial family needs at least one term")
        for lam, _ in self.terms:
            if abs(complex(lam) ** self.n - 1.0) > 1e-9:
                raise ConfigError(f"term slope {lam!r} is not an n-th root of unity")


@dataclass(frozen=True)
class M1ImplicitConfig:
    """Degree-1 family from the classical implicit slope solution."""

    F: tuple                 # F of the implicit slope equation x + lam*z = F(lam)
    seed_lambda: float = 1.0
    rect: tuple = (1.0, 2.0, 0.1, 0.5)
    tag = "m1_implicit"


@dataclass(frozen=True)
class DegenerateConfig:
    """Degree-2 family where all chain fields ride one implicit scalar."""

    C: tuple                 # the bottom map C (inverse of the top map)
    G: tuple                 # right-hand side of the implicit equation
    seed_a: float = 1.0
    rect: tuple = (2.0, 4.0, 0.1, 0.6)
    tag = "degenerate"

    def __post_init__(self):
        if len(self.C) < 2:
            raise ConfigError("degenerate family: C must be non-constant")


@dataclass(frozen=True)
class SigmaConstConfig:
    """Degree-3 family with constant sigma_x = A."""

    nu: tuple
    A: float = 1.0
    k: float = 1.0
    d1: float = 0.0
    d2: float = 0.0
    rect: tuple = (0.5, 2.5, 0.4, 2.0)
    tag = "m3_sigma_const"


@dataclass(frozen=True)
class L1ConstConfig:
    """Degree-3 family with constant first line derivative L1' = D."""

    nu: tuple
    D: float = 1.0
    k: float = 1.0
    rect: tuple = (1.6, 3.0, 0.30, 0.70)
    tag = "m3_l1_const"


@dataclass(frozen=True)
class ThetaConstConfig:
    """Degree-3 family with constant theta_z = E."""

    nu: tuple
    E: float = 1.0
    k: float = 1.0
    rect: tuple = (0.8, 1.8, 0.8, 1.8)
    tag = "m3_theta_const"


@dataclass(frozen=True)
class HodographExampleConfig:
    """Degree-3 family with one constant slope and slope field -x/z."""

    k: float = 1.0
    alpha: float = 1.0
    beta: float = 2.0
    rect: tuple = (-3.0, -1.0, 0.5, 2.0)
    tag = "m3_hodograph_example"


@dataclass(frozen=True)
class GeneralNuConfig:
    """Degree-3 family with both slopes variable (square line maps)."""

    g: float = -1.0
    rect: tuple = (2.2, 4.0, 0.2, 0.8)
    tag = "m3_general"

    def __post_init__(self):
        if self.g == 0:
            raise ConfigError("m3_general requires g != 0")


@dataclass(frozen=True)
class GeneralNuE0Config:
    """Degree-3 family with both slopes variable and vanishing theta_z."""

    a: float = 1.0
    alpha1: float = 1.0
    alpha2: float = 2.0
    rect: tuple = (-2.5, -1.5, 3.4, 5.0)
    tag = "m3_general_e0"

    def __post_init__(self):
        if self.a <= 0:
            raise ConfigError("m3_general_e0 requires a > 0 on the real branch")
        if self.alpha1 == self.alpha2:
            raise ConfigError("m3_general_e0 requires alpha1 != alpha2")
        if self.alpha1 <= 0 or self.alpha2 <= 0:
            raise ConfigError("m3_general_e0 requires positive alpha1, alpha2")


@dataclass(frozen=True)
class NThetaConstConfig:
    """Degree-n generalisation of the constant-theta_z family."""

    n: int
    nu: tuple
    E: float = 1.0
    k: float = 0.1
    c: float = 1.0
    cbar: float = 1.0
    rect: tuple = (0.5, 1.5, 0.5, 1.5)
    tag = "mn_theta_const"

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("mn_theta_const needs degree n >= 2")
        if self.n > MAX_DEGREE:
            raise ConfigError(f"mn_theta_const degree n must be at most {MAX_DEGREE}, got {self.n}")
        if self.c == 0 or self.cbar == 0:
            raise ConfigError("mn_theta_const needs nonzero mode amplitudes c, cbar")


# ---------------------------------------------------------------------------
# builders: polynomial-chain families
# ---------------------------------------------------------------------------


def _build_trivial(cfg: TrivialConfig, scales) -> FieldBundle:
    n = cfg.n
    s0 = scales.get("a0", 1.0)  # the mutation factor; 1.0 for a slot not mutated
    dn = [(lam, _poly_deriv(coeffs, n)) for lam, coeffs in cfg.terms]

    def fields(x, z, m):
        xj, zj = jet_seed(x, z, m)
        parts = [(lam, poly_jet(coeffs, xj + lam * zj)) for lam, coeffs in dn]
        del xj, zj
        out = {}
        for j in range(n):
            acc = _Sum()
            for lam, pj in parts:
                acc.add_product(pj, lam ** (n - j))
            out[f"a{j}"] = _times(acc.total, s0) if j == 0 else acc.total
        out["W"] = _sum(pj for _, pj in parts)
        out["f"] = out["a0"]
        return out

    return FieldBundle(
        n=n,
        domain=SafeDomain(rect=tuple(cfg.rect)),
        wf_relation="identity",
        mutation_slots=("a0",),
        fields_fn=fields,
        wf_residual=lambda w, f: w - f,
        wprime_fn=lambda fl: np.ones_like(np.asarray(fl["a0"].value).real),
        w_value_fn=lambda t, x, z: t,
    )


def trivial_random_symmetric(n: int, degree: int, rng: np.random.Generator,
                             rect=(-0.8, 0.8, -0.8, 0.8)) -> TrivialConfig:
    """Random polynomial weights, conjugate-paired so every field is real."""

    def coeffs():
        return rng.uniform(-0.5, 0.5, degree + 1)

    terms = []
    for j in range(n):
        lam = complex(np.exp(2j * math.pi * j / n))
        if abs(lam.imag) < 1e-14:
            terms.append((complex(round(lam.real)), tuple(coeffs())))
    conj_pairs = [j for j in range(1, (n + 1) // 2) if 2 * j != n]
    for j in conj_pairs:
        lam = np.exp(2j * math.pi * j / n)
        c = coeffs() + 1j * coeffs()
        terms.append((complex(lam), tuple(c)))
        terms.append((complex(np.conj(lam)), tuple(np.conj(c))))
    return TrivialConfig(n=n, terms=tuple(terms), rect=rect)


def _build_m1(cfg: M1ImplicitConfig, scales) -> FieldBundle:
    s0 = scales.get("a0", 1.0)
    f_fn = _poly_fn(cfg.F)
    fp = _poly_deriv(cfg.F)

    @_last_root
    def lam_values(x, z):
        return solve_implicit(f_fn, x, z, cfg.seed_lambda)

    def fields(x, z, m):
        xj, zj = jet_seed(x, z, m)
        lam0 = lam_values(x, z)
        lamj = implicit_jet(f_fn, xj, zj, lam0)
        # log|.|: a valid antiderivative of 1/t on either half-line
        w = jlog(lamj * np.sign(lam0))
        out = {"a0": _times(lamj, s0), "W": w}
        out["f"] = out["a0"]
        return out

    def pred_nonzero(x, z):
        return np.abs(lam_values(x, z)) - EPS

    def pred_fold(x, z):
        lam = lam_values(x, z)
        return np.abs(np.asarray(z, dtype=float) - np.polyval(fp[::-1], lam)) - _FOLD_TOL

    return FieldBundle(
        n=1,
        domain=SafeDomain(
            rect=tuple(cfg.rect),
            predicates=(("slope_nonzero", pred_nonzero), ("fold_margin", pred_fold)),
        ),
        wf_relation=None,
        mutation_slots=("a0",),
        fields_fn=fields,
        wprime_fn=lambda fl: 1.0 / fl["a0"].value,
        w_value_fn=lambda t, x, z: np.log(np.abs(t)),
    )


def _build_degenerate(cfg: DegenerateConfig, scales) -> FieldBundle:
    s1 = scales.get("a1", 1.0)
    c_fn = _poly_fn(cfg.C)
    cp = _poly_deriv(cfg.C)
    g_fn = _poly_fn(cfg.G)
    slope = lambda aj: jsqrt(poly_jet(cp, aj))        # C_a^{1/2}: x + slope(a)*z = G(a)
    b_fn = _Primitive(lambda aj: (slope(aj),), ref=cfg.seed_a)  # B with B' = C_a^{1/2}

    @_last_root
    def solve_a(x, z):
        return solve_implicit(g_fn, x, z, cfg.seed_a, slope)

    def fields(x, z, m):
        aj = implicit_jet(g_fn, *jet_seed(x, z, m), solve_a(x, z), slope)
        a1, = b_fn(aj)
        out = {
            "a0": _univariate_on_jet(c_fn, aj, derivative=False),
            "a1": _times(a1, s1),
            "W": aj,
        }
        out["f"] = out["a0"]
        return out

    def pred_cprime(x, z):
        return np.polyval(cp[::-1], solve_a(x, z)) - EPS

    def wprime(fl):
        return 1.0 / np.polyval(cp[::-1], fl["W"].value)

    def w_value(t, x, z):
        # invert C at t, seeded by the already-solved scalar at the same point
        y = solve_a(x, z)
        for _ in range(60):
            r = np.polyval(tuple(cfg.C)[::-1], y) - t
            if np.max(np.abs(r)) <= 1e-12 * max(1.0, float(np.max(np.abs(t)))):
                return y
            y = y - r / np.polyval(cp[::-1], y)
        raise ConvergenceError("degenerate family: inversion of the bottom map stalled")

    return FieldBundle(
        n=2,
        domain=SafeDomain(rect=tuple(cfg.rect), predicates=(("cprime_positive", pred_cprime),)),
        wf_relation=None,
        mutation_slots=("a1",),
        fields_fn=fields,
        wprime_fn=wprime,
        w_value_fn=w_value,
    )


# ---------------------------------------------------------------------------
# builders: constant-slope line families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Row:
    """One function of a constant-slope family, ``F(t) = scale * (a*u + b*log(sign *
    (c0 + sum_i c_i exp(p_i u))))`` with ``u = t + shift`` (``None``: ``u = t``) and
    ``exps = ((c_i, p_i), ...)``; a row with no ``exps`` has no log term.  ``jet``
    gives F on jets, and ``margin``, the log argument less ``EPS`` on arrays, is the
    row's safe-domain predicate, so each log argument is written once.

    ``jet``'s order of operations sets its bits: terms summed in order (``x - c*y``
    as ``x + (-c)*y``, bit for bit), c0 added last into the value plane, then
    ``sign`` and ``scale`` as factors of their own; a builder computes each constant
    with its formula's float expression.
    """

    a: float
    b: float = 0.0
    exps: tuple = ()
    c0: float = 0.0
    sign: float = 1.0
    scale: float = 1.0
    shift: float | None = None

    def at(self, t) -> "_Row":
        """This row on the branch where its log argument is positive at ``t``
        (math.exp: a parameter that overflows raises OverflowError)."""
        u = t if self.shift is None else t + self.shift
        arg = _sum(c * math.exp(p * u) for c, p in self.exps) + self.c0
        return dataclasses.replace(self, sign=1.0 if arg > 0 else -1.0)

    def margin(self, t):
        u = t if self.shift is None else t + self.shift
        return self.sign * (_sum(c * np.exp(p * u) for c, p in self.exps) + self.c0) - EPS

    def jet(self, tj: Jet2) -> Jet2:
        u = tj if self.shift is None else tj + self.shift
        if not self.exps:
            return _times(_times(u, self.a), self.scale)
        arg = _sum(_times(jexp(_times(u, p)), c) for c, p in self.exps)
        if self.c0:
            arg = arg + self.c0
        log_term = _times(jlog(_times(arg, self.sign)), self.b)
        del arg
        # the linear term only now, so that it is not held through the log's temporaries
        return _times(_times(u, self.a) + log_term, self.scale)


def _line_bundle(rows, quad, wf_tag, wf_res, rect, scales, extra=()) -> FieldBundle:
    """The bundle of a constant-slope family from its rows ``(l1, l2, theta, sigma)``,
    its hand-written derivative quadruple (the route that wf_quadrature and eq5 read,
    independent of the rows) and W-f relation, and the predicates ``extra`` besides
    the margin of each row with a log term."""
    factors = [scales.get(slot, 1.0) for slot in ("l1", "l2", "theta", "sigma")]
    quad = dataclasses.replace(quad, **{form: _scaled(getattr(quad, form), s) for form, s in
                                        zip(("l1_prime", "l2_dot", "theta_z", "sigma_x"), factors)})
    nu, n = quad.nu, quad.n
    # each row's argument, on jets or arrays: the two lines, z and x
    args = (lambda x, z: x + _times(z, nu.nu1) + quad.d1,
            lambda x, z: x + _times(z, nu.nu2) + quad.d2,
            lambda x, z: z, lambda x, z: x)
    jets = [_scaled(row.jet, s) for row, s in zip(rows, factors)]

    def fields(x, z, m):
        xj, zj = jet_seed(x, z, m)
        l1j, l2j, thj, sgj = (f(arg(xj, zj)) for f, arg in zip(jets, args))
        del xj, zj
        out = {f"a{j}": nu.combine(n - 1 - j, l1j, l2j) for j in range(n)}
        out["a0"] = out["a0"] + thj
        out["W"] = nu.combine(-1, l1j, l2j) + sgj
        out["f"] = out["a0"]
        return out

    def forms(x, z):
        s, t, p, qd = quad.values(x, z)
        return _Fields(
            f_x=lambda: nu.combine(n - 1, p, qd),
            f_z=lambda: nu.combine(n, p, qd) + t,
            W_x=lambda: nu.combine(-1, p, qd) + s,
            W_z=lambda: nu.combine(0, p, qd),
        )

    names = ("line1_log_arg", "line2_log_arg", "theta_log_arg", "sigma_log_arg")
    predicates = tuple((name, lambda x, z, row=row, arg=arg: row.margin(arg(x, z)))
                       for name, row, arg in zip(names, rows, args) if row.exps)
    return FieldBundle(
        n=n,
        domain=SafeDomain(rect=tuple(rect), predicates=predicates + tuple(extra)),
        wf_relation=wf_tag,
        mutation_slots=("sigma", "theta", "l1", "l2"),
        fields_fn=fields,
        quadruple=quad,
        wf_residual=wf_res,
        derivative_forms=forms,
    )


def _build_sigma_const(cfg: SigmaConstConfig, scales) -> FieldBundle:
    nu = NuPair(*cfg.nu)
    nu1, nu2, delta, box = nu.nu1, nu.nu2, nu.delta, nu.box_n(3)
    a, k, d1, d2 = float(cfg.A), float(cfg.k), float(cfg.d1), float(cfg.d2)
    if a == 0 or k == 0:
        raise ConfigError("m3_sigma_const requires nonzero A and k")
    atil = nu.rho * a
    if not (np.isreal(atil) and atil.real > 0):
        raise ConfigError("m3_sigma_const real branch requires rho*A > 0")
    atil = float(np.real(atil))
    # phase offsets act as a rigid translation of the plane
    z0 = (d2 - d1) / delta
    x0 = d1 - nu1 * z0

    l1, l2 = (_Row(a * nu1 * nu2, nu_own * atil / k, ((-(1.0 / atil), -k),), 1.0)
              for nu_own in (nu1, nu2))
    theta = _Row(a * nu1 ** 2 * nu2 ** 2, -(atil * box / k), ((1.0, k * nu1), (-1.0, k * nu2)),
                 shift=z0).at(_centre(cfg.rect)[1])
    sigma = _Row(a, shift=x0)

    def theta_z(z):
        w = np.asarray(z, dtype=float) + z0
        e1, e2 = np.exp(k * nu1 * w), np.exp(k * nu2 * w)
        return a * nu1 * nu2 * (nu2 ** 2 * e2 - nu1 ** 2 * e1) / (e1 - e2)

    def lprime(nu_own, nu_other):
        def f(t):
            return nu_own * (1.0 / (np.exp(k * np.asarray(t, dtype=float)) - 1.0 / atil)
                             + nu_other * a)

        return f

    quad = Quadruple(
        sigma_x=lambda x: np.full(np.shape(np.asarray(x)), a),
        theta_z=theta_z,
        l1_prime=lprime(nu1, nu2),
        l2_dot=lprime(nu2, nu1),
        nu=nu,
        d1=d1,
        d2=d2,
    )

    cube = nu2 ** 3 - nu1 ** 3
    s_rel = -theta.sign

    def wf_res(w, f):
        om = (delta * k / atil) * w
        arg = s_rel * atil * (1.0 - np.exp(-om))
        if np.any(np.real(arg) <= 0):
            raise DomainError("sigma-const relation: log argument not positive")
        return (delta * k / atil) * f + cube * np.log(arg) - nu1 ** 3 * om

    return _line_bundle((l1, l2, theta, sigma), quad, "sigma_const", wf_res, cfg.rect, scales)


def _build_l1_const(cfg: L1ConstConfig, scales) -> FieldBundle:
    nu = NuPair(*cfg.nu)
    nu1, nu2, box = nu.nu1, nu.nu2, nu.box_n(3)
    d, k = float(cfg.D), float(cfg.k)
    if d == 0 or k == 0:
        raise ConfigError("m3_l1_const requires nonzero D and k")
    dtil = d * (nu1 + nu2)  # D~; the reading D~ = D*nu2 is no solution (README)
    if dtil == 0:
        raise ConfigError("m3_l1_const: the combined constant D~ vanishes")

    rows = (
        _Row(d),
        _Row(d, d * (nu2 ** 2 - nu1 ** 2) / (k * nu2 ** 2), ((-(nu2 ** 3), -k),), 1.0),
        _Row(-d * box, -(dtil / k), ((1.0, -k * nu2),), -(1.0 / (nu2 * dtil))),
        _Row(d * box / (nu1 * nu2 ** 3), -(dtil / (k * nu2 ** 3)), ((1.0, k),), -(nu2 ** 2 / dtil)),
    )

    quad = Quadruple(
        sigma_x=lambda x: d / (nu1 * nu2)
        - (1.0 / nu2) / (np.exp(k * np.asarray(x, dtype=float)) - nu2 ** 2 / dtil),
        theta_z=lambda z: 1.0 / (np.exp(-k * nu2 * np.asarray(z, dtype=float)) - 1.0 / (nu2 * dtil))
        - nu1 ** 2 * d,
        l1_prime=lambda t: np.full(np.shape(np.asarray(t)), d),
        l2_dot=lambda t: d
        * (1.0 - nu1 ** 2 * nu2 * np.exp(-k * np.asarray(t, dtype=float)))
        / (1.0 - nu2 ** 3 * np.exp(-k * np.asarray(t, dtype=float))),
        nu=nu,
    )

    def wf_res(w, f):
        return np.exp(-k * nu2 ** 3 * w / dtil) - nu2 ** 3 * np.exp(-k * f / dtil) - 1.0

    chain = ("chain_log_arg", lambda x, z: np.exp(k * x) - nu2 ** 3 * np.exp(-k * nu2 * z) - EPS)
    return _line_bundle(rows, quad, "l1_const", wf_res, cfg.rect, scales, extra=(chain,))


def _build_theta_const(cfg: ThetaConstConfig, scales) -> FieldBundle:
    nu = NuPair(*cfg.nu)
    nu1, nu2, delta, box, rho = nu.nu1, nu.nu2, nu.delta, nu.box_n(3), nu.rho
    e, k = float(cfg.E), float(cfg.k)
    if e == 0 or k == 0:
        raise ConfigError("m3_theta_const requires nonzero E and k")
    erho = e * rho
    if not (np.isreal(erho) and erho.real > 0):
        raise ConfigError("m3_theta_const real branch requires E*rho > 0")
    erho = float(np.real(erho))
    gam = 1.0 / erho

    l1, l2 = (_Row(-e / box, -(e * rho / (k * nu_i ** 2)), ((1.0, k / nu_i),), gam * nu_i)
              for nu_i in (nu1, nu2))
    sigma = _Row(e / (nu1 ** 2 * nu2 ** 2), -(e * (nu1 + nu2) / (k * nu1 ** 2 * nu2 ** 2)),
                 ((nu2, k / nu1), (-nu1, k / nu2)))

    def lprime(nu_i):
        def f(t):
            t = np.asarray(t, dtype=float)
            return (1.0 / (np.exp((k / nu_i) * t) + gam * nu_i) - e) / nu_i ** 2

        return f

    def sigma_x(x):
        x = np.asarray(x, dtype=float)
        u, v = np.exp((k / nu1) * x), np.exp((k / nu2) * x)
        return e * (v / nu2 ** 3 - u / nu1 ** 3) / (nu2 * u - nu1 * v)

    quad = Quadruple(
        sigma_x=sigma_x,
        theta_z=lambda z: np.full(np.shape(np.asarray(z)), e),
        l1_prime=lprime(nu1),
        l2_dot=lprime(nu2),
        nu=nu,
    )

    inv_cube = 1.0 / nu2 ** 3 - 1.0 / nu1 ** 3

    def wf_res(w, f):
        phi = (-k * delta / erho) * f
        psi = (-k * delta / erho) * w
        arg = (1.0 - np.exp(-phi)) * erho
        if np.any(np.real(arg) <= 0):
            raise DomainError("theta-const relation: log argument not positive")
        return psi - phi / nu1 ** 3 + inv_cube * np.log(arg)

    # the two line log arguments stay apart
    split = ("bottom_gradient",
             lambda x, z: np.abs(l1.margin(x + nu1 * z) - l2.margin(x + nu2 * z)) - 1e-3)
    return _line_bundle((l1, l2, _Row(e), sigma), quad, "theta_const", wf_res, cfg.rect, scales,
                        extra=(split,))


def _build_n_theta_const(cfg: NThetaConstConfig, scales) -> FieldBundle:
    nu = NuPair(*cfg.nu)
    nu1, nu2 = nu.nu1, nu.nu2
    n, e, k, cc, cb = cfg.n, float(cfg.E), float(cfg.k), float(cfg.c), float(cfg.cbar)
    if e == 0 or k == 0:
        raise ConfigError("mn_theta_const requires nonzero E and k")
    bn, bn1, bn2 = nu.box_n(n), nu.box_n(n - 1), nu.box_n(n - 2)
    if bn == 0 or bn1 == 0:
        raise ConfigError("mn_theta_const: degenerate slope bracket (box_n vanishes)")
    p1, p2 = k * nu2 * bn1, k * nu1 * bn1
    g1 = (1.0 / bn - nu1 ** (1 - n)) / p1
    g2 = (1.0 / bn - nu2 ** (1 - n)) / p2
    q = nu1 * nu2 * bn1

    # each row on the branch of its log argument at the rectangle's centre
    xc, zc = _centre(cfg.rect)
    l1 = _Row(-1.0 / bn, g1, ((-(nu1 ** n * nu2 * bn1 * cc), p1),), bn, scale=e).at(xc + nu1 * zc)
    l2 = _Row(-1.0 / bn, g2, ((-(nu2 ** n * nu1 * bn1 * cb), p2),), bn, scale=e).at(xc + nu2 * zc)
    sigma = _Row(bn2 / (nu1 * nu2) ** (n - 1), -(1.0 / (k * (nu1 * nu2) ** n)),
                 ((nu1 ** (n - 1) * cc, p1), (-(nu2 ** (n - 1) * cb), p2)), scale=e).at(xc)

    def lprime(nu_own, c, p):  # l1' from (nu1, c, p1), l2-dot from (nu2, cbar, p2)
        def f(t):
            ept = np.exp(p * np.asarray(t, dtype=float))
            return e * (-1.0 / q + c * ept) / (bn / q - nu_own ** (n - 1) * c * ept)

        return f

    def sigma_x(x):
        x = np.asarray(x, dtype=float)
        e1, e2 = cc * np.exp(p1 * x), cb * np.exp(p2 * x)
        return e * (e2 - e1) / (nu1 * nu2 * (nu1 ** (n - 1) * e1 - nu2 ** (n - 1) * e2))

    quad = Quadruple(
        sigma_x=sigma_x,
        theta_z=lambda z: np.full(np.shape(np.asarray(z)), e),
        l1_prime=lprime(nu1, cc, p1),
        l2_dot=lprime(nu2, cb, p2),
        nu=nu,
        n=n,
    )
    return _line_bundle((l1, l2, _Row(e), sigma), quad, None, None, cfg.rect, scales)


# ---------------------------------------------------------------------------
# builders: variable-slope families
# ---------------------------------------------------------------------------


# One slope root s(x, z) of the implicit line equation x + s*z = T(s): the
# mutation slot of its C', s and the weight denominator T'(s) - z on arrays,
# and T on jets.
_SlopeRoot = namedtuple("_SlopeRoot", "slot seed denom line")


def _quadratic_slope_jets(xj, zj):
    """Jets of the two slope fields solving ``slope^2 - z*slope - x = 0``."""
    disc = jsqrt(zj * zj + 4.0 * xj)
    return (zj - disc) * 0.5, (zj + disc) * 0.5


_QUADRATIC_ROOTS = (
    _SlopeRoot("c1", seed=lambda x, z: (z - np.sqrt(z * z + 4 * x)) / 2,
               denom=lambda x, z: -np.sqrt(z * z + 4 * x), line=lambda tj: tj * tj),
    _SlopeRoot("c2", seed=lambda x, z: (z + np.sqrt(z * z + 4 * x)) / 2,
               denom=lambda x, z: np.sqrt(z * z + 4 * x), line=lambda tj: tj * tj),
)


def _slope_root_bundle(cfg, scales, roots: tuple[_SlopeRoot, ...], root_jets, cprime: JetFunc,
                       cprime_arr, closed_forms, sigma: JetFunc, sigma_x,
                       theta: JetFunc | None, theta_z, **bundle_kw) -> FieldBundle:
    """Degree-3 bundle whose chain fields are sums over the slope roots ``roots``.

    ``root_jets(xj, zj)`` gives the roots' jets.  Along each root, scaled by
    its slot, a2, a1, a0 and W integrate s^r C'(s) for r = 0, 1, 2, -1, and
    the root's derivative-level weight is C'(s) / (T'(s) - z).  a2 and a1
    come from one :class:`_Primitive` per root, whose integrand gives C'(s)
    and s C'(s) from one evaluation of C' per Gauss node; the first of the
    two fields read builds the pair.  a0 and W come from the closed forms
    that ``closed_forms(sj)`` returns as a pair, so that they share their
    powers and logs of the slope jet.  Every sum over roots starts from its
    first term, so a one-root family computes exactly what its own one-root
    formulas would; its root is paired with the constant slope 1, whose line
    function is absent.  ``theta=None`` adds no theta term, nor its mutation
    slot.  ``bundle_kw`` holds the family's own fields.
    """
    root_slots = tuple(root.slot for root in roots)
    slots = ("sigma",) + (() if theta is None else ("theta",)) + root_slots
    sth, ssg, *sc = (scales.get(slot, 1.0) for slot in ("theta", "sigma") + root_slots)
    xc, zc = _centre(cfg.rect)

    def chain_integrands(sj):  # C'(s) and s C'(s), one evaluation of C'
        c = cprime(sj)
        return c, sj * c

    prims = [_Primitive(chain_integrands, ref=root.seed(xc, zc)) for root in roots]

    def fields(x, z, m):
        xj, zj = jet_seed(x, z, m)
        sjs = root_jets(xj, zj)
        # the seeds' own terms first, so that no seed is held through the closed forms
        sg = _times(sigma(xj), ssg)
        th = None if theta is None else _times(theta(zj), sth)
        del xj, zj
        a0, w = _Sum(), _Sum()
        for sj, c in zip(sjs, sc):  # per root: the (s^2, s^-1) integrals, summed as they come
            comp2, comp_m1 = closed_forms(sj)
            a0.add(_times(comp2, c))
            w.add(_times(comp_m1, c))
        del comp2, comp_m1
        if th is not None:
            a0.add(th)
        w.add(sg)
        pairs = _Fields(**{root.slot: functools.partial(prim, sj)
                           for root, prim, sj in zip(roots, prims, sjs)})
        return _Fields(
            a2=lambda: _sum(_times(pairs[root.slot][0], c) for root, c in zip(roots, sc)),
            a1=lambda: _sum(_times(pairs[root.slot][1], c) for root, c in zip(roots, sc)),
            a0=a0.total,
            W=w.total,
            f=a0.total,
        )

    theta_z = _scaled(theta_z, sth)
    sigma_x = _scaled(sigma_x, ssg)
    cprimes = [_scaled(cprime_arr, c) for c in sc]
    branches = tuple(SlopeBranch(cprime=cp, theta=root.line, seed=root.seed)
                     for root, cp in zip(roots, cprimes))
    if len(branches) == 1:
        branches = (None,) + branches
    general = GeneralQuadruple(*branches, theta_z=theta_z, sigma_x=sigma_x)

    def forms(x, z):
        x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
        s = [root.seed(x, z) for root in roots]
        p = [cp(si) / root.denom(x, z) for root, cp, si in zip(roots, cprimes, s)]

        def f_z():
            total = _sum(si ** 3 * pi for si, pi in zip(s, p))
            return total if theta is None else total + theta_z(z)

        return _Fields(
            f_x=lambda: _sum(si ** 2 * pi for si, pi in zip(s, p)),
            f_z=f_z,
            W_x=lambda: _sum(pi / si for si, pi in zip(s, p)) + sigma_x(x),
            W_z=lambda: _sum(p),
        )

    return FieldBundle(n=3, mutation_slots=slots, fields_fn=fields, general_quadruple=general,
                       derivative_forms=forms, **bundle_kw)


def _build_hodograph_example(cfg: HodographExampleConfig, scales) -> FieldBundle:
    k, al, be = float(cfg.k), float(cfg.alpha), float(cfg.beta)
    if k == 0 or al == 0:
        raise ConfigError("m3_hodograph_example requires nonzero k and alpha")

    def closed_forms(nuj):  # integrals of s^2 C'(s) and s^-1 C'(s), one cube
        nu3 = jpow(nuj, 3)
        bottom = jlog(nu3 * k + al)
        return (1.0 / (3 * k)) * bottom, (1.0 / (3 * al)) * (jlog(nu3) - bottom)

    def theta(zj):
        return (-1.0 / (3 * k)) * jlog(jpow(zj, -3) * k + be)

    def sigma(xj):
        return (1.0 / (3 * al)) * jlog(jpow(xj, -3) * al + be)

    def wf_res(w, f):
        return np.exp(3 * al * w) + (al / k) * np.exp(-3 * k * f) - be / k

    domain = SafeDomain(
        rect=tuple(cfg.rect),
        predicates=(
            ("x_away_from_axis", lambda x, z: np.abs(x) - 1e-3),
            ("z_away_from_axis", lambda x, z: np.abs(z) - 1e-3),
            ("slope_positive", lambda x, z: -x / z - EPS),
            ("bottom_log_arg", lambda x, z: k * (-x / z) ** 3 + al - EPS),
            ("theta_log_arg", lambda x, z: k * z ** -3.0 + be - EPS),
            ("sigma_log_arg", lambda x, z: al * x ** -3.0 + be - EPS),
        ),
    )
    # the slope field -x/z solves x + s*z = 0, a line function T = 0
    root = _SlopeRoot("c2", seed=lambda x, z: -x / z, denom=lambda x, z: -z,
                      line=lambda tj: type(tj).constant(np.zeros(tj.shape), tj.m))
    return _slope_root_bundle(
        cfg, scales, (root,),
        root_jets=lambda xj, zj: (-xj / zj,),
        cprime=lambda sj: (poly_jet((al, 0.0, 0.0, k), sj)).recip(),   # 1/(k s^3 + alpha)
        cprime_arr=lambda s: 1.0 / (k * s ** 3 + al),
        closed_forms=closed_forms,
        sigma=sigma,
        sigma_x=lambda x: -x ** -4.0 / (al * x ** -3.0 + be),  # called on float arrays
        theta=theta,
        theta_z=lambda z: z ** -4.0 / (k * z ** -3.0 + be),
        domain=domain,
        wf_relation="hodograph_exp",
        wf_residual=wf_res,
    )


def _build_general(cfg: GeneralNuConfig, scales) -> FieldBundle:
    g = float(cfg.g)
    if g >= 0:
        h = complex(0.0, math.sqrt(g))
    else:
        h = math.sqrt(-g)

    def closed_forms(nuj):  # integrals of s^2 C'(s), -s - (h/2) log((s-h)/(s+h)), and s^-1 C'(s)
        # built one log at a time, each operand dropped once read
        n2j = nuj * nuj
        shifted = n2j + g
        log_n2 = jlog(n2j)
        del n2j
        comp_m1 = (-1.0 / (2 * g)) * (log_n2 - jlog(shifted))
        del shifted, log_n2
        inv = (nuj + h).recip()  # the quotient's reciprocal, before its numerator is made
        ratio = (nuj - h) * inv
        del inv
        log_ratio = (h / 2) * jlog(ratio)
        del ratio
        return -nuj - log_ratio, comp_m1

    def sigma(xj):
        return (1.0 / g) * (jlog(xj) - jlog(xj + g))

    def wf_res(w, f):  # the product is real and non-negative for g < 0, where abs keeps it
        return np.abs(np.exp(2 * g * w) * np.cosh(f / h) ** 2) - 1.0

    habs = abs(h)
    domain = SafeDomain(
        rect=tuple(cfg.rect),
        predicates=(
            ("slopes_real", lambda x, z: z * z + 4 * x - EPS),
            ("log_center", lambda x, z: x + g - habs * np.abs(z) - EPS),
            ("sigma_log_arg", lambda x, z: x * (x + g) - EPS),
            ("slope_squares", lambda x, z: np.minimum(
                ((z - np.sqrt(np.maximum(z * z + 4 * x, 0.0))) / 2) ** 2 + g,
                ((z + np.sqrt(np.maximum(z * z + 4 * x, 0.0))) / 2) ** 2 + g) - EPS),
        ),
    )
    return _slope_root_bundle(
        cfg, scales, _QUADRATIC_ROOTS, root_jets=_quadratic_slope_jets,
        cprime=lambda sj: -(sj * sj + g).recip(),
        cprime_arr=lambda s: -1.0 / (s * s + g),
        closed_forms=closed_forms,
        sigma=sigma,
        sigma_x=lambda x: 1.0 / (np.asarray(x, dtype=float) * (np.asarray(x, dtype=float) + g)),
        theta=lambda zj: zj,
        theta_z=lambda z: np.ones(np.shape(np.asarray(z))),
        domain=domain,
        wf_relation="cosh",
        wf_residual=wf_res,
    )


def _build_general_e0(cfg: GeneralNuE0Config, scales) -> FieldBundle:
    a = float(cfg.a)
    a1, a2 = sorted((float(cfg.alpha1), float(cfg.alpha2)))
    c = a * a1 * a2

    def closed_forms(nuj):  # integrals of s^2 C'(s) and s^-1 C'(s), in w = s^3: one cube
        wj = jpow(nuj, 3)
        log1, log2, log_w = jlog(wj + a1), jlog(wj + a2), jlog(wj)
        del wj
        comp_m1 = (1.0 / (3 * a)) * (  # partial fractions
            log_w * (1.0 / (a1 * a2))
            - log1 * (1.0 / (a1 * (a2 - a1)))
            + log2 * (1.0 / (a2 * (a2 - a1))))
        del log_w
        return (1.0 / (3 * a * (a2 - a1))) * (log1 - log2), comp_m1

    def sigma(xj):
        return (1.0 / (3 * c)) * jlog(jpow(xj, -3) * c + a)

    def wf_res(w, f):
        mu = 3 * a * (a2 - a1) * f
        t1 = a * (a2 - a1 * np.exp(-mu)) / (a2 - a1)
        t2 = a * (a2 * np.exp(mu) - a1) / (a2 - a1)
        if np.any(np.real(t1) <= 0) or np.any(np.real(t2) <= 0):
            raise DomainError("two-log relation: log argument not positive")
        return 3 * c * (a2 - a1) * w - a2 * np.log(t1) + a1 * np.log(t2)

    def q_vals(alpha, x, z):
        return -x ** 3 + alpha * (z ** 3 + 3 * x * z) + alpha ** 2

    domain = SafeDomain(
        rect=tuple(cfg.rect),
        predicates=(
            ("slopes_real", lambda x, z: z * z + 4 * x - EPS),
            ("x_negative", lambda x, z: -x - EPS),
            ("z_positive", lambda x, z: z - EPS),
            ("bottom_log_arg_1", lambda x, z: q_vals(a1, x, z) - EPS),
            ("bottom_log_arg_2", lambda x, z: q_vals(a2, x, z) - EPS),
            ("sigma_log_arg", lambda x, z: a + c * x ** -3.0 - EPS),
        ),
    )
    return _slope_root_bundle(
        cfg, scales, _QUADRATIC_ROOTS, root_jets=_quadratic_slope_jets,
        # C'(s) = 1 / (a (s^3 + alpha1)(s^3 + alpha2)), one cube per call
        cprime=lambda sj: (((w := jpow(sj, 3)) + a1) * (w + a2) * a).recip(),
        cprime_arr=lambda s: 1.0 / (a * ((w := s ** 3) + a1) * (w + a2)),
        closed_forms=closed_forms,
        sigma=sigma,
        sigma_x=lambda x: -1.0 / (np.asarray(x, dtype=float)
                                  * (a * np.asarray(x, dtype=float) ** 3 + c)),
        theta=None,
        theta_z=lambda z: np.zeros(np.shape(np.asarray(z))),
        domain=domain,
        wf_relation="two_log",
        wf_residual=wf_res,
    )


# ---------------------------------------------------------------------------
# dispatch, serialization, canonical parameter sets
# ---------------------------------------------------------------------------

# tag -> (config class, builder, canonical parameters); a family is its config
# class, its builder and one entry here
_REGISTRY = {cls.tag: (cls, build, canonical) for cls, build, canonical in (
    (TrivialConfig, _build_trivial,
     dict(n=2, terms=((1.0, (0, 0, 1.0)), (-1.0, (0, 0, 1.0))))),
    (M1ImplicitConfig, _build_m1, dict(F=(0.0, 0.0, 0.0, 1.0), seed_lambda=1.2)),
    (DegenerateConfig, _build_degenerate,
     dict(C=(0.0, 0.0, 1.0), G=(0.0, 1.0), seed_a=2.0)),
    (SigmaConstConfig, _build_sigma_const, dict(nu=(1.0, 2.0), A=1.0, k=1.0)),
    (L1ConstConfig, _build_l1_const, dict(nu=(1.0, 2.0), D=1.0, k=1.0)),
    (ThetaConstConfig, _build_theta_const, dict(nu=(1.0, 2.0), E=1.0, k=1.0)),
    (HodographExampleConfig, _build_hodograph_example, dict(k=1.0, alpha=1.0, beta=2.0)),
    (GeneralNuConfig, _build_general, dict(g=-1.0)),
    (GeneralNuE0Config, _build_general_e0, dict(a=1.0, alpha1=1.0, alpha2=2.0)),
    (NThetaConstConfig, _build_n_theta_const, dict(n=4, nu=(1.0, 2.0), E=1.0, k=0.1)),
)}

FAMILY_TAGS = tuple(_REGISTRY)


def _entry(tag):
    if isinstance(tag, str) and tag in _REGISTRY:
        return _REGISTRY[tag]
    raise ConfigError(f"unknown family tag {tag!r}")


def make_family(cfg, mutations: dict | None = None) -> FieldBundle:
    """Build the field bundle for a family configuration.

    ``mutations`` maps mutation slots to the factor that slot's derivative
    function is scaled by; an unknown slot or a non-finite factor is a
    :class:`ConfigError`, and so is a parameter whose derived constants
    overflow float arithmetic while the family is built.
    """
    scales = dict(mutations or {})
    for name, factor in scales.items():
        if not abs(factor) <= sys.float_info.max:  # NaN, inf and a too large int fail too
            raise ConfigError(f"mutation factor {name!r} must be finite, got {factor}")
    try:
        bundle = _entry(cfg.tag)[1](cfg, scales)
    except OverflowError as exc:
        raise ConfigError(f"family {cfg.tag!r}: a parameter overflows ({exc})") from None
    for name in scales:
        if name not in bundle.mutation_slots:
            raise ConfigError(
                f"family {cfg.tag!r} has no derivative function {name!r}; "
                f"choose from {bundle.mutation_slots}"
            )
    bundle.family, bundle.config, bundle.mutations = cfg.tag, cfg, scales
    return bundle


def json_number(value, kind=None):
    """A finite int or float (never a bool or a string; a NumPy scalar as the Python number
    it holds) as written, or converted by ``kind``: ``int`` takes integral values only (9.0
    reads as 9).  Raises ValueError, or OverflowError for an int beyond the float range."""
    value = value.item() if isinstance(value, np.generic) else value
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    if kind is int and value != int(value):
        raise ValueError(f"expected an integer, got {value!r}")
    return value if kind is None else kind(value)


def _num(v):
    """A JSON number, or a ``[re, im]`` pair of them read as a complex."""
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(json_number(v[0]), json_number(v[1]))
    return json_number(v)


def _num_out(v):
    v = complex(v)
    if v.imag == 0:
        return v.real
    return [v.real, v.imag]


def _nu_pair(value) -> tuple:
    nu = _numbers(value)
    if len(nu) != 2:
        raise ValueError(f"nu must be a pair of numbers [nu1, nu2], got {list(nu)!r}")
    return nu


def _numbers(value, read=json_number) -> tuple:
    """The entries of a JSON list (or of a tuple, from a library caller), each read by
    ``read``; any other value is a ValueError, raised before an entry is read."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"expected a list, got {value!r}")
    return tuple(map(read, value))


def _rect(value) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise ConfigError("rect must be [x_lo, x_hi, z_lo, z_hi]")
    return _numbers(value, lambda v: json_number(v, float))


def _term(term) -> tuple:
    """One ``[lam, [coefficients]]`` entry of a ``terms`` list, each number read by ``_num``."""
    if not isinstance(term, (list, tuple)) or len(term) != 2:
        raise ValueError(f"a term must be [lam, [coefficients]], got {term!r}")
    return _num(term[0]), _numbers(term[1], _num)


# JSON value -> field value, by field name first, then by annotated type
_FIELD_PARSERS = {
    "nu": _nu_pair,
    "rect": _rect,
    "terms": lambda terms: _numbers(terms, _term),
}
_TYPE_PARSERS = {
    "int": lambda v: json_number(v, int),
    "float": lambda v: json_number(v, float),
    "tuple": _numbers,
}


def family_from_dict(d: dict):
    """Parse the JSON form of a family configuration (tag field ``family``)."""
    if not isinstance(d, dict) or "family" not in d:
        raise ConfigError("family config must be an object with a 'family' tag")
    d = dict(d)
    tag = d.pop("family")
    cls = _entry(tag)[0]
    kw = {}
    try:
        for f in dataclasses.fields(cls):
            if f.name in d:
                kw[f.name] = (_FIELD_PARSERS.get(f.name) or _TYPE_PARSERS[f.type])(d.pop(f.name))
            elif f.default is dataclasses.MISSING:
                raise ConfigError(f"family {tag!r}: missing required field {f.name!r}")
        if d:
            raise ConfigError(f"unknown family config fields: {sorted(d)}")
        return cls(**kw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"family {tag!r}: malformed field value ({exc})") from None


def family_to_dict(cfg) -> dict:
    """Inverse of :func:`family_from_dict`: ``family``, ``rect``, then the fields in order."""
    out = {"family": cfg.tag, "rect": list(cfg.rect)}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.name == "terms":
            value = [[_num_out(lam), [_num_out(c) for c in coeffs]] for lam, coeffs in value]
        elif f.type == "tuple":
            value = list(value)
        out[f.name] = value
    return out


def canonical_config(tag: str):
    """The reference parameter set each family is verified with."""
    cls, _, canonical = _entry(tag)
    return cls(**canonical)
