"""Hodograph-plane machinery and the shared implicit scalar solver.

The degree-two construction works in the transformed plane ``(b, c)`` where
the quasilinear system becomes linear and is resolved by one potential
``R(b, c)`` with ``x = R_c``, ``z = R_b``.  This module provides:

* ``schrodinger_solve`` - the zero-energy second-order ODE for the separable
  ansatz, integrated with a fixed-step classical 4th-order scheme over an
  array of separation constants ``k``;
* ``assemble_r_integral`` - superposition of separable modes (one batched
  solve per call, node doubling included) with an independent
  finite-difference residual check;
* ``solve_implicit`` / ``implicit_jet`` - branch-tracked scalar solve of
  ``x + S(lam)*z = F(lam)``, in values and in jets (S(lam) = lam by default).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, FoldError, MongesolError, QuadratureError
from .jets import Jet1, Jet2, compose_series, jet_partial, jet_seed1

__all__ = [
    "schrodinger_solve",
    "assemble_r_integral",
    "solve_implicit",
    "implicit_jet",
    "OdeSolution",
    "RIntegralResult",
]

_IMPLICIT_TOL, _IMPLICIT_MAX_ITER, _FOLD_TOL = 1e-12, 60, 1e-8  # solve_implicit's Newton
_DOUBLING_TOL = 1e-6  # assemble_r_integral: largest relative change of R on node doubling
# schrodinger_solve: most nodes for the scalar kernel.  Per RK4 step, the scalar
# kernel takes about 0.72-0.78 us per node and the array kernel 11.8-12.3 us for
# 13 to 17 nodes (1000 and 2000 steps; 2-core x86-64, Python 3.11, numpy 2.4):
# at 2000 steps 15 nodes take 23.4 ms scalar and 23.5 ms array, 16 nodes 24.9 ms
# and 24.9 ms, and 17 nodes 26.4 ms and 25.9 ms.
_SCALAR_MAX_NODES = 15
# schrodinger_solve: RK4 damps a decaying mode w'' = lam w, lam > 0, only while
# h sqrt(lam) is at most this, the real root of 1 + z/2 + z^2/6 + z^3/24, negated;
# it keeps an oscillating mode, lam < 0, from growing only while h sqrt(-lam) is
# at most 2 sqrt(2), where the squared amplification 1 - y^6/72 + y^8/576 reaches 1
_RK4_STEP_LIMIT = 2.785293563405282
_RK4_OSC_STEP_LIMIT = 2.0 * math.sqrt(2.0)
# schrodinger_solve: steps per block of the array kernel's stage factors, which
# would take 48 bytes per node and step if built for all steps at once
_RK4_BLOCK = 128


# ---------------------------------------------------------------------------
# implicit scalar solve: x + S(lam)*z = F(lam)
# ---------------------------------------------------------------------------


def solve_implicit(f: Callable[[Jet1], Jet1], x, z, seed,
                   slope: Callable[[Jet1], Jet1] | None = None) -> np.ndarray:
    """Root ``lam`` of ``x + S(lam)*z - F(lam) = 0`` on the branch through ``seed``.

    ``f`` evaluates F and ``slope`` evaluates S, each on a univariate jet
    (a ``Jet1`` of order 1); ``slope=None`` is S(lam) = lam, solved with
    no evaluation of S and no product by S' = 1.  Damped Newton to an absolute
    residual of ``_IMPLICIT_TOL``.  Each iterate, the returned root included,
    gets one fold test before its convergence test: ``S'(lam)*z - F'(lam)``
    below ``_FOLD_TOL`` is a ``FoldError``, not a branch jump.
    Vectorizes over arrays of points.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    lam = np.broadcast_to(np.asarray(seed, dtype=float), np.broadcast_shapes(x.shape, z.shape)).copy()
    x, z = np.broadcast_to(x, lam.shape), np.broadcast_to(z, lam.shape)

    def residual(l):
        lj = jet_seed1(l, 1)
        fj = f(lj)
        if slope is None:
            return x + l * z - fj.value, z - jet_partial(fj, 1, 0)
        sj = slope(lj)
        return x + sj.value * z - fj.value, jet_partial(sj, 1, 0) * z - jet_partial(fj, 1, 0)

    g, gp = residual(lam)
    for _ in range(_IMPLICIT_MAX_ITER):
        if np.any(np.abs(gp) < _FOLD_TOL):
            raise FoldError("implicit solve at a fold point: S'(lam)*z - F'(lam) ~ 0")
        if np.max(np.abs(g)) <= _IMPLICIT_TOL:
            break
        step = g / gp
        new = lam - step
        gn, gpn = residual(new)
        # halve the step until the merit decreases (per point)
        for _ in range(40):
            worse = np.abs(gn) > np.abs(g)
            if not np.any(worse):
                break
            step = np.where(worse, step / 2, step)
            new = lam - step
            gn, gpn = residual(new)
        lam, g, gp = new, gn, gpn
    else:
        raise ConvergenceError(f"implicit solve: no convergence in {_IMPLICIT_MAX_ITER} iterations")
    return lam


def implicit_jet(f: Callable[[Jet1], Jet1], xj: Jet2, zj: Jet2, lam0,
                 slope: Callable[[Jet1], Jet1] | None = None) -> Jet2:
    """Jet of the implicit branch ``lam(x, z)`` with ``x + S(lam)*z = F(lam)``.

    ``lam0`` are the already-solved values at the base points; ``f`` and
    ``slope`` are as in ``solve_implicit``, and ``slope=None`` is S(lam) = lam.
    Newton in the jet algebra doubles the correct nilpotent order each pass
    (Griewank & Walther, *Evaluating Derivatives*, ch. 13), so ``p`` passes
    from a value are exact to order ``2**p - 1``.  Orders 0 to 7 take the same
    three passes, so their common coefficients agree bitwise.  Each pass
    evaluates F once, for both F(lam) and F'(lam), and S likewise.
    """
    m = xj.m
    lam = Jet2.constant(np.asarray(lam0), m)
    for _ in range(max(3, m.bit_length())):
        lam = lam - _newton_step(f, slope, xj, zj, lam)
    return lam


def _newton_step(f, slope, xj: Jet2, zj: Jet2, lam: Jet2) -> Jet2:
    """One pass of ``implicit_jet``'s Newton: ``g / g'`` at ``lam``.  Each of F, S, g
    and g' is dropped once read, so a pass holds few jets beyond the step."""
    fj, fpj = _univariate_on_jet(f, lam)
    if slope is None:
        g = xj + lam * zj - fj
        del fj
        gp = zj - fpj
    else:
        sj, spj = _univariate_on_jet(slope, lam)
        g = xj + sj * zj - fj
        del sj, fj
        gp = spj * zj - fpj
        del spj
    del fpj
    return g / gp


def _univariate_on_jet(f: Callable[[Jet1], Jet1], a: Jet2, derivative: bool = True):
    """``(f(a), f'(a))`` for a univariate jet-function ``f`` and a jet ``a``.

    One evaluation of ``f`` on a ``Jet1`` of order ``a.m + 1`` about
    ``a.value`` gives both series: its coefficients of order <= ``a.m`` are
    an order-``a.m`` evaluation's bits.  ``derivative=False`` gives ``f(a)``
    alone, at order ``a.m``.
    """
    m = a.m
    fj = f(jet_seed1(a.value, m + derivative))
    # recompose: Taylor coefficients about a.value, Horner in (a - value)
    value = compose_series([fj.plane(k, 0) for k in range(m + 1)], a)
    if not derivative:
        return value
    return value, compose_series([(k + 1) * fj.plane(k + 1, 0) for k in range(m + 1)], a)


# ---------------------------------------------------------------------------
# separable modes: w'' = k^2 W_c(c) w
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OdeSolution:
    """Two fundamental solutions of the zero-energy mode equation.

    For an array ``k`` the solution arrays have shape ``np.shape(k) + (steps + 1,)``:
    one row per node.
    """

    k: float | np.ndarray
    c_grid: np.ndarray
    w1: np.ndarray
    w1p: np.ndarray
    w2: np.ndarray
    w2p: np.ndarray

    @property
    def wronskian(self) -> np.ndarray:
        return self.w1 * self.w2p - self.w2 * self.w1p

    @property
    def wronskian_drift(self) -> float:
        # the ODE has no first-derivative term, so the Wronskian must stay 1
        return float(np.max(np.abs(self.wronskian - 1.0)))


def schrodinger_solve(
    w_c_profile: Callable[[np.ndarray], np.ndarray],
    k: float | np.ndarray,
    c_range: tuple[float, float],
    steps: int,
) -> OdeSolution:
    """Integrate ``w'' = k^2 W_c(c) w`` from initial data (1,0) and (0,1).

    Fixed-step classical 4th-order integrator; step count is the accuracy
    knob (no adaptivity).  Vectorizes over ``k``: the solution arrays have
    shape ``np.shape(k) + (steps + 1,)``.  The profile is called once per
    solve, on the stage points ``c``, ``c + h/2`` and ``c + h`` of every
    step.  A non-finite or complex node, non-finite or complex profile
    values, a ``k^2 W_c(c)`` that overflows, a step ``h`` with
    ``|h| sqrt|k^2 W_c|`` beyond RK4's stability limit (about 2.785 where
    ``W_c > 0``, on the real axis, where a decaying mode would grow; 2 sqrt(2)
    where ``W_c < 0``, on the imaginary axis), a mode that overflows, a
    non-integral ``steps`` and a ``c_range`` without finite, distinct ends
    are errors (a decreasing range integrates backwards).

    Two kernels run the same scheme, chosen by the node count alone: up to
    ``_SCALAR_MAX_NODES`` nodes ``_rk4_scalar`` steps each node on Python
    floats, one call advancing the node's two solutions, and above it
    ``_rk4_array`` advances all nodes in one array state.  A Python float is
    a C double, and each of its operations is one IEEE operation with no
    fused multiply-add, so the two kernels, which make the same operations
    in the same order, give the same bits, and each node
    equals a scalar-``k`` solve.  Only the solution array is whole: the
    kernels form ``k^2 W_c`` as they read it, and the overflow and
    step-limit checks (``_check_stage_factors``) read one product per
    stage point, and the node products of an offending one alone.
    """
    steps = _count(steps, "steps")
    if steps < 100:
        raise ValueError("schrodinger_solve needs at least 100 steps")
    c0, c1 = float(c_range[0]), float(c_range[1])
    if not math.isfinite(c1 - c0) or c1 == c0:  # a NaN or infinite end gives a non-finite span
        raise ValueError(f"c_range needs finite ends with c1 != c0, got {c_range!r}")
    h = (c1 - c0) / steps
    grid = c0 + h * np.arange(steps + 1)

    _reject_complex_nodes(k)
    kk = np.asarray(k, dtype=float).reshape(-1)
    if not np.all(np.isfinite(kk)):
        raise ValueError(f"non-finite mode node k={float(kk[~np.isfinite(kk)][0])!r}")
    # stage points of step i: c_i, c_i + h/2, c_i + h (one flat sample, step-major)
    stages = np.stack([grid[:-1], grid[:-1] + h / 2, grid[:-1] + h], axis=1).ravel()
    prof = np.broadcast_to(np.asarray(w_c_profile(stages)), stages.shape)
    if np.iscomplexobj(prof):
        c_bad = float(stages[_first_non_real(prof)])
        raise MongesolError(f"complex potential profile value at c={c_bad!r}")
    prof = prof.astype(float, copy=False)
    bad = ~np.isfinite(prof)
    if np.any(bad):
        c_bad = float(stages[np.argmax(bad)])
        raise MongesolError(f"non-finite potential profile value at c={c_bad!r}")
    with np.errstate(over="ignore"):  # an overflowing k^2 is reported below, by node and c
        ksq = kk * kk
    if ksq.size:
        _check_stage_factors(ksq, prof, stages, kk, h)

    # y = (w, w') x (fundamental solution 1, 2) x nodes
    ys = np.empty((steps + 1, 2, 2, kk.size))
    ys[0] = np.eye(2)[:, :, None]
    if kk.size <= _SCALAR_MAX_NODES:
        for j in range(kk.size):
            w1, w1p, w2, w2p = (memoryview(ys[:, a, b, j]) for b in (0, 1) for a in (0, 1))
            _rk4_scalar(memoryview(ksq[j] * prof), w1, w1p, w2, w2p, h)
    else:
        _rk4_array(prof.reshape(steps, 3), ksq, ys, h)
    bad = ~np.isfinite(ys)
    if np.any(bad):
        i = np.argmax(bad.any(axis=(1, 2, 3)))
        j = np.argmax(bad[i].any(axis=(0, 1)))
        raise MongesolError(f"mode overflows at node k={float(kk[j])!r}, c={float(grid[i])!r}")
    shape = np.shape(k) + (steps + 1,)
    w1, w2, w1p, w2p = (ys[:, a, b].T.reshape(shape) for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)))
    return OdeSolution(k, grid, w1, w1p, w2, w2p)


def _rk4_scalar(v: memoryview, ws: memoryview, ps: memoryview, us: memoryview,
                qs: memoryview, h: float) -> None:
    """One node's RK4 runs on Python floats, from ``(w, w') = (ws[0], ps[0])`` and
    ``(us[0], qs[0])``: both fundamental solutions in one pass over ``v``.

    ``v`` holds ``k^2 W_c`` at the stage points, three per step; the runs
    write w and w' after step ``i`` to ``ws[i]`` and ``ps[i]``, and to
    ``us[i]`` and ``qs[i]``.  Each line is a component of the array kernel's
    stage, in its order of operations.  The factor ``2.0`` gives the bits of
    an int 2, which converts to it exactly, but CPython specialises a product
    of two floats and not that of an int and a float.
    """
    hh, h6 = h / 2, h / 6
    w, p, u, q = ws[0], ps[0], us[0], qs[0]
    it = iter(v)
    for i, (v0, v1, v2) in enumerate(zip(it, it, it), 1):
        k1p = w * v0
        k2w = p + hh * k1p
        k2p = (w + hh * p) * v1
        k3w = p + hh * k2p
        k3p = (w + hh * k2w) * v1
        k4w = p + h * k3p
        k4p = (w + h * k3w) * v2
        w = w + h6 * (p + 2.0 * k2w + 2.0 * k3w + k4w)
        p = p + h6 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        k1p = u * v0
        k2w = q + hh * k1p
        k2p = (u + hh * q) * v1
        k3w = q + hh * k2p
        k3p = (u + hh * k2w) * v1
        k4w = q + h * k3p
        k4p = (u + h * k3w) * v2
        u = u + h6 * (q + 2.0 * k2w + 2.0 * k3w + k4w)
        q = q + h6 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        ws[i] = w
        ps[i] = p
        us[i] = u
        qs[i] = q


def _rk4_array(prof: np.ndarray, ksq: np.ndarray, ys: np.ndarray, h: float) -> None:
    """All nodes' RK4 runs at once, from ``ys[0]``: ``prof`` holds ``W_c`` at the
    stage points as ``(steps, 3)``, and ``ksq`` holds ``k^2`` per node.

    Each stage is one product ``y[::-1] * (1, v)``: the right side
    ``(w', v w)`` is the ``(2, 2, K)`` state reversed along its first axis,
    times a factor whose first row is 1.0.  A product with 1.0 is exact and
    a product of two floats does not depend on their order, so this equals
    stacking ``(w', v w)``, without the copy that stacking makes per stage;
    ``_rk4_scalar`` takes ``w'`` itself as that row.  The stage factors
    ``(1, k^2 W_c)`` of ``_RK4_BLOCK`` steps at a time go into one reused
    buffer, whose row 0 holds 1.0 throughout and whose row 1 is written as
    ``prof[block] * ksq``, the products the scalar kernel forms per node;
    only ``ys`` is whole.  Every step makes the same products in the same
    order at any block size, so the blocking moves no bit.  The step
    constants ``h/2``, ``h``, ``h/6`` and ``2.0`` are ``(2, 2, K)`` arrays,
    each filled with the one double, so that every stage multiplies arrays
    of one shape and converts no Python scalar, with the same products.
    """
    steps, nodes = prof.shape[0], ksq.size
    # stage factors (1, k^2 W_c) per step of a block and stage point: row 0 holds 1.0
    vs = np.ones((min(steps, _RK4_BLOCK), 3, 2, 1, nodes))
    hh, hf, h6, two = (np.full((2, 2, nodes), c) for c in (h / 2, h, h / 6, 2.0))
    with np.errstate(over="ignore", invalid="ignore"):  # the caller names an overflowing mode
        for i0 in range(0, steps, _RK4_BLOCK):
            block = vs[:min(_RK4_BLOCK, steps - i0)]
            np.multiply(prof[i0:i0 + block.shape[0], :, None], ksq, out=block[:, :, 1, 0])
            for i, (v0, v1, v2) in enumerate(block, i0):
                y = ys[i]
                k1 = y[::-1] * v0
                k2 = (y + hh * k1)[::-1] * v1
                k3 = (y + hh * k2)[::-1] * v1
                k4 = (y + hf * k3)[::-1] * v2
                np.add(y, h6 * (k1 + two * k2 + two * k3 + k4), out=ys[i + 1])


def _check_stage_factors(ksq, prof, stages, kk, h) -> None:
    """Raise for the first stage point, then node, whose ``k^2 W_c`` is not finite,
    else for the first beyond the RK4 step limit, naming node and c.

    A stage point's product farthest from 0 is ``max(k^2) W_c``, since
    ``k^2 >= 0`` and a rounded product grows with each factor's magnitude, and
    the limits hold 0 between them.  So that one product per stage point finds
    the first offending stage point exactly, and only its row of node products
    is formed.
    """
    # the bounds on k^2 W_c above and below (+-inf for a tiny h)
    top, bottom = _RK4_STEP_LIMIT / abs(h), _RK4_OSC_STEP_LIMIT / abs(h)
    top, bottom = top * top, -bottom * bottom  # a product overflows to inf, no error
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is nan: not finite
        far = ksq.max() * prof
        bad = ~np.isfinite(far)
        if np.any(bad):
            i = np.argmax(bad)
            j = np.argmax(~np.isfinite(ksq * prof[i]))
            raise MongesolError(f"k^2 * W_c(c) overflows at node k={float(kk[j])!r}, "
                                f"c={float(stages[i])!r}")
    bad = (far > top) | (far < bottom)
    if np.any(bad):
        i = np.argmax(bad)
        v = ksq * prof[i]
        j = np.argmax((v > top) | (v < bottom))
        limit = _RK4_STEP_LIMIT if v[j] > 0 else _RK4_OSC_STEP_LIMIT
        raise MongesolError(
            f"RK4 step too large at node k={float(kk[j])!r}, c={float(stages[i])!r}: "
            f"h * sqrt|k^2 W_c| = {abs(h) * math.sqrt(abs(v[j])):.4g} exceeds the "
            f"stability limit {limit:.4f}; use more steps")


def _first_non_real(a: np.ndarray) -> int:
    """Flat index of the first entry of complex ``a`` with a nonzero imaginary part, else 0."""
    return int(np.argmax(a.imag != 0))


def _reject_complex_nodes(k) -> None:
    """A complex node (complex-typed, as ``1+0j`` too) is a ValueError naming it, so
    that no float conversion drops its imaginary part."""
    kk = np.asarray(k)
    if np.iscomplexobj(kk):
        raise ValueError(f"complex mode node k={complex(kk.flat[_first_non_real(kk)])!r}")


def _count(value, name: str) -> int:
    """``value`` as an int; a float or other non-integral value is a ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class RIntegralResult:
    b_grid: np.ndarray
    c_grid: np.ndarray
    r_values: np.ndarray          # shape (nb, nc)
    residual_max: float           # max |R_cc - W_c R_bb| over the interior
    residual_mean: float
    wronskian_drift: float
    node_doubling_change: float | None


def assemble_r_integral(
    f1: Callable[[float], float],
    f2: Callable[[float], float],
    k_nodes: Sequence[float],
    w_c_profile: Callable[[np.ndarray], np.ndarray],
    b_range: tuple[float, float],
    c_range: tuple[float, float],
    *,
    nb: int = 25,
    steps: int = 2000,
    mode: str = "sum",
) -> RIntegralResult:
    """Superpose separable modes into ``R(b, c)`` and check its equation.

    ``mode="sum"`` treats the nodes as a discrete superposition (unit
    weights); ``mode="trapezoid"`` integrates over the node grid and checks
    convergence by doubling the nodes (a change of R above ``_DOUBLING_TOL``
    relative, or a change that is not a number, raises ``QuadratureError``).
    A non-finite amplitude ``f1(k)`` or ``f2(k)`` is a ``QuadratureError``
    naming the node, and so is an R or residual that is not finite (the
    modes overflow); ``nb`` must be an integer of at least 1 and
    ``b_range`` needs finite ends.
    The reported residual differentiates R twice in c by central finite
    differences of the integrated modes, independently of the mode equation
    used to build them; the b derivatives are analytic, and R_bb is summed
    only on the columns that the stencil reads.
    """
    nb = _count(nb, "nb")
    if nb < 1:
        raise ValueError(f"nb must be at least 1, got {nb}")
    _reject_complex_nodes(k_nodes)
    k_nodes = [float(k) for k in k_nodes]
    if not k_nodes:
        raise ValueError("k_nodes must be nonempty")
    if mode not in ("sum", "trapezoid"):
        raise ValueError(f"unknown quadrature mode {mode!r}")
    if not all(math.isfinite(float(end)) for end in b_range):
        raise ValueError(f"b_range needs finite ends, got {b_range!r}")

    # one solve covers both builds: the refinement keeps the original nodes
    # at its even positions
    refine = mode == "trapezoid" and len(k_nodes) >= 2
    nodes = _midpoint_refine(k_nodes) if refine else k_nodes
    sol = schrodinger_solve(w_c_profile, np.array(nodes), c_range, steps)
    b = np.linspace(b_range[0], b_range[1], nb)
    c = sol.c_grid

    # the residual reads every stride-th c; the stride keeps the stencil step
    # near 1e-2 so stencil roundoff stays below 1e-10
    h_ode = c[1] - c[0]
    stride = max(1, int(round(0.01 * (c[-1] - c[0]) / h_ode)))
    cs = c[::stride]

    def build(ks, w1, w2, rbb=None):
        """R over the nodes ``ks``; R_bb on ``cs`` is added into ``rbb`` when one is given."""
        r = np.zeros((nb, c.size))
        for wgt, k, s1, s2 in zip(_weights(ks, mode), ks, w1, w2):
            a1, a2 = f1(k), f2(k)
            if not (np.isfinite(a1) and np.isfinite(a2)):
                raise QuadratureError(f"non-finite mode amplitude at k={k!r}: "
                                      f"f1(k)={a1!r}, f2(k)={a2!r}")
            amp = wgt * (a1 * s1 + a2 * s2)  # shape (nc,)
            ekb = np.exp(k * b)[:, None]
            r += ekb * amp[None, :]
            if rbb is not None:
                rbb += (k * k) * ekb * amp[None, ::stride]
        return r

    rows = slice(None, None, 2 if refine else 1)
    coarse = OdeSolution(sol.k[rows], c, sol.w1[rows], sol.w1p[rows], sol.w2[rows], sol.w2p[rows])
    rbb = np.zeros((nb, cs.size))
    r = build(k_nodes, coarse.w1, coarse.w2, rbb)
    drift = coarse.wronskian_drift

    # second derivative in c by a 7-point stencil on cs
    rs = r[:, ::stride]
    h = cs[1] - cs[0]
    st = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
    rcc = sum(coef * rs[:, i: rs.shape[1] - (6 - i)] for i, coef in enumerate(st)) / (h * h)
    resid = np.abs(rcc - np.asarray(w_c_profile(cs[3:-3]))[None, :] * rbb[:, 3:-3])

    change = None
    if refine:
        r2 = build(nodes, sol.w1, sol.w2)
        change = float(np.max(np.abs(r2 - r)))
        if not (change <= _DOUBLING_TOL * max(1.0, float(np.max(np.abs(r))))):
            raise QuadratureError(
                f"k-quadrature not converged: node doubling changed R by {change:.3e}"
            )
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(resid))):
        raise QuadratureError(
            f"R or its residual is not finite (max |R| = {np.max(np.abs(r)):.3e})"
        )

    return RIntegralResult(
        b_grid=b,
        c_grid=c,
        r_values=r,
        residual_max=float(np.max(resid)),
        residual_mean=float(np.mean(resid)),
        wronskian_drift=drift,
        node_doubling_change=change,
    )


def _weights(nodes, mode):
    if mode == "sum" or len(nodes) == 1:
        return [1.0] * len(nodes)
    w = np.zeros(len(nodes))
    diffs = np.diff(np.asarray(nodes))
    w[:-1] += diffs / 2
    w[1:] += diffs / 2
    return list(w)


def _midpoint_refine(nodes):
    out = [nodes[0]]
    for a, b in zip(nodes[:-1], nodes[1:]):
        out.extend([(a + b) / 2, b])
    return out
