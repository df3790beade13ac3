import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mongesol import hodograph
from mongesol.errors import ConvergenceError, FoldError, MongesolError, QuadratureError
from mongesol.hodograph import (
    _univariate_on_jet,
    assemble_r_integral,
    implicit_jet,
    schrodinger_solve,
    solve_implicit,
)
from mongesol.jets import (Jet2, compose_series, jet_partial, jet_seed, jet_seed1, jlog, jsqrt,
                           poly_jet)


# -- implicit scalar solve ----------------------------------------------------


def _const_zero(lj):
    return Jet2.constant(np.zeros(lj.shape), lj.m)


def test_solve_implicit_zero_rhs():
    lam = solve_implicit(_const_zero, 2.0, 1.0, seed=0.0)
    assert lam == pytest.approx(-2.0, abs=1e-12)


def test_solve_implicit_identity_rhs():
    lam = solve_implicit(lambda lj: lj, 1.0, 0.5, seed=0.0)
    assert lam == pytest.approx(2.0, abs=1e-12)


def test_solve_implicit_cubic_slope_equation():
    # branch of x + lam z = lam^3 satisfies lam_z = lam * lam_x (implicit jets)
    f = lambda lj: poly_jet((0.0, 0.0, 0.0, 1.0), lj)
    rng = np.random.default_rng(3)
    x = rng.uniform(1.0, 2.0, 25)
    z = rng.uniform(0.1, 0.5, 25)
    lam0 = solve_implicit(f, x, z, seed=np.full(25, 1.2))
    xj, zj = jet_seed(x, z, 1)
    lj = implicit_jet(f, xj, zj, lam0)
    resid = jet_partial(lj, 0, 1) - lj.value * jet_partial(lj, 1, 0)
    assert np.max(np.abs(resid)) <= 1e-8


def test_solve_implicit_fold_is_an_error():
    # x + lam z = lam^2/2 folds where z = lam; aim straight at it.  The seed is the
    # root, and the fold test runs on every iterate before its convergence test
    f = lambda lj: poly_jet((0.0, 0.0, 0.5), lj)
    with pytest.raises(FoldError) as info:
        solve_implicit(f, -0.5, 1.0, seed=1.0)  # root lam = z = 1 is the fold
    assert str(info.value) == "implicit solve at a fold point: S'(lam)*z - F'(lam) ~ 0"


_coeff = st.floats(-2.0, 2.0)
# a point: its root lam*, then its z (an offset from the fold if it is near one), the
# near-fold flag and the seed's distance from lam*
_point = st.tuples(st.floats(-2.0, 2.0), st.floats(-3.0, 3.0), st.booleans(),
                   st.floats(-0.5, 0.5))


@settings(max_examples=300, deadline=None)
@given(st.tuples(_coeff, _coeff, _coeff, _coeff),
       st.none() | st.tuples(_coeff, _coeff, _coeff),
       st.lists(_point, min_size=1, max_size=6), st.floats(-2e-8, 2e-8))
@example((0.0, 0.0, 0.5, 0.0), None, [(1.0, 0.0, True, 0.0)], 0.0)  # seeded on the fold
@example((0.0, 0.0, 0.5, 0.0), None, [(1.0, 0.0, True, 0.0)], 1.5e-8)  # root just off it
@example((0.0, 0.0, 0.5, 0.0), None, [(1.0, 0.0, True, 0.3), (2.0, 1.0, False, 0.1)], 9e-9)
@example((0.0, 1.0, 0.0, 0.2), (1.0, 0.5, 0.25), [(0.5, 0.0, True, 0.2)], 1.2e-8)
def test_a_returned_root_meets_the_line_equation_and_keeps_off_the_fold(cf, cs, points, eps):
    # what SlopeBranch.resolve relies on: whenever solve_implicit returns, each root
    # solves x + S(lam) z = F(lam) to 1e-12 and keeps |S'(lam) z - F'(lam)| >= 1e-8,
    # recomputed as resolve computes them; else the solve raises FoldError or
    # ConvergenceError.  A near-fold point takes z with S'(lam*) z - F'(lam*) = eps.
    f = lambda tj: poly_jet(cf, tj)
    slope = None if cs is None else (lambda tj: poly_jet(cs, tj))
    star = np.array([p[0] for p in points])
    tj = jet_seed1(star, 1)
    sj, fj = (tj if slope is None else slope(tj)), f(tj)
    s_prime = jet_partial(sj, 1, 0)
    near = np.array([p[2] for p in points]) & (np.abs(s_prime) >= 0.1)
    z = np.where(near, (jet_partial(fj, 1, 0) + eps) / np.where(near, s_prime, 1.0),
                 [p[1] for p in points])
    x = fj.value - sj.value * z
    try:
        lam = solve_implicit(f, x, z, star + [p[3] for p in points], slope=slope)
    except (FoldError, ConvergenceError):
        return
    thj = f(jet_seed1(lam, 1))
    if slope is None:  # resolve's own two expressions
        defect, qden = np.abs(x + lam * z - thj.value), jet_partial(thj, 1, 0) - z
    else:
        sj = slope(jet_seed1(lam, 1))
        defect = np.abs(x + sj.value * z - thj.value)
        qden = jet_partial(thj, 1, 0) - jet_partial(sj, 1, 0) * z
    assert np.all(defect <= 1e-12) and np.all(np.abs(qden) >= 1e-8)


def test_an_implicit_solve_out_of_iterations_is_a_convergence_error(monkeypatch):
    # Newton reaches the root of the linear x + lam z = lam in one step, and only the
    # next iterate's test would see it
    monkeypatch.setattr(hodograph, "_IMPLICIT_MAX_ITER", 1)
    with pytest.raises(ConvergenceError) as info:
        solve_implicit(lambda lj: lj, 1.0, 0.5, seed=0.0)
    assert str(info.value) == "implicit solve: no convergence in 1 iterations"


# x + S(lam) z = F(lam) with a non-identity S, as degenerate's C_a^{1/2}
_S = lambda tj: jsqrt(poly_jet((1.0, 0.5, 0.25), tj))
_F = lambda tj: poly_jet((0.0, 1.0, 0.0, 0.2), tj)


def _general_branch(m):
    rng = np.random.default_rng(5)
    x, z = rng.uniform(1.0, 2.0, 25), rng.uniform(0.1, 0.5, 25)
    lam0 = solve_implicit(_F, x, z, seed=1.5, slope=_S)
    return x, z, lam0, implicit_jet(_F, *jet_seed(x, z, m), lam0, slope=_S)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_implicit_jet_of_the_general_equation(m):
    # x + S(lam) z = F(lam) gives lam_z = S(lam) lam_x, the S-weighted lam_z = lam lam_x
    x, z, lam0, lam = _general_branch(m)
    s_at = lambda t: _S(Jet2.constant(t, 0)).value
    resid = x + s_at(lam0) * z - _F(Jet2.constant(lam0, 0)).value
    assert np.max(np.abs(resid)) <= 1e-12
    resid = jet_partial(lam, 0, 1) - s_at(lam.value) * jet_partial(lam, 1, 0)
    assert np.max(np.abs(resid)) <= 1e-8
    # the whole jet solves the equation, up to order m
    xj, zj = jet_seed(x, z, m)
    s, f = (_univariate_on_jet(h, lam, derivative=False) for h in (_S, _F))
    assert np.max(np.abs((xj + s * zj - f).c)) <= 1e-10


def test_general_implicit_jet_orders_agree_bitwise():
    one, two = _general_branch(1)[3], _general_branch(2)[3]
    for i, j in ((0, 0), (1, 0), (0, 1)):
        assert one.plane(i, j).tobytes() == two.plane(i, j).tobytes(), (i, j)


def test_slope_none_is_the_identity_slope_bitwise():
    # slope=None skips S(lam) = lam and its products by S' = 1, which are exact
    f = lambda lj: poly_jet((0.0, 0.0, 0.0, 1.0), lj)
    rng = np.random.default_rng(3)
    x, z = rng.uniform(1.0, 2.0, 25), rng.uniform(0.1, 0.5, 25)
    lam0 = solve_implicit(f, x, z, seed=1.2)
    assert lam0.tobytes() == solve_implicit(f, x, z, seed=1.2, slope=lambda t: t).tobytes()
    xj, zj = jet_seed(x, z, 2)
    got = implicit_jet(f, xj, zj, lam0, slope=lambda t: t)
    assert got.c.tobytes() == implicit_jet(f, xj, zj, lam0).c.tobytes()


def _separate_evaluation(f, a, derivative):
    """f(a) or f'(a) from its own evaluation of f: the route the pair replaced."""
    fj = f(jet_seed(a.value, 0.0, a.m + derivative)[0])
    for _ in range(derivative):
        fj = fj.dx()
    return compose_series([fj.plane(k, 0) for k in range(a.m + 1)], a)


_UNIVARIATE = {
    "poly": lambda tj: poly_jet((0.5, -1.0, 0.25, 2.0), tj),
    "sqrt_poly": lambda tj: jsqrt(poly_jet((1.0, 0.5, 0.25), tj)),
    "t_log_poly": lambda tj: tj * jlog(poly_jet((0.5, 0.0, 1.0), tj)),
}


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("name", list(_UNIVARIATE))
def test_univariate_pair_is_bitwise_the_two_separate_evaluations(m, name):
    # one order-(m + 1) evaluation of f gives f(a) and f'(a) with the bits of
    # an order-m evaluation and of a differentiated order-(m + 1) one
    f = _UNIVARIATE[name]
    x, z = np.meshgrid(np.linspace(0.3, 1.7, 9), np.linspace(-0.4, 0.6, 5))
    xj, zj = jet_seed(x, z, m)
    a = xj * xj * 0.5 + zj * 0.75 + 0.25
    value, deriv = _univariate_on_jet(f, a)
    alone = _univariate_on_jet(f, a, derivative=False)
    for got, want in ((value, _separate_evaluation(f, a, 0)), (deriv, _separate_evaluation(f, a, 1)),
                      (alone, _separate_evaluation(f, a, 0))):
        assert got.m == want.m == m
        assert got.c.dtype == want.c.dtype and got.c.tobytes() == want.c.tobytes()


# -- slope matching -----------------------------------------------------------


def test_factorization_through_slope_construction():
    # build (b, c, W) from slope-field integrals of one rational weight and
    # recover W_b, W_c by finite differences through the parametrization
    from mongesol.families import _Primitive

    a, al1, al2 = 1.0, 1.0, 2.0
    cprime = lambda sj: (poly_jet((al1, 0, 0, 1.0), sj)
                         * poly_jet((al2, 0, 0, 1.0), sj) * a).recip()
    # per reference slope, one primitive of (C', s C', s^2 C')
    prim = {ref: _Primitive(lambda sj: (cprime(sj), sj * cprime(sj), sj * sj * cprime(sj)),
                            ref=ref)
            for ref in (0.6, 2.8)}

    def bc(n1, n2):
        v1, v2 = prim[0.6].value(n1), prim[2.8].value(n2)
        return v1[1] + v2[1], v1[0] + v2[0]

    def w(n1, n2):
        return prim[0.6].value(n1)[2] + prim[2.8].value(n2)[2]

    n1 = np.array([0.55, 0.60, 0.65])
    n2 = np.array([2.70, 2.80, 2.90])
    h = 1e-5
    b_n1, c_n1 = [(f(n1 + h, n2)[i] - f(n1 - h, n2)[i]) / (2 * h)
                  for f in (bc,) for i in (0, 1)]
    b_n2, c_n2 = [(bc(n1, n2 + h)[i] - bc(n1, n2 - h)[i]) / (2 * h) for i in (0, 1)]
    w_n1 = (w(n1 + h, n2) - w(n1 - h, n2)) / (2 * h)
    w_n2 = (w(n1, n2 + h) - w(n1, n2 - h)) / (2 * h)
    det = b_n1 * c_n2 - b_n2 * c_n1
    w_b = (w_n1 * c_n2 - w_n2 * c_n1) / det
    w_c = (b_n1 * w_n2 - b_n2 * w_n1) / det
    # the slopes are the roots of s^2 - W_b s - W_c: nu1 + nu2 = W_b, nu1 nu2 = -W_c
    assert np.max(np.abs(n1 + n2 - w_b)) <= 1e-8
    assert np.max(np.abs(n1 * n2 + w_c)) <= 1e-8


# -- separable modes ----------------------------------------------------------


def test_schrodinger_constant_positive_potential():
    sol = schrodinger_solve(lambda c: np.ones_like(np.asarray(c)), 1.0, (0.0, 1.0), steps=500)
    assert abs(sol.w1[-1] - np.cosh(1.0)) <= 1e-8
    assert abs(sol.w2[-1] - np.sinh(1.0)) <= 1e-8
    assert sol.wronskian_drift <= 1e-8


def test_schrodinger_constant_negative_potential():
    sol = schrodinger_solve(lambda c: -np.ones_like(np.asarray(c)), 1.0, (0.0, 1.0), steps=500)
    assert abs(sol.w1[-1] - np.cos(1.0)) <= 1e-8
    assert abs(sol.w2[-1] - np.sin(1.0)) <= 1e-8


def test_schrodinger_step_halving_self_convergence():
    a = schrodinger_solve(lambda c: np.asarray(c), 1.0, (0.0, 1.0), steps=1000)
    b = schrodinger_solve(lambda c: np.asarray(c), 1.0, (0.0, 1.0), steps=2000)
    assert abs(a.w1[-1] - b.w1[-1]) <= 1e-7
    assert abs(a.w2[-1] - b.w2[-1]) <= 1e-7


def test_schrodinger_rejects_few_steps_and_bad_profile():
    with pytest.raises(ValueError):
        schrodinger_solve(lambda c: np.asarray(c), 1.0, (0.0, 1.0), steps=10)
    with pytest.raises(MongesolError):
        schrodinger_solve(lambda c: np.full_like(np.asarray(c, dtype=float), np.nan),
                          1.0, (0.0, 1.0), steps=200)


def _linear_profile(c):
    return 1.0 + 0.5 * np.asarray(c, dtype=float)


def _flat_profile(c):
    return np.ones_like(np.asarray(c, dtype=float))


@pytest.mark.parametrize("profile", [_flat_profile, _linear_profile], ids=["constant", "linear"])
def test_schrodinger_array_k_equals_stacked_scalar_solves(profile):
    ks = np.array([[0.0, 0.5, 1.0], [1.5, 2.0, 3.0]])
    sol = schrodinger_solve(profile, ks, (0.0, 1.0), steps=300)
    assert sol.c_grid.shape == (301,)
    for name in ("w1", "w1p", "w2", "w2p"):
        assert getattr(sol, name).shape == (2, 3, 301)
        stacked = [getattr(schrodinger_solve(profile, float(k), (0.0, 1.0), steps=300), name)
                   for k in ks.ravel()]
        assert np.array_equal(getattr(sol, name), np.reshape(stacked, (2, 3, 301)))
    scalar = schrodinger_solve(profile, 1.0, (0.0, 1.0), steps=300)
    assert scalar.w1.shape == (301,) and scalar.k == 1.0
    assert sol.wronskian_drift == max(
        schrodinger_solve(profile, float(k), (0.0, 1.0), steps=300).wronskian_drift
        for k in ks.ravel())


def _rk4_reference(profile, k, c0, c1, steps):
    """Plain per-step RK4 on [c0, c1], the profile evaluated point by point."""
    h = (c1 - c0) / steps
    y = np.eye(2)
    out = [y]
    for i in range(steps):
        c = c0 + h * i

        def f(cv, y):
            return np.vstack([y[1], k * k * profile(cv) * y[0]])

        k1 = f(c, y)
        k2 = f(c + h / 2, y + h / 2 * k1)
        k3 = f(c + h / 2, y + h / 2 * k2)
        k4 = f(c + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(y)
    return np.array(out)


def _quadratic_profile(c):
    c = np.asarray(c, dtype=float)
    return 1.3 - 0.9 * c + 3.7 * c * c


@pytest.mark.parametrize("profile", [_flat_profile, _linear_profile, _quadratic_profile],
                         ids=["constant", "linear", "quadratic"])
def test_schrodinger_is_bitwise_the_per_step_scheme(profile):
    ks = np.array([0.3, 1.1, 2.7, 12.5])
    sol = schrodinger_solve(profile, ks, (-0.3, 1.1), steps=250)
    for i, k in enumerate(ks):
        ref = _rk4_reference(profile, float(k), -0.3, 1.1, 250)
        assert np.array_equal(sol.w1[i], ref[:, 0, 0]) and np.array_equal(sol.w2[i], ref[:, 0, 1])
        assert np.array_equal(sol.w1p[i], ref[:, 1, 0]) and np.array_equal(sol.w2p[i], ref[:, 1, 1])


def _stage_profile(profile, c_range, steps):
    """The step h and the profile at schrodinger_solve's stage points, three per step."""
    c0, c1 = float(c_range[0]), float(c_range[1])
    h = (c1 - c0) / steps
    grid = c0 + h * np.arange(steps + 1)
    stages = np.stack([grid[:-1], grid[:-1] + h / 2, grid[:-1] + h], axis=1).ravel()
    return h, np.broadcast_to(np.asarray(profile(stages), dtype=float), stages.shape)


def _stacked_rk4(profile, k, c_range, steps):
    """The former loop of schrodinger_solve, kept as the oracle: every stage stacks (w', v w)."""
    h, prof = _stage_profile(profile, c_range, steps)
    kk = np.asarray(k, dtype=float).reshape(-1)
    v = ((kk * kk)[None, :] * prof[:, None]).reshape(steps, 3, kk.size)

    def f(vc, y):
        return np.stack([y[1], vc * y[0]])

    ys = np.empty((steps + 1, 2, 2, kk.size))
    ys[0] = np.eye(2)[:, :, None]
    for i in range(steps):
        y = ys[i]
        k1 = f(v[i, 0], y)
        k2 = f(v[i, 1], y + h / 2 * k1)
        k3 = f(v[i, 1], y + h / 2 * k2)
        k4 = f(v[i, 2], y + h * k3)
        ys[i + 1] = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return ys


def _oscillatory_profile(c):
    return -(1.0 + np.asarray(c, dtype=float) ** 2)


@pytest.mark.parametrize("profile, ks, c_range, steps", [
    (_flat_profile, np.linspace(0.0, 2.0, 25), (0.0, 1.0), 1000),
    (_linear_profile, np.array([0.5, 1.0, 1.5, 2.0]), (0.0, 1.0), 2000),
    (_oscillatory_profile, np.array([0.0, 0.7, 3.0, 11.0]), (1.2, -0.4), 500),
], ids=["flat-25x1000", "linear-4x2000", "oscillatory-k0-reversed"])
def test_schrodinger_is_bitwise_the_stacked_stage_loop(profile, ks, c_range, steps):
    sol = schrodinger_solve(profile, ks, c_range, steps)
    ref = _stacked_rk4(profile, ks, c_range, steps)
    for name, (a, b) in {"w1": (0, 0), "w2": (0, 1), "w1p": (1, 0), "w2p": (1, 1)}.items():
        got = getattr(sol, name)
        assert got.shape == (ks.size, steps + 1)
        assert got.tobytes() == np.ascontiguousarray(ref[:, a, b].T).tobytes(), name


@pytest.mark.parametrize("c_range", [(0.5, 0.5), (0.0, np.nan), (np.nan, 1.0), (0.0, np.inf)])
def test_schrodinger_rejects_degenerate_or_non_finite_c_range(c_range):
    with pytest.raises(ValueError, match="c_range needs finite ends"):
        schrodinger_solve(_flat_profile, 1.0, c_range, steps=200)


def test_schrodinger_rejects_non_integral_steps():
    with pytest.raises(ValueError, match="steps must be an integer"):
        schrodinger_solve(_flat_profile, 1.0, (0.0, 1.0), steps=100.5)
    sol = schrodinger_solve(_flat_profile, 1.0, (0.0, 1.0), steps=np.int64(200))
    assert sol.w1.shape == (201,)


def test_schrodinger_samples_profile_once_per_solve():
    calls = []

    def counted(c):
        calls.append(np.size(c))
        return _linear_profile(c)

    schrodinger_solve(counted, np.linspace(0.0, 2.0, 7), (0.0, 1.0), steps=400)
    schrodinger_solve(counted, 1.0, (0.0, 1.0), steps=400)
    assert calls == [3 * 400, 3 * 400]


def test_schrodinger_nan_profile_raises_for_array_k():
    with pytest.raises(MongesolError, match="non-finite potential"):
        schrodinger_solve(lambda c: np.where(np.asarray(c) > 0.5, np.nan, 1.0),
                          np.array([0.5, 1.0, 2.0]), (0.0, 1.0), steps=200)


@pytest.mark.parametrize("ks, profile, where", [
    ([1.0, 1e200], _flat_profile, "k=1e+200, c=0.0"),  # k^2 alone overflows
    ([1.0, 1e10], lambda c: np.full(np.shape(c), 1e300), "k=10000000000.0, c=0.0"),
])
def test_schrodinger_names_the_node_whose_product_overflows(ks, profile, where):
    # every profile value is finite, so the profile is not to blame; numpy's
    # overflow warning must not escape either (CI runs with it as an error)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(MongesolError, match=re.escape(f"overflows at node {where}")):
            schrodinger_solve(profile, np.array(ks), (0.0, 1.0), steps=200)


def _whole_array_checks_raise(ksq, prof, stages, kk, h):
    """The former checks on the whole ``k^2 W_c``, kept as the oracle: the message of its
    first non-finite product, else of its first beyond the step limit above or below, in
    stage-then-node order; ``None`` when no product is either."""
    top, bottom = hodograph._RK4_STEP_LIMIT / abs(h), hodograph._RK4_OSC_STEP_LIMIT / abs(h)
    top, bottom = top * top, -bottom * bottom
    with np.errstate(over="ignore", invalid="ignore"):
        v = ksq[None, :] * prof[:, None]  # (stage points, nodes)
    bad = ~np.isfinite(v)
    if np.any(bad):
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        return (f"k^2 * W_c(c) overflows at node k={float(kk[j])!r}, "
                f"c={float(stages[i])!r}")
    bad = (v > top) | (v < bottom)
    if not np.any(bad):
        return None
    i, j = np.unravel_index(np.argmax(bad), bad.shape)
    limit = hodograph._RK4_STEP_LIMIT if v[i, j] > 0 else hodograph._RK4_OSC_STEP_LIMIT
    return (f"RK4 step too large at node k={float(kk[j])!r}, c={float(stages[i])!r}: "
            f"h * sqrt|k^2 W_c| = {abs(h) * math.sqrt(abs(v[i, j])):.4g} exceeds the "
            f"stability limit {limit:.4f}; use more steps")


_EDGE_FLOATS = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 1e154, 1e155, 1e200, -1e200,
                1e300, -1e300, 1.7976931348623157e308]
_gate_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(-1e3, 1e3),
                         st.floats(allow_nan=False, allow_infinity=False))


@given(ks=st.lists(_gate_floats, min_size=1, max_size=5),
       prof=st.lists(_gate_floats, min_size=1, max_size=7),
       h=st.one_of(st.sampled_from([1e-300, -1e-300, 1e-160, 1e-3, -0.5, 2.0]),
                   st.floats(1e-12, 10.0)))
# k^2 overflows to inf next to a zero profile value (inf * 0 is nan), a -0.0
# profile, an all-negative profile, and an h so small that top * top overflows
@example(ks=[1.0, 1e200], prof=[1.0, 0.0, 2.0], h=0.01)
@example(ks=[1e200], prof=[0.0, -0.0], h=0.01)
@example(ks=[3.0, 0.0], prof=[-0.0, -0.0], h=0.5)
@example(ks=[2.0, 300.0], prof=[-1.0, -0.25, -4.0], h=0.01)
@example(ks=[0.5, 1.0], prof=[-1.0, -3.0], h=0.9)
@example(ks=[1e150, 1.0], prof=[1e300, -1e300], h=1e-300)
@example(ks=[1e10], prof=[1e-300, -2.0], h=1e-300)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_the_factor_gate_trips_exactly_when_the_whole_array_checks_raise(ks, prof, h):
    kk, prof = np.array(ks), np.array(prof)
    stages = np.arange(prof.size) * 0.25  # distinct c per stage point, for the message
    with np.errstate(over="ignore"):  # k = 1e200: k^2 is inf, as in schrodinger_solve
        ksq = kk * kk
    want = _whole_array_checks_raise(ksq, prof, stages, kk, h)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if want is None:
            hodograph._check_stage_factors(ksq, prof, stages, kk, h)
        else:
            with pytest.raises(MongesolError) as info:
                hodograph._check_stage_factors(ksq, prof, stages, kk, h)
            assert str(info.value) == want


# -- the scalar and the array RK4 kernel ---------------------------------------

_SCALAR, _ARRAY = 10 ** 9, 0  # _SCALAR_MAX_NODES values that force each kernel
_LIMIT = hodograph._SCALAR_MAX_NODES
_BLOCK = hodograph._RK4_BLOCK  # steps per block of the array kernel's stage factors


def _solve_with(monkeypatch, limit, *args):
    monkeypatch.setattr(hodograph, "_SCALAR_MAX_NODES", limit)
    return schrodinger_solve(*args)


def _assert_same_bytes(a, b):
    for name in ("w1", "w1p", "w2", "w2p"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


def _nodes(count):
    """``count`` nodes on [-2, 3]; from three nodes on, the middle one is 0."""
    ks = np.linspace(-2.0, 3.0, count)
    if count >= 3:
        ks[count // 2] = 0.0
    return ks


def _old_rk4_scalar(v, ws, ps, h):
    """The former scalar kernel, kept as the oracle: one solution per call, the factor 2 an int."""
    hh, h6 = h / 2, h / 6
    w, p = ws[0], ps[0]
    it = iter(v)
    for i, (v0, v1, v2) in enumerate(zip(it, it, it), 1):
        k1p = w * v0
        k2w, k2p = p + hh * k1p, (w + hh * p) * v1
        k3w, k3p = p + hh * k2p, (w + hh * k2w) * v1
        k4w, k4p = p + h * k3p, (w + h * k3w) * v2
        w, p = w + h6 * (p + 2 * k2w + 2 * k3w + k4w), p + h6 * (k1p + 2 * k2p + 2 * k3p + k4p)
        ws[i] = w
        ps[i] = p


def _old_scalar_solve(profile, ks, c_range, steps):
    """schrodinger_solve's former scalar route, node by node and solution by solution."""
    h, prof = _stage_profile(profile, c_range, steps)
    ksq = ks * ks
    ys = np.empty((steps + 1, 2, 2, ks.size))
    ys[0] = np.eye(2)[:, :, None]
    for j in range(ks.size):
        vj = memoryview(ksq[j] * prof)
        for b in (0, 1):
            _old_rk4_scalar(vj, memoryview(ys[:, 0, b, j]), memoryview(ys[:, 1, b, j]), h)
    return ys


# 12 and 13 nodes, below the split, run the scalar kernel too
@pytest.mark.parametrize("count", list(dict.fromkeys([1, 12, 13, _LIMIT, _LIMIT + 1, 25])))
# steps: below one block, one block, a ragged third block, and many blocks
@pytest.mark.parametrize("steps", [100, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 3, 2000])
@pytest.mark.parametrize("profile, c_range", [(_linear_profile, (0.0, 1.0)),
                                              (_oscillatory_profile, (1.2, -0.4))],
                         ids=["increasing", "decreasing"])
def test_scalar_and_array_kernels_give_the_same_bytes(count, steps, profile, c_range,
                                                      monkeypatch):
    ks = _nodes(count)
    scalar = _solve_with(monkeypatch, _SCALAR, profile, ks, c_range, steps)
    array = _solve_with(monkeypatch, _ARRAY, profile, ks, c_range, steps)
    _assert_same_bytes(scalar, array)
    assert scalar.w1.shape == (count, steps + 1)
    old = _old_scalar_solve(profile, ks, c_range, steps)
    for name, (a, b) in {"w1": (0, 0), "w1p": (1, 0), "w2": (0, 1), "w2p": (1, 1)}.items():
        assert getattr(scalar, name).tobytes() == np.ascontiguousarray(old[:, a, b].T).tobytes(), name


def test_the_array_kernel_keeps_its_stage_factors_to_one_block():
    # 200 nodes x 2000 steps: the solution ys takes 12.8 MB, and the traced peak
    # is 14.5 MB (x86-64, numpy 2.4).  A whole k^2 W_c made it 25.3 MB, and stage
    # factors for all steps at once on top of that 43.0 MB.
    ks, steps = np.linspace(0.0, 2.0, 200), 2000
    whole = 8 * ks.size * 4 * (steps + 1)
    assert ks.size > _LIMIT and steps > 4 * _BLOCK
    tracemalloc.start()
    try:
        schrodinger_solve(_linear_profile, ks, (0.0, 1.0), steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * whole, peak


@pytest.mark.parametrize("k", [np.outer([1.0, 0.3, -1.7], [0.0, -0.5, 1.0, 2.5, -3.0]), -1.25],
                         ids=["2d", "scalar"])
def test_kernels_agree_on_a_2d_and_a_scalar_k(k, monkeypatch):
    scalar = _solve_with(monkeypatch, _SCALAR, _quadratic_profile, k, (-0.3, 1.1), 300)
    array = _solve_with(monkeypatch, _ARRAY, _quadratic_profile, k, (-0.3, 1.1), 300)
    _assert_same_bytes(scalar, array)
    assert scalar.w1.shape == np.shape(k) + (301,)


def test_each_node_is_a_single_node_solve_on_both_sides_of_the_limit():
    # a single node runs the scalar kernel; LIMIT nodes run it too, LIMIT + 1 the array one
    for count in (_LIMIT, _LIMIT + 1):
        ks = _nodes(count)
        sol = schrodinger_solve(_linear_profile, ks, (0.0, 1.0), 500)
        for j, k in enumerate(ks):
            one = schrodinger_solve(_linear_profile, float(k), (0.0, 1.0), 500)
            for name in ("w1", "w1p", "w2", "w2p"):
                assert getattr(sol, name)[j].tobytes() == getattr(one, name).tobytes(), (count, j)


@pytest.mark.parametrize("limit", [_SCALAR, _ARRAY], ids=["scalar", "array"])
def test_an_overflowing_mode_is_named_by_node_and_c(limit, monkeypatch):
    # cosh(800 c) leaves the doubles before c = 1: an error naming the node and the
    # first c, from either kernel, and no numpy warning (h k = 0.4, a stable step)
    monkeypatch.setattr(hodograph, "_SCALAR_MAX_NODES", limit)
    where = re.escape("mode overflows at node k=800.0, c=0.87")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(MongesolError, match=where):
            schrodinger_solve(_flat_profile, np.array([1.0, 800.0]), (0.0, 1.0), 2000)
        with pytest.raises(MongesolError, match=where):
            assemble_r_integral(lambda k: 1.0, lambda k: 0.0, [1.0, 800.0], _flat_profile,
                                (0.0, 1.0), (0.0, 1.0), nb=5, steps=2000)


@pytest.mark.parametrize("profile, c_range, where", [
    (lambda c: -np.ones_like(c), (0.0, 1.0), "k=600.0, c=0.0"),  # oscillatory, h k = 3
    (_flat_profile, (1.0, 0.0), "k=600.0, c=1.0"),  # growing and decaying, backwards
    (lambda c: np.where(np.asarray(c) > 0.5, 1.0, 0.01), (0.0, 1.0), "k=600.0, c=0.5025"),
])
def test_an_rk4_unstable_step_is_named_by_node_and_c(profile, c_range, where):
    # beyond h sqrt|k^2 W_c| = 2.785 (W_c > 0) or 2 sqrt(2) (W_c < 0) RK4 amplifies
    # every step: profile -1 at h k = 3 gave |w1| = 2e35 and a Wronskian drift of
    # 1e71 where this is now an error
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(MongesolError, match=re.escape(f"RK4 step too large at node {where}:")):
            schrodinger_solve(profile, np.array([1.0, 600.0, 700.0]), c_range, 200)
        with pytest.raises(MongesolError, match=re.escape(f"RK4 step too large at node {where}:")):
            assemble_r_integral(lambda k: 1.0, lambda k: 0.0, [1.0, 600.0], profile,
                                (0.0, 1.0), c_range, nb=5, steps=200)
    # just inside the limit: a solve, whose damping the drift reports
    sol = schrodinger_solve(lambda c: -np.ones_like(c), 557.0, (0.0, 1.0), 200)
    assert np.isfinite(sol.w1).all() and sol.wronskian_drift <= 1.0


@pytest.mark.parametrize("sign, k, limit", [
    (1.0, 278.0, None), (1.0, 279.0, "2.7853"),  # h k = 2.78, 2.79 on the real axis
    (-1.0, 282.5, None), (-1.0, 283.0, "2.8284"),  # h k = 2.825, 2.83 on the imaginary axis
])
def test_the_rk4_step_limit_follows_the_sign_of_w_c(sign, k, limit):
    # a decaying mode (W_c > 0) grows past h k = 2.785, an oscillating one (W_c < 0)
    # only past 2 sqrt(2), where RK4's amplification on the imaginary axis passes 1
    def run():  # 100 steps: the growing mode's cosh(k) stays finite
        return schrodinger_solve(lambda c: np.full_like(c, sign), k, (0.0, 1.0), 100)
    if limit is None:
        sol = run()
        assert np.isfinite(sol.w1).all() and np.isfinite(sol.w2p).all()
        if sign < 0:
            assert np.abs(sol.w1).max() <= 1.0 and sol.wronskian_drift <= 1.0
    else:
        with pytest.raises(MongesolError, match=re.escape(f"exceeds the stability limit {limit};")):
            run()


@pytest.mark.parametrize("ks, named", [
    (np.array([1 + 2j]), "(1+2j)"),
    (np.array([0.5, 1.0, 2 - 1e-300j]), "(2-1e-300j)"),
    (np.array([1.0 + 0j]), "(1+0j)"),  # complex-typed, even when real in value
    (3j, "3j"),
], ids=["complex", "tiny-imaginary-part", "complex-typed", "scalar"])
def test_a_complex_node_is_an_error_before_the_profile_is_sampled(ks, named):
    # assemble_r_integral's float() of a numpy complex node used to drop its imaginary part
    calls = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        with pytest.raises(ValueError, match=re.escape(f"complex mode node k={named}") + "$"):
            schrodinger_solve(lambda c: calls.append(c) or np.ones_like(c), ks, (0.0, 1.0), 200)
        with pytest.raises(ValueError, match=re.escape(f"complex mode node k={named}") + "$"):
            assemble_r_integral(lambda k: 1.0, lambda k: 0.0, np.ravel(ks), calls.append,
                                (0.0, 1.0), (0.0, 1.0), nb=5, steps=200)
    assert calls == []


@pytest.mark.parametrize("profile, where", [
    (lambda c: np.where(c > 0.5, 1.0 + 0.25j, 1.0 + 0j), "c=0.5025"),
    (lambda c: np.ones_like(c) + 0j, "c=0.0"),
    (lambda c: 2j, "c=0.0"),
], ids=["past-half", "complex-typed", "scalar"])
def test_a_complex_profile_is_an_error_naming_its_c(profile, where):
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        message = re.escape(f"complex potential profile value at {where}") + "$"
        with pytest.raises(MongesolError, match=message):
            schrodinger_solve(profile, np.array([0.5, 1.0]), (0.0, 1.0), 200)


def _per_node_r(f1, f2, nodes, profile, nb, steps):
    """R, R_bb on every c, the c grid and the worst Wronskian drift from one scalar
    solve per node (trapezoid weights)."""
    b = np.linspace(0.0, 1.0, nb)
    diffs = np.diff(nodes)
    weights = np.zeros(len(nodes))
    weights[:-1] += diffs / 2
    weights[1:] += diffs / 2
    r = np.zeros((nb, steps + 1))
    rbb = np.zeros((nb, steps + 1))
    drift = 0.0
    for wgt, k in zip(weights, nodes):
        sol = schrodinger_solve(profile, k, (0.0, 1.0), steps)
        amp = wgt * (f1(k) * sol.w1 + f2(k) * sol.w2)
        r += np.exp(k * b)[:, None] * amp[None, :]
        rbb += (k * k) * np.exp(k * b)[:, None] * amp[None, :]
        drift = max(drift, sol.wronskian_drift)
    return r, rbb, sol.c_grid, drift


def test_assemble_trapezoid_matches_per_node_reference():
    f1 = lambda k: float(np.exp(-18 * (k - 1) ** 2))
    f2 = lambda k: 0.3 * f1(k)
    nodes = [float(k) for k in np.linspace(0.0, 2.0, 13)]
    refined = [nodes[0]]
    for a, b in zip(nodes[:-1], nodes[1:]):
        refined.extend([(a + b) / 2, b])
    stencil = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
    for steps in (150, 400, 777):  # strides 2, 4 and 8, the last with a ragged last column
        res = assemble_r_integral(f1, f2, nodes, _linear_profile, (0.0, 1.0), (0.0, 1.0),
                                  nb=9, steps=steps, mode="trapezoid")
        r, rbb, c, drift = _per_node_r(f1, f2, nodes, _linear_profile, nb=9, steps=steps)
        r2 = _per_node_r(f1, f2, refined, _linear_profile, nb=9, steps=steps)[0]
        assert np.array_equal(res.r_values, r)
        assert res.wronskian_drift == drift
        assert res.node_doubling_change == float(np.max(np.abs(r2 - r)))
        # the residual from R_bb summed on every c, read on the stencil's columns
        stride = max(1, int(round(0.01 * (c[-1] - c[0]) / (c[1] - c[0]))))
        cs, rs, rbbs = c[::stride], r[:, ::stride], rbb[:, ::stride]
        h = cs[1] - cs[0]
        rcc = sum(coef * rs[:, i: rs.shape[1] - (6 - i)] for i, coef in enumerate(stencil))
        resid = np.abs(rcc / (h * h) - _linear_profile(cs[3:-3]) * rbbs[:, 3:-3])
        assert (res.residual_max, res.residual_mean) == \
            (float(np.max(resid)), float(np.mean(resid))), steps


def test_assemble_single_mode_is_exact():
    res = assemble_r_integral(
        lambda k: 1.0, lambda k: 0.0, [1.0],
        lambda c: np.ones_like(np.asarray(c)), (0.0, 1.0), (0.0, 1.0), nb=21, steps=2000,
    )
    # R = e^b cosh(c): check values and the equation residual
    bb, cc = np.meshgrid(res.b_grid, res.c_grid, indexing="ij")
    assert np.max(np.abs(res.r_values - np.exp(bb) * np.cosh(cc))) <= 1e-8
    assert res.residual_max <= 1e-10
    assert res.wronskian_drift <= 1e-8


def test_assemble_two_mode_superposition():
    res = assemble_r_integral(
        lambda k: 0.7, lambda k: 0.3, [0.8, 1.3],
        lambda c: np.ones_like(np.asarray(c)), (0.0, 1.0), (0.0, 1.0), nb=21, steps=2000,
    )
    assert res.residual_max <= 1e-8


def test_assemble_zero_weights():
    res = assemble_r_integral(
        lambda k: 0.0, lambda k: 0.0, [1.0],
        lambda c: np.ones_like(np.asarray(c)), (0.0, 1.0), (0.0, 1.0), nb=11, steps=500,
    )
    assert np.max(np.abs(res.r_values)) == 0.0
    assert res.residual_max == 0.0


def test_assemble_trapezoid_converged_weight():
    res = assemble_r_integral(
        lambda k: np.exp(-18 * (k - 1) ** 2), lambda k: 0.0,
        list(np.linspace(0.0, 2.0, 33)),
        lambda c: np.ones_like(np.asarray(c)), (0.0, 1.0), (0.0, 1.0),
        nb=15, steps=1000, mode="trapezoid",
    )
    assert res.node_doubling_change is not None and res.node_doubling_change <= 1e-6
    assert res.residual_max <= 1e-8


def test_assemble_trapezoid_nonconvergence_is_an_error():
    with pytest.raises(QuadratureError):
        assemble_r_integral(
            lambda k: np.exp(-3 * (k - 1) ** 2), lambda k: 0.0,
            list(np.linspace(0.5, 1.5, 9)),
            lambda c: np.ones_like(np.asarray(c)), (0.0, 1.0), (0.0, 1.0),
            nb=9, steps=600, mode="trapezoid",
        )


def test_assemble_rejects_bad_arguments():
    args = (lambda k: 1.0, lambda k: 0.0, [1.0], _flat_profile, (0.0, 1.0))
    with pytest.raises(ValueError, match="c_range needs finite ends"):
        assemble_r_integral(*args, (0.3, 0.3), nb=5, steps=200)
    with pytest.raises(ValueError, match="c_range needs finite ends"):
        assemble_r_integral(*args, (0.0, np.nan), nb=5, steps=200)
    with pytest.raises(ValueError, match="steps must be an integer"):
        assemble_r_integral(*args, (0.0, 1.0), nb=5, steps=100.5)
    with pytest.raises(ValueError, match="nb must be at least 1"):
        assemble_r_integral(*args, (0.0, 1.0), nb=0, steps=200)
    with pytest.raises(ValueError, match="nb must be an integer"):
        assemble_r_integral(*args, (0.0, 1.0), nb=5.0, steps=200)
    with pytest.raises(ValueError, match="^unknown quadrature mode 'simpson'$"):
        assemble_r_integral(*args, (0.0, 1.0), nb=5, steps=200, mode="simpson")
    with pytest.raises(ValueError, match="^k_nodes must be nonempty$"):
        assemble_r_integral(*args[:2], [], *args[3:], (0.0, 1.0), nb=5, steps=200)


def test_assemble_reversed_c_range_still_works():
    res = assemble_r_integral(lambda k: 1.0, lambda k: 0.0, [1.0], _flat_profile,
                              (0.0, 1.0), (1.0, 0.0), nb=11, steps=1000)
    assert res.c_grid[0] == 1.0 and res.c_grid[-1] == 0.0
    bb, cc = np.meshgrid(res.b_grid, res.c_grid, indexing="ij")
    # R = e^b cosh(c - 1) from the data (1, 0) at c = 1
    assert np.max(np.abs(res.r_values - np.exp(bb) * np.cosh(cc - 1.0))) <= 1e-8


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_assemble_sum_rejects_non_finite_amplitude(bad):
    with pytest.raises(QuadratureError, match=r"non-finite mode amplitude at k=1\.5"):
        assemble_r_integral(lambda k: 1.0, lambda k: bad if k == 1.5 else 0.3,
                            [0.5, 1.0, 1.5, 2.0], _linear_profile, (0.0, 1.0), (0.0, 1.0),
                            nb=5, steps=200)


def test_assemble_trapezoid_rejects_non_finite_amplitude_on_a_doubling_node():
    # 0.25 is a midpoint node: only the node-doubling build meets the NaN, and a
    # NaN change used to pass the doubling test
    f1 = lambda k: np.nan if k == 0.25 else float(np.exp(-18 * (k - 1) ** 2))
    with pytest.raises(QuadratureError, match=r"non-finite mode amplitude at k=0\.25"):
        assemble_r_integral(f1, lambda k: 0.0, [float(k) for k in np.linspace(0.0, 2.0, 5)],
                            _flat_profile, (0.0, 1.0), (0.0, 1.0), nb=5, steps=200,
                            mode="trapezoid")


def test_assemble_trapezoid_nan_doubling_change_is_an_error():
    # finite amplitudes whose R overflows: both builds hold inf, so their change is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(QuadratureError, match="not converged"):
            assemble_r_integral(lambda k: 1e308, lambda k: 0.0,
                                [float(k) for k in np.linspace(0.0, 2.0, 13)],
                                _flat_profile, (0.0, 1.0), (0.0, 1.0), nb=5, steps=200,
                                mode="trapezoid")


def test_schrodinger_non_finite_node_is_named_before_the_profile_is_sampled():
    calls = []
    profile = lambda c: calls.append(c) or np.ones_like(c)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=rf"non-finite mode node k={bad!r}$"):
            schrodinger_solve(profile, np.array([1.0, bad]), (0.0, 1.0), steps=200)
    assert calls == []


def test_schrodinger_profile_error_prints_c_as_a_float():
    with pytest.raises(MongesolError, match=r"non-finite potential profile value at c=0\.0$"):
        schrodinger_solve(lambda c: np.full_like(c, np.nan), 1.0, (0.0, 1.0), steps=200)


@pytest.mark.parametrize("end", [np.nan, np.inf, -np.inf])
def test_assemble_rejects_a_non_finite_b_range_end(end):
    with pytest.raises(ValueError, match="b_range needs finite ends"):
        assemble_r_integral(lambda k: 1.0, lambda k: 0.0, [1.0], _flat_profile,
                            (0.0, end), (0.0, 1.0), nb=5, steps=200)


def test_assemble_sum_overflowing_r_is_an_error():
    # finite amplitudes whose R overflows to inf: the residual used to read nan
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(QuadratureError, match="R or its residual is not finite"):
            assemble_r_integral(lambda k: 1e308, lambda k: 0.0, [0.5, 1.0, 1.5, 2.0],
                                _linear_profile, (0.0, 1.0), (0.0, 1.0), nb=5, steps=200)
