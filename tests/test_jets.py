import functools
import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mongesol.errors import BranchCutError
from mongesol.jets import (
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


def test_seed_coordinate_jets():
    xj, zj = jet_seed(2.0, 3.0, 2)
    assert xj.value == 2.0 and xj.plane(1, 0) == 1.0 and xj.plane(0, 1) == 0.0
    assert zj.value == 3.0 and zj.plane(0, 1) == 1.0 and zj.plane(1, 0) == 0.0


def test_seed_origin_minimal_order():
    xj, zj = jet_seed(0.0, 0.0, 1)
    assert xj.value == 0.0 and zj.value == 0.0
    assert xj.plane(1, 0) == 1.0 and zj.plane(0, 1) == 1.0
    # order 0: constant jets, values only
    xj, zj = jet_seed(np.array([0.5, -1.0]), 2.0, 0)
    assert xj.m == zj.m == 0 and xj.c.shape == (1, 1, 2) and zj.c.shape == (1, 1)
    assert xj.value.tolist() == [0.5, -1.0] and zj.value == 2.0
    with pytest.raises(ValueError):
        jet_seed(0.0, 0.0, -1)


def test_seed_sum_linearity():
    xj, zj = jet_seed(1.0, 1.0, 3)
    s = xj + zj
    assert s.value == 2.0 and s.plane(1, 0) == 1.0 and s.plane(0, 1) == 1.0


def test_mul_product_of_coordinates():
    xj, zj = jet_seed(2.0, 3.0, 2)
    p = xj * zj
    assert p.value == 6.0 and p.plane(1, 0) == 3.0 and p.plane(0, 1) == 2.0 and p.plane(1, 1) == 1.0


def test_mul_identity():
    xj, zj = jet_seed(1.5, -0.5, 3)
    one = Jet2.constant(1.0, 3)
    a = (xj + 2.0 * zj) * (xj * zj + 0.25)
    b = a * one
    assert np.allclose(a.c, b.c, rtol=0, atol=0)


def test_mul_square_binomial():
    xj, _ = jet_seed(1.0, 0.0, 3)
    sq = xj * xj
    assert sq.value == 1.0 and sq.plane(1, 0) == 2.0 and sq.plane(2, 0) == 1.0


def test_mul_order_mismatch():
    a, _ = jet_seed(0.0, 0.0, 2)
    b, _ = jet_seed(0.0, 0.0, 3)
    with pytest.raises(ValueError):
        a * b


def test_compose_exp_series():
    xj, _ = jet_seed(0.0, 0.0, 2)
    e = jexp(xj)
    assert abs(e.value - 1.0) == 0 and abs(e.plane(1, 0) - 1.0) == 0
    assert abs(e.plane(2, 0) - 0.5) == 0


def test_compose_identity_series():
    xj, zj = jet_seed(0.7, -0.3, 3)
    a = xj * zj + 2.0
    ident = [a.value, np.ones_like(a.value)] + [np.zeros_like(a.value)] * 2
    b = compose_series(ident, a)
    assert np.allclose(a.c, b.c, atol=1e-15)


def test_log_exp_roundtrip():
    xj, _ = jet_seed(0.4, 0.0, 4)
    r = jlog(jexp(xj))
    assert np.max(np.abs(r.c - xj.c)) <= 1e-12


def test_compose_associativity_on_safe_domain():
    # g(h(a)) == (g o h)(a) for exp/log chains
    xj, zj = jet_seed(1.3, 0.2, 3)
    a = xj + 0.5 * zj
    lhs = jexp(jlog(a) * 0.5)
    rhs = jsqrt(a)
    assert np.max(np.abs(lhs.c - rhs.c)) <= 1e-12


def test_partial_extraction():
    xj, _ = jet_seed(1.0, 0.0, 3)
    sq = xj * xj
    assert jet_partial(sq, 2, 0) == 2.0
    assert jet_partial(sq, 0, 0) == sq.value
    with pytest.raises(ValueError):
        jet_partial(sq, 2, 2)


def test_partial_mixed_quadratic_field():
    # U = (x+z)^2 + (x-z)^2 has U_xx = U_zz = 4 everywhere
    for x0, z0 in [(0.0, 0.0), (1.3, -2.2), (5.0, 7.0)]:
        xj, zj = jet_seed(x0, z0, 2)
        u = (xj + zj) * (xj + zj) + (xj - zj) * (xj - zj)
        assert jet_partial(u, 2, 0) == pytest.approx(4.0, abs=1e-13)
        assert jet_partial(u, 0, 2) == pytest.approx(4.0, abs=1e-13)


def test_partial_commutes_with_linear_combinations():
    xj, zj = jet_seed(0.3, 0.9, 3)
    a = jexp(xj * 0.5) * zj
    b = poly_jet((1.0, 2.0, 0.5), xj + zj)
    lin = 2.0 * a - 3.0 * b
    for i, j in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        want = 2.0 * jet_partial(a, i, j) - 3.0 * jet_partial(b, i, j)
        assert jet_partial(lin, i, j) == pytest.approx(want, rel=1e-13, abs=1e-13)


coeff = st.integers(min_value=-4, max_value=4)


@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), coeff), min_size=1, max_size=5),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), coeff), min_size=1, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_mul_matches_exact_convolution(terms_p, terms_q):
    # oracle: integer-coefficient polynomial product, convolved exactly in python
    m = 4
    p = np.zeros((m + 1, m + 1))
    q = np.zeros((m + 1, m + 1))
    for i, j, c in terms_p:
        if i + j <= m:
            p[i, j] += c
    for i, j, c in terms_q:
        if i + j <= m:
            q[i, j] += c
    exact = {}
    for i in range(m + 1):
        for j in range(m + 1 - i):
            for r in range(m + 1):
                for s in range(m + 1 - r):
                    if i + j + r + s <= m:
                        exact[(i + r, j + s)] = exact.get((i + r, j + s), 0) + int(p[i, j]) * int(q[r, s])
    prod = _pack(m, p[..., None] * np.ones(1)) * _pack(m, q[..., None] * np.ones(1))
    for (i, j), v in exact.items():
        got = prod.plane(i, j)[0]
        assert got == pytest.approx(v, rel=1e-13, abs=1e-13)


@given(st.floats(0.2, 3.0), st.floats(-2.0, 2.0))
@settings(max_examples=30, deadline=None)
def test_partial_against_finite_differences(x0, z0):
    def field(x, z):
        xj, zj = jet_seed(x, z, 2)
        return jexp(xj * 0.3) * poly_jet((1.0, 0.5, 0.2), zj) + jlog(xj + 3.0)

    h = 1e-4
    f = field(x0, z0)
    fx = (field(x0 + h, z0).value - field(x0 - h, z0).value) / (2 * h)
    fz = (field(x0, z0 + h).value - field(x0, z0 - h).value) / (2 * h)
    assert jet_partial(f, 1, 0) == pytest.approx(fx, rel=1e-5, abs=1e-8)
    assert jet_partial(f, 0, 1) == pytest.approx(fz, rel=1e-5, abs=1e-8)


def test_log_branch_cut_is_an_error():
    xj, _ = jet_seed(-1.0, 0.0, 2)
    with pytest.raises(BranchCutError):
        jlog(xj)
    with pytest.raises(BranchCutError):
        jpow(xj, 0.5)
    # integer powers of negative centers are fine
    assert jpow(xj, 2).value == 1.0
    assert jpow(xj, -1).value == -1.0


def test_recip_of_zero_errors():
    xj, _ = jet_seed(0.0, 0.0, 2)
    with pytest.raises(ZeroDivisionError):
        xj.recip()


def test_array_payload_broadcasting():
    x = np.linspace(0.5, 2.0, 7)
    z = np.linspace(-1.0, 1.0, 7)
    xj, zj = jet_seed(x, z, 2)
    f = jexp(xj) * zj + jsqrt(xj)
    assert f.value.shape == (7,)
    single = jexp(jet_seed(x[3], z[3], 2)[0]) * jet_seed(x[3], z[3], 2)[1] + jsqrt(
        jet_seed(x[3], z[3], 2)[0]
    )
    assert f.value[3] == pytest.approx(single.value, rel=1e-15)


# -- the kernel against a verbatim copy of the loops it replaced --------------
# Each _old_* function is the implementation that the in-place kernel replaced,
# kept as the oracle: every coefficient must match it bit for bit, signed zeros
# and NaNs included, because the product's summation order and its skipping of
# all-zero planes of the left factor are part of the jet contract.  One
# exception came with the packed layout: at a point where a jet's value is nan,
# the signs of the nan coefficients of its reciprocal above the value plane
# (test_recip_of_a_zero_value_raises).  Each is a product of two nans in the
# last scaling ``acc * inv``, IEEE 754 leaves such a sign open, and numpy's
# float loops keep one operand's nan or the other's by the element's place in
# one loop over the whole array, which the layout moves.  The oracles
# run on the square layout of their time, coefficients ``c[i, j]`` of shape
# ``(m + 1, m + 1) + points`` held in a Jet2 as a plain container: ``_sq``
# gives them a packed jet's planes, and ``_assert_bitwise`` reads back the
# triangle of their result.


def _triangle(m):
    return [(i, j) for i in range(m + 1) for j in range(m + 1 - i)]


def _pack(m, square):
    """The packed jet of square-layout coefficients; planes off the triangle are dropped."""
    return Jet2(m, np.stack([square[i, j] for i, j in _triangle(m)])[None])


def _sq(jet):
    """The square layout of a packed jet, +0 off the triangle: an oracle's input."""
    c = np.zeros((jet.m + 1, jet.m + 1) + jet.shape, dtype=jet.c.dtype)
    for i, j in _triangle(jet.m):
        c[i, j] = jet.plane(i, j)
    return Jet2(jet.m, c)


def _old_constant(value, m):
    value = np.asarray(value)
    c = np.zeros((m + 1, m + 1) + value.shape, dtype=np.result_type(value.dtype, np.float64))
    c[0, 0] = value
    return Jet2(m, c)


def _old_add(self, other):  # the scalar path of Jet2.__add__
    out = self.c.copy()
    out = out.astype(np.result_type(out.dtype, np.asarray(other).dtype))
    out[0, 0] = out[0, 0] + other
    return Jet2(self.m, out)


def _old_mul(self, other):
    m = self.m
    shape = np.broadcast_shapes(self.shape, other.shape)
    out = np.zeros((m + 1, m + 1) + shape, dtype=np.result_type(self.c.dtype, other.c.dtype))
    for i in range(m + 1):
        for j in range(m + 1 - i):
            a = self.c[i, j]
            if not np.any(a):
                continue
            rest = m - i - j
            for p in range(rest + 1):
                for q in range(rest + 1 - p):
                    out[i + p, j + q] += a * other.c[p, q]
    return Jet2(m, out)


def _old_recip(self):
    v = self.value
    inv = 1.0 / v
    n = Jet2(self.m, -(self.c * inv))
    n.c[0, 0] = np.zeros_like(n.c[0, 0])
    acc = _old_constant(np.ones_like(inv), self.m)
    for _ in range(self.m):
        acc = _old_mul(acc, n)
        acc.c[0, 0] = acc.c[0, 0] + 1.0
    return Jet2(self.m, acc.c * inv)


def _old_dx(self):
    m = self.m - 1
    out = np.zeros((m + 1, m + 1) + self.shape, dtype=self.c.dtype)
    for i in range(m + 1):
        for j in range(m + 1 - i):
            out[i, j] = (i + 1) * self.c[i + 1, j]
    return Jet2(m, out)


def _old_seed(x0, z0, m):
    xj = _old_constant(x0, m)
    xj.c[1, 0] = np.ones_like(xj.c[0, 0])
    zj = _old_constant(z0, m)
    zj.c[0, 1] = np.ones_like(zj.c[0, 0])
    return xj, zj


def _old_compose_series(tk, a):
    n = Jet2(a.m, a.c.copy())
    n.c[0, 0] = np.zeros_like(n.c[0, 0])
    acc = _old_constant(np.broadcast_to(np.asarray(tk[a.m]), a.shape).copy(), a.m)
    for k in range(a.m - 1, -1, -1):
        acc = _old_mul(acc, n)
        acc.c[0, 0] = acc.c[0, 0] + tk[k]
    return acc


def _old_poly_jet(coeffs, a):
    acc = _old_constant(np.broadcast_to(np.asarray(coeffs[-1]), a.shape).copy(), a.m)
    for ck in reversed(coeffs[:-1]):
        acc = _old_mul(acc, a)
        acc.c[0, 0] = acc.c[0, 0] + ck
    return acc


def _lined_up(a, b):
    """Jets ``a`` and ``b`` on the points of both, their planes broadcast into new
    arrays, unit axes put in front.  An operation between jets on different points
    is refused, so a caller lines them up first."""
    if a.shape == b.shape:
        return a, b
    with pytest.raises(ValueError, match="jet point shape mismatch"):
        a * b
    points = np.broadcast_shapes(a.shape, b.shape)
    return tuple(type(j)(j.m, np.broadcast_to(j.c.reshape(j.c.shape[:2] + (1,) * (
        len(points) - len(j.shape)) + j.shape), j.c.shape[:2] + points).copy()) for j in (a, b))


def _assert_bitwise(new, old):
    """Packed ``new`` holds the triangle of square-layout ``old``, bit for bit."""
    assert new.m == old.m
    want = _pack(old.m, old.c).c
    assert new.c.dtype == want.dtype and new.c.shape == want.shape
    assert np.array_equal(new.c, want, equal_nan=True)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(new.c)), np.signbit(part(want)))


def _sample(rng, m, shape, complex_):
    """Triangle coefficients with whole zero and minus-zero planes and scattered signed zeros."""
    size = (m + 1, m + 1) + shape
    c = rng.standard_normal(size)
    if complex_:
        c = c + 1j * rng.standard_normal(size)
    for i in range(m + 1):
        for j in range(m + 1):
            if i + j > m:
                c[i, j] = 0.0
            elif rng.random() < 0.3:  # an all-zero plane, +0 or -0 (np.any is false for both)
                c[i, j] = rng.choice([0.0, -0.0])
            else:
                pick = rng.random(shape)
                np.copyto(c[i, j, ...], 0.0, where=pick < 0.15)
                np.copyto(c[i, j, ...], -0.0, where=pick > 0.85)
    return _pack(m, c)


_SHAPES = [((5,), (5,)), ((4, 1), (1, 7)), ((), ()), ((), (3,)), ((0,), (0,))]
_KINDS = [(False, False), (True, True), (False, True), (True, False)]  # complex self, other


@pytest.mark.parametrize("m", range(6))
@pytest.mark.parametrize("shapes", _SHAPES, ids=str)
@pytest.mark.parametrize("kinds", _KINDS, ids=str)
def test_mul_is_bitwise_the_old_loop(m, shapes, kinds):
    rng = np.random.default_rng([m, len(shapes[0]), len(shapes[1]), *kinds])
    for _ in range(4):
        a = _sample(rng, m, shapes[0], kinds[0])
        b = _sample(rng, m, shapes[1], kinds[1])
        la, lb = _lined_up(a, b)
        _assert_bitwise(la * lb, _old_mul(_sq(la), _sq(lb)))
        _assert_bitwise(lb * la, _old_mul(_sq(lb), _sq(la)))
        _assert_bitwise(a * -a, _old_mul(_sq(a), _sq(-a)))


@pytest.mark.parametrize("m", range(6))
@pytest.mark.parametrize("shape", [(5,), (), (0,)], ids=str)
@pytest.mark.parametrize("complex_", [False, True])
def test_recip_compose_poly_add_dx_are_bitwise_the_old_code(m, shape, complex_):
    rng = np.random.default_rng([m, len(shape), complex_])
    for _ in range(3):
        a = _sample(rng, m, shape, complex_)
        a.c[0, 0] = 0.5 + rng.random(shape)  # a nonzero value, so recip is defined
        _assert_bitwise(a.recip(), _old_recip(_sq(a)))
        tk = [_sample(rng, 0, shape, complex_).value for _ in range(m + 1)]
        _assert_bitwise(compose_series(tk, a), _old_compose_series(tk, _sq(a)))
        floats = [float(t) for t in rng.standard_normal(m + 1)]
        _assert_bitwise(compose_series(floats, a), _old_compose_series(floats, _sq(a)))
        coeffs = tuple(rng.standard_normal(4)) + (-0.0,)
        _assert_bitwise(poly_jet(coeffs, a), _old_poly_jet(coeffs, _sq(a)))
        _assert_bitwise(poly_jet(coeffs[:1], a), _old_poly_jet(coeffs[:1], _sq(a)))
        for other in (2.5, -0.0, 1.5j, np.full(shape, -0.0), rng.standard_normal(shape)):
            _assert_bitwise(a + other, _old_add(_sq(a), other))
            _assert_bitwise(a - other, _old_add(_sq(a), -np.asarray(other)))
        if m >= 1:
            _assert_bitwise(a.dx(), _old_dx(_sq(a)))
            _assert_bitwise((-a).dx(), _old_dx(_sq(-a)))
    x0 = rng.standard_normal(shape) + (1j if complex_ else 0)
    for new, old in zip(jet_seed(x0, -0.0, max(m, 1)), _old_seed(x0, -0.0, max(m, 1))):
        _assert_bitwise(new, old)


def test_dx_of_non_finite_coefficients_is_bitwise_the_old_loop():
    for dtype in (float, complex):
        c = np.zeros((4, 4), dtype=dtype)
        c[1, 0], c[1, 1], c[2, 0], c[0, 2] = np.inf, np.nan, -np.inf, 3.0
        if dtype is complex:
            c[3, 0] = complex(np.inf, 1.0)
        with np.errstate(invalid="ignore"):  # inf * (k + 0j) forms inf * 0 in the imaginary part
            _assert_bitwise(_pack(3, c).dx(), _old_dx(Jet2(3, c)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_all_zero_planes_of_the_left_factor_are_skipped(bad):
    # inf or nan in `other`, under planes of `self` that are all (signed) zero:
    # multiplying such a plane would form 0 * inf = nan in the result
    m = 3
    a = Jet2.constant(np.array([2.0, -3.0]), m)
    a.plane(0, 1)[...] = -0.0
    b = _sample(np.random.default_rng(7), m, (2,), False)
    b.plane(1, 0)[...] = bad
    b.plane(0, 2)[1] = bad
    with np.errstate(invalid="ignore"):  # a kernel that multiplies zero planes fails below, not here
        new = a * b
    _assert_bitwise(new, _old_mul(_sq(a), _sq(b)))
    assert not np.isnan(new.plane(2, 0)).any() and not np.isnan(new.plane(1, 2)).any()


def test_a_complex_constant_on_a_real_jet_promotes_the_jet():
    # a complex coefficient under a real highest one: the sum is complex, no plane
    # is cast back to real (which warned and dropped the imaginary part)
    x = np.array([0.5, 1.0])
    for m in range(3):
        xj = jet_seed(x, np.zeros(2), m)[0]
        want = xj + 1j
        tk = [x + 1j, 1.0] + [0.0] * (m - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = (poly_jet((1j, 1.0), xj), compose_series(tk[:m + 1], xj))
        assert want.c.dtype == complex
        for jet in got:
            assert jet.c.dtype == complex
            for i, j in _triangle(m):
                assert _bytes(jet.plane(i, j)) == _bytes(want.plane(i, j)), (m, i, j)


@pytest.mark.parametrize("m", range(3))
def test_an_operand_with_more_axes_than_the_points_is_an_error(m):
    # it would broadcast against the plane axis: (x * col) gave a value of [10, 20]
    # and an x-plane of [30, 30] at order 1
    xj = jet_seed(np.array([1.0, 2.0]), np.array([0.0, 0.0]), m)[0]
    col = np.array([[10.0], [20.0], [30.0]])
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(ValueError):
            op(xj, col)
        with pytest.raises(ValueError):
            op(Jet2.constant(2.0, m), col[0])  # 0-d points
    for op in (operator.add, operator.sub, operator.mul):  # the reflected operations
        with pytest.raises(ValueError):
            op(col, xj)
    # an operand with as many axes as the points is still taken
    assert np.array_equal((xj * col[0]).value, [10.0, 20.0])
    assert np.array_equal((xj + col[0]).value, [11.0, 12.0])


# -- order-0 fast paths: the bits of the general code --------------------------


def _order0(values):
    return Jet2(0, np.array(values, dtype=float)[None, None])


@pytest.mark.parametrize("left,right", [
    ([0.0, 1.5, -2.0, 3.0], [2.0, -0.0, np.inf, 0.5]),  # first entry 0, the others not
    ([-0.0, 0.0, 2.0], [np.nan, 1.0, 3.0]),  # a live factor still forms 0 * nan
    ([0.0, -0.0, 0.0], [np.inf, -np.inf, np.nan]),  # all zero: a skipped plane, +0
    ([-1.0, 2.0, -0.0], [0.0, -0.0, 5.0]),  # -0 products become +0
    ([-0.0], [-0.0]),
    ([], []),  # empty: no first entry to read
    ([], [2.0]),  # refused, then empty once lined up
])
def test_order_zero_product_is_bitwise_the_plane_loop(left, right):
    a, b = _order0(left), _order0(right)
    la, lb = _lined_up(a, b)
    with np.errstate(invalid="ignore"):  # 0 * inf where a live factor forms it, as the loop does
        got, want = la * lb, _old_mul(_sq(la), _sq(lb))
    _assert_bitwise(got, want)
    if not np.any(left):
        assert np.array_equal(got.c, np.zeros_like(got.c)) and not np.signbit(got.c).any()


@pytest.mark.parametrize("value", [0.0, -0.0, 0j, complex(-0.0, -0.0)])
@pytest.mark.parametrize("m", range(3))
def test_recip_of_a_zero_value_raises(value, m):
    a = Jet2.constant(np.array([2.0, value, np.nan]), m)  # real for a real zero
    with pytest.raises(ZeroDivisionError):
        a.recip()
    for nonzero in ([2.0, -0.5, np.nan], [2.0, 1j]):  # negative, nan or imaginary
        b = Jet2.constant(np.array(nonzero), m)
        got, want = b.recip(), _old_recip(_sq(b))
        # the one exception to the oracles' bits (see above): at the nan point the
        # coefficients above the value plane are nan, their signs open; every other
        # point and the value plane (1 * inv, one nan) are compared bit for bit
        ok = ~np.isnan(np.asarray(nonzero, dtype=complex))
        _assert_bitwise(Jet2(m, got.c[..., ok]), Jet2(m, want.c[..., ok]))
        _assert_bitwise(Jet2(0, got.c[:, :1]), Jet2(0, want.c[:1, :1]))
        assert np.isnan(got.c[..., ~ok]).all() and np.isnan(want.c[..., ~ok]).all()


@pytest.mark.parametrize("value", [-0.0, 1.5, 2, 2.5j, [1.0, -0.0, 3.0]])
def test_order_zero_constant_and_composition_are_the_old_bits(value):
    for shape in (None, (3,), (2, 3)):
        _assert_bitwise(Jet2.constant(value, 0, shape),
                        _old_constant(np.broadcast_to(value, shape or np.shape(value)), 0))
    a = Jet2.constant(np.array([0.5, -0.0, 2.0]), 0)
    _assert_bitwise(compose_series([value], a), _old_compose_series([value], _sq(a)))


# -- the packed layout --------------------------------------------------------


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("shape", [(), (3,), (2, 3)], ids=str)
def test_value_plane_has_the_shape_of_the_points(m, shape):
    x = np.arange(1.0, 1.0 + np.prod(shape, dtype=int)).reshape(shape)
    xj, zj = jet_seed(x, -x, m)
    for jet in (xj, zj, xj * zj, xj + 1.0, jexp(zj)):
        assert jet.c.shape == (1, (m + 1) * (m + 2) // 2) + shape
        assert jet.c[0, 0].shape == shape and jet.shape == shape
        assert _bytes(jet.c[0, 0]) == _bytes(jet.value)
    assert _bytes(xj.value) == _bytes(x) and _bytes((xj * zj).value) == _bytes(x * -x)
    for k, (i, j) in enumerate(_triangle(m)):  # (i, j)-lexicographic order
        assert _bytes(xj.plane(i, j)) == _bytes(xj.c[0, k])


def _bytes(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _kernel_sample(rng, m, shape, nan_value=False):
    """Real coefficients whose value plane is live: +-0 and +-inf entries in every plane,
    nan entries off the value plane (in it too with ``nan_value``), some planes dead."""
    c = rng.standard_normal((m + 1, m + 1) + shape)
    for i, j in _triangle(m):
        plane = c[i, j, ...]
        if (i, j) != (0, 0) and rng.random() < 0.2:
            plane[...] = rng.choice([0.0, -0.0])  # a dead plane, +0 or -0
            continue
        special = [0.0, -0.0, np.inf, -np.inf] + ([np.nan] if (i, j) != (0, 0) or nan_value else [])
        pick = rng.integers(0, 2 * len(special), size=shape)
        for k, v in enumerate(special):
            np.copyto(plane, v, where=pick == k)
        if (i, j) == (0, 0) and plane.size:
            plane.flat[0] = 1.0 + rng.random()  # a nonzero entry keeps the value plane live
    return _pack(m, c)


def _with_specials(rng, jet):
    """``jet`` with scattered inf and nan entries."""
    c = jet.c.copy()
    np.copyto(c, np.inf, where=rng.random(c.shape) < 0.1)
    np.copyto(c, -np.inf, where=rng.random(c.shape) < 0.05)
    np.copyto(c, np.nan, where=rng.random(c.shape) < 0.1)
    return Jet2(jet.m, c)


_BROADCAST = [((6,), (1,)), ((1,), (6,)), ((4, 1), (1, 5)), ((1, 5), (4, 1)), ((), (3,)),
              ((3,), ()), ((2, 3), (3,)), ((6,), (6,)), ((0,), (0,)), ((37,), (37,)),
              ((37,), (1,)), ((1,), (37,)), ((5, 1), (1, 9)), ((), (37,)), ((3, 13), (13,))]


@pytest.mark.parametrize("m", range(5))
@pytest.mark.parametrize("shapes", _BROADCAST, ids=str)
def test_packed_product_is_bitwise_the_plane_loop(m, shapes):
    # signed zeros, infinities and nans of both signs, dead planes in both factors,
    # points broadcast by the caller and nans in the left value plane: the square layout's bits,
    # nan signs included (a nan times a nan is a nan whose sign numpy picks by the
    # element's place in the loop, so only the same products give the same signs)
    rng = np.random.default_rng([m, *map(len, shapes), *shapes[0], *shapes[1]])
    for trial in range(8):
        nan_value = trial >= 4
        a = _kernel_sample(rng, m, shapes[0], nan_value)
        if nan_value and a.c.size:
            a.c[0, 0, ...].flat[-1] = np.nan  # also where the points are one
        b = _sample(rng, m, shapes[1], False)
        if trial % 2:
            b = _with_specials(rng, b)
        for jet in (a, b):  # nans of both signs, so a moved sign shows
            jet.c[...] = np.copysign(jet.c, rng.choice([-1.0, 1.0], size=jet.c.shape))
        la, lb = _lined_up(a, b)
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = la * lb, _old_mul(_sq(la), _sq(lb))
        _assert_bitwise(got, want)


@pytest.mark.parametrize("m", range(4))
def test_products_whose_sum_is_minus_zero_start_at_plus_zero(m):
    # every term -0: the loop's +0 start makes each plane +0, at order 0 too
    a = _pack(m, np.full((m + 1, m + 1, 3), -1.0))
    b = _pack(m, np.full((m + 1, m + 1, 3), 0.0))
    got = a * b
    _assert_bitwise(got, _old_mul(_sq(a), _sq(b)))
    assert not np.signbit(got.c).any()


@pytest.mark.parametrize("m", range(1, 5))
def test_mixed_magnitude_sums_keep_the_loop_order(m):
    # terms of very different sizes, so a sum in any other order rounds differently
    rng = np.random.default_rng(m)
    for _ in range(8):
        scale = 10.0 ** rng.integers(-8, 9, size=(m + 1, m + 1, 16))
        a = _pack(m, rng.standard_normal((m + 1, m + 1, 16)) * scale)
        b = _pack(m, rng.standard_normal((m + 1, m + 1, 16)) * scale[::-1])
        _assert_bitwise(a * b, _old_mul(_sq(a), _sq(b)))


@pytest.mark.parametrize("m", range(4))
def test_a_dead_value_plane_and_complex_jets_take_the_plane_loop(m):
    rng = np.random.default_rng(m)
    b = _with_specials(rng, _kernel_sample(rng, m, (5,)))
    n = _kernel_sample(rng, m, (5,))
    n.c[0, 0] = np.array([0.0, -0.0, 0.0, -0.0, 0.0])  # as compose_series's nilpotent part
    with np.errstate(invalid="ignore"):  # inf - inf where live planes meet, as in the loop
        got, want = n * b, _old_mul(_sq(n), _sq(b))
    _assert_bitwise(got, want)  # the dead value plane formed no 0 * inf
    cx = _sample(rng, m, (5,), True)
    cx.c[0, 0] = 1.0 + 0.5j
    for left, right in ((cx, n), (n, cx), (cx, cx)):
        with np.errstate(invalid="ignore"):
            got, want = left * right, _old_mul(_sq(left), _sq(right))
        _assert_bitwise(got, want)


# -- the univariate layout -----------------------------------------------------


def _uni_sample(rng, m, shape, complex_, value):
    """Univariate coefficients with +-0, +-inf and nans of both signs in every plane,
    in both parts of a complex entry, and some planes all zero.  ``value`` keeps
    the value plane off zero ("nonzero", for a reciprocal) or off the branch cut
    ("cut", for log and fractional powers); nans stay."""
    parts = []
    for _ in range(2 if complex_ else 1):
        c = rng.standard_normal((1, m + 1) + shape)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
        pick = rng.integers(0, 2 * len(special), size=c.shape)
        for k, v in enumerate(special):
            np.copyto(c, v, where=pick == k)
        parts.append(c)
    if complex_:
        c = np.empty(parts[0].shape, complex)
        c.real, c.imag = parts
    else:
        c, = parts
    for k in range(1, m + 1):
        if rng.random() < 0.2:
            c[0, k] = rng.choice([0.0, -0.0])  # a dead plane, +0 or -0
    v = c[0, 0, ...]
    if value == "nonzero":
        np.copyto(v, 1.5, where=v == 0)
    elif value == "cut":
        np.copyto(v, 0.75, where=(v.real <= 0) & (v.imag == 0))
    return Jet1(m, c)


def _in_x_slot(u):
    """The bivariate jet of univariate ``u``'s series in the x slot: z-planes +0."""
    b = Jet2.constant(np.zeros(u.shape, u.c.dtype), u.m)
    for k in range(u.m + 1):
        b.plane(k, 0)[...] = u.plane(k, 0)
    return b


def _unsigned_nans(v):
    """``v`` with every nan made +nan, part by part."""
    v = np.array(v)
    for part in (v.real, v.imag) if np.iscomplexobj(v) else (v,):
        part[np.isnan(part)] = np.nan
    return v


def _assert_x_planes(got, want, nan_signs_free=False):
    """Univariate ``got`` holds the bits of bivariate ``want``'s planes ``(k, 0)``;
    with ``nan_signs_free``, a nan above the value plane may differ in sign."""
    assert type(got) is Jet1 and type(want) is Jet2 and got.m == want.m
    assert got.c.dtype == want.c.dtype and got.shape == want.shape
    for k in range(got.m + 1):
        g, w = got.plane(k, 0), want.plane(k, 0)
        if k and nan_signs_free:
            g, w = _unsigned_nans(g), _unsigned_nans(w)
        assert np.array_equal(np.ascontiguousarray(g).view(np.int64),
                              np.ascontiguousarray(w).view(np.int64)), f"plane ({k}, 0)"


# name: (operation on jets a, b and a number or array s; the value planes it needs;
#        does it run a loop over the whole jet: a sum or scaling, or recip's scalings)
_UNIVARIATE_OPS = {
    "a * b": (lambda a, b, s: a * b, None, False),
    "a / b": (lambda a, b, s: a / b, "nonzero", True),
    "recip": (lambda a, b, s: a.recip(), "nonzero", True),
    "a + b": (lambda a, b, s: a + b, None, True),
    "a - b": (lambda a, b, s: a - b, None, True),
    "a + s": (lambda a, b, s: a + s, None, True),
    "s + a": (lambda a, b, s: s + a, None, True),
    "a - s": (lambda a, b, s: a - s, None, True),
    "s - a": (lambda a, b, s: s - a, None, True),
    "a * s": (lambda a, b, s: a * s, None, True),
    "a / s": (lambda a, b, s: a / s, None, True),
    "compose_series": (lambda a, b, s: compose_series([s] + [a.value[::-1]] * a.m, a), None, False),
    "poly_jet": (lambda a, b, s: poly_jet([s, 2.0, -0.0, a.value[::-1]], a), None, False),
    "jexp": (lambda a, b, s: jexp(a), None, False),
    "jlog": (lambda a, b, s: jlog(a), "cut", False),
    "jpow 3": (lambda a, b, s: jpow(a, 3), None, False),
    "jpow -2": (lambda a, b, s: jpow(a, -2), "nonzero", True),
    "jpow 0.5": (lambda a, b, s: jpow(a, 0.5), "cut", False),
    "jsqrt": (lambda a, b, s: jsqrt(a), "cut", False),
}
_UNIVARIATE_SHAPES = [((7,), (7,)), ((3, 1), (1, 4)), ((37,), (1,)), ((1,), (6,)), ((0,), (0,))]


@pytest.mark.parametrize("op", _UNIVARIATE_OPS)
@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("m", range(5))
def test_univariate_jets_hold_the_x_planes_of_bivariate_jets(op, complex_, m):
    # every operation's planes (k, 0), compared as integers: -0 and nan signs included,
    # except above the value plane after a loop over the whole jet, whose nan signs
    # numpy picks by the element's place in that loop, which the layout moves (seen
    # in recip, in complex sums and scalings, and in sums over broadcast points)
    fn, value, whole = _UNIVARIATE_OPS[op]
    rng = np.random.default_rng([m, complex_, *map(ord, op)])
    for shapes in _UNIVARIATE_SHAPES:
        for trial in range(3):
            a, b = _lined_up(*(_uni_sample(rng, m, shape, complex_, value) for shape in shapes))
            s = (_uni_sample(rng, 0, shapes[0], complex_, "nonzero").value if trial
                 else rng.choice([2.5, -0.0, np.inf, np.nan]) * (1 - 0.5j if complex_ else 1))
            with np.errstate(all="ignore"):
                got, want = fn(a, b, s), fn(_in_x_slot(a), _in_x_slot(b), s)
            _assert_x_planes(got, want, nan_signs_free=whole)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("m", range(1, 5))
def test_univariate_dx_is_the_x_planes_of_the_bivariate_dx(complex_, m):
    rng = np.random.default_rng([m, complex_])
    a = _uni_sample(rng, m, (9,), complex_, None)
    with np.errstate(all="ignore"):
        _assert_x_planes(a.dx(), _in_x_slot(a).dx())
    with pytest.raises(ValueError):
        _uni_sample(rng, 0, (9,), complex_, None).dx()


def test_univariate_seed_is_the_x_jet_of_jet_seed():
    for m in range(4):
        t0 = np.array([0.5, -0.0, 2.0])
        _assert_x_planes(jet_seed1(t0, m), jet_seed(t0, 0.0, m)[0])
        assert jet_seed1(t0, m).c.shape == (1, m + 1, 3)
    with pytest.raises(ValueError):
        jet_seed1(0.0, -1)


_MIXED = [(lambda a, b: a + b), (lambda a, b: a - b), (lambda a, b: a * b), (lambda a, b: a / b)]


@pytest.mark.parametrize("mix", _MIXED, ids=["+", "-", "*", "/"])
@pytest.mark.parametrize("orders", [(2, 2), (2, 1)], ids=["same order", "same plane count"])
def test_univariate_and_bivariate_jets_do_not_mix(mix, orders):
    # order 2 univariate and order 1 bivariate jets both hold 3 planes
    u = jet_seed1(np.array([1.0, 2.0]), orders[0])
    b = jet_seed(np.array([1.0, 2.0]), 0.5, orders[1])[0]
    assert u.c.shape == b.c.shape or orders[0] == orders[1]
    for left, right in ((u, b), (b, u)):
        with pytest.raises(ValueError, match="univariate") as err:
            mix(left, right)
        assert "bivariate" in str(err.value)


def test_a_univariate_jet_has_no_z_planes():
    u = jet_seed1(np.array([1.0, 2.0]), 2)
    assert jet_partial(u, 2, 0).tolist() == [0.0, 0.0]
    for i, j in ((0, 1), (1, 1)):
        with pytest.raises(ValueError, match="no plane"):
            u.plane(i, j)
        with pytest.raises(ValueError, match="no plane"):
            jet_partial(u, i, j)


# -- differences and running sums ----------------------------------------------


def _signed_sample(rng, cls, m, shape, complex_):
    """Coefficients of a ``cls`` jet with +-0 and +-inf in every plane, in both parts of
    a complex entry (no nans: ``a - b`` and ``a + (-b)`` may give a nan other signs)."""
    special = np.array([0.0, -0.0, np.inf, -np.inf])
    parts = []
    for _ in range(2 if complex_ else 1):
        c = rng.standard_normal((1, cls._n_planes(m)) + shape)
        pick = rng.integers(0, 2 * len(special), size=c.shape)
        np.copyto(c, special[pick % len(special)], where=pick < len(special))
        parts.append(c)
    if not complex_:
        return cls(m, parts[0])
    c = np.empty(parts[0].shape, complex)
    c.real, c.imag = parts
    return cls(m, c)


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                                       b.view(np.int64))


@pytest.mark.parametrize("cls", [Jet2, Jet1])
@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("m", range(4))
def test_a_difference_has_the_bits_of_the_sum_of_the_negation(cls, complex_, m):
    # one np.subtract gives what a + (-b) gives, signed zeros and inf - inf included,
    # but for a real operand under a complex jet: its implicit +0 imaginary part keeps
    # a -0 imaginary part of the jet in a - r (-0 - 0 is -0) and not in a + (-r)
    rng = np.random.default_rng([m, complex_, cls is Jet1])
    for shapes in (((6,), (6,)), ((3, 1), (1, 4)), ((), ()), ((5,), (1,))):
        a, b = (_signed_sample(rng, cls, m, shape, complex_) for shape in shapes)
        s = _signed_sample(rng, cls, 0, shapes[0], complex_).value
        r = _signed_sample(rng, cls, m, shapes[1], False)  # a real jet, on complex a too
        a, b = _lined_up(a, b)
        a, r = _lined_up(a, r)
        with np.errstate(invalid="ignore"):  # inf - inf
            pairs = [(a - b, a + (-b)), (b - a, b + (-a)), (a - a, a + (-a)), (r - a, r + (-a)),
                     (a - s, a + (-s)), (s - a, (-a) + s), (-0.0 - a, (-a) + -0.0),
                     (1.5j - a, (-a) + 1.5j)]
            if not complex_:
                pairs += [(a - r, a + (-r)), (a - 2.5, a + (-2.5)), (a - -0.0, a + 0.0)]
        for got, want in pairs:
            assert type(got) is cls and got.m == m
            assert _same_bits(got.c, want.c)


def _operand_terms(rng, shape=(5,)):
    """Jets of one order on one point shape: real and complex, and one repeated, with a
    term that is an operand itself (``_times(v, 1.0) is v``)."""
    a, b, c = (_signed_sample(rng, Jet2, 2, shape, False) for _ in range(3))
    z = _signed_sample(rng, Jet2, 2, shape, True)
    assert _times(a, 1.0) is a
    return [
        [a],
        [a, b],
        [_times(a, 1.0), b, c, a],
        [a, z, b, a],  # a complex term promotes the sum once, then it is added in place
        [b, b, b, b],
    ]


def test_a_running_sum_has_the_bits_of_the_left_fold_and_writes_no_operand():
    rng = np.random.default_rng(40)
    for terms in _operand_terms(rng):
        before = {id(t): t.c.copy() for t in terms}
        with np.errstate(invalid="ignore"):  # inf - inf
            want = functools.reduce(operator.add, terms)
            got = _sum(terms)
        assert _same_bits(got.c, want.c)
        for t in terms:
            assert _same_bits(t.c, before[id(t)])
        if len(terms) == 1:
            assert got is terms[0]  # one term's sum is that term
    # each jet after the first sum is added into that sum's own buffer
    a, b, c = (_signed_sample(rng, Jet2, 2, (4,), False) for _ in range(3))
    acc = _Sum().add(a).add(b)
    buf = acc.total.c
    assert buf is not a.c and buf is not b.c
    with np.errstate(invalid="ignore"):
        acc.add(c).add(a)
        want = ((a + b) + c) + a
    assert acc.total.c is buf and _same_bits(buf, want.c)
    # numbers and arrays are summed by + alone, with the same bits
    arrays = [rng.standard_normal(4) for _ in range(4)]
    copies = [v.copy() for v in arrays]
    assert _same_bits(_sum(arrays), ((arrays[0] + arrays[1]) + arrays[2]) + arrays[3])
    assert all(_same_bits(v, w) for v, w in zip(arrays, copies))
    assert _sum(x for x in (0.5, 0.25, 2.0)) == 2.75


@pytest.mark.parametrize("cls", [Jet2, Jet1])
@pytest.mark.parametrize("shapes", [((5,), ()), ((2, 3), (3,)), ((4, 1), (1, 4)), ((1,), (6,))])
def test_jets_on_different_points_are_refused(cls, shapes):
    # each operation between two jets, and a running sum, names both point shapes
    seed = (lambda t: jet_seed(t, t, 2)[0]) if cls is Jet2 else (lambda t: jet_seed1(t, 2))
    a, b = (seed(np.full(shape, 1.5)) for shape in shapes)
    for left, right in ((a, b), (b, a)):
        message = f"jet point shape mismatch: {left.shape} vs {right.shape}"
        for op in (operator.add, operator.sub, operator.mul, operator.truediv,
                   lambda u, v: _sum([u, u, v])):
            with pytest.raises(ValueError) as info:
                op(left, right)
            assert str(info.value) == message


def test_a_running_sum_of_products_makes_its_first_product_its_buffer():
    rng = np.random.default_rng(41)
    jets = [_signed_sample(rng, Jet2, 2, (5,), True) for _ in range(3)]
    before = [j.c.copy() for j in jets]
    scales = [1.0 + 0j, -1.0 + 0j, 0.5j]  # products by a complex 1 are made, not skipped
    acc = _Sum()
    with np.errstate(invalid="ignore"):  # inf * 0 in complex products, inf - inf
        for v, c in zip(jets, scales):
            acc.add_product(v, c)
        want = functools.reduce(operator.add, (v * c for v, c in zip(jets, scales)))
    assert all(acc.total is not v for v in jets)
    assert _same_bits(acc.total.c, want.c)
    assert all(_same_bits(j.c, c) for j, c in zip(jets, before))


def test_a_running_sum_keeps_the_layout_and_order_checks():
    u = jet_seed1(np.array([1.0, 2.0]), 2)
    b = jet_seed(np.array([1.0, 2.0]), 0.5, 2)[0]
    for terms in ([b, b, u], [b, b, jet_seed(1.0, 0.5, 1)[0]]):
        with pytest.raises(ValueError, match="mismatch"):
            _sum(terms)


_XJ = jet_seed(np.array([1.0, 2.0]), np.array([0.5, 0.5]), 2)[0]


@pytest.mark.parametrize("call, message", [
    (lambda: Jet2.constant(1.0, 0).dx(), "cannot differentiate an order-0 jet"),
    (lambda: jet_partial(_XJ, -1, 1), "partial orders must be nonnegative"),
    (lambda: compose_series([1.0, 2.0], _XJ), "series too short for the jet order"),
], ids=["dx_of_order_0", "negative_partial", "short_series"])
def test_a_refused_jet_operation_is_a_value_error(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("jet", [_XJ, jet_seed1(np.array([1.0, 2.0]), 2)], ids=["Jet2", "Jet1"])
def test_the_empty_polynomial_is_the_zero_jet(jet):
    zero = poly_jet((), jet)
    assert type(zero) is type(jet) and zero.m == 2 and zero.shape == (2,)
    assert zero.c.shape == jet.c.shape and not np.any(zero.c)
