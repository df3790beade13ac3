import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mongesol.errors import ConfigError
from mongesol.jets import Jet2, jet_partial, jet_seed, jexp, poly_jet
from mongesol.nu_algebra import NuPair, box


def test_derived_constants_basic():
    nu = NuPair(1.0, 2.0)
    assert nu.delta == 1.0
    assert nu.box_n(3) == 7.0
    assert nu.rho == pytest.approx(6.0 / 7.0)


def test_derived_constants_symmetric_pair():
    nu = NuPair(-1.0, 1.0)
    assert nu.delta == 2.0
    assert nu.box_n(3) == 1.0
    assert nu.rho == 0.0


def test_box_n_geometric_sum():
    nu = NuPair(1.0, 2.0)
    assert nu.box_n(4) == pytest.approx(15.0)  # (16-1)/1 = 1+2+4+8
    assert nu.box_n(1) == 1.0
    assert nu.box_n(2) == nu.nu1 + nu.nu2
    assert nu.box_n(3) == nu.nu1 ** 2 + nu.nu1 * nu.nu2 + nu.nu2 ** 2


def test_degenerate_pairs_rejected():
    with pytest.raises(ConfigError):
        NuPair(2.0, 2.0)
    with pytest.raises(ConfigError):
        NuPair(0.0, 1.0)


nu_value = st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 0.05)


@given(nu_value, nu_value, st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_box_identity_delta_times_box(nu1, nu2, n):
    if abs(nu1 - nu2) < 1e-3:
        return
    nu = NuPair(nu1, nu2)
    assert nu.delta * nu.box_n(n) == pytest.approx(nu2 ** n - nu1 ** n, rel=1e-12, abs=1e-12)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_box_of_slope_arrays(seed, n):
    # eq10's bracket of two slope fields: at degree 3 the bits of nu1^2 + nu1 nu2 + nu2^2
    nu1, nu2 = np.random.default_rng(seed).uniform(-3.0, 3.0, (2, 50))
    assert box(3, nu1, nu2).tobytes() == (nu1 ** 2 + nu1 * nu2 + nu2 ** 2).tobytes()
    far = np.abs(nu2 - nu1) > 0.1
    got = box(n, nu1, nu2)[far]
    want = ((nu2 ** n - nu1 ** n) / (nu2 - nu1))[far]
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * 3.0 ** n)


def _line_jets(nu, x, z, m, d1=0.0, d2=0.0):
    """Jets of the two line coordinates ``x + nu_i z + d_i``."""
    xj, zj = jet_seed(x, z, m)
    return xj + nu.nu1 * zj + d1, xj + nu.nu2 * zj + d2


def _eval_l(s, k, l1, l2, nu, x, z, m=2):
    """``l(s, k)``: ``nu.combine(s)`` of the k-th derivatives of ``l1``, ``l2`` on their lines.

    The k-th derivatives come from jets of order ``m + k`` differentiated in
    x, which is exact because each line has unit x-slope.
    """
    d1j, d2j = _line_jets(nu, x, z, m + k)
    a1, a2 = l1(d1j), l2(d2j)
    for _ in range(k):
        a1, a2 = a1.dx(), a2.dx()
    return nu.combine(s, a1, a2)


def test_line_jets_slopes():
    nu = NuPair(1.0, 2.0)
    d1j, d2j = _line_jets(nu, 0.3, 0.7, 2, d1=0.1, d2=-0.2)
    assert d1j.value == pytest.approx(0.3 + 0.7 + 0.1)
    assert jet_partial(d1j, 1, 0) == 1.0 and jet_partial(d1j, 0, 1) == 1.0
    assert d2j.value == pytest.approx(0.3 + 1.4 - 0.2)
    assert jet_partial(d2j, 0, 1) == 2.0


def test_eval_l_identity_lines():
    # L1 = L2 = t, s = 0, k = 0 at (1, 1): ((x+2z) - (x+z)) / 1 = z
    nu = NuPair(1.0, 2.0)
    lp = (lambda t: t, lambda t: t)
    val = _eval_l(0, 0, *lp, nu, 1.0, 1.0).value
    assert val == pytest.approx(1.0)


def test_eval_l_zero_functions():
    nu = NuPair(1.0, 2.0)
    zero = lambda t: t * 0.0
    lp = (zero, zero)
    for s in (-1, 0, 2):
        for k in (0, 1, 2):
            assert np.max(np.abs(_eval_l(s, k, *lp, nu, 0.5, 0.5).c)) == 0.0


def _exp_pair():
    return lambda t: jexp(t * 0.7), lambda t: poly_jet((0.0, 1.0, 0.3, -0.1), t)


def test_eval_l_derivative_shift_in_x():
    # d/dx of l(s, k) equals l(s, k+1)
    rng = np.random.default_rng(11)
    nu = NuPair(1.0, 2.0)
    lp = _exp_pair()
    x, z = rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10)
    for s in (-1, 0, 1, 3):
        for k in (0, 1):
            a = _eval_l(s, k, *lp, nu, x, z, m=2)
            b = _eval_l(s, k + 1, *lp, nu, x, z, m=2)
            assert np.max(np.abs(jet_partial(a, 1, 0) - b.value)) <= 1e-11


def test_eval_l_derivative_shift_in_z():
    # d/dz of l(s, k) equals l(s+1, k+1)
    rng = np.random.default_rng(12)
    nu = NuPair(0.5, -1.5)
    lp = _exp_pair()
    x, z = rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10)
    for s in (-1, 0, 2):
        a = _eval_l(s, 0, *lp, nu, x, z, m=2)
        b = _eval_l(s + 1, 1, *lp, nu, x, z, m=2)
        assert np.max(np.abs(jet_partial(a, 0, 1) - b.value)) <= 1e-11


def test_eval_l_linear_in_line_functions():
    nu = NuPair(1.0, 2.0)
    one = (lambda t: poly_jet((0.2, 1.0), t), lambda t: poly_jet((0.0, 0.5, 0.1), t))
    two = (lambda t: poly_jet((1.0, -0.3), t), lambda t: poly_jet((0.4, 0.0, 0.2), t))
    both = (
        lambda t: poly_jet((0.2, 1.0), t) + poly_jet((1.0, -0.3), t),
        lambda t: poly_jet((0.0, 0.5, 0.1), t) + poly_jet((0.4, 0.0, 0.2), t),
    )
    a = _eval_l(2, 1, *one, nu, 0.4, -0.9)
    b = _eval_l(2, 1, *two, nu, 0.4, -0.9)
    c = _eval_l(2, 1, *both, nu, 0.4, -0.9)
    assert np.max(np.abs(c.c - (a.c + b.c))) <= 1e-13


def test_eval_l_negative_power_is_reciprocal():
    nu = NuPair(2.0, 4.0)
    lp = (lambda t: t, lambda t: t)
    got = _eval_l(-1, 0, *lp, nu, 1.0, 1.0).value
    want = ((1.0 / 4.0) * 5.0 - (1.0 / 2.0) * 3.0) / 2.0
    assert got == pytest.approx(want)


@given(nu_value, nu_value, st.integers(-1, 4))
@settings(max_examples=60, deadline=None)
def test_combine_jet_value_equals_array_combine(nu1, nu2, s):
    # the families combine jets, the derivative forms and eq5 combine arrays:
    # on the same values both must agree to the bit
    if nu1 == nu2:
        return
    nu = NuPair(nu1, nu2)
    rng = np.random.default_rng(13)
    d1j, d2j = _line_jets(nu, rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8), 2)
    l1, l2 = _exp_pair()
    a1, a2 = l1(d1j), l2(d2j)
    assert np.array_equal(nu.combine(s, a1, a2).value, nu.combine(s, a1.value, a2.value))


_entries = st.floats(allow_nan=False) | st.sampled_from([-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan])


@given(st.integers(-2, 4), st.lists(st.tuples(_entries, _entries), min_size=1, max_size=12),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_combine_at_unit_slope_and_delta_equals_every_product(s, pairs, as_jets):
    # with nu1 = 1 and delta = 1, combine forms no product by 1.0; its bits are
    # those of the formula with every product formed, -0, inf and nan included
    nu = NuPair(1.0, 2.0)
    w1, w2 = (v ** s if s >= 0 else 1.0 / v ** -s for v in (nu.nu1, nu.nu2))
    a1, a2 = (np.array(v) for v in zip(*pairs))
    if as_jets:  # order-1 jets: the entries, reversed and negated, as the three planes
        a1, a2 = (Jet2(1, np.stack([v, v[::-1], -v])[None]) for v in (a1, a2))
    with np.errstate(all="ignore"):  # inf - inf and overflow are part of the draw
        got, want = nu.combine(s, a1, a2), (w2 * a2 - w1 * a1) * (1.0 / nu.delta)
    if as_jets:
        got, want = got.c, want.c
    assert got.dtype == want.dtype and np.array_equal(got.view(np.int64), want.view(np.int64))


def test_box_n_refuses_a_negative_degree():
    with pytest.raises(ValueError) as info:
        NuPair(1.0, 2.0).box_n(-1)
    assert str(info.value) == "box takes a nonnegative integer"
