"""Truncated bivariate Taylor (jet) arithmetic.

High-order mixed partials of composite scalar fields are obtained by carrying
truncated Taylor expansions through every arithmetic step, so residual checks
downstream are limited by roundoff, never by finite-difference truncation.

A :class:`Jet2` of order ``m`` holds the coefficients of
``sum c_ij dx^i dz^j`` over ``i + j <= m``.  Each coefficient is a numpy
array over the base points (a *plane*), so one jet carries the expansions of
a whole grid of points.

Layout.  The ``T = (m+1)(m+2)/2`` planes of the triangle are packed into
``c`` of shape ``(1, T) + points`` in (i, j)-lexicographic order:
``(0,0), (0,1), .., (0,m), (1,0), .., (m,0)``; ``Jet2.plane(i, j)`` reads
one.  A square ``(m+1, m+1)`` layout would also store the ``m(m+1)/2``
planes with ``i + j > m``, which are always zero: at order 2 it holds 9
planes for 6.  The leading unit axis keeps ``c[0, 0]`` the value plane,
with the shape of the points.

A univariate expansion is a :class:`Jet1`, seeded by ``jet_seed1``: a
``Jet2`` subclass that stores the planes ``(k, 0)`` alone, as
``(1, m+1) + points``, so an order-3 series holds 4 planes, not 10.  The
plane count, plane index and product plan are class attributes, which
``constant``, ``plane``, ``*``, ``recip`` and the functions below read
through the jet's type: both layouts run the one plane loop.  A ``Jet1``
holds the bits of the planes ``(k, 0)`` of the same operations on a
bivariate jet seeded in the x slot.  There, the only terms that land in a
plane ``(k, 0)`` are ``a_i0 * b_p0``, added in the univariate plan's order
(left ``i``, then right ``p``, ascending); every other term lands in a
z-plane, which the univariate layout does not store.  The layouts do not
mix: ``+``, ``-``, ``*`` and ``/`` of a ``Jet1`` and a ``Jet2`` raise a
ValueError.  ``compose_series`` plugs a jet into a one-variable Taylor
series, which is how user-supplied functions and the elementary functions
below are applied to jets.

Products are reproducible bit for bit.  The reference is the plane loop:
``a * b`` starts every output plane at +0 and adds the terms
``a_ij * b_pq`` into it in place, taking the planes of the left factor
``a`` in packed order and, for each, the planes of ``b`` in packed order;
it skips each plane of ``a`` that is all zero (+0 or -0), so a skipped
plane never forms ``0 * inf`` or ``0 * nan``, and a zero sum is +0.

A real order-0 product whose left factor is live is the loop's one term
as one numpy product: ``out = a * b``, then ``out += 0.0`` for the +0
start (``x + 0`` is ``0 + x``: ``x``, except that a -0 becomes +0).
Complex jets stay on the loop: numpy's complex product bits depend on the
array length (SIMD body or scalar tail), so one whole-jet product could
differ from the plane's.

A nan's sign is the one bit these rules leave open.  At a point where a
jet's value is nan, each nan coefficient of ``recip`` above the value plane
is a product of two nans in the last scaling ``acc * inv``, whose sign
IEEE 754 leaves open; numpy's float loops keep one operand's nan or the
other's by the element's place in one loop over the whole jet, so a layout
that moves those places may flip it.  Between a ``Jet1`` and the planes
``(k, 0)`` of a bivariate jet, the same goes for every operation that runs
one loop over the whole jet: ``recip``'s scalings (at complex points too,
not only where the value is nan), a sum or difference of two jets, and a
scaling by a number or an array.  The plane loop of a product keeps every
bit.  No output holds a nan sign (``'%.17g'`` writes ``nan`` for both).

A real order-0 jet has one plane, so its reciprocal is one numpy
operation, with the same bits, and ``compose_series`` at order 0 is the
constant jet of ``tk[0]``.  The reciprocal's zero test is one pass at any
order.

The other operand of ``+``, ``-``, ``*`` and ``/`` is a jet of the same
layout, order and point shape, or a number, or an array with at most as
many axes as the jet's points, which broadcasts against the points.  Each
of the four operations raises a ValueError for a jet on other points, and
for an array with more axes, which would broadcast against the plane axis.
A difference takes ``np.subtract`` where a sum takes ``np.add``.  Jets are
never summed in place: ``_times(v, 1.0)`` is ``v`` itself, so ``+=`` could
write into an operand (a sum of many goes through :class:`_Sum`).  Scaling
by exactly 1.0 is the identity on real planes, bit for bit, so structural
constants (mutation factors, row coefficients, slope weights) go through
``_times``, which skips that product; ``Jet2.__mul__``, whose calls count
jet products, keeps no such test.  (On complex planes ``v * 1.0`` is a full
complex product, which can flip a zero part's sign; the complex digest jobs
show that no output moves.)
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .errors import BranchCutError

__all__ = [
    "Jet2",
    "Jet1",
    "jet_seed",
    "jet_seed1",
    "jet_partial",
    "compose_series",
    "poly_jet",
    "jexp",
    "jlog",
    "jpow",
    "jsqrt",
]


class Jet2:
    """Bivariate Taylor expansion truncated at total degree ``m``."""

    __slots__ = ("m", "c")

    # keep numpy from broadcasting over jets; arithmetic goes through our dunders
    __array_ufunc__ = None

    # the layout, read through type(self): plane count, plane index and product plan
    layout = "bivariate"

    @staticmethod
    def _n_planes(m: int) -> int:
        """Planes of an order-``m`` jet: the triangle ``i + j <= m``."""
        return (m + 1) * (m + 2) // 2

    @staticmethod
    def _index(m: int, i: int, j: int) -> int:
        """Packed position of plane ``(i, j)``: rows ``0 .. i-1`` hold ``m+1, m, ..`` planes."""
        return i * (m + 1) - i * (i - 1) // 2 + j

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _mul_plan(m: int) -> tuple:
        """The plane loop's terms as (left, right, output) planes, in its order: the left
        planes in packed order and, for each, the right planes in packed order."""
        planes = [(i, j) for i in range(m + 1) for j in range(m + 1 - i)]
        return tuple((ka, kb, Jet2._index(m, i + p, j + q))
                     for ka, (i, j) in enumerate(planes)
                     for kb, (p, q) in enumerate(planes) if i + p + j + q <= m)

    def __init__(self, m: int, c: np.ndarray):
        self.m = int(m)
        self.c = c

    # -- construction ------------------------------------------------------

    @classmethod
    def constant(cls, value, m: int, shape=None) -> "Jet2":
        """Jet of a field constant in x and z; ``value`` is broadcast to ``shape`` if given."""
        value = np.asarray(value)
        shape = value.shape if shape is None else shape
        c = np.empty((1, cls._n_planes(m)) + shape, dtype=np.promote_types(value.dtype, np.float64))
        c[0, 0] = value
        c[0, 1:] = 0
        return cls(m, c)

    # -- basic queries ------------------------------------------------------

    @property
    def value(self):
        """Field value at the base point: the constant coefficient."""
        return self.c[0, 0]

    @property
    def shape(self):
        return self.c.shape[2:]

    def plane(self, i: int, j: int):
        """The coefficient of ``dx^i dz^j`` over the points (``i + j <= m``), read as ``value`` reads (0, 0)."""
        return self.c[0, self._index(self.m, i, j)]

    # -- ring operations ----------------------------------------------------

    def _check_order(self, other: "Jet2"):
        if type(other) is not type(self):
            raise ValueError(f"jet layout mismatch: {self.layout} vs {other.layout}")
        if other.m != self.m:
            raise ValueError(f"jet order mismatch: {self.m} vs {other.m}")
        if other.shape != self.shape:
            raise ValueError(f"jet point shape mismatch: {self.shape} vs {other.shape}")

    def _operand(self, other) -> np.ndarray:
        """``other`` as an array that scales every plane: at most as many axes as the points."""
        other = np.asarray(other)
        if other.ndim > self.c.ndim - 2:
            raise ValueError(f"operand of shape {other.shape} has more axes than "
                             f"the jet's points {self.shape}")
        return other

    def _planewise(self, other, op):
        """``op(self, other)`` for ``np.add`` or ``np.subtract``, in one allocation: plane
        by plane with a jet, else into the value plane, with the other planes copied."""
        if isinstance(other, Jet2):
            self._check_order(other)
            return type(self)(self.m, op(self.c, other.c))
        out = np.empty(self.c.shape, dtype=np.promote_types(self.c.dtype, np.asarray(other).dtype))
        op(self.c[0, 0, ...], other, out=out[0, 0, ...])
        out[0, 1:] = self.c[0, 1:]
        return type(self)(self.m, out)

    def __add__(self, other):
        return self._planewise(other, np.add)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.m, -self.c)

    def __sub__(self, other):
        return self._planewise(other, np.subtract)

    def __rsub__(self, other):
        return type(self)(self.m, _add_to_value(-self.c, other))

    def __mul__(self, other):
        cls = type(self)
        if not isinstance(other, Jet2):
            return cls(self.m, self.c * self._operand(other))
        self._check_order(other)
        m, a, b = self.m, self.c, other.c
        live = _live_planes(a)
        if m == 0 and live[0] and _real(a, b):  # the loop's one term, as one product
            out = a * b
            out += 0.0  # as the +0 start: a -0 product becomes +0
            return cls(0, out)
        out = np.zeros(a.shape, dtype=np.promote_types(a.dtype, b.dtype))
        pa, pb, po = a[0], b[0], out[0]
        for ka, kb, ko in cls._mul_plan(m):
            if live[ka]:
                o = po[ko, ...]  # a view, also for 0-d points
                o += pa[ka] * pb[kb]
        return cls(m, out)

    __rmul__ = __mul__

    def recip(self) -> "Jet2":
        """Multiplicative inverse; a zero constant term (+0, -0 or a complex 0) raises."""
        cls, v = type(self), self.value
        if not np.all(v):  # one pass, no `v == 0` temporary
            raise ZeroDivisionError("jet reciprocal of a zero field value")
        if self.m == 0 and _real(self.c):
            return cls(0, 1.0 / self.c)
        inv = 1.0 / v
        # 1/a = inv * sum_k N^k  with N = 1 - inv*a nilpotent
        n = self.c * inv
        np.negative(n, out=n)
        n[0, 0] = 0
        n = cls(self.m, n)
        acc = cls.constant(np.ones_like(inv), self.m)
        for _ in range(self.m):
            acc = acc * n
            _add_to_value(acc.c, 1.0)
        acc.c *= inv
        return acc

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other.recip()
        return type(self)(self.m, self.c / self._operand(other))

    # -- calculus -----------------------------------------------------------

    def dx(self) -> "Jet2":
        """Jet of the x-derivative field (order drops by one)."""
        if self.m < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        m = self.m - 1
        out = np.empty((1, Jet2._n_planes(m)) + self.shape, dtype=self.c.dtype)
        for i in range(m + 1):  # row i of the result is row i + 1 of self, both contiguous
            k, k1 = Jet2._index(m, i, 0), Jet2._index(self.m, i + 1, 0)
            out[0, k:k + m + 1 - i] = (i + 1) * self.c[0, k1:k1 + m + 1 - i]
        return Jet2(m, out)


class Jet1(Jet2):
    """One-variable Taylor expansion truncated at degree ``m``: the planes ``(k, 0)``.

    ``c`` has shape ``(1, m+1) + points``.  Each operation gives the bits of
    the planes ``(k, 0)`` of the same operation on a bivariate jet seeded in
    the x slot (see the module notes), and it mixes with no bivariate jet.
    """

    __slots__ = ()

    layout = "univariate"

    @staticmethod
    def _n_planes(m: int) -> int:
        return m + 1

    @staticmethod
    def _index(m: int, i: int, j: int) -> int:
        if j:
            raise ValueError(f"a univariate jet has no plane ({i}, {j})")
        return i

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _mul_plan(m: int) -> tuple:
        """The bivariate plan's terms between planes ``(k, 0)``, in its order."""
        return tuple((ka, kb, ka + kb) for ka in range(m + 1) for kb in range(m + 1 - ka))

    def dx(self) -> "Jet1":
        """Jet of the derivative series (order drops by one)."""
        if self.m < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        k = np.arange(1, self.m + 1).reshape((-1,) + (1,) * len(self.shape))
        return Jet1(self.m - 1, k * self.c[:, 1:])


def _live_planes(a: np.ndarray) -> list:
    """Per plane of ``a``: does it hold a nonzero entry?  When every plane's first
    entry is nonzero, that settles it without reading the rest."""
    planes = a[0]
    if planes.size and planes[(slice(None),) + (0,) * (planes.ndim - 1)].all():
        return [True] * len(planes)
    return planes.any(axis=tuple(range(1, planes.ndim))).tolist()


def jet_seed(x0, z0, m: int) -> tuple[Jet2, Jet2]:
    """Coordinate jets at base point ``(x0, z0)``.

    The x-jet has value ``x0`` and plane (1, 0) equal to 1; the z-jet analogously.
    ``x0`` and ``z0`` may be arrays of one shape, the points' (jets on
    different points do not combine).
    At ``m = 0`` both are constant jets with no seed planes: values only.
    """
    if m < 0:
        raise ValueError("jet order must be at least 0")
    xj = Jet2.constant(x0, m)
    zj = Jet2.constant(z0, m)
    if m:
        xj.c[0, Jet2._index(m, 1, 0)] = 1
        zj.c[0, Jet2._index(m, 0, 1)] = 1
    return xj, zj


def jet_seed1(t0, m: int) -> Jet1:
    """Univariate jet of the variable at ``t0``: the x-jet of ``jet_seed`` less its z-planes."""
    if m < 0:
        raise ValueError("jet order must be at least 0")
    tj = Jet1.constant(t0, m)
    if m:
        tj.c[0, 1] = 1
    return tj


def jet_partial(a: Jet2, i: int, j: int):
    """True mixed partial d^{i+j} / dx^i dz^j at the base point."""
    if i < 0 or j < 0:
        raise ValueError("partial orders must be nonnegative")
    if i + j > a.m:
        raise ValueError(f"partial ({i},{j}) exceeds jet order {a.m}")
    return a.plane(i, j) * (math.factorial(i) * math.factorial(j))


# -- composition with one-variable series ------------------------------------


def compose_series(tk: Sequence, a: Jet2) -> Jet2:
    """Compose a one-variable Taylor series with a jet.

    ``tk[k]`` is the k-th Taylor coefficient (``g^(k)(a0)/k!``) of the outer
    function about the jet's constant term.  Evaluation is Horner's scheme in
    the nilpotent part, so it is exact within the truncated algebra.
    """
    if len(tk) < a.m + 1:
        raise ValueError("series too short for the jet order")
    acc = type(a).constant(tk[a.m], a.m, a.shape)
    if a.m == 0:  # no nilpotent part to build
        return acc
    n = type(a)(a.m, a.c.copy())
    n.c[0, 0] = 0
    for k in range(a.m - 1, -1, -1):
        acc = acc * n
        acc.c = _add_to_value(acc.c, tk[k])
    return acc


def poly_jet(coeffs: Sequence, a: Jet2) -> Jet2:
    """Evaluate a polynomial (ascending coefficients) on a jet, exactly."""
    if len(coeffs) == 0:
        return type(a).constant(np.zeros(a.shape), a.m)
    acc = type(a).constant(coeffs[-1], a.m, a.shape)
    for ck in reversed(coeffs[:-1]):
        acc = acc * a
        acc.c = _add_to_value(acc.c, ck)
    return acc


def _times(v, c):
    """``v * c`` for a jet or an array ``v``, and ``v`` itself when ``c`` is exactly 1.0."""
    return v if c == 1.0 else v * c


class _Sum:
    """A running sum ``t0 + t1 + ...`` of jets, added left to right.

    ``total`` holds the bits of ``functools.reduce(operator.add, terms)``:
    one term's sum is that term itself, the first sum of two is a new jet,
    and each later jet is added into that sum's own buffer, in place, when
    the buffer holds the sum's dtype and shape (else the sum is a new one
    again).  So only buffers the sum made itself are ever written, never an
    operand, also not a term that is an operand elsewhere (``_times(v, 1.0)
    is v``).  Other terms (numbers, arrays) are added by ``+`` alone.  Read
    ``total`` once the last term is in.
    """

    __slots__ = ("total", "_own")

    def __init__(self):
        self.total, self._own = None, False

    def add(self, term) -> "_Sum":
        if self.total is None:
            self.total = term
        elif not (self._own and _add_into(self.total, term)):
            self.total, self._own = self.total + term, True
        return self

    def add_product(self, v, c) -> "_Sum":
        """Add ``v * c``, a product the sum makes itself: the first is its buffer."""
        if self.total is None:
            self.total, self._own = v * c, True
            return self
        return self.add(v * c)


def _sum(terms):
    """``t0 + t1 + ...`` over an iterable of jets, numbers or arrays, by :class:`_Sum`."""
    acc = _Sum()
    for term in terms:
        acc.add(term)
    return acc.total


def _add_into(total, term) -> bool:
    """Add jet ``term`` into the buffer of jet ``total`` if both have one layout, order
    and point shape and that buffer holds ``total + term``'s dtype; return whether it did."""
    if not (isinstance(total, Jet2) and type(term) is type(total) and term.m == total.m
            and term.shape == total.shape):
        return False
    buf, other = total.c, term.c
    if np.result_type(buf, other) != buf.dtype:
        return False
    np.add(buf, other, out=buf)
    return True


def _real(*arrays) -> bool:
    """All of ``arrays`` hold real floats (complex jets stay on the plane loop)."""
    return all(a.dtype.kind == "f" for a in arrays)


def _add_to_value(c: np.ndarray, v) -> np.ndarray:
    """``c[0, 0] += v``, in place where ``c``'s dtype holds the sum, else (a complex
    ``v`` on a real ``c``) in a promoted copy; returns the array written."""
    c00 = c[0, 0, ...]
    try:
        np.add(c00, v, out=c00)
    except TypeError:
        c = c.astype(np.result_type(c, v))
        c[0, 0] += v
    return c


def _off_cut(v, what: str):
    """Reject arguments on the principal-branch cut instead of going silent."""
    v = np.asarray(v)
    if np.iscomplexobj(v):
        bad = (v.real <= 0) & (v.imag == 0)
    else:
        bad = v <= 0
    if np.any(bad):
        raise BranchCutError(
            f"{what}: argument on the branch cut at {int(np.count_nonzero(bad))} point(s)"
        )


def jexp(a: Jet2) -> Jet2:
    ev = np.exp(a.value)
    tk = [ev / math.factorial(k) for k in range(a.m + 1)]
    return compose_series(tk, a)


def jlog(a: Jet2) -> Jet2:
    v = a.value
    _off_cut(v, "log")
    tk = [np.log(v)]
    vk = np.ones_like(v)
    for k in range(1, a.m + 1):
        vk = vk / v
        tk.append(((-1) ** (k - 1) / k) * vk)
    return compose_series(tk, a)


def jpow(a: Jet2, p) -> Jet2:
    """Power of a jet: exact repeated products for integer p, principal branch otherwise."""
    if isinstance(p, (int, np.integer)):
        p = int(p)
        if p == 0:
            return type(a).constant(np.ones(a.shape), a.m)
        base = a if p > 0 else a.recip()
        out = base
        for _ in range(abs(p) - 1):
            out = out * base
        return out
    v = a.value
    _off_cut(v, "pow")
    tk = [np.power(v, p)]
    coef = 1.0
    for k in range(1, a.m + 1):
        coef = coef * (p - (k - 1)) / k
        tk.append(coef * np.power(v, p - k))
    return compose_series(tk, a)


def jsqrt(a: Jet2) -> Jet2:
    return jpow(a, 0.5)
