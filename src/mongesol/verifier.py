"""Grid-level verification engine.

Runs the identity checks a configured family is supposed to satisfy --
derivative-chain compatibility, functional dependence of the top and bottom
fields, the tagged closed-form relation between them (plus an independent
quadrature reconstruction of both from the derivative-level functions), the
four-function constraint at random probe points, and a full reconstruction
of the underlying potential with an n-th order finite-difference oracle --
and aggregates everything into a deterministic :class:`ResidualReport`.
"""

from __future__ import annotations

import contextlib
import math
import operator
import random
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from itertools import repeat, starmap
from typing import Iterable

import numpy as np

from .errors import ConfigError, DomainError, QuadratureError
from .families import _BLOCK, _TYPE_PARSERS, FieldBundle, family_to_dict, json_number
from .functional_eq import four_function_residual, variable_slope_residual
from .jets import Jet2, jet_partial

__all__ = [
    "GridSpec",
    "GridEval",
    "CheckResult",
    "ResidualReport",
    "DEFAULT_TOLERANCES",
    "KNOWN_CHECKS",
    "MAX_POINTS",
    "admissible_grid",
    "check_compatibility",
    "check_dependence",
    "check_wf_relation",
    "check_equation",
    "reconstruct_u",
    "richardson_ratio",
    "run_suite",
    "default_checks",
    "sample_points",
    "validate_checks",
    "validate_probes",
    "validate_tolerances",
]

KNOWN_CHECKS = ("compat", "dependence", "wf", "eq5", "eq10", "reconstruct")

# Most points a GridSpec or one probe set may hold.  A 321x321 verify with
# reconstruct (order-2 jets) peaks at most at 584 traced bytes per point over the
# canonical families (m3_general and m3_general_e0), 312 without it (order 1), so
# 2**20 points take about 0.6 GB.
MAX_POINTS = 2 ** 20

DEFAULT_TOLERANCES = {
    "compat": 1e-9,
    "dependence": 1e-9,
    "wf": 1e-9,
    "wf_quadrature": 1e-6,
    "eq5": 1e-9,
    "eq10": 1e-9,
    "reconstruct": 1e-6,
    "path_consistency": 1e-6,
}


def validate_checks(checks) -> None:
    """Raise :class:`ConfigError` unless ``checks`` is a nonempty list of names
    from ``KNOWN_CHECKS``, each named once (a report keeps one row per name)."""
    if not (isinstance(checks, list) and checks and all(c in KNOWN_CHECKS for c in checks)):
        raise ConfigError(f"checks must be a nonempty list of names from {KNOWN_CHECKS}, "
                          f"got {checks!r}")
    repeated = sorted({c for c in checks if checks.count(c) > 1})
    if repeated:
        raise ConfigError(f"checks must name each check once, got {repeated} more than once")


def validate_tolerances(tolerances) -> dict:
    """``tolerances`` (none if ``None``) with its numbers read by :func:`json_number`, or a
    ConfigError unless it maps names of ``DEFAULT_TOLERANCES`` to positive finite numbers."""
    tolerances, read = {} if tolerances is None else tolerances, None
    if isinstance(tolerances, dict):
        with contextlib.suppress(ValueError, OverflowError):
            read = {name: json_number(value) for name, value in tolerances.items()}
    if read is None:
        raise ConfigError("tolerances must be an object of name: finite number pairs, "
                          f"got {tolerances!r}")
    for name, value in read.items():
        if name not in DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance name {name!r}")
        if not 0 < value <= sys.float_info.max:  # a too large int fails too
            raise ConfigError(f"tolerance {name!r} must be positive and finite, got {value}")
    return read


def validate_probes(probes) -> int:
    """``probes`` read by :func:`json_number` as an int, or a ConfigError unless it is
    from 1 to ``MAX_POINTS``."""
    try:
        probes = json_number(probes, int)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"probes must be an integer ({exc})") from None
    if probes < 1:
        raise ConfigError(f"probes must be at least 1, got {probes}")
    if probes > MAX_POINTS:
        raise ConfigError(f"probes must be at most {MAX_POINTS}, got {probes}")
    return probes


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid of ``nx`` by ``nz`` nodes, read by every grid check.

    Each field is read by :func:`json_number`, the rectangle as floats and ``nx``
    and ``nz`` as ints.  A grid of more than ``MAX_POINTS`` points is refused.
    """

    x_lo: float
    x_hi: float
    z_lo: float
    z_hi: float
    nx: int = 21
    nz: int = 21

    def __post_init__(self):
        try:
            for f in fields(self):  # as a family config reads a field of its type
                object.__setattr__(self, f.name, _TYPE_PARSERS[f.type](getattr(self, f.name)))
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"grid: malformed field value ({exc})") from None
        if not (self.x_lo < self.x_hi and self.z_lo < self.z_hi):
            raise ConfigError("grid rectangle needs x_lo < x_hi and z_lo < z_hi, got "
                              f"[{self.x_lo}, {self.x_hi}, {self.z_lo}, {self.z_hi}]")
        if self.nx < 5 or self.nz < 5:
            raise ConfigError("grid needs nx, nz >= 5")
        if self.nx * self.nz > MAX_POINTS:
            raise ConfigError(f"the grid has {self.nx}x{self.nz} points, more than {MAX_POINTS}")

    @classmethod
    def for_bundle(cls, bundle: FieldBundle, nx: int = 21, nz: int = 21) -> "GridSpec":
        return cls(*bundle.domain.rect, nx=nx, nz=nz)

    def axes(self):
        return (np.linspace(self.x_lo, self.x_hi, self.nx),
                np.linspace(self.z_lo, self.z_hi, self.nz))


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_abs: float
    mean_abs: float
    argmax: tuple[float, float]
    tolerance: float
    passed: bool
    extra: dict = field(default_factory=dict)


@dataclass
class ResidualReport:
    meta: dict
    checks: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_json_dict(self) -> dict:
        """Strict-JSON form: non-finite floats become "inf"/"-inf"/"nan"."""
        return _finite_json({
            "meta": self.meta,
            "passed": self.passed,
            "checks": {
                name: {
                    "max_abs": c.max_abs,
                    "mean_abs": c.mean_abs,
                    "argmax": list(c.argmax),
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                    "extra": c.extra,
                }
                for name, c in self.checks.items()
            },
        })

    def csv_rows(self) -> list[list[str]]:
        rows = [["check", "max_abs", "mean_abs", "argmax_x", "argmax_z", "tolerance", "passed"]]
        for name, c in self.checks.items():
            rows.append([
                name, _fmt(c.max_abs), _fmt(c.mean_abs), _fmt(c.argmax[0]), _fmt(c.argmax[1]),
                _fmt(c.tolerance), str(c.passed).lower(),
            ])
        return rows


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _finite_json(obj):
    """``obj`` with each non-finite float replaced by its ``str`` (which ``float`` parses)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    return obj


def _result(name, resid, x, z, tol, extra=None) -> CheckResult:
    resid = np.abs(np.asarray(resid))
    if resid.size == 0:
        raise DomainError(f"check {name!r}: no admissible points to evaluate")
    i = int(np.argmax(resid))
    mx = float(resid.flat[i])
    return CheckResult(
        name=name,
        max_abs=mx,
        mean_abs=float(np.mean(resid)),
        argmax=(float(np.ravel(x)[i]), float(np.ravel(z)[i])),
        tolerance=tol,
        passed=bool(mx <= tol),
        extra=extra or {},
    )


def _failed(name, tol, exc, **extra) -> CheckResult:
    """The row of a check that raised ``exc``: infinite residuals, no argmax."""
    return CheckResult(name, math.inf, math.inf, (math.nan, math.nan), tol, False,
                       extra={**extra, "error": str(exc)})


def admissible_grid(bundle: FieldBundle, grid: GridSpec):
    """Flat arrays of the grid points inside the bundle's safe domain."""
    xs, zs = grid.axes()
    xg, zg = xs[:, None], zs[None, :]
    ok = bundle.domain.mask(xg, zg)  # broadcast axes: an x-only predicate runs on nx values
    x, z = np.broadcast_to(xg, ok.shape)[ok], np.broadcast_to(zg, ok.shape)[ok]
    if x.size < 10:
        raise DomainError(
            f"safe domain exhausted: only {x.size} admissible grid points (need >= 10)"
        )
    return x, z


class GridEval:
    """A bundle's admissible grid points and their field jets, shared by the grid checks.

    Nothing is evaluated until a check first reads ``points`` or ``fields``
    (an eq5 or eq10 run evaluates no grid); then the points come from one
    :func:`admissible_grid` call and the jets from one ``fields_fn`` call,
    however many checks read them.  ``order`` is the jet order: 2 where
    reconstruct reads the grid (second partials), 1 where the checks read
    values and first partials only.  A coefficient of order k depends on
    those of order <= k only, so the coefficients both orders carry are the
    same bits.
    """

    def __init__(self, bundle: FieldBundle, grid: GridSpec, order: int = 2):
        self.bundle = bundle
        self.grid = grid
        self.order = order

    @cached_property
    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``x, z`` of the admissible grid points, in C order of the grid."""
        return admissible_grid(self.bundle, self.grid)

    @cached_property
    def fields(self) -> dict:
        """Jets of order ``order`` at ``points``."""
        return self.bundle.fields_fn(*self.points, self.order)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


# check -> the bundle field it reads, and what a family whose field is None lacks
_NEEDS = {
    "wf": ("wf_residual", "carries no W-f relation (tag is None)"),
    "eq5": ("quadruple", "has no constant-slope quadruple (eq5)"),
    "eq10": ("general_quadruple", "has no variable-slope quadruple (eq10)"),
}


def _require_runnable(bundle: FieldBundle, name: str) -> None:
    """Raise :class:`ConfigError` if ``bundle`` lacks what check ``name`` reads."""
    if name == "reconstruct" and bundle.n > 4:
        raise ConfigError("reconstruction supports degree n <= 4 (stencil table)")
    if name in _NEEDS and getattr(bundle, _NEEDS[name][0]) is None:
        raise ConfigError(f"family {bundle.family!r} {_NEEDS[name][1]}")


def check_compatibility(ev: GridEval, tol: float) -> CheckResult:
    """Residuals of the derivative chain, including the top link through W'.

    The top link compares d/dx of the last chain field against W'(a0) d/dz a0,
    with W' taken from the family's explicit top map when it has one and from
    the x-route ratio W_x / (d/dx a0) otherwise (the z-route is the trivially
    exact chain identity and would have no teeth).  The ratio is read only
    where |f_x| > 1e-8 max|f_x|; where no point is left, the top link is
    untested and the row fails, with ``extra.error`` and a ``link_top`` of nan.
    """
    bundle, (x, z), fl = ev.bundle, ev.points, ev.fields
    n = bundle.n
    worst = np.zeros(x.shape)
    per_link = {}
    for k in range(n - 1):
        r = np.abs(jet_partial(fl[f"a{k}"], 1, 0) - jet_partial(fl[f"a{k + 1}"], 0, 1))
        per_link[f"link_{k}"] = float(np.max(r))
        worst = np.maximum(worst, r)
    a_top_x = jet_partial(fl[f"a{n - 1}"], 1, 0)
    a0_z = jet_partial(fl["a0"], 0, 1)
    if bundle.wprime_fn is not None:
        wp = bundle.wprime_fn(fl)
        r = np.abs(a_top_x - wp * a0_z)
        used = x.size
    else:
        f_x = jet_partial(fl["a0"], 1, 0)
        w_x = jet_partial(fl["W"], 1, 0)
        scale = float(np.max(np.abs(f_x)))
        keep = np.abs(f_x) > 1e-8 * max(scale, 1e-30)
        r = np.zeros(x.shape)
        r[keep] = np.abs(a_top_x[keep] - (w_x[keep] / f_x[keep]) * a0_z[keep])
        used = int(np.count_nonzero(keep))
    per_link["link_top"] = float(np.max(r)) if used else math.nan
    per_link["top_link_points"] = used
    if used == 0:
        return _failed("compat", tol, "top link: no point with |f_x| above 1e-8 max|f_x| "
                       "to read W' = W_x / f_x at", **per_link)
    worst = np.maximum(worst, r)
    return _result("compat", worst, x, z, tol, extra=per_link)


def check_dependence(ev: GridEval, tol: float) -> CheckResult:
    """Normalized Jacobian between the bottom and top fields."""
    fl = ev.fields
    f_x, f_z = jet_partial(fl["f"], 1, 0), jet_partial(fl["f"], 0, 1)
    w_x, w_z = jet_partial(fl["W"], 1, 0), jet_partial(fl["W"], 0, 1)
    jac = f_x * w_z - f_z * w_x
    den = (np.sqrt(np.abs(f_x) ** 2 + np.abs(f_z) ** 2)
           * np.sqrt(np.abs(w_x) ** 2 + np.abs(w_z) ** 2) + 1e-30)
    return _result("dependence", np.abs(jac) / den, *ev.points, tol)


def check_wf_relation(ev: GridEval, tol: float, quad_tol: float) -> list[CheckResult]:
    """Pointwise residual of the tagged closed-form relation.

    When the family exposes its derivative-level forms, the bottom and top
    fields are additionally rebuilt by quadrature of those forms along grid
    lines and compared against the closed forms; a disagreement here flags a
    broken antiderivative rather than a broken family.
    """
    bundle = ev.bundle
    _require_runnable(bundle, "wf")
    fl = ev.fields
    out = []
    try:
        resid = bundle.wf_residual(fl["W"].value, fl["f"].value)
        out.append(_result("wf", resid, *ev.points, tol, extra={"relation": bundle.wf_relation}))
    except DomainError as exc:
        out.append(_failed("wf", tol, exc, relation=bundle.wf_relation))
    if bundle.derivative_forms is not None:
        out.append(_quadrature_crosscheck(ev, quad_tol))
    return out


def _quadrature_crosscheck(ev: GridEval, tol: float) -> CheckResult:
    """Rebuild f and W by line quadrature of the derivative-level forms.

    Each admissible node gets f and W at the reference node plus the integral
    along its row to the reference column and then along its column.  The
    columns run in blocks of ``max(1, _BLOCK // fine z points)``, about
    ``_BLOCK`` fine points each (the Gauss primitive's block size: 12
    columns of an 81x81 grid, all 21 of a 21x21 one), so the temporaries
    stay a few grid arrays for any grid (a traced peak of 18 float grids at
    161x161 for m3_general, against 241 with all columns in one call); each
    form, mask and Simpson sum is per fine point or per (column, cell) and
    each cumulative sum runs inside one column, so the blocks move no bit.
    """
    bundle, grid, (x, z), fl = ev.bundle, ev.grid, ev.points, ev.fields
    xs, zs = grid.axes()
    xg, zg = np.meshgrid(xs, zs, indexing="ij")
    ij = np.searchsorted(xs, x), np.searchsorted(zs, z)  # the admissible points are grid nodes
    ok = np.zeros(xg.shape, dtype=bool)
    ok[ij] = True
    f_grid = np.full(xg.shape, np.nan, dtype=fl["f"].value.dtype)
    w_grid = np.full(xg.shape, np.nan, dtype=fl["W"].value.dtype)
    f_grid[ij], w_grid[ij] = fl["f"].value, fl["W"].value
    # reference node: admissible point closest to the rectangle centre
    xc = 0.5 * (grid.x_lo + grid.x_hi)
    zc = 0.5 * (grid.z_lo + grid.z_hi)
    dist = np.where(ok, (xg - xc) ** 2 + (zg - zc) ** 2, np.inf)
    i0, j0 = np.unravel_index(int(np.argmin(dist)), dist.shape)

    # Simpson sub-steps per cell: at least as fine as 32 per cell of a 21-node axis
    refine = max(32, 2 * math.ceil(320 / (min(grid.nx, grid.nz) - 1)))
    fine_x, fine_z = _fine_axis(xs, refine), _fine_axis(zs, refine)
    (f_row, w_row), row_ok = _line_quadrature(
        bundle, fine_x, np.full_like(fine_x, zs[j0]), xs, refine, i0, ("f_x", "W_x"))
    # columns broadcast, not materialized: x-only predicates and forms run on
    # the block's x values
    cols = max(1, _BLOCK // fine_z.size)
    blocks = [_line_quadrature(bundle, xs[k:k + cols, None, None] + 0.0, fine_z[None, :, :],
                               zs, refine, j0, ("f_z", "W_z"))
              for k in range(0, xs.size, cols)]
    sums, oks = zip(*blocks)
    f_col, w_col = (np.concatenate(parts) for parts in zip(*sums))
    col_ok = np.concatenate(oks)

    f_quad = f_grid[i0, j0] + f_row[:, None] + f_col
    w_quad = w_grid[i0, j0] + w_row[:, None] + w_col

    path_ok = _path_ok(ok, row_ok, col_ok, i0, j0)
    if not np.any(path_ok):
        raise DomainError("quadrature cross-check: no admissible integration paths")

    resid = np.maximum(np.abs(f_quad[path_ok] - f_grid[path_ok]),
                       np.abs(w_quad[path_ok] - w_grid[path_ok]))
    return _result("wf_quadrature", resid, xg[path_ok], zg[path_ok], tol,
                   extra={"points": int(np.count_nonzero(path_ok))})


def _clean_to(bad, k0):
    """Along the last axis: no ``bad`` node between each index and ``k0``, both
    included; index ``k0`` itself counts as clean whatever its flag."""
    k = np.arange(bad.shape[-1])
    lo, hi = np.minimum(k, k0), np.maximum(k, k0)
    counts = np.cumsum(bad, axis=-1)
    return (counts[..., hi] - counts[..., lo] + bad[..., lo] == 0) | (k == k0)


def _path_ok(ok, row_ok, col_ok, i0, j0):
    """Admissible nodes whose row segment to ``i0`` and column segment to ``j0`` are clean."""
    return ok & _clean_to(~row_ok, i0)[:, None] & _clean_to(~col_ok, j0)


def _fine_axis(nodes, refine):
    cells = np.diff(nodes)
    offs = np.arange(refine + 1) / refine
    return nodes[:-1, None] + cells[:, None] * offs[None, :]  # (ncell, refine+1)


def _line_quadrature(bundle, x, z, nodes, refine, k0, keys):
    """Cumulative Simpson integrals from node ``k0`` of the derivative forms ``keys``
    along the last axis of the fine points ``x, z`` (``refine`` sub-steps per cell
    of ``nodes``), and each node's admissibility: its cells lie in the domain.
    Lines along the leading axes are independent, so a caller may pass any
    slice of them (a block of columns) and concatenate the results."""
    okf = bundle.domain.mask(x, z)
    with np.errstate(all="ignore"):
        forms = bundle.derivative_forms(x, z)
        forms = [forms[key] for key in keys]  # each built on its first read
    h = np.diff(nodes) / refine
    w = np.ones(refine + 1)  # Simpson weights
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w /= 3.0
    sums = []
    for form in forms:
        # off-domain cells only feed paths that get filtered out; keep them from
        # poisoning the cumulative sums with non-finite values
        cells = np.cumsum(np.sum(np.where(okf, form, 0.0) * w, axis=-1) * h, axis=-1)
        c = np.concatenate([np.zeros(cells.shape[:-1] + (1,)), cells], axis=-1)
        sums.append(c - c[..., k0:k0 + 1])
    cell_ok = np.all(okf, axis=-1)
    node_ok = np.ones(cell_ok.shape[:-1] + (len(nodes),), dtype=bool)
    node_ok[..., :-1] &= cell_ok
    node_ok[..., 1:] &= cell_ok
    return sums, node_ok


def check_equation(bundle: FieldBundle, rng: random.Random, probes: int,
                   tol: float, which: str) -> CheckResult:
    """Constraint residual at ``probes`` safe points drawn by :func:`sample_points`
    from ``rng`` (relative-normalized); ``probes`` is read by :func:`validate_probes`."""
    if which not in ("eq5", "eq10"):
        raise ConfigError(f"unknown equation check {which!r}")
    _require_runnable(bundle, which)
    x, z = sample_points(bundle, rng, validate_probes(probes))
    if which == "eq5":
        raw, rel = four_function_residual(bundle.quadruple, x, z)
    else:
        raw, rel = variable_slope_residual(bundle.general_quadruple, x, z)
    return _result(which, raw, x, z, tol,
                   extra={"max_rel": float(np.max(np.abs(rel))), "probes": int(x.size)})


def sample_points(bundle: FieldBundle, rng: random.Random, count: int):
    """``count`` seeded uniform points of the bundle's rectangle inside its safe domain.

    Each round draws ``count`` values of ``rng.random()`` for x, then ``count``
    for z, maps them to the rectangle as ``lo + (hi - lo) * u`` and keeps the
    admitted points in draw order, until ``count`` are kept.  Only ``random()``
    is read, the part of :class:`random.Random` whose sequence Python keeps
    for a given seed; any generator whose ``random()`` returns a float in
    [0, 1) works, a ``numpy.random.Generator`` too.
    """
    x_lo, x_hi, z_lo, z_hi = bundle.domain.rect
    xs: list[float] = []
    zs: list[float] = []

    def batch(lo, hi):
        return lo + (hi - lo) * np.fromiter(starmap(rng.random, repeat((), count)), float, count)

    for _ in range(200):
        x = batch(x_lo, x_hi)
        z = batch(z_lo, z_hi)
        ok = bundle.domain.mask(x, z)
        need = count - len(xs)
        xs.extend(x[ok][:need])
        zs.extend(z[ok][:need])
        if len(xs) >= count:
            return np.array(xs), np.array(zs)
    raise DomainError(f"could not sample {count} safe points (domain too thin)")


# ---------------------------------------------------------------------------
# reconstruction of the underlying potential
# ---------------------------------------------------------------------------

_FD_STENCILS = {
    1: (np.array([-0.5, 0.0, 0.5]), 1 / 6),
    2: (np.array([1.0, -2.0, 1.0]), 1 / 12),
    3: (np.array([-0.5, 1.0, 0.0, -1.0, 0.5]), 1 / 4),
    4: (np.array([1.0, -4.0, 6.0, -4.0, 1.0]), 1 / 6),
}


def reconstruct_u(ev: GridEval, tol: float,
                  path_tol: float = DEFAULT_TOLERANCES["path_consistency"]) -> CheckResult:
    """Rebuild U by repeated line quadrature and check the original equation.

    The chain fields are the n-th mixed partials of U; integrating the pair
    ``(a^{j+1} dx + a^j dz)`` n times produces U up to an irrelevant
    polynomial.  The reported residual applies an order-n central stencil to
    U in each direction and pushes the z-result through the family's top map,
    so the check is independent of the jets used to build the fields.  The
    finite-difference truncation budget C*h^2 is added to the tolerance and
    recorded.  The jets are those of ``ev``, which must be of order 2; the
    stencil step is its grid spacing, so a finer oracle takes a larger grid.
    """
    bundle = ev.bundle
    n = bundle.n
    _require_runnable(bundle, "reconstruct")
    grid = ev.grid
    if ev.points[0].size != grid.nx * grid.nz:
        raise DomainError("reconstruction needs a fully admissible rectangle; shrink the grid")
    # every point is admitted, so the flat points are the grid in C order
    xg, zg = (p.reshape(grid.nx, grid.nz) for p in ev.points)
    hx, hz = xg[1, 0] - xg[0, 0], zg[0, 1] - zg[0, 0]
    fl = {k: Jet2(j.m, j.c.reshape(j.c.shape[:2] + xg.shape)) for k, j in ev.fields.items()}
    levels = [_real_field(fl[f"a{j}"].value, f"a{j}") for j in range(n)]
    levels.append(_real_field(fl["W"].value, "W"))

    # both quadrature paths are O(h^2) approximations, so their disagreement
    # carries the same trapezoid truncation allowance as the residual itself
    second = 0.0
    for j in range(n):
        second = max(second,
                     float(np.max(np.abs(jet_partial(fl[f"a{j}"], 2, 0)))),
                     float(np.max(np.abs(jet_partial(fl[f"a{j}"], 0, 2)))))
    span_x, span_z = grid.x_hi - grid.x_lo, grid.z_hi - grid.z_lo
    path_budget = 3.0 * n * (hx ** 2 * span_x + hz ** 2 * span_z) / 12.0 * second

    path_defect = 0.0
    for _ in range(n):
        nxt = []
        for j in range(len(levels) - 1):
            pot, defect = _potential(levels[j + 1], levels[j], hx, hz)
            path_defect = max(path_defect, defect)
            nxt.append(pot)
        levels = nxt
    if path_defect > path_tol + path_budget:
        raise QuadratureError(
            f"quadrature path inconsistency {path_defect:.3e} above "
            f"{path_tol + path_budget:.3e}: the field bundle is not integrable"
        )
    u = levels[0]

    st, err_c = _FD_STENCILS[n]
    w = len(st) // 2
    fdx = sum(c * u[i: u.shape[0] - (len(st) - 1 - i), w:-w] for i, c in enumerate(st)) / hx ** n
    fdz = sum(c * u[w:-w, i: u.shape[1] - (len(st) - 1 - i)] for i, c in enumerate(st)) / hz ** n
    xi, zi = xg[w:-w, w:-w], zg[w:-w, w:-w]
    # the shared jets at the interior nodes (views) seed the W(f) slide
    inner = {k: Jet2(fl[k].m, fl[k].c[..., w:-w, w:-w]) for k in ("f", "W")}
    w_of = bundle.w_of_f(fdz, xi, zi, inner)
    resid = np.abs(fdx - _real_field(w_of, "W(f)"))

    trunc, floor = _fd_budget(fl, u, st, n, err_c, hx, hz, second)
    eff_tol = tol + trunc + floor
    out = _result("reconstruct", resid, xi, zi, eff_tol,
                  extra={"fd_budget": trunc, "fd_roundoff_floor": floor,
                         "base_tolerance": tol, "path_budget": path_budget,
                         "path_consistency": path_defect, "hx": hx, "hz": hz})
    return out


def _real_field(v, what):
    v = np.asarray(v)
    if np.iscomplexobj(v):
        scale = max(float(np.max(np.abs(v))), 1.0)
        if np.max(np.abs(v.imag)) > 1e-9 * scale:
            raise DomainError(f"reconstruction needs real fields; {what} has a large imaginary part")
        return v.real.copy()
    return v


def _potential(gx, gz, hx, hz):
    """Potential of the closed form gx dx + gz dz on the grid, both paths."""
    row = np.concatenate([[0.0], np.cumsum((gx[1:, 0] + gx[:-1, 0]) / 2 * hx)])
    col = np.concatenate([np.zeros((gz.shape[0], 1)),
                          np.cumsum((gz[:, 1:] + gz[:, :-1]) / 2 * hz, axis=1)], axis=1)
    pot = row[:, None] + col
    col0 = np.concatenate([[0.0], np.cumsum((gz[0, 1:] + gz[0, :-1]) / 2 * hz)])
    rows = np.concatenate([np.zeros((1, gx.shape[1])),
                           np.cumsum((gx[1:, :] + gx[:-1, :]) / 2 * hx, axis=0)], axis=0)
    alt = col0[None, :] + rows
    return pot, float(np.max(np.abs(pot - alt)))


def _fd_budget(fl, u, st, n, err_c, hx, hz, second):
    """Error allowance of the oracle: stencil truncation, propagated trapezoid
    truncation, and the roundoff floor of dividing n-th differences by h^n."""
    wxx = float(np.max(np.abs(jet_partial(fl["W"], 2, 0))))
    a0zz = float(np.max(np.abs(jet_partial(fl["a0"], 0, 2))))
    f_z = np.abs(jet_partial(fl["f"], 0, 1))
    w_z = np.abs(jet_partial(fl["W"], 0, 1))
    healthy = f_z > 0.05 * max(float(np.max(f_z)), 1e-30)
    slope = float(np.max(w_z[healthy] / f_z[healthy])) if np.any(healthy) else 1.0
    fd_part = err_c * (hx ** 2 * wxx + hz ** 2 * slope * a0zz)
    quad_part = n * (hx ** 2 + hz ** 2) / 12.0 * second
    floor = (50.0 * np.finfo(float).eps * (float(np.max(np.abs(u))) + 1.0)
             * float(np.sum(np.abs(st))) * (1.0 + slope) / min(hx, hz) ** n)
    return 3.0 * (fd_part + quad_part), floor


def richardson_ratio(bundle: FieldBundle, grid: GridSpec, tol: float) -> tuple[float, CheckResult, CheckResult]:
    """Residual ratio under halving the reconstruction step.

    The finer grid is made, and so refused above ``MAX_POINTS`` points, before
    either grid is evaluated.
    """
    fine_grid = GridSpec(grid.x_lo, grid.x_hi, grid.z_lo, grid.z_hi,
                         nx=2 * grid.nx - 1, nz=2 * grid.nz - 1)
    coarse = reconstruct_u(GridEval(bundle, grid, 2), tol)
    fine = reconstruct_u(GridEval(bundle, fine_grid, 2), tol)
    denom = fine.max_abs if fine.max_abs > 0 else 1e-300
    return coarse.max_abs / denom, coarse, fine


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------


def default_checks(bundle: FieldBundle) -> list[str]:
    """compat and dependence, then each of wf, eq5 and eq10 whose bundle field is set."""
    return ["compat", "dependence"] + [
        name for name, (attr, _) in _NEEDS.items() if getattr(bundle, attr) is not None]


def _seed(seed) -> int:
    """The probe-sampling seed as a Python int, from any integer (a NumPy one too;
    a float is a TypeError).  Negative ones are refused: ``random.Random`` seeds
    with the absolute value of an int, so ``Random(-5)`` repeats ``Random(5)``."""
    seed = operator.index(seed)
    if seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
    return seed


def run_suite(
    bundle: FieldBundle,
    grid: GridSpec,
    checks: Iterable[str],
    tolerances: dict | None = None,
    seed: int = 0,
    probes: int = 100,
) -> ResidualReport:
    """Run the selected checks on one :class:`GridEval` of ``grid`` and assemble the report.
    An empty, unknown, repeated or unrunnable check list is a ConfigError before any
    check runs.  eq5 and eq10 draw ``probes`` points each, in check order, from one
    ``random.Random(seed)``, so the probes of a seed do not depend on the
    NumPy release.  ``seed``, ``tolerances`` and ``probes`` are read by ``_seed``,
    :func:`validate_tolerances` and :func:`validate_probes`."""
    seed = _seed(seed)
    tol = {**DEFAULT_TOLERANCES, **validate_tolerances(tolerances)}
    probes = validate_probes(probes)
    checks = list(checks)
    validate_checks(checks)
    for name in checks:
        _require_runnable(bundle, name)

    rng = random.Random(seed)
    ev = GridEval(bundle, grid, 2 if "reconstruct" in checks else 1)
    results: dict[str, CheckResult] = {}
    for name in checks:
        if name == "compat":
            results[name] = check_compatibility(ev, tol["compat"])
        elif name == "dependence":
            results[name] = check_dependence(ev, tol["dependence"])
        elif name == "wf":
            for res in check_wf_relation(ev, tol["wf"], tol["wf_quadrature"]):
                results[res.name] = res
        elif name in ("eq5", "eq10"):
            results[name] = check_equation(bundle, rng, probes, tol[name], name)
        elif name == "reconstruct":
            try:
                results[name] = reconstruct_u(ev, tol["reconstruct"], tol["path_consistency"])
            except QuadratureError as exc:
                results[name] = _failed(name, tol["reconstruct"], exc)
    params = family_to_dict(bundle.config) if bundle.config is not None else {}
    meta = {
        "family": bundle.family,
        # the family's config as its JSON form; meta.grid records the rectangle
        "params": {k: v for k, v in params.items() if k not in ("family", "rect")},
        "mutations": bundle.mutations,
        "grid": asdict(grid),
        "seed": seed,
        "probes": probes,
        "checks": checks,
        "tolerances": {k: tol[k] for k in sorted(tol)},
        "timestamp": None,
    }
    return ResidualReport(meta=meta, checks=results)
