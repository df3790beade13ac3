import contextlib
import dataclasses
import functools
import json
import operator
import random
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mongesol import families, verifier
from mongesol.errors import ConfigError, DomainError
from mongesol.families import (
    FAMILY_TAGS,
    FieldBundle,
    SafeDomain,
    TrivialConfig,
    canonical_config,
    make_family,
    trivial_random_symmetric,
)
from mongesol.functional_eq import SlopeBranch
from mongesol.jets import jet_seed
from mongesol.verifier import (
    DEFAULT_TOLERANCES,
    MAX_POINTS,
    GridEval,
    GridSpec,
    admissible_grid,
    check_compatibility,
    check_dependence,
    check_equation,
    check_wf_relation,
    default_checks,
    reconstruct_u,
    richardson_ratio,
    run_suite,
    sample_points,
    _fine_axis,
    _line_quadrature,
    _path_ok,
)


def _toy_bundle(fields_fn, n=1):
    return FieldBundle(
        family="toy",
        n=n,
        domain=SafeDomain(rect=(-1.0, 1.0, -1.0, 1.0)),
        wf_relation=None,
        mutation_slots=(),
        fields_fn=fields_fn,
    )


def test_dependence_maximally_independent_pair():
    # f = x, W = z: normalized Jacobian is exactly 1
    def fields(x, z, m):
        xj, zj = jet_seed(x, z, m)
        return {"a0": xj, "W": zj, "f": xj}

    res = check_dependence(GridEval(_toy_bundle(fields), GridSpec(-1, 1, -1, 1, nx=7, nz=7)), 1e-9)
    assert res.max_abs == pytest.approx(1.0)
    assert not res.passed


def test_dependence_functionally_dependent_pair():
    # f = x + z, W = 2(x + z): Jacobian vanishes identically
    def fields(x, z, m):
        xj, zj = jet_seed(x, z, m)
        s = xj + zj
        return {"a0": s, "W": 2.0 * s, "f": s}

    res = check_dependence(GridEval(_toy_bundle(fields), GridSpec(-1, 1, -1, 1, nx=7, nz=7)), 1e-9)
    assert res.max_abs <= 1e-15


def test_compatibility_exact_for_polynomial_family():
    cfg = TrivialConfig(n=2, terms=((1.0, (0, 0, 0, 1.0)), (-1.0, (0, 0, 0, 1.0))))
    b = make_family(cfg)
    res = check_compatibility(GridEval(b, GridSpec.for_bundle(b)), 1e-12)
    assert res.passed and res.max_abs <= 1e-12


def test_compatibility_mutation_has_teeth():
    b = make_family(canonical_config("m3_sigma_const"), mutations={"theta": 2.0})
    res = check_compatibility(GridEval(b, GridSpec.for_bundle(b)), 1e-9)
    assert not res.passed
    assert res.max_abs >= 1e-3
    assert res.extra["link_top"] >= 1e-3  # the broken link is the top one


def test_wf_relation_requires_a_tag():
    b = make_family(canonical_config("mn_theta_const"))
    with pytest.raises(ConfigError):
        check_wf_relation(GridEval(b, GridSpec.for_bundle(b)), 1e-9, 1e-6)


def test_wf_quadrature_crosscheck_close():
    b = make_family(canonical_config("m3_theta_const"))
    results = check_wf_relation(GridEval(b, GridSpec.for_bundle(b)), 1e-9, 1e-6)
    byname = {r.name: r for r in results}
    assert byname["wf"].passed
    assert byname["wf_quadrature"].passed
    assert byname["wf_quadrature"].max_abs <= 1e-6


def test_reconstruct_trivial_quadratic_is_exact():
    cfg = TrivialConfig(n=2, terms=((1.0, (0, 0, 1.0)), (-1.0, (0, 0, 1.0))))
    b = make_family(cfg)
    res = reconstruct_u(GridEval(b, GridSpec.for_bundle(b, nx=41, nz=41)), 1e-10)
    assert res.max_abs <= 1e-10


def test_reconstruct_cubic_within_budgetless_tolerance():
    rng = np.random.default_rng(23)
    b = make_family(trivial_random_symmetric(3, 3, rng))
    res = reconstruct_u(GridEval(b, GridSpec.for_bundle(b, nx=101, nz=101)), 1e-6)
    assert res.max_abs <= 1e-6  # cubic data: stencil and trapezoid are exact


def test_richardson_ratio_second_order():
    rng = np.random.default_rng(24)
    b = make_family(trivial_random_symmetric(3, 5, rng))
    ratio, coarse, fine = richardson_ratio(b, GridSpec.for_bundle(b, nx=101, nz=101), 1e-6)
    assert 3.5 <= ratio <= 4.5
    assert fine.max_abs < coarse.max_abs


def test_run_suite_rejects_unknown_names():
    b = make_family(canonical_config("trivial"))
    grid = GridSpec.for_bundle(b)
    with pytest.raises(ConfigError):
        run_suite(b, grid, ["compat", "nonsense"])
    with pytest.raises(ConfigError):
        run_suite(b, grid, ["compat"], tolerances={"nonsense": 1e-3})
    with pytest.raises(ConfigError):
        run_suite(b, grid, ["compat"], tolerances={"compat": -1.0})
    with pytest.raises(ConfigError):
        run_suite(b, grid, ["eq5"])  # no quadruple on this family
    with pytest.raises(ConfigError, match="nonempty"):
        run_suite(b, grid, [])  # no check would pass on no data
    with pytest.raises(ConfigError, match=r"\['compat'\] more than once"):
        run_suite(b, grid, ["compat", "wf", "compat"])  # a report keeps one row per name


def test_run_suite_deterministic_for_fixed_seed():
    for tag, eq in (("m3_sigma_const", "eq5"), ("m3_general", "eq10")):
        b = make_family(canonical_config(tag))
        grid = GridSpec.for_bundle(b)
        r1 = run_suite(b, grid, ["compat", eq], seed=99)
        r2 = run_suite(b, grid, ["compat", eq], seed=99)
        assert r1.to_json_dict() == r2.to_json_dict()
        # the probes are those of random.Random(seed)
        alone = check_equation(b, random.Random(99), 100, DEFAULT_TOLERANCES[eq], eq)
        assert r1.checks[eq] == alone


def test_run_suite_refuses_the_seeds_the_cli_refuses():
    # random.Random would fold -5 onto 5 and take 2.5, and it refuses a NumPy integer
    b = make_family(canonical_config("m3_sigma_const"))
    grid = GridSpec.for_bundle(b, nx=9, nz=9)
    with pytest.raises(ConfigError, match="seed must be a nonnegative integer, got -5"):
        run_suite(b, grid, ["compat", "eq5"], seed=-5, probes=5)
    with pytest.raises(TypeError):
        run_suite(b, grid, ["compat", "eq5"], seed=2.5, probes=5)
    five = run_suite(b, grid, ["compat", "eq5"], seed=5, probes=5)
    numpy_five = run_suite(b, grid, ["compat", "eq5"], seed=np.int64(5), probes=5)
    assert type(numpy_five.meta["seed"]) is int
    assert json.dumps(numpy_five.to_json_dict()) == json.dumps(five.to_json_dict())


@pytest.mark.parametrize("kwargs, message", [
    (dict(tolerances={"compat": True}), "finite number pairs"),
    (dict(tolerances={"compat": "1e-9"}), "finite number pairs"),
    (dict(tolerances={"compat": np.float64(np.nan)}), "finite number pairs"),
    (dict(tolerances="1e-9"), "finite number pairs"),
    (dict(tolerances=False), "finite number pairs"),
    (dict(tolerances=0), "finite number pairs"),
    (dict(tolerances=""), "finite number pairs"),
    (dict(tolerances=[]), "finite number pairs"),
    (dict(probes=0), "at least 1, got 0"),
    (dict(probes=-3), "at least 1, got -3"),
    (dict(probes=True), "must be an integer"),
    (dict(probes=2.5), "must be an integer"),
    (dict(probes="12"), "must be an integer"),
    (dict(probes=MAX_POINTS + 1), f"at most {MAX_POINTS}"),
], ids=["tolerance_bool", "tolerance_str", "tolerance_numpy_nan", "tolerances_str",
        "tolerances_false", "tolerances_zero", "tolerances_empty_str", "tolerances_empty_list",
        "probes_zero", "probes_negative", "probes_bool", "probes_fractional", "probes_str",
        "probes_above_cap"])
def test_run_suite_refuses_the_settings_the_cli_refuses(kwargs, message):
    # as RunConfig.load reads a config: finite real numbers, integral probes, no bool, no str
    b = make_family(canonical_config("m3_sigma_const"))
    with pytest.raises(ConfigError, match=message):
        run_suite(b, GridSpec.for_bundle(b, nx=9, nz=9), ["compat", "eq5"], **kwargs)


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_default_checks_are_the_runnable_grid_and_probe_checks(tag):
    # one table says what each check reads: the defaults are every check but
    # reconstruct that the family can run, in KNOWN_CHECKS order
    b = make_family(canonical_config(tag))
    runnable = []
    for name in verifier.KNOWN_CHECKS:
        with contextlib.suppress(ConfigError):
            verifier._require_runnable(b, name)
            runnable.append(name)
    assert default_checks(b) == [name for name in runnable if name != "reconstruct"]


def test_check_equation_refuses_zero_probes():
    # it would reduce an empty residual before the empty-data guard of its row
    b = make_family(canonical_config("m3_sigma_const"))
    with pytest.raises(ConfigError, match="probes must be at least 1, got 0"):
        check_equation(b, random.Random(0), 0, DEFAULT_TOLERANCES["eq5"], "eq5")


@pytest.mark.parametrize("nx", [21.5, True, "21", np.inf, np.float64(21.5)],
                         ids=["fractional", "bool", "str", "infinite", "numpy_fractional"])
def test_grid_spec_refuses_a_size_that_is_no_integer(nx):
    with pytest.raises(ConfigError, match="grid: malformed field value"):
        GridSpec(0.0, 1.0, 0.0, 1.0, nx=nx)


def test_numpy_settings_give_the_report_of_python_numbers():
    b = make_family(canonical_config("m3_sigma_const"))
    checks = ["compat", "eq5"]
    plain = run_suite(b, GridSpec(*b.domain.rect, nx=9, nz=9), checks,
                      tolerances={"compat": 1e-3, "eq5": 1}, probes=5)
    numpy = run_suite(b, GridSpec(*map(np.float64, b.domain.rect),
                                  nx=np.int64(9), nz=np.int32(9)), checks,
                      tolerances={"compat": np.float64(1e-3), "eq5": np.int64(1)}, probes=np.int64(5))
    assert json.dumps(numpy.to_json_dict()) == json.dumps(plain.to_json_dict())
    assert type(numpy.meta["probes"]) is int and type(numpy.meta["grid"]["nx"]) is int


@pytest.mark.parametrize("make_rng", [random.Random, np.random.default_rng], ids=["random", "numpy"])
def test_sample_points_keeps_the_first_admitted_draws(make_rng):
    # a disc in its square admits about 79% of the draws: the first round of 50 falls short
    disc = SafeDomain(rect=(0.5, 2.5, 0.2, 2.2),
                      predicates=(("disc", lambda x, z: 1 - (x - 1.5) ** 2 - (z - 1.2) ** 2),))
    x_lo, x_hi, z_lo, z_hi = disc.rect
    rng = make_rng(8)
    xs, zs = [], []
    while len(xs) < 50:
        ux = [rng.random() for _ in range(50)]  # the x batch, then the z batch
        uz = [rng.random() for _ in range(50)]
        for u, w in zip(ux, uz):
            x, z = x_lo + (x_hi - x_lo) * u, z_lo + (z_hi - z_lo) * w
            if 1 - (x - 1.5) ** 2 - (z - 1.2) ** 2 > 0 and len(xs) < 50:
                xs.append(x)
                zs.append(z)
    x, z = sample_points(types.SimpleNamespace(domain=disc), make_rng(8), 50)
    assert x.tolist() == xs and z.tolist() == zs


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_shared_grid_checks_equal_checks_run_alone(tag):
    b = make_family(canonical_config(tag))
    grid = GridSpec.for_bundle(b, nx=21, nz=21)
    checks = default_checks(b) + (["reconstruct"] if b.n <= 4 else [])
    together = run_suite(b, grid, checks, seed=5).to_json_dict()["checks"]
    alone = {}
    for name in checks:
        alone.update(run_suite(b, grid, [name], seed=5).to_json_dict()["checks"])
    assert alone == together


def test_run_suite_evaluates_the_grid_once():
    b = make_family(canonical_config("m3_sigma_const"))
    calls = []
    fields_fn = b.fields_fn
    b.fields_fn = lambda x, z, m: calls.append(m) or fields_fn(x, z, m)
    grid = GridSpec.for_bundle(b)
    run_suite(b, grid, ["eq5"])
    assert calls == []
    run_suite(b, grid, ["compat", "dependence", "wf", "eq5"])
    assert calls == [1]  # no check reads a second partial
    calls.clear()
    run_suite(b, grid, ["compat", "dependence", "wf", "eq5", "reconstruct"])
    # reconstruct reads the grid's second partials; then the W(f) slide
    # evaluates its own Newton iterates at order 1
    assert calls[0] == 2 and calls[1:] == [1] * (len(calls) - 1)


def test_reconstruct_alone_needs_a_fully_admissible_rectangle():
    b = make_family(canonical_config("m3_general"))
    x_lo, x_hi, z_lo, z_hi = b.domain.rect
    grid = GridSpec(x_lo - 2.0, x_hi, z_lo, z_hi)
    assert admissible_grid(b, grid)[0].size < grid.nx * grid.nz
    with pytest.raises(DomainError, match="fully admissible rectangle"):
        run_suite(b, grid, ["reconstruct"])
    # fewer than 10 admitted points: admissible_grid's own error
    with pytest.raises(DomainError, match="safe domain exhausted"):
        run_suite(b, GridSpec(2.2, 2.4, 3.0, 4.0, nx=5, nz=5), ["reconstruct"])


def test_admissible_grid_exhaustion():
    b = make_family(canonical_config("m3_general"))
    # far-field strip where the log-center predicate excludes everything
    with pytest.raises(DomainError):
        admissible_grid(b, GridSpec(2.2, 2.4, 3.0, 4.0, nx=5, nz=5))


def test_grid_validation():
    with pytest.raises(ConfigError):
        GridSpec(0, 1, 0, 1, nx=3, nz=7)
    # the point cap holds on construction, for a library grid as for a config's
    with pytest.raises(ConfigError, match=f"the grid has {MAX_POINTS // 5 + 1}x5 points"):
        GridSpec(0, 1, 0, 1, nx=MAX_POINTS // 5 + 1, nz=5)
    with pytest.raises(ConfigError) as info:
        GridSpec(0, 1, 0, 1, nx=1025, nz=1025)
    assert str(info.value) == f"the grid has 1025x1025 points, more than {MAX_POINTS}"
    assert GridSpec(0, 1, 0, 1, nx=MAX_POINTS // 5, nz=5).nz == 5


def test_richardson_ratio_caps_its_finer_grid_up_front(monkeypatch):
    b = make_family(canonical_config("trivial"))
    grid = GridSpec.for_bundle(b, nx=1024, nz=1023)  # just under the cap
    monkeypatch.setattr(verifier, "reconstruct_u", lambda *a: pytest.fail("a grid was evaluated"))
    with pytest.raises(ConfigError, match="the grid has 2047x2045 points, more than"):
        richardson_ratio(b, grid, 1e-6)


def _path_ok_loop(ok, row_ok, col_ok, i0, j0):
    """The per-node loop ``_path_ok`` replaces, quirks included."""
    path_ok = np.zeros_like(ok)
    for i in range(ok.shape[0]):
        ri = row_ok[min(i, i0):max(i, i0) + 1] if i != i0 else np.array([True])
        if not np.all(ri):
            continue
        for j in range(ok.shape[1]):
            cj = col_ok[i, min(j, j0):max(j, j0) + 1] if j != j0 else np.array([True])
            if ok[i, j] and np.all(cj):
                path_ok[i, j] = True
    return path_ok


@st.composite
def _path_masks(draw):
    nx, nz = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    bits = lambda n: np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return (bits(nx * nz).reshape(nx, nz), bits(nx), bits(nx * nz).reshape(nx, nz),
            draw(st.integers(0, nx - 1)), draw(st.integers(0, nz - 1)))


@settings(max_examples=200, deadline=None)
@given(_path_masks())
def test_path_ok_equals_the_loop(masks):
    path_ok = _path_ok(*masks)
    assert np.array_equal(path_ok, _path_ok_loop(*masks))
    # the cross-check's reference node is admitted, so it always has its empty path
    ok, _, _, i0, j0 = masks
    assert path_ok[i0, j0] or not ok[i0, j0]


def _simpson_weights(refine):
    w = np.ones(refine + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return w / 3.0


def _row_quadrature_before(bundle, xs, z0, refine, i0):
    """The row routines ``_line_quadrature`` replaced (forms, then Simpson sums), as they were."""
    fine = _fine_axis(xs, refine)
    zz = np.full_like(fine, z0)
    okf = bundle.domain.mask(fine, zz)
    with np.errstate(all="ignore"):
        forms = bundle.derivative_forms(fine, zz)
    f_x = np.where(okf, forms["f_x"], 0.0)
    w_x = np.where(okf, forms["W_x"], 0.0)
    row_ok = np.ones(len(xs), dtype=bool)
    row_ok[:-1] &= np.all(okf, axis=1)
    row_ok[1:] &= np.all(okf, axis=1)
    h = np.diff(xs) / refine
    w = _simpson_weights(refine)
    cf = np.concatenate([[0.0], np.cumsum(np.sum(f_x * w, axis=1) * h)])
    cw = np.concatenate([[0.0], np.cumsum(np.sum(w_x * w, axis=1) * h)])
    return cf - cf[i0], cw - cw[i0], row_ok


def _col_quadrature_before(bundle, xs, zs, refine, j0):
    """The column routines ``_line_quadrature`` replaced, as they were, but on
    materialized (nx, nz-1, refine+1) point arrays."""
    fine = _fine_axis(zs, refine)
    xg = xs[:, None, None] + 0.0 * fine[None, :, :]
    zg = np.broadcast_to(fine[None, :, :], xg.shape)
    okf = bundle.domain.mask(xg, zg)
    with np.errstate(all="ignore"):
        forms = bundle.derivative_forms(xg, zg)
    f_z = np.where(okf, forms["f_z"], 0.0)
    w_z = np.where(okf, forms["W_z"], 0.0)
    col_ok = np.ones((len(xs), len(zs)), dtype=bool)
    col_ok[:, :-1] &= np.all(okf, axis=2)
    col_ok[:, 1:] &= np.all(okf, axis=2)
    h = np.diff(zs) / refine
    w = _simpson_weights(refine)
    cf = np.concatenate([np.zeros((f_z.shape[0], 1)),
                         np.cumsum(np.sum(f_z * w, axis=2) * h, axis=1)], axis=1)
    cw = np.concatenate([np.zeros((w_z.shape[0], 1)),
                         np.cumsum(np.sum(w_z * w, axis=2) * h, axis=1)], axis=1)
    return cf - cf[:, j0:j0 + 1], cw - cw[:, j0:j0 + 1], col_ok


_FORM_TAGS = [t for t in FAMILY_TAGS if make_family(canonical_config(t)).derivative_forms]


@pytest.mark.parametrize("tag", _FORM_TAGS)
@pytest.mark.parametrize("n", [21, 81])
def test_broadcast_column_forms_are_bitwise_materialized(tag, n):
    # the line quadrature, called as _quadrature_crosscheck calls it (rows on
    # materialized points, columns on a broadcast (nx, 1, 1) x), is bitwise the
    # row and column routines it replaced, the columns taken on materialized points
    # the rectangle widened by half its size on each side also crosses the
    # domain's edges, where the masked cells and the admissibility count
    b = make_family(canonical_config(tag))
    x_lo, x_hi, z_lo, z_hi = b.domain.rect
    dx, dz = (x_hi - x_lo) / 2, (z_hi - z_lo) / 2
    wide = GridSpec(x_lo - dx, x_hi + dx, z_lo - dz, z_hi + dz, nx=n, nz=n)
    edges = 0
    for xs, zs in (GridSpec.for_bundle(b, nx=n, nz=n).axes(), wide.axes()):
        fine_x, fine_z = _fine_axis(xs, 32), _fine_axis(zs, 32)
        for i0, j0 in ((n // 2, n // 2), (0, n - 1), (n - 1, 3)):
            with np.errstate(all="ignore"):  # predicates off the domain
                sums, row_ok = _line_quadrature(b, fine_x, np.full_like(fine_x, zs[j0]), xs, 32,
                                                i0, ("f_x", "W_x"))
                want = _row_quadrature_before(b, xs, zs[j0], 32, i0)
                cols, col_ok = _line_quadrature(b, xs[:, None, None] + 0.0, fine_z[None, :, :],
                                                zs, 32, j0, ("f_z", "W_z"))
                want += _col_quadrature_before(b, xs, zs, 32, j0)
            edges += np.count_nonzero(~col_ok)
            for g, w in zip((*sums, row_ok, *cols, col_ok), want):
                assert g.shape == w.shape and g.dtype == w.dtype
                assert g.tobytes() == w.tobytes(), (i0, j0)
    assert edges > 0


def _eager_forms(tag, b, x, z):
    """The four derivative forms as one dict, each by its formula on arrays."""
    x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
    q = b.quadruple
    if q is not None:
        s, t, p, qd = q.values(x, z)
        return {"f_x": q.nu.combine(q.n - 1, p, qd), "f_z": q.nu.combine(q.n, p, qd) + t,
                "W_x": q.nu.combine(-1, p, qd) + s, "W_z": q.nu.combine(0, p, qd)}
    g = b.general_quadruple
    if g.branch1 is None:  # one slope root, -x/z, beside the constant slope 1
        branches, denoms = [g.branch2], [lambda x, z: -z]
    else:
        branches, denoms = [g.branch1, g.branch2], [r.denom for r in families._QUADRATIC_ROOTS]
    s = [br.seed(x, z) for br in branches]
    p = [br.cprime(si) / d(x, z) for br, d, si in zip(branches, denoms, s)]
    total = lambda terms: functools.reduce(operator.add, terms)
    f_z = total(si ** 3 * pi for si, pi in zip(s, p))
    return {"f_x": total(si ** 2 * pi for si, pi in zip(s, p)),
            "f_z": f_z if tag == "m3_general_e0" else f_z + g.theta_z(z),
            "W_x": total(pi / si for si, pi in zip(s, p)) + g.sigma_x(x),
            "W_z": total(p)}


@pytest.mark.parametrize("tag", _FORM_TAGS)
def test_lazy_forms_equal_the_eager_formulas(tag):
    # derivative_forms builds each form on its first read; read alone or after
    # the others, on grid points or on broadcast column points, a form is the
    # bytes of its formula
    b = make_family(canonical_config(tag))
    grid = GridSpec.for_bundle(b)
    xs, zs = grid.axes()
    for x, z in (admissible_grid(b, grid), (xs[:, None, None] + 0.0, _fine_axis(zs, 32)[None])):
        with np.errstate(all="ignore"):  # column points off the domain
            want = _eager_forms(tag, b, x, z)
            together = b.derivative_forms(x, z)
            for key in reversed(want):
                for got in (b.derivative_forms(x, z)[key], together[key]):
                    assert got.dtype == want[key].dtype and got.shape == want[key].shape
                    assert got.tobytes() == want[key].tobytes(), key
        assert sorted(together) == sorted(want)


@pytest.mark.parametrize("tag", _FORM_TAGS)
def test_crosscheck_builds_only_the_forms_each_line_reads(tag):
    # the row line reads f_x and W_x, each column block f_z and W_z; the
    # forms a line does not read are never built
    b = make_family(canonical_config(tag))
    made = []
    forms = b.derivative_forms
    b.derivative_forms = lambda x, z: made.append((np.ndim(x), forms(x, z))) or made[-1][1]
    verifier._quadrature_crosscheck(GridEval(b, GridSpec.for_bundle(b, nx=81, nz=81), 1), 1e-6)
    built = [(ndim, sorted(k for k, v in f._entries.items() if not callable(v)))
             for ndim, f in made]
    assert built == [(2, ["W_x", "f_x"])] + [(3, ["W_z", "f_z"])] * 7


@pytest.mark.parametrize("tag", _FORM_TAGS)
@pytest.mark.parametrize("n, cols", [(21, [21]), (81, [12] * 6 + [9]), (161, [6] * 26 + [5])])
def test_column_blocks_are_bitwise_one_block(tag, n, cols, monkeypatch):
    # the column quadrature of _quadrature_crosscheck runs on blocks of
    # _BLOCK // (fine points of a column) columns; each form, mask and Simpson
    # sum is per fine point or per (column, cell), so the residuals of every
    # grid point equal those of one block holding all columns (81: the last
    # block is partial)
    b = make_family(canonical_config(tag))
    ev = GridEval(b, GridSpec.for_bundle(b, nx=n, nz=n))
    resids, blocks = [], []
    result, line = verifier._result, verifier._line_quadrature
    monkeypatch.setattr(verifier, "_result",
                        lambda name, resid, *a, **kw: resids.append(resid) or result(name, resid, *a, **kw))
    monkeypatch.setattr(verifier, "_line_quadrature",
                        lambda bundle, x, *a: (x.ndim == 3 and blocks.append(x.shape[0]))
                        or line(bundle, x, *a))
    blocked = verifier._quadrature_crosscheck(ev, 1e-6)
    assert blocks == cols
    monkeypatch.setattr(verifier, "_BLOCK", 10 ** 9)
    whole = verifier._quadrature_crosscheck(ev, 1e-6)
    assert blocks[len(cols):] == [n]
    assert blocked == whole
    assert resids[0].dtype == resids[1].dtype and resids[0].tobytes() == resids[1].tobytes()


def test_crosscheck_peak_memory_is_a_few_grid_arrays():
    # the column blocks bound the check's temporaries: 22 grid arrays of
    # float64 at 161x161, against about 307 for all columns at once
    b = make_family(canonical_config("m3_general"))
    ev = GridEval(b, GridSpec.for_bundle(b, nx=161, nz=161))
    ev.fields  # the shared jets are not the check's own
    tracemalloc.start()
    try:
        verifier._quadrature_crosscheck(ev, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 161 * 161 * 8


@pytest.mark.parametrize("tag", [t for t in FAMILY_TAGS
                                 if make_family(canonical_config(t)).w_value_fn is None])
@pytest.mark.parametrize("h", [None, 1e-2])
def test_seeded_w_of_f_gives_the_same_report(tag, h):
    # reconstruct seeds the W(f) slide with the shared jets at the interior
    # nodes; the slide then evaluates one field set less, with the same bytes.
    # h: the grid of that spacing on the family's rectangle, else 21x21
    b = make_family(canonical_config(tag))
    x_lo, x_hi, z_lo, z_hi = b.domain.rect
    grid = GridSpec.for_bundle(b) if h is None else GridSpec.for_bundle(
        b, nx=round((x_hi - x_lo) / h) + 1, nz=round((z_hi - z_lo) / h) + 1)
    orders = []
    fields_fn, w_of_f = b.fields_fn, b.w_of_f
    b.fields_fn = lambda x, z, m: orders.append(m) or fields_fn(x, z, m)
    seeded = json.dumps(run_suite(b, grid, ["reconstruct"], seed=5).to_json_dict())
    slides = orders.count(1)
    b.w_of_f = lambda t, x, z, jets: w_of_f(t, x, z)
    unseeded = json.dumps(run_suite(b, grid, ["reconstruct"], seed=5).to_json_dict())
    assert orders.count(1) - slides == slides + 1
    assert seeded == unseeded


def test_eq10_solves_each_slope_branch_once(monkeypatch):
    # check_equation reads the residual and its relative form from one pass,
    # through the module global that perfbench wraps
    b = make_family(canonical_config("m3_general"))
    calls = []
    resolve = SlopeBranch.resolve
    monkeypatch.setattr(SlopeBranch, "resolve",
                        lambda self, x, z: calls.append(x.size) or resolve(self, x, z))
    residual = verifier.variable_slope_residual
    monkeypatch.setattr(verifier, "variable_slope_residual",
                        lambda *a: calls.append("residual") or residual(*a))
    res = verifier.check_equation(b, np.random.default_rng(3), 20, 1e-9, "eq10")
    assert calls == ["residual", 20, 20]
    assert res.passed and 0 < res.extra["max_rel"] <= 1e-9


_NOWHERE = SafeDomain(rect=(-1.0, 1.0, -1.0, 1.0), predicates=(
    ("nowhere", lambda x, z: np.full(np.broadcast_shapes(np.shape(x), np.shape(z)), -1.0)),))


@pytest.mark.parametrize("call, error, message", [
    (lambda: verifier._result("compat", np.array([]), np.array([]), np.array([]), 1e-9),
     DomainError, "check 'compat': no admissible points to evaluate"),
    (lambda: check_equation(_toy_bundle(None), random.Random(1), 5, 1e-9, "eq7"),
     ConfigError, "unknown equation check 'eq7'"),
    (lambda: sample_points(types.SimpleNamespace(domain=_NOWHERE), random.Random(1), 3),
     DomainError, "could not sample 3 safe points (domain too thin)"),
    (lambda: verifier._real_field(np.array([1.0, 1.0 + 1e-3j]), "W(f)"),
     DomainError, "reconstruction needs real fields; W(f) has a large imaginary part"),
], ids=["check_on_no_points", "unknown_equation_check", "domain_too_thin", "complex_field"])
def test_a_refused_verification_step_raises_its_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


# -- known false verdicts: each test pins today's failing checks exactly, and its
# docstring names the ROADMAP item whose fix should flip it


def _failing_checks(cfg, n):
    """The default checks that fail on the family's ``n`` x ``n`` grid, with their max_abs."""
    b = make_family(cfg)
    report = run_suite(b, GridSpec.for_bundle(b, nx=n, nz=n), default_checks(b))
    return {name: res.max_abs for name, res in report.checks.items() if not res.passed}


@pytest.mark.parametrize("n, max_abs", [(21, 6.19e-2), (81, 6.16e-4)])
def test_known_false_failure_of_m3_l1_const_off_canonical(n, max_abs):
    """``m3_l1_const`` at nu = (1.1, 2.3) passes every identity check, but the Simpson
    cross-check of W(f) fails.  ROADMAP item 5 (one Gauss rule) should flip it."""
    failing = _failing_checks(families.L1ConstConfig(nu=(1.1, 2.3)), n)
    assert set(failing) == {"wf_quadrature"}
    assert failing["wf_quadrature"] == pytest.approx(max_abs, rel=1e-2)


def test_known_false_failure_of_m3_general_quadrature():
    """``m3_general`` at g = -1.625 on 21x21: only the Simpson cross-check of W(f)
    fails.  ROADMAP item 5 (one Gauss rule) should flip it."""
    failing = _failing_checks(families.GeneralNuConfig(g=-1.625), 21)
    assert set(failing) == {"wf_quadrature"}
    assert failing["wf_quadrature"] == pytest.approx(5.33e-5, rel=1e-2)


@pytest.mark.parametrize("g, max_abs", [(-1.5, 1.47e-9), (-1.625, 1.85e-8), (-2.0, 2.82e-8)])
def test_known_false_failure_of_m3_general_compat(g, max_abs):
    """``m3_general`` on 81x81: only compat fails, on its absolute residual.  ROADMAP
    item 8 (compat on the relative residual) should flip it."""
    failing = _failing_checks(families.GeneralNuConfig(g=g), 81)
    assert set(failing) == {"compat"}
    assert failing["compat"] == pytest.approx(max_abs, rel=1e-2)


@pytest.mark.parametrize("n", [6, 8, 12])
def test_known_false_failure_of_mn_theta_const_at_high_degree(n):
    """``mn_theta_const`` on 21x21: compat and dependence fail at n = 6 and 8, and
    n = 12 overflows a parameter, since p1 = k nu2 box_{n-1} grows like 2^n.  ROADMAP
    item 3 (a rate that scales with the degree) should flip it."""
    cfg = dataclasses.replace(canonical_config("mn_theta_const"), n=n)
    if n == 12:
        with pytest.raises(ConfigError, match="a parameter overflows"):
            make_family(cfg)
    else:
        assert set(_failing_checks(cfg, 21)) == {"compat", "dependence"}
