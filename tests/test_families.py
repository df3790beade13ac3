import contextlib
import dataclasses
import importlib
import importlib.util
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mongesol.errors import BranchCutError, ConfigError, ConvergenceError, DomainError, FoldError
from mongesol.families import (
    FAMILY_TAGS,
    MAX_DEGREE,
    EPS,
    DegenerateConfig,
    FieldBundle,
    SafeDomain,
    GeneralNuConfig,
    GeneralNuE0Config,
    HodographExampleConfig,
    L1ConstConfig,
    M1ImplicitConfig,
    NThetaConstConfig,
    SigmaConstConfig,
    ThetaConstConfig,
    TrivialConfig,
    canonical_config,
    family_from_dict,
    family_to_dict,
    make_family,
    trivial_random_symmetric,
    _GAUSS_W,
    _GAUSS_X,
    _Primitive,
)
import mongesol
from mongesol import cli, families
from mongesol.jets import Jet2, jet_partial, jet_seed, jpow, jsqrt, poly_jet
from mongesol.verifier import GridEval, GridSpec, admissible_grid, sample_points


def _load_script(name):
    """``scripts/<name>.py`` as a module; its ``main`` does not run."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the digest script's job tables, read from its one copy
_DIGESTS = _load_script("output_digests")


# -- polynomial superposition family -----------------------------------------


def test_trivial_quadratic_constants():
    cfg = TrivialConfig(n=2, terms=((1.0, (0, 0, 1.0)), (-1.0, (0, 0, 1.0))))
    b = make_family(cfg)
    x = np.linspace(-0.5, 0.5, 9)
    z = np.linspace(-0.5, 0.5, 9)
    fl = b.fields_fn(x, z, 2)
    assert np.allclose(fl["a0"].value.real, 4.0, atol=1e-13)
    assert np.allclose(fl["W"].value.real, fl["a0"].value.real, atol=1e-13)


def test_trivial_top_field_equals_bottom_any_degree():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4):
        b = make_family(trivial_random_symmetric(n, 4, rng))
        x, z = sample_points(b, rng, 20)
        fl = b.fields_fn(x, z, 2)
        scale = max(1.0, float(np.max(np.abs(fl["a0"].value))))
        assert np.max(np.abs(fl["W"].value - fl["a0"].value)) <= 1e-12 * scale


def test_trivial_conjugate_symmetry_gives_real_fields():
    rng = np.random.default_rng(5)
    b = make_family(trivial_random_symmetric(3, 3, rng))
    fl = b.fields_fn(np.array([1.0]), np.array([0.0]), 2)
    for key in ("a0", "a1", "a2", "W"):
        assert np.max(np.abs(fl[key].value.imag)) <= 1e-12


def test_trivial_rejects_bad_slopes():
    with pytest.raises(ConfigError):
        TrivialConfig(n=3, terms=((2.0, (0, 1.0)),))


def test_canonical_trivial_runs_on_real_planes():
    # real roots and weights keep the jets real, with the bits of a complex build's real parts
    cfg = canonical_config("trivial")
    as_complex = TrivialConfig(n=cfg.n, terms=tuple(
        (complex(lam), tuple(map(complex, coeffs))) for lam, coeffs in cfg.terms))
    real, ref = make_family(cfg), make_family(as_complex)
    x, z = admissible_grid(real, GridSpec.for_bundle(real, nx=9, nz=9))
    for m in (0, 1, 2):
        got, want = real.fields_fn(x, z, m), ref.fields_fn(x, z, m)
        for name in got:
            assert got[name].c.dtype == np.float64, (m, name)
            assert got[name].c.tobytes() == np.ascontiguousarray(want[name].c.real).tobytes()
    # complex roots keep complex jets
    fl = make_family(family_from_dict(_DIGESTS.COMPLEX_TRIVIAL)).fields_fn(x, z, 1)
    assert all(np.iscomplexobj(jet.c) for jet in fl.values())


def test_degree_is_capped_before_any_field_is_built():
    # configs only: the cap is checked when the config is made, so nothing is built
    assert TrivialConfig(n=MAX_DEGREE, terms=((1.0, (0, 1.0)),)).n == MAX_DEGREE
    assert NThetaConstConfig(n=MAX_DEGREE, nu=(1.0, 2.0)).n == MAX_DEGREE
    for n in (MAX_DEGREE + 1, 10 ** 6):
        with pytest.raises(ConfigError, match=f"at most {MAX_DEGREE}"):
            TrivialConfig(n=n, terms=((1.0, (0, 1.0)),))
        with pytest.raises(ConfigError, match=f"at most {MAX_DEGREE}"):
            NThetaConstConfig(n=n, nu=(1.0, 2.0))


# -- degree-1 implicit family -------------------------------------------------


def test_m1_zero_rhs_slope_field():
    b = make_family(M1ImplicitConfig(F=(0.0,), seed_lambda=-1.0,
                                     rect=(1.5, 2.5, 0.5, 1.5)))
    fl = b.fields_fn(np.array([2.0]), np.array([1.0]), 2)
    assert fl["a0"].value[0] == pytest.approx(-2.0, abs=1e-10)


def test_m1_classical_slope_equation():
    b = make_family(canonical_config("m1_implicit"))
    rng = np.random.default_rng(6)
    x, z = sample_points(b, rng, 50)
    fl = b.fields_fn(x, z, 2)
    lam = fl["a0"]
    resid = jet_partial(lam, 0, 1) - lam.value * jet_partial(lam, 1, 0)
    assert np.max(np.abs(resid)) <= 1e-8


# -- degenerate degree-2 family -----------------------------------------------


def test_degenerate_identity_maps():
    cfg = DegenerateConfig(C=(0.0, 1.0), G=(0.0, 1.0), seed_a=1.0,
                           rect=(0.2, 1.0, 0.1, 0.5))
    b = make_family(cfg)
    x = np.linspace(0.3, 0.9, 5)
    z = np.linspace(0.1, 0.4, 5)
    fl = b.fields_fn(x, z, 2)
    # implicit scalar is x + z; both first derivatives are 1
    assert np.allclose(fl["W"].value, x + z, atol=1e-10)
    assert np.allclose(jet_partial(fl["W"], 1, 0), 1.0, atol=1e-10)
    assert np.allclose(jet_partial(fl["W"], 0, 1), 1.0, atol=1e-10)


@pytest.mark.parametrize("c_coeffs", [(0.0, 1.0), (0.0, 0.0, 1.0)])
def test_degenerate_characteristic_slope(c_coeffs):
    cfg = DegenerateConfig(C=c_coeffs, G=(0.0, 1.0), seed_a=2.0,
                           rect=(2.0, 4.0, 0.1, 0.6))
    b = make_family(cfg)
    rng = np.random.default_rng(7)
    x, z = sample_points(b, rng, 40)
    fl = b.fields_fn(x, z, 2)
    a = fl["W"]
    cprime = np.polyder(np.poly1d(list(reversed(c_coeffs))))
    resid = jet_partial(a, 0, 1) - np.sqrt(cprime(a.value)) * jet_partial(a, 1, 0)
    assert np.max(np.abs(resid)) <= 1e-8


# -- quadruple families -------------------------------------------------------


def test_sigma_const_quadruple_values():
    b = make_family(canonical_config("m3_sigma_const"))
    rng = np.random.default_rng(8)
    x, z = sample_points(b, rng, 20)
    b.domain.require(x, z)
    sx, tz, p, qd = b.quadruple.values(x, z)
    assert np.all(sx == b.config.A)  # constant by construction
    assert np.all(np.isfinite(tz)) and np.all(np.isfinite(p)) and np.all(np.isfinite(qd))


def test_l1_const_quadruple_values():
    b = make_family(canonical_config("m3_l1_const"))
    rng = np.random.default_rng(9)
    x, z = sample_points(b, rng, 20)
    b.domain.require(x, z)
    _, _, p, _ = b.quadruple.values(x, z)
    assert np.all(p == b.config.D)


def test_theta_const_quadruple_values():
    b = make_family(canonical_config("m3_theta_const"))
    rng = np.random.default_rng(10)
    x, z = sample_points(b, rng, 20)
    b.domain.require(x, z)
    _, tz, _, _ = b.quadruple.values(x, z)
    assert np.all(tz == b.config.E)


def test_quadruple_error_on_families_without_one():
    for tag in ("trivial", "m1_implicit", "degenerate", "m3_general"):
        assert make_family(canonical_config(tag)).quadruple is None


@pytest.mark.parametrize("tag", ["m3_sigma_const", "m3_l1_const", "m3_theta_const",
                                 "mn_theta_const", "m3_hodograph_example", "m3_general",
                                 "m3_general_e0"])
def test_derivative_forms_match_field_jets(tag):
    # the antiderivative route (fields) and the derivative route agree exactly
    b = make_family(canonical_config(tag))
    rng = np.random.default_rng(11)
    x, z = sample_points(b, rng, 25)
    fl = b.fields_fn(x, z, 2)
    df = b.derivative_forms(x, z)
    scale = max(1.0, float(np.max(np.abs(df["f_z"]))))
    assert np.max(np.abs(df["f_x"] - jet_partial(fl["f"], 1, 0))) <= 1e-11 * scale
    assert np.max(np.abs(df["f_z"] - jet_partial(fl["f"], 0, 1))) <= 1e-11 * scale
    assert np.max(np.abs(df["W_x"] - jet_partial(fl["W"], 1, 0))) <= 1e-11 * scale
    assert np.max(np.abs(df["W_z"] - jet_partial(fl["W"], 0, 1))) <= 1e-11 * scale


# a second config of each constant-slope family: other slopes and amplitudes,
# nonzero phase offsets (a shifted sigma and theta) and another degree
_OFF_CANONICAL = {family["family"]: family for family in _DIGESTS.OFF_CANONICAL}
_LINE_PREDICATES = {
    "m3_sigma_const": ("line1_log_arg", "line2_log_arg", "theta_log_arg"),
    "m3_l1_const": ("line2_log_arg", "theta_log_arg", "sigma_log_arg", "chain_log_arg"),
    "m3_theta_const": ("line1_log_arg", "line2_log_arg", "sigma_log_arg", "bottom_gradient"),
    "mn_theta_const": ("line1_log_arg", "line2_log_arg", "sigma_log_arg"),
}
_ROW_PREDICATES = ("line1_log_arg", "line2_log_arg", "theta_log_arg", "sigma_log_arg")


@pytest.mark.parametrize("spread", [2, 8])
@pytest.mark.parametrize("config", ["canonical", "off_canonical"])
@pytest.mark.parametrize("tag", list(_LINE_PREDICATES))
def test_line_family_row_predicates_guard_every_log(tag, config, spread):
    # a row's predicate is its log argument less EPS: seeded points in a rectangle
    # `spread` times the family's hit a log branch cut exactly where a row predicate
    # reads an argument <= 0, and every point the mask admits evaluates
    cfg = (canonical_config(tag) if config == "canonical"
           else family_from_dict(_OFF_CANONICAL[tag]))
    b = make_family(cfg)
    assert tuple(name for name, _ in b.domain.predicates) == _LINE_PREDICATES[tag]
    x_lo, x_hi, z_lo, z_hi = b.domain.rect
    rng = np.random.default_rng(27)
    half_x, half_z = spread * (x_hi - x_lo) / 2, spread * (z_hi - z_lo) / 2
    x = rng.uniform((x_lo + x_hi) / 2 - half_x, (x_lo + x_hi) / 2 + half_x, 200)
    z = rng.uniform((z_lo + z_hi) / 2 - half_z, (z_lo + z_hi) / 2 + half_z, 200)
    ok = b.domain.mask(x, z)
    assert ok.any()
    b.fields_fn(x[ok], z[ok], 0)  # no BranchCutError
    cut = np.zeros(x.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for i in np.flatnonzero(~ok):
            try:
                b.fields_fn(x[i:i + 1], z[i:i + 1], 0)
            except BranchCutError:
                cut[i] = True
        row_cut = np.zeros(x.shape, dtype=bool)
        for name, pred in b.domain.predicates:
            if name in _ROW_PREDICATES:
                row_cut |= np.asarray(pred(x, z)) <= -EPS
    assert np.array_equal(cut, row_cut)
    assert cut.any() or spread == 2


def test_wf_relations_hold_pointwise():
    rng = np.random.default_rng(12)
    for tag in ("trivial", "m3_sigma_const", "m3_l1_const", "m3_theta_const",
                "m3_hodograph_example", "m3_general", "m3_general_e0"):
        b = make_family(canonical_config(tag))
        x, z = sample_points(b, rng, 30)
        fl = b.fields_fn(x, z, 2)
        resid = b.wf_residual(fl["W"].value, fl["f"].value)
        assert np.max(np.abs(resid)) <= 1e-9, tag


def test_hodograph_example_relation_spotcheck():
    # k=1, alpha=1, beta=2: exp(3W) + exp(-3f) = 2
    b = make_family(HodographExampleConfig(k=1.0, alpha=1.0, beta=2.0))
    rng = np.random.default_rng(13)
    x, z = sample_points(b, rng, 30)
    fl = b.fields_fn(x, z, 2)
    lhs = np.exp(3 * fl["W"].value) + np.exp(-3 * fl["f"].value)
    assert np.max(np.abs(lhs - 2.0)) <= 1e-9


def test_general_cosh_relation_spotcheck():
    b = make_family(GeneralNuConfig(g=-1.0))
    rng = np.random.default_rng(14)
    x, z = sample_points(b, rng, 100)
    fl = b.fields_fn(x, z, 2)
    lhs = np.exp(2 * (-1.0) * fl["W"].value) * np.cosh(fl["f"].value) ** 2
    assert np.max(np.abs(lhs - 1.0)) <= 1e-9


# -- validation / plumbing ----------------------------------------------------


def test_invalid_parameters_are_config_errors():
    with pytest.raises(ConfigError):
        make_family(SigmaConstConfig(nu=(1.0, 1.0)))
    with pytest.raises(ConfigError):
        make_family(SigmaConstConfig(nu=(1.0, 2.0), A=0.0))
    with pytest.raises(ConfigError):
        GeneralNuConfig(g=0.0)
    with pytest.raises(ConfigError):
        GeneralNuE0Config(alpha1=1.0, alpha2=1.0)
    with pytest.raises(ConfigError):
        family_from_dict({"family": "m3_general_e0", "c": 5.0})  # c = a*alpha1*alpha2 is no field


def test_mutation_slots_validate():
    cfg = canonical_config("m3_sigma_const")
    b = make_family(cfg)
    with pytest.raises(ConfigError, match=r"choose from \('sigma', 'theta', 'l1', 'l2'\)"):
        make_family(cfg, mutations={"bogus": 1.1})
    same = make_family(cfg, mutations={"theta": 1.0})
    rng = np.random.default_rng(15)
    x, z = sample_points(b, rng, 10)
    f0, f1 = b.fields_fn(x, z, 2), same.fields_fn(x, z, 2)
    assert np.max(np.abs(f0["f"].value - f1["f"].value)) == 0.0


@pytest.mark.parametrize("tag, params", [
    ("m3_sigma_const", {"k": 1000}),
    ("m3_sigma_const", {"d2": 1000}),
    ("mn_theta_const", {"n": 60}),
    ("mn_theta_const", {"k": 1000}),
], ids=["sigma_k", "sigma_d2", "n_theta_n", "n_theta_k"])
def test_a_builder_overflow_is_a_config_error(tag, params):
    # the builder's math.exp overflows; every error the package raises is a MongesolError
    cfg = family_from_dict({**family_to_dict(canonical_config(tag)), **params})
    with pytest.raises(ConfigError, match=rf"family '{tag}': .*\(math range error\)"):
        make_family(cfg)


def test_make_family_stamps_tag_config_and_mutations():
    for tag in FAMILY_TAGS:
        cfg = canonical_config(tag)
        for mutations in (None, {}, {slot: 1.1 for slot in make_family(cfg).mutation_slots}):
            b = make_family(cfg, mutations)
            assert b.family == cfg.tag and b.config is cfg
            assert b.mutations == (mutations or {}) and b.mutations is not mutations


def test_out_of_domain_evaluation_raises():
    b = make_family(canonical_config("m3_hodograph_example"))
    with pytest.raises(DomainError, match="'slope_positive' violated at 1 point"):
        b.domain.require(np.array([1.0]), np.array([1.0]))  # slope -x/z < 0
    # every order from 0 is accepted: order 1 is the order-1 truncation of order 2
    x, z = np.array([-2.0]), np.array([1.0])
    b.domain.require(x, z)
    one, two = b.fields_fn(x, z, 1), b.fields_fn(x, z, 2)
    assert list(one) == list(two)
    for name in two:
        assert one[name].m == 1
        for i, j in ((0, 0), (1, 0), (0, 1)):
            assert _bytes(one[name].plane(i, j)) == _bytes(two[name].plane(i, j)), (name, i, j)
    with pytest.raises(ValueError):
        b.fields_fn(x, z, -1)  # jet_seed rejects a negative order


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_order_one_jets_truncate_order_two(tag):
    # the slice Newton of w_of_f and construct read order-1 jets in place of
    # order-2 ones: every order from 1 to 7 truncates the order-7 jets bitwise
    b = make_family(canonical_config(tag))
    x, z = admissible_grid(b, GridSpec.for_bundle(b))
    top = b.fields_fn(x, z, 7)
    for m in range(1, 7):
        lo = b.fields_fn(x, z, m)
        assert set(lo) == set(top)
        for name in top:
            for i in range(m + 1):
                for j in range(m + 1 - i):
                    assert np.array_equal(lo[name].plane(i, j), top[name].plane(i, j)), (m, name, i, j)


def _bytes(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


@pytest.mark.parametrize("tag", FAMILY_TAGS + ("trivial_complex",))
@pytest.mark.parametrize("n", [21, 81])
def test_lower_orders_are_the_order_two_bytes(tag, n):
    # a verify without reconstruct reads order-1 jets and construct reads
    # order-0 values where both read order 2 before: byte for byte, so a
    # signed zero counts
    cfg = (family_from_dict(_DIGESTS.COMPLEX_TRIVIAL) if tag == "trivial_complex"
           else canonical_config(tag))
    b = make_family(cfg)
    x, z = admissible_grid(b, GridSpec.for_bundle(b, nx=n, nz=n))
    two, one, zero = (b.fields_fn(x, z, m) for m in (2, 1, 0))
    assert list(zero) == list(one) == list(two)
    for name in two:
        assert (zero[name].m, one[name].m, two[name].m) == (0, 1, 2)
        for i, j in ((0, 0), (1, 0), (0, 1)):
            assert _bytes(one[name].plane(i, j)) == _bytes(two[name].plane(i, j)), (name, i, j)
        assert _bytes(zero[name].value) == _bytes(one[name].value), name


def _spy_solve_implicit(monkeypatch):
    """Record the shape of the points of every ``families.solve_implicit`` call."""
    calls = []
    solve = families.solve_implicit
    monkeypatch.setattr(families, "solve_implicit",
                        lambda f, x, z, seed, slope=None:
                        calls.append(np.shape(x)) or solve(f, x, z, seed, slope))
    return calls


@pytest.mark.parametrize("command", ["construct", "verify"])
def test_m1_solves_its_root_once_per_run(command, tmp_path, monkeypatch):
    # the mask's two predicates and fields_fn share one Newton solve of the grid
    calls = _spy_solve_implicit(monkeypatch)
    cfg = tmp_path / "m1.json"
    cfg.write_text(json.dumps({"family": family_to_dict(canonical_config("m1_implicit")),
                               "grid": {"nx": 21, "nz": 21}}))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    assert calls == [(21, 21)]


@pytest.mark.parametrize("family", [family_to_dict(canonical_config(t)) for t in FAMILY_TAGS]
                         + list(_OFF_CANONICAL.values()),
                         ids=list(FAMILY_TAGS) + [f"{t}_off_canonical" for t in _OFF_CANONICAL])
def test_report_params_read_back_to_the_verified_config(family, tmp_path):
    # meta.params is the config as family_to_dict writes it, less family and rect:
    # every field, degenerate's seed_a and trivial's terms included
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"family": family, "grid": {"nx": 21, "nz": 21}}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    params = json.loads((tmp_path / "out" / "report.json").read_text())["meta"]["params"]
    verified = family_from_dict(family)
    assert family_from_dict({"family": verified.tag, "rect": verified.rect, **params}) == verified


def _root_solver(bundle):
    """The cached root solver of an implicit family, as its first predicate calls it."""
    pred = bundle.domain.predicates[0][1]
    found = [v for k, v in inspect.getclosurevars(pred).nonlocals.items()
             if k in ("lam_values", "solve_a")]
    assert len(found) == 1
    return found[0]


@pytest.mark.parametrize("tag", ["m1_implicit", "degenerate"])
def test_root_cache_is_keyed_by_the_points(tag, monkeypatch):
    calls = _spy_solve_implicit(monkeypatch)
    b = make_family(canonical_config(tag))
    xs, zs = GridSpec.for_bundle(b).axes()
    xg, zg = np.meshgrid(xs, zs, indexing="ij")
    assert b.domain.mask(xg, zg).all()
    solves = len(calls)
    # the mask's grid and its flat points have the same bytes: one root for both
    got = b.fields_fn(xg.ravel(), zg.ravel(), 1)
    assert len(calls) == solves
    fresh = make_family(canonical_config(tag)).fields_fn(xg.ravel(), zg.ravel(), 1)
    for name in fresh:
        assert _bytes(got[name].c) == _bytes(fresh[name].c), name
    # a strict subset is solved again and gives a fresh bundle's bytes
    sub = (slice(2, 17), slice(None, None, 2))
    solves = len(calls)
    got = b.fields_fn(xg[sub], zg[sub], 1)
    assert calls[solves:] == [xg[sub].shape]
    fresh = make_family(canonical_config(tag)).fields_fn(xg[sub], zg[sub], 1)
    for name in fresh:
        assert _bytes(got[name].c) == _bytes(fresh[name].c), name
    # the cached root is read-only, in every shape it is handed out in
    solver = _root_solver(b)
    for x, z in ((xg, zg), (xg.ravel(), zg.ravel()), (xs[:, None], zs[None, :]), (xs[3], zs[4])):
        root = solver(x, z)
        assert root.shape == np.broadcast_shapes(np.shape(x), np.shape(z))
        assert not root.flags.writeable
        with pytest.raises(ValueError):
            root[...] = 1.0


@pytest.mark.parametrize("tag, x, z", [
    # x + lam z = lam^3 folds at lam = 1, z = 3 (so x = -2); seeded at 1.2, Newton lands on it
    ("m1_implicit", [1.0, -2.0000001], [0.5, 3.0]),
    # x + sqrt(2a) z = a folds where sqrt(2a) = z: at z = 3, a = 4.5 and x = -4.5; below
    # that x there is no root, and Newton from a = 2 runs into the fold
    ("degenerate", [3.0, -4.5000001], [0.3, 3.0]),
], ids=["m1_implicit", "degenerate"])
def test_a_failed_root_solve_is_not_cached(tag, x, z, monkeypatch):
    calls = _spy_solve_implicit(monkeypatch)
    solver = _root_solver(make_family(canonical_config(tag)))
    x, z = np.array(x), np.array(z)
    for _ in range(2):
        with pytest.raises(FoldError):
            solver(x, z)
    assert len(calls) == 2
    good = solver(x[:1], z[:1])
    assert len(calls) == 3 and np.isfinite(good).all()


@pytest.mark.parametrize("tag", ["m3_general", "m3_general_e0", "m3_hodograph_example"])
def test_w_of_f_builds_no_primitive(tag, monkeypatch):
    # the slide reads f and W only; the Gauss-summed chain fields a1, a2 stay unbuilt
    b = make_family(canonical_config(tag))
    assert b.w_value_fn is None
    x, z = admissible_grid(b, GridSpec.for_bundle(b, nx=9, nz=9))
    step = 1e-3 * (b.domain.rect[1] - b.domain.rect[0])
    near = b.domain.mask(x + step, z)
    x, z = x[near], z[near]
    calls = []
    call = _Primitive.__call__
    monkeypatch.setattr(_Primitive, "__call__", lambda self, a: calls.append(a.m) or call(self, a))
    fl = b.fields_fn(x, z, 2)
    w = b.w_of_f(fl["f"].value, x + step, z)  # slides back from x + step to x
    assert calls == []
    np.testing.assert_allclose(w, fl["W"].value, rtol=1e-9)
    # the first chain field read builds each slope root's (a2, a1) pair once
    assert fl["a2"].m == 2
    assert calls == [2] * len(_primitives(b))
    assert fl["a1"].m == 2
    assert calls == [2] * len(_primitives(b))


@pytest.mark.parametrize("tag, roots", [("m3_general_e0", 2), ("m3_hodograph_example", 1)])
def test_closed_forms_cube_each_slope_root_once(tag, roots, monkeypatch):
    # a0 and W integrate s^2 C'(s) and s^-1 C'(s) along each root: one cube serves both
    b = make_family(canonical_config(tag))
    x, z = admissible_grid(b, GridSpec.for_bundle(b, nx=9, nz=9))
    calls = []
    monkeypatch.setattr(families, "jpow", lambda j, p: calls.append(p) or jpow(j, p))
    fl = b.fields_fn(x, z, 2)
    assert np.isfinite(fl["a0"].value).all() and np.isfinite(fl["W"].value).all()
    assert calls.count(3) == roots


# jet products of one order-1 fields_fn call, every entry read, at 9x9: a product
# by a structural constant of exactly 1.0 (a slope weight, a 1/delta, a row
# coefficient, an unmutated slot's factor) is none
_PRODUCTS_9X9 = {
    "trivial": 6, "m1_implicit": 26, "degenerate": 42, "m3_sigma_const": 24,
    "m3_l1_const": 18, "m3_theta_const": 21, "m3_hodograph_example": 31, "m3_general": 36,
    "m3_general_e0": 55, "mn_theta_const": 28,
}


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_fields_fn_jet_products_are_pinned(tag, monkeypatch):
    b = make_family(canonical_config(tag))
    x, z = admissible_grid(b, GridSpec.for_bundle(b, nx=9, nz=9))
    calls = []
    mul = Jet2.__mul__

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(Jet2, "__mul__", counted)
    monkeypatch.setattr(Jet2, "__rmul__", counted)
    fl = b.fields_fn(x, z, 1)
    assert all(np.isfinite(fl[name].value).all() for name in fl)
    assert len(calls) == _PRODUCTS_9X9[tag]


# tracemalloc peak, in MB, of one order-2 fields evaluation at 81x81 with every field
# read, pinned at +5 %: the jets a family returns plus the temporaries of the step that
# sets the peak, which stay few while the evaluation drops each operand once read
# (hodograph._newton_step, the slope-root folds, the row jets) and sums into buffers of
# its own (jets._Sum)
_FIELD_PEAK_MB_81 = {
    "trivial": 3.16, "m1_implicit": 2.63, "degenerate": 3.26, "m3_sigma_const": 3.42,
    "m3_l1_const": 3.10, "m3_theta_const": 3.10, "m3_hodograph_example": 3.10,
    "m3_general": 3.73, "m3_general_e0": 3.73, "mn_theta_const": 3.15,
}


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_the_field_evaluation_peak_is_pinned(tag):
    bundle = make_family(canonical_config(tag))
    ev = GridEval(bundle, GridSpec.for_bundle(bundle, nx=81, nz=81), 2)
    ev.points  # the admissible grid (and an implicit family's roots) outside the trace
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fl = ev.fields
        for name in fl:
            fl[name]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 1.05e6 * _FIELD_PEAK_MB_81[tag], f"{tag}: {peak / 1e6:.3f} MB"


def test_the_committed_gauss_rule_is_leggauss_48():
    # exactly odd nodes and even weights, as leggauss makes them
    assert np.array_equal(_GAUSS_X, -_GAUSS_X[::-1]) and np.array_equal(_GAUSS_W, _GAUSS_W[::-1])
    assert np.all(np.diff(_GAUSS_X) > 0) and np.all(_GAUSS_W > 0)
    # the table holds the bits of numpy 2.4.6; another numpy or LAPACK build may
    # differ in the last bit, so the check against the installed one allows 1 ulp
    for ours, theirs in zip((_GAUSS_X, _GAUSS_W), np.polynomial.legendre.leggauss(48)):
        assert np.all((ours == theirs) | (np.nextafter(ours, theirs) == theirs))
    # exact for x^k, k <= 95, up to the rounding of the 48 doubles themselves: in
    # exact rational arithmetic they integrate x^2 with an error of 5.5e-15 and
    # x^26 with 7.25e-15, the largest over k <= 95
    for k in range(96):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.sum(_GAUSS_W * _GAUSS_X ** k) - exact) <= 1e-14, k


@pytest.mark.parametrize("module", ["errors", "families", "functional_eq", "hodograph", "jets",
                                    "nu_algebra", "verifier"])
def test_the_package_re_exports_each_module_s_public_names(module):
    # each module's __all__ (errors has none: its public names) is the one list
    mod = importlib.import_module(f"mongesol.{module}")
    names = getattr(mod, "__all__", [name for name in vars(mod) if not name.startswith("_")])
    assert names
    for name in names:
        assert getattr(mongesol, name) is getattr(mod, name), name


def test_importing_the_cli_leaves_numpy_polynomial_unimported():
    # numpy 1.x imports numpy.polynomial with numpy; numpy 2 loads it on first use
    code = ("import sys, numpy; before = 'numpy.polynomial' in sys.modules; "
            "import mongesol.cli; print(before, 'numpy.polynomial' in sys.modules)")
    src = str(Path(mongesol.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    before, after = run.stdout.split()
    assert before == "True" or after == "False"


def _primitives(bundle):
    """The ``_Primitive`` instances a bundle's fields_fn closes over, alone or in a list
    (one per slope root)."""
    found = []
    for v in inspect.getclosurevars(bundle.fields_fn).nonlocals.values():
        found.extend(p for p in (v if isinstance(v, list) else [v]) if isinstance(p, _Primitive))
    return found


def _order_one_value(prim, t):
    """Gauss sums of ``prim``'s components over order-1 jets of the nodes (the reference route)."""
    t = np.asarray(t, dtype=float)
    half = (t - prim.ref) / 2.0
    mid = (t + prim.ref) / 2.0
    nodes = mid[..., None] + half[..., None] * _GAUSS_X
    return tuple(np.sum(g.value * _GAUSS_W, axis=-1) * half
                 for g in prim.integrand(jet_seed(nodes, 0.0, 1)[0]))


# (_BLOCK, shape of t): the default, one row per block and a ragged 100-node
# block (on 3x81 points; on 81² they would take seconds), then the default
# and a single block on 81²
_BLOCK_CASES = [(families._BLOCK, (41,)), (48, (3, 81)), (100, (3, 81)),
                (families._BLOCK, (81, 81)), (48 * (81 * 81 + 1), (81, 81))]


@pytest.mark.parametrize("tag,count", [("m3_hodograph_example", 2), ("m3_general", 4),
                                       ("m3_general_e0", 4), ("degenerate", 1)])
def test_primitive_values_equal_order_one_reference(tag, count, monkeypatch):
    # count: antiderivatives over all of the bundle's primitives
    prims = _primitives(make_family(canonical_config(tag)))
    assert sum(len(prim.value(prim.ref)) for prim in prims) == count
    for prim in prims:
        for block, shape in _BLOCK_CASES:
            monkeypatch.setattr(families, "_BLOCK", block)
            for t in (prim.ref * np.linspace(0.8, 1.2, np.prod(shape)).reshape(shape),
                      prim.ref * 1.1):
                ref = _order_one_value(prim, t)
                got = prim.value(t)
                assert len(got) == len(ref)
                for r, (g, want) in enumerate(zip(got, ref)):
                    assert np.all(np.isfinite(want))
                    assert g.shape == np.shape(t)
                    assert np.array_equal(g, want), (block, r)
            assert [v.shape for v in prim.value(np.empty(0))] == [(0,)] * len(ref)


def _scalar_integrands(tag):
    """Per component of the chain-field primitive, that component alone as an
    integrand with its own evaluation of C' (the scalar reference)."""
    cfg = canonical_config(tag)
    if tag == "m3_hodograph_example":
        k, al = float(cfg.k), float(cfg.alpha)
        cprime = lambda sj: (poly_jet((al, 0.0, 0.0, k), sj)).recip()
        return [cprime, lambda sj: sj * cprime(sj)]
    if tag == "degenerate":
        cp = families._poly_deriv(cfg.C)
        return [lambda aj: jsqrt(poly_jet(cp, aj))]
    if tag == "m3_general":
        g = float(cfg.g)
        cprime = lambda sj: -(sj * sj + g).recip()
    else:
        a = float(cfg.a)
        a1, a2 = sorted((float(cfg.alpha1), float(cfg.alpha2)))
        cprime = lambda sj: (poly_jet((a1, 0, 0, 1.0), sj) * poly_jet((a2, 0, 0, 1.0), sj)
                             * a).recip()
    return [lambda sj, r=r: jpow(sj, r) * cprime(sj) for r in (0, 1)]


@pytest.mark.parametrize("tag", ["m3_hodograph_example", "m3_general", "m3_general_e0",
                                 "degenerate"])
def test_fused_primitive_components_equal_scalar_primitives(tag, monkeypatch):
    # each component of a primitive that evaluates C' once is bitwise the
    # primitive of that component alone, in values and in every jet coefficient
    refs = _scalar_integrands(tag)
    for prim in _primitives(make_family(canonical_config(tag))):
        alone = [_Primitive(lambda tj, f=f: (f(tj),), ref=prim.ref) for f in refs]
        for block, shape in _BLOCK_CASES:
            monkeypatch.setattr(families, "_BLOCK", block)
            t = prim.ref * np.linspace(0.8, 1.2, np.prod(shape)).reshape(shape)
            got = prim.value(t)
            assert len(got) == len(refs)
            for r, single in enumerate(alone):
                assert np.array_equal(got[r], single.value(t)[0]), (block, r)
        tj = jet_seed(t, 0.5 * t, 3)[0]  # 81² points, order 3
        for r, (jet, single) in enumerate(zip(prim(tj), alone)):
            want, = single(tj)
            assert jet.m == want.m == 3
            assert np.array_equal(jet.c, want.c), r


@pytest.mark.parametrize("tag,components", [("m3_hodograph_example", 2), ("m3_general", 2),
                                            ("m3_general_e0", 2), ("degenerate", 1)])
def test_primitive_evaluates_its_integrand_once_per_gauss_block(tag, components, monkeypatch):
    prims = _primitives(make_family(canonical_config(tag)))
    monkeypatch.setattr(families, "_BLOCK", 100)  # two 48-node rows per block
    for prim in prims:
        calls = []
        integrand = prim.integrand
        monkeypatch.setattr(prim, "integrand", lambda tj: calls.append(tj.m) or integrand(tj))
        t = prim.ref * np.linspace(0.9, 1.1, 7)
        assert len(prim.value(t)) == components
        assert calls == [0] * 4  # ceil(7 / 2) blocks
        calls.clear()
        assert len(prim(jet_seed(t, 0.0, 2)[0])) == components
        assert calls == [0] * 4 + [1]  # the Gauss blocks, then one jet of the integrand


def test_w_of_f_stays_in_the_safe_domain():
    b = make_family(canonical_config("m3_general_e0"))
    x0, x1, z0, z1 = b.domain.rect
    xc, zc = np.array([(x0 + x1) / 2]), np.array([(z0 + z1) / 2])
    fl = b.fields_fn(xc, zc, 2)
    assert np.array_equal(b.w_of_f(fl["f"].value, xc, zc), fl["W"].value)
    # the slide crosses x = 0, where the slopes turn complex
    with pytest.raises(DomainError, match="predicate 'slopes_real' violated at 1 point"):
        b.w_of_f(fl["f"].value + 1.0, xc, zc)


@pytest.mark.parametrize("margin", [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, -1e-300])
def test_mask_and_require_agree_on_every_margin(margin):
    # a point is admissible exactly where every margin is > 0; NaN is not
    domain = SafeDomain(rect=(0.0, 1.0, 0.0, 1.0),
                        predicates=(("fixed", lambda x, z: np.full(np.shape(x), margin)),))
    x = z = np.array([0.5])
    admitted = bool(domain.mask(x, z)[0])
    assert admitted is (margin > 0)
    if admitted:
        domain.require(x, z)
    else:
        with pytest.raises(DomainError, match="predicate 'fixed' violated at 1 point"):
            domain.require(x, z)


def test_config_serialization_roundtrip():
    for tag in FAMILY_TAGS:
        cfg = canonical_config(tag)
        d = family_to_dict(cfg)
        back = family_from_dict(d)
        assert family_to_dict(back) == d


_real = st.floats(-1e3, 1e3, allow_nan=False)
_positive = st.floats(1e-3, 1e3)
_nonzero = _real.filter(lambda v: v != 0)
_pair = st.tuples(_real, _real)
_rect = st.tuples(_real, _real, _real, _real)


def _coeffs(min_size):
    return st.lists(_real, min_size=min_size, max_size=5).map(tuple)


@st.composite
def _general_e0(draw):
    a, alpha1 = draw(_positive), draw(_positive)
    alpha2 = draw(_positive.filter(lambda v: v != alpha1))
    return GeneralNuE0Config(a=a, alpha1=alpha1, alpha2=alpha2, rect=draw(_rect))


# valid configs of every family (a new tag needs an entry here)
CONFIGS = {
    "trivial": st.builds(trivial_random_symmetric, st.integers(1, 6), st.integers(0, 3),
                         st.integers(0, 2 ** 32 - 1).map(np.random.default_rng), rect=_rect),
    "m1_implicit": st.builds(M1ImplicitConfig, F=_coeffs(1), seed_lambda=_real,
                             rect=_rect),
    "degenerate": st.builds(DegenerateConfig, C=_coeffs(2), G=_coeffs(1),
                            seed_a=_real, rect=_rect),
    "m3_sigma_const": st.builds(SigmaConstConfig, nu=_pair, A=_real, k=_real, d1=_real,
                                d2=_real, rect=_rect),
    "m3_l1_const": st.builds(L1ConstConfig, nu=_pair, D=_real, k=_real, rect=_rect),
    "m3_theta_const": st.builds(ThetaConstConfig, nu=_pair, E=_real, k=_real, rect=_rect),
    "m3_hodograph_example": st.builds(HodographExampleConfig, k=_real, alpha=_real, beta=_real,
                                      rect=_rect),
    "m3_general": st.builds(GeneralNuConfig, g=_nonzero, rect=_rect),
    "m3_general_e0": _general_e0(),
    "mn_theta_const": st.builds(NThetaConstConfig, n=st.integers(2, 8), nu=_pair, E=_real,
                                k=_real, c=_nonzero, cbar=_nonzero, rect=_rect),
}


@pytest.mark.parametrize("tag", FAMILY_TAGS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_family_dict_roundtrip(tag, data):
    cfg = data.draw(CONFIGS[tag])
    assert family_from_dict(json.loads(json.dumps(family_to_dict(cfg)))) == cfg


@pytest.mark.parametrize("tag, keys", [
    ("trivial", ["n", "terms"]),
    ("m1_implicit", ["F", "seed_lambda"]),
    ("degenerate", ["C", "G", "seed_a"]),
    ("m3_sigma_const", ["nu", "A", "k", "d1", "d2"]),
    ("m3_l1_const", ["nu", "D", "k"]),
    ("m3_theta_const", ["nu", "E", "k"]),
    ("m3_hodograph_example", ["k", "alpha", "beta"]),
    ("m3_general", ["g"]),
    ("m3_general_e0", ["a", "alpha1", "alpha2"]),
    ("mn_theta_const", ["n", "nu", "E", "k", "c", "cbar"]),
])
def test_canonical_json_key_order(tag, keys):
    assert list(family_to_dict(canonical_config(tag))) == ["family", "rect"] + keys


def test_family_from_dict_rejects_garbage():
    with pytest.raises(ConfigError):
        family_from_dict({"no_tag": 1})
    with pytest.raises(ConfigError):
        family_from_dict({"family": "unknown_tag"})
    with pytest.raises(ConfigError):
        family_from_dict({"family": ["m3_general"]})  # a tag that is not a string
    with pytest.raises(ConfigError):
        family_from_dict({"family": "m3_sigma_const", "nu": [1, 2], "bogus_field": 3})


def _spy_univariate(monkeypatch):
    """Record ``(order, planes)`` of every jet that a one-variable function of
    ``families`` receives: F and S of the implicit solves and jets, the a0 map
    and the primitives' integrands."""
    seen = []

    def rec(fn):
        def spied(a):
            seen.append((a.m, a.c.shape[1]))
            return fn(a)
        return fn and spied

    solve, ijet, on_jet = families.solve_implicit, families.implicit_jet, families._univariate_on_jet
    init = _Primitive.__init__
    monkeypatch.setattr(families, "solve_implicit", lambda f, x, z, seed, slope=None:
                        solve(rec(f), x, z, seed, rec(slope)))
    monkeypatch.setattr(families, "implicit_jet", lambda f, xj, zj, lam0, slope=None:
                        ijet(rec(f), xj, zj, lam0, rec(slope)))
    monkeypatch.setattr(families, "_univariate_on_jet", lambda f, a, derivative=True:
                        on_jet(rec(f), a, derivative))
    monkeypatch.setattr(_Primitive, "__init__", lambda self, integrand, ref:
                        init(self, rec(integrand), ref))
    return seen, rec


def _admitted_points(bundle):
    xs, zs = GridSpec.for_bundle(bundle).axes()
    xg, zg = np.meshgrid(xs, zs, indexing="ij")
    keep = bundle.domain.mask(xg, zg)
    return xg[keep], zg[keep]


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("tag", ["m1_implicit", "degenerate"])
def test_one_variable_functions_receive_univariate_jets(tag, m, monkeypatch):
    # an order-k series holds k + 1 planes: no zero z-planes ride along
    seen, _ = _spy_univariate(monkeypatch)
    b = make_family(canonical_config(tag))
    b.fields_fn(*_admitted_points(b), m)
    assert {planes - order for order, planes in seen} == {1}
    # the Newton solve at order 1, and the jet passes at order m + 1
    assert {1, m + 1} <= {order for order, _ in seen}


def test_the_primitive_integrand_receives_univariate_jets(monkeypatch):
    seen, _ = _spy_univariate(monkeypatch)
    b = make_family(canonical_config("m3_general"))
    fields = b.fields_fn(*_admitted_points(b), 2)
    fields["a2"], fields["a1"]  # the primitives, built on first read
    # the Gauss pass reads values at order 0; the jet pass integrates order 1
    assert sorted(set(seen)) == [(0, 1), (1, 2)]


def test_the_eq10_slope_receives_univariate_jets(monkeypatch):
    # the branch's Newton solve and the evaluation of theta'(nu), both at order 1
    seen, rec = _spy_univariate(monkeypatch)
    b = make_family(canonical_config("m3_general"))
    branch = b.general_quadruple.branch2
    dataclasses.replace(branch, theta=rec(branch.theta)).resolve(*_admitted_points(b))
    assert len(seen) > 1 and set(seen) == {(1, 2)}


def _slice_bundle(f):
    """A bundle with the bottom field ``f(x-jet, z-jet)``, top field x, and no w_value_fn."""
    def fields(x, z, m):
        xj, zj = jet_seed(x, z, m)
        return {"f": f(xj, zj), "W": xj}
    return FieldBundle(n=1, domain=SafeDomain(rect=(-2.0, 2.0, -2.0, 2.0)), wf_relation=None,
                       mutation_slots=(), fields_fn=fields)


def _degenerate_w_value(t):
    b = make_family(canonical_config("degenerate"))
    x, z = _admitted_points(b)
    return b.w_value_fn(np.array([t]), x[:1], z[:1])


@pytest.mark.parametrize("call, message", [
    # f = z is flat along every slice of fixed z
    (lambda: _slice_bundle(lambda xj, zj: zj).w_of_f(np.array([1.0]), [0.5], [0.5]),
     "w_of_f: flat bottom field along the slice"),
    # Newton on x^3 - 2x + 2 = 0 from x = 0 cycles 0 -> 1 -> 0, exactly
    (lambda: _slice_bundle(lambda xj, zj: poly_jet((2.0, -2.0, 0.0, 1.0), xj)).w_of_f(
        np.array([0.0]), [0.0], [0.5]), "w_of_f: slice inversion did not converge"),
    # the canonical bottom map C(a) = a^2 takes no negative value
    (lambda: _degenerate_w_value(-1.0), "degenerate family: inversion of the bottom map stalled"),
], ids=["flat_slice", "cycling_slice", "degenerate_out_of_range"])
def test_an_inversion_that_cannot_converge_is_a_convergence_error(call, message):
    with pytest.raises(ConvergenceError) as info:
        call()
    assert str(info.value) == message
