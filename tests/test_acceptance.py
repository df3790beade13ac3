"""Acceptance suite: one test per criterion, at pinned tolerances.

Each criterion prints a single pass/fail line (run pytest with -s to see all
of them even when everything is green).
"""

import json
import time

import numpy as np

from mongesol.cli import main as cli_main
from mongesol.families import (
    FAMILY_TAGS,
    DegenerateConfig,
    M1ImplicitConfig,
    NThetaConstConfig,
    canonical_config,
    make_family,
    trivial_random_symmetric,
)
from mongesol.functional_eq import duality_transform, four_function_residual
from mongesol.jets import jet_partial
from mongesol.verifier import (
    GridEval,
    GridSpec,
    check_compatibility,
    check_dependence,
    check_equation,
    check_wf_relation,
    reconstruct_u,
    richardson_ratio,
    run_suite,
    sample_points,
)

RNG_SEED = 20260810


def _report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_polynomial_superposition():
    """Degrees 2..4, random degree-5 weights: exact chain, reconstructable."""
    rng = np.random.default_rng(RNG_SEED)
    details = []
    for n in (2, 3, 4):
        cfg = trivial_random_symmetric(n, 5, rng)
        b = make_family(cfg)
        t0 = time.time()
        ev = GridEval(b, GridSpec.for_bundle(b, nx=101, nz=101))
        compat = check_compatibility(ev, 1e-10)
        recon = reconstruct_u(ev, 1e-6)
        dt = time.time() - t0
        ok = compat.max_abs <= 1e-10 and recon.passed and dt < 5.0
        details.append(f"n={n}: compat={compat.max_abs:.1e} recon={recon.max_abs:.1e}"
                       f" (tol_eff={recon.tolerance:.1e}) {dt:.2f}s")
        assert ok, details[-1]
    _report("criterion 1 (superposition family)", True, "; ".join(details))


def test_criterion_02_degree_one_slope_equation():
    """Two cubic right-hand sides: slope field solves its classical equation."""
    rng = np.random.default_rng(RNG_SEED + 1)
    worst = 0.0
    for coeffs, seed in (((0.0, 0.0, 0.0, 1.0), 1.2), ((0.25, 0.5, 0.0, 1.0), 1.0)):
        b = make_family(M1ImplicitConfig(F=coeffs, seed_lambda=seed,
                                         rect=(1.0, 2.0, 0.1, 0.5)))
        x, z = sample_points(b, rng, 200)
        fl = b.fields_fn(x, z, 2)
        lam = fl["a0"]
        resid = np.abs(jet_partial(lam, 0, 1) - lam.value * jet_partial(lam, 1, 0))
        worst = max(worst, float(np.max(resid)))
    _report("criterion 2 (degree-1 implicit)", worst <= 1e-8,
            f"max |lam_z - lam*lam_x| = {worst:.2e} at 200 points x2 configs")


def test_criterion_03_mode_superposition():
    """Single- and two-mode potentials satisfy the transformed equation."""
    from mongesol.hodograph import assemble_r_integral

    one = assemble_r_integral(lambda k: 1.0, lambda k: 0.0, [1.0],
                              lambda c: np.ones_like(np.asarray(c)),
                              (0.0, 1.0), (0.0, 1.0), nb=21, steps=2000)
    two = assemble_r_integral(lambda k: 0.7, lambda k: 0.3, [0.8, 1.3],
                              lambda c: np.ones_like(np.asarray(c)),
                              (0.0, 1.0), (0.0, 1.0), nb=21, steps=2000)
    ok = (one.residual_max <= 1e-8 and two.residual_max <= 1e-8
          and one.wronskian_drift <= 1e-8 and two.wronskian_drift <= 1e-8)
    _report("criterion 3 (mode superposition)", ok,
            f"residuals {one.residual_max:.1e}/{two.residual_max:.1e}, "
            f"wronskian {max(one.wronskian_drift, two.wronskian_drift):.1e}")


def test_criterion_04_degenerate_slope():
    """Linear and quadratic bottom maps ride the scalar characteristic."""
    rng = np.random.default_rng(RNG_SEED + 2)
    worst = 0.0
    for c_coeffs in ((0.0, 1.0), (0.0, 0.0, 1.0)):
        b = make_family(DegenerateConfig(C=c_coeffs, G=(0.0, 1.0),
                                         seed_a=2.0, rect=(2.0, 4.0, 0.1, 0.6)))
        x, z = sample_points(b, rng, 100)
        fl = b.fields_fn(x, z, 2)
        a = fl["W"]
        cprime = np.polyder(np.poly1d(list(reversed(c_coeffs))))
        resid = np.abs(jet_partial(a, 0, 1) - np.sqrt(cprime(a.value)) * jet_partial(a, 1, 0))
        worst = max(worst, float(np.max(resid)))
    _report("criterion 4 (degenerate family)", worst <= 1e-8,
            f"max |a_z - sqrt(C') a_x| = {worst:.2e}")


M3_TAGS = ("m3_sigma_const", "m3_l1_const", "m3_theta_const",
           "m3_hodograph_example", "m3_general", "m3_general_e0")


def test_criterion_05_degree_three_catalog():
    """Every degree-3 family: constraint, chain, dependence, relation."""
    details = []
    for tag in M3_TAGS:
        b = make_family(canonical_config(tag))
        ev = GridEval(b, GridSpec.for_bundle(b, nx=21, nz=21))
        rng = np.random.default_rng(RNG_SEED + 3)
        which = "eq5" if b.quadruple is not None else "eq10"
        eq = check_equation(b, rng, 100, 1e-9, which)
        compat = check_compatibility(ev, 1e-9)
        dep = check_dependence(ev, 1e-9)
        wf_results = {r.name: r for r in check_wf_relation(ev, 1e-9, 1e-6)}
        ok = (eq.passed and compat.passed and dep.passed
              and wf_results["wf"].passed and wf_results["wf_quadrature"].passed)
        details.append(
            f"{tag}: {which}={eq.max_abs:.1e} compat={compat.max_abs:.1e} "
            f"dep={dep.max_abs:.1e} wf={wf_results['wf'].max_abs:.1e} "
            f"quad={wf_results['wf_quadrature'].max_abs:.1e}"
        )
        assert ok, details[-1]
    _report("criterion 5 (degree-3 catalog)", True, " | ".join(details))


def test_criterion_06_higher_degree_family():
    """Degrees 4 and 5 of the constant-theta_z family."""
    details = []
    for n, k in ((4, 0.1), (5, 0.05)):
        b = make_family(NThetaConstConfig(n=n, nu=(1.0, 2.0), E=1.0, k=k))
        rng = np.random.default_rng(RNG_SEED + 4)
        eq = check_equation(b, rng, 100, 1e-9, "eq5")
        compat = check_compatibility(GridEval(b, GridSpec.for_bundle(b, nx=21, nz=21)), 1e-9)
        ok = eq.passed and compat.passed
        details.append(f"n={n}: eq={eq.max_abs:.1e} compat={compat.max_abs:.1e}")
        assert ok, details[-1]
    _report("criterion 6 (degree-n family)", True, "; ".join(details))


def test_criterion_07_duality_variants():
    """At least one reciprocal-map variant preserves each solving quadruple."""
    rng = np.random.default_rng(RNG_SEED + 5)
    records = []
    for tag in ("m3_sigma_const", "m3_l1_const", "m3_theta_const"):
        b = make_family(canonical_config(tag))
        x, z = sample_points(b, rng, 50)
        passing = []
        for variant in ("symmetric", "literal"):
            r = float(np.max(np.abs(four_function_residual(
                duality_transform(b.quadruple, variant), x, z)[0])))
            if r <= 1e-8:
                passing.append(variant)
        records.append(f"{tag}: preserves={passing or 'none'}")
        assert passing, records[-1]
    _report("criterion 7 (duality transform)", True, "; ".join(records))


def test_criterion_08_mutation_sensitivity():
    """A 10% scale on any single derivative function fails some check."""
    details = []
    for tag in FAMILY_TAGS:
        cfg = canonical_config(tag)
        base = make_family(cfg)
        grid = GridSpec.for_bundle(base, nx=11, nz=11)
        for slot in base.mutation_slots:
            b = make_family(cfg, mutations={slot: 1.1})
            checks = ["compat", "dependence"]
            if b.wf_residual is not None:
                checks.append("wf")
            if b.quadruple is not None:
                checks.append("eq5")
            if b.general_quadruple is not None:
                checks.append("eq10")
            rep = run_suite(b, grid, checks, seed=RNG_SEED, probes=25)
            failing = [name for name, r in rep.checks.items()
                       if not r.passed and (r.max_abs >= 1e-4 or np.isinf(r.max_abs))]
            assert failing, f"{tag}/{slot}: no check failed under a 10% perturbation"
        details.append(f"{tag}({len(base.mutation_slots)} slots)")
    _report("criterion 8 (mutation sensitivity)", True, ", ".join(details))


def test_criterion_09_richardson_decay():
    """Reconstruction residual decays at second order under step halving."""
    rng = np.random.default_rng(RNG_SEED + 6)
    b1 = make_family(trivial_random_symmetric(3, 5, rng))
    r1, c1, f1 = richardson_ratio(b1, GridSpec.for_bundle(b1, nx=101, nz=101), 1e-6)
    b2 = make_family(canonical_config("m3_sigma_const"))
    r2, c2, f2 = richardson_ratio(b2, GridSpec.for_bundle(b2, nx=101, nz=101), 1e-4)
    ok = 3.5 <= r1 <= 4.5 and 3.5 <= r2 <= 4.5
    _report("criterion 9 (Richardson ratios)", ok,
            f"superposition {r1:.3f}, sigma-const {r2:.3f}")


def test_criterion_10_byte_identical_reports(tmp_path):
    """verify twice with one config and seed: identical bytes on disk."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": {"family": "m3_sigma_const", "nu": [1, 2], "A": 1.0, "k": 1.0},
        "checks": ["compat", "dependence", "wf", "eq5"],
    }))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert cli_main(["verify", "--config", str(cfg), "--out", str(out), "--seed", "31415"]) == 0
    same = ((out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
            and (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes())
    _report("criterion 10 (determinism)", same, "report.json and report.csv byte-identical")
