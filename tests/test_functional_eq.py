import numpy as np
import pytest

from mongesol.errors import DomainError, FoldError
from mongesol.families import canonical_config, make_family
from mongesol.functional_eq import (
    GeneralQuadruple,
    Quadruple,
    SlopeBranch,
    duality_transform,
    four_function_residual,
    four_function_terms,
    variable_slope_residual,
)
from mongesol.jets import poly_jet
from mongesol.nu_algebra import NuPair
from mongesol.verifier import sample_points


def _zero_quadruple(n=3):
    zero = lambda t: np.zeros(np.shape(np.asarray(t)))
    return Quadruple(sigma_x=zero, theta_z=zero, l1_prime=zero, l2_dot=zero,
                     nu=NuPair(1.0, 2.0), n=n)


def test_all_zero_quadruple_solves():
    q = _zero_quadruple()
    x = np.linspace(-2, 2, 11)
    z = np.linspace(-2, 2, 11)
    assert np.max(np.abs(four_function_residual(q, x, z)[0])) == 0.0


def test_sigma_const_quadruple_solves_at_random_points():
    b = make_family(canonical_config("m3_sigma_const"))
    rng = np.random.default_rng(17)
    x, z = sample_points(b, rng, 25)
    assert np.max(np.abs(four_function_residual(b.quadruple, x, z)[0])) <= 1e-9


def test_perturbed_theta_breaks_the_constraint():
    b = make_family(canonical_config("m3_sigma_const"))
    q = b.quadruple
    bumped = Quadruple(
        sigma_x=q.sigma_x,
        theta_z=lambda z: q.theta_z(z) + 0.1,
        l1_prime=q.l1_prime,
        l2_dot=q.l2_dot,
        nu=q.nu,
        n=q.n,
    )
    rng = np.random.default_rng(18)
    x, z = sample_points(b, rng, 25)
    assert np.max(np.abs(four_function_residual(bumped, x, z)[0])) >= 1e-3


def test_residual_pair_is_the_term_sum_and_its_relative_form():
    b = make_family(canonical_config("m3_sigma_const"))
    q = b.quadruple
    bumped = Quadruple(sigma_x=q.sigma_x, theta_z=lambda z: q.theta_z(z) + 0.1,
                       l1_prime=q.l1_prime, l2_dot=q.l2_dot, nu=q.nu, n=q.n)
    x, z = sample_points(b, np.random.default_rng(19), 25)
    terms = four_function_terms(bumped, x, z)
    raw, rel = four_function_residual(bumped, x, z)
    assert np.array_equal(raw, terms[0] + terms[1] + terms[2] + terms[3])
    assert np.array_equal(rel, raw / np.maximum.reduce([np.abs(t) for t in terms]))
    assert np.min(np.abs(raw)) > 0


def test_residual_bilinear_in_line_derivatives_when_ends_vanish():
    nu = NuPair(1.0, 2.0)
    zero = lambda t: np.zeros(np.shape(np.asarray(t)))
    base = Quadruple(sigma_x=zero, theta_z=zero,
                     l1_prime=lambda t: np.cos(t) + 2, l2_dot=lambda t: t + 3, nu=nu)
    scaled = Quadruple(sigma_x=zero, theta_z=zero,
                       l1_prime=lambda t: 2.0 * (np.cos(t) + 2),
                       l2_dot=lambda t: 5.0 * (t + 3), nu=nu)
    x, z = np.linspace(0, 1, 9), np.linspace(0, 1, 9)
    r1 = four_function_residual(base, x, z)[0]
    r2 = four_function_residual(scaled, x, z)[0]
    assert np.allclose(r2, 10.0 * r1, rtol=1e-12, atol=1e-12)


def _ratio_form(q, x, z):
    """The ratio form of the constraint, cross-multiplied: eq5's independent oracle,
    ``delta`` times the four-function residual where both denominators are nonzero."""
    s, t, p, qd = q.values(x, z)
    nu1, nu2 = q.nu.nu1, q.nu.nu2
    return (t + nu1 ** 2 * p) * (qd / nu2 - nu1 * s) - (t + nu2 ** 2 * qd) * (p / nu1 - nu2 * s)


def test_ratio_form_is_delta_times_product_form():
    nu = NuPair(1.0, 2.0)
    q = Quadruple(
        sigma_x=lambda x: np.sin(x) + 2.0,
        theta_z=lambda z: z ** 2 + 1.0,
        l1_prime=lambda t: np.cos(t) + 3.0,
        l2_dot=lambda t: t + 5.0,
        nu=nu,
    )
    rng = np.random.default_rng(7)
    x, z = rng.uniform(0.5, 2.0, 50), rng.uniform(0.5, 2.0, 50)
    r5 = four_function_residual(q, x, z)[0]
    r6 = _ratio_form(q, x, z)
    assert np.max(np.abs(r6 - nu.delta * r5)) <= 1e-12 * np.max(np.abs(r6))


def test_ratio_form_solves_iff_product_form_solves():
    b = make_family(canonical_config("m3_l1_const"))
    rng = np.random.default_rng(8)
    x, z = sample_points(b, rng, 50)
    assert np.max(np.abs(_ratio_form(b.quadruple, x, z))) <= 1e-9
    assert np.max(np.abs(four_function_residual(b.quadruple, x, z)[0])) <= 1e-9


def test_variable_slope_zero_solution():
    b = make_family(canonical_config("m3_general"))
    g = b.general_quadruple
    from dataclasses import replace

    zero = lambda t: np.zeros(np.shape(np.asarray(t)))
    g0 = replace(
        g,
        branch1=replace(g.branch1, cprime=zero),
        branch2=replace(g.branch2, cprime=zero),
        theta_z=zero,
        sigma_x=zero,
    )
    rng = np.random.default_rng(9)
    x, z = sample_points(b, rng, 10)
    assert np.max(np.abs(variable_slope_residual(g0, x, z)[0])) == 0.0


@pytest.mark.parametrize("tag", ["m3_hodograph_example", "m3_general", "m3_general_e0"])
def test_variable_slope_families_solve(tag):
    b = make_family(canonical_config(tag))
    rng = np.random.default_rng(10)
    x, z = sample_points(b, rng, 40)
    assert np.max(np.abs(variable_slope_residual(b.general_quadruple, x, z)[0])) <= 1e-9


@pytest.mark.parametrize("mutations", [None, {"theta": 1.1}], ids=["solution", "theta_mutated"])
@pytest.mark.parametrize("tag", ["m3_sigma_const", "m3_l1_const", "m3_theta_const"])
def test_constant_slope_branches_reduce_to_the_four_function_residual(tag, mutations):
    # two const branches weighted -L1'/delta and L2'/delta carry the quadruple's lines
    b = make_family(canonical_config(tag), mutations=mutations)
    q = b.quadruple
    nu1, nu2, delta = q.nu.nu1, q.nu.nu2, q.nu.delta
    g = GeneralQuadruple(
        SlopeBranch(kind="const", nu_const=nu1, lprime=lambda t: q.l1_prime(t) / delta),
        SlopeBranch(kind="const", nu_const=nu2, lprime=lambda t: -q.l2_dot(t) / delta),
        theta_z=q.theta_z, sigma_x=q.sigma_x)
    x, z = sample_points(b, np.random.default_rng(12), 40)
    _, rel_variable = variable_slope_residual(g, x, z)
    _, rel_constant = four_function_residual(q, x, z)
    assert np.max(np.abs(rel_variable - rel_constant)) <= 1e-12
    if mutations:
        assert np.max(np.abs(rel_constant)) > 1e-3  # the mutation is seen by both


def test_duality_constants_on_unit_quadruple():
    nu = NuPair(1.0, 2.0)
    one = lambda t: np.ones(np.shape(np.asarray(t)))
    q = Quadruple(sigma_x=one, theta_z=one, l1_prime=one, l2_dot=one, nu=nu)
    d = duality_transform(q, "symmetric")
    t = np.array([0.3])
    assert d.sigma_x(t)[0] == pytest.approx(7.0 / 16.0)
    assert d.theta_z(t)[0] == pytest.approx(7.0)
    assert d.l1_prime(t)[0] == pytest.approx(1.0)
    assert d.l2_dot(t)[0] == pytest.approx(0.25)


@pytest.mark.parametrize("variant", ["symmetric", "literal"])
def test_duality_is_an_involution(variant):
    b = make_family(canonical_config("m3_theta_const"))
    q = b.quadruple
    qq = duality_transform(duality_transform(q, variant), variant)
    rng = np.random.default_rng(20)
    x, z = sample_points(b, rng, 20)
    t1 = x + q.nu.nu1 * z
    assert np.max(np.abs(qq.sigma_x(x) - q.sigma_x(x))) <= 1e-10
    assert np.max(np.abs(qq.theta_z(z) - q.theta_z(z))) <= 1e-10
    assert np.max(np.abs(qq.l1_prime(t1) - q.l1_prime(t1))) <= 1e-10


def test_duality_symmetric_preserves_solutions_literal_does_not():
    rng = np.random.default_rng(21)
    records = {}
    for tag in ("m3_sigma_const", "m3_l1_const", "m3_theta_const", "mn_theta_const"):
        b = make_family(canonical_config(tag))
        x, z = sample_points(b, rng, 30)
        for variant in ("symmetric", "literal"):
            r = np.max(np.abs(four_function_residual(
                duality_transform(b.quadruple, variant), x, z)[0]))
            records[(tag, variant)] = r
        assert records[(tag, "symmetric")] <= 1e-8
        assert records[(tag, "literal")] >= 1e-3


def test_duality_zero_denominator_guard():
    nu = NuPair(1.0, 2.0)
    zero = lambda t: np.zeros(np.shape(np.asarray(t)))
    q = Quadruple(sigma_x=zero, theta_z=zero, l1_prime=zero, l2_dot=zero, nu=nu)
    d = duality_transform(q)
    with pytest.raises(DomainError):
        d.sigma_x(np.array([1.0]))


@pytest.mark.parametrize("call, message", [
    (lambda: duality_transform(_zero_quadruple(), "reversed"), "unknown duality variant 'reversed'"),
    (lambda: SlopeBranch(kind="curved").resolve(1.0, 1.0), "unknown branch kind 'curved'"),
], ids=["duality_variant", "branch_kind"])
def test_an_unknown_variant_or_branch_kind_is_a_value_error(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_a_branch_that_folds_inside_the_points_is_a_fold_error():
    # x + nu z = nu^2/2 folds where theta'(nu) = nu meets z: the root nu = 1 of the
    # point (-0.5, 1) is on the fold, and the root nu = 2 of (1, 0.5) is regular
    branch = SlopeBranch(kind="implicit", cprime=np.ones_like,
                         theta=lambda tj: poly_jet((0.0, 0.0, 0.5), tj),
                         seed=lambda x, z: np.ones(np.shape(x)))
    nu, weight = branch.resolve(np.array([1.0]), np.array([0.5]))
    assert nu.tolist() == [2.0] and weight.tolist() == [1.0 / 1.5]
    with pytest.raises(FoldError) as info:
        branch.resolve(np.array([1.0, -0.5]), np.array([0.5, 1.0]))
    assert str(info.value) == "implicit solve at a fold point: S'(lam)*z - F'(lam) ~ 0"


def test_one_argument_purity_of_constant_sigma_family():
    # theta_z assembled from the two auxiliary line functions loses all x
    # dependence; rebuild it from the raw ratio at two different x and compare
    b = make_family(canonical_config("m3_sigma_const"))
    nu = b.quadruple.nu
    a = b.config.A
    k = b.config.k
    atil = nu.rho * a
    p = nu.nu2 ** 3 - nu.nu1 ** 3

    def theta_from_uv(x, z):
        u = np.exp(k * (x + nu.nu1 * z)) - 1.0 / atil
        v = np.exp(k * (x + nu.nu2 * z)) - 1.0 / atil
        return (p + a * nu.nu1 * nu.nu2 * (nu.nu2 ** 2 * v - nu.nu1 ** 2 * u)) / (u - v)

    z = np.linspace(0.5, 1.5, 7)
    t1 = theta_from_uv(np.full_like(z, 1.0), z)
    t2 = theta_from_uv(np.full_like(z, 2.3), z)
    assert np.max(np.abs(t1 - t2)) <= 1e-12 * np.max(np.abs(t1))
    assert np.max(np.abs(t1 - b.quadruple.theta_z(z))) <= 1e-11 * np.max(np.abs(t1))
