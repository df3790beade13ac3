"""Explicit solution families of the degree-n Monge equation, verified on grids.

The package constructs every cataloged family as an evaluable field bundle
(truncated-Taylor jets, so residuals are roundoff-limited) and checks the
identities each family must satisfy: derivative-chain compatibility,
functional dependence of the top and bottom fields, the closed-form relation
between them, the four-function constraint, and reconstruction of the
underlying potential against a finite-difference oracle.
"""

from .errors import (
    BranchCutError,
    ConfigError,
    ConvergenceError,
    DomainError,
    FoldError,
    MongesolError,
    QuadratureError,
)
from .families import (
    DegenerateConfig,
    FieldBundle,
    GeneralNuConfig,
    GeneralNuE0Config,
    HodographExampleConfig,
    L1ConstConfig,
    M1ImplicitConfig,
    NThetaConstConfig,
    SafeDomain,
    SigmaConstConfig,
    ThetaConstConfig,
    TrivialConfig,
    canonical_config,
    family_from_dict,
    family_to_dict,
    make_family,
    trivial_random_symmetric,
    FAMILY_TAGS,
)
from .functional_eq import (
    GeneralQuadruple,
    Quadruple,
    SlopeBranch,
    duality_transform,
    four_function_residual,
    variable_slope_residual,
)
from .hodograph import (
    OdeSolution,
    RIntegralResult,
    assemble_r_integral,
    implicit_jet,
    schrodinger_solve,
    solve_implicit,
)
from .jets import Jet2, compose_series, jet_partial, jet_seed, jexp, jlog, jpow, jsqrt, poly_jet
from .nu_algebra import NuPair
from .verifier import (
    DEFAULT_TOLERANCES,
    GridEval,
    GridSpec,
    ResidualReport,
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
)

__version__ = "0.1.0"
