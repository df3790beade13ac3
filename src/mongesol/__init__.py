"""Explicit solution families of the degree-n Monge equation, verified on grids.

The package constructs every cataloged family as an evaluable field bundle
(truncated-Taylor jets, so residuals are roundoff-limited) and checks the
identities each family must satisfy: derivative-chain compatibility,
functional dependence of the top and bottom fields, the closed-form relation
between them, the four-function constraint, and reconstruction of the
underlying potential against a finite-difference oracle.
"""

# each module's __all__ is the one list of its public names; cli is not imported
from .errors import *
from .families import *
from .functional_eq import *
from .hodograph import *
from .jets import *
from .nu_algebra import *
from .verifier import *

__version__ = "0.1.0"
