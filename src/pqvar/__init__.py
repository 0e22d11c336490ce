"""pqvar: anisotropic (p,q)-growth variational energies on simplicial grids.

Integrand evaluation and certification, numerical Fenchel duality, regularized
Dirichlet minimization, and desk-scale measurement of the associated regularity
estimates.
"""

from .model import (DiagnosticsEntry, DiagnosticsReport, DiscreteField, Grid, Region, Regime,
                    SolveReport, validate_regime)
from .integrands import (AxisPower, EvenPolynomial, HomogeneousForm, Integrand, PowerNorm,
                         Scaled, Sum, ell_mu, fd_check, v_map)
from .duality import (ConjugateResult, conjugate, fenchel_young_gap, inverse_gradient,
                      monotonicity_ratios)
from .growth import (LegendreCertificate, check_legendre, delta_of_homogeneous,
                     gehring_exponent, homogeneous_decomposition, polynomial_growth_exponents)
from .solver import (RegularizedIntegrand, Schedule, boundary_family, gamma_eps,
                     minimize_dirichlet, mollify_boundary, run_scheme)
from .diagnostics import (ExponentChain, MoserParams, hd_exponents, measure_field,
                          moser_alpha_sequence, moser_bound, v_fields)

__version__ = "0.1.0"
