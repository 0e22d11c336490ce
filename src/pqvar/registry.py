"""Built-in integrands with registered structural constants.

Each entry ships a constant L certifying the growth sandwich
L^-1 ell_mu^p <= F <= L (ell_mu^p + ell_mu^q), the p-ellipticity lower bound,
and the stress-controlled hessian upper bound, all validated by sampling
(see tests).  The registered values are empirical certificates computed offline
with a safety margin, not proofs.
"""

from dataclasses import dataclass

from .integrands import (AxisPower, EvenPolynomial, HomogeneousForm, Integrand,
                         PowerNorm, Scaled, Sum)
from .model import Regime


@dataclass
class BuiltinEntry:
    name: str
    description: str
    regime: Regime
    integrand: Integrand
    polynomial: EvenPolynomial | None = None

    @property
    def shape(self):
        return (self.regime.N, self.regime.n)


def _aniso_quartic_polynomial(n: int) -> EvenPolynomial:
    """|z|^2 + sum_i z_i^4 as graded homogeneous components (scalar rows)."""
    quad = HomogeneousForm.from_terms(1, n, 2, [(1.0, (i, i)) for i in range(1, n + 1)])
    quart = HomogeneousForm.from_terms(1, n, 4, [(1.0, (i, i, i, i)) for i in range(1, n + 1)])
    return EvenPolynomial([quad, quart])


def _build():
    entries = {}

    entries["quad"] = BuiltinEntry(
        name="quad",
        description="|z|^2, scalar, n=2: the exactly solvable baseline",
        regime=Regime(n=2, N=1, p=2.0, q=2.0, mu=0.0, L=2.5),
        integrand=PowerNorm(0.0, 2.0),
    )

    entries["nondeg_quad"] = BuiltinEntry(
        name="nondeg_quad",
        description="(1 + |z|^2), scalar, n=2: nondegenerate quadratic",
        regime=Regime(n=2, N=1, p=2.0, q=2.0, mu=1.0, L=2.5),
        integrand=PowerNorm(1.0, 2.0),
    )

    entries["aniso2d_q4"] = BuiltinEntry(
        name="aniso2d_q4",
        description="|z|^2 + z_1^4 + z_2^4, scalar, n=2: the anisotropic quartic model",
        regime=Regime(n=2, N=1, p=2.0, q=4.0, mu=0.0, L=8.0),
        integrand=Sum([PowerNorm(0.0, 2.0), AxisPower(1, 4.0), AxisPower(2, 4.0)]),
        polynomial=_aniso_quartic_polynomial(2),
    )

    entries["aniso2d_q4_vec"] = BuiltinEntry(
        name="aniso2d_q4_vec",
        description="|z|^2 + |z e_1|^4 + |z e_2|^4 on 2x2 matrices: vectorial quartic model",
        regime=Regime(n=2, N=2, p=2.0, q=4.0, mu=0.0, L=8.0),
        integrand=Sum([PowerNorm(0.0, 2.0), AxisPower(1, 4.0), AxisPower(2, 4.0)]),
    )

    entries["quartic_iso"] = BuiltinEntry(
        name="quartic_iso",
        description="|z|^4 / 4, scalar, n=2: isotropic quartic with closed-form conjugate",
        regime=Regime(n=2, N=1, p=4.0, q=4.0, mu=0.0, L=6.0),
        integrand=Scaled(0.25, PowerNorm(0.0, 4.0)),
    )

    entries["aniso3d_q4"] = BuiltinEntry(
        name="aniso3d_q4",
        description="|z|^2 + sum_i z_i^4, scalar, n=3: three-dimensional quartic model",
        regime=Regime(n=3, N=1, p=2.0, q=4.0, mu=0.0, L=8.0),
        integrand=Sum([PowerNorm(0.0, 2.0)] + [AxisPower(i, 4.0) for i in (1, 2, 3)]),
        polynomial=_aniso_quartic_polynomial(3),
    )

    entries["aniso3d_q5"] = BuiltinEntry(
        name="aniso3d_q5",
        description="|z|^2 + sum_i |z_i|^5, scalar, n=3: fast anisotropic growth, q=5",
        regime=Regime(n=3, N=1, p=2.0, q=5.0, mu=0.0, L=11.0),
        integrand=Sum([PowerNorm(0.0, 2.0)] + [AxisPower(i, 5.0) for i in (1, 2, 3)]),
    )

    return entries


BUILTINS = _build()


def get(name: str) -> BuiltinEntry:
    try:
        return BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown built-in {name!r}; available: {sorted(BUILTINS)}") from None


def names():
    return sorted(BUILTINS)
