"""Reference computations, written apart from pqvar, that the benchmark checks
the program's outputs against.

Nothing here imports pqvar.  Geometry is solved from vertex coordinates, the
integrands are written in closed form, and the discrete Euler-Lagrange residual
and energy are assembled from those two pieces alone.
"""

import math

import numpy as np


class ClosedForm:
    """F(z) = const + quad |z|^2 + axis_coef sum_i |z e_i|^axis_q + iso4 |z|^4
    + gamma (1 + |z|^2)^(reg_q/2), on (..., N, n) arrays.

    Every built-in of the registry is one instance of this family; the last
    term is the viscosity regularization of the approximation ladder."""

    def __init__(self, const=0.0, quad=0.0, axis_coef=0.0, axis_q=2.0, iso4=0.0,
                 gamma=0.0, reg_q=2.0):
        self.const, self.quad, self.iso4 = const, quad, iso4
        self.axis_coef, self.axis_q = axis_coef, axis_q
        self.gamma, self.reg_q = gamma, reg_q

    def regularized(self, gamma, q):
        return ClosedForm(self.const, self.quad, self.axis_coef, self.axis_q, self.iso4,
                          gamma, q)

    def value(self, z):
        z = np.asarray(z, dtype=float)
        t = (z * z).sum(axis=(-2, -1))
        col2 = (z * z).sum(axis=-2)  # squared column norms |z e_i|^2
        out = self.const + self.quad * t + self.iso4 * t * t
        out = out + self.axis_coef * (col2 ** (self.axis_q / 2.0)).sum(axis=-1)
        return out + self.gamma * (1.0 + t) ** (self.reg_q / 2.0)

    def gradient(self, z):
        z = np.asarray(z, dtype=float)
        t = (z * z).sum(axis=(-2, -1))[..., None, None]
        col2 = (z * z).sum(axis=-2)[..., None, :]
        out = (2.0 * self.quad + 4.0 * self.iso4 * t) * z
        out = out + self.axis_coef * self.axis_q * col2 ** ((self.axis_q - 2.0) / 2.0) * z
        return out + self.gamma * self.reg_q * (1.0 + t) ** (self.reg_q / 2.0 - 1.0) * z


# The registry's built-ins, by name, with their shapes (N, n).
BUILTINS = {
    "quad": (ClosedForm(quad=1.0), (1, 2)),
    "nondeg_quad": (ClosedForm(const=1.0, quad=1.0), (1, 2)),
    "aniso2d_q4": (ClosedForm(quad=1.0, axis_coef=1.0, axis_q=4.0), (1, 2)),
    "aniso2d_q4_vec": (ClosedForm(quad=1.0, axis_coef=1.0, axis_q=4.0), (2, 2)),
    "quartic_iso": (ClosedForm(iso4=0.25), (1, 2)),
    "aniso3d_q4": (ClosedForm(quad=1.0, axis_coef=1.0, axis_q=4.0), (1, 3)),
    "aniso3d_q5": (ClosedForm(quad=1.0, axis_coef=1.0, axis_q=5.0), (1, 3)),
}


class Mesh:
    """Per-simplex geometry of a simplicial mesh, from node coordinates and the
    vertex list alone."""

    def __init__(self, coords, simplices):
        self.coords = np.asarray(coords, dtype=float)
        self.simplices = np.asarray(simplices)
        X = self.coords[self.simplices]            # (S, d+1, d)
        self.edges = X[:, 1:, :] - X[:, :1, :]     # (S, d, d), row k = x_k - x_0
        d = self.coords.shape[1]
        self.volumes = np.abs(np.linalg.det(self.edges)) / math.factorial(d)
        # hat gradients: grad phi_k = inv(E) e_k for k >= 1, grad phi_0 = -sum of those
        D = np.linalg.inv(self.edges)              # (S, d, d), column k-1 = grad phi_k
        self.hat_grads = np.concatenate([-D.sum(axis=2)[:, None, :],
                                         np.transpose(D, (0, 2, 1))], axis=1)
        self.barycenters = X.mean(axis=1)
        lo, hi = self.coords.min(axis=0), self.coords.max(axis=0)
        tol = 1e-9 * float((hi - lo).max())
        self.boundary = np.any((self.coords <= lo + tol) | (self.coords >= hi - tol), axis=1)

    def gradients(self, values):
        """(S, N, d) gradients of the PL interpolant, solved per simplex from
        u(x_k) - u(x_0) = (x_k - x_0) . grad u."""
        U = np.asarray(values, dtype=float)[self.simplices]  # (S, d+1, N)
        dU = U[:, 1:, :] - U[:, :1, :]                       # (S, d, N)
        return np.transpose(np.linalg.solve(self.edges, dU), (0, 2, 1))

    def energy(self, F, values):
        return float((self.volumes * F.value(self.gradients(values))).sum())

    def residual(self, F, values):
        """Sup norm over interior nodes of the weak residual
        sum_T vol(T) <F'(grad u|_T), grad phi_v|_T>, one row per component."""
        values = np.asarray(values, dtype=float)
        dF = F.gradient(self.gradients(values))               # (S, N, d)
        contrib = self.volumes[:, None, None] * np.einsum("sik,sak->sai", dF, self.hat_grads)
        g = np.zeros((self.coords.shape[0], values.shape[1]))
        np.add.at(g, self.simplices.reshape(-1), contrib.reshape(-1, values.shape[1]))
        return float(np.abs(g[~self.boundary]).max())


def self_check(mesh, forms, rng):
    """Failures of the reference code on itself: central differences of each
    closed form against its gradient, and a zero residual and exact gradients
    for an affine field (whose gradient is the same on every simplex)."""
    failures = []
    h = 1e-6
    for name, (F, shape) in forms.items():
        z = rng.normal(size=shape) * 1.5
        dz = rng.normal(size=shape)
        fd = (F.value(z + h * dz) - F.value(z - h * dz)) / (2.0 * h)
        exact = float((F.gradient(z) * dz).sum())
        if abs(fd - exact) > 1e-6 * max(1.0, abs(exact)):
            failures.append(f"reference {name}: d/dz {exact:.12g} vs central difference {fd:.12g}")
    N = next(iter(forms.values()))[1][0]
    d = mesh.coords.shape[1]
    A = rng.normal(size=(N, d))
    u = mesh.coords @ A.T + rng.normal(size=N)
    gerr = float(np.abs(mesh.gradients(u) - A).max())
    if gerr > 1e-10 * (1.0 + float(np.abs(A).max())):
        failures.append(f"reference: affine field gradient error {gerr:.3e}")
    for name, (F, _) in forms.items():
        res = mesh.residual(F, u)
        if res > 1e-12 * max(1.0, float(np.abs(F.gradient(A)).max())):
            failures.append(f"reference {name}: affine field residual {res:.3e}")
    return failures
